"""The benchmark's tracer patches names of the package by attribute; a refactor
that drops one of them breaks ``perfbench/run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def test_every_patch_installs_and_uninstalls(monkeypatch):
    from labelmoments import experiments, ws

    tracer_mod = _load_tracer(monkeypatch)
    originals = (experiments.trial_rng, ws.green_strawderman_alpha)
    tracer = tracer_mod.Tracer()
    try:
        invoke = tracer_mod.install(tracer, lambda: None)
        assert experiments.trial_rng is not originals[0]
        assert ws.green_strawderman_alpha is not originals[1]
        invoke()
        assert tracer.stats["cli"].calls == 1
    finally:
        tracer.uninstall()
    assert (experiments.trial_rng, ws.green_strawderman_alpha) == originals
