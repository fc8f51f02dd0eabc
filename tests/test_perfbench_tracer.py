"""The benchmark's tracer patches names of the package by attribute; a refactor
that drops one of them breaks ``perfbench/run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

from conftest import synthetic_keyword_corpus

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


def test_case_study_spans_are_traced(monkeypatch, tmp_path):
    from labelmoments import ws

    tracer_mod = _load_tracer(monkeypatch)
    sent = [s.sentiment for s in ws.default_roster()]
    corpus = synthetic_keyword_corpus(
        600, [0.6 if s > 0 else 0.2 for s in sent], [0.2 if s > 0 else 0.6 for s in sent], seed=1
    )
    split = {d.doc_id: ("test" if i % 3 == 0 else "train") for i, d in enumerate(corpus.documents)}
    docs, split_path = tmp_path / "docs.jsonl", tmp_path / "split.json"
    ws.Corpus(corpus.documents, split).to_jsonl(docs, split_path)
    config = ws.CaseStudyConfig(n_grid=(200,), n_unlabeled=400, n_labeled_grid=(40,), trials=2)
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer, lambda: None)
        states = ws.CorpusVotes.from_jsonl(docs, split_path).case_study_states()
        ws.run_case_study(*states, config)
    finally:
        tracer.uninstall()
    metrics = tracer_mod.layer_metrics(tracer)
    # the 600 short documents are one slice of the reader, voted by one call
    assert metrics["ws.apply_sources.calls"] == 1
    assert metrics["ws.run_case_study.s"] > 0
    # 3 fitters x 2 trials, then labeled-small and combined x 2 trials
    assert metrics["label_model.cross_entropy.calls"] == 10
    assert metrics["label_model.f1_score.calls"] == 10
    # the two quadratic fitters per trial, the corrected fit once (n_unlabeled is the
    # whole 400-document training split), then the labeled moments per trial
    assert metrics["estimators.from_state_counts.calls"] == 7
    assert metrics["estimators.from_source_matrix.calls"] == 0
