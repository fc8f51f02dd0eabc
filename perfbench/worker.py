"""One iteration of a benchmark workload, in a fresh process.

Usage: python3 perfbench/worker.py JOB.json

The job file names the workload's setup, its labelmoments CLI invocations
and where to write the result.  The worker times a cold import of the
package plus the setup (``setup_s``), then runs the CLI invocations
in-process (``wall_s``, and ``cpu_s`` for all threads of the process), and
records the process's peak resident memory.  With ``"trace": true`` it
first installs the span wrappers of ``tracer.py`` and also reports the
per-layer metrics.  The result is written as JSON; the exit code is 1 when
the workload raised.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _setup(spec: dict) -> dict:
    """Input preparation done once: the facts the output checks need."""
    if spec["kind"] == "synthetic":
        from labelmoments import experiments, ising

        cfg = experiments.ExperimentConfig.from_json(spec["config"])
        model = cfg.model.build()
        diag = ising.diagnostics(model)
        return {"m": model.m, "B_I": diag.inference_bias}
    from labelmoments import ws

    corpus = ws.Corpus.from_jsonl(spec["docs"], spec["split"])
    return {"docs": len(corpus.documents)}


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in threads},
    }


def run(job: dict) -> dict:
    t0 = time.perf_counter()
    import labelmoments
    from labelmoments import cli
    import_s = time.perf_counter() - t0

    src = Path(job["src"]).resolve()
    if src not in Path(labelmoments.__file__).resolve().parents:
        raise RuntimeError(f"labelmoments was imported from {labelmoments.__file__}, not {src}")

    def invoke(args):
        cli.main.main(args=list(args), prog_name="labelmoments", standalone_mode=False)

    tracer = None
    if job["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        invoke = install(tracer, invoke)

    t1 = time.perf_counter()
    facts = _setup(job["setup"])
    setup_s = import_s + time.perf_counter() - t1

    w0, c0 = time.perf_counter(), time.process_time()
    for args in job["calls"]:
        invoke(args)
    wall_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0

    result = {
        "facts": facts,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(),
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        result["layers"] = layer_metrics(tracer)
    return result


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    code = 0
    try:
        result = run(job)
    except (Exception, SystemExit) as exc:  # the CLI exits 1 on domain errors
        result = {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
        code = 1
    Path(job["result"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
