"""labelmoments benchmark: seeded workloads run through the CLI, timed, checked and traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload curves --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Each iteration of a workload is a fresh worker process (``worker.py``) with
BLAS/OpenMP threads pinned to 1, which imports the package from ``src/``,
sets up once and runs the workload's CLI invocations in-process.  Iterations
run one after another (a closed loop, one client) until ``--seconds`` is
spent, with at least three; medians over the iterations are reported.  With
``--trace 1`` untraced and traced iterations alternate: the traced ones give
the per-layer metrics, and their output hashes must equal the untraced ones.

Every iteration's outputs are checked; the last line of stdout is the JSON
result.  A fuller report per run is written to .perfbench-work/reports/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HARD_LIMIT_S = 165.0  # the whole run must end within 180 s
MIN_ITERATIONS = 3

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "calls": "count", "rows": "count", "solves": "count", "tiebreaks": "count",
    "fallbacks": "count", "points": "count", "attempted": "count", "failed": "count",
    "us_per_call": "us", "us_per_trial": "us", "ms_per_call": "ms", "ms": "ms",
    "s": "s", "self_s": "s", "overhead_s": "s", "computed_bytes": "B",
    "docs_per_s": "1/s", "valid_ratio": "ratio", "failed_frac": "ratio",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[-1]]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # same string hashing, hence set layout, in every worker
    return env


def _host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "platform": platform.platform(),
    }


class Run:
    """One workload at one seed: inputs, iterations and their checked results."""

    def __init__(self, name: str, seed: int, self_test: bool, work: Path):
        self.name, self.seed = name, seed
        self.params = workloads.params_for(name, self_test)
        self.work = work
        self.env = _worker_env()
        self.setup = workloads.prepare(name, self.params, seed, work / "inputs")
        self.planned = workloads.planned_fits(name, self.params)

    def iteration(self, index: int, traced: bool, timeout: float) -> dict:
        it_dir = self.work / f"it{index}"
        out = it_dir / "out"
        out.mkdir(parents=True)
        job = {
            "src": str(ROOT / "src"),
            "setup": self.setup,
            "calls": workloads.cli_calls(self.name, self.params, self.seed, self.setup, out),
            "trace": traced,
            "result": str(it_dir / "result.json"),
        }
        (it_dir / "job.json").write_text(json.dumps(job))
        record = {"traced": traced, "hashes": {}}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(it_dir / "job.json")],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                timeout=max(timeout, 1.0),
            )
            log = proc.stdout.decode(errors="replace")
            result = json.loads((it_dir / "result.json").read_text())
        except subprocess.TimeoutExpired:
            log, result = "", {"error": f"iteration exceeded {timeout:.0f} s"}
        except (OSError, ValueError) as exc:
            log, result = "", {"error": f"no worker result: {exc!r}"}
        record["result"] = result
        if "error" in result:
            errors, attempted, failed = [result["error"]], self.planned, self.planned
            record["log_tail"] = log[-4000:] + result.get("traceback", "")
        else:
            errors, attempted, failed = workloads.check(self.name, self.params, result["facts"], out)
            record["hashes"] = {rel: _sha256(out / rel) for rel in workloads.outputs(self.name)
                                if (out / rel).is_file()}
        record.update(errors=errors, attempted=attempted, failed=failed)
        shutil.rmtree(it_dir, ignore_errors=True)
        return record

    def measure(self, seconds: float, trace: bool, min_iterations: int, deadline: float) -> list[dict]:
        """Closed loop: the next iteration starts when the previous one has ended."""
        records: list[dict] = []
        start, longest = time.perf_counter(), 0.0
        while True:
            traced = trace and len(records) % 2 == 1
            t0 = time.perf_counter()
            records.append(self.iteration(len(records), traced, deadline - t0))
            now = time.perf_counter()
            longest = max(longest, now - t0)
            enough = len(records) >= min_iterations and not (trace and len(records) % 2)
            if (enough and now - start + longest > seconds) or now + longest > deadline:
                return records


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _integrity(records: list[dict]) -> None:
    """Every iteration, traced or not, must reproduce the first one's output bytes."""
    ok = [r for r in records if not r["errors"]]
    if not ok:
        return
    ref = ok[0]["hashes"]
    for r in ok[1:]:
        if r["hashes"] != ref:
            kind = "traced" if r["traced"] else "untraced"
            r["errors"].append(f"{kind} iteration output hashes differ from the first iteration's")


def _reference_status(name: str, params: dict, seed: int, hashes: dict) -> str:
    """Compare output hashes with the reference for this seed; never gates correctness."""
    key = workloads.fingerprint(params)
    local = WORK / "reference_hashes.json"
    stores = [HERE / "reference_hashes.json", local]
    for store in stores:
        if store.is_file():
            ref = json.loads(store.read_text()).get(name, {}).get(key, {}).get(str(seed))
            if ref is not None:
                return "equal" if ref == hashes else "differs"
    doc = json.loads(local.read_text()) if local.is_file() else {}
    doc.setdefault(name, {}).setdefault(key, {})[str(seed)] = hashes
    local.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return "recorded"


def summarize(run: Run, records: list[dict]) -> dict:
    _integrity(records)
    # Timings of every iteration that ran to the end, checks passed or not:
    # correctness is reported separately.
    done = [r for r in records if "error" not in r["result"]]
    plain = [r["result"] for r in done if not r["traced"]]
    traced = [r["result"] for r in done if r["traced"]]
    for r in records:
        if r["errors"]:
            r["attempted"] = max(r["attempted"], run.planned)
            r["failed"] = r["attempted"]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)

    e2e, spread = {}, {}
    if plain:
        for metric in E2E_UNITS:
            values = [res[metric] for res in plain]
            e2e[metric] = statistics.median(values)
            spread[metric] = _quartiles(values)
    layers = {}
    if traced:
        for metric in traced[0]["layers"]:
            layers[metric] = statistics.median(res["layers"][metric] for res in traced)
        if plain:
            layers["trace.overhead_s"] = (
                statistics.median(res["wall_s"] for res in traced) - e2e["wall_s"]
            )
        layers["failed_frac"] = failed / attempted if attempted else 1.0

    hashes = next((r["hashes"] for r in records if not r["errors"]), {})
    return {
        "workload": run.name,
        "seed": run.seed,
        "params": run.params,
        "why": workloads.WORKLOADS[run.name]["why"],
        "host": _host(),
        "environment": (plain or traced or [{}])[0].get("environment"),
        "iterations": len(records),
        "traced_iterations": sum(r["traced"] for r in records),
        "correct": all(not r["errors"] for r in records),
        "attempted": attempted,
        "failed": failed,
        "errors": [e for r in records for e in r["errors"]],
        "end_to_end": e2e,
        "quartiles": spread,
        "per_layer": layers,
        "output_sha256": hashes,
        "reference": _reference_status(run.name, run.params, run.seed, hashes) if hashes else "none",
        "samples": [{k: v for k, v in r.items() if k != "result"}
                    | {m: r["result"].get(m) for m in E2E_UNITS} for r in records],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, self_test: bool = False) -> dict:
    deadline = time.perf_counter() + HARD_LIMIT_S
    tag = "self-test" if self_test else f"seed{seed}-trace{int(trace)}"
    work = WORK / f"{name}-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(name, seed, self_test, work)
        min_iterations = 2 if self_test else MIN_ITERATIONS
        report = summarize(run, run.measure(seconds, trace, min_iterations, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (WORK / "reports").mkdir(parents=True, exist_ok=True)
    (WORK / "reports" / f"{name}-{tag}.json").write_text(json.dumps(report, indent=1))
    return report


def result_line(report: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in report["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in report["end_to_end"].items()}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_report(report: dict) -> None:
    print(f"perfbench: workload={report['workload']} seed={report['seed']} "
          f"iterations={report['iterations']} traced={report['traced_iterations']} "
          f"correct={report['correct']} fits={report['attempted']} failed={report['failed']}")
    print(f"perfbench: why: {report['why']}")
    print(f"perfbench: params: {json.dumps(report['params'])}")
    print(f"perfbench: host: {json.dumps(report['host'])}")
    print(f"perfbench: environment: {json.dumps(report['environment'])}")
    print(f"perfbench: outputs: {json.dumps(report['output_sha256'])} "
          f"(reference for this seed: {report['reference']})")
    n = report["iterations"] - report["traced_iterations"]
    for metric, value in report["end_to_end"].items():
        q1, _, q3 = report["quartiles"][metric]
        print(f"perfbench: {metric} = {value:.6g} {E2E_UNITS[metric]} "
              f"(median of {n}, quartiles {q1:.6g}..{q3:.6g})")
    for error in report["errors"][:20]:
        print(f"perfbench: CHECK FAILED: {error}")


def self_test() -> int:
    """Tiny trial counts, every workload, traced and untraced; checks the declared metrics."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [w["name"] for w in declared["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    for name in workloads.WORKLOADS:
        t0 = time.perf_counter()
        report = run_workload(name, 1, 0.0, True, self_test=True)
        print_report(report)
        print(f"perfbench: self-test {name} took {time.perf_counter() - t0:.1f} s")
        if not report["correct"]:
            problems.append(f"{name}: checks failed")
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            metrics = result_line(report, trace)["metrics"]
            for spec in declared[key]:
                got = metrics.get(spec["name"])
                if got is None or not got.get("unit"):
                    problems.append(f"{name}: metric {spec['name']} missing or without a unit")
                elif got["unit"] != spec["unit"]:
                    problems.append(f"{name}: metric {spec['name']} in {got['unit']}, declared {spec['unit']}")
            extra = set(metrics) - {spec["name"] for spec in declared[key]}
            if extra:
                problems.append(f"{name}: metrics not declared in BENCHMARK.json: {sorted(extra)}")
    for p in problems:
        print(f"perfbench: SELF-TEST FAILED: {p}")
    print("perfbench: self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "labelmoments" / "__init__.py").is_file():
        print(f"perfbench: no labelmoments sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
