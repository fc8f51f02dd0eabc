"""Run the benchmark in alternating parent/change pairs and print the pairs as JSON.

Usage:
    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seeds 26401-26410 [--seconds 30]

PARENT and CHANGE are two checkouts of the repository.  Pair k runs
``perfbench/run.py --workload W --seed S_k --seconds N --trace 0`` once in
each tree.  Every run has ``PYTHONDONTWRITEBYTECODE=1``, so that each
worker compiles src from its source, as a fresh checkout does.

The path a tree runs from moves ``peak_rss_mb`` without any change to the
code: its length, and even its bytes at equal length, as does cached
bytecode.  So the trees run from two work slots, ``a`` and ``b`` in one
temporary directory, into which each is copied afresh for every pair,
without ``.git``, ``.perfbench-work`` or ``__pycache__``.  In every four pairs each side runs
first twice and from each slot twice (``schedule``), so that the drift of
the host and the slots' paths fall on both sides alike.

The JSON printed on stdout holds, per pair, the seed, which tree ran first,
the slot of each tree, each tree's end-to-end metrics (its run's medians
over the iterations),
its iteration count and whether the output hashes agree; and, per metric,
the quartiles of each side over the pairs (linear interpolation), the
number of pairs where the change is lower, the parent's interquartile
range and the difference of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
SLOTS = ("a", "b")
NOT_COPIED = shutil.ignore_patterns(".git", ".perfbench-work", "__pycache__")


def tree_problems(parent: Path, change: Path) -> list[str]:
    """Why the two checkouts cannot be compared; empty when they can."""
    return [
        f"{name} {tree} is not a checkout with perfbench/run.py and src/"
        for name, tree in (("parent", parent), ("change", change))
        if not (tree / "perfbench" / "run.py").is_file() or not (tree / "src").is_dir()
    ]


def schedule(k: int) -> tuple[tuple[str, str], dict]:
    """Pair k's run order and each side's slot: the first side alternates
    every pair, and the slots swap every second pair."""
    order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
    slots = dict(zip(("parent", "change"), SLOTS if k % 4 < 2 else SLOTS[::-1]))
    return order, slots


def parse_seeds(text: str) -> list[int]:
    """'26401-26410' or '26401,26405': the seeds, one per pair."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    if not seeds or len(set(seeds)) != len(seeds) or min(seeds) < 0:
        raise ValueError(f"seeds must be distinct and nonnegative, got {text!r}")
    return seeds


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its end-to-end metrics, iterations and output hashes."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{tree}: seed {seed}: the outputs failed the benchmark's checks")
    path = tree / ".perfbench-work" / "reports" / f"{workload}-seed{seed}-trace0.json"
    report = json.loads(path.read_text())
    return {"metrics": {m: result["metrics"][m]["value"] for m in METRICS},
            "iterations": report["iterations"], "output_sha256": report["output_sha256"]}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 5), "median": round(median, 5), "q3": round(q3, 5)}


def summarize(pairs: list[dict]) -> dict:
    """Per metric: each side's quartiles over the pairs, and how often the change is lower."""
    out = {}
    for metric in METRICS:
        sides = {side: [p[side][metric] for p in pairs] for side in ("parent", "change")}
        spread = {side: quartiles(values) for side, values in sides.items()}
        out[metric] = {
            **spread,
            "change_lower_pairs": sum(c < p for p, c in zip(sides["parent"], sides["change"])),
            "pairs": len(pairs),
            "parent_iqr": round(spread["parent"]["q3"] - spread["parent"]["q1"], 5),
            "median_diff": round(spread["change"]["median"] - spread["parent"]["median"], 5),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 26401-26410 or 26401,26405")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    if len(seeds) < 2:
        parser.error("quartiles need at least two pairs")
    parent, change = args.parent.resolve(), args.change.resolve()
    problems = tree_problems(parent, change)
    if problems:
        parser.error("; ".join(problems))

    trees = {"parent": parent, "change": change}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        for k, seed in enumerate(seeds):
            order, slots = schedule(k)
            for side, slot in slots.items():
                shutil.rmtree(Path(work) / slot, ignore_errors=True)
                shutil.copytree(trees[side], Path(work) / slot, ignore=NOT_COPIED)
            runs = {side: run_tree(Path(work) / slots[side], args.workload, seed, args.seconds)
                    for side in order}
            pairs.append({
                "pair": k, "seed": seed, "first": order[0], "slot": slots,
                **{side: runs[side]["metrics"] for side in trees},
                "iterations": {side: runs[side]["iterations"] for side in trees},
                "output_sha256_equal": runs["parent"]["output_sha256"] == runs["change"]["output_sha256"],
            })
            print(f"pair {k} seed {seed}: " + json.dumps({s: pairs[-1][s]["wall_s"] for s in trees}),
                  file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
        "pairs": pairs, "medians": summarize(pairs),
        "output_sha256_equal": all(p["output_sha256_equal"] for p in pairs),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
