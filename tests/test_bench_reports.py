"""Every benchmark report at the root of the repository parses, its claim
names a workload and an end-to-end metric that ``BENCHMARK.json`` defines,
and a claim marked met has the change's median on the better side."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REPORTS = sorted(ROOT.glob("BENCH_*.json"))


def test_reports_are_committed():
    assert REPORTS


@pytest.mark.parametrize("path", REPORTS, ids=lambda p: p.name)
def test_claim_names_a_benchmark_metric(path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    claim = json.loads(path.read_text())["claim"]
    if claim is None:
        return
    assert claim["workload"] in {w["name"] for w in bench["workloads"]}
    assert claim["metric"] in {e["name"] for e in bench["end_to_end"]}


@pytest.mark.parametrize("path", REPORTS, ids=lambda p: p.name)
def test_met_claim_moves_the_median_the_better_way(path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    claim = json.loads(path.read_text())["claim"]
    if claim is None or "parent" not in claim or "change" not in claim:
        return
    better = {e["name"]: e["better"] for e in bench["end_to_end"]}[claim["metric"]]
    parent, change = claim["parent"]["median"], claim["change"]["median"]
    improved = change < parent if better == "lower" else change > parent
    assert improved or not claim["met"]
