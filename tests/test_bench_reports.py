"""Every benchmark report at the root of the repository parses, and its claim
names a workload and an end-to-end metric that ``BENCHMARK.json`` defines."""

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
