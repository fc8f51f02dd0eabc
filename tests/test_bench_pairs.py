"""``scripts/bench_pairs.py`` refuses trees that cannot be compared before it
runs anything, and summarises pairs by quartiles and change-wins."""

import importlib.util
import re
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def no_runs(bench_pairs, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs.subprocess, "run", refuse)


def checkout(path: Path) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    (path / "src" / "pkg").mkdir(parents=True)
    return path


def test_trees_of_equal_path_length_without_bytecode_are_accepted(bench_pairs, tmp_path):
    assert bench_pairs.tree_problems(checkout(tmp_path / "aaa"), checkout(tmp_path / "bbb")) == []


@pytest.mark.parametrize("case, message", [
    ("lengths", "the paths differ in length"),
    ("pycache", "change .+: src holds __pycache__"),
    ("not-a-checkout", "parent .+ is not a checkout"),
])
def test_trees_that_cannot_be_compared_are_refused_before_any_run(
    bench_pairs, no_runs, tmp_path, capsys, case, message
):
    parent, change = checkout(tmp_path / "p"), checkout(tmp_path / ("cc" if case == "lengths" else "c"))
    if case == "pycache":
        (change / "src" / "pkg" / "__pycache__").mkdir()
    if case == "not-a-checkout":
        (parent / "perfbench" / "run.py").unlink()
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(parent), str(change), "--workload", "dvr", "--seeds", "1-3"])
    assert exc.value.code == 2
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("seeds", ["", "5,5", "3-1", "x", "-1", "7"])
def test_bad_seed_lists_are_refused_before_any_run(bench_pairs, no_runs, tmp_path, capsys, seeds):
    args = [str(checkout(tmp_path / "p")), str(checkout(tmp_path / "c")), "--workload", "dvr"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(args + ["--seeds", seeds])
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def test_seed_lists(bench_pairs):
    assert bench_pairs.parse_seeds("26401-26403") == [26401, 26402, 26403]
    assert bench_pairs.parse_seeds("5,9-10") == [5, 9, 10]


def test_summary_counts_the_pairs_where_the_change_is_lower(bench_pairs):
    pairs = [
        {"parent": {m: p for m in bench_pairs.METRICS}, "change": {m: c for m in bench_pairs.METRICS}}
        for p, c in [(1.0, 0.5), (2.0, 2.5), (3.0, 1.0), (4.0, 4.0), (5.0, 3.0)]
    ]
    wall = bench_pairs.summarize(pairs)["wall_s"]
    assert wall["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert wall["change"] == {"q1": 1.0, "median": 2.5, "q3": 3.0}
    assert (wall["change_lower_pairs"], wall["pairs"]) == (3, 5)
    assert (wall["parent_iqr"], wall["median_diff"]) == (2.0, -0.5)
