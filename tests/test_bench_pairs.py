"""``scripts/bench_pairs.py`` refuses trees that cannot be compared before it
runs anything, runs both trees from two copied slots alike, and summarises
pairs by quartiles and change-wins."""

import importlib.util
import json
import re
from collections import Counter
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


def test_checkouts_are_accepted_whatever_their_paths_and_bytecode(bench_pairs, tmp_path):
    # the trees run from copies, so neither path nor __pycache__ reaches a run
    change = checkout(tmp_path / "a-longer-name")
    (change / "src" / "pkg" / "__pycache__").mkdir()
    assert bench_pairs.tree_problems(checkout(tmp_path / "p"), change) == []


@pytest.mark.parametrize("case, message", [
    ("not-a-checkout", "parent .+ is not a checkout"),
    ("no-src", "change .+ is not a checkout"),
])
def test_trees_that_cannot_be_compared_are_refused_before_any_run(
    bench_pairs, no_runs, tmp_path, capsys, case, message
):
    parent, change = checkout(tmp_path / "p"), checkout(tmp_path / "c")
    if case == "not-a-checkout":
        (parent / "perfbench" / "run.py").unlink()
    if case == "no-src":
        (change / "src" / "pkg").rmdir()
        (change / "src").rmdir()
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


def test_each_side_runs_first_and_from_each_slot_alike(bench_pairs, tmp_path, monkeypatch, capsys):
    trees = {side: checkout(tmp_path / side) for side in ("parent", "change-tree")}
    for side, tree in trees.items():
        (tree / "side.txt").write_text(side)
        for skipped in (".git", ".perfbench-work", "src/pkg/__pycache__"):
            (tree / skipped).mkdir()
    runs = []

    def run_tree(tree, workload, seed, seconds):
        assert not any((tree / name).exists() for name in (".git", ".perfbench-work", "src/pkg/__pycache__"))
        runs.append((tree, (tree / "side.txt").read_text(), seed))
        metrics = {m: float(seed) for m in bench_pairs.METRICS}
        return {"metrics": metrics, "iterations": 3, "output_sha256": {}}

    monkeypatch.setattr(bench_pairs, "run_tree", run_tree)
    assert bench_pairs.main([str(trees["parent"]), str(trees["change-tree"]),
                             "--workload", "dvr", "--seeds", "11-18"]) == 0
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    # both slots sit in one directory under names of one length
    assert len({len(str(tree)) for tree, _, _ in runs}) == 1
    assert len({tree.parent for tree, _, _ in runs}) == 1
    for k, pair in enumerate(pairs):
        ran = runs[2 * k: 2 * k + 2]
        assert [seed for _, _, seed in ran] == [pair["seed"]] * 2
        assert ran[0][1].startswith(pair["first"])
        assert {side: tree.name for tree, side, _ in ran} == {
            "parent": pair["slot"]["parent"], "change-tree": pair["slot"]["change"],
        }
    for block in (pairs[:4], pairs[4:]):
        assert Counter(p["first"] for p in block) == {"parent": 2, "change": 2}
        assert Counter(p["slot"]["parent"] for p in block) == {"a": 2, "b": 2}
        assert all(p["slot"]["parent"] != p["slot"]["change"] for p in block)
