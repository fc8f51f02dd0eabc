import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from labelmoments import cli, experiments, ws
from labelmoments.cli import main
from labelmoments.experiments import DEFAULT_ACCURACIES
from labelmoments.ising import IsingModel
from labelmoments.manifest import file_sha256
from labelmoments.ws import Corpus, Document, default_roster

from conftest import synthetic_keyword_corpus


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "model": {"accuracies": list(DEFAULT_ACCURACIES[:6]), "d": 1},
        "estimators": ["labeled", "triplet-mean"],
        "n_grid": [100, 200],
        "trials": 5,
        "seed": 3,
    }))
    return path


@pytest.mark.parametrize("args", [
    ["calibrate", "--accuracies", "0.6,0.7,0.65", "--edges", "0:1", "-o", "m.json"],
    ["calibrate", "--accuracies", "0.6,x", "-o", "m.json"],
    ["curves", "--n-grid", "100,abc", "-o", "out"],
    ["combine", "--n-labeled-grid", "25,zz", "-o", "out"],
    # a negative seed, given before any other option so that it is the one refused
    ["sample", "--seed", "-1", "-o", "d.csv"],
    ["fit", "--seed", "-1", "--agg", "single", "-o", "e.json"],
    ["decompose", "--seed", "-1", "--demo", "-o", "d.json"],
    ["bounds", "--seed", "-1", "-o", "b.json"],
    ["curves", "--seed", "-1", "-o", "out"],
    ["dvr", "--seed", "-1", "-o", "out"],
    ["combine", "--seed", "-1", "-o", "out"],
    ["ws", "ingest", "--seed", "-1", "--docs-out", "d.jsonl"],
    ["ws", "run", "--seed", "-1", "-o", "out"],
    # seeds from 2**63 up
    ["curves", "--seed", str(2**63), "-o", "out"],
    ["ws", "run", "--seed", str(2**64), "-o", "out"],
])
def test_malformed_tokens_are_usage_errors(tmp_path, args):
    result = CliRunner().invoke(main, args[:-1] + [str(tmp_path / args[-1])])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "Invalid value" in result.output


def test_only_the_ws_commands_load_the_ws_module():
    # every other command, and each benchmark workload but the case study,
    # runs without loading (or compiling) the keyword pipeline
    code = "import sys, labelmoments.cli; print('labelmoments.ws' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, sys.path))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.stdout.strip() == "False", result.stderr


def test_combine_has_no_n_grid(tmp_path, tiny_config):
    # combine runs no curve grid, so it takes none rather than record one it ignores
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        "combine", "--config", str(tiny_config), "--n-grid", "7", "--n-labeled-grid", "30",
        "-o", str(out),
    ])
    assert result.exit_code == 2
    assert "No such option '--n-grid'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command, output", [
    (["curves"], "curves.csv"),
    (["dvr"], "dvr.csv"),
    (["combine", "--n-unlabeled", "200", "--n-labeled-grid", "40,80"], "combined.csv"),
])
def test_suites_run_on_tiny_config(tmp_path, tiny_config, command, output):
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, command + ["--config", str(tiny_config), "-o", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert (out / output).is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(out / output) in manifest["output_hashes"]


def test_manifest_records_python_and_numpy_versions(tmp_path, tiny_config):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["curves", "--config", str(tiny_config), "-o", str(out)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__


def test_dvr_csv_reports_target_uncertainty(tmp_path, tiny_config):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["dvr", "--config", str(tiny_config), "-o", str(out)])
    assert result.exit_code == 0, result.output
    header, *rows = (out / "dvr.csv").read_text().splitlines()
    assert header.split(",") == [
        "estimator", "n_unlabeled", "target_excess",
        "matched_n_labeled", "value_ratio", "lower_bounded",
        "target_stderr", "n_labeled_lo", "n_labeled_hi",
    ]
    assert len(rows) == 2
    for row in rows:
        fields = row.split(",")
        assert float(fields[6]) > 0
        lo, matched, hi = int(fields[7]), int(fields[3]), int(fields[8])
        if min(lo, matched, hi) > 0:
            assert lo <= matched <= hi


@pytest.fixture
def tiny_corpus(tmp_path):
    sent = [s.sentiment for s in default_roster()]
    p_pos = [0.6 if s > 0 else 0.2 for s in sent]
    p_neg = [0.2 if s > 0 else 0.6 for s in sent]
    corpus = synthetic_keyword_corpus(2000, p_pos, p_neg, seed=4)
    split = {d.doc_id: ("test" if i % 5 == 0 else "train") for i, d in enumerate(corpus.documents)}
    docs, split_path = tmp_path / "docs.jsonl", tmp_path / "split.json"
    Corpus(corpus.documents, split).to_jsonl(docs, split_path)
    return docs, split_path


def _ws_run(docs, split, out):
    return CliRunner().invoke(main, [
        "ws", "run", "--corpus", str(docs), "--split", str(split),
        "--n-grid", "400,1600", "--n-unlabeled", "1600", "--n-labeled-grid", "40,80",
        "--trials", "2", "-o", str(out),
    ])


def test_ws_run_on_tiny_corpus(tmp_path, tiny_corpus):
    out = tmp_path / "out"
    result = _ws_run(*tiny_corpus, out)
    assert result.exit_code == 0, result.output
    header, *rows = (out / "metrics.csv").read_text().splitlines()
    # 3 models x 2 training sizes, then labeled-small and combined x 2 budgets
    assert len(rows) == 3 * 2 + 2 * 2
    columns = header.split(",")
    for row in rows:
        rec = dict(zip(columns, row.split(",")))
        assert math.isfinite(float(rec["loss"]))
        assert 0.0 <= float(rec["f1"]) <= 1.0


def test_ws_run_manifest_hashes(tmp_path, tiny_corpus):
    docs, split = tiny_corpus
    out = tmp_path / "out"
    assert _ws_run(docs, split, out).exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input_hashes"] == {
        str(docs): file_sha256(docs), str(split): file_sha256(split),
    }
    metrics = out / "metrics.csv"
    assert manifest["output_hashes"] == {str(metrics): file_sha256(metrics)}


# SHA-256 of `ws run`'s metrics.csv on the tiny corpus, recorded with numpy
# 2.4.6.  It pins the keyword votes, the case study's ``trial_rng`` streams
# (``Generator.choice`` without replacement) and every fit and score after
# them; a speed-up of any of these must leave it unchanged.
WS_RUN_METRICS_SHA256 = "92a12613b4b688c7c6110d1917b8e713f6a02d052b90dd21aaf4a4a062e81db8"


def test_ws_run_metrics_match_recorded_hash(tmp_path, tiny_corpus):
    out = tmp_path / "out"
    result = _ws_run(*tiny_corpus, out)
    assert result.exit_code == 0, result.output
    assert file_sha256(out / "metrics.csv") == WS_RUN_METRICS_SHA256


@pytest.mark.parametrize("option, value, message", [
    ("--trials", "0", "trials must be at least 1"),
    ("--trials", "-3", "trials must be at least 1"),
    ("--n-grid", "0,200", "n_grid sizes must be at least 1, got 0"),
    ("--n-unlabeled", "0", "n_unlabeled sizes must be at least 1, got 0"),
    ("--n-labeled-grid", "40,-1", "n_labeled_grid sizes must be at least 1, got -1"),
    ("--n-grid", "", "'n_grid' must list at least one sample size"),
    ("--n-labeled-grid", "", "'n_labeled_grid' must list at least one sample size"),
    ("--n-grid", "400,400", "'n_grid' must be strictly increasing"),
])
def test_ws_run_rejects_non_positive_counts(tmp_path, tiny_corpus, option, value, message):
    docs, split = tiny_corpus
    args = {"--n-grid": "400,1600", "--n-unlabeled": "1600", "--n-labeled-grid": "40,80",
            "--trials": "2", option: value}
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        "ws", "run", "--corpus", str(docs), "--split", str(split), "-o", str(out),
        *(token for pair in args.items() for token in pair),
    ])
    assert result.exit_code == 1
    assert f"error (ContractError): {message}" in result.output
    assert "Traceback" not in result.output
    assert not (out / "metrics.csv").exists()


def test_ws_run_refuses_a_class_balance_before_reading_the_corpus(tmp_path, tiny_corpus, monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("the corpus was read")

    monkeypatch.setattr(ws.CorpusVotes, "from_jsonl", no_read)
    docs, split = tiny_corpus
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        "ws", "run", "--corpus", str(docs), "--split", str(split), "--balance", "1.5", "-o", str(out),
    ])
    assert result.exit_code == 1
    assert "error (ContractError): class balance must lie in (0, 1), got 1.5" in result.output
    assert not out.exists()


def test_ws_run_malformed_corpus_exits_1(tmp_path, tiny_corpus):
    docs, split = tiny_corpus
    with open(docs, "a") as fh:
        fh.write('{"id": "broken"\n')
    result = _ws_run(docs, split, tmp_path / "out")
    assert result.exit_code == 1
    assert "error (ContractError)" in result.output
    assert "docs.jsonl, line 2001" in result.output
    assert "Traceback" not in result.output


# Faults of a `ws run` input, in the order in which they are reported: the
# corpus is read first (a faulty line, then undecodable bytes in a later read
# buffer), then the split manifest, then the ids, then the splits.
WS_RUN_FAULTS = {
    "bad-line": "{docs}, line 2: not a document record with 'id' and 'text' "
                "(JSONDecodeError: Expecting ',' delimiter: line 1 column 16 (char 15))",
    "not-utf8": "{docs}: not UTF-8 text ('utf-8' codec can't decode byte 0xe9 in position "
                "{position}: invalid continuation byte)",
    "bad-manifest": "{split}: not a JSON object",
    "repeated-id": "document ids must be unique; 'd5' repeats",
    "missing-split": "corpus is missing a train or test split: ingest one first "
                     "(labelmoments ws ingest --help) and pass its split manifest",
    "unlabeled-test": "the test split must be fully labeled",
    "unlabeled-train": "the training split must be labeled to simulate budgets",
}


def _faulty_corpus(tmp_path, faults):
    """24 labeled documents of about 1 KB, 16 train and 8 test, with the given faults."""
    records = [{"id": f"d{i}", "text": f"good film number {i} " + "x" * 1000, "label": 1 - 2 * (i % 2)}
               for i in range(24)]
    split = {"train": [f"d{i}" for i in range(16)], "test": [f"d{i}" for i in range(16, 24)]}
    if "unlabeled-test" in faults:
        del records[20]["label"]
    if "unlabeled-train" in faults:
        del records[3]["label"]
    if "repeated-id" in faults:
        records.append({"id": "d5", "text": "again", "label": 1})
    if "missing-split" in faults:
        del split["test"]
    lines = [json.dumps(r) for r in records]
    if "bad-line" in faults:
        lines.insert(1, '{"id": "broken"')
    data = "\n".join(lines).encode() + b"\n"
    if "not-utf8" in faults:  # past the first read buffer of 8 KB
        data += b'{"id": "z", "text": "caf\xe9", "label": 1}\n'
    docs, split_path = tmp_path / "docs.jsonl", tmp_path / "split.json"
    docs.write_bytes(data)
    split_path.write_text('["d0"]' if "bad-manifest" in faults else json.dumps(split))
    return docs, split_path


@pytest.mark.parametrize("slice_bytes", [None, 1000], ids=["default-slices", "1000-byte-slices"])
@pytest.mark.parametrize("with_later", [False, True], ids=["alone", "with-every-later-fault"])
@pytest.mark.parametrize("fault", list(WS_RUN_FAULTS))
def test_ws_run_reports_the_first_input_fault(tmp_path, monkeypatch, fault, with_later, slice_bytes):
    if slice_bytes is not None:  # slices are voted before the reader meets the fault
        monkeypatch.setattr(ws, "_SLICE_BYTES", slice_bytes)
    names = list(WS_RUN_FAULTS)
    docs, split = _faulty_corpus(
        tmp_path, names[names.index(fault):] if with_later else [fault]
    )
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        "ws", "run", "--corpus", str(docs), "--split", str(split), "--trials", "1", "-o", str(out),
    ])
    message = WS_RUN_FAULTS[fault].format(
        docs=docs, split=split, position=849 if with_later else 832
    )
    assert result.exit_code == 1
    assert result.output == f"error (ContractError): {message}\n"
    assert not out.exists()


def test_ws_run_memory_does_not_grow_with_document_length(tmp_path):
    """The same documents and keywords, once padded to about 4 KB each: the
    tracemalloc peaks of `ws run` differ by less than six slice budgets.

    Reading the whole corpus would add its 4 MB of text.  The difference is
    that of reading the input in 1 MiB blocks to hash it (four budgets); a
    slice's text, its encoded copy and its joined buffer are about three.
    """
    sent = [s.sentiment for s in default_roster()]
    corpus = synthetic_keyword_corpus(
        1000, [0.6 if s > 0 else 0.2 for s in sent], [0.2 if s > 0 else 0.6 for s in sent], seed=4
    )
    split = {d.doc_id: ("test" if i % 5 == 0 else "train") for i, d in enumerate(corpus.documents)}

    for pad in (0, 1333):
        docs = tuple(Document(d.doc_id, d.text + " zz" * pad, d.label) for d in corpus.documents)
        Corpus(docs, split).to_jsonl(tmp_path / f"{pad}.jsonl", tmp_path / f"{pad}.split.json")

    def run(pad, out):
        return CliRunner().invoke(main, [
            "ws", "run", "--corpus", str(tmp_path / f"{pad}.jsonl"),
            "--split", str(tmp_path / f"{pad}.split.json"), "--n-grid", "200",
            "--n-unlabeled", "400", "--n-labeled-grid", "40", "--trials", "1", "-o", str(out),
        ])

    assert run(0, tmp_path / "warm-up").exit_code == 0  # first-call imports and caches
    peaks = {}
    for pad in (0, 1333):
        tracemalloc.start()
        try:
            result = run(pad, tmp_path / f"out{pad}")
            peaks[pad] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
    assert abs(peaks[1333] - peaks[0]) < 6 * ws._SLICE_BYTES, peaks


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_ws_input_that_is_not_utf8_fails_typed(tmp_path, fmt):
    # "café" with its é as the one latin-1 byte 0xe9
    path, out = tmp_path / f"docs.{fmt}", tmp_path / "out"
    if fmt == "jsonl":
        path.write_bytes(b'{"id": "a", "text": "fine"}\n{"id": "b", "text": "caf\xe9"}\n')
        args = ["ws", "apply", "--corpus", path, "-o", out]
    else:
        path.write_bytes(b"text,label\nfine,1\ncaf\xe9,0\n")
        args = ["ws", "ingest", "--input", path, "--format", "csv",
                "--docs-out", out, "--split-out", tmp_path / "split.json"]
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 1
    assert f"error (ContractError): {path}: not UTF-8 text" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("where", ["header", "body"])
def test_source_csv_that_is_not_utf8_fails_typed(tmp_path, where):
    rows = [b"lf_0,lf_1,lf_2", b"1,-1,1", b"-1,1,1"]
    rows[0 if where == "header" else 2] += b"\xe9"
    path, out = tmp_path / "data.csv", tmp_path / "est.json"
    path.write_bytes(b"\n".join(rows) + b"\n")
    result = CliRunner().invoke(main, [
        "fit", "--data", str(path), "--method", "triplet", "-o", str(out),
    ])
    assert result.exit_code == 1
    assert f"error (ContractError): {path}: not UTF-8 text" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_ws_corpus_line_nested_too_deeply_fails_typed(tmp_path):
    docs, out = tmp_path / "docs.jsonl", tmp_path / "out.csv"
    docs.write_text('{"id": "a", "text": "fine"}\n' + "[" * 100_000 + "\n")
    result = CliRunner().invoke(main, ["ws", "apply", "--corpus", str(docs), "-o", str(out)])
    assert result.exit_code == 1
    assert f"error (ContractError): {docs}, line 2: " in result.output
    assert "RecursionError" in result.output
    assert not out.exists()


def test_ws_split_nested_too_deeply_fails_typed(tmp_path):
    docs, split, out = tmp_path / "docs.jsonl", tmp_path / "split.json", tmp_path / "out.csv"
    docs.write_text('{"id": "a", "text": "fine"}\n')
    split.write_text('{"train": ' + "[" * 100_000)
    result = CliRunner().invoke(main, [
        "ws", "apply", "--corpus", str(docs), "--split", str(split), "-o", str(out),
    ])
    assert result.exit_code == 1
    assert f"error (ContractError): {split}: not JSON" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("sizes", [
    ["--n-labeled-grid", "0"],
    ["--n-labeled-grid", "40,0"],
    ["--n-unlabeled", "0", "--n-labeled-grid", "40"],
])
def test_combine_rejects_nonpositive_sizes(tmp_path, tiny_config, sizes):
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["combine", "--config", str(tiny_config), "-o", str(out)] + sizes
    )
    assert result.exit_code == 1
    assert "error (ContractError)" in result.output
    assert not (out / "combined.csv").exists()


@pytest.mark.parametrize("args, config, message", [
    (["dvr", "--estimators", "foo"], {}, "unknown estimator 'foo'"),
    (["combine", "--estimator", "foo"], {}, "unknown estimator 'foo'"),
    (["combine", "--estimator", "labeled"], {}, "'labeled' is not one"),
    (["curves", "--d", "-1"], {}, "must be non-negative, got -1"),
    # one rule for estimator lists and size grids in every suite
    (["curves"], {"estimators": []}, "'estimators' must list at least one estimator"),
    (["curves"], {"estimators": ["triplet-mean", "triplet-mean"]},
     "estimator listed twice in 'estimators': triplet-mean, triplet-mean"),
    (["curves", "--n-grid", "0,100"], {}, "n_grid sizes must be at least 1, got 0"),
    (["combine", "--n-labeled-grid", ""], {}, "'n_labeled_grid' must list at least one sample size"),
    (["combine", "--n-labeled-grid", "80,40"], {}, "'n_labeled_grid' must be strictly increasing"),
])
def test_bad_suite_input_fails_before_any_trial(
    tmp_path, tiny_config, monkeypatch, args, config, message
):
    def no_draw(*a):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(experiments, "trial_rng", no_draw)
    tiny_config.write_text(json.dumps({**json.loads(tiny_config.read_text()), **config}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, args + ["--config", str(tiny_config), "-o", str(out)])
    assert result.exit_code == 1
    assert "error (ContractError): " in result.output and message in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("args, estimators, message", [
    (["--estimators", "labeled"], None, "'labeled' is not one"),
    (["--estimators", "triplet-mean,triplet-mean"], None, "listed twice"),
    (["--estimators", ""], None, "unknown estimator ''"),
    ([], ["labeled"], "unlabeled estimators must list at least one estimator"),
])
def test_dvr_rejects_estimator_lists_it_cannot_run(
    tmp_path, tiny_config, monkeypatch, args, estimators, message
):
    def no_draw(*a):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(experiments, "trial_rng", no_draw)
    if estimators is not None:
        doc = json.loads(tiny_config.read_text())
        tiny_config.write_text(json.dumps({**doc, "estimators": estimators}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["dvr", "--config", str(tiny_config), "-o", str(out)] + args)
    assert result.exit_code == 1
    assert "error (ContractError)" in result.output and message in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


# SHA-256 of the suite outputs of GOLDEN_CONFIG under random-stream protocol
# v6 (closed-form calibration; one generator per stream; every triplet
# estimator at n fits the samples of the unlabeled cell, each with its own
# fit stream; the combined sweep pairs them with the separate Monte-Carlo
# labeled cell), recorded with numpy 2.4.6.  Every cell has
# n(m+1) >= 2^(m+1), so it draws counts of u = s * y by the alias method.
GOLDEN_CONFIG = {
    "model": {"accuracies": list(DEFAULT_ACCURACIES[:6]), "d": 1},
    "estimators": ["labeled", "triplet-mean", "triplet-median", "triplet-single"],
    "n_grid": [40, 200],
    "trials": 5,
    "seed": 3,
}
GOLDEN_HASHES = {
    "curves.csv": "3aaa7f2700c7f34ae6092b3918984ab626aa61f493b2c965657108449aa7ae73",
    "combined.csv": "635cabda4a5965fd701d18ff8f234dac64e25ca97896656bdbf72c8df8fb22db",
    "dvr.csv": "16ddce5b4911f632b57ca663c3d54bdfec83f1cd251a3752b7cad5bf41565a14",
}
# The labeled curve draws nothing: these lines of curves.csv pin its sum
# over each binomial's Hoeffding window (LABELED_TAIL_MASS = 1e-20 per
# source), whose last bits differ from the full sum's at n=200 here and at
# n=100 in ROW_LABELED_LINES.
GOLDEN_LABELED_LINES = (
    "labeled,40,0.10406948933251411,0.0,5,0",
    "labeled,200,0.028664855695798647,0.0,5,0",
)

# The same under protocol v6, on cells that draw rows: at m=10 the samples
# of n=100 (curves, dvr, and the unlabeled side of combine) and of the
# labeled sizes 25 and 50 have n(m+1) < 2^(m+1), and their bytes are those
# of protocol v5 (combined.csv reads only these cells); the cells at n=1000
# draw u-counts.  Recorded with numpy 2.4.6.
ROW_GOLDEN_CONFIG = {
    "model": {"accuracies": list(DEFAULT_ACCURACIES), "d": 5},
    "estimators": ["labeled", "triplet-mean", "triplet-median", "triplet-single"],
    "n_grid": [100, 1000],
    "trials": 5,
    "seed": 3,
}
ROW_GOLDEN_HASHES = {
    "curves.csv": "e26034cb3327d5aaec260fa12c6333c6fe750c0574e6ca37921c990f49e7e3ce",
    "combined.csv": "f8f9d272e2e7509c1ac9584cc2957237694b78ad6e5a9a8d45c3e17d5b7ee8ae",
    "dvr.csv": "63c12d321f7f8e49e260e4e0a8e935a7947a342938d396a9907708d31cee1922",
}
ROW_LABELED_LINES = (
    "labeled,100,0.1223722989981035,0.0,5,0",
    "labeled,1000,0.07507258276192876,0.0,5,0",
)


def _run_suites(tmp_path, config_doc, commands):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_doc))
    out = tmp_path / "out"
    for args in commands:
        result = CliRunner().invoke(main, args + ["--config", str(config), "-o", str(out)])
        assert result.exit_code == 0, result.output
    return out


def test_suite_outputs_match_recorded_hashes(tmp_path):
    """The Monte-Carlo suites reproduce recorded bytes (m=6, 5 trials).

    These hashes pin random-stream protocol v6: one generator per stream
    from ``trial_rng``, the unlabeled cell shared by every triplet
    estimator at n, numpy 2.4.6's ``random`` stream split into alias bins,
    its ``integers`` stream, and every number computed from the draws.  A
    speed-up must leave them unchanged.  A deliberate change of the stream
    must update them in the same change, and say so.
    """
    out = _run_suites(tmp_path, GOLDEN_CONFIG, [
        ["curves"],
        ["dvr"],
        ["combine", "--n-unlabeled", "200", "--n-labeled-grid", "25,50",
         "--estimator", "triplet-single"],
    ])
    assert {name: file_sha256(out / name) for name in GOLDEN_HASHES} == GOLDEN_HASHES
    lines = (out / "curves.csv").read_text().splitlines()
    assert [line for line in lines if line.startswith("labeled,")] == list(GOLDEN_LABELED_LINES)


def test_row_path_outputs_match_recorded_hashes(tmp_path):
    """Protocol v6's row draws, unchanged from v5, reproduce recorded bytes
    (m=10, 5 trials): numpy 2.4.6's ``random`` stream and the thresholds it
    is compared with."""
    out = _run_suites(tmp_path, ROW_GOLDEN_CONFIG, [
        ["curves"],
        ["dvr"],
        ["combine", "--n-unlabeled", "100", "--n-labeled-grid", "25,50",
         "--estimator", "triplet-single"],
    ])
    assert {name: file_sha256(out / name) for name in ROW_GOLDEN_HASHES} == ROW_GOLDEN_HASHES
    lines = (out / "curves.csv").read_text().splitlines()
    assert [line for line in lines if line.startswith("labeled,")] == list(ROW_LABELED_LINES)


# The same on the row path at m=14 with five dependent pairs, where every
# cell here draws rows (n(m+1) < 2^15): blocks of two trials at n=250 and of
# one at n=1000, unlabeled and labeled.  Recorded with numpy 2.4.6, before
# the row path read u without converting it to source signs.
WIDE_ROW_GOLDEN_CONFIG = {
    "model": {"accuracies": list(DEFAULT_ACCURACIES) + [0.62, 0.71, 0.58, 0.66], "d": 5},
    "estimators": ["labeled", "triplet-mean", "triplet-median", "triplet-single"],
    "n_grid": [250, 1000],
    "trials": 5,
    "seed": 3,
}
WIDE_ROW_GOLDEN_HASHES = {
    "curves.csv": "c227347836373dfbf589228665f1708a5e3f299dbe5318bd464ffe6d6f2e6e15",
    "combined.csv": "e465f033e4c55979c644b93bffcb18d0430eee0e033e2b62161ff5890b63d750",
}


def test_wide_row_path_outputs_match_recorded_hashes(tmp_path):
    out = _run_suites(tmp_path, WIDE_ROW_GOLDEN_CONFIG, [
        ["curves"],
        ["combine", "--n-unlabeled", "250", "--n-labeled-grid", "40,250",
         "--estimator", "triplet-single"],
    ])
    assert {name: file_sha256(out / name) for name in WIDE_ROW_GOLDEN_HASHES} == WIDE_ROW_GOLDEN_HASHES


def test_ws_ingest_rejects_test_fraction_outside_unit_interval(tmp_path, tiny_corpus):
    docs, _ = tiny_corpus
    result = CliRunner().invoke(main, [
        "ws", "ingest", "--input", str(docs), "--format", "jsonl",
        "--test-fraction", "1.5",
        "--docs-out", str(tmp_path / "d.jsonl"), "--split-out", str(tmp_path / "s.json"),
    ])
    assert result.exit_code == 1
    assert "error (ContractError)" in result.output


def test_ws_apply_bad_split_exits_1(tmp_path, tiny_corpus):
    docs, split = tiny_corpus
    split.write_text('["doc0"]')
    result = CliRunner().invoke(main, [
        "ws", "apply", "--corpus", str(docs), "--split", str(split),
        "-o", str(tmp_path / "m.csv"),
    ])
    assert result.exit_code == 1
    assert "split.json" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("method", ["labeled", "triplet", "quadratic"])
def test_fit_then_decompose(tmp_path, method):
    runner = CliRunner()
    model, data = tmp_path / "model.json", tmp_path / "data.csv"
    assert runner.invoke(main, [
        "calibrate", "--accuracies", "0.7,0.65,0.6,0.75", "--edges", "0-1", "-o", str(model),
    ]).exit_code == 0
    assert runner.invoke(main, [
        "sample", "--model", str(model), "-n", "800", "--seed", "2", "-o", str(data),
    ]).exit_code == 0
    est = tmp_path / "est.json"
    result = runner.invoke(main, [
        "fit", "--data", str(data), "--method", method, "-o", str(est),
    ])
    assert result.exit_code == 0, result.output
    report = tmp_path / "decomposition.json"
    result = runner.invoke(main, [
        "decompose", "--model", str(model), "--data", str(data), "--method", method,
        "-o", str(report),
    ])
    assert result.exit_code == 0, result.output
    assert json.loads(report.read_text())["residual"] < 1e-9


@pytest.mark.parametrize("method", ["labeled", "triplet", "quadratic"])
def test_decompose_at_a_misspecified_prior_has_no_residual(tmp_path, method):
    # a balance-0.4 model fitted at the default --balance 0.5: the label
    # prior's KL(0.4 || 0.5) = 0.0201 belongs to the estimation term
    model, data, report = tmp_path / "model.json", tmp_path / "data.csv", tmp_path / "d.json"
    _ok("calibrate", "--accuracies", ",".join(map(str, DEFAULT_ACCURACIES[:6])),
        "--edges", "0-1", "--balance", "0.4", "-o", model)
    _ok("sample", "--model", model, "-n", "2000", "--seed", "3", "-o", data)
    _ok("decompose", "--model", model, "--data", data, "--method", method, "-o", report)
    assert json.loads(report.read_text())["residual"] < 1e-12


def _ok(*args):
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, result.output
    return result


@pytest.fixture
def model_and_data(tmp_path):
    model, data = tmp_path / "model.json", tmp_path / "data.csv"
    _ok("calibrate", "--accuracies", "0.7,0.65,0.6,0.75", "--edges", "0-1", "-o", model)
    _ok("sample", "--model", model, "-n", "400", "--seed", "2", "-o", data)
    return model, data


MALFORMED = {
    "truncated": '{"theta": [0.5, 0.5, 0.5]',
    "array": "[1, 2]",
    "nested": "[" * 100_000,  # deeper than the parser's recursion limit
    # an experiment config has no required key, so its bad object has a wrongly typed field
    "bad-object": {"bounds": '{"foo": 1}', "infer": '{"foo": 1}', "curves": '{"model": [1]}'},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("command", ["bounds", "curves", "infer"])
def test_malformed_json_input_fails_typed(tmp_path, model_and_data, command, case):
    text = MALFORMED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(text[command] if isinstance(text, dict) else text)
    out = tmp_path / "out"
    args = {
        "bounds": ["bounds", "--model", bad, "-o", out],
        "curves": ["curves", "--config", bad, "-o", out],
        "infer": ["infer", "--data", model_and_data[1], "--estimate", bad, "-o", out],
    }[command]
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error (ContractError): {bad}: " in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


# Model JSON documents that parse but describe no model: Python's json reads
# the literal NaN, and "m" must count the potentials.
BAD_MODELS = {
    "nan-theta": ({"theta": [0.3, float("nan"), 0.5, 0.6]}, "'theta' must be finite"),
    "inf-theta": ({"theta": [0.3, float("inf"), 0.5, 0.6]}, "'theta' must be finite"),
    "nan-theta_Y": ({"theta_Y": float("nan")}, "'theta_Y' must be finite"),
    "nan-theta_ij": ({"edges": [{"i": 0, "j": 1, "theta_ij": float("nan")}]},
                     "'theta_ij' of edge (0,1) must be finite"),
    "wrong-m": ({"m": 7}, "'m' is 7 but 'theta' holds 4 potentials"),
}


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
@pytest.mark.parametrize("command", ["sample", "bounds"])
def test_model_json_that_describes_no_model_fails_typed(tmp_path, command, case):
    change, message = BAD_MODELS[case]
    doc = {"m": 4, "theta_Y": 0.0, "theta": [0.3, 0.4, 0.5, 0.6],
           "edges": [{"i": 0, "j": 1, "theta_ij": 0.2}]}
    model, out = tmp_path / "model.json", tmp_path / "out"
    model.write_text(json.dumps({**doc, **change}))
    args = {
        "sample": ["sample", "--model", model, "-n", "50", "-o", out],
        "bounds": ["bounds", "--model", model, "-o", out],
    }[command]
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 1
    assert result.output.startswith(f"error (ContractError): {model}: ")
    assert message in result.output and "Warning" not in result.output
    assert not out.exists()


# Estimate JSON documents that parse but hold no estimate: a NaN or an
# out-of-range accuracy, conditional probability or class balance.
ACCURACY_DOC = {"values": [0.3, 0.4, 0.5, 0.6], "method": "triplet"}
CONDITIONAL_DOC = {"mu": [[[0.7, 0.2], [0.3, 0.8]]] * 4, "class_balance": 0.5}
BAD_ESTIMATES = {
    "nan-values": ({**ACCURACY_DOC, "values": [float("nan"), 0.4, 0.5, 0.6]}, "'values' must be"),
    "inf-values": ({**ACCURACY_DOC, "values": [0.3, float("-inf"), 0.5, 0.6]}, "'values' must be"),
    "values-above-one": ({**ACCURACY_DOC, "values": [0.3, 1.5, 0.5, 0.6]}, "'values' must be"),
    "values-below-minus-one": ({**ACCURACY_DOC, "values": [0.3, 0.4, -1.01, 0.6]}, "'values' must be"),
    "nan-mu": ({**CONDITIONAL_DOC, "mu": [[[float("nan"), 0.2], [0.3, 0.8]]] * 4}, "'mu' must hold"),
    "mu-above-one": ({**CONDITIONAL_DOC, "mu": [[[1.2, 0.2], [-0.2, 0.8]]] * 4}, "'mu' must hold"),
    "nan-balance": ({**CONDITIONAL_DOC, "class_balance": float("nan")}, "'class_balance' must be"),
    "balance-one": ({**CONDITIONAL_DOC, "class_balance": 1.0}, "'class_balance' must be"),
    "balance-zero": ({**CONDITIONAL_DOC, "class_balance": 0}, "'class_balance' must be"),
}


@pytest.mark.parametrize("case", sorted(BAD_ESTIMATES))
def test_estimate_json_that_holds_no_estimate_fails_typed(tmp_path, model_and_data, case):
    doc, message = BAD_ESTIMATES[case]
    est, out = tmp_path / "est.json", tmp_path / "soft.csv"
    est.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, [
        "infer", "--data", str(model_and_data[1]), "--estimate", str(est), "-o", str(out),
    ])
    assert result.exit_code == 1
    assert result.output.startswith(f"error (ContractError): {est}: ")
    assert message in result.output and "Warning" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("doc", [ACCURACY_DOC, CONDITIONAL_DOC], ids=["accuracy", "conditional"])
def test_estimate_json_at_its_limits_is_read(tmp_path, model_and_data, doc):
    # accuracies of exactly -1 and 1 and probabilities of exactly 0 and 1 are estimates
    edge = {"values": [-1.0, 1.0, 0.5, 0.0]} if "values" in doc else {"mu": [[[1.0, 0.0], [0.0, 1.0]]] * 4}
    est, out = tmp_path / "est.json", tmp_path / "soft.csv"
    est.write_text(json.dumps({**doc, **edge}))
    _ok("infer", "--data", model_and_data[1], "--estimate", est, "-o", out)
    assert len(out.read_text().splitlines()) == 401


@pytest.mark.parametrize("edges, method", [
    ("0-1", "triplet"), ("0-99", "triplet"), ("2-2", "triplet"),
    # only the triplet fit reads known edges; another method refuses them
    ("0-1", "quadratic"), ("0-99", "labeled"),
], ids=["0-1", "0-99", "2-2", "0-1-quadratic", "0-99-labeled"])
def test_fit_known_edges_name_pairs_of_sources(tmp_path, model_and_data, edges, method):
    _, data = model_and_data
    out = tmp_path / "est.json"
    result = CliRunner().invoke(main, [
        "fit", "--data", str(data), "--method", method, "--known-edges", edges, "-o", str(out),
    ])
    if (edges, method) == ("0-1", "triplet"):
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["metadata"]["known_edges"] == [[0, 1]]
        return
    assert result.exit_code == 1
    assert "error (ContractError): known edges" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    ("fit", "--combine-with applies to accuracy estimates, not --method quadratic"),
    ("infer", "the estimate has m=6 sources, the data m=4"),
])
def test_inputs_that_disagree_fail_before_any_work(tmp_path, model_and_data, monkeypatch, command, message):
    _, data = model_and_data
    est, wide, out = tmp_path / "est.json", tmp_path / "wide.csv", tmp_path / "out"
    wide.write_text("lf_0,lf_1,lf_2,lf_3,lf_4,lf_5\n" + "1,-1,1,1,-1,1\n-1,1,1,-1,1,1\n" * 20)
    _ok("fit", "--data", wide, "-o", est)

    def no_work(*args, **kwargs):
        raise AssertionError("the command did its work")

    monkeypatch.setattr(cli, "estimate_quadratic_triplet_from_moments", no_work)
    monkeypatch.setattr(cli, "posterior", no_work)
    args = {
        "fit": ["fit", "--data", data, "--method", "quadratic", "--combine-with", data, "-o", out],
        "infer": ["infer", "--data", data, "--estimate", est, "-o", out],
    }[command]
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 1
    assert f"error (ContractError): {message}" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("est_method", ["triplet", "quadratic"])
def test_infer_writes_soft_labels(tmp_path, model_and_data, est_method):
    _, data = model_and_data
    est, out = tmp_path / "est.json", tmp_path / "soft.csv"
    _ok("fit", "--data", data, "--method", est_method, "-o", est)
    _ok("infer", "--data", data, "--estimate", est, "-o", out)
    header, *rows = out.read_text().splitlines()
    assert header == "row_id,p_y1,soft_label"
    assert len(rows) == 400
    for k, row in enumerate(rows):
        row_id, p, soft = row.split(",")
        assert int(row_id) == k
        assert 0.0 <= float(p) <= 1.0
        assert float(soft) == 2 * float(p) - 1


def test_infer_balance_applies_to_accuracy_estimates_only(tmp_path, model_and_data):
    _, data = model_and_data
    acc, cond = tmp_path / "acc.json", tmp_path / "cond.json"
    _ok("fit", "--data", data, "--method", "triplet", "-o", acc)
    _ok("fit", "--data", data, "--method", "quadratic", "--balance", "0.4", "-o", cond)
    # an accuracy estimate holds no balance: 0.5 unless --balance says otherwise
    for name, args in {"unset": [], "half": ["--balance", "0.5"], "tenth": ["--balance", "0.1"]}.items():
        _ok("infer", "--data", data, "--estimate", acc, *args, "-o", tmp_path / f"{name}.csv")
    assert (tmp_path / "unset.csv").read_text() == (tmp_path / "half.csv").read_text()
    assert (tmp_path / "unset.csv").read_text() != (tmp_path / "tenth.csv").read_text()
    # a class-conditional estimate holds its own, and a --balance beside it is refused
    _ok("infer", "--data", data, "--estimate", cond, "-o", tmp_path / "cond.csv")
    for balance in ("0.1", "0.4"):
        out = tmp_path / f"cond-{balance}.csv"
        result = CliRunner().invoke(main, [
            "infer", "--data", str(data), "--estimate", str(cond), "--balance", balance, "-o", str(out),
        ])
        assert result.exit_code == 1
        assert ("error (ContractError): --balance applies to accuracy estimates; the "
                "class-conditional estimate holds its own class balance, 0.4") in result.output
        assert not out.exists()


def test_normalized_infer_runs_past_the_enumeration_guard(tmp_path):
    # normalized posteriors are products over the rows, with no table of the
    # 2^30 configurations; empirical mode needs that table and is refused
    model, data, est, out = (tmp_path / name for name in ("model.json", "data.csv", "est.json", "soft.csv"))
    _ok("calibrate", "--accuracies", ",".join(["0.7", "0.65", "0.6"] * 10), "-o", model)
    _ok("sample", "--model", model, "-n", "301", "--seed", "3", "-o", data)
    _ok("fit", "--data", data, "-o", est)
    _ok("infer", "--data", data, "--estimate", est, "-o", out)
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert len(rows) == 301 and all(0.0 <= float(p) <= 1.0 for _, p, _ in rows)
    result = CliRunner().invoke(main, [
        "infer", "--data", str(data), "--estimate", str(est), "--mode", "empirical", "-o", str(out),
    ])
    assert result.exit_code == 1
    assert "error (CapacityError): exact enumeration supports at most 24 sources, got m=30" in result.output


@pytest.mark.parametrize("method, option, message", [
    ("triplet", ["--balance", "0.1"], "--balance applies to --method quadratic, not 'triplet'"),
    ("labeled", ["--balance", "0.5"], "--balance applies to --method quadratic, not 'labeled'"),
    ("labeled", ["--agg", "mean"], "--agg applies to the unlabeled methods, not --method labeled"),
], ids=["triplet-balance", "labeled-balance", "labeled-agg"])
def test_fit_refuses_options_its_method_does_not_read(tmp_path, model_and_data, method, option, message):
    _, data = model_and_data
    out = tmp_path / "est.json"
    result = CliRunner().invoke(main, [
        "fit", "--data", str(data), "--method", method, *option, "-o", str(out),
    ])
    assert result.exit_code == 1
    assert f"error (ContractError): {message}" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_decompose_refuses_agg_for_the_labeled_method(tmp_path, model_and_data):
    # fit's rule: the labeled method reads no aggregation, so none is recorded unread
    model, data = model_and_data
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, [
        "decompose", "--model", str(model), "--data", str(data), "--method", "labeled",
        "--agg", "mean", "-o", str(out),
    ])
    assert result.exit_code == 1
    assert "error (ContractError): --agg applies to the unlabeled methods, not --method labeled" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()
    _ok("decompose", "--model", model, "--data", data, "--method", "labeled", "-o", out)
    assert json.loads((tmp_path / "report.json.manifest.json").read_text())["config"]["agg"] is None


def test_fit_defaults_are_the_options_it_reads(tmp_path, model_and_data):
    # unset, --agg is mean and --balance is 0.5; each is read where its method uses it
    _, data = model_and_data
    for method, option in [
        ("triplet", ["--agg", "mean"]), ("quadratic", ["--agg", "mean", "--balance", "0.5"]),
    ]:
        unset, given = tmp_path / f"{method}-unset.json", tmp_path / f"{method}-given.json"
        _ok("fit", "--data", data, "--method", method, "-o", unset)
        _ok("fit", "--data", data, "--method", method, *option, "-o", given)
        assert unset.read_text() == given.read_text()
    _ok("fit", "--data", data, "--method", "quadratic", "--balance", "0.45", "-o", tmp_path / "q.json")
    assert (tmp_path / "q.json").read_text() != (tmp_path / "quadratic-unset.json").read_text()


def test_manifests_record_the_aggregation_the_fit_ran(tmp_path, model_and_data):
    # unset, --agg is recorded as the mean the fit ran, and null only for --method labeled
    model, data = model_and_data
    for method, key in (("triplet", "aggregation"), ("quadratic", None), ("labeled", "aggregation")):
        out = tmp_path / f"{method}.json"
        _ok("fit", "--data", data, "--method", method, "-o", out)
        doc = json.loads(out.read_text())
        ran = doc[key] if key else doc["metadata"]["aggregation"]
        assert ran == (None if method == "labeled" else "mean")
        assert json.loads((tmp_path / f"{method}.json.manifest.json").read_text())["config"]["agg"] == ran
    _ok("fit", "--data", data, "--agg", "median", "-o", tmp_path / "median.json")
    assert json.loads((tmp_path / "median.json.manifest.json").read_text())["config"]["agg"] == "median"
    _ok("decompose", "--demo", "-o", tmp_path / "report.json")
    assert json.loads((tmp_path / "report.json.manifest.json").read_text())["config"]["agg"] == "mean"


@pytest.mark.parametrize("command, message", [
    ("infer", "--laplace applies to --mode empirical, not 'normalized'"),
    ("decompose-model", "--demo runs on a built-in model and sample; it reads no --model or --data"),
    ("decompose-data", "--demo runs on a built-in model and sample; it reads no --model or --data"),
], ids=["infer-laplace", "decompose-demo-model", "decompose-demo-data"])
def test_options_that_nothing_reads_are_refused_before_any_work(
    tmp_path, model_and_data, monkeypatch, command, message
):
    model, data = model_and_data
    est, out = tmp_path / "est.json", tmp_path / "out"
    _ok("fit", "--data", data, "-o", est)
    # read in empirical mode, the pseudocount changes the soft labels
    _ok("infer", "--data", data, "--estimate", est, "--mode", "empirical", "-o", tmp_path / "one.csv")
    _ok("infer", "--data", data, "--estimate", est, "--mode", "empirical", "--laplace", "5",
        "-o", tmp_path / "five.csv")
    assert (tmp_path / "one.csv").read_text() != (tmp_path / "five.csv").read_text()

    def no_work(*args, **kwargs):
        raise AssertionError("the command did its work")

    for name in ("load_source_matrix", "calibrate", "posterior"):
        monkeypatch.setattr(cli, name, no_work)
    args = {
        "infer": ["infer", "--data", data, "--estimate", est, "--laplace", "5"],
        "decompose-model": ["decompose", "--demo", "--model", model],
        "decompose-data": ["decompose", "--demo", "--data", data],
    }[command]
    result = CliRunner().invoke(main, [str(a) for a in args] + ["-o", str(out)])
    assert result.exit_code == 1
    assert f"error (ContractError): {message}" in result.output
    assert "Traceback" not in result.output
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


# SHA-256 of infer's soft labels (400 rows) and of a bounds CSV report with a
# Monte-Carlo rho, as the commands wrote them when each built its CSV lines by
# hand: ``experiments.write_csv`` writes the same bytes
CSV_REPORT_SHA256 = {
    "soft.csv": "eff5265537936dd12deb76c4515a78d36e27cc8656a3372c6e8936237751c314",
    "bounds.csv": "0655b8d32e6a13720cb9ef53477854c4b09ee422d2799fbd450e854b1d029790",
}


def test_csv_reports_match_recorded_hashes(tmp_path, model_and_data):
    model, data = model_and_data
    _ok("fit", "--data", data, "-o", tmp_path / "est.json")
    _ok("infer", "--data", data, "--estimate", tmp_path / "est.json", "-o", tmp_path / "soft.csv")
    _ok("bounds", "--model", model, "--n-labeled", "200", "--n-unlabeled", "2000", "--rho-trials", "40",
        "--format", "csv", "-o", tmp_path / "bounds.csv")
    assert {name: file_sha256(tmp_path / name) for name in CSV_REPORT_SHA256} == CSV_REPORT_SHA256


def test_bounds_json_and_csv(tmp_path, model_and_data):
    model, _ = model_and_data
    as_json, as_csv = tmp_path / "bounds.json", tmp_path / "bounds.csv"
    common = ["bounds", "--model", model, "--n-labeled", "200", "--n-unlabeled", "2000"]
    _ok(*common, "-o", as_json)
    _ok(*common, "--format", "csv", "-o", as_csv)
    doc = json.loads(as_json.read_text())
    header, *lines = as_csv.read_text().splitlines()
    assert header == "key,value"
    flat = dict(line.split(",", 1) for line in lines)

    def leaves(d, prefix=""):
        for k, v in d.items():
            if isinstance(v, dict):
                yield from leaves(v, f"{prefix}{k}.")
            else:
                yield f"{prefix}{k}", v

    expected = dict(leaves(doc))
    assert set(flat) == set(expected)
    numbers = [v for v in expected.values() if isinstance(v, float)]
    assert numbers and all(math.isfinite(v) for v in numbers)


def test_bounds_records_the_fits_behind_rho(tmp_path, model_and_data):
    # four sources at n=8: about one median-corrected fit in 60 finds no usable triplet
    model, _ = model_and_data
    out = tmp_path / "bounds.json"
    result = _ok("bounds", "--model", model, "--n-unlabeled", "8", "--rho-trials", "400",
                 "--seed", "3", "-o", out)
    inputs = json.loads(out.read_text())["inputs"]
    scored, failed = inputs["rho_trials"], inputs["rho_failures"]
    assert failed > 0 and scored + failed == 400
    assert f"rho from {scored} median-corrected fits ({failed} failed)" in result.output


def test_calibrate_records_its_residual(tmp_path):
    model = tmp_path / "model.json"
    _ok("calibrate", "--accuracies", "0.7,0.65,0.6,0.75", "--edges", "0-1,2-3",
        "--edge-gap", "0.1", "--balance", "0.3", "-o", model)
    doc = json.loads(model.read_text())
    assert 0.0 <= doc["calibration_residual"] < 1e-12
    assert IsingModel.from_json(model).to_dict() == {
        k: v for k, v in doc.items() if k != "calibration_residual"
    }


def test_wide_model_runs_without_the_joint_table(tmp_path, monkeypatch):
    # m=40, d=10: far above the enumeration guard, so every model the suites
    # build must stay without its 2^41-state table
    built = []
    from_parameters = IsingModel.from_parameters.__func__

    def spy(cls, *args, **kwargs):
        built.append(from_parameters(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(IsingModel, "from_parameters", classmethod(spy))
    accuracies = list(DEFAULT_ACCURACIES) * 4
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"accuracies": accuracies, "d": 10},
        "estimators": ["labeled", "triplet-mean", "triplet-median"],
        "n_grid": [250, 1000],
        "trials": 10,
        "seed": 1,
    }))
    model = tmp_path / "model.json"
    edges = ",".join(f"{2 * k}-{2 * k + 1}" for k in range(10))
    _ok("calibrate", "--accuracies", ",".join(map(str, accuracies)), "--edges", edges, "-o", model)
    _ok("curves", "--config", config, "-o", tmp_path / "curves")
    _ok("bounds", "--model", model, "--n-unlabeled", "1000", "--rho-trials", "30",
        "-o", tmp_path / "bounds.json")
    assert len(built) == 3 and all(m.m == 40 and "joint" not in m.__dict__ for m in built)
    assert json.loads((tmp_path / "bounds.json").read_text())["B_I"] > 0


def test_decompose_above_the_guard_fails_typed(tmp_path):
    model, data = tmp_path / "model.json", tmp_path / "data.csv"
    _ok("calibrate", "--accuracies", ",".join(["0.7"] * 25), "--edges", "0-1", "-o", model)
    _ok("sample", "--model", model, "-n", "50", "-o", data)  # rows need no joint table
    result = CliRunner().invoke(main, [
        "decompose", "--model", str(model), "--data", str(data), "-o", str(tmp_path / "d.json"),
    ])
    assert result.exit_code == 1
    assert "error (CapacityError)" in result.output
    assert "Traceback" not in result.output


@pytest.fixture
def review_dir(tmp_path):
    root = tmp_path / "reviews"
    for part in ("train", "test"):
        for sentiment in ("pos", "neg"):
            folder = root / part / sentiment
            folder.mkdir(parents=True)
            for k in range(2):
                (folder / f"{k}.txt").write_text(f"{sentiment} review {k}")
    return root


def test_ws_ingest_formats_and_apply(tmp_path, tiny_corpus, review_dir):
    csv_in = tmp_path / "reviews.csv"
    csv_in.write_text("text,label\ngood film,1\nbad film,0\ngreat,1\nworst,0\n")
    sources = {"csv": (csv_in, 4), "jsonl": (tiny_corpus[0], 2000), "review-dir": (review_dir, 8)}
    for fmt, (path, n_docs) in sources.items():
        docs, split = tmp_path / f"{fmt}.jsonl", tmp_path / f"{fmt}.split.json"
        _ok("ws", "ingest", "--input", path, "--format", fmt, "--test-fraction", "0.5",
            "--docs-out", docs, "--split-out", split)
        corpus = Corpus.from_jsonl(docs, split)
        assert len(corpus.documents) == n_docs
        assert sorted({corpus.split.get(d.doc_id) for d in corpus.documents}) == ["test", "train"]
    matrix = tmp_path / "matrix.csv"
    _ok("ws", "apply", "--corpus", tmp_path / "jsonl.jsonl", "--split", tmp_path / "jsonl.split.json",
        "--subset", "test", "-o", matrix)
    header, *rows = matrix.read_text().splitlines()
    assert len(rows) == 1000
    assert len(header.split(",")) == len(default_roster()) + 1  # sources plus the label


def test_every_command_writes_its_run_record(tmp_path, tiny_config, tiny_corpus, review_dir):
    t = tmp_path
    docs, split = tiny_corpus
    csv_in = t / "reviews.csv"
    csv_in.write_text("text,label\ngood film,1\nbad film,0\ngreat,1\nworst,0\n")
    suite_keys = {"model", "estimators", "n_grid", "trials", "seed"}
    # (arguments, manifest, config keys, seed, inputs, outputs)
    runs = [
        (["calibrate", "--accuracies", "0.7,0.65,0.6,0.75", "--edges", "0-1", "-o", t / "model.json"],
         t / "model.json.manifest.json", {"accuracies", "edges", "edge_gap", "balance", "out"}, 0,
         [], [t / "model.json"]),
        (["sample", "--model", t / "model.json", "-n", "300", "--seed", "4", "-o", t / "data.csv"],
         t / "data.csv.manifest.json", {"model", "rows", "binary", "out"}, 4,
         [t / "model.json"], [t / "data.csv"]),
        (["fit", "--data", t / "data.csv", "--combine-with", t / "data.csv", "--seed", "5",
          "-o", t / "est.json"],
         t / "est.json.manifest.json",
         {"data", "method", "agg", "balance", "known_edges", "combine_with", "out"}, 5,
         [t / "data.csv"], [t / "est.json"]),
        (["infer", "--data", t / "data.csv", "--estimate", t / "est.json", "-o", t / "soft.csv"],
         t / "soft.csv.manifest.json", {"data", "estimate", "balance", "mode", "laplace", "out"}, 0,
         [t / "data.csv", t / "est.json"], [t / "soft.csv"]),
        (["decompose", "--model", t / "model.json", "--data", t / "data.csv", "--seed", "6",
          "-o", t / "dec.json"],
         t / "dec.json.manifest.json",
         {"model", "data", "method", "agg", "laplace", "balance", "demo", "out"}, 6,
         [t / "model.json", t / "data.csv"], [t / "dec.json"]),
        (["bounds", "--model", t / "model.json", "--n-labeled", "100", "--seed", "7",
          "-o", t / "bounds.json"],
         t / "bounds.json.manifest.json",
         {"model", "n_labeled", "n_unlabeled", "rho_trials", "format", "out"}, 7,
         [t / "model.json"], [t / "bounds.json"]),
        (["curves", "--config", tiny_config, "-o", t / "curves"],
         t / "curves" / "manifest.json", suite_keys, 3,
         [tiny_config], [t / "curves" / "curves.csv"]),
        (["dvr", "--config", tiny_config, "--seed", "8", "-o", t / "dvr"],
         t / "dvr" / "manifest.json", suite_keys, 8,
         [tiny_config], [t / "dvr" / "dvr.csv"]),
        (["combine", "--trials", "3", "--d", "1", "--n-unlabeled", "200", "--n-labeled-grid", "40",
          "-o", t / "combine"],
         t / "combine" / "manifest.json",
         {"model", "trials", "seed", "n_unlabeled", "n_labeled_grid", "estimator"}, 0,
         [], [t / "combine" / "combined.csv"]),
        (["ws", "ingest", "--input", csv_in, "--format", "csv", "--seed", "9",
          "--docs-out", t / "ing.jsonl", "--split-out", t / "ing.split.json"],
         t / "ing.jsonl.manifest.json",
         {"input", "format", "test_fraction", "docs_out", "split_out"}, 9,
         [csv_in], [t / "ing.jsonl", t / "ing.split.json"]),
        (["ws", "ingest", "--input", review_dir, "--docs-out", t / "rev.jsonl",
          "--split-out", t / "rev.split.json"],
         t / "rev.jsonl.manifest.json",
         {"input", "format", "test_fraction", "docs_out", "split_out"}, 0,
         [], [t / "rev.jsonl", t / "rev.split.json"]),
        (["ws", "apply", "--corpus", docs, "--split", split, "-o", t / "matrix.csv"],
         t / "matrix.csv.manifest.json", {"corpus", "split", "subset", "out"}, 0,
         [docs, split], [t / "matrix.csv"]),
        (["ws", "run", "--corpus", docs, "--split", split, "--n-grid", "400",
          "--n-unlabeled", "800", "--n-labeled-grid", "40", "--trials", "2", "--seed", "10",
          "-o", t / "wsrun"],
         t / "wsrun" / "manifest.json",
         {"corpus", "split", "n_grid", "n_unlabeled", "n_labeled_grid", "trials", "seed",
          "class_balance"}, 10,
         [docs, split], [t / "wsrun" / "metrics.csv"]),
    ]
    records = {}
    for args, path, keys, seed, inputs, outputs in runs:
        _ok(*args)
        manifest = json.loads(path.read_text())
        command = [a for a in args[:2] if not str(a).startswith("-")]
        assert manifest["subcommand"] == "-".join(command)
        assert set(manifest["config"]) == keys, command
        assert manifest["seed"] == seed, command
        assert manifest["input_hashes"] == {str(p): file_sha256(p) for p in inputs}, command
        assert manifest["output_hashes"] == {str(p): file_sha256(p) for p in outputs}, command
        records[tuple(command)] = manifest["config"]
    assert {tuple(a for a in r[0][:2] if not str(a).startswith("-")) for r in runs} == {
        ("calibrate",), ("sample",), ("fit",), ("infer",), ("decompose",), ("bounds",),
        ("curves",), ("dvr",), ("combine",), ("ws", "ingest"), ("ws", "apply"), ("ws", "run"),
    }

    # the options a run used beyond its resolved config are recorded as given
    assert records[("dvr",)]["estimators"] == ["triplet-mean"]

    # per DVR cell, the labeled sizes its search evaluated
    cells = json.loads((t / "dvr" / "manifest.json").read_text())["dvr_cells"]
    rows = (t / "dvr" / "dvr.csv").read_text().splitlines()[1:]
    assert [(c["estimator"], c["n_unlabeled"]) for c in cells] == [
        ("triplet-mean", 100), ("triplet-mean", 200)
    ]
    config = experiments.ExperimentConfig.from_dict({**json.loads(tiny_config.read_text()), "seed": 8})
    expected = experiments.run_dvr(config, t / "dvr-again")
    grid = experiments.labeled_search_grid()
    for cell, row, res in zip(cells, rows, expected):
        assert cell == {"estimator": res.estimator, "n_unlabeled": res.n_unlabeled,
                        "labeled_sizes": sorted({n for n, _, _ in res.trace})}
        matched = int(row.split(",")[3])
        assert matched == res.matched_n_labeled
        assert matched in cell["labeled_sizes"]
        assert grid[grid.index(matched) - 1] in cell["labeled_sizes"]
    assert all(
        ("dvr_cells" in json.loads(path.read_text())) == (path == t / "dvr" / "manifest.json")
        for _, path, *_ in runs
    )
    combine = records[("combine",)]
    assert (combine["n_unlabeled"], combine["n_labeled_grid"], combine["estimator"]) == (
        200, [40], "triplet-mean"
    )

    failed = t / "failed"
    result = CliRunner().invoke(main, [
        "combine", "--config", str(tiny_config), "--n-labeled-grid", "0", "-o", str(failed),
    ])
    assert result.exit_code == 1
    assert not (failed / "manifest.json").exists()


def test_outputs_differing_in_extension_keep_separate_records(tmp_path, model_and_data):
    model, _ = model_and_data
    for args, out in (
        (["sample", "--model", model, "-n", "50"], tmp_path / "d.csv"),
        (["sample", "--model", model, "-n", "50", "--binary"], tmp_path / "d.bin"),
        (["bounds", "--model", model, "--n-labeled", "100"], tmp_path / "b.json"),
        (["bounds", "--model", model, "--n-labeled", "100", "--format", "csv"], tmp_path / "b.csv"),
    ):
        _ok(*args, "-o", out)
    for out in ("d.csv", "d.bin", "b.json", "b.csv"):
        manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
        assert list(manifest["output_hashes"]) == [str(tmp_path / out)]


@pytest.mark.parametrize("doc, key", [
    ({"trails": 5}, "trails"),
    ({"model": {"acuracies": [0.7]}}, "acuracies"),
    # a wrongly typed value is refused, not truncated or left to fail mid-run
    ({"model": {"d": 1.7}}, "d"),
    ({"trials": 2.9}, "trials"),
    ({"seed": True}, "seed"),
    ({"seed": -1}, "seed"),
    ({"n_grid": [100.5]}, "n_grid"),
    ({"n_grid": ["100"]}, "n_grid"),
    ({"n_grid": []}, "n_grid"),
    ({"model": {"accuracies": [0.7, "0.6"]}}, "accuracies"),
    ({"model": {"edge_gap": None}}, "edge_gap"),
    ({"model": {"class_balance": "0.5"}}, "class_balance"),
])
def test_config_with_unknown_key_fails_typed(tmp_path, doc, key):
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["curves", "--config", str(config), "-o", str(out)])
    assert result.exit_code == 1
    assert f"error (ContractError): {config}: " in result.output
    assert f"'{key}'" in result.output
    assert not out.exists()


def test_labeled_fit_needs_labels(tmp_path, model_and_data):
    _, data = model_and_data
    unlabeled = tmp_path / "unlabeled.csv"
    lines = data.read_text().splitlines()
    unlabeled.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
    result = CliRunner().invoke(main, [
        "fit", "--data", str(unlabeled), "--method", "labeled", "-o", str(tmp_path / "est.json"),
    ])
    assert result.exit_code == 1
    assert "error (ContractError)" in result.output
    assert not (tmp_path / "est.json").exists()
