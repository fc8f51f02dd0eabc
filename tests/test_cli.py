import json
import math

import pytest
from click.testing import CliRunner

from labelmoments.cli import main
from labelmoments.experiments import DEFAULT_ACCURACIES
from labelmoments.manifest import file_sha256
from labelmoments.ws import Corpus, default_roster, synthetic_keyword_corpus


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
])
def test_malformed_tokens_are_usage_errors(tmp_path, args):
    result = CliRunner().invoke(main, args[:-1] + [str(tmp_path / args[-1])])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "Invalid value" in result.output


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


def test_ws_run_malformed_corpus_exits_1(tmp_path, tiny_corpus):
    docs, split = tiny_corpus
    with open(docs, "a") as fh:
        fh.write('{"id": "broken"\n')
    result = _ws_run(docs, split, tmp_path / "out")
    assert result.exit_code == 1
    assert "error (ContractError)" in result.output
    assert "docs.jsonl, line 2001" in result.output
    assert "Traceback" not in result.output


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
