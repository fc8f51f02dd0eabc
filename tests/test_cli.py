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


@pytest.mark.parametrize("args", [
    ["dvr", "--estimators", "foo"],
    ["combine", "--estimator", "foo"],
])
def test_unknown_estimator_fails_before_any_trial(tmp_path, tiny_config, monkeypatch, args):
    from labelmoments import experiments

    def no_draw(*a):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(experiments, "trial_rng", no_draw)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, args + ["--config", str(tiny_config), "-o", str(out)])
    assert result.exit_code == 1
    assert "error (ContractError): unknown estimator 'foo'" in result.output
    assert "Traceback" not in result.output


# SHA-256 of the suite outputs of GOLDEN_CONFIG under random-stream protocol
# v2 (one generator per stream of a Monte-Carlo cell; the combined sweep
# pairs the unlabeled curve cell with the Monte-Carlo labeled cell), recorded
# with numpy 2.4.6.
GOLDEN_CONFIG = {
    "model": {"accuracies": list(DEFAULT_ACCURACIES[:6]), "d": 1},
    "estimators": ["labeled", "triplet-mean", "triplet-median", "triplet-single"],
    "n_grid": [40, 200],
    "trials": 5,
    "seed": 3,
}
GOLDEN_HASHES = {
    "curves.csv": "a35a519869e6026479e075e781937e1638fe45dfd89e6404cb3a325cf5a3a3fc",
    "combined.csv": "b58d1994c9c2b042be4fd9ab1d5de0e9241558ba4cc3bf690b5e71c3daa316cb",
    "dvr.csv": "7304386bc5352170bd5c36d374ceed86221a0a5626d4bcb542b15a7ccae3fdae",
}


def test_suite_outputs_match_recorded_hashes(tmp_path):
    """The Monte-Carlo suites reproduce recorded bytes (m=6, 5 trials).

    These hashes pin random-stream protocol v2: one generator per stream
    of a cell from ``trial_rng``, numpy 2.4.6's ``multinomial(size=...)``
    and ``integers`` streams, and every number computed from the draws.  A
    speed-up must leave them unchanged.  A deliberate change of the stream
    must update them in the same change, and say so.
    """
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GOLDEN_CONFIG))
    out = tmp_path / "out"
    for args in (
        ["curves"],
        ["dvr"],
        ["combine", "--n-unlabeled", "200", "--n-labeled-grid", "25,50",
         "--estimator", "triplet-single"],
    ):
        result = CliRunner().invoke(main, args + ["--config", str(config), "-o", str(out)])
        assert result.exit_code == 0, result.output
    assert {name: file_sha256(out / name) for name in GOLDEN_HASHES} == GOLDEN_HASHES


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
    # four sources at n=8: some median-corrected fits find no usable triplet
    model, _ = model_and_data
    out = tmp_path / "bounds.json"
    result = _ok("bounds", "--model", model, "--n-unlabeled", "8", "--rho-trials", "40",
                 "--seed", "3", "-o", out)
    inputs = json.loads(out.read_text())["inputs"]
    scored, failed = inputs["rho_trials"], inputs["rho_failures"]
    assert failed > 0 and scored + failed == 40
    assert f"rho from {scored} median-corrected fits ({failed} failed)" in result.output


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
        assert len(corpus.train) + len(corpus.test) == n_docs
        assert corpus.train and corpus.test
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
         suite_keys | {"n_unlabeled", "n_labeled_grid", "estimator"}, 0,
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
          "class_balance", "threshold"}, 10,
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
