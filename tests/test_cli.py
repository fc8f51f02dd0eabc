import json

import pytest
from click.testing import CliRunner

from labelmoments.cli import main
from labelmoments.experiments import DEFAULT_ACCURACIES


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
