"""Workload definitions: parameters, seeded input generation, CLI calls and output checks.

Nothing here imports labelmoments.  Inputs are written as plain files (an
experiment config JSON, or a corpus JSONL plus split), the program is driven
only through its CLI, and outputs are checked from the files it writes, so
the checks share no code with the program under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# The synthetic roster of labelmoments.experiments at the time the benchmark
# was defined, written out so that later changes to the program's defaults
# do not silently change the benchmark's inputs.
ROSTER_ACCURACIES = [
    0.6893, 0.6072, 0.5954, 0.6603, 0.6939,
    0.6346, 0.7462, 0.6870, 0.6462, 0.6284,
]
N_GRID = [250, 500, 1000, 2000, 4000]
EDGE_GAP = 0.1
POSITIVE_WORDS = ["love", "like", "good", "great", "best", "excellent"]
NEGATIVE_WORDS = ["terrible", "worst", "bad", "better", "could", "would"]
# metrics.csv rows of `ws run` at its default grids: 3 models x 5 training sizes,
# then labeled-small and combined x 5 labeled budgets.
WS_METRIC_ROWS = 25

WORKLOADS = {
    "curves": {
        "why": "unlabeled-fit trial loop: moments, triplet fits, trial_rng and excess scoring share the time; "
               "combine adds the shrinkage solve",
        "params": {
            "m": 10, "d": 5, "trials": 100, "n_grid": N_GRID,
            "estimators": ["labeled", "triplet-mean", "triplet-median", "triplet-single"],
            "combine": {"n_unlabeled": 1000, "n_labeled_grid": [25, 50, 100, 200, 400, 800],
                        "estimator": "triplet-mean"},
        },
    },
    "dvr": {
        "why": "labeled-only draws at n_L up to 5000 dominate (multinomial and from_state_counts); "
               "the triplet fit nearly vanishes",
        "params": {
            "m": 10, "d": 5, "trials": 60, "n_grid": N_GRID,
            "estimators": ["triplet-mean", "triplet-median"],
        },
    },
    "ws-case-study": {
        "why": "bypasses the trial engine: row moments, the quadratic class-conditional solver, "
               "apply_sources tokenisation and label-model scoring",
        "params": {
            "docs": 50000, "test_fraction": 0.2, "filler_words": 8, "filler_vocabulary": 400,
            "trials": 5,
        },
    },
    "wide-m": {
        "why": "m=14: 2^15 joint states against n <= 1000, so the dense moment table and the "
               "32k-way multinomial dominate and peak memory grows",
        "params": {
            "m": 14, "d": 5, "trials": 50, "n_grid": [250, 1000],
            "estimators": ["labeled", "triplet-mean", "triplet-median"],
            "bounds": {"n_unlabeled": 1000, "rho_trials": 100},
        },
    },
}

# Tiny sizes for the self-test: every workload and every metric, in seconds.
SELF_TEST_PARAMS = {
    "curves": {"trials": 4, "n_grid": [250, 1000]},
    "dvr": {"trials": 3, "n_grid": [250, 1000]},
    "ws-case-study": {"docs": 3000, "trials": 2},
    "wide-m": {"trials": 3, "bounds": {"n_unlabeled": 1000, "rho_trials": 30}},
}


def params_for(name: str, self_test: bool = False) -> dict:
    params = json.loads(json.dumps(WORKLOADS[name]["params"]))
    if self_test:
        params.update(SELF_TEST_PARAMS[name])
    return params


def fingerprint(params: dict) -> str:
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:16]


def _rng(seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng([seed, int(hashlib.sha256(purpose.encode()).hexdigest()[:8], 16)])


def _accuracies(m: int, seed: int) -> list[float]:
    extra = _rng(seed, "extra-accuracies").uniform(0.55, 0.75, m - len(ROSTER_ACCURACIES))
    return ROSTER_ACCURACIES + [round(float(a), 4) for a in extra]


def _experiment_config(params: dict, seed: int) -> dict:
    return {
        "model": {"accuracies": _accuracies(params["m"], seed), "d": params["d"],
                  "edge_gap": EDGE_GAP, "class_balance": 0.5},
        "estimators": params["estimators"],
        "n_grid": params["n_grid"],
        "trials": params["trials"],
        "seed": seed,
    }


def _write_corpus(params: dict, seed: int, docs_path: Path, split_path: Path) -> None:
    """Keyword presences class-conditionally independent, per-class rates drawn from the seed."""
    rng = _rng(seed, "corpus")
    n, k = params["docs"], len(POSITIVE_WORDS)
    strong, weak = rng.uniform(0.25, 0.55, 2 * k), rng.uniform(0.05, 0.2, 2 * k)
    present_pos = np.concatenate([strong[:k], weak[:k]])
    present_neg = np.concatenate([weak[k:], strong[k:]])
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    rates = np.where(labels[:, None] > 0, present_pos, present_neg)
    present = rng.random((n, 2 * k)) < rates
    filler = rng.integers(0, params["filler_vocabulary"], (n, params["filler_words"]))
    words = np.array(POSITIVE_WORDS + NEGATIVE_WORDS)
    with open(docs_path, "w") as fh:
        for r in range(n):
            tokens = [f"w{f}" for f in filler[r]] + list(words[present[r]])
            text = " ".join(tokens).capitalize() + "."
            fh.write(json.dumps({"id": f"d{r}", "text": text, "label": int(labels[r])}) + "\n")
    order = rng.permutation(n)
    n_test = int(round(params["test_fraction"] * n))
    split = {"train": [f"d{i}" for i in sorted(order[n_test:])],
             "test": [f"d{i}" for i in sorted(order[:n_test])]}
    split_path.write_text(json.dumps(split))


def prepare(name: str, params: dict, seed: int, inputs: Path) -> dict:
    """Write the workload's inputs under ``inputs``; returns the worker's setup spec."""
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "ws-case-study":
        docs, split = inputs / "docs.jsonl", inputs / "split.json"
        _write_corpus(params, seed, docs, split)
        return {"kind": "corpus", "docs": str(docs), "split": str(split)}
    config = inputs / "config.json"
    config.write_text(json.dumps(_experiment_config(params, seed), indent=2))
    return {"kind": "synthetic", "config": str(config)}


def cli_calls(name: str, params: dict, seed: int, setup: dict, out: Path) -> list[list[str]]:
    """The labelmoments CLI invocations of one iteration, in order."""
    if name == "curves":
        combine = params["combine"]
        return [
            ["curves", "--config", setup["config"], "-o", str(out / "curves")],
            ["combine", "--config", setup["config"], "-o", str(out / "combine"),
             "--n-unlabeled", str(combine["n_unlabeled"]),
             "--n-labeled-grid", ",".join(map(str, combine["n_labeled_grid"])),
             "--estimator", combine["estimator"]],
        ]
    if name == "dvr":
        return [["dvr", "--config", setup["config"], "-o", str(out / "dvr")]]
    if name == "ws-case-study":
        return [["ws", "run", "--corpus", setup["docs"], "--split", setup["split"],
                 "--trials", str(params["trials"]), "--seed", str(seed), "-o", str(out / "ws")]]
    cfg = json.loads(Path(setup["config"]).read_text())
    edges = ",".join(f"{2 * k}-{2 * k + 1}" for k in range(params["d"]))
    bounds = params["bounds"]
    return [
        ["calibrate", "--accuracies", ",".join(map(str, cfg["model"]["accuracies"])),
         "--edges", edges, "--edge-gap", str(EDGE_GAP), "-o", str(out / "model.json")],
        ["curves", "--config", setup["config"], "-o", str(out / "curves")],
        ["bounds", "--model", str(out / "model.json"), "--n-unlabeled", str(bounds["n_unlabeled"]),
         "--rho-trials", str(bounds["rho_trials"]), "--seed", str(seed), "-o", str(out / "bounds.json")],
    ]


def outputs(name: str) -> list[str]:
    """Output files of one iteration, relative to its output directory."""
    return {
        "curves": ["curves/curves.csv", "combine/combined.csv"],
        "dvr": ["dvr/dvr.csv"],
        "ws-case-study": ["ws/metrics.csv"],
        "wide-m": ["model.json", "curves/curves.csv", "bounds.json"],
    }[name]


# -- output checks ---------------------------------------------------------------

# The labeled curve: each labeled accuracy estimate has variance (1 - a^2)/n,
# so the expected scored excess is m/(2n) + B_I up to O(1/n^2).  At n >= 1000
# the mean must lie within 5 reported standard errors plus 5% of m/(2n).
LABELED_SIGMAS = 5.0
LABELED_SLACK = 0.05


def labeled_search_grid() -> set[int]:
    return set(range(10, 101)) | set(range(102, 1001, 2)) | set(range(1010, 5001, 10))


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _excess_ok(value: str, b_i: float) -> bool:
    x = float(value)
    return math.isfinite(x) and x >= b_i - 1e-12


def _check_curves(path: Path, facts: dict, params: dict, errors: list) -> tuple[int, int]:
    rows = _rows(path)
    m, b_i, trials = facts["m"], facts["B_I"], params["trials"]
    if len(rows) != len(params["estimators"]) * len(params["n_grid"]):
        errors.append(f"{path.name}: {len(rows)} rows")
    attempted = failed = 0
    for r in rows:
        n, done, fails = int(r["n"]), int(r["trials"]), int(r["failures"])
        attempted, failed = attempted + done + fails, failed + fails
        if not _excess_ok(r["mean_excess"], b_i):
            errors.append(f"{path.name}: {r['estimator']} n={n} mean_excess {r['mean_excess']} below B_I")
        if done + fails != trials:
            errors.append(f"{path.name}: {r['estimator']} n={n} trials+failures != {trials}")
        if r["estimator"] == "labeled" and n >= 1000:
            expected = m / (2 * n) + b_i
            tol = LABELED_SIGMAS * float(r["stderr"]) + LABELED_SLACK * m / (2 * n)
            if not abs(float(r["mean_excess"]) - expected) <= tol:
                errors.append(f"{path.name}: labeled n={n} mean {r['mean_excess']} vs {expected} +- {tol}")
    return attempted, failed


def _check_combined(path: Path, facts: dict, params: dict, errors: list) -> tuple[int, int]:
    rows = _rows(path)
    trials, b_i = params["trials"], facts["B_I"]
    if len(rows) != len(params["combine"]["n_labeled_grid"]):
        errors.append(f"{path.name}: {len(rows)} rows")
    attempted = failed = 0
    for r in rows:
        done, fails = int(r["trials"]), int(r["failures"])
        attempted, failed = attempted + done + fails, failed + fails
        for col in ("excess_labeled", "excess_unlabeled", "excess_best", "excess_gs"):
            if not _excess_ok(r[col], b_i):
                errors.append(f"{path.name}: n_labeled={r['n_labeled']} {col} {r[col]} below B_I")
        if done + fails != trials:
            errors.append(f"{path.name}: n_labeled={r['n_labeled']} trials+failures != {trials}")
    return attempted, failed


def _check_dvr(path: Path, facts: dict, params: dict, errors: list) -> tuple[int, int]:
    rows = _rows(path)
    grid = labeled_search_grid()
    if len(rows) != len(params["estimators"]) * len(params["n_grid"]):
        errors.append(f"{path.name}: {len(rows)} rows")
    for r in rows:
        n_u, matched, lower = int(r["n_unlabeled"]), int(r["matched_n_labeled"]), int(r["lower_bounded"])
        where = f"{path.name}: {r['estimator']} n={n_u}"
        if not _excess_ok(r["target_excess"], facts["B_I"]):
            errors.append(f"{where} target_excess {r['target_excess']} below B_I")
        if lower == 0 and matched in grid:
            denominator = matched
        elif lower == 1 and matched == -1:
            denominator = max(grid)
        else:
            errors.append(f"{where} neither matched on the search grid nor lower-bounded")
            continue
        if not math.isclose(float(r["value_ratio"]), n_u / denominator, rel_tol=1e-12):
            errors.append(f"{where} value_ratio {r['value_ratio']} != {n_u}/{denominator}")
    # dvr.csv reports no failures column: only the unlabeled target fits can
    # fail, and a run where all of them fail exits with an error.
    return len(rows) * params["trials"], 0


def _check_ws(path: Path, facts: dict, params: dict, errors: list) -> tuple[int, int]:
    rows = _rows(path)
    if len(rows) != WS_METRIC_ROWS:
        errors.append(f"{path.name}: {len(rows)} rows, expected {WS_METRIC_ROWS}")
    for r in rows:
        loss, f1 = float(r["loss"]), float(r["f1"])
        if not math.isfinite(loss):
            errors.append(f"{path.name}: {r['model']} loss {r['loss']} not finite")
        if not 0.0 <= f1 <= 1.0:
            errors.append(f"{path.name}: {r['model']} f1 {r['f1']} outside [0, 1]")
    # Each row averages `trials` fits; a failed fit aborts the run.
    return len(rows) * params["trials"], 0


def _finite_leaves(doc, where: str, errors: list) -> None:
    if isinstance(doc, dict):
        for key, value in doc.items():
            _finite_leaves(value, f"{where}.{key}", errors)
    elif isinstance(doc, float) and not math.isfinite(doc):
        errors.append(f"{where} = {doc} is not finite")


def _check_bounds(path: Path, facts: dict, params: dict, errors: list) -> tuple[int, int]:
    doc = json.loads(path.read_text())
    _finite_leaves(doc, path.name, errors)
    if "R_M_bound" not in doc:
        errors.append(f"{path.name}: no R_M_bound")
    if not math.isclose(doc.get("B_I", math.nan), facts["B_I"], rel_tol=1e-9):
        errors.append(f"{path.name}: B_I {doc.get('B_I')} != {facts['B_I']}")
    return params["bounds"]["rho_trials"], 0


def planned_fits(name: str, params: dict) -> int:
    """Fits an iteration attempts; all count as failed when the iteration fails."""
    if name == "curves":
        return params["trials"] * (len(params["estimators"]) * len(params["n_grid"])
                                   + len(params["combine"]["n_labeled_grid"]))
    if name == "dvr":
        return params["trials"] * len(params["estimators"]) * len(params["n_grid"])
    if name == "ws-case-study":
        return WS_METRIC_ROWS * params["trials"]
    return (params["trials"] * len(params["estimators"]) * len(params["n_grid"])
            + params["bounds"]["rho_trials"])


_CHECKS = {
    "curves/curves.csv": _check_curves,
    "combine/combined.csv": _check_combined,
    "dvr/dvr.csv": _check_dvr,
    "ws/metrics.csv": _check_ws,
    "bounds.json": _check_bounds,
}


def check(name: str, params: dict, facts: dict, out: Path) -> tuple[list[str], int, int]:
    """Check one iteration's outputs; returns (errors, fits attempted, fits failed)."""
    errors: list[str] = []
    attempted = failed = 0
    for rel in outputs(name):
        path = out / rel
        if not path.is_file():
            errors.append(f"missing output {rel}")
            continue
        if rel in _CHECKS:
            try:
                a, f = _CHECKS[rel](path, facts, params, errors)
            except (KeyError, ValueError) as exc:
                errors.append(f"{rel} is malformed: {exc!r}")
                continue
            attempted, failed = attempted + a, failed + f
    return errors, attempted, failed
