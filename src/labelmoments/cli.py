"""Command-line entry point wiring calibration, sampling, fitting, inference,
decomposition, bound evaluation, the synthetic experiment suites, and the
keyword weak-supervision pipeline.

All randomness flows from --seed, a non-negative integer.  Exit codes: 0
on success, 1 on domain errors (the error class name is printed), 2 on
usage errors.

Every command runs under one decorator, ``_recorded``, which writes the run's
manifest (subcommand, config and its hash, seed, version, input and output
hashes, wall-clock seconds):

- it is written only when the command succeeds, to ``manifest.json`` inside
  ``--out`` for the directory commands (curves, dvr, combine, ws run) and
  next to the first output otherwise, named after all of it
  (``data.csv`` -> ``data.csv.manifest.json``), so outputs that differ only
  in extension keep separate records;
- the config is every option except ``--seed``, keyed by its long name
  (``--n-labeled`` -> ``n_labeled``), unless the command resolves a config
  object (curves, dvr, combine, ws run), which is recorded instead, together
  with the options the config does not hold (the estimators dvr ran;
  combine's ``n_unlabeled``, ``n_labeled_grid`` and ``estimator``).  combine
  records only what it runs: the config's ``model``, ``trials`` and
  ``seed``, and its own three options.  fit and decompose record the
  aggregation they ran as ``agg``: ``mean`` when unset, and null for
  ``--method labeled``;
- the seed is ``--seed``, or ``DEFAULT_SEED`` for commands without one;
  fit, decompose, bounds and ws ingest record null when nothing drew from
  it: only ``--agg single``, decompose's ``--demo`` sample, bounds'
  ``--rho-trials`` fits and ws ingest's split of a csv or jsonl corpus draw;
- dvr adds ``dvr_cells``: per (estimator, n_unlabeled), the labeled sizes its
  search evaluated;
- inputs are the given existing-path options that name a file (not a
  directory), hashed before the command runs; outputs are the files the
  command wrote.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

import click

# ws is imported inside the ws commands, so that no other command loads or compiles it.
from . import __version__, analysis, experiments
from .data import load_source_matrix
from .errors import ContractError, LabelMomentsError
from .estimators import (
    AccuracyEstimate,
    ClassConditionalEstimate,
    SampleMoments,
    combine_green_strawderman,
    estimate_quadratic_triplet_from_moments,
    estimate_triplet_from_moments,
)
from .ising import IsingModel, calibrate, calibration_residual, diagnostics, sample
from .label_model import LabelModel, empirical_config_dist, posterior
from .manifest import hash_files, read_json, write_json, write_manifest

DEFAULT_SEED = 0
# every --seed option: a seed outside [0, 2**63) is a usage error
SEED = click.IntRange(min=0, max=(1 << 63) - 1)


def _option_key(param: click.Parameter) -> str:
    """The config key of an option: its long name, ``--n-labeled`` -> ``n_labeled``."""
    return max(param.opts, key=len).lstrip("-").replace("-", "_")


def _subcommand(ctx: click.Context) -> str:
    """``ws-ingest`` for ``labelmoments ws ingest``."""
    names = []
    while ctx.parent is not None:
        names.insert(0, ctx.info_name)
        ctx = ctx.parent
    return "-".join(names)


def _options(**resolved) -> dict:
    """The running command's options as its manifest records them: all but
    ``--seed``, with ``resolved`` in place of the ones the command resolved."""
    ctx = click.get_current_context()
    return {_option_key(p): ctx.params[p.name] for p in ctx.command.params if p.name != "seed"} | resolved


def _recorded(fn):
    """Run a command body under its run record; a domain error exits 1.

    The body returns the paths it wrote, or ``(paths, config, seed)`` when
    it records another config than its options as given (a resolved config
    object, or ``_options`` with resolved values), optionally followed by a
    dict of further manifest entries.
    """

    @functools.wraps(fn)
    def wrapper(**kwargs):
        started = time.monotonic()
        ctx = click.get_current_context()
        config = _options()
        seed = kwargs.get("seed", DEFAULT_SEED)
        inputs = hash_files(
            kwargs[p.name] for p in ctx.command.params
            if isinstance(p.type, click.Path) and p.type.exists
            and kwargs[p.name] is not None and Path(kwargs[p.name]).is_file()
        )
        try:
            result = fn(**kwargs)
        except LabelMomentsError as exc:
            click.echo(f"error ({type(exc).__name__}): {exc}", err=True)
            sys.exit(1)
        outputs, config, seed, *extra = result if isinstance(result, tuple) else (result, config, seed)
        if "out_dir" in kwargs:
            path = Path(kwargs["out_dir"]) / "manifest.json"
        else:
            path = Path(f"{outputs[0]}.manifest.json")
        write_manifest(
            path, _subcommand(ctx), config, seed, __version__, inputs, outputs, started, *extra
        )

    return wrapper


def _write_report(doc: dict, out: Path, fmt: str) -> None:
    if fmt == "json":
        write_json(out, doc)
    else:
        experiments.write_csv(out, ["key", "value"], _flatten(doc))


def _flatten(doc, prefix=""):
    items = []
    if isinstance(doc, dict):
        for k in sorted(doc):
            items.extend(_flatten(doc[k], f"{prefix}{k}."))
    else:
        items.append((prefix[:-1], doc))
    return items


def _parse_tokens(text: str, parse, what: str) -> list:
    """Parse comma- or space-separated tokens; a malformed one is a usage error."""
    out = []
    for tok in text.replace(",", " ").split():
        try:
            out.append(parse(tok))
        except ValueError:
            raise click.BadParameter(f"'{tok}' is not {what}") from None
    return out


def _parse_floats(text: str) -> list[float]:
    return _parse_tokens(text, float, "a number")


def _parse_ints(text: str) -> list[int]:
    return _parse_tokens(text, int, "an integer")


def _parse_edge(tok: str) -> tuple[int, int]:
    i, j = tok.split("-")
    return int(i), int(j)


def _parse_edges(text: str) -> list[tuple[int, int]]:
    return _parse_tokens(text, _parse_edge, "an i-j pair")


def _aggregation(method: str, agg: str | None) -> str | None:
    """The triplet aggregation ``--method`` runs: ``--agg``, or ``mean`` when unset.

    The labeled method reads none, so it gets None, and a given ``--agg`` is
    refused for it rather than recorded unread.
    """
    if method != "labeled":
        return agg or "mean"
    if agg is not None:
        raise ContractError("--agg applies to the unlabeled methods, not --method labeled")
    return None


def _fit(data, method, agg, balance, seed, known_edges=()):
    """The ``--method`` estimate: labeled, accuracy triplets or class-conditional
    triplets aggregated by ``agg``, as ``_aggregation`` resolves it."""
    if known_edges and method != "triplet":
        raise ContractError(f"known edges apply to --method triplet only, not '{method}'")
    moments = SampleMoments.from_source_matrix(data)
    if method == "labeled":
        data.require_labels()
        return AccuracyEstimate(moments.acc, method="labeled")
    if method == "triplet":
        return estimate_triplet_from_moments(moments.pair, agg, seed, known_edges)
    return estimate_quadratic_triplet_from_moments(moments, balance, agg, seed)


def _build_label_model(est, balance, mode, data, laplace):
    dist = None
    if mode == "empirical":
        dist = empirical_config_dist(data, laplace=laplace)
    if isinstance(est, ClassConditionalEstimate):
        return LabelModel.from_class_conditional(est, mode=mode, config_dist=dist)
    return LabelModel.from_accuracies(est, balance, mode=mode, config_dist=dist)


@click.group(name="labelmoments")
@click.version_option(__version__)
def main():
    """Method-of-moments label models for binary weak supervision."""


# ---------------------------------------------------------------------------
# calibrate / sample
# ---------------------------------------------------------------------------


@main.command("calibrate")
@click.option("--accuracies", required=True, help="Comma-separated target accuracies in (0.5, 1).")
@click.option("--edges", default="", help="Dependent pairs as i-j tokens, e.g. '0-1,2-3'.")
@click.option("--edge-gap", default=0.1, show_default=True, help="Misspecification gap target per edge.")
@click.option("--balance", default=0.5, show_default=True, help="Class balance Pr(Y=1).")
@click.option("--out", "-o", required=True, type=click.Path(), help="Output model JSON path.")
@_recorded
def calibrate_cmd(accuracies, edges, edge_gap, balance, out):
    """Calibrate a ground-truth model to accuracy and dependence targets.

    The model JSON also records ``calibration_residual``, the largest miss
    of any target; reading the model ignores it.
    """
    targets = (_parse_floats(accuracies), _parse_edges(edges), edge_gap, balance)
    model = calibrate(*targets)
    write_json(out, {**model.to_dict(), "calibration_residual": calibration_residual(model, *targets)})
    click.echo(f"wrote {out}")
    return [out]


@main.command("sample")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("-n", "--rows", "n", required=True, type=int, help="Number of draws.")
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=SEED)
@click.option("--binary", is_flag=True, help="Write the compact binary format instead of CSV.")
@click.option("--out", "-o", required=True, type=click.Path())
@_recorded
def sample_cmd(model_path, n, seed, binary, out):
    """Draw labeled rows from a model's exact joint distribution."""
    data = sample(IsingModel.from_json(model_path), n, seed)
    if binary:
        data.to_binary(out)
    else:
        data.to_csv(out)
    click.echo(f"wrote {out} ({data.n} rows x {data.m} sources)")
    return [out]


# ---------------------------------------------------------------------------
# fit / infer
# ---------------------------------------------------------------------------


@main.command("fit")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["labeled", "triplet", "quadratic"]), default="triplet", show_default=True)
@click.option("--agg", type=click.Choice(["single", "mean", "median"]), default=None,
              help="Triplet aggregation of the unlabeled methods [default: mean].")
@click.option("--balance", type=float, default=None,
              help="Class balance Pr(Y=1) of --method quadratic [default: 0.5].")
@click.option("--known-edges", default="", help="Recovered dependencies to avoid, as i-j tokens (--method triplet).")
@click.option("--combine-with", type=click.Path(exists=True), default=None,
              help="Labeled CSV; applies the shrinkage combination to the unlabeled fit.")
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=SEED)
@click.option("--out", "-o", required=True, type=click.Path())
@_recorded
def fit_cmd(data_path, method, agg, balance, known_edges, combine_with, seed, out):
    """Estimate source accuracies (or class conditionals) from data."""
    if combine_with is not None and method == "quadratic":
        raise ContractError("--combine-with applies to accuracy estimates, not --method quadratic")
    if balance is not None and method != "quadratic":
        raise ContractError(f"--balance applies to --method quadratic, not '{method}'")
    edges, agg = _parse_edges(known_edges), _aggregation(method, agg)
    data = load_source_matrix(data_path)
    est = _fit(data, method, agg, 0.5 if balance is None else balance, seed, edges)
    if combine_with is not None:
        labeled = SampleMoments.from_source_matrix(load_source_matrix(combine_with))
        est = combine_green_strawderman(est, labeled)
    est.to_json(out)
    click.echo(f"wrote {out}")
    return [out], _options(agg=agg), seed if agg == "single" else None


@main.command("infer")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--estimate", "estimate_path", required=True, type=click.Path(exists=True))
@click.option("--balance", type=float, default=None,
              help="Class balance Pr(Y=1) of an accuracy estimate [default: 0.5]; "
                   "a class-conditional estimate holds its own.")
@click.option("--mode", type=click.Choice(["normalized", "empirical"]), default="normalized", show_default=True)
@click.option("--laplace", default=None, type=float, help="Pseudocount for the configuration distribution (empirical mode).")
@click.option("--out", "-o", required=True, type=click.Path())
@_recorded
def infer_cmd(data_path, estimate_path, balance, mode, laplace, out):
    """Produce soft labels (row_id, p_y1, soft_label) for a source matrix."""
    if laplace is not None and mode != "empirical":
        raise ContractError(f"--laplace applies to --mode empirical, not '{mode}'")
    data = load_source_matrix(data_path)
    est = read_json(
        estimate_path,
        lambda doc: (ClassConditionalEstimate if "mu" in doc else AccuracyEstimate).from_dict(doc),
    )
    if est.m != data.m:
        raise ContractError(f"the estimate has m={est.m} sources, the data m={data.m}")
    if isinstance(est, ClassConditionalEstimate) and balance is not None:
        raise ContractError(
            f"--balance applies to accuracy estimates; the class-conditional estimate "
            f"holds its own class balance, {est.class_balance}"
        )
    model = _build_label_model(est, 0.5 if balance is None else balance, mode, data, laplace)
    probs = posterior(model, data)
    experiments.write_csv(
        out, ["row_id", "p_y1", "soft_label"], [[i, p, 2 * p - 1] for i, p in enumerate(map(float, probs))]
    )
    click.echo(f"wrote {out}")
    return [out]


# ---------------------------------------------------------------------------
# decompose / bounds
# ---------------------------------------------------------------------------


DEMO_ACCURACIES = "0.7,0.65,0.6,0.75"


@main.command("decompose")
@click.option("--model", "model_path", type=click.Path(exists=True), default=None)
@click.option("--data", "data_path", type=click.Path(exists=True), default=None)
@click.option("--method", type=click.Choice(["labeled", "triplet", "quadratic"]), default="triplet", show_default=True)
@click.option("--agg", type=click.Choice(["single", "mean", "median"]), default=None,
              help="Triplet aggregation of the unlabeled methods [default: mean].")
@click.option("--laplace", default=1.0, show_default=True, type=float)
@click.option("--balance", default=0.5, show_default=True)
@click.option("--demo", is_flag=True, help="Run on a built-in small model and sample.")
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=SEED)
@click.option("--out", "-o", required=True, type=click.Path())
@_recorded
def decompose_cmd(model_path, data_path, method, agg, laplace, balance, demo, seed, out):
    """Exact four-term decomposition of a fitted model's expected loss."""
    if demo and (model_path is not None or data_path is not None):
        raise ContractError("--demo runs on a built-in model and sample; it reads no --model or --data")
    agg = _aggregation(method, agg)
    if demo:
        model = calibrate(_parse_floats(DEMO_ACCURACIES), [(0, 1)], 0.08, balance)
        data = sample(model, 800, seed)
    else:
        if model_path is None or data_path is None:
            raise click.UsageError("either --demo or both --model and --data are required")
        model = IsingModel.from_json(model_path)
        data = load_source_matrix(data_path)
    est = _fit(data, method, agg, balance, seed)
    fitted = _build_label_model(est, balance, "empirical", data, laplace)
    report = analysis.decompose(model, fitted)
    report.to_json(out)
    click.echo(f"wrote {out} (residual {report.residual:.3e})")
    return [out], _options(agg=agg), seed if demo or agg == "single" else None


@main.command("bounds")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--n-labeled", default=None, type=int)
@click.option("--n-unlabeled", default=None, type=int)
@click.option("--rho-trials", default=0, show_default=True, type=int,
              help="When positive, also estimate the median-corrected MSE by Monte Carlo.")
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=SEED)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", "-o", required=True, type=click.Path())
@_recorded
def bounds_cmd(model_path, n_labeled, n_unlabeled, rho_trials, seed, fmt, out):
    """Evaluate the excess-error bounds for a ground-truth model."""
    model = IsingModel.from_json(model_path)
    diag = diagnostics(model)
    rho = None
    if rho_trials > 0:
        if n_unlabeled is None:
            raise click.UsageError("--rho-trials requires --n-unlabeled")
        rho = analysis.median_mse(model, n_unlabeled, rho_trials, seed, diag)
        click.echo(f"rho from {rho.trials} median-corrected fits ({rho.failures} failed)")
    doc = analysis.bound_report(diag, n_labeled, n_unlabeled, rho=rho)
    _write_report(doc, Path(out), fmt)
    click.echo(f"wrote {out}")
    return [out], _options(), seed if rho is not None else None


# ---------------------------------------------------------------------------
# experiment suites
# ---------------------------------------------------------------------------


def _experiment_config(config_path, d, trials, seed, n_grid=None, unread=()) -> experiments.ExperimentConfig:
    """The config file's fields, or the defaults, with the given flags in their place.

    The fields named in ``unread``, which the command does not read, are
    dropped from the file unchecked and take their defaults; a key that is
    no field is refused all the same.
    """
    if config_path is not None:
        cfg = read_json(config_path, lambda doc: experiments.ExperimentConfig.from_dict(
            {key: value for key, value in doc.items() if key not in unread}
        ))
    else:
        cfg = experiments.ExperimentConfig()
    doc = cfg.to_dict()
    if d is not None:
        doc["model"]["d"] = d
    if trials is not None:
        doc["trials"] = trials
    if seed is not None:
        doc["seed"] = seed
    if n_grid is not None:
        doc["n_grid"] = _parse_ints(n_grid)
    return experiments.ExperimentConfig.from_dict(doc)


def _suite_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                      help="Experiment config JSON; flags override its fields.")(fn)
    fn = click.option("--d", default=None, type=int, help="Number of dependency edges.")(fn)
    fn = click.option("--trials", default=None, type=int)(fn)
    fn = click.option("--seed", default=None, type=SEED)(fn)
    fn = click.option("--out", "-o", "out_dir", required=True, type=click.Path())(fn)
    return fn


_n_grid_option = click.option("--n-grid", default=None, help="Comma-separated sample sizes.")


@main.command("curves")
@_suite_options
@_n_grid_option
@_recorded
def curves_cmd(config_path, d, trials, seed, n_grid, out_dir):
    """Mean excess generalization error per (estimator, n); writes curves.csv."""
    cfg = _experiment_config(config_path, d, trials, seed, n_grid)
    results = experiments.run_curves(cfg, out_dir)
    for r in results:
        click.echo(f"{r.estimator} n={r.n}: {r.mean:.6f} +- {r.stderr:.6f}")
    return [Path(out_dir) / "curves.csv"], cfg.to_dict(), cfg.seed


@main.command("dvr")
@_suite_options
@_n_grid_option
@click.option("--estimators", default=None, help="Comma-separated unlabeled estimators.")
@_recorded
def dvr_cmd(config_path, d, trials, seed, n_grid, out_dir, estimators):
    """Data value ratio V(n) per unlabeled estimator; writes dvr.csv."""
    cfg = _experiment_config(config_path, d, trials, seed, n_grid)
    names = estimators.split(",") if estimators is not None else None
    results = experiments.run_dvr(cfg, out_dir, names)
    for r in results:
        click.echo(
            f"{r.estimator} n={r.n_unlabeled}: V={r.value_ratio:.3f} "
            f"(matched n_labeled={r.matched_n_labeled})"
        )
    ran = list(dict.fromkeys(r.estimator for r in results))
    cells = [
        {"estimator": r.estimator, "n_unlabeled": r.n_unlabeled,
         "labeled_sizes": sorted({n for n, _, _ in r.trace})}
        for r in results
    ]
    record = {**cfg.to_dict(), "estimators": ran}
    return [Path(out_dir) / "dvr.csv"], record, cfg.seed, {"dvr_cells": cells}


@main.command("combine")
@_suite_options
@click.option("--n-unlabeled", default=1000, show_default=True, type=int)
@click.option("--n-labeled-grid", default="25,50,100,200,400,800", show_default=True)
@click.option("--estimator", default="triplet-mean", show_default=True)
@_recorded
def combine_cmd(config_path, d, trials, seed, out_dir, n_unlabeled, n_labeled_grid, estimator):
    """Combined labeled+unlabeled sweep at fixed n_unlabeled; writes combined.csv."""
    cfg = _experiment_config(config_path, d, trials, seed, unread=("estimators", "n_grid"))
    grid = _parse_ints(n_labeled_grid)
    rows = experiments.run_combined(cfg, out_dir, n_unlabeled, grid, estimator)
    for r in rows:
        click.echo(
            f"n_labeled={r.n_labeled}: labeled={r.excess_labeled:.5f} "
            f"unlabeled={r.excess_unlabeled:.5f} best={r.excess_best:.5f} "
            f"(alpha={r.best_alpha:.2f})"
        )
    record = {"model": cfg.model.to_dict(), "trials": cfg.trials, "seed": cfg.seed,
              "n_unlabeled": n_unlabeled, "n_labeled_grid": grid, "estimator": estimator}
    return [Path(out_dir) / "combined.csv"], record, cfg.seed


# ---------------------------------------------------------------------------
# weak-supervision pipeline
# ---------------------------------------------------------------------------


@main.group("ws")
def ws_group():
    """Keyword weak-supervision case study."""


@ws_group.command("ingest")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True),
              help="Review directory ({train,test}/{pos,neg}/*.txt), a CSV with text/label columns, or a JSONL file.")
@click.option("--format", "fmt", type=click.Choice(["review-dir", "csv", "jsonl"]), default="review-dir", show_default=True)
@click.option("--test-fraction", default=0.2, show_default=True, help="Test share for formats without a split.")
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=SEED)
@click.option("--docs-out", required=True, type=click.Path())
@click.option("--split-out", required=True, type=click.Path())
@_recorded
def ws_ingest_cmd(input_path, fmt, test_fraction, seed, docs_out, split_out):
    """Convert a corpus layout into JSONL documents plus a split manifest."""
    from . import ws

    if fmt == "review-dir":
        corpus = ws.ingest_review_directory(input_path)
    elif fmt == "csv":
        corpus = ws.ingest_csv(input_path, test_fraction, seed)
    else:
        docs = ws.Corpus.from_jsonl(input_path).documents
        corpus = ws.Corpus(docs, ws.random_split(docs, test_fraction, seed))
    corpus.to_jsonl(docs_out, split_out)
    click.echo(f"wrote {docs_out} ({len(corpus.documents)} documents) and {split_out}")
    return [docs_out, split_out], _options(), seed if fmt != "review-dir" else None


@ws_group.command("apply")
@click.option("--corpus", "docs_path", required=True, type=click.Path(exists=True))
@click.option("--split", "split_path", default=None, type=click.Path(exists=True))
@click.option("--subset", type=click.Choice(["all", "train", "test"]), default="all", show_default=True)
@click.option("--out", "-o", required=True, type=click.Path())
@_recorded
def ws_apply_cmd(docs_path, split_path, subset, out):
    """Apply the keyword sources to a corpus; writes a source-matrix CSV."""
    from . import ws

    votes = ws.CorpusVotes.from_jsonl(docs_path, split_path)
    matrix = votes.matrix(None if subset == "all" else subset)
    matrix.to_csv(out)
    click.echo(f"wrote {out} ({matrix.n} rows x {matrix.m} sources)")
    return [out]


@ws_group.command("run")
@click.option("--corpus", "docs_path", required=True, type=click.Path(exists=True))
@click.option("--split", "split_path", required=True, type=click.Path(exists=True))
@click.option("--n-grid", default="2500,5000,10000,20000,40000", show_default=True)
@click.option("--n-unlabeled", default=40000, show_default=True, type=int)
@click.option("--n-labeled-grid", default="40,80,120,200,400", show_default=True)
@click.option("--trials", default=5, show_default=True, type=int)
@click.option("--balance", default=0.5, show_default=True)
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=SEED)
@click.option("--out", "-o", "out_dir", required=True, type=click.Path())
@_recorded
def ws_run_cmd(docs_path, split_path, n_grid, n_unlabeled, n_labeled_grid, trials, balance, seed, out_dir):
    """Run the full case study; writes metrics.csv in the output directory."""
    from . import ws

    cfg = ws.CaseStudyConfig(
        n_grid=tuple(_parse_ints(n_grid)),
        n_unlabeled=n_unlabeled,
        n_labeled_grid=tuple(_parse_ints(n_labeled_grid)),
        trials=trials,
        seed=seed,
        class_balance=balance,
    )
    train_states, test_states = ws.CorpusVotes.from_jsonl(docs_path, split_path).case_study_states()
    rows = ws.run_case_study(train_states, test_states, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ws.write_metrics_csv(rows, out / "metrics.csv")
    for row in rows:
        click.echo(
            f"{row['model']} n={row['n']} n_labeled={row['n_labeled']}: "
            f"loss={row['loss']:.4f} f1={row['f1']:.4f}"
        )
    return [out / "metrics.csv"], {"corpus": docs_path, "split": split_path, **cfg.to_dict()}, seed


if __name__ == "__main__":
    main()
