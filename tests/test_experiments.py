import math

import numpy as np
import pytest

from labelmoments import ContractError, EstimationError, NumericalError, experiments
from labelmoments.analysis import accuracy_excess, median_mse
from labelmoments.estimators import (
    AccuracyEstimate,
    SampleMoments,
    estimate_triplet_from_moments,
    green_strawderman_alpha,
)
from labelmoments.experiments import (
    ALPHA_STEP,
    DEFAULT_ACCURACIES,
    CombinedSweepRow,
    ExperimentConfig,
    SyntheticModelSpec,
    TrialEngine,
    approx_data_value_ratio,
    combined_sweep,
    data_value_ratio,
    edge_layout,
    expected_excess_error,
    labeled_search_grid,
    run_combined,
    run_curves,
    run_dvr,
    trial_rng,
)
from labelmoments.ising import sample_state_counts
from labelmoments.label_model import LabelModel
from labelmoments.analysis import exact_generalization_error


@pytest.fixture(scope="module")
def dep_engine(synth_model_dep, synth_diag_dep):
    return TrialEngine(synth_model_dep, synth_diag_dep)


@pytest.fixture(scope="module")
def indep_engine(synth_model_indep, synth_diag_indep):
    return TrialEngine(synth_model_indep, synth_diag_indep)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            ExperimentConfig(n_grid=(100, 100))
        with pytest.raises(ContractError):
            ExperimentConfig(trials=0)
        with pytest.raises(ContractError):
            ExperimentConfig(estimators=("nope",))

    def test_round_trip_and_hash(self):
        cfg = ExperimentConfig(SyntheticModelSpec(d=3), trials=7, seed=5)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_edge_layout(self):
        assert edge_layout(3) == ((0, 1), (2, 3), (4, 5))
        with pytest.raises(ContractError):
            edge_layout(6, m=10)

    def test_grid_shape(self):
        grid = labeled_search_grid()
        assert grid[0] == 10 and grid[-1] == 5000
        assert 100 in grid and 102 in grid and 1010 in grid
        assert all(b > a for a, b in zip(grid, grid[1:]))


class TestExpectedExcess:
    def test_single_trial_matches_enumeration(self, synth_model_dep, dep_engine):
        # trials=1 reduces to one fit scored by the exact enumerated loss
        res = expected_excess_error(
            synth_model_dep, "labeled", 400, trials=1, seed=9, engine=dep_engine
        )
        counts = sample_state_counts(synth_model_dep, 400, trial_rng(9, "excess:labeled/0", 400))
        est = AccuracyEstimate(SampleMoments.from_state_counts(counts, 10).acc, "labeled")
        fitted = LabelModel.from_accuracies(
            est, 0.5, mode="empirical",
            config_dist=synth_model_dep.lambda_marginal(),
        )
        _, excess = exact_generalization_error(synth_model_dep, fitted)
        assert res.mean == pytest.approx(excess, abs=1e-12)
        assert res.trials == 1 and res.failures == 0

    def test_mean_triplet_plateaus_above_bias(self, synth_model_dep, dep_engine):
        res = expected_excess_error(
            synth_model_dep, "triplet-mean", 100_000, trials=100, seed=1,
            engine=dep_engine,
        )
        plateau = res.mean - dep_engine.diag.inference_bias
        assert plateau > 5 * res.stderr

    def test_determinism(self, synth_model_dep, dep_engine):
        a = expected_excess_error(
            synth_model_dep, "triplet-median", 500, 40, 3, engine=dep_engine
        )
        b = expected_excess_error(
            synth_model_dep, "triplet-median", 500, 40, 3, engine=dep_engine
        )
        assert a == b

    def test_rejects_bad_sizes(self, synth_model_dep, dep_engine):
        with pytest.raises(ContractError):
            expected_excess_error(synth_model_dep, "labeled", 0, engine=dep_engine)


class TestExactLabeled:
    @pytest.mark.parametrize("d, n, seed", [
        *(pytest.param("dep", n, 21, id=str(n)) for n in (10, 250, 1000)),
        pytest.param("indep", 100_000, 0, id="indep-100000"),
    ])
    def test_matches_monte_carlo_oracle(self, request, d, n, seed):
        engine = request.getfixturevalue(f"{d}_engine")
        mc = expected_excess_error(
            engine.model, "labeled", n, trials=1000, seed=seed, engine=engine
        )
        assert abs(engine.labeled_excess(n) - mc.mean) <= 4 * mc.stderr

    def test_matches_parametric_rate(self, indep_engine):
        # d = 0: no inference bias, and labeled fits concentrate at m / (2 n)
        assert indep_engine.labeled_excess(100_000) == pytest.approx(10 / (2 * 100_000), rel=1e-3)

    @pytest.mark.parametrize("n", [1, 10, 1000, 5000])
    def test_binomial_pmf(self, dep_engine, n):
        for a in dep_engine.diag.accuracies:
            p = (1 + a) / 2
            pmf = dep_engine.binomial_pmf(n, p)
            assert abs(pmf.sum() - 1.0) <= 1e-12
            # against math.lgamma at the outcomes carrying the mass
            k = np.arange(n + 1)
            ref = np.exp([
                math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                + j * math.log(p) + (n - j) * math.log1p(-p)
                for j in k
            ])
            assert np.allclose(pmf, ref, rtol=1e-9, atol=1e-300)

    def test_strictly_decreasing_on_search_grid(self, synth_model_dep, synth_diag_dep):
        engine = TrialEngine(synth_model_dep, synth_diag_dep)
        curve = np.array([engine.labeled_excess(n) for n in labeled_search_grid()])
        assert np.all(np.diff(curve) < 0)
        assert np.all(curve > synth_diag_dep.inference_bias)

    def test_independent_of_evaluation_order(self, synth_model_dep, synth_diag_dep):
        ns = [5000, 10, 733]
        first = TrialEngine(synth_model_dep, synth_diag_dep)
        second = TrialEngine(synth_model_dep, synth_diag_dep)
        a = [first.labeled_excess(n) for n in ns]
        b = [second.labeled_excess(n) for n in reversed(ns)][::-1]
        assert a == b

    def test_rejects_bad_sizes(self, dep_engine):
        with pytest.raises(ContractError):
            dep_engine.labeled_excess(0)


class TestDataValueRatio:
    def test_bisection_matches_linear_scan(self, synth_model_dep, dep_engine):
        grid = list(range(100, 1001, 50))
        res = data_value_ratio(
            synth_model_dep, 800, "triplet-median", trials=60, seed=8,
            grid=grid, engine=dep_engine,
        )

        def scan(threshold):
            hits = [n for n in grid if dep_engine.labeled_excess(n) <= threshold]
            return hits[0] if hits else None

        half = 1.96 * res.target_stderr
        assert res.target_stderr > 0
        assert res.matched_n_labeled == scan(res.target_excess)
        assert res.n_labeled_lo == scan(res.target_excess + half)
        assert res.n_labeled_hi == scan(res.target_excess - half)
        if res.n_labeled_lo is not None and res.n_labeled_hi is not None:
            assert res.n_labeled_lo <= res.matched_n_labeled <= res.n_labeled_hi
        assert all(stderr == 0.0 for _, _, stderr in res.trace)


    def test_minimal_grid_point_with_failing_predecessor(
        self, synth_model_dep, dep_engine
    ):
        res = data_value_ratio(
            synth_model_dep, 500, "triplet-mean", trials=150, seed=2,
            engine=dep_engine,
        )
        assert res.matched_n_labeled is not None
        assert not res.lower_bounded
        trace = {n: mean for n, mean, _ in res.trace}
        grid = labeled_search_grid()
        idx = grid.index(res.matched_n_labeled)
        assert trace[res.matched_n_labeled] <= res.target_excess
        if idx > 0:
            assert trace[grid[idx - 1]] > res.target_excess
        assert res.value_ratio == pytest.approx(500 / res.matched_n_labeled)

    def test_lower_bounded_flag(self, synth_model_dep, dep_engine):
        res = data_value_ratio(
            synth_model_dep, 100_000, "triplet-median", trials=40, seed=3,
            grid=[10, 12, 14], engine=dep_engine,
        )
        assert res.lower_bounded and res.matched_n_labeled is None

    def test_first_point_qualifies(self, synth_model_dep, dep_engine):
        res = data_value_ratio(
            synth_model_dep, 50, "triplet-mean", trials=40, seed=4,
            grid=[4000, 4010], engine=dep_engine,
        )
        assert res.matched_n_labeled == 4000


class TestApproxDataValueRatio:
    def test_well_specified_constant(self, synth_diag_indep):
        a = approx_data_value_ratio(synth_diag_indep, "well-specified", 100)
        b = approx_data_value_ratio(synth_diag_indep, "well-specified", 100_000)
        assert a == b > 0

    def test_misspecified_affine_in_d(self, synth_diag_dep):
        vals = [
            approx_data_value_ratio(synth_diag_dep, "misspecified", 1000, d=d)
            for d in (0, 1, 2)
        ]
        assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], rel=1e-12)
        assert vals[1] > vals[0]

    def test_corrected_below_misspecified(self, synth_model_dep, synth_diag_dep):
        rho = median_mse(synth_model_dep, 10_000, trials=60, seed=5,
                         diag=synth_diag_dep).rho
        corrected = approx_data_value_ratio(
            synth_diag_dep, "corrected", 10_000, rho=rho
        )
        misspec = approx_data_value_ratio(synth_diag_dep, "misspecified", 10_000)
        assert 0 < corrected < misspec

    def test_corrected_needs_rho(self, synth_diag_dep):
        with pytest.raises(ContractError):
            approx_data_value_ratio(synth_diag_dep, "corrected", 1000)


class TestCombinedSweep:
    def test_alpha_zero_column_is_labeled_only(self, synth_model_dep, dep_engine):
        rows = combined_sweep(
            synth_model_dep, 300, [80], trials=30, seed=6, engine=dep_engine
        )
        row = rows[0]
        # reproduce the labeled-only column from the Monte-Carlo labeled cell's stream
        rng = trial_rng(6, "excess:labeled/0", 80)
        excesses = []
        for _ in range(30):
            counts_l = sample_state_counts(synth_model_dep, 80, rng)
            mom = SampleMoments.from_state_counts(counts_l, 10)
            excesses.append(float(dep_engine.excess(mom.acc)))
        assert row.excess_labeled == pytest.approx(np.mean(excesses), abs=1e-12)

    def test_endpoints_are_the_curve_cells(self, synth_model_dep, dep_engine):
        # alpha 1 scores the unlabeled curve cell, once for the whole grid;
        # alpha 0 scores the Monte-Carlo labeled cell at each labeled size
        rows = combined_sweep(
            synth_model_dep, 300, [40, 80], "triplet-single", trials=25, seed=2, engine=dep_engine
        )
        unlabeled = expected_excess_error(
            synth_model_dep, "triplet-single", 300, 25, 2, dep_engine
        )
        for row in rows:
            assert row.excess_unlabeled == pytest.approx(unlabeled.mean, rel=1e-12)
            assert (row.trials, row.failures) == (unlabeled.trials, unlabeled.failures)
            labeled = expected_excess_error(
                synth_model_dep, "labeled", row.n_labeled, 25, 2, dep_engine
            )
            assert row.excess_labeled == pytest.approx(labeled.mean, rel=1e-12)

    def test_combined_never_worse_than_best_endpoint(
        self, synth_model_dep, dep_engine
    ):
        rows = combined_sweep(
            synth_model_dep, 1000, [100, 400], trials=120, seed=7, engine=dep_engine
        )
        for row in rows:
            assert row.excess_best <= min(row.excess_labeled, row.excess_unlabeled) + 1e-12
            assert 0.0 <= row.best_alpha <= 1.0
            assert 0.0 <= row.gs_alpha_mean <= 1.0


class TestSuiteRunners:
    def test_curves_deterministic_bytes(self, tmp_path):
        cfg = ExperimentConfig(
            SyntheticModelSpec(d=1, accuracies=DEFAULT_ACCURACIES[:6]),
            estimators=("labeled", "triplet-median"),
            n_grid=(50, 100),
            trials=25,
            seed=11,
        )
        run_curves(cfg, tmp_path / "a")
        run_curves(cfg, tmp_path / "b")
        a = (tmp_path / "a" / "curves.csv").read_bytes()
        b = (tmp_path / "b" / "curves.csv").read_bytes()
        assert a == b
        header = a.decode().splitlines()[0]
        assert header == "estimator,n,mean_excess,stderr,trials,failures"

    def test_curves_labeled_rows_are_exact(self, tmp_path):
        cfg = ExperimentConfig(
            SyntheticModelSpec(d=1, accuracies=DEFAULT_ACCURACIES[:6]),
            estimators=("labeled", "triplet-mean"),
            n_grid=(50, 400),
            trials=7,
            seed=14,
        )
        engine = TrialEngine(cfg.model.build())
        results = run_curves(cfg, tmp_path)
        labeled = [r for r in results if r.estimator == "labeled"]
        assert [r.n for r in labeled] == [50, 400]
        for r in labeled:
            assert r.mean == engine.labeled_excess(r.n)
            assert (r.stderr, r.trials, r.failures) == (0.0, 7, 0)

    def test_dvr_runner_writes_rows(self, tmp_path):
        cfg = ExperimentConfig(
            SyntheticModelSpec(d=1, accuracies=DEFAULT_ACCURACIES[:6]),
            estimators=("labeled", "triplet-mean"),
            n_grid=(100,),
            trials=25,
            seed=12,
        )
        results = run_dvr(cfg, tmp_path)
        text = (tmp_path / "dvr.csv").read_text().splitlines()
        assert len(text) == 1 + len(results)
        assert text[0].startswith("estimator,n_unlabeled")

    def test_combined_runner_writes_rows(self, tmp_path):
        cfg = ExperimentConfig(
            SyntheticModelSpec(d=1, accuracies=DEFAULT_ACCURACIES[:6]),
            n_grid=(100,),
            trials=20,
            seed=13,
        )
        rows = run_combined(cfg, tmp_path, n_unlabeled=200, n_labeled_grid=(40, 80))
        lines = (tmp_path / "combined.csv").read_text().splitlines()
        assert len(lines) == 1 + len(rows) == 3


# ---------------------------------------------------------------------------
# Oracle for the batched trial engine: a per-trial loop over the cell's
# streams, written on the public per-fit API (one draw per stream, one moment
# set, one fit per trial).
# ---------------------------------------------------------------------------


def _fit_one(estimator, moments, rng):
    if estimator == "labeled":
        return moments.acc
    aggregation = estimator.split("-", 1)[1]
    return estimate_triplet_from_moments(moments.pair, aggregation, seed=rng).values


def _per_trial_series(engine, estimator, n, trials, seed):
    label = f"excess:{estimator}"
    draw, fit_rng = trial_rng(seed, f"{label}/0", n), trial_rng(seed, f"{label}/fit", n)
    out, failures = [], 0
    for _ in range(trials):
        counts = sample_state_counts(engine.model, n, draw)
        moments = SampleMoments.from_state_counts(counts, engine.m)
        try:
            est = _fit_one(estimator, moments, fit_rng)
        except EstimationError:
            failures += 1
            continue
        out.append(float(accuracy_excess(engine.diag.accuracies, engine.diag.inference_bias, est)))
    return np.asarray(out), failures


def _per_trial_combined(engine, n_u, n_labeled_grid, estimator, trials, seed):
    m = engine.m
    alphas = np.arange(0.0, 1.0 + ALPHA_STEP / 2, ALPHA_STEP)
    # the unlabeled fits of the curve cell, fitted once for the whole grid
    label = f"excess:{estimator}"
    draw_u, fit_rng = trial_rng(seed, f"{label}/0", n_u), trial_rng(seed, f"{label}/fit", n_u)
    fits_u = []
    for _ in range(trials):
        mom_u = SampleMoments.from_state_counts(sample_state_counts(engine.model, n_u, draw_u), m)
        try:
            fits_u.append(_fit_one(estimator, mom_u, fit_rng))
        except EstimationError:
            fits_u.append(None)
    failures = sum(a_u is None for a_u in fits_u)
    rows = []
    for n_l in n_labeled_grid:
        per_alpha, gs_alpha, gs_excess = [], [], []
        draw_l = trial_rng(seed, "excess:labeled/0", n_l)
        for a_u in fits_u:
            mom_l = SampleMoments.from_state_counts(sample_state_counts(engine.model, n_l, draw_l), m)
            if a_u is None:
                continue
            a_l = mom_l.acc
            per_alpha.append(engine.excess(alphas[:, None] * a_u + (1 - alphas)[:, None] * a_l))
            try:
                alpha = green_strawderman_alpha(a_l - a_u, mom_l.shrinkage_covariance(), m - 2.0)
            except (NumericalError, ContractError):
                alpha = 1.0
            gs_alpha.append(alpha)
            gs_excess.append(float(engine.excess(alpha * a_u + (1 - alpha) * a_l)))
        per_alpha, gs_excess = np.vstack(per_alpha), np.asarray(gs_excess)
        k = per_alpha.shape[0]
        means = per_alpha.mean(axis=0)
        stderrs = per_alpha.std(axis=0, ddof=1) / np.sqrt(k)
        best = int(np.argmin(means))
        rows.append(CombinedSweepRow(
            int(n_l), int(n_u), float(means[0]), float(stderrs[0]),
            float(means[-1]), float(stderrs[-1]), float(alphas[best]),
            float(means[best]), float(stderrs[best]), float(np.mean(gs_alpha)),
            float(gs_excess.mean()), float(gs_excess.std(ddof=1) / np.sqrt(k)),
            k, failures,
        ))
    return rows


@pytest.fixture(scope="module")
def tiny_engine():
    """Four sources: at n=4 a source's three witness denominators can all
    vanish, so some trials fail and failures land inside and at the edges
    of blocks."""
    return TrialEngine(SyntheticModelSpec((0.6, 0.55, 0.7, 0.65), d=1).build())


# Block budgets: one trial per block, seven count rows (uneven blocks), the
# module default, and the whole cell in one block.
BUDGETS = {
    "one-trial": lambda m: 1,
    "seven-rows": lambda m: 7 * (8 << (m + 1)),
    "default": lambda m: experiments.BLOCK_BYTES,
    "whole-cell": lambda m: 1 << 40,
}


class TestBatchedEngineOracle:
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("estimator", experiments.ESTIMATOR_NAMES)
    def test_excess_series_matches_per_trial_loop(
        self, monkeypatch, tiny_engine, dep_engine, estimator, budget
    ):
        failed = 0
        for engine, n, trials in ((tiny_engine, 4, 40), (tiny_engine, 9, 13), (dep_engine, 300, 20)):
            monkeypatch.setattr(experiments, "BLOCK_BYTES", BUDGETS[budget](engine.m))
            series, failures = engine.excess_series(estimator, n, trials, 21)
            ref_series, ref_failures = _per_trial_series(engine, estimator, n, trials, 21)
            np.testing.assert_array_equal(series, ref_series)
            assert failures == ref_failures
            failed += failures
        if estimator != "labeled":
            assert failed > 0  # the tiny model exercises masked rows

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("estimator", ["triplet-mean", "triplet-single"])
    def test_combined_sweep_matches_per_trial_loop(
        self, monkeypatch, tiny_engine, dep_engine, estimator, budget
    ):
        failed = 0
        for engine, n_u, grid, trials in ((tiny_engine, 4, (2, 6), 30), (dep_engine, 200, (30,), 12)):
            monkeypatch.setattr(experiments, "BLOCK_BYTES", BUDGETS[budget](engine.m))
            rows = combined_sweep(engine.model, n_u, grid, estimator, trials, 8, engine)
            assert rows == _per_trial_combined(engine, n_u, grid, estimator, trials, 8)
            failed += sum(r.failures for r in rows)
        assert failed > 0

    def test_block_size_follows_the_budget(self, monkeypatch, tiny_engine):
        sizes = []
        for budget in (1, 3 * (8 << 5), 1 << 40):
            monkeypatch.setattr(experiments, "BLOCK_BYTES", budget)
            sizes.append([len(counts) for _, counts in tiny_engine.blocks("x", 4, 7, 0)])
        assert sizes == [[1] * 7, [3, 3, 1], [7]]

    @pytest.mark.parametrize("estimator", experiments.ESTIMATOR_NAMES)
    def test_shorter_run_is_a_prefix(self, tiny_engine, dep_engine, estimator):
        for engine, n, trials in ((tiny_engine, 4, 20), (dep_engine, 300, 9)):
            short, short_ok = engine.estimates(estimator, n, trials, 5)
            long, long_ok = engine.estimates(estimator, n, 2 * trials, 5)
            # the first `trials` trials of the long run are the short run
            np.testing.assert_array_equal(long_ok[:trials], short_ok)
            np.testing.assert_array_equal(long[:trials][short_ok], short[short_ok])

    @pytest.mark.parametrize("call", [
        lambda e: e.excess_series("triplet-foo", 50, 3, 0),
        lambda e: expected_excess_error(e.model, "foo", 50, 3, 0, e),
        lambda e: combined_sweep(e.model, 50, (10,), "foo", 3, 0, e),
    ])
    def test_unknown_estimator_raises_before_any_draw(self, monkeypatch, tiny_engine, call):
        def no_draw(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(experiments, "trial_rng", no_draw)
        with pytest.raises(ContractError, match="unknown estimator"):
            call(tiny_engine)
