import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelmoments import (
    ContractError, EstimationError, NumericalError, SourceMatrix, calibrate, experiments,
)
from labelmoments.analysis import accuracy_excess
from labelmoments.estimators import (
    SampleMoments,
    estimate_triplet_from_moments,
    green_strawderman_alpha,
)
from labelmoments.experiments import (
    _first_at_or_below,
    ALPHA_STEP,
    DEFAULT_ACCURACIES,
    DVR_Z,
    CombinedSweepRow,
    ExperimentConfig,
    SyntheticModelSpec,
    TrialEngine,
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
from labelmoments.ising import sample_u_counts
from labelmoments.label_model import LabelModel

from conftest import (
    SYNTH_ACCURACIES,
    SYNTH_EDGES,
    binomial_pmf,
    exact_generalization_error,
    labeled_excess_by_full_sum,
    labeled_excess_by_monte_carlo,
    sign_rows,
    state_counts,
)


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
        with pytest.raises(ContractError, match="n_grid sizes must be at least 1, got 0"):
            ExperimentConfig(n_grid=(0, 100))
        with pytest.raises(ContractError, match="'estimators' must list at least one estimator"):
            ExperimentConfig(estimators=())
        with pytest.raises(ContractError, match="estimator listed twice in 'estimators'"):
            ExperimentConfig(estimators=("labeled", "triplet-mean", "labeled"))

    def test_round_trip_and_hash(self):
        cfg = ExperimentConfig(SyntheticModelSpec(d=3), trials=7, seed=5)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_edge_layout(self):
        assert edge_layout(3) == ((0, 1), (2, 3), (4, 5))
        with pytest.raises(ContractError):
            edge_layout(6, m=10)
        with pytest.raises(ContractError, match="non-negative"):
            edge_layout(-1, m=10)

    def test_trial_rng_refuses_a_negative_seed(self):
        # seed % 2**63 would draw the stream of seed 2**63 - 1
        with pytest.raises(ContractError, match="seed must be non-negative, got -1"):
            trial_rng(-1, "case:labeled", 40)

    def test_seeds_from_2_63_are_refused(self):
        # seed % 2**63 drew seed 0's stream for seed 2**63
        with pytest.raises(ContractError, match="seed must be below 2\\*\\*63"):
            trial_rng(2**63, "x", 5)
        with pytest.raises(ContractError, match="'seed' must be below 2\\*\\*63"):
            ExperimentConfig.from_dict({"seed": 2**63})
        # the largest seed keeps its stream: the one SeedSequence derives from it
        expected = np.random.default_rng(
            np.random.SeedSequence([2**63 - 1, experiments._stream("x"), 5])
        ).random(3)
        np.testing.assert_array_equal(trial_rng(2**63 - 1, "x", 5).random(3), expected)

    def test_grid_shape(self):
        grid = labeled_search_grid()
        assert grid[0] == 10 and grid[-1] == 5000
        assert 100 in grid and 102 in grid and 1010 in grid
        assert all(b > a for a, b in zip(grid, grid[1:]))


class TestExpectedExcess:
    def test_single_trial_matches_enumeration(self, synth_model_dep, dep_engine):
        # trials=1 reduces to one fit of the unlabeled cell scored by the exact enumerated loss
        res = expected_excess_error(dep_engine, "triplet-mean", 400, trials=1, seed=9)
        counts = sample_u_counts(synth_model_dep, 400, trial_rng(9, "excess:unlabeled/0", 400), 1)
        est = estimate_triplet_from_moments(SampleMoments.from_u_counts(counts[0], 10).pair, "mean")
        fitted = LabelModel.from_accuracies(
            est, 0.5, mode="empirical",
            config_dist=synth_model_dep.lambda_marginal(),
        )
        _, excess = exact_generalization_error(synth_model_dep, fitted)
        assert res.mean == pytest.approx(excess, abs=1e-12)
        assert res.trials == 1 and res.failures == 0

    def test_mean_triplet_plateaus_above_bias(self, dep_engine):
        res = expected_excess_error(dep_engine, "triplet-mean", 100_000, trials=100, seed=1)
        plateau = res.mean - dep_engine.diag.inference_bias
        assert plateau > 5 * res.stderr

    def test_determinism(self, dep_engine):
        a = expected_excess_error(dep_engine, "triplet-median", 500, 40, 3)
        b = expected_excess_error(dep_engine, "triplet-median", 500, 40, 3)
        assert a == b

    def test_rejects_bad_sizes(self, dep_engine):
        with pytest.raises(ContractError, match="at least 1"):
            expected_excess_error(dep_engine, "triplet-mean", 0)


class TestExactLabeled:
    @pytest.mark.parametrize("d, n, seed", [
        *(pytest.param("dep", n, 21, id=str(n)) for n in (10, 250, 1000)),
        pytest.param("indep", 100_000, 0, id="indep-100000"),
    ])
    def test_matches_monte_carlo_oracle(self, request, d, n, seed):
        engine = request.getfixturevalue(f"{d}_engine")
        mean, stderr = labeled_excess_by_monte_carlo(engine, n, trials=1000, seed=seed)
        assert abs(engine.labeled_excess(n) - mean) <= 4 * stderr

    def test_matches_parametric_rate(self, indep_engine):
        # d = 0: no inference bias, and labeled fits concentrate at m / (2 n)
        assert indep_engine.labeled_excess(100_000) == pytest.approx(10 / (2 * 100_000), rel=1e-3)

    @pytest.mark.parametrize("n", [1, 10, 1000, 5000])
    def test_binomial_pmf(self, dep_engine, n):
        # the full-sum reference's weights
        for a in dep_engine.diag.accuracies:
            p = (1 + a) / 2
            pmf = binomial_pmf(n, p)
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

    @pytest.mark.parametrize("n", [1, 7, 250, 4000])
    def test_equals_the_per_source_score_sum(self, synth_diag_dep, dep_engine, n):
        # the full-sum reference is bit for bit the pmf-weighted accuracy_excess
        # of each source's n+1 outcomes, and the windowed curve lies within 1e-13
        outcomes = (2.0 * np.arange(n + 1) - n) / n
        total = synth_diag_dep.inference_bias
        for a in synth_diag_dep.accuracies:
            kl = accuracy_excess([a], 0.0, outcomes[:, None])
            total += float((binomial_pmf(n, (1.0 + a) / 2.0) * kl).sum())
        assert labeled_excess_by_full_sum(synth_diag_dep, n) == total
        assert abs(dep_engine.labeled_excess(n) - total) <= 1e-13

    def test_within_1e13_of_the_full_sum_on_the_search_grid(self, balance_engine):
        grid = labeled_search_grid()
        curve = np.array([balance_engine.labeled_excess(n) for n in grid])
        full = np.array([labeled_excess_by_full_sum(balance_engine.diag, n) for n in grid])
        assert np.abs(curve - full).max() <= 1e-13


@pytest.fixture(scope="module", params=[
    pytest.param((edges, balance), id=f"{name}-{balance}")
    for name, edges in (("dep", SYNTH_EDGES), ("indep", []))
    for balance in (0.5, 0.3)
])
def balance_engine(request):
    edges, balance = request.param
    return TrialEngine(calibrate(SYNTH_ACCURACIES, edges, 0.1 if edges else 0.0, balance))


@st.composite
def _search_cases(draw):
    """An ascending grid, a non-increasing curve on it with ties, a threshold
    below, among (equal to one) or above its values, and a guess on, between
    or outside the grid's points."""
    grid = sorted(draw(st.sets(st.integers(1, 5000), min_size=1, max_size=80)))
    steps = draw(st.lists(st.integers(0, 3), min_size=len(grid), max_size=len(grid)))
    values = list(np.cumsum(steps[::-1])[::-1] / 4.0)
    threshold = draw(st.one_of(
        st.sampled_from(values),
        st.floats(-1.0, values[0] + 1.0),
        st.just(values[-1] - 0.5),
        st.just(values[0] + 0.5),
    ))
    guess = draw(st.one_of(
        st.sampled_from(grid),
        st.floats(0.0, 6000.0),
        st.floats(-1e9, float(grid[0])),
        st.floats(float(grid[-1]), 1e12),
    ))
    return grid, dict(zip(grid, values)), threshold, guess


class TestFirstAtOrBelow:
    @settings(max_examples=400, deadline=None)
    @given(_search_cases())
    def test_matches_linear_scan(self, case):
        grid, values, threshold, guess = case
        calls = []

        def curve(n):
            calls.append(n)
            return values[n]

        found = _first_at_or_below(grid, curve, threshold, guess)
        hits = [n for n in grid if values[n] <= threshold]
        assert found == (hits[0] if hits else None)
        # each point at most once; the answer certified by its evaluated neighbours
        assert len(calls) == len(set(calls))
        if found is None:
            assert grid[-1] in calls
        else:
            assert found in calls
            idx = grid.index(found)
            if idx > 0:
                assert grid[idx - 1] in calls and values[grid[idx - 1]] > threshold
        # the search starts at the grid point nearest the guess, the upper one on a tie
        start = min(range(len(grid)), key=lambda i: (abs(grid[i] - guess), -i))
        assert calls[0] == grid[start]
        # the gallop's worst case: two evaluations per doubling of the distance
        # from the start to the answer, so at most about twice bisection's
        answer = grid.index(found) if found is not None else len(grid)
        assert len(calls) <= 2 * math.ceil(math.log2(abs(answer - start) + 1)) + 2
        assert len(calls) <= 2 * math.ceil(math.log2(len(grid))) + 2

    def test_grid_ends_only_when_reached(self):
        grid = list(range(100))
        calls = []

        def curve(n):
            calls.append(n)
            return -n

        assert _first_at_or_below(grid, curve, -50, 49.6) == 50
        assert calls == [50, 49]
        calls.clear()
        assert _first_at_or_below(grid, curve, -1, 0.4) == 1
        assert calls == [0, 1]


@st.composite
def _dvr_cases(draw):
    """A subset of the labeled search grid, a grid point, how the target
    mean sits against the exact curve there, and how its standard error is
    chosen; the test turns them into numbers on the exact curve."""
    grid = sorted(draw(st.sets(st.sampled_from(labeled_search_grid()), min_size=1, max_size=60)))
    i = draw(st.integers(0, len(grid) - 1))
    kind = draw(st.sampled_from(["on", "down", "up", "between", "under-bias"]))
    frac = draw(st.floats(0.0, 1.0))
    spread = draw(st.sampled_from(["zero", "drawn", "to-point"]))
    j = draw(st.integers(0, len(grid) - 1))
    return grid, i, kind, frac, spread, j


class TestDataValueRatio:
    def test_search_matches_linear_scan(self, dep_engine):
        grid = list(range(100, 1001, 50))
        res = data_value_ratio(dep_engine, 800, "triplet-median", trials=60, seed=8, grid=grid)

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
        # every recorded comparison is the exact curve's
        assert res.trace
        assert all(
            passed == (dep_engine.labeled_excess(n) <= threshold)
            for n, threshold, passed in res.trace
        )

    def test_minimal_grid_point_with_failing_predecessor(self, dep_engine):
        res = data_value_ratio(dep_engine, 500, "triplet-mean", trials=150, seed=2)
        assert res.matched_n_labeled is not None
        assert not res.lower_bounded
        assert all(
            passed == (dep_engine.labeled_excess(n) <= threshold)
            for n, threshold, passed in res.trace
        )
        grid = labeled_search_grid()
        idx = grid.index(res.matched_n_labeled)
        assert (res.matched_n_labeled, res.target_excess, True) in res.trace
        if idx > 0:
            assert (grid[idx - 1], res.target_excess, False) in res.trace
        assert res.value_ratio == pytest.approx(500 / res.matched_n_labeled)

    @settings(max_examples=150, deadline=None)
    @given(_dvr_cases())
    def test_results_match_a_linear_scan_of_the_exact_curve(self, dep_engine, case):
        grid, i, kind, frac, spread, j = case
        exact = [dep_engine.labeled_excess(n) for n in grid]
        b_i = dep_engine.diag.inference_bias
        upper = exact[i - 1] if i > 0 else exact[0] + 0.01
        mean = {
            "on": exact[i],
            "down": np.nextafter(exact[i], -np.inf),
            "up": np.nextafter(exact[i], np.inf),
            "between": exact[i] + frac * (upper - exact[i]),
            "under-bias": b_i - frac * 0.01,
        }[kind]
        # a standard error of zero, a drawn one, or one whose interval ends
        # on an exact value
        stderr = {"zero": 0.0, "drawn": frac * 0.01, "to-point": abs(exact[j] - mean) / DVR_Z}[spread]
        target = experiments.ExcessResult("triplet-mean", 1000, float(mean), stderr, 10, 0)
        with mock.patch.object(experiments, "expected_excess_error", lambda *a: target):
            res = data_value_ratio(dep_engine, 1000, "triplet-mean", 10, 0, grid)

        def scan(threshold):
            return next((n for n, v in zip(grid, exact) if v <= threshold), None)

        assert res.matched_n_labeled == scan(mean)
        assert res.n_labeled_lo == scan(mean + DVR_Z * stderr)
        assert res.n_labeled_hi == scan(mean - DVR_Z * stderr)
        assert res.lower_bounded == (res.matched_n_labeled is None)
        assert all(
            passed == (dep_engine.labeled_excess(n) <= threshold)
            for n, threshold, passed in res.trace
        )

    def test_lower_bounded_flag(self, dep_engine):
        res = data_value_ratio(dep_engine, 100_000, "triplet-median", trials=40, seed=3, grid=[10, 12, 14])
        assert res.lower_bounded and res.matched_n_labeled is None

    def test_first_point_qualifies(self, dep_engine):
        res = data_value_ratio(dep_engine, 50, "triplet-mean", trials=40, seed=4, grid=[4000, 4010])
        assert res.matched_n_labeled == 4000


class TestCombinedSweep:
    def test_alpha_zero_column_is_labeled_only(self, dep_engine):
        rows = combined_sweep(dep_engine, 300, [80], trials=30, seed=6)
        row = rows[0]
        # reproduce the labeled-only column from the Monte-Carlo labeled cell's stream
        excesses = [
            dep_engine.excess(mom.acc) for mom in dep_engine.blocks("excess:labeled", 80, 30, 6)
        ]
        assert row.excess_labeled == pytest.approx(np.concatenate(excesses).mean(), abs=1e-12)

    def test_endpoints_are_the_curve_cells(self, dep_engine):
        # alpha 1 scores the unlabeled curve cell, once for the whole grid;
        # alpha 0 scores the Monte-Carlo labeled cell at each labeled size
        rows = combined_sweep(dep_engine, 300, [40, 80], "triplet-single", trials=25, seed=2)
        unlabeled = expected_excess_error(dep_engine, "triplet-single", 300, 25, 2)
        for row in rows:
            assert row.excess_unlabeled == pytest.approx(unlabeled.mean, rel=1e-12)
            assert (row.trials, row.failures) == (unlabeled.trials, unlabeled.failures) == (25, 0)
            labeled, _ = labeled_excess_by_monte_carlo(dep_engine, row.n_labeled, 25, 2)
            assert row.excess_labeled == pytest.approx(labeled, rel=1e-12)

    def test_combined_never_worse_than_best_endpoint(self, dep_engine):
        rows = combined_sweep(dep_engine, 1000, [100, 400], trials=120, seed=7)
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

    @pytest.mark.parametrize("estimators, message", [
        ([], "unlabeled estimators must list at least one estimator"),
        (["labeled"], "'labeled' is not one"),
        (["triplet-mean", "labeled"], "'labeled' is not one"),
        (["triplet-mean", "triplet-median", "triplet-mean"], "listed twice"),
        (["triplet-foo"], "unknown estimator"),
    ])
    def test_dvr_runner_rejects_lists_it_cannot_run(
        self, monkeypatch, tmp_path, estimators, message
    ):
        def no_draw(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(experiments, "trial_rng", no_draw)
        cfg = ExperimentConfig(SyntheticModelSpec(d=1, accuracies=DEFAULT_ACCURACIES[:6]))
        with pytest.raises(ContractError, match=message):
            run_dvr(cfg, tmp_path, estimators)
        assert not (tmp_path / "dvr.csv").exists()

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


class TestSharedUnlabeledCell:
    TRIPLETS = ("triplet-mean", "triplet-median", "triplet-single")

    @staticmethod
    def _spy_fits(monkeypatch):
        """estimator -> the pair-moment chunks its fits read."""
        seen = {}
        original = TrialEngine.fit

        def fit(engine, estimator, pair, rng):
            seen.setdefault(estimator, []).append(pair)
            return original(engine, estimator, pair, rng)

        monkeypatch.setattr(TrialEngine, "fit", fit)
        return seen

    def test_triplet_estimators_fit_the_same_moments(self, monkeypatch, synth_model_dep):
        seen = self._spy_fits(monkeypatch)
        engine = TrialEngine(synth_model_dep)
        for estimator in self.TRIPLETS:
            engine.estimates(estimator, 300, 20, 4)
        first = seen["triplet-mean"]
        assert len(first) == 2  # 18 + 2 trials under the default budget
        for estimator in self.TRIPLETS[1:]:
            for a, b in zip(seen[estimator], first, strict=True):
                # the same trials of one memoised array
                assert a.base is b.base is not None
                assert a.ctypes.data == b.ctypes.data and a.shape == b.shape

    def test_run_curves_draws_each_n_once(self, monkeypatch, tmp_path):
        drawn = []
        for name in ("sample_rows", "sample_u_counts"):
            def spy(model, n, rng, size, _draw=getattr(experiments, name), _name=name):
                drawn.append((_name, n))
                return _draw(model, n, rng, size)

            monkeypatch.setattr(experiments, name, spy)
        monkeypatch.setattr(experiments, "BLOCK_BYTES", 1 << 40)  # one block per cell
        cfg = ExperimentConfig(
            estimators=("labeled",) + self.TRIPLETS, n_grid=(186, 187), trials=12, seed=5
        )
        run_curves(cfg, tmp_path)
        # m=10: rows while n * 11 < 2^11, so 186 rows and 187 u-counts
        assert sorted(drawn) == [("sample_rows", 186), ("sample_u_counts", 187)]

    def test_combined_labeled_draws_are_not_the_unlabeled_samples(self, synth_model_dep):
        engine = TrialEngine(synth_model_dep)
        (row,) = combined_sweep(engine, 300, [300], trials=20, seed=4)
        labeled = np.concatenate([mom.acc for mom in engine.blocks("excess:labeled", 300, 20, 4)])
        unlabeled = np.concatenate(
            [mom.acc for mom in engine.blocks("excess:unlabeled", 300, 20, 4)]
        )
        assert row.excess_labeled == pytest.approx(engine.excess(labeled).mean(), abs=1e-12)
        assert not np.any(np.all(labeled == unlabeled, axis=1))

    def test_memoised_moments_are_read_only(self, monkeypatch, synth_model_dep):
        seen = self._spy_fits(monkeypatch)
        TrialEngine(synth_model_dep).estimates("triplet-mean", 300, 5, 0)
        (pair,) = seen["triplet-mean"]
        # the unlabeled fits see pair moments only: no label, no sign means
        assert type(pair) is np.ndarray and pair.shape == (5, 10, 10)
        with pytest.raises(ValueError, match="read-only"):
            pair[0] = 0.0

    def test_estimator_order_leaves_rows_unchanged(self, tmp_path):
        estimators = ("labeled",) + self.TRIPLETS
        rows = []
        for order in (estimators, estimators[::-1]):
            cfg = ExperimentConfig(
                SyntheticModelSpec(d=1, accuracies=DEFAULT_ACCURACIES[:6]),
                estimators=order, n_grid=(30, 200), trials=15, seed=9,
            )
            out = tmp_path / "-".join(order)
            run_curves(cfg, out)
            run_dvr(cfg, out)
            rows.append({
                name: sorted((out / name).read_text().splitlines())
                for name in ("curves.csv", "dvr.csv")
            })
        assert rows[0] == rows[1]


# ---------------------------------------------------------------------------
# Oracle for the batched trial engine: a per-trial loop over the cell's
# streams, written on the public per-fit API (one draw per stream, one moment
# set, one fit per trial).
# ---------------------------------------------------------------------------


def _fit_one(estimator, moments, rng):
    aggregation = estimator.split("-", 1)[1]
    return estimate_triplet_from_moments(moments.pair, aggregation, seed=rng).values


def _sigmoid2(t):
    return math.exp(t) / (math.exp(t) + math.exp(-t))


def _row_counts(model, n, rng):
    """One sample drawn as the engine draws rows: uniforms (n, m+1) against
    thresholds on u = s * y, worked out here from theta; the state counts of
    the rows."""
    m = model.m
    uniform = rng.random((n, m + 1))
    y = np.where(uniform[:, m] < _sigmoid2(model.theta_y), 1, -1)
    u = np.where(uniform[:, :m] < [_sigmoid2(t) for t in model.theta], 1, -1)
    for i, j, t in model.edges:
        w = {
            (a, b): math.exp(model.theta[i] * a + model.theta[j] * b + t * a * b)
            for a in (1, -1) for b in (1, -1)
        }
        u[:, i] = np.where(uniform[:, i] < (w[1, 1] + w[1, -1]) / sum(w.values()), 1, -1)
        given = {a: w[a, 1] / (w[a, 1] + w[a, -1]) for a in (1, -1)}
        u[:, j] = np.where(uniform[:, j] < np.where(u[:, i] > 0, given[1], given[-1]), 1, -1)
    return state_counts(SourceMatrix(u * y[:, None], y))


def _alias_counts(model, n, rng):
    """One sample of u = s * y drawn as the engine draws it, one uniform at a
    time: the uniform times 2^m is a bin and a fraction, and the bin is kept
    while the fraction lies below its alias probability; the joint-state
    counts of the sample with every label +1, so s = u."""
    m = model.m
    prob, alias = model.u_alias
    counts = np.zeros(2 << m)
    for x in rng.random(n) * (1 << m):
        k = int(x)
        counts[(1 << m) + (k if x - k < prob[k] else int(alias[k]))] += 1
    return counts


def _as_rows(engine, n):
    """The engine's rule: rows when the sample has fewer entries than the
    joint states, n(m+1) < 2^(m+1), else u alone."""
    return n * (engine.m + 1) < 1 << (engine.m + 1)


def _draw_moments(engine, n, rng):
    """One trial's moments, drawn by the engine's rule."""
    draw = _row_counts if _as_rows(engine, n) else _alias_counts
    return SampleMoments.from_state_counts(draw(engine.model, n, rng), engine.m)


def _cell_streams(estimator, n, seed):
    """Protocols v4 to v6: every triplet estimator draws from the shared
    unlabeled stream, and each has its own fit stream."""
    return trial_rng(seed, "excess:unlabeled/0", n), trial_rng(seed, f"excess:{estimator}/fit", n)


def _per_trial_series(engine, estimator, n, trials, seed):
    draw, fit_rng = _cell_streams(estimator, n, seed)
    out, failures = [], 0
    for _ in range(trials):
        moments = _draw_moments(engine, n, draw)
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
    draw_u, fit_rng = _cell_streams(estimator, n_u, seed)
    fits_u = []
    for _ in range(trials):
        mom_u = _draw_moments(engine, n_u, draw_u)
        try:
            fits_u.append(_fit_one(estimator, mom_u, fit_rng))
        except EstimationError:
            fits_u.append(None)
    failures = sum(a_u is None for a_u in fits_u)
    rows = []
    for n_l in n_labeled_grid:
        per_alpha, gs_alpha, gs_excess, fallbacks = [], [], [], 0
        draw_l = trial_rng(seed, "excess:labeled/0", n_l)
        for a_u in fits_u:
            mom_l = _draw_moments(engine, n_l, draw_l)
            if a_u is None:
                continue
            a_l = mom_l.acc
            per_alpha.append(engine.excess(alphas[:, None] * a_u + (1 - alphas)[:, None] * a_l))
            try:
                alpha = green_strawderman_alpha(a_l - a_u, mom_l.shrinkage_covariance(), m - 2.0)
            except (NumericalError, ContractError):
                alpha, fallbacks = 1.0, fallbacks + 1
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
            k, failures, fallbacks,
        ))
    return rows


@pytest.fixture(scope="module")
def tiny_engine():
    """Four sources: at n=4 a source's three witness denominators can all
    vanish, so some trials fail and failures land inside and at the edges
    of blocks."""
    return TrialEngine(SyntheticModelSpec((0.6, 0.55, 0.7, 0.65), d=1).build())


@pytest.fixture(scope="module")
def wide_engine():
    """Fourteen sources with five dependent pairs: rows up to n = 2,184, and
    blocks and fit chunks of several trials under the default budget."""
    spec = SyntheticModelSpec(DEFAULT_ACCURACIES + (0.62, 0.71, 0.58, 0.66), d=5)
    return TrialEngine(spec.build())


# Block budgets: one trial per block, seven count rows (uneven blocks), the
# module default, and the whole cell in one block.
BUDGETS = {
    "one-trial": lambda m: 1,
    "seven-rows": lambda m: 7 * (8 << (m + 1)),
    "default": lambda m: experiments.BLOCK_BYTES,
    "whole-cell": lambda m: 1 << 40,
}


TRIPLETS = TestSharedUnlabeledCell.TRIPLETS
# the cells of the per-trial oracles: tiny at n=4, dep at n=100 and wide at
# n=250 and n=1000 draw rows, tiny at n=8 and dep at n=300 u-counts
ORACLE_CELLS = (("tiny", 4, 40), ("tiny", 8, 100), ("dep", 100, 20), ("dep", 300, 20),
                ("wide", 250, 15), ("wide", 1000, 15))


class TestBatchedEngineOracle:
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("estimator", TRIPLETS)
    def test_excess_series_matches_per_trial_loop(
        self, request, monkeypatch, estimator, budget
    ):
        failed = {True: 0, False: 0}
        for name, n, trials in ORACLE_CELLS:
            engine = request.getfixturevalue(f"{name}_engine")
            monkeypatch.setattr(experiments, "BLOCK_BYTES", BUDGETS[budget](engine.m))
            engine = TrialEngine(engine.model, engine.diag)  # nothing memoised under another budget
            series, failures = engine.excess_series(estimator, n, trials, 21)
            ref_series, ref_failures = _per_trial_series(engine, estimator, n, trials, 21)
            np.testing.assert_array_equal(series, ref_series)
            assert failures == ref_failures
            failed[_as_rows(engine, n)] += failures
        assert min(failed.values()) > 0  # the tiny model masks rows on both paths

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_labeled_blocks_match_per_trial_loop(self, request, monkeypatch, budget):
        # the Monte-Carlo labeled cell, which the combined sweep reads: its
        # labeled accuracies, trial by trial, on both draw paths
        for name, n, trials in ORACLE_CELLS:
            engine = request.getfixturevalue(f"{name}_engine")
            monkeypatch.setattr(experiments, "BLOCK_BYTES", BUDGETS[budget](engine.m))
            acc = np.concatenate([mom.acc for mom in engine.blocks("excess:labeled", n, trials, 21)])
            draw = trial_rng(21, "excess:labeled/0", n)
            ref = [_draw_moments(engine, n, draw).acc for _ in range(trials)]
            np.testing.assert_array_equal(acc, ref)

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("estimator", ["triplet-mean", "triplet-single"])
    def test_combined_sweep_matches_per_trial_loop(
        self, monkeypatch, tiny_engine, dep_engine, estimator, budget
    ):
        # unlabeled sizes 4 at m=4 and 30 at m=10 draw rows, 8 at m=4 and 200
        # at m=10 u-counts; labeled sizes 2 and 6 at m=4 and 30 at m=10 draw
        # rows, 8 at m=4 and 300 at m=10 u-counts.  At n_L=2 the labeled
        # covariance is often zero, and the shrinkage rule falls back.
        failed = {True: 0, False: 0}
        fallbacks = 0
        cells = (
            (tiny_engine, 4, (2, 8), 30), (tiny_engine, 8, (6,), 40),
            (dep_engine, 30, (300,), 12), (dep_engine, 200, (30, 300), 12),
        )
        for engine, n_u, grid, trials in cells:
            monkeypatch.setattr(experiments, "BLOCK_BYTES", BUDGETS[budget](engine.m))
            engine = TrialEngine(engine.model, engine.diag)
            rows = combined_sweep(engine, n_u, grid, estimator, trials, 8)
            assert rows == _per_trial_combined(engine, n_u, grid, estimator, trials, 8)
            failed[_as_rows(engine, n_u)] += rows[0].failures
            fallbacks += sum(r.gs_fallbacks for r in rows)
        assert min(failed.values()) > 0 and fallbacks > 0

    @pytest.mark.parametrize("budget", [1, 3 * 320, 3 * 256, 1 << 40])
    def test_blocks_follow_the_budget(self, monkeypatch, tiny_engine, budget):
        # m=4: a row block of n=4 is charged 16*4*5 = 320 bytes per trial and
        # a u-count block of n=8 8 << 5 = 256
        monkeypatch.setattr(experiments, "BLOCK_BYTES", budget)
        for n, charge in ((4, 320), (8, 256)):
            sizes = [len(mom.acc) for mom in tiny_engine.blocks("x", n, 7, 0)]
            self._assert_chunks(sizes, 7, charge, budget)

    @pytest.mark.parametrize("budget", [1, 3 * 20 * 14 * 78, 1 << 40, "default"])
    def test_fit_chunks_follow_the_budget(self, monkeypatch, wide_engine, budget):
        # m=14: a fit is charged 20 bytes per value of its 14 * C(13, 2) census
        budget = experiments.BLOCK_BYTES if budget == "default" else budget
        monkeypatch.setattr(experiments, "BLOCK_BYTES", budget)
        seen = TestSharedUnlabeledCell._spy_fits(monkeypatch)
        TrialEngine(wide_engine.model, wide_engine.diag).estimates("triplet-mean", 250, 15, 3)
        sizes = [len(pair) for pair in seen["triplet-mean"]]
        self._assert_chunks(sizes, 15, 20 * 14 * 78, budget)

    @pytest.mark.parametrize("budget", [1, 3 * 40400, 1 << 40, "default"])
    def test_blend_chunks_follow_the_budget(self, monkeypatch, dep_engine, budget):
        # m=10: a blend chunk is charged five float64 arrays of 101 * 10 values
        budget = experiments.BLOCK_BYTES if budget == "default" else budget
        monkeypatch.setattr(experiments, "BLOCK_BYTES", budget)
        sizes, original = [], TrialEngine.excess

        def excess(engine, estimates):
            if estimates.ndim == 3:
                sizes.append(len(estimates))
            return original(engine, estimates)

        monkeypatch.setattr(TrialEngine, "excess", excess)
        engine = TrialEngine(dep_engine.model, dep_engine.diag)
        (row,) = combined_sweep(engine, 300, [50], trials=10, seed=2)
        self._assert_chunks(sizes, row.trials, 5 * 8 * 101 * 10, budget)

    def test_default_block_sizes(self):
        # the sizes the BLOCK_BYTES comment states, for cells of 100 trials
        per_block = experiments._trials_per_block
        assert [per_block(8 << 11, 100), per_block(20 * 10 * 36, 100), per_block(40400, 100)] == [8, 18, 3]
        assert [per_block(16 * 250 * 15, 100), per_block(16 * 1000 * 15, 100)] == [2, 1]
        assert per_block(20 * 14 * 78, 100) == 6

    @pytest.mark.parametrize("cell", ["labeled", "triplet-mean"])
    @pytest.mark.parametrize("n, trials", [(0, 5), (100, 0), (100, -1)])
    def test_empty_cell_is_refused(self, dep_engine, cell, n, trials):
        # no block of zero trials: range() would refuse a step of 0 with a bare ValueError
        engine = TrialEngine(dep_engine.model, dep_engine.diag)
        draw = {
            "labeled": lambda: next(engine.blocks("excess:labeled", n, trials, 0)),
            "triplet-mean": lambda: engine.estimates("triplet-mean", n, trials, 0),
        }[cell]
        for _ in range(2):  # nothing is memoised by the refused call
            with pytest.raises(ContractError, match="at least 1"):
                draw()

    @staticmethod
    def _assert_chunks(sizes, trials, charge, budget):
        """Blocks in trial order, each of at least one trial and within the
        budget, all but the last as large as the budget allows."""
        step = min(trials, max(1, budget // charge))
        assert sizes == [step] * (trials // step) + [trials % step] * (trials % step > 0)
        assert all(size == 1 or size * charge <= budget for size in sizes)

    def test_neither_paths_moments_carry_sign_means(self, tiny_engine):
        # E[s_i] needs Y; neither a u-row nor a u-count sample may pass E[u_i] off as it
        (rows,) = tiny_engine.blocks("x", 4, 3, 0)
        (counts,) = tiny_engine.blocks("x", 8, 3, 0)
        for moments in (rows, counts):
            assert moments.means is None and moments.acc.shape == (3, 4)
            with pytest.raises(TypeError):
                moments.means[0]

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_row_moments_equal_those_of_the_source_signs(self, request, monkeypatch, budget):
        # the row path reads u; the same uniforms turned into source signs
        # s = u * y and read with their labels (``sign_rows``, the sampler
        # before it returned u) give the same accuracies and pair moments,
        # bit for bit
        for name, n, trials in ORACLE_CELLS:
            engine = request.getfixturevalue(f"{name}_engine")
            if not _as_rows(engine, n):
                continue
            monkeypatch.setattr(experiments, "BLOCK_BYTES", BUDGETS[budget](engine.m))
            blocks = list(engine.blocks("excess:labeled", n, trials, 21))
            draw, start = trial_rng(21, "excess:labeled/0", n), 0
            for mom in blocks:
                rows = sign_rows(engine.model, n, draw, len(mom.acc))
                ref = SampleMoments.from_rows(rows[..., : engine.m], rows[..., engine.m])
                np.testing.assert_array_equal(mom.acc, ref.acc)
                np.testing.assert_array_equal(mom.pair, ref.pair)
                start += len(mom.acc)
            assert start == trials

    @pytest.mark.parametrize("estimator", experiments.ESTIMATOR_NAMES)
    def test_shorter_run_is_a_prefix(self, tiny_engine, dep_engine, estimator):
        def fits(engine, n, trials):
            if estimator != "labeled":
                return engine.estimates(estimator, n, trials, 5)
            # the Monte-Carlo labeled cell: each trial's labeled accuracies are its fit
            acc = [mom.acc for mom in engine.blocks("excess:labeled", n, trials, 5)]
            return np.concatenate(acc), np.ones(trials, dtype=bool)

        for engine, n, trials in ((tiny_engine, 4, 20), (dep_engine, 300, 9)):
            short, short_ok = fits(engine, n, trials)
            long, long_ok = fits(engine, n, 2 * trials)
            # the first `trials` trials of the long run are the short run
            np.testing.assert_array_equal(long_ok[:trials], short_ok)
            np.testing.assert_array_equal(long[:trials][short_ok], short[short_ok])

    @pytest.mark.parametrize("call, message", [
        (lambda e: e.excess_series("triplet-foo", 50, 3, 0), "unknown estimator"),
        (lambda e: expected_excess_error(e, "foo", 50, 3, 0), "unknown estimator"),
        (lambda e: combined_sweep(e, 50, (10,), "foo", 3, 0), "unknown estimator"),
        # the engine fits triplet estimators only; the labeled curve is exact
        (lambda e: expected_excess_error(e, "labeled", 50, 3, 0), "'labeled' is not one"),
        (lambda e: data_value_ratio(e, 50, "labeled", 3, 0), "'labeled' is not one"),
        (lambda e: e.estimates("labeled", 50, 3, 0), "'labeled' is not one"),
        # both sides would read the labeled cell and, at equal sizes, pair a sample with itself
        (lambda e: combined_sweep(e, 50, (50,), "labeled", 3, 0), "'labeled' is not one"),
        (lambda e: combined_sweep(e, 50, (), "triplet-mean", 3, 0), "'n_labeled_grid' must list"),
        (lambda e: combined_sweep(e, 50, (40, 40), "triplet-mean", 3, 0), "strictly increasing"),
        (lambda e: combined_sweep(e, 50, (0, 40), "triplet-mean", 3, 0), "at least 1, got 0"),
    ])
    def test_bad_estimator_raises_before_any_draw(self, monkeypatch, tiny_engine, call, message):
        def no_draw(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(experiments, "trial_rng", no_draw)
        with pytest.raises(ContractError, match=message):
            call(tiny_engine)
