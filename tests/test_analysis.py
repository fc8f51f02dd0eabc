import dataclasses
import math

import numpy as np
import pytest

from labelmoments import (
    ContractError,
    EstimationError,
    IdentityUndefinedError,
    IsingModel,
    NumericalError,
    SourceMatrix,
    calibrate,
    diagnostics,
    sample,
)
from labelmoments.analysis import (
    accuracy_excess,
    accuracy_kl,
    bound_constants,
    bound_inputs,
    bound_labeled,
    bound_lower_unlabeled,
    bound_report,
    bound_unlabeled,
    decompose,
    expected_loss_by_enumeration,
    median_correction_constant,
    median_mse,
)
from labelmoments.estimators import AccuracyEstimate, SampleMoments, estimate_triplet_from_moments
from labelmoments.label_model import (
    LabelModel,
    cross_entropy,
    empirical_config_dist,
)

from conftest import (
    brute_joint, brute_moment, exact_generalization_error, matrix_from_state_counts, state_counts,
)


class TestDecomposition:
    def test_self_consistent_fit(self, synth_model_indep, synth_diag_indep):
        model, diag = synth_model_indep, synth_diag_indep
        fitted = LabelModel.from_accuracies(
            diag.accuracies, diag.class_balance,
            mode="empirical", config_dist=model.lambda_marginal(),
        )
        rep = decompose(model, fitted)
        assert rep.sampling_noise == pytest.approx(0.0, abs=1e-12)
        assert rep.inference_bias == pytest.approx(0.0, abs=1e-12)
        assert rep.estimation_error == pytest.approx(0.0, abs=1e-10)
        assert rep.total == pytest.approx(rep.irreducible, abs=1e-10)
        assert rep.residual <= 1e-12

    def test_true_accuracies_finite_sample_dist(self, synth_model_indep, synth_diag_indep):
        model, diag = synth_model_indep, synth_diag_indep
        data = sample(model, 600, 9)
        dist = empirical_config_dist(data, laplace=1.0)
        fitted = LabelModel.from_accuracies(
            diag.accuracies, 0.5, mode="empirical", config_dist=dist
        )
        rep = decompose(model, fitted)
        # estimation and bias terms vanish; total is irreducible minus noise
        assert rep.inference_bias == pytest.approx(0.0, abs=1e-12)
        assert rep.estimation_error == pytest.approx(0.0, abs=1e-10)
        assert rep.sampling_noise > 0
        assert rep.total == pytest.approx(rep.irreducible - rep.sampling_noise, abs=1e-9)
        assert rep.residual <= 1e-9

    def test_identity_on_dependent_model(self, synth_model_dep):
        data = sample(synth_model_dep, 1500, 12)
        est = estimate_triplet_from_moments(SampleMoments.from_source_matrix(data).pair, "mean")
        dist = empirical_config_dist(data, laplace=0.5)
        fitted = LabelModel.from_accuracies(
            est, 0.5, mode="empirical", config_dist=dist
        )
        rep = decompose(synth_model_dep, fitted)
        assert rep.residual <= 1e-9
        assert rep.inference_bias > 0

    def test_estimation_term_matches_brute_force_kl(self):
        # class balance 0.3, two edges and fitted conditionals that are not the
        # truth: the closed-form estimation term against per-source KLs of the
        # conditionals enumerated from the brute-force joint
        theta, edges = [0.6, 0.9, 0.4, 0.7, 0.5], [(0, 1, 0.3), (2, 4, 0.5)]
        theta_y = math.atanh(2 * 0.3 - 1)
        model = IsingModel.from_parameters(theta, edges, theta_y)
        rng = np.random.default_rng(5)
        fitted = LabelModel(
            rng.uniform(0.55, 0.9, 5), rng.uniform(0.1, 0.45, 5), 0.4,
            mode="empirical", config_dist=model.lambda_marginal(),
        )
        table, _ = brute_joint(theta, edges, theta_y)

        def kl(p, q):
            return p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))

        p_pos = brute_moment(table, lambda y, s: float(y == 1))
        oracle = kl(p_pos, 0.4)
        for i in range(5):
            for y, p_y, cond in ((1, p_pos, fitted.cond_pos), (-1, 1 - p_pos, fitted.cond_neg)):
                p_on = brute_moment(table, lambda yy, s, y=y, i=i: float(yy == y and s[i] == 1))
                oracle += p_y * kl(p_on / p_y, float(cond[i]))
        rep = decompose(model, fitted)
        assert rep.estimation_error == pytest.approx(oracle, abs=1e-13)
        assert rep.residual <= 1e-13

    def test_zero_mass_pattern_rejected(self, synth_model_dep):
        data = sample(synth_model_dep, 50, 1)
        dist = empirical_config_dist(data)  # unsmoothed: zeros
        fitted = LabelModel.from_accuracies(
            [0.5] * 10, 0.5, mode="empirical", config_dist=dist
        )
        with pytest.raises(IdentityUndefinedError):
            decompose(synth_model_dep, fitted)

    def test_normalized_mode_rejected(self, synth_model_dep):
        fitted = LabelModel.from_accuracies([0.5] * 10, 0.5)
        with pytest.raises(ContractError):
            decompose(synth_model_dep, fitted)

    def test_matches_cross_entropy_on_enumerated_rows(self, synth_model_dep):
        # the enumerated expected loss is exactly the row-loss formula
        # weighted by the true joint (no floor active)
        model = calibrate([0.7, 0.62, 0.66], [(0, 1)], 0.05)
        data = sample(model, 400, 3)
        dist = empirical_config_dist(data, laplace=1.0)
        est = AccuracyEstimate(SampleMoments.from_source_matrix(data).acc, "labeled")
        fitted = LabelModel.from_accuracies(est, 0.5, mode="empirical", config_dist=dist)
        # build a dataset whose empirical distribution is the true joint,
        # scaled to integer counts
        counts = np.round(model.joint * 2_000_000).astype(np.int64)
        big = matrix_from_state_counts(counts, model.m)
        weighted_loss = cross_entropy(fitted, big.state_index(), floor=0.0)
        enumerated = expected_loss_by_enumeration(model, fitted)
        # small gap from rounding the joint to counts
        assert weighted_loss == pytest.approx(enumerated, abs=1e-4)


class TestExactGeneralizationError:
    def test_perfect_fit_no_dependencies(self, synth_model_indep, synth_diag_indep):
        fitted = LabelModel.from_accuracies(
            synth_diag_indep.accuracies, 0.5,
            mode="empirical", config_dist=synth_model_indep.lambda_marginal(),
        )
        _, excess = exact_generalization_error(synth_model_indep, fitted)
        assert excess == pytest.approx(0.0, abs=1e-10)

    def test_true_fit_under_dependence_leaves_inference_bias(
        self, synth_model_dep, synth_diag_dep
    ):
        fitted = LabelModel.from_accuracies(
            synth_diag_dep.accuracies, 0.5,
            mode="empirical", config_dist=synth_model_dep.lambda_marginal(),
        )
        _, excess = exact_generalization_error(synth_model_dep, fitted)
        assert excess == pytest.approx(synth_diag_dep.inference_bias, abs=1e-12)

    def test_median_fit_large_sample(self, synth_model_dep, synth_diag_dep):
        moments = SampleMoments.from_source_matrix(sample(synth_model_dep, 100_000, 71))
        est = estimate_triplet_from_moments(moments.pair, "median")
        fitted = LabelModel.from_accuracies(
            est, 0.5, mode="empirical",
            config_dist=synth_model_dep.lambda_marginal(),
        )
        _, excess = exact_generalization_error(synth_model_dep, fitted)
        assert abs(excess - synth_diag_dep.inference_bias) <= 0.01

    def test_fast_path_equals_enumeration(self, synth_model_dep, synth_diag_dep):
        rng = np.random.default_rng(8)
        for _ in range(10):
            est = np.clip(
                synth_diag_dep.accuracies + rng.normal(0, 0.08, 10), -0.999, 0.999
            )
            fitted = LabelModel.from_accuracies(
                est, 0.5, mode="empirical",
                config_dist=synth_model_dep.lambda_marginal(),
            )
            _, excess = exact_generalization_error(synth_model_dep, fitted)
            fast = accuracy_excess(
                synth_diag_dep.accuracies, synth_diag_dep.inference_bias, est
            )
            assert fast == pytest.approx(excess, abs=1e-12)

    def test_kl_broadcasts(self):
        # a scalar pair, and true accuracies of more axes than the estimates
        assert float(accuracy_kl(0.7, 0.6)) == pytest.approx(
            0.85 * math.log(0.85 / 0.8) + 0.15 * math.log(0.15 / 0.2), abs=1e-15
        )
        a, est = np.array([[0.7, -0.2], [0.1, 0.5], [0.9, 0.0]]), np.array([0.6, -0.3])
        np.testing.assert_array_equal(accuracy_kl(a, est), np.stack([accuracy_kl(row, est) for row in a]))

    def test_batched_fast_path(self, synth_diag_dep):
        batch = np.tile(synth_diag_dep.accuracies, (4, 1))
        out = accuracy_excess(
            synth_diag_dep.accuracies, synth_diag_dep.inference_bias, batch
        )
        assert out.shape == (4,)
        np.testing.assert_allclose(out, synth_diag_dep.inference_bias, atol=1e-14)


class TestInferenceBiasValue:
    def test_equals_sum_of_pairwise_conditional_mi(self, synth_diag_dep):
        # brute-force conditional mutual information per edge
        theta = [0.6, 0.8, 0.5, 0.7]
        edges = [(0, 1, 0.3), (2, 3, 0.2)]
        model = IsingModel.from_parameters(theta, edges, theta_y=0.1)
        diag = diagnostics(model)
        table, _ = brute_joint(theta, edges, 0.1)
        total = 0.0
        for i, j, _t in edges:
            for y in (-1, 1):
                py = brute_moment(table, lambda yy, s, y=y: 1.0 if yy == y else 0.0)
                for si in (-1, 1):
                    for sj in (-1, 1):
                        pij = brute_moment(
                            table,
                            lambda yy, s, y=y, si=si, sj=sj, i=i, j=j: 1.0
                            if (yy == y and s[i] == si and s[j] == sj)
                            else 0.0,
                        ) / py
                        pi = brute_moment(
                            table,
                            lambda yy, s, y=y, si=si, i=i: 1.0
                            if (yy == y and s[i] == si)
                            else 0.0,
                        ) / py
                        pj = brute_moment(
                            table,
                            lambda yy, s, y=y, sj=sj, j=j: 1.0
                            if (yy == y and s[j] == sj)
                            else 0.0,
                        ) / py
                        total += py * pij * np.log(pij / (pi * pj))
        assert diag.inference_bias == pytest.approx(total, abs=1e-12)

    def test_zero_iff_no_edges(self, synth_diag_indep, synth_diag_dep):
        assert synth_diag_indep.inference_bias == pytest.approx(0.0, abs=1e-14)
        assert synth_diag_dep.inference_bias > 0.01


class TestBounds:
    def test_labeled_formula(self, synth_diag_indep):
        diag = synth_diag_indep
        assert bound_labeled(diag, 100) == pytest.approx(10 / 200 + 0.0, abs=1e-12)
        assert bound_labeled(diag, 10**9) == pytest.approx(
            diag.inference_bias, abs=1e-7
        )
        with pytest.raises(ContractError):
            bound_labeled(diag, 0)

    def test_unlabeled_collapses_when_well_specified(self, synth_diag_indep):
        out = bound_unlabeled(synth_diag_indep, 1000)
        assert out["B_est"] == pytest.approx(0.0, abs=1e-14)
        assert out["bound"] == pytest.approx(
            out["c4"] * 10 / 1000, abs=1e-12
        )

    def test_unlabeled_nonincreasing_in_n(self, synth_diag_dep):
        values = [bound_unlabeled(synth_diag_dep, n)["bound"] for n in (10, 100, 1000, 10**6)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_constants_positive(self, synth_diag_dep):
        consts = bound_constants(synth_diag_dep)
        assert all(v > 0 for v in consts.values())

    def test_degenerate_triplet_mean_rejected(self, synth_diag_dep):
        # rank-one pair moments of a source with accuracy 1: each of its
        # triplet values is M_0j M_0k / M_jk = 1 exactly
        acc = synth_diag_dep.accuracies.copy()
        acc[0] = 1.0
        pair = np.outer(acc, acc)
        np.fill_diagonal(pair, 1.0)
        broken = dataclasses.replace(synth_diag_dep, pair_moments=pair)
        assert bound_inputs(broken)["a_bar_max"] == 1.0
        with pytest.raises(NumericalError, match="the mean triplet value reaches 1"):
            bound_unlabeled(broken, 1000)

    def test_mean_triplet_floors_tiny_denominators(self):
        # Source 4 is nearly uninformative, so every pair moment with it lies
        # in (0, 1e-6): those witness pairs are degenerate for the bound
        # constant a_bar exactly as for the triplet estimator.
        model = IsingModel.from_parameters([0.5, 0.5, 1.4, 0.6, 1e-6], [(0, 1, 0.6)])
        d = diagnostics(model)
        inputs = bound_inputs(d)
        pair = d.pair_moments
        assert 0.0 < inputs["b_min"] < 1e-6
        floored, every = [], []
        for i in range(5):
            vals, kept = [], []
            others = [o for o in range(5) if o != i]
            for a, j in enumerate(others):
                for k in others[a + 1:]:
                    v = min(1.0, math.sqrt(abs(pair[i, j] * pair[i, k] / pair[j, k])))
                    vals.append(v)
                    if abs(pair[j, k]) >= 1e-6:
                        kept.append(v)
            floored.append(np.mean(kept))
            every.append(np.mean(vals))
        assert inputs["a_bar_max"] == pytest.approx(max(floored), abs=1e-15)
        assert inputs["a_bar_max"] < max(every) - 0.01

    def test_lower_bound_cases(self, synth_diag_dep, synth_diag_indep):
        # d = 0: no first term
        assert bound_lower_unlabeled(synth_diag_indep) == pytest.approx(0.0, abs=1e-14)
        # m = 10, d = 5: the (m - 2d) factor vanishes
        assert bound_lower_unlabeled(synth_diag_dep) == pytest.approx(
            synth_diag_dep.inference_bias, abs=1e-14
        )

    def test_lower_bound_below_upper(self):
        targets = list(np.linspace(0.58, 0.74, 12))
        diag = diagnostics(calibrate(targets, [(0, 1), (2, 3), (4, 5)], 0.1))
        lower = bound_lower_unlabeled(diag)
        assert lower > diag.inference_bias  # strictly positive first term
        upper_inf = bound_unlabeled(diag, 10**9)["bound"]
        assert lower <= upper_inf

    def test_report_fields(self, synth_model_dep, synth_diag_dep):
        rho = median_mse(synth_model_dep, 500, trials=30, seed=2, diag=synth_diag_dep)
        doc = bound_report(synth_diag_dep, n_labeled=100, n_unlabeled=1000, rho=rho)
        for key in ("c1", "c2", "c3", "c4", "c_rho", "B_I", "B_est",
                    "R_L_bound", "R_U_bound", "R_M_bound", "lower_bound_unlabeled"):
            assert key in doc
        assert doc["o_terms_dropped"] is True
        assert doc["inputs"]["m"] == 10
        assert (doc["inputs"]["rho"], doc["R_M_bound"]) == (rho.rho, rho.bound)
        assert (doc["inputs"]["rho_trials"], doc["inputs"]["rho_failures"]) == (30, 0)


class TestMedianMse:
    def test_decreases_with_sample_size(self, synth_model_dep, synth_diag_dep):
        small = median_mse(synth_model_dep, 1_000, trials=60, seed=3, diag=synth_diag_dep)
        large = median_mse(synth_model_dep, 10_000, trials=60, seed=3, diag=synth_diag_dep)
        assert large.rho < small.rho
        assert small.applicable

    def test_conditions_reported_not_enforced(self):
        model = calibrate([0.7, 0.65, 0.6, 0.72], [(0, 1)], 0.1)
        out = median_mse(model, 500, trials=30, seed=1)
        assert not out.applicable  # m = 4 fails m > 5
        assert out.rho > 0

    def test_trial_floor(self, synth_model_dep):
        with pytest.raises(ContractError):
            median_mse(synth_model_dep, 100, trials=5)

    def test_bound_dominates_median_excess(self, synth_model_dep, synth_diag_dep):
        # the corrected-fit bound caps the expected excess; per-trial values
        # fluctuate chi-square-like around it, so the per-trial check uses the
        # inference bias as its reference offset
        from labelmoments.experiments import TrialEngine

        # rho reads the curve cell, so the excess sample must come from another
        # seed: scored on rho's own fits, the check would hold by construction
        out = median_mse(synth_model_dep, 10_000, trials=100, seed=4, diag=synth_diag_dep)
        engine = TrialEngine(synth_model_dep, synth_diag_dep)
        series, _ = engine.excess_series("triplet-median", 10_000, 100, 5)
        assert series.mean() <= out.bound
        frac = np.mean(series - synth_diag_dep.inference_bias <= out.bound)
        assert frac >= 0.95

    def test_reads_the_curve_cell(self, synth_model_dep, synth_diag_dep):
        from labelmoments.experiments import TrialEngine

        out = median_mse(synth_model_dep, 500, trials=40, seed=3, diag=synth_diag_dep)
        fits, ok = TrialEngine(synth_model_dep, synth_diag_dep).estimates(
            "triplet-median", 500, 40, 3
        )
        mse = ((fits[ok] - synth_diag_dep.accuracies) ** 2).mean(axis=0)
        np.testing.assert_array_equal(out.per_source_mse, mse)
        assert out.rho == mse.max()
        assert (out.trials, out.failures) == (ok.sum(), 40 - ok.sum()) == (40, 0)

    def test_failed_fits_are_skipped_and_counted(self):
        # four sources at n=4: some fits find no usable triplet for a source
        model = calibrate([0.6, 0.55, 0.7, 0.65], [(0, 1)], 0.1)
        out = median_mse(model, 4, trials=40, seed=21)
        assert out.failures > 0 and out.trials + out.failures == 40
        assert np.isfinite(out.rho)

    def test_every_fit_failing_raises(self, monkeypatch):
        from labelmoments import experiments

        # four orthogonal sign columns: every pair moment, hence every
        # triplet denominator, is zero
        rows = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
        counts = state_counts(SourceMatrix(rows.astype(np.int8), np.ones(4, dtype=np.int8)))

        def blocks(engine, label, n, trials, seed):
            yield SampleMoments.from_state_counts(np.tile(counts, (trials, 1)), engine.m)

        monkeypatch.setattr(experiments.TrialEngine, "blocks", blocks)
        model = calibrate([0.6, 0.55, 0.7, 0.65], [], 0.0)
        with pytest.raises(EstimationError, match="every"):
            median_mse(model, 4, trials=30)

    def test_c_rho_value(self, synth_diag_dep):
        want = 1.0 / (2.0 * (1.0 - synth_diag_dep.accuracies.max()**2))
        assert median_correction_constant(synth_diag_dep) == pytest.approx(want)
