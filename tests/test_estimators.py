import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelmoments import (
    ContractError,
    EstimationError,
    IsingModel,
    NumericalError,
    SourceMatrix,
    calibrate,
    diagnostics,
    sample,
)
from labelmoments import estimators, experiments, ws
from labelmoments.estimators import (
    SHRINKAGE_RIDGE,
    AccuracyEstimate,
    SampleMoments,
    _class_conditional_census,
    combine_green_strawderman,
    combine_linear,
    estimate_quadratic_triplet_from_moments,
    estimate_triplet_from_moments,
    aggregate_census,
    green_strawderman_alpha,
    triplet_census,
)

from labelmoments.ising import sample_rows, sample_state_counts
from labelmoments.states import config_index

from conftest import SYNTH_ACCURACIES, SYNTH_EDGES, brute_accuracies, brute_joint, state_counts


def _labeled(data: SourceMatrix) -> np.ndarray:
    """The labeled accuracy estimate: the mean of s_i * y over rows."""
    return SampleMoments.from_source_matrix(data).acc


class TestLabeled:
    def test_perfect_agreement(self):
        values = np.array([[1, 1], [-1, -1], [1, 1]])
        labels = np.array([1, -1, 1])
        np.testing.assert_allclose(_labeled(SourceMatrix(values, labels)), 1.0)

    def test_direct_average(self):
        values = np.array([[1], [1], [1], [1]])
        labels = np.array([1, 1, -1, 1])
        assert _labeled(SourceMatrix(values, labels))[0] == pytest.approx(0.5)

    def test_missing_labels(self):
        unlabeled = SampleMoments.from_source_matrix(SourceMatrix(np.array([[1, -1]])))
        assert unlabeled.acc is None
        with pytest.raises(ContractError):
            unlabeled.labeled_covariance()
        with pytest.raises(ContractError, match="at least one row"):
            SampleMoments.from_source_matrix(SourceMatrix(np.zeros((0, 3))))

    def test_concentration_on_large_sample(self, synth_model_indep, synth_diag_indep):
        data = sample(synth_model_indep, 100_000, 21)
        assert np.abs(_labeled(data) - synth_diag_indep.accuracies).max() <= 0.02

    def test_unbiasedness_over_resamples(self, synth_model_dep, synth_diag_dep):
        rng = np.random.default_rng(5)
        n_l, reps = 50, 2000
        total = np.zeros(10)
        for _ in range(reps):
            data = sample(synth_model_dep, n_l, rng)
            total += _labeled(data)
        mean = total / reps
        se = np.sqrt((1 - synth_diag_dep.accuracies**2) / n_l / reps)
        assert (np.abs(mean - synth_diag_dep.accuracies) <= 3 * se).all()


class TestCountMomentsMatchRows:
    """Joint-state counts give the row moments bit for bit: every sum adds
    +-1 terms, so it is exact in any order."""

    @pytest.mark.parametrize("n, seed", [(2, 0), (37, 1), (5000, 2)])
    def test_bit_for_bit(self, synth_model_dep, n, seed):
        data = sample(synth_model_dep, n, seed)
        rows = SampleMoments.from_source_matrix(data)
        counts = np.bincount(data.state_index(), minlength=1 << (data.m + 1))
        for moments in (
            SampleMoments.from_state_counts(counts, data.m),
            SampleMoments.from_state_counts(state_counts(data), data.m),
        ):
            assert moments.n == rows.n
            for name in ("means", "pair", "acc"):
                np.testing.assert_array_equal(getattr(moments, name), getattr(rows, name))
            np.testing.assert_array_equal(
                moments.shrinkage_covariance(), rows.shrinkage_covariance()
            )

    def test_batched_rows_bit_for_bit(self, synth_model_dep):
        # the sampler's rows are u = s * y and the label; s is u times the label
        rows = sample_rows(synth_model_dep, 60, np.random.default_rng(4), 7)
        signs = rows[..., :10] * rows[..., 10:]
        batch = SampleMoments.from_rows(signs, rows[..., 10])
        assert batch.n.tolist() == [60] * 7
        for b, one in enumerate(signs):
            data = SourceMatrix(one, rows[b, :, 10])
            counts = SampleMoments.from_state_counts(state_counts(data), 10)
            for name in ("means", "pair", "acc"):
                np.testing.assert_array_equal(getattr(batch, name)[b], getattr(counts, name))

    @pytest.mark.parametrize("n", [1, 60, 1001])
    def test_u_rows_give_the_labeled_moments_of_the_signs(self, synth_model_dep, n):
        # from_u_rows(u) is from_u_counts' contract on rows: from_rows(s, y)'s
        # accuracies and pair moments bit for bit, and no sign means
        rows = sample_rows(synth_model_dep, n, np.random.default_rng(n), 3)
        u, y = rows[..., :10], rows[..., 10]
        signs = SampleMoments.from_rows(u * y[..., None], y)
        moments = SampleMoments.from_u_rows(u)
        assert moments.means is None and moments.n.tolist() == [n] * 3
        np.testing.assert_array_equal(moments.acc, signs.acc)
        np.testing.assert_array_equal(moments.pair, signs.pair)
        for b in range(3):
            counts = np.bincount(config_index(u[b]), minlength=1 << 10).astype(np.float64)
            one, rows_b = SampleMoments.from_u_counts(counts, 10), SampleMoments.from_u_rows(u[b])
            np.testing.assert_array_equal(rows_b.acc, one.acc)
            np.testing.assert_array_equal(rows_b.pair, one.pair)


class TestTripletRaw:
    """Single triplet solves, read from the census column of witness pair (1, 2)."""

    @staticmethod
    def _solve(pair):
        vals, valid = triplet_census(pair)
        return vals[0, 0], valid[0, 0]

    def test_factorized_moments(self):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = 0.42
        m[0, 2] = m[2, 0] = 0.48
        m[1, 2] = m[2, 1] = 0.56
        val, valid = self._solve(m)
        assert valid and val == pytest.approx(0.6, abs=1e-12)
        est = estimate_triplet_from_moments(m, "mean")
        assert est.values[0] == val

    def test_self_agreement_clips_to_one(self):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = 1.0
        m[0, 2] = m[2, 0] = 0.5
        m[1, 2] = m[2, 1] = 0.5
        assert self._solve(m) == (1.0, True)
        assert estimate_triplet_from_moments(m, "median").values[0] == 1.0

    def test_degenerate_denominator(self):
        m = np.eye(3)
        m[1, 2] = m[2, 1] = 1e-9
        m[0, 1] = m[1, 0] = m[0, 2] = m[2, 0] = 0.4
        val, valid = self._solve(m)
        assert not valid and np.isnan(val)
        with pytest.raises(EstimationError, match="source 0"):
            estimate_triplet_from_moments(m, "mean")

    def test_witness_edge_underestimates(self):
        # dependent witnesses inflate the denominator, shrinking the estimate
        theta = [0.8, 0.7, 0.6]
        edges = [(1, 2, 0.3)]
        table, _ = brute_joint(theta, edges)
        acc = brute_accuracies(table, 3)
        pair = np.eye(3)
        for i in range(3):
            for j in range(i + 1, 3):
                pair[i, j] = pair[j, i] = sum(
                    p * s[i] * s[j] for (y, s), p in table.items()
                )
        val, _ = self._solve(pair)
        assert val < acc[0]
        # frozen from the enumeration oracle above
        assert acc[0] == pytest.approx(0.664036770267849, abs=1e-12)
        assert val == pytest.approx(0.5957185166332072, abs=1e-12)
        assert estimate_triplet_from_moments(pair, "single", seed=0).values[0] == val



class TestSignAssumption:
    """The census assumes every source better than random; the fit's
    metadata counts the evidence against it."""

    @staticmethod
    def _counts(pair):
        meta = estimate_triplet_from_moments(pair, "mean").metadata
        return meta["negative_triplets"], meta["negative_pairs"]

    def test_population_moments_show_none(self, synth_diag_dep):
        assert self._counts(synth_diag_dep.pair_moments) == ([0] * 10, [0] * 10)

    def test_negated_source(self, synth_model_dep):
        data = sample(synth_model_dep, 5000, 8)
        flipped = data.values.copy()
        flipped[:, 3] *= -1
        triplets, pairs = self._counts(SampleMoments.from_source_matrix(data).pair)
        neg_triplets, neg_pairs = self._counts(
            SampleMoments.from_source_matrix(SourceMatrix(flipped, data.labels)).pair
        )
        assert pairs == [0] * 10
        assert neg_pairs == [1, 1, 1, 9, 1, 1, 1, 1, 1, 1]
        # a triple product keeps its sign when any of its sources is negated
        assert neg_triplets == triplets

    def test_one_negative_pair_moment(self):
        # no sign assignment fits M_12 < 0 with every other moment positive:
        # every triplet holding sources 1 and 2 has a negative product
        pair = np.full((5, 5), 0.3)
        np.fill_diagonal(pair, 1.0)
        pair[1, 2] = pair[2, 1] = -0.3
        assert self._counts(pair) == ([1, 3, 3, 1, 1], [0, 1, 1, 0, 0])

class TestTripletAggregation:
    def test_population_exactness_well_specified(self, synth_diag_indep):
        pair = synth_diag_indep.pair_moments
        for agg in ("mean", "median", "single"):
            est = estimate_triplet_from_moments(pair, agg, seed=4)
            np.testing.assert_allclose(
                est.values, synth_diag_indep.accuracies, atol=1e-12
            )

    def test_median_exact_under_dependencies(self, synth_diag_dep):
        est = estimate_triplet_from_moments(synth_diag_dep.pair_moments, "median")
        np.testing.assert_allclose(est.values, synth_diag_dep.accuracies, atol=1e-12)

    def test_mean_biased_under_dependencies(self, synth_diag_dep):
        est = estimate_triplet_from_moments(synth_diag_dep.pair_moments, "mean")
        assert np.abs(est.values - synth_diag_dep.accuracies).max() > 1e-4

    def test_median_biased_when_bad_triplets_dominate(self):
        # five misspecified pairs arranged in a cycle over five sources: every
        # witness pair for every source touches a dependency, so even the
        # median triplet is inconsistent (the minority condition fails)
        a = np.array([0.7, 0.65, 0.6, 0.72, 0.68])
        pair = np.outer(a, a)
        np.fill_diagonal(pair, 1.0)
        cycle = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        for i, j in cycle:
            pair[i, j] += 0.1
            pair[j, i] = pair[i, j]
        est = estimate_triplet_from_moments(pair, "median")
        assert np.abs(est.values - a).max() > 1e-4

    def test_all_degenerate_raises(self):
        pair = np.full((4, 4), 1e-9)
        np.fill_diagonal(pair, 1.0)
        with pytest.raises(EstimationError):
            estimate_triplet_from_moments(pair, "mean")

    def test_needs_three_sources(self):
        with pytest.raises(ContractError):
            estimate_triplet_from_moments(np.eye(2), "mean")

    def test_mean_does_not_depend_on_memory_layout(self):
        # single censuses and batches of four, with NaN and invalid columns:
        # C and Fortran order give the same bits
        rng = np.random.default_rng(29)
        for _ in range(400):
            m = int(rng.integers(3, 15))
            shape = ((4,) if rng.random() < 0.5 else ()) + (m, (m - 1) * (m - 2) // 2)
            vals = rng.random(shape)
            vals[rng.random(shape) < 0.05] = np.nan
            valid = rng.random(shape) < 0.9
            est, counts = aggregate_census(vals, valid, "mean")
            est_f, counts_f = aggregate_census(np.asfortranarray(vals), np.asfortranarray(valid), "mean")
            np.testing.assert_array_equal(est_f, est)
            np.testing.assert_array_equal(counts_f, counts)

    def test_single_draws_as_one_choice_per_source(self):
        # the loop `single` replaced: one rng.choice among each source's valid
        # columns, in source order; same picks and same generator state after
        masks = np.random.default_rng(2024)
        for _ in range(500):
            m = int(masks.integers(3, 15))
            npairs = (m - 1) * (m - 2) // 2
            valid = masks.random((m, npairs)) < masks.uniform(0.02, 1.0)
            valid[np.arange(m), masks.integers(0, npairs, m)] = True
            vals = masks.random((m, npairs))
            seed = int(masks.integers(1 << 32))
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            ref = [vals[i, ref_rng.choice(np.flatnonzero(valid[i]))] for i in range(m)]
            est, _ = aggregate_census(vals, valid, "single", rng)
            assert est.tolist() == ref
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_single_aggregation_deterministic_under_seed(self, synth_diag_dep):
        pair = synth_diag_dep.pair_moments
        a = estimate_triplet_from_moments(pair, "single", seed=9)
        b = estimate_triplet_from_moments(pair, "single", seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_from_data_matches_from_moments(self, synth_model_dep):
        # row moments of a data file and joint-state count moments give one fit
        data = sample(synth_model_dep, 5000, 13)
        via_data = SampleMoments.from_source_matrix(data)
        via_counts = SampleMoments.from_state_counts(state_counts(data), data.m)
        np.testing.assert_array_equal(
            estimate_triplet_from_moments(via_data.pair, "median").values,
            estimate_triplet_from_moments(via_counts.pair, "median").values,
        )

    def test_consistency_well_specified(self, synth_model_indep, synth_diag_indep):
        errs = []
        for n, seed in ((1_000, 31), (10_000, 32), (100_000, 33)):
            moments = SampleMoments.from_source_matrix(sample(synth_model_indep, n, seed))
            est = estimate_triplet_from_moments(moments.pair, "mean")
            errs.append(np.abs(est.values - synth_diag_indep.accuracies).max())
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] <= 0.01

    def test_signed_bias_direction(self, synth_diag_dep):
        # over the full census: sources on a dependency can be overestimated,
        # sources off any dependency can only be underestimated
        vals, valid = triplet_census(synth_diag_dep.pair_moments)
        acc = synth_diag_dep.accuracies
        in_edge = {i for e in SYNTH_EDGES for i in e}
        for i in range(10):
            census = vals[i][valid[i]]
            if i in in_edge:
                assert census.max() > acc[i] + 1e-6
            else:
                assert census.max() <= acc[i] + 1e-12

    def test_off_edge_sources_only_underestimated(self):
        model = calibrate([0.7, 0.65, 0.6, 0.72, 0.68, 0.63], [(0, 1)], 0.1)
        d = diagnostics(model)
        vals, valid = triplet_census(d.pair_moments)
        for i in range(2, 6):
            census = vals[i][valid[i]]
            assert census.max() <= d.accuracies[i] + 1e-12
            assert census.mean() < d.accuracies[i] - 1e-6


class TestPartialRecovery:
    def _bias(self, pair, acc, agg, known):
        est = estimate_triplet_from_moments(pair, agg, known_edges=known)
        return np.abs(est.values - acc).max()

    def test_median_never_hurt_by_known_edges(self):
        # exhaust every subset of known edges on small dependent models
        for m, d in ((6, 2), (7, 3), (8, 3)):
            targets = list(np.linspace(0.58, 0.74, m))
            edges = [(2 * k, 2 * k + 1) for k in range(d)]
            diag = diagnostics(calibrate(targets, edges, 0.1))
            for k in range(d + 1):
                for known in itertools.combinations(edges, k):
                    with_known = self._bias(
                        diag.pair_moments, diag.accuracies, "median", known
                    )
                    base = self._bias(diag.pair_moments, diag.accuracies, "median", ())
                    assert with_known <= base + 1e-12

    def test_full_recovery_removes_mean_bias(self, synth_diag_dep):
        est = estimate_triplet_from_moments(
            synth_diag_dep.pair_moments, "mean", known_edges=SYNTH_EDGES
        )
        np.testing.assert_allclose(est.values, synth_diag_dep.accuracies, atol=1e-12)

    @staticmethod
    def _pair_table_by_loop(m, known):
        """Witness pairs of each source in ``combinations`` order, and the
        pairs that touch no known edge, one pair at a time."""
        rows = [list(itertools.combinations([o for o in range(m) if o != i], 2)) for i in range(m)]
        touches = lambda a, b: (min(a, b), max(a, b)) in known  # noqa: E731
        jj = np.array([[j for j, _ in row] for row in rows], dtype=np.int64)
        kk = np.array([[k for _, k in row] for row in rows], dtype=np.int64)
        allowed = np.array([
            [not (touches(i, j) or touches(i, k) or touches(j, k)) for j, k in row]
            for i, row in enumerate(rows)
        ])
        return jj, kk, allowed

    @pytest.mark.parametrize("m", range(3, 16))
    def test_pair_table_matches_a_combinations_loop(self, m):
        rng = np.random.default_rng(m)
        every = list(itertools.combinations(range(m), 2))
        for density in (0.0, 0.1, 0.4, 1.0):
            known = frozenset(p for p in every if rng.random() < density)
            table = estimators._pair_table(m, known)
            for got, want in zip(table, self._pair_table_by_loop(m, known), strict=True):
                assert got.dtype == want.dtype and got.flags.c_contiguous
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("known", [[(0, 99)], [(2, 2)], [(-1, 3)], [(0, 1), (10, 4)]])
    def test_edges_outside_the_sources_raise(self, synth_diag_dep, known):
        # a self-pair or an unknown source would exclude nothing
        with pytest.raises(ContractError, match="not pairs of distinct sources"):
            triplet_census(synth_diag_dep.pair_moments, known_edges=known)
        with pytest.raises(ContractError, match="not pairs of distinct sources"):
            estimate_triplet_from_moments(synth_diag_dep.pair_moments, known_edges=known)

    def test_census_mse_never_increased_by_known_edges(self, synth_diag_dep):
        # the uniformly-random-pair variant: mean squared census error can
        # only shrink when dependent pairs are excluded
        pair, acc = synth_diag_dep.pair_moments, synth_diag_dep.accuracies
        base_vals, base_valid = triplet_census(pair)
        for k in (1, 2, 5):
            vals, valid = triplet_census(pair, known_edges=SYNTH_EDGES[:k])
            for i in range(10):
                mse = ((vals[i][valid[i]] - acc[i]) ** 2).mean()
                base = ((base_vals[i][base_valid[i]] - acc[i]) ** 2).mean()
                assert mse <= base + 1e-12

    def test_partial_exclusion_can_increase_mean_bias(self, synth_diag_dep):
        # removing only some dependencies strips out underestimating triplets
        # that previously canceled overestimates, so the mean-aggregated bias
        # of still-dependent sources can grow; documented behavior
        pair, acc = synth_diag_dep.pair_moments, synth_diag_dep.accuracies
        base = self._bias(pair, acc, "mean", ())
        partial = self._bias(pair, acc, "mean", SYNTH_EDGES[:2])
        assert partial > base


class TestCombineLinear:
    def test_endpoints_and_midpoint(self):
        a_u = AccuracyEstimate(np.array([0.4, 0.2]), "triplet")
        a_l = AccuracyEstimate(np.array([0.8, 0.6]), "labeled")
        np.testing.assert_allclose(combine_linear(a_u, a_l, 0.0).values, a_l.values)
        np.testing.assert_allclose(combine_linear(a_u, a_l, 1.0).values, a_u.values)
        np.testing.assert_allclose(
            combine_linear(a_u, a_l, 0.5).values, [0.6, 0.4]
        )

    def test_alpha_validation(self):
        a = AccuracyEstimate(np.array([0.5]), "labeled")
        with pytest.raises(ContractError):
            combine_linear(a, a, 1.2)

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0),
        u=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        l=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    )
    def test_affine_in_alpha(self, alpha, u, l):
        a_u = AccuracyEstimate(np.array(u), "triplet")
        a_l = AccuracyEstimate(np.array(l), "labeled")
        mid = combine_linear(a_u, a_l, alpha).values
        lo = combine_linear(a_u, a_l, 0.0).values
        hi = combine_linear(a_u, a_l, 1.0).values
        np.testing.assert_allclose(mid, alpha * hi + (1 - alpha) * lo, atol=1e-12)


class TestGreenStrawderman:
    def test_alpha_formula_isotropic(self):
        # with covariance sigma^2 I the weight is r / (||diff|| / sigma)
        diff = np.array([0.3, -0.1, 0.2])
        sigma = 0.05
        alpha = green_strawderman_alpha(diff, sigma**2 * np.eye(3), r=1.0)
        assert alpha == pytest.approx(
            min(1.0, 1.0 / (np.linalg.norm(diff) / sigma)), abs=1e-12
        )

    def test_batch_equals_each_pair_alone(self):
        def lone_pair(diff, sigma, r):  # the rule on one pair, by a 1-d solve and dot
            norm = np.sqrt(float(diff @ np.linalg.solve(sigma, diff)))
            return 1.0 if norm == 0.0 else min(r / norm, 1.0)

        rng = np.random.default_rng(5)
        for _ in range(50):
            m, b, n = int(rng.integers(3, 15)), int(rng.integers(1, 9)), int(rng.integers(20, 500))
            x = np.where(rng.random((b, n, m)) < rng.uniform(0.5, 0.95, m), 1.0, -1.0)
            y = np.where(rng.random((b, n)) < 0.5, 1.0, -1.0)
            mom = SampleMoments.from_rows(x * y[..., None], y)
            diff = mom.acc - rng.uniform(-1, 1, (b, m))
            diff[0] *= rng.integers(0, 2)  # a zero difference takes weight 1
            r = float(rng.uniform(0, 2 * (m - 2)))
            sigma = mom.shrinkage_covariance()
            alphas = green_strawderman_alpha(diff, sigma, r)
            assert alphas.shape == (b,)
            for k in range(b):
                one = SampleMoments(n, mom.means[k], mom.pair[k], mom.acc[k])
                np.testing.assert_array_equal(sigma[k], one.shrinkage_covariance())
                assert alphas[k] == green_strawderman_alpha(diff[k], sigma[k], r)
                assert alphas[k] == lone_pair(diff[k], sigma[k], r)

    def test_batch_raises_when_any_pair_fails(self):
        sigma = np.stack([np.eye(3), np.zeros((3, 3))])
        with pytest.raises(NumericalError):
            green_strawderman_alpha(np.ones((2, 3)), sigma, 1.0)

    def test_alpha_clips_to_one(self):
        diff = np.array([1e-6, 0.0, 0.0])
        assert green_strawderman_alpha(diff, np.eye(3), r=1.0) == 1.0

    def test_equal_estimates_return_unlabeled(self, synth_model_dep):
        mom = SampleMoments.from_source_matrix(sample(synth_model_dep, 200, 3))
        a_l = AccuracyEstimate(mom.acc, "labeled")
        out = combine_green_strawderman(a_l, mom)
        assert out.metadata["alpha"] == 1.0
        np.testing.assert_allclose(out.values, a_l.values, atol=0)

    def test_combination_reports_alpha(self, synth_model_dep):
        mom = SampleMoments.from_source_matrix(sample(synth_model_dep, 400, 8))
        a_u = estimate_triplet_from_moments(mom.pair, "mean")
        out = combine_green_strawderman(a_u, mom)
        assert 0.0 <= out.metadata["alpha"] <= 1.0
        assert out.metadata["r"] == pytest.approx(8.0)

    def test_zero_covariance_raises(self):
        data = SourceMatrix(np.ones((10, 3), dtype=np.int8), np.ones(10, dtype=np.int8))
        a_u = AccuracyEstimate(np.array([0.5, 0.5, 0.5]), "triplet")
        with pytest.raises(NumericalError):
            combine_green_strawderman(a_u, SampleMoments.from_source_matrix(data))

    def test_r_range_validation(self, synth_model_dep):
        mom = SampleMoments.from_source_matrix(sample(synth_model_dep, 100, 2))
        a_u = estimate_triplet_from_moments(mom.pair, "mean")
        with pytest.raises(ContractError):
            combine_green_strawderman(a_u, mom, r=100.0)


class TestShrinkageCovariance:
    """One labeled covariance for the three shrinkage callers, and one zero-covariance policy."""

    @staticmethod
    def _capture(monkeypatch, module, seen):
        original = module.green_strawderman_alpha

        def spy(diff, sigma, r):
            seen.append(sigma)
            return original(diff, sigma, r)

        monkeypatch.setattr(module, "green_strawderman_alpha", spy)

    @staticmethod
    def _fixed_draws(monkeypatch, counts):
        # every trial of every cell draws the sample ``counts``
        def blocks(engine, label, n, trials, seed):
            yield SampleMoments.from_state_counts(np.tile(counts, (trials, 1)), engine.m)

        monkeypatch.setattr(experiments.TrialEngine, "blocks", blocks)

    def test_definition(self, synth_model_dep):
        mom = SampleMoments.from_source_matrix(sample(synth_model_dep, 300, 6))
        cov = mom.labeled_covariance() / mom.n
        expected = cov + SHRINKAGE_RIDGE * (np.trace(cov) / mom.m) * np.eye(mom.m)
        np.testing.assert_array_equal(mom.shrinkage_covariance(), expected)

    def test_three_callers_share_one_covariance(self, monkeypatch, synth_model_dep):
        counts = sample_state_counts(synth_model_dep, 200, 9)
        mom = SampleMoments.from_state_counts(counts, 10)
        seen = {}
        for module in (estimators, experiments, ws):
            seen[module.__name__] = []
            self._capture(monkeypatch, module, seen[module.__name__])
        self._fixed_draws(monkeypatch, counts)

        a_u = estimate_triplet_from_moments(mom.pair, "mean")
        combine_green_strawderman(a_u, mom)
        experiments.combined_sweep(experiments.TrialEngine(synth_model_dep), 200, [200], trials=1)
        cc = estimate_quadratic_triplet_from_moments(mom, 0.5, "mean")
        lab = ws.estimate_labeled_class_conditional(counts, 10, 0.5)
        ws._combine_class_conditional(cc, lab, mom, 8.0)

        assert [len(sigmas) for sigmas in seen.values()] == [1, 1, 1]
        for (sigma,) in seen.values():  # the sweep's is a block of its one trial
            np.testing.assert_array_equal(np.reshape(sigma, (10, 10)), mom.shrinkage_covariance())

    def test_both_loops_fall_back_to_alpha_one(self, monkeypatch, synth_model_dep):
        # every draw is the all-agree state: zero labeled covariance
        counts = np.zeros(synth_model_dep.joint.size)
        counts[-1] = 50.0
        self._fixed_draws(monkeypatch, counts)
        (row,) = experiments.combined_sweep(experiments.TrialEngine(synth_model_dep), 50, [50], trials=3)
        assert row.gs_alpha_mean == 1.0 and row.failures == 0

        unl = SampleMoments.from_source_matrix(sample(synth_model_dep, 500, 1))
        cc = estimate_quadratic_triplet_from_moments(unl, 0.5)
        lab_counts = state_counts(sample(synth_model_dep, 50, 2))
        lab = ws.estimate_labeled_class_conditional(lab_counts, 10, 0.5)
        zero = SampleMoments.from_state_counts(counts, 10)
        combined, alpha = ws._combine_class_conditional(cc, lab, zero, 8.0)
        assert alpha == 1.0
        np.testing.assert_array_equal(combined.mu, cc.mu)


def _class_conditional_moments(cond_pos, cond_neg, p):
    """Exact SampleMoments for a conditionally-independent two-class model."""
    m = len(cond_pos)
    marg = p * cond_pos + (1 - p) * cond_neg
    means = 2 * marg - 1
    pair = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            both = p * cond_pos[i] * cond_pos[j] + (1 - p) * cond_neg[i] * cond_neg[j]
            pair[i, j] = pair[j, i] = 4 * both - 2 * marg[i] - 2 * marg[j] + 1
    return SampleMoments(10**9, means, pair, None)


class TestQuadraticTriplets:
    def test_symmetric_model_reduces_to_accuracy_form(self, synth_diag_dep):
        moments = SampleMoments(
            10**9, np.zeros(10), synth_diag_dep.pair_moments, None
        )
        est = estimate_quadratic_triplet_from_moments(moments, 0.5, "median")
        np.testing.assert_allclose(
            est.cond_pos, (1 + synth_diag_dep.accuracies) / 2, atol=1e-12
        )
        np.testing.assert_allclose(
            est.implied_accuracies(), synth_diag_dep.accuracies, atol=1e-12
        )

    def test_perfect_source_recovered(self):
        cond_pos = np.array([1.0, 0.8, 0.7])
        cond_neg = np.array([0.0, 0.25, 0.4])
        moments = _class_conditional_moments(cond_pos, cond_neg, p=0.6)
        est = estimate_quadratic_triplet_from_moments(moments, 0.6, "mean")
        np.testing.assert_allclose(est.cond_pos, cond_pos, atol=1e-9)
        np.testing.assert_allclose(est.cond_neg, cond_neg, atol=1e-9)

    def test_unbalanced_recovery(self):
        rng = np.random.default_rng(0)
        cond_pos = rng.uniform(0.6, 0.9, 5)
        cond_neg = rng.uniform(0.1, 0.4, 5)
        for p in (0.3, 0.5, 0.7):
            moments = _class_conditional_moments(cond_pos, cond_neg, p)
            est = estimate_quadratic_triplet_from_moments(moments, p, "median")
            np.testing.assert_allclose(est.cond_pos, cond_pos, atol=1e-9)
            np.testing.assert_allclose(est.cond_neg, cond_neg, atol=1e-9)

    def test_columns_are_stochastic(self, synth_model_dep):
        moments = SampleMoments.from_source_matrix(sample(synth_model_dep, 3000, 17))
        est = estimate_quadratic_triplet_from_moments(moments, 0.5, "mean")
        np.testing.assert_allclose(est.mu.sum(axis=1), 1.0, atol=1e-12)
        assert (est.mu >= 0).all() and (est.mu <= 1).all()

    def test_balance_validation(self, synth_diag_dep):
        moments = SampleMoments(100, np.zeros(10), synth_diag_dep.pair_moments, None)
        with pytest.raises(ContractError):
            estimate_quadratic_triplet_from_moments(moments, 1.0, "mean")


# ---------------------------------------------------------------------------
# Scalar reference for the class-conditional census: one (i, j, k) at a time,
# sharing no code with the array pass in the package.
# ---------------------------------------------------------------------------


def _quadratic_roots(qa, qb, qc):
    if abs(qa) < 1e-14:
        if abs(qb) < 1e-14:
            return []
        return [-qc / qb]
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0:
        return []
    root = np.sqrt(disc)
    return [(-qb + root) / (2 * qa), (-qb - root) / (2 * qa)]


def _solve_class_conditional_triplet(q, c, d, i, j, k, prob_tol):
    """(Pr(s_i = 1 | Y = 1) or None, whether the better-than-random root was picked)."""
    big_a = d + d * d
    u0, u1 = q[i, j] - c[i] * c[j], c[i] * d
    v0, v1 = q[j, k] - c[j] * c[k], c[k] * d
    d0, d1 = -c[j] * d, big_a
    w = c[i] * c[k] - q[i, k]
    qa = big_a * u1 * v1 - c[k] * d * u1 * d1 - c[i] * d * v1 * d1 + w * d1 * d1
    qb = (
        big_a * (u0 * v1 + u1 * v0)
        - c[k] * d * (u0 * d1 + u1 * d0)
        - c[i] * d * (v0 * d1 + v1 * d0)
        + 2.0 * w * d0 * d1
    )
    qc = big_a * u0 * v0 - c[k] * d * u0 * d0 - c[i] * d * v0 * d0 + w * d0 * d0

    candidates = []
    for beta in _quadratic_roots(qa, qb, qc):
        denom = d0 + d1 * beta
        if abs(denom) < 1e-12:
            continue
        alpha = (u0 + u1 * beta) / denom
        gamma = (v0 + v1 * beta) / denom
        probs = [
            alpha, beta, gamma,
            c[i] - d * alpha, c[j] - d * beta, c[k] - d * gamma,
        ]
        if all(-prob_tol <= p <= 1.0 + prob_tol for p in probs):
            candidates.append(alpha)
    if not candidates:
        return None, False
    if len(candidates) == 1:
        return float(np.clip(candidates[0], 0.0, 1.0)), False
    p = d / (1.0 + d)
    accs = [p * a + (1 - p) * (1.0 - (c[i] - d * a)) for a in candidates]
    pick = int(np.argmax(accs))
    return float(np.clip(candidates[pick], 0.0, 1.0)), True


def _census_inputs(moments, p):
    d = p / (1.0 - p)
    pos = (1.0 + moments.means) / 2.0
    q = (1.0 + moments.pair + moments.means[:, None] + moments.means[None, :]) / 4.0
    return q / (1.0 - p), pos / (1.0 - p), d


def _scalar_census(q, c, d, prob_tol=1e-6):
    m = c.size
    vals = np.full((m, (m - 1) * (m - 2) // 2), np.nan)
    tiebreaks = 0
    for i in range(m):
        others = [o for o in range(m) if o != i]
        for col, (j, k) in enumerate(itertools.combinations(others, 2)):
            val, tie = _solve_class_conditional_triplet(q, c, d, i, j, k, prob_tol)
            if val is not None:
                vals[i, col] = val
            tiebreaks += int(tie)
    return vals, tiebreaks


class TestClassConditionalCensusOracle:
    """The array census equals the scalar solver bit for bit."""

    @staticmethod
    def _assert_same(moments, p):
        q, c, d = _census_inputs(moments, p)
        vals, tiebreaks = _class_conditional_census(q, c, d)
        ref_vals, ref_tiebreaks = _scalar_census(q, c, d)
        np.testing.assert_array_equal(vals, ref_vals)
        assert tiebreaks == ref_tiebreaks
        return vals

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_sampled_moments(self, p):
        rng = np.random.default_rng(int(10 * p))
        cond_pos = rng.uniform(0.5, 0.95, 12)
        cond_neg = rng.uniform(0.05, 0.5, 12)
        rootless = 0
        for n in (50, 200, 2500, 40000):
            for _ in range(3):
                y = rng.random(n) < p
                votes = rng.random((n, 12)) < np.where(y[:, None], cond_pos, cond_neg)
                data = SourceMatrix(np.where(votes, 1, -1))
                vals = self._assert_same(SampleMoments.from_source_matrix(data), p)
                rootless += int(np.isnan(vals).sum())
        assert rootless > 0

    def test_exact_moments(self, synth_diag_dep):
        self._assert_same(SampleMoments(10**9, np.zeros(10), synth_diag_dep.pair_moments, None), 0.5)
        # A perfect source (roots on the [0, 1] boundary) and an uninformative
        # one (leading coefficient zero: the degenerate linear branch).
        for cond_pos, cond_neg in (
            ([1.0, 0.8, 0.7, 0.9], [0.0, 0.25, 0.4, 0.3]),
            ([0.8, 0.7, 0.5, 0.9], [0.2, 0.3, 0.5, 0.1]),
        ):
            for p in (0.3, 0.5, 0.6):
                moments = _class_conditional_moments(np.array(cond_pos), np.array(cond_neg), p)
                self._assert_same(moments, p)
