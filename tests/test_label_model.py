import math

import numpy as np
import pytest

from labelmoments import (
    ContractError,
    IsingModel,
    SourceMatrix,
    UnseenConfigurationError,
    diagnostics,
    sample,
)
from labelmoments.estimators import ClassConditionalEstimate, SampleMoments
from labelmoments.ising import conditional_entropy
from labelmoments.label_model import (
    LOSS_FLOOR,
    ROW_BLOCK,
    LabeledStates,
    LabelModel,
    classification_scores,
    cross_entropy,
    empirical_config_dist,
    f1_score,
    posterior,
)

from conftest import brute_joint


class TestConfigDistribution:
    def test_uniform_counts(self):
        values = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        dist = empirical_config_dist(SourceMatrix(values))
        np.testing.assert_allclose(dist, 0.25)

    def test_unseen_without_smoothing_is_zero(self):
        values = np.array([[1, 1], [1, 1], [-1, 1], [1, -1]])
        dist = empirical_config_dist(SourceMatrix(values))
        assert dist[0] == 0.0  # (-1, -1) never observed

    def test_laplace_smoothing(self):
        values = np.array([[1, 1], [1, 1], [-1, 1], [1, -1]])
        dist = empirical_config_dist(SourceMatrix(values), laplace=1.0)
        assert dist[0] == pytest.approx(1 / 8)
        assert dist.sum() == pytest.approx(1.0)
        assert (dist > 0).all()

    def test_pseudocount_validation(self):
        values = np.array([[1, 1]])
        with pytest.raises(ContractError):
            empirical_config_dist(SourceMatrix(values), laplace=0.0)


class TestPosterior:
    def test_single_perfect_source(self):
        model = LabelModel.from_accuracies([1.0], 0.5)
        q = posterior(model, np.array([[1]]))
        assert q[0] == pytest.approx(1.0, abs=1e-6)

    def test_two_source_closed_form(self):
        model = LabelModel.from_accuracies([0.6, 0.6], 0.5)
        q = posterior(model, np.array([[1, 1]]))
        assert q[0] == pytest.approx(0.64 / 0.68, abs=1e-12)

    def test_normalized_mode_sums_to_one(self):
        rng = np.random.default_rng(2)
        model = LabelModel.from_accuracies(rng.uniform(-0.9, 0.9, 6), 0.35)
        rows = rng.choice([-1, 1], size=(50, 6))
        lp, ln = model.log_posteriors(rows)
        np.testing.assert_allclose(np.exp(lp) + np.exp(ln), 1.0, atol=1e-12)

    def test_label_relabeling_symmetry(self):
        # relabeling Y: negating the rows while swapping the class balance
        # (equivalently, negating the accuracies with rows fixed) sends the
        # posterior q to 1 - q; negating rows AND accuracies together cancels
        rng = np.random.default_rng(3)
        acc = rng.uniform(-0.9, 0.9, 5)
        rows = rng.choice([-1, 1], size=(30, 5))
        q = posterior(LabelModel.from_accuracies(acc, 0.3), rows)
        q_rows = posterior(LabelModel.from_accuracies(acc, 0.7), -rows)
        q_acc = posterior(LabelModel.from_accuracies(-acc, 0.7), rows)
        np.testing.assert_allclose(q_rows, 1.0 - q, atol=1e-12)
        np.testing.assert_allclose(q_acc, 1.0 - q, atol=1e-12)
        q_both = posterior(LabelModel.from_accuracies(-acc, 0.3), -rows)
        np.testing.assert_allclose(q_both, q, atol=1e-12)

    def test_flip_monotonicity(self):
        rng = np.random.default_rng(4)
        acc = rng.uniform(0.05, 0.9, 6)
        model = LabelModel.from_accuracies(acc, 0.5)
        rows = rng.choice([-1, 1], size=(40, 6))
        base = posterior(model, rows)
        for i in range(6):
            flipped = rows.copy()
            flipped[:, i] = 1
            assert (posterior(model, flipped) >= base - 1e-12).all()

    def test_empirical_mode_literal_value(self):
        # the empirical-denominator form is not normalized: with an
        # undersized denominator the reported value exceeds one
        dist = np.array([0.25, 0.25, 0.25, 0.25])
        model = LabelModel.from_accuracies(
            [0.8, 0.8], 0.5, mode="empirical", config_dist=dist
        )
        q = posterior(model, np.array([[1, 1]]))
        expected = (0.9 * 0.9 * 0.5) / 0.25
        assert q[0] == pytest.approx(expected, abs=1e-12)
        assert q[0] > 1.0

    def test_empirical_mode_unseen_configuration(self):
        dist = np.array([0.5, 0.5, 0.0, 0.0])
        model = LabelModel.from_accuracies(
            [0.5, 0.5], 0.5, mode="empirical", config_dist=dist
        )
        with pytest.raises(UnseenConfigurationError):
            posterior(model, np.array([[-1, 1]]))

    def test_rows_equal_the_table_at_their_configurations(self):
        # any number of rows, not only whole blocks, and random conditionals
        rng = np.random.default_rng(43)
        for trial in range(320):
            m, n = int(rng.integers(1, 14)), int(rng.integers(1, 3000))
            n += n % 16 == 0
            values = rng.choice([-1, 1], size=(n, m))
            cond_pos, cond_neg = rng.uniform(1e-9, 1 - 1e-9, (2, m)) ** rng.uniform(0.2, 5)
            est = ClassConditionalEstimate.from_conditionals(cond_pos, cond_neg, rng.uniform(0.1, 0.9), {})
            model = LabelModel.from_class_conditional(est)
            if trial % 4 == 0:
                dist = empirical_config_dist(SourceMatrix(values), laplace=rng.uniform(0.1, 2.0))
                model = LabelModel.from_class_conditional(est, "empirical", dist)
            configs = (values > 0) @ (1 << np.arange(m))
            table_pos, table_neg = model.log_posterior_table()
            lp_pos, lp_neg = model.log_posteriors(values)
            np.testing.assert_array_equal(lp_pos, table_pos[configs])
            np.testing.assert_array_equal(lp_neg, table_neg[configs])
            np.testing.assert_array_equal(posterior(model, values), np.exp(table_pos[configs]))

    def test_empirical_mode_requires_dist(self):
        with pytest.raises(ContractError):
            LabelModel.from_accuracies([0.5], 0.5, mode="empirical")


class TestInferenceBiasExample:
    def test_log_ratio_under_dependence(self):
        # two dependent sources; fit with the true accuracies.  With the true
        # configuration marginal as denominator, the expected log-ratio of
        # true to fitted posterior is exactly the conditional mutual
        # information; the normalized mode differs by the marginal KL.
        theta = [0.7, 0.5]
        edges = [(0, 1, 0.4)]
        model = IsingModel.from_parameters(theta, edges)
        diag = diagnostics(model)
        fitted = LabelModel.from_accuracies(
            diag.accuracies, 0.5, mode="empirical",
            config_dist=model.lambda_marginal(),
        )
        lp_pos, lp_neg = fitted.log_posterior_table()
        blocks = model.joint.reshape(2, -1)
        table, _ = brute_joint(theta, edges)
        # E[log Pr(y|s)] via brute force
        truth = 0.0
        for (y, s), p in table.items():
            cond = p / sum(table[(yy, s)] for yy in (-1, 1))
            truth += p * math.log(cond)
        fitted_term = float(np.dot(blocks[1], lp_pos) + np.dot(blocks[0], lp_neg))
        assert truth - fitted_term == pytest.approx(diag.inference_bias, abs=1e-12)

        normalized = LabelModel.from_accuracies(diag.accuracies, 0.5)
        lp_pos_n, lp_neg_n = normalized.log_posterior_table()
        fitted_norm = float(np.dot(blocks[1], lp_pos_n) + np.dot(blocks[0], lp_neg_n))
        p_lambda = model.lambda_marginal()
        product_marginal = np.exp(np.logaddexp(*normalized._log_numerators(
            np.array([[(i >> k) & 1 for k in range(2)] for i in range(4)], dtype=float)
        )))
        marginal_kl = float(
            np.dot(p_lambda, np.log(p_lambda) - np.log(product_marginal))
        )
        assert truth - fitted_norm == pytest.approx(
            diag.inference_bias - marginal_kl, abs=1e-12
        )
        assert marginal_kl > 0


class TestCrossEntropy:
    def test_near_zero_for_perfect_model(self):
        values = np.array([[1], [-1], [1]])
        labels = np.array([1, -1, 1])
        model = LabelModel.from_accuracies([1.0], 0.5)
        assert cross_entropy(model, SourceMatrix(values, labels).state_index()) < 1e-5

    def test_uninformative_model_gives_log_two(self):
        values = np.array([[1], [-1], [1], [-1]])
        labels = np.array([1, 1, -1, -1])
        model = LabelModel.from_accuracies([0.0], 0.5)
        assert cross_entropy(model, SourceMatrix(values, labels).state_index()) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_loss_floor_keeps_losses_finite(self):
        values = np.array([[1, 1, 1, 1]])
        labels = np.array([-1])
        model = LabelModel.from_accuracies([1.0] * 4, 0.5)
        loss = cross_entropy(model, SourceMatrix(values, labels).state_index())
        assert np.isfinite(loss)

    def test_large_sample_approaches_conditional_entropy(self, synth_model_indep):
        data = sample(synth_model_indep, 10_000, 55)
        est = SampleMoments.from_source_matrix(data).acc
        model = LabelModel.from_accuracies(est, 0.5)
        loss = cross_entropy(model, data.state_index())
        assert abs(loss - conditional_entropy(synth_model_indep)) <= 0.01


class TestScores:
    def test_all_correct(self):
        values = np.array([[1], [-1], [1], [-1]])
        labels = np.array([1, -1, 1, -1])
        model = LabelModel.from_accuracies([0.9], 0.5)
        assert f1_score(model, SourceMatrix(values, labels).state_index()) == 1.0

    def test_all_positive_predictions(self):
        # predictor always votes +1; half the labels are positive
        values = np.array([[1], [1], [1], [1]])
        labels = np.array([1, 1, -1, -1])
        model = LabelModel.from_accuracies([0.9], 0.5)
        scores = classification_scores(model, SourceMatrix(values, labels).state_index())
        assert scores["precision"] == pytest.approx(0.5)
        assert scores["recall"] == pytest.approx(1.0)
        assert scores["f1"] == pytest.approx(2 / 3)
        assert not scores["degenerate"]

    def test_degenerate_flag(self):
        values = np.array([[-1], [-1]])
        labels = np.array([-1, -1])
        model = LabelModel.from_accuracies([0.9], 0.5)
        scores = classification_scores(model, SourceMatrix(values, labels).state_index())
        assert scores["f1"] == 0.0
        assert scores["degenerate"]


# ---------------------------------------------------------------------------
# Row-wise scoring oracle: every row's posterior from its own product over
# the row's bits, without the package's posterior code or its configuration
# table.  The rows are padded with zero rows to whole blocks of ROW_BLOCK,
# as the package pads them, so that BLAS sums each row in the same order and
# the oracle equals the package bit for bit by construction.
# ---------------------------------------------------------------------------


def _row_log_posteriors(model, values):
    n, m = values.shape
    bits = np.zeros((n + -n % ROW_BLOCK, m))
    bits[:n] = values > 0
    off = 1.0 - bits
    lw_pos = (bits @ np.log(model.cond_pos) + off @ np.log1p(-model.cond_pos)
              + np.log(model.class_balance))[:n]
    lw_neg = (bits @ np.log(model.cond_neg) + off @ np.log1p(-model.cond_neg)
              + np.log1p(-model.class_balance))[:n]
    if model.mode == "normalized":
        denom = np.logaddexp(lw_pos, lw_neg)
    else:
        configs = sum((values[:, k] > 0).astype(np.int64) << k for k in range(m))
        denom = np.log(model.config_dist[configs])
    return lw_pos - denom, lw_neg - denom


def _row_cross_entropy(model, data, floor=LOSS_FLOOR):
    labels = data.require_labels()
    lp_pos, lp_neg = _row_log_posteriors(model, data.values)
    if floor > 0.0:
        lp_pos = np.maximum(lp_pos, np.log(floor))
        lp_neg = np.maximum(lp_neg, np.log(floor))
    return float(-np.where(labels > 0, lp_pos, lp_neg).mean())


def _row_f1(model, data, threshold=0.5):
    pred = np.exp(_row_log_posteriors(model, data.values)[0]) >= threshold
    actual = data.require_labels() > 0
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _random_rows(rng, n, m):
    return SourceMatrix(rng.choice([-1, 1], size=(n, m)), rng.choice([-1, 1], size=n))


class TestScoresMatchRowOracle:
    """Scoring through the state table equals the row-wise oracle exactly."""

    @pytest.mark.parametrize("m, n", [(3, 1), (6, 37), (12, 2500), (12, 10_001)])
    def test_normalized_mode(self, m, n):
        rng = np.random.default_rng(m * 1000 + n)
        data = _random_rows(rng, n, m)
        states = data.state_index()
        cond_pos, cond_neg = rng.uniform(0.05, 0.95, (2, m))
        est = ClassConditionalEstimate.from_conditionals(cond_pos, cond_neg, 0.4, {})
        for model in (
            LabelModel.from_class_conditional(est),
            LabelModel.from_accuracies(rng.uniform(-0.9, 0.9, m), 0.6),
            LabelModel.from_accuracies(np.ones(m), 0.5),  # the floor is active
        ):
            for floor in (LOSS_FLOOR, 0.0):
                assert cross_entropy(model, states, floor) == _row_cross_entropy(model, data, floor)
            for threshold in (0.3, 0.5, 0.9):
                assert f1_score(model, states, threshold) == _row_f1(model, data, threshold)

    @pytest.mark.parametrize("m, n", [(4, 50), (10, 3000)])
    def test_empirical_mode_with_full_support(self, m, n):
        rng = np.random.default_rng(m + n)
        data = _random_rows(rng, n, m)
        dist = empirical_config_dist(data, laplace=0.5)
        model = LabelModel.from_accuracies(
            rng.uniform(0.1, 0.9, m), 0.5, mode="empirical", config_dist=dist
        )
        for floor in (LOSS_FLOOR, 0.0):
            assert cross_entropy(model, data.state_index(), floor) == _row_cross_entropy(
                model, data, floor
            )
        assert f1_score(model, data.state_index()) == _row_f1(model, data)

    def test_one_gather_equals_two_gathers(self):
        # cross_entropy gathers each row from the two tables joined end to end;
        # the np.where of one gather per table keeps the same values in order
        def two_gathers(model, states, floor):
            lp_pos, lp_neg = model.log_posterior_table()
            if floor > 0.0:
                lp_pos = np.maximum(lp_pos, np.log(floor))
                lp_neg = np.maximum(lp_neg, np.log(floor))
            config, positive = states & ((1 << model.m) - 1), (states >> model.m) > 0
            return float(-np.where(positive, lp_pos[config], lp_neg[config]).mean())

        rng = np.random.default_rng(13)
        for trial in range(40):
            m, n = int(rng.integers(1, 11)), int(rng.integers(1, 3000))
            data = _random_rows(rng, n, m)
            cond_pos, cond_neg = rng.uniform(1e-9, 1 - 1e-9, (2, m)) ** rng.uniform(0.2, 5)
            est = ClassConditionalEstimate.from_conditionals(cond_pos, cond_neg, rng.uniform(0.1, 0.9), {})
            models = [LabelModel.from_class_conditional(est)]
            if trial % 4 == 0:
                dist = empirical_config_dist(data, laplace=rng.uniform(0.1, 2.0))
                models.append(LabelModel.from_class_conditional(est, "empirical", dist))
            for model in models:
                for floor in (LOSS_FLOOR, 1e-3, 0.0):
                    states = data.state_index()
                    assert cross_entropy(model, states, floor) == two_gathers(model, states, floor)

    def test_empirical_mode_refuses_only_scored_configurations_of_zero_mass(self):
        # configuration 0, (-1, -1), is unseen: the seen rows score alike by
        # row and by split, a row of configuration 0 is refused by both, and
        # the table, which holds every configuration, cannot be built
        data = SourceMatrix(np.array([[1, 1], [1, -1], [-1, 1]]), np.array([1, -1, 1]))
        model = LabelModel.from_accuracies(
            [0.6, 0.6], 0.5, mode="empirical", config_dist=empirical_config_dist(data)
        )
        seen_pos, _ = _row_log_posteriors(model, data.values)
        np.testing.assert_array_equal(posterior(model, data), np.exp(seen_pos))
        assert cross_entropy(model, data.state_index()) == _row_cross_entropy(model, data)
        assert f1_score(model, data.state_index()) == _row_f1(model, data)
        unseen = SourceMatrix(np.array([[1, 1], [-1, -1]]), np.array([1, -1]))
        for score in (posterior, cross_entropy, f1_score):
            rows = unseen if score is posterior else unseen.state_index()
            with pytest.raises(UnseenConfigurationError, match="configuration 0 has zero"):
                score(model, rows)
        with pytest.raises(UnseenConfigurationError, match="configuration 0 has zero"):
            model.log_posterior_table()

    @pytest.mark.parametrize("states", [[0, 8], [-1], [[0, 1]], [0.0, 1.0]])
    def test_rejects_bad_state_indices(self, states):
        model = LabelModel.from_accuracies([0.6, 0.6], 0.5)
        with pytest.raises(ContractError):
            cross_entropy(model, np.array(states))

    @pytest.mark.parametrize("score", [cross_entropy, f1_score, classification_scores])
    def test_rejects_empty_rows(self, score):
        # no mean of an empty slice, and no F1 of 0.0 for rows that were never scored
        model = LabelModel.from_accuracies([0.6, 0.6], 0.5)
        empty = np.array([], dtype=np.int64)
        for rows in (empty, LabeledStates.from_states(empty, 2)):
            with pytest.raises(ContractError, match="at least one labeled row"):
                score(model, rows)

    def test_posterior_table_is_built_once_per_model(self, monkeypatch):
        model = LabelModel.from_accuracies([0.6, 0.2, 0.4], 0.5)
        builds = []
        original = LabelModel._log_numerators

        def counted(self, bits):
            builds.append(bits.shape)
            return original(self, bits)

        monkeypatch.setattr(LabelModel, "_log_numerators", counted)
        states = np.arange(16)
        loss, f1 = cross_entropy(model, states), f1_score(model, states)
        assert len(builds) == 1
        lp_pos, lp_neg = model.log_posterior_table()
        assert not lp_pos.flags.writeable and not lp_neg.flags.writeable
        fresh = LabelModel.from_accuracies([0.6, 0.2, 0.4], 0.5)
        assert (cross_entropy(fresh, states), f1_score(fresh, states)) == (loss, f1)
        assert len(builds) == 2


class TestLabeledStates:
    """Rows decoded once: posteriors at the configurations the rows hold."""

    @staticmethod
    def _model(rng, m):
        cond_pos, cond_neg = rng.uniform(1e-9, 1 - 1e-9, (2, m)) ** rng.uniform(0.2, 5)
        est = ClassConditionalEstimate.from_conditionals(cond_pos, cond_neg, rng.uniform(0.1, 0.9), {})
        return LabelModel.from_class_conditional(est)

    def test_posteriors_at_the_rows_configurations_equal_the_table(self):
        # any number of configurations, not only whole blocks of rows, and
        # every m up to the case study's 12 sources and past it
        rng = np.random.default_rng(29)
        for trial in range(300):
            m = int(rng.integers(1, 14))
            k = int(rng.integers(1, (1 << m) + 1))
            configs = rng.choice(1 << m, k, replace=False)
            states = rng.choice(configs, 3 * k) + (rng.integers(0, 2, 3 * k) << m)
            decoded = LabeledStates.from_states(states, m)
            model = self._model(rng, m)
            lp_pos, lp_neg = model._log_posteriors_of(decoded)
            table_pos, table_neg = model.log_posterior_table()
            np.testing.assert_array_equal(lp_pos, table_pos[decoded.configs])
            np.testing.assert_array_equal(lp_neg, table_neg[decoded.configs])
            joint = np.concatenate((lp_neg, lp_pos))[decoded.rows]
            np.testing.assert_array_equal(joint, np.concatenate((table_neg, table_pos))[states])
            assert decoded.pos.sum() + decoded.neg.sum() == states.size

    def test_decoded_rows_score_as_their_states(self):
        rng = np.random.default_rng(31)
        data = _random_rows(rng, 777, 9)
        states = data.state_index()
        decoded = LabeledStates.from_states(states, 9)
        model = self._model(rng, 9)
        for floor in (LOSS_FLOOR, 0.0):
            assert cross_entropy(model, decoded, floor) == _row_cross_entropy(model, data, floor)
        for threshold in (0.3, 0.5, 0.9):
            assert classification_scores(model, decoded, threshold) == classification_scores(
                model, states, threshold
            )
            assert f1_score(model, decoded, threshold) == _row_f1(model, data, threshold)
        with pytest.raises(ContractError, match="states of 9 sources, the model 8"):
            cross_entropy(self._model(rng, 8), decoded)

    def test_a_split_computes_a_models_posteriors_once(self, monkeypatch):
        builds, original = [], LabelModel._log_numerators

        def counted(self, bits):
            builds.append(bits.shape)
            return original(self, bits)

        monkeypatch.setattr(LabelModel, "_log_numerators", counted)
        rng = np.random.default_rng(37)
        decoded = LabeledStates.from_states(np.array([3, 70, 1000, 70 + 2048]), 11)
        model = self._model(rng, 11)
        scores = cross_entropy(model, decoded), f1_score(model, decoded)
        # three configurations, padded to one block of rows
        assert builds == [(16, 11)]
        assert (cross_entropy(model, decoded), f1_score(model, decoded)) == scores
        assert len(builds) == 1
        other = LabeledStates.from_states(np.array([3, 70]), 11)
        cross_entropy(model, other), cross_entropy(model, decoded)
        assert builds[1:] == [(16, 11), (16, 11)]
