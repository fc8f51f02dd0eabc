import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelmoments import (
    CalibrationError,
    CapacityError,
    ContractError,
    IsingModel,
    calibrate,
    diagnostics,
    misspecification_gap,
    sample,
)
from labelmoments.analysis import decompose
from labelmoments.estimators import SampleMoments
from labelmoments.ising import _pair_stats, conditional_entropy, inference_bias
from labelmoments.label_model import LabelModel
from labelmoments.states import sign_rows

from conftest import (
    SYNTH_ACCURACIES,
    SYNTH_EDGES,
    brute_accuracies,
    brute_joint,
    brute_moment,
    brute_pair_moments,
)


class TestEnumeration:
    def test_zero_potentials_uniform(self):
        model = IsingModel.from_parameters([0.0])
        np.testing.assert_allclose(model.joint, 0.25, atol=1e-15)

    def test_single_source_boltzmann(self):
        t = 0.9
        model = IsingModel.from_parameters([t])
        d = diagnostics(model)
        # Pr(s1 * Y = 1) = e^t / (e^t + e^-t)
        expected = math.exp(t) / (math.exp(t) + math.exp(-t))
        assert abs((1 + d.accuracies[0]) / 2 - expected) < 1e-14

    def test_matches_per_state_evaluation(self):
        rng = np.random.default_rng(42)
        theta = rng.uniform(0.1, 1.0, 3)
        edge_t = float(rng.uniform(0.1, 0.5))
        model = IsingModel.from_parameters(theta, [(0, 1, edge_t)], theta_y=0.2)
        table, _ = brute_joint(list(theta), [(0, 1, edge_t)], theta_y=0.2)
        for (y, s), p in table.items():
            idx = sum((1 << i) for i, v in enumerate(s) if v > 0)
            idx += (1 << 3) if y > 0 else 0
            assert abs(model.joint[idx] - p) < 1e-14

    def test_joint_sums_to_one(self, synth_model_dep):
        assert abs(synth_model_dep.joint.sum() - 1.0) < 1e-12

    def test_density_form_on_random_states(self, synth_model_dep):
        # table entry times the partition function equals the exponential form
        model = synth_model_dep
        z = math.exp(model.log_partition)
        rng = np.random.default_rng(0)
        for idx in rng.integers(0, model.joint.size, 100):
            y = 1 if (idx >> model.m) & 1 else -1
            s = [1 if (idx >> i) & 1 else -1 for i in range(model.m)]
            energy = model.theta_y * y
            energy += sum(model.theta[i] * s[i] * y for i in range(model.m))
            energy += sum(t * s[i] * s[j] for i, j, t in model.edges)
            assert abs(model.joint[idx] * z - math.exp(energy)) < 1e-10 * z

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            IsingModel.from_parameters(np.full(25, 0.5))

    def test_degree_constraint(self):
        with pytest.raises(ContractError):
            IsingModel.from_parameters([0.5] * 4, [(0, 1, 0.1), (1, 2, 0.1)])

    def test_negative_potentials_rejected(self):
        with pytest.raises(ContractError):
            IsingModel.from_parameters([-0.1, 0.5])
        with pytest.raises(ContractError):
            IsingModel.from_parameters([0.1, 0.5], [(0, 1, -0.2)])


class TestDiagnostics:
    def test_edgeless_accuracies_are_tanh(self):
        theta = [0.3, 0.8, 1.2]
        d = diagnostics(IsingModel.from_parameters(theta))
        np.testing.assert_allclose(d.accuracies, np.tanh(theta), atol=1e-14)

    def test_edgeless_gaps_vanish(self):
        d = diagnostics(IsingModel.from_parameters([0.4, 0.6, 0.9, 0.2]))
        m = d.pair_moments - np.outer(d.accuracies, d.accuracies)
        off = m[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() < 1e-12

    def test_nonedge_pairs_factorize(self, synth_diag_dep):
        d = synth_diag_dep
        edge_set = {tuple(e) for e in SYNTH_EDGES}
        for i in range(10):
            for j in range(i + 1, 10):
                gap = d.pair_moments[i, j] - d.accuracies[i] * d.accuracies[j]
                if (i, j) in edge_set:
                    assert gap > 0.09
                else:
                    assert abs(gap) < 1e-12

    def test_synthetic_targets_reproduced(self, synth_diag_dep):
        np.testing.assert_allclose(
            synth_diag_dep.accuracies, SYNTH_ACCURACIES, atol=1e-6
        )
        for gap in synth_diag_dep.edge_gaps.values():
            assert abs(gap - 0.1) < 1e-6

    def test_entropy_and_bias_ranges(self, synth_diag_dep):
        assert 0.0 <= synth_diag_dep.cond_entropy <= math.log(2)
        assert synth_diag_dep.inference_bias > 0

    def test_matches_brute_force(self):
        theta = [0.7, 0.5, 0.9, 0.4]
        edges = [(1, 3, 0.3)]
        model = IsingModel.from_parameters(theta, edges, theta_y=0.25)
        table, _ = brute_joint(theta, edges, theta_y=0.25)
        d = diagnostics(model)
        np.testing.assert_allclose(d.accuracies, brute_accuracies(table, 4), atol=1e-13)
        np.testing.assert_allclose(
            d.pair_moments, brute_pair_moments(table, 4), atol=1e-13
        )
        balance = brute_moment(table, lambda y, s: 1.0 if y > 0 else 0.0)
        assert abs(d.class_balance - balance) < 1e-13


# m=14: the SYNTH_ACCURACIES roster plus four sources, five edges at gap 0.1
_THREADS_SCRIPT = textwrap.dedent("""
    import dataclasses
    import numpy as np
    from labelmoments import calibrate, diagnostics
    from labelmoments.experiments import TrialEngine
    from labelmoments.ising import conditional_entropy

    acc = %r + [0.5822, 0.7, 0.61, 0.66]
    model = calibrate(acc, %r, 0.1)
    diag = diagnostics(model)
    for f in dataclasses.fields(diag):
        v = getattr(diag, f.name)
        print(f.name, repr(v.tolist() if isinstance(v, np.ndarray) else v))
    print(repr(conditional_entropy(model)))
    print(repr(TrialEngine(model, diag).labeled_excess(20000)))
""" % (SYNTH_ACCURACIES, SYNTH_EDGES))


def _openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        return False
    return "openblas" in blas.lower()


@pytest.mark.skipif(
    not _openblas() or (os.cpu_count() or 1) < 2,
    reason="the thread count can only matter to a multi-threaded OpenBLAS",
)
def test_exact_reductions_ignore_the_blas_thread_count():
    # OpenBLAS splits a long dot across threads, which moved the last bits of
    # min_accuracy at m=14 between one and two threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outputs[0] == outputs[1]


class TestSignRows:
    """The one state-sign table against the brute-force joint, which shares no code with it."""

    THETA = [0.7, 0.5, 0.9, 0.4, 0.2]
    EDGES = [(1, 3, 0.3), (0, 4, 0.6)]

    @staticmethod
    def _state_index(y, s):
        return sum(1 << k for k, v in enumerate(s) if v > 0) + ((y > 0) << len(s))

    def test_rows_hold_every_state_sign(self):
        table, _ = brute_joint(self.THETA, self.EDGES)
        rows = sign_rows(5)
        assert rows.shape == (6, 64) and rows.flags.c_contiguous
        for (y, s), _p in table.items():
            idx = self._state_index(y, s)
            assert list(rows[:5, idx]) == list(s) and rows[5, idx] == y

    def test_moments_from_brute_force_counts(self):
        table, _ = brute_joint(self.THETA, self.EDGES)
        counts = np.zeros(64)
        for (y, s), p in table.items():
            counts[self._state_index(y, s)] = p
        mom = SampleMoments.from_state_counts(counts, 5)
        means = [brute_moment(table, lambda y, s, i=i: s[i]) for i in range(5)]
        np.testing.assert_allclose(mom.means, means, atol=1e-13)
        np.testing.assert_allclose(mom.acc, brute_accuracies(table, 5), atol=1e-13)
        np.testing.assert_allclose(mom.pair, brute_pair_moments(table, 5), atol=1e-13)


class TestSharedExactTerms:
    def test_bias_and_entropy_shared_with_decomposition(self, synth_model_dep, synth_diag_dep):
        assert inference_bias(synth_model_dep) == synth_diag_dep.inference_bias
        assert conditional_entropy(synth_model_dep) == synth_diag_dep.cond_entropy
        fitted = LabelModel.from_accuracies(
            synth_diag_dep.accuracies, 0.5,
            mode="empirical", config_dist=synth_model_dep.lambda_marginal(),
        )
        rep = decompose(synth_model_dep, fitted)
        assert rep.inference_bias == synth_diag_dep.inference_bias
        assert rep.irreducible == synth_diag_dep.cond_entropy

    def test_conditional_entropy_matches_brute_force(self):
        theta, edges = [0.7, 0.5, 0.9, 0.4], [(1, 3, 0.3)]
        table, _ = brute_joint(theta, edges, theta_y=0.25)
        h = 0.0
        for s in {s for _y, s in table}:
            pair = [table[(y, s)] for y in (-1, 1)]
            h -= sum(p * math.log(p / sum(pair)) for p in pair)
        model = IsingModel.from_parameters(theta, edges, theta_y=0.25)
        assert conditional_entropy(model) == pytest.approx(h, abs=1e-13)

    def test_mean_triplet_floors_tiny_denominators(self):
        # Source 4 is nearly uninformative, so every pair moment with it lies
        # in (0, 1e-6): those witness pairs are degenerate for the bound
        # constant a_bar exactly as for the triplet estimator.
        model = IsingModel.from_parameters([0.5, 0.5, 1.4, 0.6, 1e-6], [(0, 1, 0.6)])
        d = diagnostics(model)
        pair = d.pair_moments
        assert 0.0 < d.min_pair_moment < 1e-6
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
        assert d.max_mean_triplet == pytest.approx(max(floored), abs=1e-15)
        assert d.max_mean_triplet < max(every) - 0.01


class TestSymmetry:
    def test_conditional_symmetry_on_random_models(self):
        # Pr(s_i=1 | Y=1) = Pr(s_i=-1 | Y=-1) = (1 + a_i) / 2 exactly
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            theta = rng.uniform(0.0, 1.5, m)
            edges = []
            if m >= 2 and rng.random() < 0.7:
                edges = [(0, 1, float(rng.uniform(0.0, 0.8)))]
            theta_y = float(rng.uniform(-0.8, 0.8))
            table, _ = brute_joint(list(theta), edges, theta_y)
            acc = brute_accuracies(table, m)
            p_pos = brute_moment(table, lambda y, s: 1.0 if y > 0 else 0.0)
            for i in range(m):
                pos = (
                    brute_moment(
                        table, lambda y, s, i=i: 1.0 if (y > 0 and s[i] > 0) else 0.0
                    )
                    / p_pos
                )
                neg = brute_moment(
                    table, lambda y, s, i=i: 1.0 if (y < 0 and s[i] < 0) else 0.0
                ) / (1 - p_pos)
                assert abs(pos - (1 + acc[i]) / 2) < 1e-12
                assert abs(neg - (1 + acc[i]) / 2) < 1e-12


class TestMisspecificationGap:
    def test_zero_coupling(self):
        assert misspecification_gap(0.5, 0.7, 0.0) == 0.0

    def test_frozen_value(self):
        # brute-force two-source enumeration gives this value for (.3, .4, .2)
        assert abs(misspecification_gap(0.3, 0.4, 0.2) - 0.14801245933803286) < 1e-12

    def test_symmetric_in_source_potentials(self):
        assert misspecification_gap(0.3, 0.7, 0.25) == pytest.approx(
            misspecification_gap(0.7, 0.3, 0.25), abs=1e-15
        )

    def test_grid_against_two_source_enumeration(self):
        grid = [0.05, 0.3, 0.8, 1.5, 3.0]
        for ti in grid:
            for tj in grid:
                for tij in grid:
                    table, _ = brute_joint([ti, tj], [(0, 1, tij)])
                    acc = brute_accuracies(table, 2)
                    pair = brute_moment(table, lambda y, s: s[0] * s[1])
                    want = pair - acc[0] * acc[1]
                    got = misspecification_gap(ti, tj, tij)
                    assert abs(got - want) < 1e-9
                    assert 0.0 < got < 1.0

    def test_exact_with_extra_edges_elsewhere(self):
        # the pair factors out of the rest of the graph, so the closed form
        # stays exact when other edges and a label potential are present
        theta = [0.9, 0.8, 0.6, 0.7, 0.5, 0.8]
        edges = [(0, 1, 0.25), (2, 3, 0.4), (4, 5, 0.15)]
        table, _ = brute_joint(theta, edges, theta_y=0.3)
        acc = brute_accuracies(table, 6)
        pair = brute_moment(table, lambda y, s: s[0] * s[1])
        want = pair - acc[0] * acc[1]
        assert abs(misspecification_gap(0.9, 0.8, 0.25) - want) < 1e-12

    def test_monotone_in_coupling(self):
        for ti, tj in [(0.2, 0.4), (0.7, 0.9), (1.2, 0.3)]:
            vals = [
                misspecification_gap(ti, tj, t) for t in np.linspace(0.0, 2.0, 15)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_parameters(self):
        with pytest.raises(ContractError):
            misspecification_gap(-0.1, 0.5, 0.2)


class TestCalibration:
    def test_edgeless_closed_form(self):
        targets = [0.62, 0.71, 0.55]
        model = calibrate(targets, [], 0.0)
        np.testing.assert_allclose(model.theta, np.arctanh(targets), atol=1e-12)
        d = diagnostics(model)
        np.testing.assert_allclose(d.accuracies, targets, atol=1e-12)

    def test_zero_gap_reduces_to_edgeless(self):
        targets = [0.62, 0.71, 0.55]
        model = calibrate(targets, [(0, 1)], 0.0)
        assert model.edges == ()
        np.testing.assert_allclose(model.theta, np.arctanh(targets), atol=1e-12)

    def test_synthetic_protocol_hits_all_targets(self, synth_model_dep):
        d = diagnostics(synth_model_dep)
        np.testing.assert_allclose(d.accuracies, SYNTH_ACCURACIES, atol=1e-6)
        assert len(d.edge_gaps) == 5
        for gap in d.edge_gaps.values():
            assert abs(gap - 0.1) < 1e-6

    def test_class_balance_target(self):
        model = calibrate([0.7, 0.6, 0.65], [], class_balance=0.7)
        assert abs(model.class_balance() - 0.7) < 1e-9
        # source moments are unaffected by the label potential
        d = diagnostics(model)
        np.testing.assert_allclose(d.accuracies, [0.7, 0.6, 0.65], atol=1e-9)

    def test_infeasible_targets_raise_with_residuals(self):
        with pytest.raises(CalibrationError) as err:
            calibrate([0.9, 0.55], [(0, 1)], 0.2)
        assert err.value.residuals is not None

    def test_target_validation(self):
        with pytest.raises(ContractError):
            calibrate([0.4, 0.7], [], 0.0)
        with pytest.raises(ContractError):
            calibrate([0.7, 0.7], [], class_balance=1.5)

    @settings(max_examples=20, deadline=None)
    @given(
        ti=st.floats(0.05, 2.0),
        tj=st.floats(0.05, 2.0),
        tij=st.floats(0.0, 1.0),
    )
    def test_pair_stats_match_enumeration(self, ti, tj, tij):
        ai, aj, gap = _pair_stats(ti, tj, tij)
        table, _ = brute_joint([ti, tj], [(0, 1, tij)])
        acc = brute_accuracies(table, 2)
        pair = brute_moment(table, lambda y, s: s[0] * s[1])
        assert abs(ai - acc[0]) < 1e-12
        assert abs(aj - acc[1]) < 1e-12
        assert abs(gap - (pair - acc[0] * acc[1])) < 1e-12


class TestSampling:
    def test_shape_and_determinism(self, synth_model_dep):
        with pytest.raises(ContractError):
            sample(synth_model_dep, 0, 1)
        one = sample(synth_model_dep, 1, 5)
        assert one.values.shape == (1, 10) and one.labels.shape == (1,)
        a = sample(synth_model_dep, 300, 11)
        b = sample(synth_model_dep, 300, 11)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert not np.array_equal(a.values, sample(synth_model_dep, 300, 12).values)

    def test_pair_moment_coverage(self, synth_model_dep, synth_diag_dep):
        # Var of an empirical pair moment is (1 - M^2)/n; over many runs the
        # fraction of (pair, run) events outside three standard deviations
        # stays within the normal-tail budget.
        n, runs = 200_000, 40
        pair_true = synth_diag_dep.pair_moments
        sd = np.sqrt((1.0 - pair_true**2) / n)
        iu = np.triu_indices(10, k=1)
        violations = 0
        for run in range(runs):
            data = sample(synth_model_dep, n, 1000 + run)
            x = data.values.astype(np.float64)
            emp = (x.T @ x) / n
            violations += int(
                (np.abs(emp[iu] - pair_true[iu]) > 3.0 * sd[iu]).sum()
            )
        assert violations <= 0.01 * runs * len(iu[0])

    def test_sampled_accuracies_match(self, synth_model_dep, synth_diag_dep):
        data = sample(synth_model_dep, 100_000, 77)
        emp = (data.values * data.labels[:, None]).mean(axis=0)
        assert np.abs(emp - synth_diag_dep.accuracies).max() < 0.02


class TestSerialization:
    def test_json_round_trip(self, tmp_path, synth_model_dep):
        path = tmp_path / "model.json"
        synth_model_dep.to_json(path)
        back = IsingModel.from_json(path)
        assert back.m == synth_model_dep.m
        assert back.theta_y == synth_model_dep.theta_y
        np.testing.assert_allclose(back.theta, synth_model_dep.theta, atol=0)
        assert back.edges == synth_model_dep.edges
        np.testing.assert_allclose(back.joint, synth_model_dep.joint, atol=0)

    def test_dict_fields(self, synth_model_dep):
        doc = synth_model_dep.to_dict()
        assert set(doc) == {"m", "theta_Y", "theta", "edges", "class_balance"}
        assert doc["edges"][0].keys() == {"i", "j", "theta_ij"}
