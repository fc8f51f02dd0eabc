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
    sample,
)
from labelmoments.analysis import decompose
from labelmoments.estimators import SampleMoments
from labelmoments.ising import (
    _pair_stats, conditional_entropy, inference_bias, sample_rows, sample_u_counts,
)
from labelmoments.label_model import LabelModel
from labelmoments.states import config_bits

from conftest import (
    SYNTH_ACCURACIES,
    SYNTH_EDGES,
    brute_accuracies,
    brute_joint,
    brute_moment,
    brute_pair_moments,
    random_valid_edges,
    sign_rows,
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
        _, z = brute_joint(list(model.theta), model.edges, model.theta_y)
        rng = np.random.default_rng(0)
        for idx in rng.integers(0, model.joint.size, 100):
            y = 1 if (idx >> model.m) & 1 else -1
            s = [1 if (idx >> i) & 1 else -1 for i in range(model.m)]
            energy = model.theta_y * y
            energy += sum(model.theta[i] * s[i] * y for i in range(model.m))
            energy += sum(t * s[i] * s[j] for i, j, t in model.edges)
            assert abs(model.joint[idx] * z - math.exp(energy)) < 1e-10 * z

    def test_capacity_guard(self):
        # the guard fires where the 2^(m+1) table is made, on first access
        model = IsingModel.from_parameters(np.full(25, 0.5))
        with pytest.raises(CapacityError):
            model.joint
        assert "joint" not in model.__dict__

    def test_joint_is_built_on_first_access_only(self):
        model = calibrate([0.7, 0.6, 0.65, 0.8], [(0, 1)], 0.1)
        diagnostics(model)
        assert "joint" not in model.__dict__
        assert model.joint is model.joint and not model.joint.flags.writeable

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

    def test_entropy_and_bias_ranges(self, synth_model_dep, synth_diag_dep):
        assert 0.0 <= conditional_entropy(synth_model_dep) <= math.log(2)
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

    @pytest.mark.parametrize("m", [3, 6, 9, 12])
    def test_closed_form_matches_enumeration(self, m):
        # class balance 0.3 and random disjoint edges; every quantity to 1e-14
        rng = np.random.default_rng(200 + m)
        pairs = random_valid_edges(rng, m) or [(0, 1)]
        edges = [(i, j, float(t)) for (i, j), t in zip(pairs, rng.uniform(0.05, 1.0, len(pairs)))]
        theta, theta_y = list(rng.uniform(0.0, 1.5, m)), math.atanh(2 * 0.3 - 1)
        model = IsingModel.from_parameters(theta, edges, theta_y)
        d = diagnostics(model)
        assert "joint" not in model.__dict__
        table, _ = brute_joint(theta, edges, theta_y)
        acc, pair = brute_accuracies(table, m), brute_pair_moments(table, m)
        np.testing.assert_allclose(d.accuracies, acc, rtol=0, atol=1e-14)
        np.testing.assert_allclose(d.pair_moments, pair, rtol=0, atol=1e-14)
        for i, j, _ in edges:
            assert abs(d.edge_gaps[i, j] - (pair[i, j] - acc[i] * acc[j])) < 1e-14
        assert abs(d.class_balance - 0.3) < 1e-14
        # B_I = sum over edges of I(s_i; s_j | Y), from the table's cells
        bias = 0.0
        for i, j, _ in edges:
            for y in (-1, 1):
                cell = {
                    (a, b): brute_moment(table, lambda yy, s, a=a, b=b: float(
                        yy == y and s[i] == a and s[j] == b))
                    for a in (-1, 1) for b in (-1, 1)
                }
                p_y = math.fsum(cell.values())
                p_i = {a: (cell[a, 1] + cell[a, -1]) / p_y for a in (-1, 1)}
                p_j = {b: (cell[1, b] + cell[-1, b]) / p_y for b in (-1, 1)}
                bias += math.fsum(
                    p * math.log(p / p_y / (p_i[a] * p_j[b])) for (a, b), p in cell.items()
                )
        assert abs(d.inference_bias - bias) < 1e-14


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


class TestConfigBits:
    """The one state table and the moments read through it, against the
    brute-force joint, which shares no code with them."""

    THETA = [0.7, 0.5, 0.9, 0.4, 0.2]
    EDGES = [(1, 3, 0.3), (0, 4, 0.6)]

    @staticmethod
    def _state_index(y, s):
        return sum(1 << k for k, v in enumerate(s) if v > 0) + ((y > 0) << len(s))

    def test_bits_hold_every_state_sign(self):
        table, _ = brute_joint(self.THETA, self.EDGES)
        bits = config_bits(5)
        assert bits.shape == (32, 5) and not bits.flags.writeable
        for (y, s), _p in table.items():
            idx = self._state_index(y, s)
            assert list(2 * bits[idx & 31] - 1) == list(s)

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
        fitted = LabelModel.from_accuracies(
            synth_diag_dep.accuracies, 0.5,
            mode="empirical", config_dist=synth_model_dep.lambda_marginal(),
        )
        rep = decompose(synth_model_dep, fitted)
        assert rep.inference_bias == synth_diag_dep.inference_bias
        assert rep.irreducible == conditional_entropy(synth_model_dep)

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


class TestPairStats:
    """The one forward map of an edge, (a_i, a_j, gap) from its potentials."""

    def test_zero_coupling(self):
        assert _pair_stats(0.5, 0.7, 0.0)[2] == pytest.approx(0.0, abs=1e-16)

    def test_frozen_value(self):
        # brute-force two-source enumeration gives this value for (.3, .4, .2)
        assert abs(_pair_stats(0.3, 0.4, 0.2)[2] - 0.14801245933803286) < 1e-12

    def test_symmetric_in_source_potentials(self):
        ai, aj, gap = _pair_stats(0.3, 0.7, 0.25)
        aj2, ai2, gap2 = _pair_stats(0.7, 0.3, 0.25)
        assert (ai, aj, gap) == pytest.approx((ai2, aj2, gap2), abs=1e-15)

    def test_grid_against_two_source_enumeration(self):
        grid = [0.05, 0.3, 0.8, 1.5, 3.0]
        for ti in grid:
            for tj in grid:
                for tij in grid:
                    table, _ = brute_joint([ti, tj], [(0, 1, tij)])
                    acc = brute_accuracies(table, 2)
                    pair = brute_moment(table, lambda y, s: s[0] * s[1])
                    want = pair - acc[0] * acc[1]
                    got = _pair_stats(ti, tj, tij)[2]
                    assert abs(got - want) < 1e-12
                    assert 0.0 < got < 1.0

    def test_exact_with_extra_edges_elsewhere(self):
        # the pair factors out of the rest of the graph, so the four-state
        # enumeration stays exact when other edges and a label potential are present
        theta = [0.9, 0.8, 0.6, 0.7, 0.5, 0.8]
        edges = [(0, 1, 0.25), (2, 3, 0.4), (4, 5, 0.15)]
        table, _ = brute_joint(theta, edges, theta_y=0.3)
        acc = brute_accuracies(table, 6)
        pair = brute_moment(table, lambda y, s: s[0] * s[1])
        ai, aj, gap = _pair_stats(0.9, 0.8, 0.25)
        assert abs(ai - acc[0]) < 1e-14 and abs(aj - acc[1]) < 1e-14
        assert abs(gap - (pair - acc[0] * acc[1])) < 1e-14

    def test_monotone_in_coupling(self):
        for ti, tj in [(0.2, 0.4), (0.7, 0.9), (1.2, 0.3)]:
            vals = [_pair_stats(ti, tj, t)[2] for t in np.linspace(0.0, 2.0, 15)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


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
        # M = 0.2 + 0.9 * 0.55 puts the (u_0, u_1) = (-, +) cell below zero
        with pytest.raises(CalibrationError) as err:
            calibrate([0.9, 0.55], [(0, 1)], 0.2)
        cells = err.value.residuals["cells"]
        assert cells[2] == pytest.approx((1 - 0.9 + 0.55 - 0.695) / 4) and cells[2] < 0

    def test_negative_potential_raises_with_residuals(self):
        # every cell is positive, but p++ p+- < p-+ p-- gives theta_0 < 0
        with pytest.raises(CalibrationError) as err:
            calibrate([0.55, 0.9], [(0, 1)], 0.15)
        assert min(err.value.residuals["cells"]) > 0
        assert err.value.residuals["potentials"][0] < 0

    @settings(max_examples=40, deadline=None)
    @given(
        ti=st.floats(0.6, 2.5),
        tj=st.floats(0.6, 2.5),
        tij=st.floats(0.01, 1.5),
        t2=st.floats(0.6, 2.5),
        theta_y=st.floats(-1.0, 1.0),
    )
    def test_closed_form_hits_feasible_targets(self, ti, tj, tij, t2, theta_y):
        # targets of a model drawn from its potentials are feasible; the
        # calibrated model reproduces them under brute-force enumeration
        def stats(theta, edges, t_y):
            table, _ = brute_joint(theta, edges, t_y)
            acc = brute_accuracies(table, 3)
            gap = brute_moment(table, lambda y, s: s[0] * s[1]) - acc[0] * acc[1]
            return acc, gap, brute_moment(table, lambda y, s: float(y > 0))

        acc, gap, balance = stats([ti, tj, t2], [(0, 1, tij)], theta_y)
        model = calibrate(list(acc), [(0, 1)], gap, balance)
        got_acc, got_gap, got_balance = stats(
            list(model.theta), list(model.edges), model.theta_y
        )
        np.testing.assert_allclose(got_acc, acc, rtol=0, atol=1e-12)
        assert abs(got_gap - gap) < 1e-12 and abs(got_balance - balance) < 1e-12

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


class TestRowSampler:
    """Rows drawn by thresholds in the coordinates u = s * y, against the
    dense joint and the exact moments."""

    @staticmethod
    def _pmf(model):
        # each joint state's probability, multiplied out from the thresholds
        p, given_minus, _, _ = model.row_thresholds
        s = np.tile(config_bits(model.m).T > 0, 2)  # source bits per joint state
        y = np.arange(s.shape[1]) >> model.m > 0
        u = np.vstack([s == y, y])  # u_i = s_i * y is +1 where s_i's bit equals Y's
        cond = np.where(u, p[:, None], 1.0 - p[:, None])
        for e, (i, j, _) in enumerate(model.edges):
            cond[j] = np.where(u[i], cond[j], np.where(u[j], given_minus[e], 1.0 - given_minus[e]))
        return cond.prod(axis=0)

    @pytest.mark.parametrize("m", range(3, 13))
    @pytest.mark.parametrize("with_edges", [False, True])
    @pytest.mark.parametrize("balance", [0.5, 0.3])
    def test_thresholds_enumerate_the_joint(self, m, with_edges, balance):
        rng = np.random.default_rng(100 + m)
        pairs = (random_valid_edges(rng, m) or [(0, 1)]) if with_edges else []
        edges = [(i, j, t) for (i, j), t in zip(pairs, rng.uniform(0.1, 1.0, len(pairs)))]
        # P(Y = 1) = sigmoid(2 theta_Y), since Y is independent of the u coordinates
        model = IsingModel.from_parameters(
            rng.uniform(0.0, 1.5, m), edges, math.atanh(2 * balance - 1)
        )
        assert model.class_balance() == pytest.approx(balance, abs=1e-12)
        np.testing.assert_allclose(self._pmf(model), model.joint, rtol=0, atol=1e-15)

    def test_moments_match_the_exact_ones(self):
        # m=6 with two edges and a skewed class balance: the mean of many
        # samples' moments lies within 5 standard errors of diagnostics'
        model = calibrate([0.6, 0.7, 0.65, 0.8, 0.75, 0.55], [(0, 1), (2, 4)], 0.1, 0.3)
        diag = diagnostics(model)
        # the rows are u = s * y and the label, so E[u] is the accuracies,
        # E[u u^T] the pair moments and the label's mean 2 * 0.3 - 1
        rows = sample_rows(model, 50, np.random.default_rng(5), 4000)
        mom = SampleMoments.from_u_rows(rows[..., :6])
        label_means = rows[..., 6].mean(axis=-1)
        for draws, exact in (
            (mom.acc, diag.accuracies), (mom.pair, diag.pair_moments), (label_means, -0.4),
        ):
            se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
            assert (np.abs(draws.mean(axis=0) - exact) <= 5 * se + 1e-15).all()

    @pytest.mark.parametrize("m", range(3, 15))
    def test_u_times_the_label_is_the_sign_rows(self, m):
        # the same uniforms as the sampler that returned source signs
        # (conftest's ``sign_rows``): s = u * y and the label, entry for entry,
        # and ``sample``'s int8 matrix holds those signs
        rng = np.random.default_rng(300 + m)
        pairs = random_valid_edges(rng, m) or [(0, 1)]
        edges = [(i, j, t) for (i, j), t in zip(pairs, rng.uniform(0.1, 1.0, len(pairs)))]
        model = IsingModel.from_parameters(rng.uniform(0.0, 1.5, m), edges, rng.uniform(-0.5, 0.5))
        rows = sample_rows(model, 40, np.random.default_rng(m), 3)
        ref = sign_rows(model, 40, np.random.default_rng(m), 3)
        np.testing.assert_array_equal(rows[..., :m] * rows[..., m:], ref[..., :m])
        np.testing.assert_array_equal(rows[..., m], ref[..., m])
        data = sample(model, 40, m)
        (one,) = sign_rows(model, 40, np.random.default_rng(m), 1).astype(np.int8)
        np.testing.assert_array_equal(data.values, one[:, :m])
        np.testing.assert_array_equal(data.labels, one[:, m])

    def test_consecutive_calls_equal_one_call(self, synth_model_dep):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        whole = sample_rows(synth_model_dep, 20, a, 5)
        parts = [sample_rows(synth_model_dep, 20, b, k) for k in (2, 1, 2)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
        assert set(np.unique(whole)) == {-1.0, 1.0}

    def test_rejects_empty_samples(self, synth_model_dep):
        with pytest.raises(ContractError):
            sample_rows(synth_model_dep, 0, 1, 3)


class TestAliasSampler:
    """Counts of u = s * y drawn through the alias table, against the
    brute-force joint and against the row sampler."""

    @staticmethod
    def _realised_pmf(model):
        # a uniform bin k keeps itself with prob[k] and gives the rest to alias[k]
        prob, alias = model.u_alias
        pmf = prob / prob.size
        np.add.at(pmf, alias, (1.0 - prob) / prob.size)
        return pmf

    @staticmethod
    def _brute_u_marginal(model):
        table, _ = brute_joint(list(model.theta), model.edges, model.theta_y)
        pmf = np.zeros(1 << model.m)
        for (y, s), p in table.items():
            pmf[sum(1 << i for i, si in enumerate(s) if si == y)] += p
        return pmf

    @pytest.mark.parametrize("m", range(3, 13))
    @pytest.mark.parametrize("with_edges", [False, True])
    def test_alias_table_realises_the_u_marginal(self, m, with_edges):
        rng = np.random.default_rng(200 + m)
        pairs = (random_valid_edges(rng, m) or [(0, 1)]) if with_edges else []
        edges = [(i, j, t) for (i, j), t in zip(pairs, rng.uniform(0.1, 1.0, len(pairs)))]
        theta = rng.uniform(0.0, 1.5, m)
        models = [
            IsingModel.from_parameters(theta, edges, math.atanh(2 * balance - 1))
            for balance in (0.5, 0.3)
        ]
        for model in models:
            np.testing.assert_allclose(
                self._realised_pmf(model), self._brute_u_marginal(model), rtol=0, atol=1e-15
            )
            assert "joint" not in model.__dict__
        # u is independent of Y: only theta_Y differs, and the tables are equal
        for a, b in zip(models[0].u_alias, models[1].u_alias):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_moments_agree_with_the_row_sampler(self, synth_model_dep, seed):
        # m=10, n=400, 4000 samples a side: every accuracy and pair moment has
        # the same mean and variance across samples, within 4 standard errors
        m, n = 10, 400
        ii, jj = np.triu_indices(m, 1)
        draw_u, draw_rows = (np.random.default_rng([seed, k]) for k in (0, 1))
        sides = [[], []]
        for _ in range(16):
            mom = SampleMoments.from_u_counts(sample_u_counts(synth_model_dep, n, draw_u, 250), m)
            sides[0].append(np.hstack([mom.acc, mom.pair[:, ii, jj]]))
            mom = SampleMoments.from_u_rows(sample_rows(synth_model_dep, n, draw_rows, 250)[..., :m])
            sides[1].append(np.hstack([mom.acc, mom.pair[:, ii, jj]]))
        (u_mean, u_se, u_var, u_var_se), (r_mean, r_se, r_var, r_var_se) = (
            _mean_and_variance(np.vstack(side)) for side in sides
        )
        assert (np.abs(u_mean - r_mean) <= 4 * np.hypot(u_se, r_se)).all()
        assert (np.abs(u_var - r_var) <= 4 * np.hypot(u_var_se, r_var_se)).all()

    def test_consecutive_calls_equal_one_call(self, synth_model_dep):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        whole = sample_u_counts(synth_model_dep, 20, a, 5)
        parts = [sample_u_counts(synth_model_dep, 20, b, k) for k in (2, 1, 2)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
        assert whole.shape == (5, 1 << 10) and (whole.sum(axis=1) == 20).all()

    def test_rejects_empty_samples(self, synth_model_dep):
        with pytest.raises(ContractError):
            sample_u_counts(synth_model_dep, 0, 1, 3)


def _mean_and_variance(x):
    """Column means and variances of x with their standard errors."""
    k = len(x)
    dev2 = (x - x.mean(axis=0)) ** 2
    return (
        x.mean(axis=0), x.std(axis=0, ddof=1) / np.sqrt(k),
        dev2.sum(axis=0) / (k - 1), dev2.std(axis=0, ddof=1) / np.sqrt(k),
    )


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
