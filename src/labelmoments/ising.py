"""Exact binary Ising ground-truth models over (Y, sources).

The joint distribution is

    Pr(y, s) = exp(t_Y * y + sum_i t_i * s_i * y + sum_(i,j) t_ij * s_i * s_j) / Z

with y and every s_i in {-1, +1}, all potentials nonnegative, and every
source participating in at most one source-source edge.  For source counts
within the enumeration guard the full joint table is cached, which makes
moments, entropies, and sampling exact.

Two structural facts drive much of the implementation and are re-verified by
the test suite through brute-force enumeration:

* Conditioned on Y = y, the distribution of (s_i * y) does not depend on y.
  Hence Pr(s_i = 1 | Y = 1) = (1 + a_i) / 2 where a_i = E[s_i Y], and all
  source moments are independent of t_Y.
* An edge (i, j) influences only quantities involving sources i and j, so
  per-edge calibration reduces to a two-source subproblem.

Together they let ``sample_rows`` draw a sample row by row, one uniform per
column, without the joint table: Y, then each singleton and edge pair of
the u_i = s_i * Y on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import SourceMatrix
from .errors import CalibrationError, ContractError
from .estimators import triplet_census
from .manifest import read_json, write_json
from .states import sign_rows, values_from_config

Edge = tuple[int, int, float]

_THETA_HI = 12.0  # tanh(12) differs from 1 by ~1.2e-10; ample for targets < 1
_BALANCE_HI = 20.0
PARAM_TOL = 1e-9             # calibration tolerance on each potential
CALIBRATION_BUDGET = 10_000  # bisection steps allowed across one calibration


def _validate_edges(m: int, edges) -> tuple[Edge, ...]:
    seen: set[int] = set()
    out: list[Edge] = []
    for i, j, t in edges:
        i, j = int(i), int(j)
        if not (0 <= i < m and 0 <= j < m) or i == j:
            raise ContractError(f"edge ({i},{j}) out of range for m={m}")
        if i in seen or j in seen:
            raise ContractError(
                f"source {i if i in seen else j} already participates in an edge"
            )
        if t < 0:
            raise ContractError("edge potentials must be nonnegative")
        seen.update((i, j))
        out.append((min(i, j), max(i, j), float(t)))
    return tuple(sorted(out))


def _joint_table(
    m: int, theta_y: float, theta: np.ndarray, edges: tuple[Edge, ...]
) -> tuple[np.ndarray, float]:
    """Normalized joint over all 2**(m+1) states plus the log cumulant."""
    signs = sign_rows(m)
    sy = signs[m]
    energy = theta_y * sy
    for i in range(m):
        if theta[i] != 0.0:
            energy += theta[i] * signs[i] * sy
    for i, j, t in edges:
        if t != 0.0:
            energy += t * signs[i] * signs[j]
    shift = energy.max()
    table = np.exp(energy - shift)
    total = table.sum()
    return table / total, float(shift + np.log(total))


@dataclass(frozen=True)
class IsingModel:
    """Canonical parameters plus the cached exact joint table.

    Immutable after construction and safe to share across workers.
    """

    m: int
    theta_y: float
    theta: np.ndarray
    edges: tuple[Edge, ...]
    joint: np.ndarray = field(repr=False)
    log_partition: float

    @classmethod
    def from_parameters(cls, theta, edges=(), theta_y: float = 0.0) -> "IsingModel":
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim != 1 or theta.size == 0:
            raise ContractError("theta must be a nonempty vector")
        if np.any(theta < 0):
            raise ContractError("source potentials must be nonnegative")
        m = theta.size
        edges = _validate_edges(m, edges)
        joint, log_z = _joint_table(m, float(theta_y), theta, edges)
        theta = theta.copy()
        theta.setflags(write=False)
        joint.setflags(write=False)
        return cls(m, float(theta_y), theta, edges, joint, log_z)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def lambda_marginal(self) -> np.ndarray:
        """Pr over the 2**m source configurations."""
        return self.joint.reshape(2, -1).sum(axis=0)

    def class_balance(self) -> float:
        return float(self.joint.reshape(2, -1)[1].sum())

    def conditional_configs(self) -> np.ndarray:
        """(2, 2**m) table of Pr(config | Y), row 0 for Y=-1, row 1 for Y=+1."""
        blocks = self.joint.reshape(2, -1)
        return blocks / blocks.sum(axis=1, keepdims=True)

    @cached_property
    def row_thresholds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The probabilities :func:`sample_rows` compares its uniforms against.

        In the coordinates u_i = s_i * y the columns (u_0, ..., u_{m-1}, Y)
        are independent of Y and split into singletons and edge pairs: Y is
        +1 with probability sigmoid(2 theta_Y), a singleton u_i with
        sigmoid(2 theta_i), an edge's first source with its marginal and its
        second given the first.  Returns P(+1) per column (for an edge's
        second source, given that the first is +1); per edge, that second
        source's P(+1) given -1; and the edges' first and second sources.
        """
        p = 1.0 / (1.0 + np.exp(-2.0 * np.append(self.theta, self.theta_y)))
        given_minus = np.empty(len(self.edges))
        for e, (i, j, t) in enumerate(self.edges):
            w11, w10, w01, w00 = _pair_weights(self.theta[i], self.theta[j], t)
            p[i] = (w11 + w10) / (w11 + w10 + w01 + w00)
            p[j] = w11 / (w11 + w10)
            given_minus[e] = w01 / (w01 + w00)
        first, second = (np.array([e[k] for e in self.edges], dtype=np.intp) for k in (0, 1))
        return p, given_minus, first, second

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "theta_Y": self.theta_y,
            "theta": [float(t) for t in self.theta],
            "edges": [{"i": i, "j": j, "theta_ij": t} for i, j, t in self.edges],
            "class_balance": self.class_balance(),
        }

    def to_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "IsingModel":
        edges = [(e["i"], e["j"], e["theta_ij"]) for e in doc.get("edges", [])]
        return cls.from_parameters(doc["theta"], edges, doc.get("theta_Y", 0.0))

    @classmethod
    def from_json(cls, path: str | Path) -> "IsingModel":
        return read_json(path, cls.from_dict)


@dataclass(frozen=True)
class ModelDiagnostics:
    """Exact moments of a model, the inputs to every bound evaluator."""

    m: int
    edge_count: int
    accuracies: np.ndarray          # E[s_i Y]
    pair_moments: np.ndarray        # E[s_i s_j], unit diagonal
    class_balance: float            # Pr(Y = 1)
    cond_entropy: float             # H(Y | sources), nats
    inference_bias: float           # sum over edges of I(s_i; s_j | Y)
    edge_gaps: dict[tuple[int, int], float]  # E[s_i s_j] - E[s_i Y] E[s_j Y] per edge
    min_accuracy: float
    max_accuracy: float
    min_pair_moment: float
    max_mean_triplet: float         # max_i of the mean population triplet value

    @property
    def gap_min(self) -> float:
        return min(self.edge_gaps.values()) if self.edge_gaps else 0.0

    @property
    def gap_max(self) -> float:
        return max(self.edge_gaps.values()) if self.edge_gaps else 0.0


def inference_bias(model: IsingModel) -> float:
    """B_I: the sum over dependency edges of I(s_i; s_j | Y), in nats."""
    bits = sign_rows(model.m) > 0
    bias = 0.0
    for i, j, _ in model.edges:
        cell = 4 * bits[model.m] + 2 * bits[i] + bits[j]
        t = np.bincount(cell, weights=model.joint, minlength=8).reshape(2, 2, 2)
        mi = 0.0
        for block in t:  # Y = -1, then Y = +1
            py = block.sum()
            cond = block / py
            pi = cond.sum(axis=1, keepdims=True)
            pj = cond.sum(axis=0, keepdims=True)
            mi += py * float(np.sum(cond * (np.log(cond) - np.log(pi) - np.log(pj))))
        bias += mi
    return bias


def conditional_entropy(model: IsingModel) -> float:
    """H(Y | sources) in nats: the joint entropy minus the source-marginal entropy."""
    joint, p_lambda = model.joint, model.lambda_marginal()
    ent_joint = -float((joint * np.log(joint)).sum())
    ent_lambda = -float((p_lambda * np.log(p_lambda)).sum())
    return ent_joint - ent_lambda


def diagnostics(model: IsingModel) -> ModelDiagnostics:
    """Exact accuracies, pairwise moments, entropy, and misspecification gaps.

    Every reduction over the joint states is numpy's own pairwise sum, one
    row at a time: a BLAS dot may split a long sum across threads, which
    changes its last bits with the thread count.
    """
    m, joint = model.m, model.joint
    signs = sign_rows(m)
    wy = joint * signs[m]

    acc = np.array([float((wy * s).sum()) for s in signs[:m]])
    pair = np.eye(m)
    for i in range(m):
        wi = joint * signs[i]
        for j in range(i + 1, m):
            pair[i, j] = pair[j, i] = float((wi * signs[j]).sum())

    gaps = {(i, j): float(pair[i, j] - acc[i] * acc[j]) for i, j, _ in model.edges}
    off = pair[~np.eye(m, dtype=bool)]
    if m >= 3:
        max_mean_triplet = float(np.nanmean(triplet_census(pair)[0], axis=1).max())
    else:
        max_mean_triplet = float("nan")

    return ModelDiagnostics(
        m=m,
        edge_count=model.edge_count,
        accuracies=acc,
        pair_moments=pair,
        class_balance=model.class_balance(),
        cond_entropy=conditional_entropy(model),
        inference_bias=inference_bias(model),
        edge_gaps=gaps,
        min_accuracy=float(acc.min()),
        max_accuracy=float(acc.max()),
        min_pair_moment=float(off.min()) if m > 1 else float("nan"),
        max_mean_triplet=max_mean_triplet,
    )


# ---------------------------------------------------------------------------
# Closed-form per-edge misspecification gap
# ---------------------------------------------------------------------------


def misspecification_gap(theta_i: float, theta_j: float, theta_ij: float) -> float:
    """E[s_i s_j] - E[s_i Y] E[s_j Y] for an edge, from its three potentials only.

    Valid because the edge pair factors out of the rest of the graph; the
    cross-check against full enumeration (including graphs with additional
    edges elsewhere) lives in the test suite.  Positive whenever all three
    potentials are strictly positive.
    """
    if theta_i < 0 or theta_j < 0 or theta_ij < 0:
        raise ContractError("potentials must be nonnegative")
    e = math.exp
    z = (
        e(theta_i + theta_j + theta_ij)
        + e(theta_i - theta_j - theta_ij)
        + e(-theta_i + theta_j - theta_ij)
        + e(-theta_i - theta_j + theta_ij)
    )
    z_indep = (e(theta_i) + e(-theta_i)) * (e(theta_j) + e(-theta_j))
    coupling = e(theta_ij) - e(-theta_ij)
    shift_i = 2.0 / (z * z_indep) * coupling * (e(2 * theta_j) - e(-2 * theta_j))
    shift_j = 2.0 / (z * z_indep) * coupling * (e(2 * theta_i) - e(-2 * theta_i))
    shift_ij = (
        2.0
        / (z * z_indep)
        * coupling
        * (e(2 * theta_i) + e(-2 * theta_i) + e(2 * theta_j) + e(-2 * theta_j))
    )
    acc_i = math.tanh(theta_i)
    acc_j = math.tanh(theta_j)
    return shift_ij - shift_i * acc_j - shift_j * acc_i - shift_i * shift_j


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def _pair_weights(ti: float, tj: float, tij: float) -> tuple[float, float, float, float]:
    """Unnormalised weights of an isolated edge's (u_i, u_j) = (+,+), (+,-), (-,+), (-,-),
    where u = s * y."""
    return (
        math.exp(ti + tj + tij),
        math.exp(ti - tj - tij),
        math.exp(-ti + tj - tij),
        math.exp(-ti - tj + tij),
    )


def _pair_stats(ti: float, tj: float, tij: float) -> tuple[float, float, float]:
    """(a_i, a_j, gap) for an isolated edge, by four-state enumeration."""
    w11, w10, w01, w00 = _pair_weights(ti, tj, tij)
    z = w11 + w10 + w01 + w00
    ai = (w11 + w10 - w01 - w00) / z
    aj = (w11 - w10 + w01 - w00) / z
    mij = (w11 - w10 - w01 + w00) / z
    return ai, aj, mij - ai * aj


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise CalibrationError("calibration iteration budget exhausted")


def _bisect(fn, lo: float, hi: float, target: float, tol: float, budget: _Budget) -> float:
    """Root of the increasing map fn on [lo, hi] against target, clamped to the bracket.

    Returning an endpoint when the target is unreachable keeps intermediate
    alternation sweeps alive; infeasible targets surface as a stalled outer
    residual instead.
    """
    if fn(lo) - target >= 0:
        return lo
    if fn(hi) - target <= 0:
        return hi
    while hi - lo > tol:
        budget.spend()
        mid = 0.5 * (lo + hi)
        if fn(mid) - target <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve_edge(
    target_i: float, target_j: float, target_gap: float, tol: float, budget: _Budget
) -> tuple[float, float, float]:
    """Calibrate one edge's three potentials by damped bisection alternation.

    Each sweep bisects every potential against its own target (each statistic
    is increasing in its own potential); sweeps contract at roughly 0.4, so an
    Aitken extrapolation along the last two sweep steps is applied to stay
    within the iteration budget.  Inner tolerances track the current residual
    down to ``tol``.
    """
    targets = (target_i, target_j, target_gap)

    def residual(th: np.ndarray) -> float:
        stats = _pair_stats(*th)
        return max(abs(s - t) for s, t in zip(stats, targets))

    def sweep(th: np.ndarray, sweep_tol: float) -> np.ndarray:
        th = th.copy()
        th[0] = _bisect(
            lambda t: _pair_stats(t, th[1], th[2])[0],
            0.0, _THETA_HI, target_i, sweep_tol, budget,
        )
        th[1] = _bisect(
            lambda t: _pair_stats(th[0], t, th[2])[1],
            0.0, _THETA_HI, target_j, sweep_tol, budget,
        )
        th[2] = _bisect(
            lambda t: _pair_stats(th[0], th[1], t)[2],
            0.0, _THETA_HI, target_gap, sweep_tol, budget,
        )
        return th

    theta = np.array([math.atanh(target_i), math.atanh(target_j), 0.0])
    res = residual(theta)
    for _cycle in range(20):
        sweep_tol = min(1e-3, max(tol, 1e-3 * res))
        x1 = sweep(theta, sweep_tol)
        x2 = sweep(x1, sweep_tol)
        d0, d1 = x1 - theta, x2 - x1
        denom = d1 - d0
        safe = np.abs(denom) > 1e-14
        accel = x2.copy()
        accel[safe] -= d1[safe] ** 2 / denom[safe]
        accel = np.clip(accel, 0.0, _THETA_HI)
        res2, res_a = residual(x2), residual(accel)
        theta, res = (accel, res_a) if res_a < res2 else (x2, res2)
        if res < max(1e-10, 2.0 * tol) and sweep_tol <= tol:
            return float(theta[0]), float(theta[1]), float(theta[2])
    raise CalibrationError(
        f"edge calibration did not converge (residual {res:.3e}); "
        "the (accuracy, accuracy, gap) targets may be infeasible",
        residuals=res,
    )


def calibrate(
    targets,
    edges=(),
    edge_gap: float | list[float] = 0.1,
    class_balance: float = 0.5,
) -> IsingModel:
    """Build a model whose accuracies, per-edge gaps, and class balance hit targets.

    ``targets`` are the desired E[s_i Y] in (0.5, 1); ``edges`` lists the
    dependent pairs; ``edge_gap`` is one target misspecification gap or one
    per edge.  Inner one-dimensional bisections exploit monotonicity of each
    statistic in its own potential; an outer loop absorbs the weak coupling
    between them.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if np.any(targets <= 0.5) or np.any(targets >= 1.0):
        raise ContractError("accuracy targets must lie in (0.5, 1)")
    if not 0.0 < class_balance < 1.0:
        raise ContractError("class balance must lie in (0, 1)")
    m = targets.size
    pairs = [(int(i), int(j)) for i, j in edges]
    gaps = (
        [float(edge_gap)] * len(pairs)
        if np.isscalar(edge_gap)
        else [float(g) for g in edge_gap]
    )
    if len(gaps) != len(pairs):
        raise ContractError("one gap target required per edge")
    if any(g < 0 for g in gaps):
        raise ContractError("gap targets must be nonnegative")

    counter = _Budget(CALIBRATION_BUDGET)
    theta = np.array([math.atanh(a) for a in targets])
    solved: list[Edge] = []
    for (i, j), gap in zip(pairs, gaps):
        if gap == 0.0:
            continue
        ti, tj, tij = _solve_edge(targets[i], targets[j], gap, PARAM_TOL, counter)
        theta[i], theta[j] = ti, tj
        solved.append((i, j, tij))

    if class_balance == 0.5:
        theta_y = 0.0
    else:
        theta_y = _bisect(
            math.tanh, -_BALANCE_HI, _BALANCE_HI, 2 * class_balance - 1, PARAM_TOL, counter
        )
    return IsingModel.from_parameters(theta, solved, theta_y)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample(model: IsingModel, n: int, seed) -> SourceMatrix:
    """n i.i.d. labeled draws via inverse CDF over the cached table."""
    if n < 1:
        raise ContractError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(model.joint)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    values = values_from_config(idx & ((1 << model.m) - 1), model.m)
    labels = (2 * ((idx >> model.m) & 1) - 1).astype(np.int8)
    return SourceMatrix(values, labels)


def sample_state_counts(model: IsingModel, n: int, seed, size: int | None = None) -> np.ndarray:
    """Multinomial counts over joint states; the sufficient statistics of a draw.

    Distributionally identical to counting the rows of :func:`sample`.  With
    ``size``, returns (size, 2^(m+1)) counts of that many independent
    samples in one call; numpy draws the rows one after another, so they
    equal ``size`` calls without it on the same generator.  The Monte-Carlo
    engine draws a sample this way when it has at least as many entries as
    the count vector has states, n(m+1) >= 2^(m+1); a smaller sample is
    cheaper as rows (:func:`sample_rows`).
    """
    if n < 1:
        raise ContractError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    return rng.multinomial(n, model.joint, size=size).astype(np.float64)


def sample_rows(model: IsingModel, n: int, seed, size: int) -> np.ndarray:
    """``size`` samples of n rows, (size, n, m+1) of +-1: the source signs,
    then the label in column m.

    One ``random((size, n, m+1))`` call; a column is +1 where its uniform
    lies below its ``IsingModel.row_thresholds`` entry, and a source's sign
    is then its u times the label.  numpy draws the uniforms one after
    another, so consecutive calls on one generator equal one call for all
    their samples.
    """
    if n < 1:
        raise ContractError("sample size must be at least 1")
    m = model.m
    p, given_minus, first, second = model.row_thresholds
    uniform = np.random.default_rng(seed).random((size, n, m + 1))
    plus = uniform < p
    plus[..., second] = uniform[..., second] < np.where(plus[..., first], p[second], given_minus)
    plus[..., :m] = plus[..., :m] == plus[..., m:]  # s_i = u_i * y
    return np.where(plus, 1.0, -1.0)
