"""Exact binary Ising ground-truth models over (Y, sources).

The joint distribution is

    Pr(y, s) = exp(t_Y * y + sum_i t_i * s_i * y + sum_(i,j) t_ij * s_i * s_j) / Z

with y and every s_i in {-1, +1}, all potentials nonnegative, and every
source participating in at most one source-source edge.

In the coordinates u_i = s_i * y the columns (u_0, ..., u_{m-1}, Y) are
independent except within an edge, whose pair (u_i, u_j) has its own 2x2
table of weights (``_pair_weights``).  So the ground truth is closed-form
and linear in m: ``diagnostics`` reads accuracies, gaps and the inference
bias off each edge's table (``_pair_stats``, the one forward map),
``calibrate`` inverts that map, and ``sample_rows`` draws column by column.
Since u is independent of Y, the Monte-Carlo engine's larger samples draw
u alone: ``IsingModel.u_marginal`` is Pr(u) over the 2**m configurations,
the product of those singleton and pair tables, and ``sample_u_counts``
draws from it through its alias table.  The dense table over all 2**(m+1)
states, ``IsingModel.joint``, is built on first use, where
``states.ENUMERATION_GUARD`` bounds m.  Its readers are the enumerations
that need every state: ``lambda_marginal`` (the decomposition's
sampling-noise term), ``conditional_entropy``,
``analysis.expected_loss_by_enumeration`` (the decomposition's loss oracle)
and ``sample_state_counts`` (labeled joint-state counts; tests and the
benchmark's tracer use it).  The tests check every closed form against a
brute-force enumeration that shares no code with it.

``diagnostics`` returns exact moments only; ``analysis.bound_inputs``
derives the bounds' constants from them.  The module imports nothing from
the estimators, so that it is an oracle for them that shares no code with
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import SourceMatrix
from .errors import CalibrationError, ContractError
from .manifest import read_json, write_json
from .states import check_capacity, config_bits

Edge = tuple[int, int, float]


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
        if not math.isfinite(t):
            raise ContractError(f"'theta_ij' of edge ({i},{j}) must be finite, got {t}")
        if t < 0:
            raise ContractError("edge potentials must be nonnegative")
        seen.update((i, j))
        out.append((min(i, j), max(i, j), float(t)))
    return tuple(sorted(out))


@dataclass(frozen=True)
class IsingModel:
    """Canonical parameters; the exact joint table is built on first use.

    Immutable after construction and safe to share across workers.
    """

    m: int
    theta_y: float
    theta: np.ndarray
    edges: tuple[Edge, ...]

    @classmethod
    def from_parameters(cls, theta, edges=(), theta_y: float = 0.0) -> "IsingModel":
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim != 1 or theta.size == 0:
            raise ContractError("theta must be a nonempty vector")
        if not np.isfinite(theta).all():
            raise ContractError(f"'theta' must be finite, got {theta.tolist()}")
        if np.any(theta < 0):
            raise ContractError("source potentials must be nonnegative")
        theta_y = float(theta_y)
        if not math.isfinite(theta_y):
            raise ContractError(f"'theta_Y' must be finite, got {theta_y}")
        edges = _validate_edges(theta.size, edges)
        theta = theta.copy()
        theta.setflags(write=False)
        return cls(theta.size, theta_y, theta, edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def joint(self) -> np.ndarray:
        """Read-only Pr over all 2**(m+1) joint states in ``states`` order, built
        on first access; ``CapacityError`` above ``ENUMERATION_GUARD`` sources."""
        m, bits = self.m, config_bits(self.m)
        sy = np.array([[-1.0], [1.0]])  # Y per row of the (2, 2**m) energy
        energy = np.repeat(self.theta_y * sy, 1 << m, axis=1)
        for i in range(m):
            if self.theta[i] != 0.0:
                energy += self.theta[i] * (2.0 * bits[:, i] - 1.0) * sy
        for i, j, t in self.edges:
            if t != 0.0:
                energy += t * (2.0 * bits[:, i] - 1.0) * (2.0 * bits[:, j] - 1.0)
        energy = energy.ravel()
        table = np.exp(energy - energy.max())
        table /= table.sum()
        table.setflags(write=False)
        return table

    @cached_property
    def u_marginal(self) -> np.ndarray:
        """Read-only Pr over the 2**m configurations of u = s * y, in
        ``states`` order (bit k set means u_k = +1).

        Closed form, without the joint: the product of the singleton and
        edge-pair tables of ``row_thresholds``, built one source at a time.
        An edge's second source is conditioned on its first, which has the
        lower index and so is already a bit of the table.  u is independent
        of Y, so Y has no factor.
        """
        check_capacity(self.m)
        p, given_minus, first, second = self.row_thresholds
        conditioned = dict(zip(second.tolist(), zip(first.tolist(), given_minus.tolist())))
        table = np.ones(1)
        for k in range(self.m):
            plus = p[k]
            if k in conditioned:
                i, minus = conditioned[k]
                plus = np.where((np.arange(1 << k) >> i) & 1, plus, minus)
            table = np.concatenate((table * (1.0 - plus), table * plus))
        table.setflags(write=False)
        return table

    @cached_property
    def u_alias(self) -> tuple[np.ndarray, np.ndarray]:
        """Walker's alias table of ``u_marginal``, built by Vose's method.

        Returns (prob, alias) over the 2**m bins: a uniform bin k is kept
        with probability prob[k] and replaced by alias[k] otherwise, so
        configuration k is drawn with probability prob[k]/2**m plus
        (1 - prob[j])/2**m for every j with alias[j] = k.  Built on first use.
        """
        size = 1 << self.m
        q = (self.u_marginal * size).tolist()
        prob, alias = [1.0] * size, list(range(size))
        small = [k for k in range(size) if q[k] < 1.0]
        large = [k for k in range(size) if q[k] >= 1.0]
        while small and large:
            k, g = small.pop(), large.pop()
            prob[k], alias[k] = q[k], g
            q[g] = (q[g] + q[k]) - 1.0
            (small if q[g] < 1.0 else large).append(g)
        # bins left over in either list hold 1 up to rounding and keep prob 1
        prob, alias = np.array(prob), np.array(alias, dtype=np.intp)
        prob.setflags(write=False)
        alias.setflags(write=False)
        return prob, alias

    def lambda_marginal(self) -> np.ndarray:
        """Pr over the 2**m source configurations."""
        return self.joint.reshape(2, -1).sum(axis=0)

    def class_balance(self) -> float:
        """Pr(Y = 1) = sigmoid(2 theta_Y)."""
        return float(self.row_thresholds[0][self.m])

    @cached_property
    def row_thresholds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The probabilities :func:`sample_rows` compares its uniforms against.

        Y is +1 with probability sigmoid(2 theta_Y), a singleton u_i with
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
        """The model of a ``to_dict`` document; an ``m`` that disagrees with
        the number of potentials raises ``ContractError``."""
        edges = [(e["i"], e["j"], e["theta_ij"]) for e in doc.get("edges", [])]
        model = cls.from_parameters(doc["theta"], edges, doc.get("theta_Y", 0.0))
        if "m" in doc and doc["m"] != model.m:
            raise ContractError(f"'m' is {doc['m']!r} but 'theta' holds {model.m} potentials")
        return model

    @classmethod
    def from_json(cls, path: str | Path) -> "IsingModel":
        return read_json(path, cls.from_dict)


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
    """(a_i, a_j, gap) for an edge, by four-state enumeration of its pair.

    The gap is E[s_i s_j] - E[s_i Y] E[s_j Y].  Exact within any graph,
    because the pair factors out of the rest of it.
    """
    w11, w10, w01, w00 = _pair_weights(ti, tj, tij)
    z = w11 + w10 + w01 + w00
    ai = (w11 + w10 - w01 - w00) / z
    aj = (w11 - w10 + w01 - w00) / z
    mij = (w11 - w10 - w01 + w00) / z
    return ai, aj, mij - ai * aj


@dataclass(frozen=True)
class ModelDiagnostics:
    """Exact moments of a model; ``analysis.bound_inputs`` derives the
    bounds' constants from them."""

    m: int
    edge_count: int
    accuracies: np.ndarray          # E[s_i Y]
    pair_moments: np.ndarray        # E[s_i s_j], unit diagonal
    class_balance: float            # Pr(Y = 1)
    inference_bias: float           # sum over edges of I(s_i; s_j | Y)
    edge_gaps: dict[tuple[int, int], float]  # E[s_i s_j] - E[s_i Y] E[s_j Y] per edge


def inference_bias(model: IsingModel) -> float:
    """B_I: the sum over dependency edges of I(s_i; s_j | Y), in nats.

    Given Y, (s_i, s_j) is (u_i, u_j) up to a common sign flip, and the u
    pair is independent of Y, so each term is I(u_i; u_j) of the edge's
    normalised 2x2 table.
    """
    bias = 0.0
    for i, j, t in model.edges:
        q = np.array(_pair_weights(model.theta[i], model.theta[j], t)).reshape(2, 2)
        q /= q.sum()
        marginals = np.log(q.sum(axis=1, keepdims=True)) + np.log(q.sum(axis=0, keepdims=True))
        bias += float((q * (np.log(q) - marginals)).sum())
    return bias


def conditional_entropy(model: IsingModel) -> float:
    """H(Y | sources) in nats: the joint entropy minus the source-marginal entropy."""
    joint, p_lambda = model.joint, model.lambda_marginal()
    ent_joint = -float((joint * np.log(joint)).sum())
    ent_lambda = -float((p_lambda * np.log(p_lambda)).sum())
    return ent_joint - ent_lambda


def diagnostics(model: IsingModel) -> ModelDiagnostics:
    """Exact accuracies, pairwise moments, gaps, class balance and B_I.

    Polynomial in m, with no joint table: a singleton's accuracy is
    tanh(theta_i), an edge's accuracies and gap come from its pair
    (``_pair_stats``), and sources in different blocks have
    E[s_i s_j] = a_i a_j.
    """
    m = model.m
    acc = np.tanh(model.theta)
    gaps = {}
    for i, j, t in model.edges:
        acc[i], acc[j], gaps[i, j] = _pair_stats(model.theta[i], model.theta[j], t)
    pair = np.outer(acc, acc)
    for (i, j), gap in gaps.items():
        pair[i, j] = pair[j, i] = gap + acc[i] * acc[j]
    np.fill_diagonal(pair, 1.0)
    return ModelDiagnostics(
        m=m,
        edge_count=model.edge_count,
        accuracies=acc,
        pair_moments=pair,
        class_balance=model.class_balance(),
        inference_bias=inference_bias(model),
        edge_gaps=gaps,
    )


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def _calibration_targets(targets, edges, edge_gap, class_balance):
    """Validated (accuracies, edge pairs, gap) of a calibration."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 1 or targets.size == 0:
        raise ContractError("accuracy targets must be a nonempty vector")
    if np.any(targets <= 0.5) or np.any(targets >= 1.0):
        raise ContractError("accuracy targets must lie in (0.5, 1)")
    if not 0.0 < class_balance < 1.0:
        raise ContractError("class balance must lie in (0, 1)")
    pairs = [(int(i), int(j)) for i, j in edges]
    _validate_edges(targets.size, [(i, j, 0.0) for i, j in pairs])
    if not edge_gap >= 0.0:
        raise ContractError(f"the gap target must be nonnegative, got {edge_gap}")
    return targets, pairs, float(edge_gap)


def calibrate(
    targets,
    edges=(),
    edge_gap: float = 0.1,
    class_balance: float = 0.5,
) -> IsingModel:
    """Build the model whose accuracies, edge gaps and class balance hit targets.

    ``targets`` are the desired E[s_i Y] in (0.5, 1); ``edges`` lists the
    dependent pairs; ``edge_gap`` is the one target misspecification gap
    E[s_i s_j] - a_i a_j of every edge, and a gap of 0 drops the edges, so
    the model has none.  Closed form: a singleton has theta_i = atanh(a_i)
    and the label theta_Y = atanh(2 pi - 1).  An edge's (u_i, u_j) cells
    are p_st = (1 + s a_i + t a_j + s t M_ij) / 4 with M_ij = gap + a_i a_j,
    and its potentials are quarter log cross-ratios of them.  Targets no
    model reaches, where a cell is not positive or a potential is negative,
    raise ``CalibrationError`` with the edge's cells and potentials as its
    residuals.
    """
    targets, pairs, gap = _calibration_targets(targets, edges, edge_gap, class_balance)
    theta = np.array([math.atanh(a) for a in targets])
    solved: list[Edge] = []
    for i, j in pairs if gap > 0.0 else ():
        a_i, a_j = targets[i], targets[j]
        m_ij = gap + a_i * a_j
        cells = [
            (1 + s * a_i + t * a_j + s * t * m_ij) / 4
            for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1))
        ]
        where = f"edge ({i},{j}) with accuracies ({a_i}, {a_j}) and gap {gap}"
        if min(cells) <= 0.0:
            raise CalibrationError(
                f"{where} needs a cell probability {min(cells):.3g} <= 0", residuals={"cells": cells}
            )
        p11, p10, p01, p00 = cells
        potentials = (
            0.25 * math.log(p11 * p10 / (p01 * p00)),
            0.25 * math.log(p11 * p01 / (p10 * p00)),
            0.25 * math.log(p11 * p00 / (p10 * p01)),
        )
        if min(potentials) < 0.0:
            raise CalibrationError(
                f"{where} needs a negative potential {min(potentials):.3g}",
                residuals={"cells": cells, "potentials": list(potentials)},
            )
        theta[i], theta[j] = potentials[0], potentials[1]
        solved.append((i, j, potentials[2]))
    return IsingModel.from_parameters(theta, solved, math.atanh(2 * class_balance - 1))


def calibration_residual(model: IsingModel, targets, edges=(), edge_gap=0.1, class_balance=0.5):
    """max |achieved - target| over the accuracies, edge gaps and class
    balance of a ``calibrate`` call, with the model's achieved values from
    the forward map (``diagnostics``)."""
    targets, pairs, gap = _calibration_targets(targets, edges, edge_gap, class_balance)
    diag = diagnostics(model)
    acc, pair = diag.accuracies, diag.pair_moments
    misses = list(np.abs(acc - targets))
    misses += [abs(pair[i, j] - acc[i] * acc[j] - gap) for i, j in pairs]
    misses.append(abs(diag.class_balance - class_balance))
    return float(max(misses))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample(model: IsingModel, n: int, seed) -> SourceMatrix:
    """n i.i.d. labeled draws: one :func:`sample_rows` sample, as int8 rows
    of the source signs s = u * y."""
    rows = sample_rows(model, n, seed, 1)[0].astype(np.int8)
    y = rows[:, model.m]
    return SourceMatrix(rows[:, : model.m] * y[:, None], y)


def sample_state_counts(model: IsingModel, n: int, seed, size: int | None = None) -> np.ndarray:
    """Multinomial counts over joint states; the sufficient statistics of a draw.

    Distributionally identical to counting the rows of :func:`sample`.  With
    ``size``, returns (size, 2^(m+1)) counts of that many independent
    samples in one call; numpy draws the rows one after another, so they
    equal ``size`` calls without it on the same generator.  Reads the joint
    table.  The Monte-Carlo engine does not draw this way: it needs no
    label, and draws u alone (:func:`sample_u_counts`) or rows of u
    (:func:`sample_rows`).
    """
    if n < 1:
        raise ContractError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    return rng.multinomial(n, model.joint, size=size).astype(np.float64)


def sample_u_counts(model: IsingModel, n: int, seed, size: int) -> np.ndarray:
    """``size`` samples of n rows as (size, 2^m) counts of the configurations
    of u = s * y; the label is never drawn.

    One trial at a time: ``random(n)`` times 2^m splits exactly, as 2^m is a
    power of two, into a uniform bin and a uniform fraction; the fraction is
    compared with the bin's ``IsingModel.u_alias`` probability, which picks
    the bin or its alias, and one ``bincount`` counts the picks.  numpy draws
    the uniforms one after another, so consecutive calls on one generator
    equal one call for all their samples.
    """
    if n < 1:
        raise ContractError("sample size must be at least 1")
    prob, alias = model.u_alias
    rng = np.random.default_rng(seed)
    bins = 1 << model.m
    counts = np.empty((size, bins))
    for t in range(size):
        x = rng.random(n)
        x *= bins
        k = x.astype(np.intp)
        x -= k
        counts[t] = np.bincount(np.where(x < prob[k], k, alias[k]), minlength=bins)
    return counts


def sample_rows(model: IsingModel, n: int, seed, size: int) -> np.ndarray:
    """``size`` samples of n rows, (size, n, m+1) of +-1: u = s * y in
    columns 0..m-1, then the label in column m.

    One ``random((size, n, m+1))`` call; a column is +1 where its uniform
    lies below its ``IsingModel.row_thresholds`` entry, an edge's second
    column against the threshold its first column's value selects.  The
    source signs are s = u * y.  The rows overwrite the uniforms, as
    ``2 * plus - 1``, so the call keeps one float64 array of the rows' size
    alive, plus temporaries of the edges' second columns.  numpy draws the
    uniforms one after another, so consecutive calls on one generator equal
    one call for all their samples.
    """
    if n < 1:
        raise ContractError("sample size must be at least 1")
    m = model.m
    p, given_minus, first, second = model.row_thresholds
    uniform = np.random.default_rng(seed).random((size, n, m + 1))
    plus = uniform < p
    plus[..., second] = uniform[..., second] < np.where(plus[..., first], p[second], given_minus)
    rows = np.multiply(plus, 2.0, out=uniform)
    rows -= 1.0
    return rows
