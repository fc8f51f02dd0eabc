"""Naive-Bayes label model: soft labels from per-source conditionals.

The posterior on a row of source outputs s is

    q(Y = 1 | s) = prod_i q(s_i | Y = 1) * Pr(Y = 1) / denominator(s)

with two denominator modes:

* ``empirical``: a fitted configuration distribution over the 2**m source
  patterns.  This is the form the generalization-error decomposition is an
  exact identity for; the value is not normalized in finite samples and may
  exceed one.
* ``normalized``: the sum of the two class numerators, always a proper
  probability.  The practical mode for producing labels.

Accuracy-parameterized models use the symmetric conditionals
q(s_i = 1 | Y = 1) = q(s_i = -1 | Y = -1) = (1 + a_i) / 2; class-conditional
models supply both columns explicitly.

``posterior`` evaluates rows of source outputs.  The scores
(``cross_entropy``, ``classification_scores``) take labeled rows as
``LabeledStates``, or as joint-state indices that they decode into one.  A
model's posteriors are computed once per ``LabeledStates``, at the source
configurations its rows hold; ``log_posterior_table`` holds them at all
2**m configurations.  All three come from one product over 0/1 rows
(``LabelModel._log_posteriors``), so a row's posterior is the table's at
its configuration bit for bit.  Empirical mode refuses a configuration of
zero mass only where it is evaluated: a row, a scored configuration, or
any configuration for the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import SourceMatrix
from .errors import ContractError, UnseenConfigurationError
from .estimators import AccuracyEstimate, ClassConditionalEstimate
from .states import check_capacity, config_bits, config_index

ACCURACY_CLAMP = 1e-6   # estimates pulled inside [-1 + c, 1 - c] before use
LOSS_FLOOR = 1e-12      # probability floor applied inside cross_entropy only
ROW_BLOCK = 16          # posteriors are computed over whole blocks of this many rows


def empirical_config_dist(
    data: SourceMatrix, laplace: float | None = None
) -> np.ndarray:
    """Configuration distribution over all 2**m source patterns.

    ``laplace=None`` gives plain frequencies (zero mass on unseen patterns);
    ``laplace=k`` gives (count + k) / (n + k * 2**m), which has full support.
    """
    check_capacity(data.m)
    counts = data.config_counts()
    if laplace is None:
        return counts / data.n
    if laplace <= 0:
        raise ContractError("laplace pseudocount must be positive")
    return (counts + laplace) / (data.n + laplace * counts.size)


@dataclass(frozen=True)
class LabelModel:
    """Immutable fitted inference model; see the module docstring for modes."""

    cond_pos: np.ndarray            # q(s_i = 1 | Y = 1)
    cond_neg: np.ndarray            # q(s_i = 1 | Y = -1)
    class_balance: float
    mode: str = "normalized"
    config_dist: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)
    _scored: list = field(default_factory=list, init=False, repr=False, compare=False)  # [states, posteriors]

    def __post_init__(self):
        if self.mode not in ("normalized", "empirical"):
            raise ContractError(f"unknown inference mode '{self.mode}'")
        if not 0.0 < self.class_balance < 1.0:
            raise ContractError("class balance must lie in (0, 1)")
        lo = ACCURACY_CLAMP / 2.0
        for name in ("cond_pos", "cond_neg"):
            arr = np.clip(np.asarray(getattr(self, name), dtype=np.float64), lo, 1.0 - lo)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.cond_pos.shape != self.cond_neg.shape or self.cond_pos.ndim != 1:
            raise ContractError("conditional vectors must be equal-length 1-d arrays")
        if self.mode == "empirical":
            if self.config_dist is None:
                raise ContractError("empirical mode requires a configuration distribution")
            dist = np.asarray(self.config_dist, dtype=np.float64)
            if dist.size != 1 << self.m:
                raise ContractError("configuration distribution has the wrong size")
            dist.setflags(write=False)
            object.__setattr__(self, "config_dist", dist)

    @property
    def m(self) -> int:
        return self.cond_pos.size

    @classmethod
    def from_accuracies(
        cls,
        accuracies,
        class_balance: float,
        mode: str = "normalized",
        config_dist: np.ndarray | None = None,
    ) -> "LabelModel":
        if isinstance(accuracies, AccuracyEstimate):
            meta = {"method": accuracies.method, "aggregation": accuracies.aggregation}
            acc = accuracies.values
        else:
            meta = {}
            acc = np.asarray(accuracies, dtype=np.float64)
        acc = np.clip(acc, -1.0 + ACCURACY_CLAMP, 1.0 - ACCURACY_CLAMP)
        return cls(
            (1.0 + acc) / 2.0,
            (1.0 - acc) / 2.0,
            class_balance,
            mode,
            config_dist,
            meta,
        )

    @classmethod
    def from_class_conditional(
        cls,
        estimate: ClassConditionalEstimate,
        mode: str = "normalized",
        config_dist: np.ndarray | None = None,
    ) -> "LabelModel":
        return cls(
            estimate.cond_pos.copy(),
            estimate.cond_neg.copy(),
            estimate.class_balance,
            mode,
            config_dist,
            {"method": "quadratic-triplet"},
        )

    # -- log-space cores ---------------------------------------------------

    def _log_numerators(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row log numerators for Y=+1 and Y=-1; bits is an (n, m) 0/1 array."""
        off = 1.0 - bits
        lw_pos = (
            bits @ np.log(self.cond_pos)
            + off @ np.log1p(-self.cond_pos)
            + np.log(self.class_balance)
        )
        lw_neg = (
            bits @ np.log(self.cond_neg)
            + off @ np.log1p(-self.cond_neg)
            + np.log1p(-self.class_balance)
        )
        return lw_pos, lw_neg

    def _log_posteriors(self, bits: np.ndarray, configs=None) -> tuple[np.ndarray, np.ndarray]:
        """Read-only log posteriors (Y=+1, Y=-1) of an (n, m) array of 0/1 source bits.

        ``configs`` are the rows' configuration indices, which only empirical
        mode reads: a row whose configuration has zero mass is refused.  The
        rows are padded with rows of configuration 0 to a whole number of
        ``ROW_BLOCK`` rows: BLAS forms a matrix-vector product in blocks of
        rows and may sum the rows of a last, partial block in another order.
        Padded, a row's posterior is the same bits whatever rows it comes
        with, so rows, a split's configurations and the table agree.  Bits
        that are not float64, such as booleans, are converted in the same copy.
        """
        n = bits.shape[0]
        if n % ROW_BLOCK or bits.dtype != np.float64:
            bits = np.concatenate((bits, np.zeros((-n % ROW_BLOCK, self.m))), dtype=np.float64)
        lw_pos, lw_neg = (lw[:n] for lw in self._log_numerators(bits))
        if self.mode == "normalized":
            denom = np.logaddexp(lw_pos, lw_neg)
        else:
            mass = self.config_dist[configs]
            if np.any(mass <= 0.0):
                raise UnseenConfigurationError(
                    f"configuration {configs[np.argmax(mass <= 0.0)]} has zero estimated "
                    "probability; use smoothing or normalized mode"
                )
            denom = np.log(mass)
        posteriors = (lw_pos - denom, lw_neg - denom)
        for arr in posteriors:
            arr.setflags(write=False)
        return posteriors

    def log_posteriors(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log q(Y=1|row), log q(Y=-1|row)) of an (n, m) array of +-1 rows, without any floor."""
        values = np.asarray(values)
        configs = config_index(values) if self.mode == "empirical" else None
        return self._log_posteriors(values > 0, configs)

    def log_posterior_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Log posteriors for every one of the 2**m configurations, in index order.

        Built once per model (the model is immutable) and returned read-only.
        Empirical mode needs a configuration distribution with full support.
        """
        return self._posterior_table

    @cached_property
    def _posterior_table(self) -> tuple[np.ndarray, np.ndarray]:
        check_capacity(self.m)
        return self._log_posteriors(config_bits(self.m), np.arange(1 << self.m))

    def _log_posteriors_of(self, states: "LabeledStates") -> tuple[np.ndarray, np.ndarray]:
        """Log posteriors (Y=+1, Y=-1) at the configurations of ``states``.

        Rows that hold every configuration read the table.  Otherwise the
        model keeps the columns of the last ``states`` it was asked for, so a
        loss and an F1 on one split compute them once.
        """
        if states.configs.size == 1 << self.m:
            return self.log_posterior_table()
        if not self._scored or self._scored[0] is not states:
            self._scored[:] = states, self._log_posteriors(states.bits, states.configs)
        return self._scored[1]


def posterior(model: LabelModel, rows: SourceMatrix | np.ndarray) -> np.ndarray:
    """q(Y = 1 | row) per row; may exceed 1 in empirical mode (reported as-is)."""
    values = rows.values if isinstance(rows, SourceMatrix) else np.asarray(rows)
    lp_pos, _ = model.log_posteriors(values)
    return np.exp(lp_pos)


@dataclass(frozen=True, eq=False)
class LabeledStates:
    """Labeled rows given as joint-state indices, decoded and checked once for scoring.

    ``configs`` are the distinct source configurations of the rows, in
    ascending order, and ``pos`` and ``neg`` count each one's rows with
    Y = +1 and Y = -1.  Row r reads entry ``rows[r]`` of a model's Y = -1 and
    Y = +1 log posteriors at ``configs`` joined end to end, so it reads the
    value the posterior table holds at its joint state.  ``bits`` are the
    configurations' rows of ``config_bits``.
    """

    m: int
    configs: np.ndarray
    bits: np.ndarray
    rows: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    @classmethod
    def from_states(cls, states, m: int) -> "LabeledStates":
        """Decode the joint-state indices (``SourceMatrix.state_index``) of rows of m sources."""
        states = np.asarray(states)
        if states.ndim != 1 or not np.issubdtype(states.dtype, np.integer):
            raise ContractError("scoring takes a 1-d integer array of joint-state indices")
        if states.size and (states.min() < 0 or states.max() >= 2 << m):
            raise ContractError(f"joint-state indices of {m} sources lie in [0, {2 << m})")
        check_capacity(m)
        states = states.astype(np.intp, copy=False)
        neg, pos = np.bincount(states, minlength=2 << m).reshape(2, 1 << m)
        configs = np.flatnonzero(neg + pos)
        where = np.zeros(1 << m, dtype=np.intp)
        where[configs] = np.arange(configs.size)
        rows = where[states & ((1 << m) - 1)] + (states >> m) * configs.size
        bits = config_bits(m)[configs]
        return cls(m, configs, bits, rows, pos[configs], neg[configs])


def _decoded(model: LabelModel, states) -> tuple[LabeledStates, np.ndarray, np.ndarray]:
    """The rows as ``LabeledStates`` and the model's log posteriors (Y=+1, Y=-1) at their configurations."""
    if not isinstance(states, LabeledStates):
        states = LabeledStates.from_states(states, model.m)
    elif states.m != model.m:
        raise ContractError(f"the rows hold states of {states.m} sources, the model {model.m}")
    return (states, *model._log_posteriors_of(states))


def cross_entropy(model: LabelModel, states, floor: float = LOSS_FLOOR) -> float:
    """Mean cross-entropy of the model's posteriors against the labels.

    ``states`` are the scored rows as ``LabeledStates`` or joint-state
    indices; each row's log posterior is the posterior table's at its joint
    state, so the loss is the mean over rows, in row order, of the floored
    table gathered per row.  Empirical mode refuses a scored configuration
    of zero mass with ``UnseenConfigurationError``; other configurations
    may have none.  Posterior probabilities are floored at ``floor`` before
    the log so the loss stays finite; values above one (possible in
    empirical mode) are kept as-is for decomposition fidelity.
    """
    states, lp_pos, lp_neg = _decoded(model, states)
    table = np.concatenate((lp_neg, lp_pos))  # indexed by LabeledStates.rows: the label is the block
    if floor > 0.0:
        table = np.maximum(table, np.log(floor))
    return float(-table[states.rows].mean())


def classification_scores(model: LabelModel, states, threshold: float = 0.5) -> dict:
    """Precision/recall/F1 on the +1 class at the given posterior threshold.

    ``states`` are as in :func:`cross_entropy`; a configuration's rows are
    all predicted alike, so the counts are sums of its label counts.
    """
    states, lp_pos, _ = _decoded(model, states)
    pred = np.exp(lp_pos) >= threshold
    tp = int(states.pos[pred].sum())
    fp = int(states.neg[pred].sum())
    fn = int(states.pos[~pred].sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    degenerate = precision + recall == 0.0
    f1 = 0.0 if degenerate else 2.0 * precision * recall / (precision + recall)
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "degenerate": degenerate,
    }


def f1_score(model: LabelModel, states, threshold: float = 0.5) -> float:
    return classification_scores(model, states, threshold)["f1"]
