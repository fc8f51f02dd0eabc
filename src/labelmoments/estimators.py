"""Accuracy estimation from labeled or unlabeled source outputs.

The unlabeled route solves, for each source i and a pair (j, k) of distinct
other sources,

    a_i^(j,k) = sqrt(| M_ij * M_ik / M_jk |),

where M is the pairwise agreement matrix E[s_i s_j]; under conditional
independence given Y this equals E[s_i Y] exactly.  Aggregation over the
C(m-1, 2) candidate pairs is ``single`` (one uniformly random pair, the
variant the theory analyzes), ``mean`` (the experimental baseline), or
``median`` (the misspecification correction).  Signs are taken positive
throughout: sources are assumed better than random on average.

Labeled data estimates E[s_i Y] directly: it is ``SampleMoments.acc``.
Every estimator reads moments, never rows; ``SampleMoments`` comes from
joint-state counts (``from_state_counts``), from +-1 rows (``from_rows``;
``from_source_matrix`` for a data file), or from counts or rows of
u = s * y (``from_u_counts``, ``from_u_rows``; without sign means).
The Monte-Carlo engine takes u-rows when a sample has fewer entries than
the joint states, and u-counts otherwise.  The two estimates can be combined
linearly or through a positive-part James-Stein rule that picks the weight
from the labeled estimator's covariance.

Batch axes: ``SampleMoments.from_state_counts`` takes counts of shape
(..., 2^(m+1)), ``from_u_counts`` (..., 2^m) and ``from_rows`` and
``from_u_rows`` rows of shape (..., n, m), and all return moments with the
same leading axes; ``triplet_census`` turns pair moments (..., m, m) into
a (..., m, C(m-1, 2)) census, and ``aggregate_census`` reduces a census
over its last axis.  The Monte-Carlo engine passes a block of trials at
once; a single fit (``estimate_*``, the data-file commands, the case
study) is the case without leading axes, so both run one implementation.
Each batch row comes out bit for bit as the unbatched call would give it,
and a sample's row moments equal the moments of its state counts: the
moment sums are exact (integer counts times +-1), the census is
elementwise, the median is a sort, and the mean sums the rows of a
C-contiguous 2-d array, whatever the census's memory layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .data import SourceMatrix
from .errors import ContractError, EstimationError, NumericalError
from .manifest import write_json
from .states import config_bits

DEGENERATE_FLOOR = 1e-6  # |M_jk| below this makes a triplet denominator unusable
SHRINKAGE_RIDGE = 1e-8   # ridge on the labeled covariance, relative to its mean diagonal
PROB_TOL = 1e-6          # slack on the [0, 1] checks of the class-conditional census


# ---------------------------------------------------------------------------
# Sufficient statistics
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _state_stats(m: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Statistic rows over the 2^m source configurations, and the pair indices.

    Rows 0..m-1 hold each source's sign and the rest the sign products of
    the pairs (i, j), i < j, in ``combinations`` order.  Source signs repeat
    in both label halves of the joint states, so configurations suffice.
    The sign rows are ``2 * config_bits - 1``; every row is contiguous and
    filled in place, so no whole-table temporary is built.
    """
    ii, jj = np.triu_indices(m, 1)
    table = np.empty((m + ii.size, 1 << m))
    signs = table[:m]
    np.multiply(config_bits(m).T, 2.0, out=signs)
    signs -= 1.0
    for c in range(ii.size):
        np.multiply(signs[ii[c]], signs[jj[c]], out=table[m + c])
    return table, (ii, jj)


def _config_moments(counts: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row counts, sign means and pair moments (unit diagonal) of counts
    (..., 2^m) over source configurations."""
    table, (ii, jj) = _state_stats(m)
    n = counts.sum(axis=-1)
    stats = (counts @ table.T) / n[..., None]  # means, then pair moments
    pair = np.empty(counts.shape[:-1] + (m, m))
    pair[..., ii, jj] = pair[..., jj, ii] = stats[..., m:]
    pair[..., range(m), range(m)] = 1.0
    return n, stats[..., :m], pair


@dataclass(frozen=True)
class SampleMoments:
    """First and second empirical moments of a sample; all estimators run on these.

    ``from_state_counts``, ``from_u_counts``, ``from_rows`` and
    ``from_u_rows`` also make the moments of a batch of samples, with
    leading axes on every field, and the covariance methods then return one
    matrix per sample.
    """

    n: int                         # an integer array for a batch of samples
    means: np.ndarray | None       # empirical E[s_i]; None for moments of u = s * y
    pair: np.ndarray               # empirical E[s_i s_j], unit diagonal
    acc: np.ndarray | None = None  # empirical E[s_i y] when labels were present

    @property
    def m(self) -> int:
        return self.pair.shape[-1]

    @classmethod
    def from_source_matrix(cls, data: SourceMatrix) -> "SampleMoments":
        if data.n < 1:
            raise ContractError("at least one row required")
        labels = data.labels.astype(np.float64) if data.has_labels else None
        return cls.from_rows(data.values.astype(np.float64), labels)

    @classmethod
    def from_rows(cls, x: np.ndarray, y: np.ndarray | None = None) -> "SampleMoments":
        """Moments of +-1 rows x (..., n, m) with labels y (..., n) or none;
        leading axes are a batch.

        Every sum adds +-1 products, so it is exact in any order: a sample's
        moments equal ``from_state_counts`` of its state counts bit for bit.
        """
        n = x.shape[-2]
        pair = np.matmul(np.swapaxes(x, -1, -2), x) / n
        acc = None if y is None else np.matmul(y[..., None, :], x)[..., 0, :] / n
        batch = n if x.ndim == 2 else np.full(x.shape[:-2], n, dtype=np.int64)
        return cls(batch, np.matmul(np.ones(n), x) / n, pair, acc)

    @classmethod
    def from_state_counts(cls, counts: np.ndarray, m: int) -> "SampleMoments":
        """Moments of joint-state counts (..., 2^(m+1)); leading axes are a batch.

        The label is the top bit of a joint-state index, so the counts split
        into a Y = -1 and a Y = +1 half over the same source configurations:
        their sum gives the source moments and their difference the labeled
        ones.  Every sum adds integer counts times +-1, so it is exact in any
        order, and one matrix product over a batch equals a product per
        sample.
        """
        neg, pos = counts[..., : 1 << m], counts[..., 1 << m :]
        n, means, pair = _config_moments(neg + pos, m)
        acc = ((pos - neg) @ _state_stats(m)[0][:m].T) / n[..., None]
        return cls(int(n) if counts.ndim == 1 else n.astype(np.int64), means, pair, acc)

    @classmethod
    def from_u_counts(cls, counts: np.ndarray, m: int) -> "SampleMoments":
        """Labeled moments of counts (..., 2^m) over the configurations of
        u = s * y; leading axes are a batch.

        Every moment the estimators read depends on u alone: E[s_i y] is
        E[u_i] and E[s_i s_j] is E[u_i u_j], so ``acc`` is the mean u and
        ``pair`` the mean u u^T, by the sums of ``from_state_counts``.
        E[s_i] needs Y, so ``means`` is None.
        """
        n, acc, pair = _config_moments(counts, m)
        return cls(int(n) if counts.ndim == 1 else n.astype(np.int64), None, pair, acc)

    @classmethod
    def from_u_rows(cls, u: np.ndarray) -> "SampleMoments":
        """Labeled moments of +-1 rows (..., n, m) of u = s * y, as
        ``from_u_counts`` gives them: ``acc`` is the mean u, ``pair`` the
        mean u u^T and ``means`` None.

        These are ``from_rows``' sign means and pair moments of u, exact
        sums of +-1 products, so they equal ``from_rows(s, y)``'s ``acc``
        and ``pair`` bit for bit.
        """
        moments = cls.from_rows(u)
        return cls(moments.n, None, moments.pair, moments.means)

    def labeled_covariance(self) -> np.ndarray:
        """Sample covariance (ddof=1) of the per-row vectors s * y."""
        if self.acc is None:
            raise ContractError("labeled covariance requires labels")
        if np.any(self.n < 2):
            raise ContractError("labeled covariance requires at least two rows")
        n = np.asarray(self.n)[..., None, None]
        return (self.pair - self.acc[..., :, None] * self.acc[..., None, :]) * (n / (n - 1))

    def shrinkage_covariance(self) -> np.ndarray:
        """Covariance of the labeled accuracy estimate, as the shrinkage rule uses it.

        The labeled covariance over the row count, plus ``SHRINKAGE_RIDGE``
        times its mean diagonal; a zero trace raises ``NumericalError``.
        """
        sigma = self.labeled_covariance() / np.asarray(self.n)[..., None, None]
        scale = np.trace(sigma, axis1=-2, axis2=-1)[..., None, None] / self.m
        if np.any(scale <= 0.0):
            raise NumericalError("labeled covariance is identically zero")
        return sigma + SHRINKAGE_RIDGE * scale * np.eye(self.m)


# ---------------------------------------------------------------------------
# Estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccuracyEstimate:
    """An m-vector of estimated E[s_i Y] values, clipped to [-1, 1]."""

    values: np.ndarray
    method: str
    aggregation: str | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.clip(np.asarray(self.values, dtype=np.float64), -1.0, 1.0)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.size

    def to_dict(self) -> dict:
        return {
            "values": [float(v) for v in self.values],
            "method": self.method,
            "aggregation": self.aggregation,
            "metadata": _jsonable(self.metadata),
        }

    def to_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "AccuracyEstimate":
        """The estimate stored as JSON; refuses ``values`` that are not accuracies in [-1, 1]."""
        values = np.asarray(doc["values"], dtype=np.float64)
        if values.ndim != 1 or not np.all((values >= -1.0) & (values <= 1.0)):
            raise ContractError("'values' must be a list of finite accuracies in [-1, 1]")
        return cls(
            values,
            doc.get("method", "unknown"),
            doc.get("aggregation"),
            doc.get("metadata", {}),
        )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


# ---------------------------------------------------------------------------
# Triplet estimation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _pair_table(m: int, known_edges: frozenset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Witness-pair index arrays (m, C(m-1,2)) and the known-edge exclusion mask.

    Row i holds the pairs (j, k) of the other sources in ``combinations``
    order; a pair is excluded when any of (i, j), (i, k), (j, k) is a known
    edge, read from an (m, m) edge mask.  All three arrays are C-contiguous.
    A known edge must join two distinct sources in [0, m); a self-pair or an
    unknown source would exclude nothing, so it raises ``ContractError``.
    """
    bad = sorted((i, j) for i, j in known_edges if not 0 <= i < j < m)
    if bad:
        raise ContractError(f"known edges {bad} are not pairs of distinct sources in [0, {m})")
    rows = np.arange(m)[:, None]
    others = np.arange(m - 1, dtype=np.int64) + (np.arange(m - 1) >= rows)  # row i: all but i
    a, b = np.triu_indices(m - 1, 1)
    jj, kk = np.take(others, a, axis=1), np.take(others, b, axis=1)
    edge = np.zeros((m, m), dtype=bool)
    for i, j in known_edges:
        edge[i, j] = edge[j, i] = True
    allowed = ~(edge[rows, jj] | edge[rows, kk] | edge[jj, kk])
    return jj, kk, allowed


def _normalize_edges(known_edges) -> frozenset:
    return frozenset((min(int(i), int(j)), max(int(i), int(j))) for i, j in known_edges)


def triplet_census(
    pair_moments: np.ndarray, known_edges=()
) -> tuple[np.ndarray, np.ndarray]:
    """All triplet values (..., m, C(m-1,2)) and their validity mask.

    ``pair_moments`` is (..., m, m); leading axes are a batch.  Invalid
    columns are degenerate denominators or pairs touching a known
    dependency (partial-recovery mode).
    """
    pair_moments = np.asarray(pair_moments, dtype=np.float64)
    m = pair_moments.shape[-1]
    if m < 3:
        raise ContractError("triplet estimation requires at least three sources")
    jj, kk, allowed = _pair_table(m, _normalize_edges(known_edges))
    rows = np.arange(m)[:, None]
    # sqrt|M_ij M_ik / M_jk| in place, gathered by ``take`` in C order (a
    # fancy index behind the batch axes would put those axes innermost), so
    # that no more than two census-sized float64 arrays are alive at once
    flat = pair_moments.reshape(pair_moments.shape[:-2] + (m * m,))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.take(flat, rows * m + jj, axis=-1)
        vals *= np.take(flat, rows * m + kk, axis=-1)
        denom = np.take(flat, jj * m + kk, axis=-1)
        valid = allowed & ((denom >= DEGENERATE_FLOOR) | (denom <= -DEGENERATE_FLOOR))
        vals /= denom
        np.sqrt(np.abs(vals, out=vals), out=vals)
    vals[~valid] = np.nan
    np.clip(vals, 0.0, 1.0, out=vals)
    return vals, valid


def aggregate_census(
    vals: np.ndarray, valid: np.ndarray, aggregation: str, rng=None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-source ``mean``/``median``/``single`` of a census over its last axis.

    ``vals`` and ``valid`` are (..., m, C); returns the (..., m) estimates
    and valid counts.  A batch row in which some source has no valid column
    is unusable: its estimates are meaningless and it draws nothing.
    ``single`` picks one valid column per source for every usable row with
    one ``rng.integers(0, counts)`` (``rng`` is a generator, or a seed for
    one), in row, then source order.  numpy draws those elements one after
    another, so the picks of consecutive blocks of rows equal one call over
    all of them; for one census they are the columns, and leave the
    generator in the state, of a ``rng.choice`` among each source's valid
    columns in source order.
    """
    if aggregation not in ("mean", "median", "single"):
        raise ContractError(f"unknown aggregation '{aggregation}'")
    npairs = vals.shape[-1]
    counts = valid.sum(axis=-1)
    if aggregation == "mean":
        # Invalid and NaN columns add zero, as in a nansum.  The row sums run
        # over a C-contiguous 2-d array, as for a single C-ordered census:
        # numpy sums a contiguous row pairwise and a strided one in sequence.
        terms = np.ascontiguousarray(np.where(valid & ~np.isnan(vals), vals, 0.0))
        sums = terms.reshape(-1, npairs).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return sums.reshape(counts.shape) / counts, counts
    if aggregation == "median":
        order = np.where(valid, vals, np.inf)
        order.sort(axis=-1)
        lower = np.maximum(counts - 1, 0)[..., None] // 2  # lower median for even counts
        return np.take_along_axis(order, lower, axis=-1)[..., 0], counts
    usable = (counts > 0).all(axis=-1)
    pick = np.random.default_rng(rng).integers(0, counts[usable])
    # the pick-th valid column is the first whose running valid count exceeds
    # pick; the count runs in place, in one integer array
    cols = valid[usable].astype(np.int64)
    np.cumsum(cols, axis=-1, out=cols)
    cols = np.argmax(cols > pick[..., None], axis=-1)
    est = np.full(counts.shape, np.nan)
    est[usable] = np.take_along_axis(vals[usable], cols[..., None], axis=-1)[..., 0]
    return est, counts


def _aggregate_one(
    vals: np.ndarray, valid: np.ndarray, aggregation: str, seed, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """``aggregate_census`` of one (m, C) census; ``kind`` names it in the error
    raised, before any draw, when a source has no valid column."""
    counts = valid.sum(axis=1)
    if (counts == 0).any():
        raise EstimationError(f"no usable {kind} for source {int(np.argmin(counts))}")
    return aggregate_census(vals, valid, aggregation, seed)


def estimate_triplet_from_moments(
    pair_moments: np.ndarray,
    aggregation: str = "mean",
    seed=None,
    known_edges=(),
) -> AccuracyEstimate:
    """Triplet estimates for every source from a pairwise agreement matrix.

    The census takes absolute values, which assumes every source better
    than random.  The metadata counts, per source, the evidence against
    that: ``negative_pairs``, the other sources j with M_ij < 0, where a
    worse-than-random source shows, and ``negative_triplets``, valid
    triplets with M_ij * M_ik * M_jk < 0, which no sign assignment fits
    (negating sources keeps a triple product's sign).
    """
    vals, valid = triplet_census(pair_moments, known_edges)
    npairs = vals.shape[1]
    est, counts = _aggregate_one(vals, valid, aggregation, seed, "triplet")
    pair = np.asarray(pair_moments, dtype=np.float64)
    jj, kk, _ = _pair_table(pair.shape[0], _normalize_edges(known_edges))
    rows = np.arange(pair.shape[0])[:, None]
    negative = valid & (pair[rows, jj] * pair[rows, kk] * pair[jj, kk] < 0)
    meta = {
        "skipped": [int(npairs - c) for c in counts],
        "census_size": int(npairs),
        "negative_triplets": [int(c) for c in negative.sum(axis=1)],
        "negative_pairs": [int(c) for c in (pair < 0).sum(axis=1)],
    }
    if known_edges:
        meta["known_edges"] = sorted(_normalize_edges(known_edges))
    return AccuracyEstimate(est, method="triplet", aggregation=aggregation, metadata=meta)


# ---------------------------------------------------------------------------
# Combination rules
# ---------------------------------------------------------------------------


def combine_linear(
    a_unlabeled: AccuracyEstimate, a_labeled: AccuracyEstimate, alpha: float
) -> AccuracyEstimate:
    """Componentwise convex combination: alpha on the unlabeled estimate."""
    if not 0.0 <= alpha <= 1.0:
        raise ContractError("alpha must lie in [0, 1]")
    if a_unlabeled.m != a_labeled.m:
        raise ContractError("estimates must cover the same sources")
    vals = alpha * a_unlabeled.values + (1.0 - alpha) * a_labeled.values
    return AccuracyEstimate(
        vals, method="combined-linear", metadata={"alpha": float(alpha)}
    )


def green_strawderman_alpha(
    diff: np.ndarray, sigma: np.ndarray, r: float
) -> float | np.ndarray:
    """min(r / ||diff||_{sigma^-1}, 1); the weight the shrinkage rule realizes.

    ``diff`` (..., m) and ``sigma`` (..., m, m) may carry a batch of pairs,
    and the weights then come back as an array.  Each pair's solve and dot
    are the LAPACK and BLAS calls of a lone pair, so every weight equals its
    pair's alone bit for bit; a failed solve or a negative form anywhere in
    the batch raises ``NumericalError``.
    """
    diff = np.asarray(diff, dtype=np.float64)
    try:
        solved = np.linalg.solve(sigma, diff[..., None])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance solve failed: {exc}") from exc
    quad = np.matmul(diff[..., None, :], solved)[..., 0, 0]
    if (quad < 0).any():
        raise NumericalError("covariance is not positive definite")
    norm = np.sqrt(quad)
    alpha = np.minimum(np.divide(r, norm, out=np.ones_like(norm), where=norm != 0.0), 1.0)
    return float(alpha) if alpha.ndim == 0 else alpha


def combine_green_strawderman(
    a_unlabeled: AccuracyEstimate,
    moments: SampleMoments,
    r: float | None = None,
) -> AccuracyEstimate:
    """Positive-part shrinkage of the labeled estimate toward the unlabeled one.

    The labeled estimate is ``moments.acc``, so the moments must carry labels
    (``ContractError`` otherwise).  The labeled estimator's covariance is
    ``SampleMoments.shrinkage_covariance``, so a zero covariance raises
    ``NumericalError``.  The result equals the
    linear combination at alpha = min(r / ||a_L - a_U||_{cov^-1}, 1),
    reported in the metadata.
    ``r`` defaults to m - 2, the midpoint of the admissible range
    [0, 2(m - 2)] (which requires m >= 3).
    """
    m = a_unlabeled.m
    if m < 3:
        raise ContractError("the shrinkage rule requires at least three sources")
    if moments.m != m:
        raise ContractError("estimates must cover the same sources")
    if r is None:
        r = float(m - 2)
    if not 0.0 <= r <= 2.0 * (m - 2):
        raise ContractError(f"r must lie in [0, {2 * (m - 2)}]")
    sigma = moments.shrinkage_covariance()  # ContractError when the moments carry no labels
    a_labeled = AccuracyEstimate(moments.acc, method="labeled")
    alpha = green_strawderman_alpha(a_labeled.values - a_unlabeled.values, sigma, r)
    out = combine_linear(a_unlabeled, a_labeled, alpha)
    return AccuracyEstimate(
        out.values,
        method="combined-green-strawderman",
        metadata={"alpha": float(alpha), "r": float(r), "ridge": SHRINKAGE_RIDGE},
    )


# ---------------------------------------------------------------------------
# Class-conditional ("quadratic") triplets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassConditionalEstimate:
    """Per-source 2x2 matrices of Pr(s_i = +-1 | Y = +-1).

    ``mu[i]`` has rows indexed by the source value (+1 then -1) and columns by
    the label (+1 then -1); each column sums to one.
    """

    mu: np.ndarray
    class_balance: float
    metadata: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.mu.shape[0]

    @property
    def cond_pos(self) -> np.ndarray:
        """Pr(s_i = 1 | Y = 1)."""
        return self.mu[:, 0, 0]

    @property
    def cond_neg(self) -> np.ndarray:
        """Pr(s_i = 1 | Y = -1)."""
        return self.mu[:, 0, 1]

    def implied_accuracies(self) -> np.ndarray:
        p = self.class_balance
        return 2.0 * (p * self.cond_pos + (1 - p) * (1.0 - self.cond_neg)) - 1.0

    def to_dict(self) -> dict:
        return {
            "mu": [[list(map(float, row)) for row in mat] for mat in self.mu],
            "class_balance": float(self.class_balance),
            "metadata": _jsonable(self.metadata),
        }

    def to_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_conditionals(
        cls, cond_pos: np.ndarray, cond_neg: np.ndarray, class_balance: float, metadata: dict
    ) -> "ClassConditionalEstimate":
        """From per-source Pr(s_i = 1 | Y = 1) and Pr(s_i = 1 | Y = -1)."""
        mu = np.empty((len(cond_pos), 2, 2))
        mu[:, 0, 0], mu[:, 1, 0] = cond_pos, 1.0 - cond_pos
        mu[:, 0, 1], mu[:, 1, 1] = cond_neg, 1.0 - cond_neg
        return cls(mu, class_balance, metadata)

    @classmethod
    def from_dict(cls, doc: dict) -> "ClassConditionalEstimate":
        """The estimate stored as JSON; refuses a ``mu`` that is not (m, 2, 2) probabilities
        and a ``class_balance`` outside (0, 1)."""
        mu, balance = np.asarray(doc["mu"], dtype=np.float64), float(doc["class_balance"])
        if mu.ndim != 3 or mu.shape[1:] != (2, 2) or not np.all((mu >= 0.0) & (mu <= 1.0)):
            raise ContractError("'mu' must hold finite (2, 2) tables of probabilities in [0, 1]")
        if not 0.0 < balance < 1.0:
            raise ContractError("'class_balance' must be a finite number in (0, 1)")
        return cls(mu, balance, doc.get("metadata", {}))


def _class_conditional_census(
    q: np.ndarray, c: np.ndarray, d: float
) -> tuple[np.ndarray, int]:
    """Pr(s_i = 1 | Y = 1) from every triplet (i, j, k) of positive-vote overlaps.

    ``q[a, b]`` is Pr(s_a = 1, s_b = 1) / Pr(Y = -1) and ``c[a]`` is
    Pr(s_a = 1) / Pr(Y = -1); d is the class-balance odds.  Eliminating the
    i and k unknowns from the three pair equations leaves a quadratic in
    source j's parameter; each real root back-substitutes into candidate
    probabilities for all three sources, and a root counts only when all six
    lie within ``PROB_TOL`` of [0, 1].  All (i, j, k) of the witness-pair
    table are solved at once.  Returns the (m, C(m-1, 2)) values, NaN where
    no root is valid, and the number of cells where both roots were valid and
    the better-than-random one was kept.
    """
    m = c.size
    jj, kk, _ = _pair_table(m, frozenset())
    rows = np.arange(m)[:, None]
    ci, cj, ck = c[:, None], c[jj], c[kk]
    big_a = d + d * d
    u0, u1 = q[rows, jj] - ci * cj, ci * d
    v0, v1 = q[jj, kk] - cj * ck, ck * d
    d0, d1 = -cj * d, big_a
    w = ci * ck - q[rows, kk]
    qa = big_a * u1 * v1 - ck * d * u1 * d1 - ci * d * v1 * d1 + w * d1 * d1
    qb = (
        big_a * (u0 * v1 + u1 * v0)
        - ck * d * (u0 * d1 + u1 * d0)
        - ci * d * (v0 * d1 + v1 * d0)
        + 2.0 * w * d0 * d1
    )
    qc = big_a * u0 * v0 - ck * d * u0 * d0 - ci * d * v0 * d0 + w * d0 * d0

    # The branch tests are negated "<" so that NaN coefficients branch as a
    # scalar if/else would; NaN roots then fail the probability checks.
    with np.errstate(divide="ignore", invalid="ignore"):
        quadratic = ~(np.abs(qa) < 1e-14)
        linear = ~quadratic & ~(np.abs(qb) < 1e-14)
        disc = qb * qb - 4.0 * qa * qc
        real = quadratic & ~(disc < 0)
        root = np.sqrt(disc)
        betas = (
            np.where(quadratic, (-qb + root) / (2 * qa), -qc / qb),
            (-qb - root) / (2 * qa),
        )
        alphas, oks = [], []
        for beta, exists in zip(betas, (real | linear, real)):
            denom = d0 + d1 * beta
            alpha = (u0 + u1 * beta) / denom
            gamma = (v0 + v1 * beta) / denom
            ok = exists & ~(np.abs(denom) < 1e-12)
            for prob in (alpha, beta, gamma, ci - d * alpha, cj - d * beta, ck - d * gamma):
                ok &= (prob >= -PROB_TOL) & (prob <= 1.0 + PROB_TOL)
            alphas.append(alpha)
            oks.append(ok)
        # Both roots give valid probability systems: prefer the better-than-random
        # source (implied accuracy >= 0.5 in probability units); the first root
        # wins ties.
        p = d / (1.0 + d)
        acc = [p * a + (1 - p) * (1.0 - (ci - d * a)) for a in alphas]
        second = oks[1] & (~oks[0] | (acc[1] > acc[0]))
    both = oks[0] & oks[1]
    vals = np.where(second, alphas[1], np.where(oks[0], alphas[0], np.nan))
    return np.clip(vals, 0.0, 1.0), int(both.sum())


def estimate_quadratic_triplet_from_moments(
    moments: SampleMoments,
    class_balance: float,
    aggregation: str = "mean",
    seed=None,
) -> ClassConditionalEstimate:
    """Class-conditional estimates from the quadratic triplet census of unlabeled moments.

    The census over every source i and witness pair (j, k) is computed in one
    array pass and aggregated per source like the accuracy triplets.  The
    metadata counts the skipped (rootless) cells per source and
    ``tiebreaks``, the cells where both roots were valid probability systems
    and the better-than-random root was kept.
    """
    if not 0.0 < class_balance < 1.0:
        raise ContractError("class balance must lie in (0, 1)")
    m = moments.m
    if m < 3:
        raise ContractError("triplet estimation requires at least three sources")
    p = class_balance
    d = p / (1.0 - p)
    pos = (1.0 + moments.means) / 2.0
    q = (1.0 + moments.pair + moments.means[:, None] + moments.means[None, :]) / 4.0
    q = q / (1.0 - p)
    c = pos / (1.0 - p)

    vals, tiebreaks = _class_conditional_census(q, c, d)
    npairs = vals.shape[1]
    alpha, counts = _aggregate_one(
        vals, ~np.isnan(vals), aggregation, seed, "class-conditional triplet"
    )

    alpha = np.clip(alpha, 0.0, 1.0)
    alpha_neg = np.clip((pos - p * alpha) / (1.0 - p), 0.0, 1.0)
    meta = {
        "aggregation": aggregation,
        "skipped": [int(npairs - cnt) for cnt in counts],
        "census_size": int(npairs),
        "tiebreaks": int(tiebreaks),
    }
    return ClassConditionalEstimate.from_conditionals(alpha, alpha_neg, class_balance, meta)

