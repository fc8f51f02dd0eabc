"""Monte-Carlo experiment harness: excess-error curves, data value ratios,
and combined-estimator sweeps on synthetic ground truths.

Evaluation protocol: a fitted accuracy vector is scored by its exact excess
generalization error under the true model with the true configuration
marginal as the inference denominator.  That choice zeroes the observable
sampling-noise term of the decomposition, so the measured excess is exactly

    inference_bias + per-source conditional KL(truth || fit),

which is what the scaling theory bounds.

The labeled side is computed exactly, not simulated: each labeled estimate
mean(s_i*y) is (2*Binomial(n, (1+a_i)/2) - n)/n and the scored excess
separates by source, so its expectation is B_I plus, per source, the
binomial-weighted sum of the outcomes' ``analysis.accuracy_kl``, the same
per-source score as a Monte-Carlo fit's (``TrialEngine.labeled_excess``).
The sum runs over the outcomes within the Hoeffding half-width of each
binomial's mean, which drops less than 1e-20 of the mass, about 3e-18 of
the value.  The curve has zero variance and approaches B_I + m/(2n);
``curves.csv`` reports it and the data value ratio's search compares it
with its thresholds.  Each search starts where the 1/n extrapolation of
the computed size nearest its threshold meets it, or, before any size is
computed, the asymptote, and gallops to the least grid point at or below
it.  The start decides only which points are evaluated: the search is exact
because the curve is monotone in n, which is tested, and the point's
failing predecessor is evaluated.

A Monte-Carlo sample cell is a sample size n.  The unlabeled estimators
share it: every triplet estimator at n fits the same samples, drawn once
from the stream ``trial_rng(seed, "excess:unlabeled/0", n)`` and memoised
on the engine as their pair moments, so the curves, the DVR targets, the
median MSE behind rho (``analysis.median_mse``) and the unlabeled side of
the combined sweep read one draw.  Each estimator draws its fits' random
choices (the witness pairs of ``triplet-single``) from its own stream,
``excess:{estimator}/fit``.  The engine fits triplet estimators only: the
labeled curve is exact, and ``labeled`` or an unknown name is refused
before any draw.  The labeled side of the combined sweep is the one
Monte-Carlo labeled cell: it reads ``blocks("excess:labeled", ...)``, which
never reads the unlabeled samples, so the sweep pairs independent samples
even when its two sizes are equal.  Trial t's sample is the t-th draw of
its stream.  The engine draws a cell in blocks of trials and fits and
scores them in chunks, all sized by one rule: a block holds as many trials
as fit ``BLOCK_BYTES`` of the arrays it keeps alive per trial.  The triplet
census and aggregation run once per chunk of the memoised unlabeled cell,
and the combined sweep scores its blends once per chunk; a trial whose fit
fails is a masked row, skipped and counted.

Random-stream protocol v6 picks the draw per cell from n and m alone, as
v3 to v5 did.  Every number the engine reads, the pair moments
E[s_i s_j] = E[u_i u_j] and the labeled accuracies E[s_i y] = E[u_i],
depends only on u = s * y, which is independent of Y, so both draw paths
yield the moments of u (``SampleMoments.from_u_rows`` and
``from_u_counts``), and neither carries sign means E[s_i].  A sample with
fewer entries than the joint states, n(m+1) < 2^(m+1), is drawn as rows:
one ``random((block, n, m+1))`` compared with per-column thresholds on u
and Y, since u factors into singletons and edge pairs
(``ising.sample_rows``).  At m=10 these are the cells with n <= 186; they
keep v5's draws, label column included, and so its bytes.  A larger sample
never draws Y: it is n draws over the 2^m configurations of u, by Walker's
alias method, one trial at a time (``ising.sample_u_counts``): each
uniform times 2^m splits into a bin and a fraction, and the fraction picks
the bin or its alias.  v5 drew these cells as one ``multinomial(size=...)``
over the 2^(m+1) joint states.  numpy draws uniforms and ``integers``
elements one after another, so a block draws exactly what the same trials
drawn one by one would, and every batched step computes each row exactly
as for a lone trial.  Results are reproducible, and the same whatever the
block size and whichever cells run first; within a cell, trial t depends
on the trials before it, so the first T trials of a longer run equal a run
of T trials.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .analysis import accuracy_excess, accuracy_kl
from .errors import ContractError, EstimationError, NumericalError
from .estimators import (
    SampleMoments,
    aggregate_census,
    estimate_triplet_from_moments,  # noqa: F401  (perfbench/tracer.py wraps this name)
    green_strawderman_alpha,
    triplet_census,
)
from .ising import (
    IsingModel, ModelDiagnostics, calibrate, diagnostics, sample_rows, sample_u_counts,
)
from .manifest import read_json

# Default synthetic roster: ten sources with accuracies drawn once, uniformly
# from [.55, .75]; dependencies pair sources in index order with a fixed
# misspecification gap per edge.
DEFAULT_ACCURACIES = (
    0.6893, 0.6072, 0.5954, 0.6603, 0.6939,
    0.6346, 0.7462, 0.6870, 0.6462, 0.6284,
)
DEFAULT_EDGE_GAP = 0.1
DEFAULT_CURVE_GRID = (250, 500, 1000, 2000, 4000)
ESTIMATOR_NAMES = ("labeled", "triplet-mean", "triplet-median", "triplet-single")


def _require_estimator(name: str) -> None:
    if name not in ESTIMATOR_NAMES:
        raise ContractError(f"unknown estimator '{name}'")


def _require_estimators(names, key: str) -> None:
    """``names`` lists at least one known estimator, each once."""
    if not names:
        raise ContractError(f"{key} must list at least one estimator")
    for name in names:
        _require_estimator(name)
    if len(set(names)) < len(names):
        raise ContractError(f"estimator listed twice in {key}: {', '.join(names)}")


def _require_triplet(name: str) -> None:
    """The trial engine fits triplet estimators only; the labeled curve is exact."""
    if name == "labeled":
        raise ContractError("the trial engine fits triplet estimators; 'labeled' is not one")
    _require_estimator(name)


def require_sizes(key: str, sizes) -> None:
    """A size grid lists at least one size, each at least 1, strictly increasing."""
    if not sizes:
        raise ContractError(f"'{key}' must list at least one sample size")
    if min(sizes) < 1:
        raise ContractError(f"{key} sizes must be at least 1, got {min(sizes)}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ContractError(f"'{key}' must be strictly increasing")


def _require_cell(n: int, trials: int) -> None:
    if n < 1:
        raise ContractError("sample size must be at least 1")
    if trials < 1:
        raise ContractError("trials must be at least 1")


def edge_layout(d: int, m: int | None = None) -> tuple[tuple[int, int], ...]:
    """Dependent pairs (0,1), (2,3), ... for the first d edges."""
    if d < 0:
        raise ContractError(f"the number of edges must be non-negative, got {d}")
    m = m if m is not None else 2 * d
    if 2 * d > m:
        raise ContractError(f"cannot place {d} disjoint edges among {m} sources")
    return tuple((2 * k, 2 * k + 1) for k in range(d))


def _reject_unknown_keys(cls, doc: dict, what: str) -> None:
    """A key that names no field of ``cls`` is a misspelling, not a default."""
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ContractError(f"unknown {what} key(s) {', '.join(map(repr, unknown))}")


def _typed(key: str, value, kind: type):
    """``value`` as ``kind``: an int for int, an int or a float for float.

    A boolean is neither, and a float where an integer belongs is refused
    rather than truncated.
    """
    allowed = (int, float) if kind is float else int
    if isinstance(value, bool) or not isinstance(value, allowed):
        what = "a number" if kind is float else "an integer"
        raise ContractError(f"'{key}' must be {what}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class SyntheticModelSpec:
    """Calibration targets defining a synthetic ground truth."""

    accuracies: tuple = DEFAULT_ACCURACIES
    d: int = 0
    edge_gap: float = DEFAULT_EDGE_GAP
    class_balance: float = 0.5

    def build(self) -> IsingModel:
        return calibrate(
            list(self.accuracies),
            edge_layout(self.d, len(self.accuracies)),
            self.edge_gap,
            self.class_balance,
        )

    def to_dict(self) -> dict:
        return {
            "accuracies": list(self.accuracies),
            "d": self.d,
            "edge_gap": self.edge_gap,
            "class_balance": self.class_balance,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SyntheticModelSpec":
        if not isinstance(doc, dict):
            raise TypeError(f"the model spec must be an object, got {type(doc).__name__}")
        _reject_unknown_keys(cls, doc, "model spec")
        return cls(
            tuple(_typed("accuracies", a, float) for a in doc.get("accuracies", DEFAULT_ACCURACIES)),
            _typed("d", doc.get("d", 0), int),
            _typed("edge_gap", doc.get("edge_gap", DEFAULT_EDGE_GAP), float),
            _typed("class_balance", doc.get("class_balance", 0.5), float),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    model: SyntheticModelSpec = SyntheticModelSpec()
    estimators: tuple = ("labeled", "triplet-mean", "triplet-median")
    n_grid: tuple = DEFAULT_CURVE_GRID
    trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ContractError("trials must be at least 1")
        _require_seed(self.seed, "'seed'")
        require_sizes("n_grid", self.n_grid)
        _require_estimators(self.estimators, "'estimators'")

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["model"] = self.model.to_dict()
        doc["estimators"] = list(self.estimators)
        doc["n_grid"] = list(self.n_grid)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        _reject_unknown_keys(cls, doc, "experiment config")
        return cls(
            SyntheticModelSpec.from_dict(doc.get("model", {})),
            tuple(doc.get("estimators", ("labeled", "triplet-mean", "triplet-median"))),
            tuple(_typed("n_grid", n, int) for n in doc.get("n_grid", DEFAULT_CURVE_GRID)),
            _typed("trials", doc.get("trials", 1000), int),
            _typed("seed", doc.get("seed", 0), int),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return read_json(path, cls.from_dict)


# ---------------------------------------------------------------------------
# Trial engine
# ---------------------------------------------------------------------------


def _stream(label: str) -> int:
    return zlib.crc32(label.encode())


def _require_seed(seed: int, name: str) -> None:
    """A root seed lies in [0, 2**63), as every ``--seed`` does."""
    if seed < 0:
        raise ContractError(f"{name} must be non-negative, got {seed}")
    if seed >= 1 << 63:
        raise ContractError(f"{name} must be below 2**63, got {seed}")


def trial_rng(seed: int, label: str, n: int) -> np.random.Generator:
    """The generator of one random stream of a Monte-Carlo cell.

    Derived from the root seed, the stream label and the cell's sample
    size; the only place a generator is seeded from the root seed.  The name
    predates one generator per stream and stays: ``perfbench/tracer.py`` and
    the tests patch it.  A seed outside [0, 2**63) is refused, as the CLI
    and configs refuse it, rather than wrapped onto another seed's stream.
    """
    _require_seed(seed, "seed")
    return np.random.default_rng(np.random.SeedSequence([seed, _stream(label), n]))


@dataclass(frozen=True)
class ExcessResult:
    estimator: str
    n: int
    mean: float
    stderr: float
    trials: int
    failures: int


# Memory budget of one block of trials: a block holds as many trials as fit
# BLOCK_BYTES of the arrays it keeps alive at once (``_trials_per_block``).
# A row block is charged 16 bytes per entry of its n(m+1) uniforms, which
# the rows overwrite, for them and the edge columns' temporaries; a u-count
# block 2^(m+1) float64 joint-state count rows, twice its 2^m counts; a fit
# chunk of the shared unlabeled cell 20 bytes per value of its m*C(m-1,2)
# census, for two float64 arrays and the boolean masks; and a blend chunk
# of the combined sweep five float64 arrays of 101*m values.  At m=10 a
# u-count block holds 8 trials, a fit chunk 18 and a blend chunk 3; at m=14
# a row block at n=250 holds 2 trials, one at n=1000, and a fit chunk 6.
BLOCK_BYTES = 128 * 1024


def _trials_per_block(bytes_per_trial: int, trials: int) -> int:
    """Trials of a block that keeps ``bytes_per_trial`` alive per trial: as
    many as fit ``BLOCK_BYTES``, at least one, and at most ``trials``."""
    return min(trials, max(1, BLOCK_BYTES // bytes_per_trial))


# Binomial mass the labeled curve's sum may drop per source.
LABELED_TAIL_MASS = 1e-20


class TrialEngine:
    """Shared per-model state for excess evaluation: Monte-Carlo trials of
    the triplet estimators, fitted and scored in chunks of the memoised pair
    moments of the unlabeled samples, and the exact, memoised labeled
    curve."""

    def __init__(self, model: IsingModel, diag: ModelDiagnostics | None = None):
        self.model = model
        self.diag = diag if diag is not None else diagnostics(model)
        self.m = model.m
        # n -> labeled_excess(n), read by the DVR search's guesses
        self.labeled_values: dict[int, float] = {}
        # (n, trials, seed) -> the read-only (trials, m, m) pair moments of
        # the unlabeled cell, which all its triplet fits read
        self._unlabeled: dict[tuple[int, int, int], np.ndarray] = {}
        self._log_factorial = np.zeros(1)

    def log_factorials(self, n: int) -> np.ndarray:
        """log k! for k = 0..n at least.

        The table is a sequential cumulative sum, so its entries do not
        depend on how far it has grown.
        """
        if n >= self._log_factorial.size:
            self._log_factorial = np.concatenate(
                ([0.0], np.cumsum(np.log(np.arange(1, n + 1, dtype=np.float64))))
            )
        return self._log_factorial

    def labeled_excess(self, n: int) -> float:
        """Expected excess of the labeled fit on n labeled samples, computed
        exactly up to a tail of 1e-20 of each binomial's mass.

        Source i's estimate is (2K - n)/n with K ~ Binomial(n, p_i),
        p_i = (1+a_i)/2, and the excess is B_I plus a sum of per-source
        terms, so its expectation is B_I plus, per source, the pmf-weighted
        ``accuracy_kl`` of the outcomes.  The sum runs over source i's window
        of outcomes k, every k with |k - n*p_i| <= h, the Hoeffding
        half-width h = sqrt(n*ln(2/eps)/2) for eps = ``LABELED_TAIL_MASS``:
        Binomial(n, p_i) has less than eps of its mass outside it (Hoeffding
        1963).  All sources share one window length, so the sum is one pass
        over an (m, window) array, and the pmf, built from the log-factorial
        table, is renormalised over the window.  The dropped tails move the
        value by at most m * 2 * eps * log(2/ACCURACY_CLAMP), about 3e-18 for
        ten sources, below the last bit of a curve value near 0.07 (ulp
        1.4e-17).  Each source's term is a numpy pairwise sum rather than a
        BLAS dot, whose split across threads would move its last bits.
        Memoised per n.
        """
        if n < 1:
            raise ContractError("sample size must be at least 1")
        if n not in self.labeled_values:
            lf = self.log_factorials(n)
            acc = self.diag.accuracies[:, None]
            tp = (1.0 + acc) / 2.0
            half = np.sqrt(n * np.log(2.0 / LABELED_TAIL_MASS) / 2.0)
            width = min(n + 1, int(np.ceil(2.0 * half)) + 2)
            k = np.clip(np.floor(n * tp - half), 0, n + 1 - width).astype(np.int64)
            k = k + np.arange(width)
            # the score before the pmf, so that their temporaries are never
            # alive together; the pmf's log is log C(n, k) + k log p + (n - k) log(1 - p)
            score = accuracy_kl(acc, (2.0 * k - n) / n)
            pmf = np.exp(lf[n] - lf[k] - lf[n - k] + k * np.log(tp) + (n - k) * np.log1p(-tp))
            pmf /= pmf.sum(axis=1, keepdims=True)
            pmf *= score
            total = self.diag.inference_bias
            for term in pmf.sum(axis=1):
                total += float(term)
            self.labeled_values[n] = float(total)
        return self.labeled_values[n]

    def blocks(self, label: str, n: int, trials: int, seed: int):
        """Draw ``trials`` samples of size n of a cell in blocks; yields the
        ``SampleMoments`` of each block's samples.

        The samples come from the stream ``trial_rng(seed, f"{label}/0", n)``.
        A sample with fewer entries than the joint states, n(m+1) < 2^(m+1),
        is drawn as rows of u = s * y (``sample_rows``, whose label column
        is not read) and read by ``SampleMoments.from_u_rows``; a larger one
        as counts of the 2^m configurations of u (``sample_u_counts``),
        without its labels, and read by ``SampleMoments.from_u_counts``.
        Both yield ``acc`` and ``pair`` and no sign means.  The rule reads
        only n and m, so a whole cell takes one path.  With one BLAS thread
        the two paths cost the same per trial near n(m+1) of 1,300 at m=10,
        9,800 at m=12 and 92,000 at m=14.  The rule's 2,048, 8,192 and
        32,768 lie within a factor of three of these; the costliest
        misplaced cells are at m=14 from n=2,185, where u-counts cost about
        2.4 times the rows.
        A block holds as many trials as fit ``BLOCK_BYTES``: a row block is
        charged two float64 arrays of its n(m+1) entries, the uniforms that
        ``sample_rows`` overwrites with the rows and, at most, the edge
        columns' temporaries; a count block 2^(m+1) float64 joint-state
        count rows, twice its 2^m counts.
        """
        _require_cell(n, trials)
        m = self.m
        draw = trial_rng(seed, f"{label}/0", n)
        as_rows = n * (m + 1) < 1 << (m + 1)
        step = _trials_per_block(16 * n * (m + 1) if as_rows else 8 << (m + 1), trials)
        for start in range(0, trials, step):
            size = min(step, trials - start)
            if as_rows:
                u = sample_rows(self.model, n, draw, size)[..., :m]
                yield SampleMoments.from_u_rows(u)
            else:
                yield SampleMoments.from_u_counts(sample_u_counts(self.model, n, draw, size), m)

    def fit(self, estimator: str, pair: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
        """Triplet fits of a chunk of trials and the mask of fits that succeeded.

        ``pair`` is a (trials, m, m) chunk of the unlabeled cell's pair
        moments; a ``triplet-single`` fit draws its witness pairs from
        ``rng``.  A fit fails when some source has no usable triplet; its
        row is then meaningless.
        """
        vals, valid = triplet_census(pair)
        est, counts = aggregate_census(vals, valid, estimator.split("-", 1)[1], rng)
        return est, (counts > 0).all(axis=-1)

    def excess(self, estimates: np.ndarray) -> np.ndarray:
        return accuracy_excess(
            self.diag.accuracies, self.diag.inference_bias, estimates
        )

    def estimates(
        self, estimator: str, n: int, trials: int, seed: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The (trials, m) fits of the triplet estimator ``estimator`` at n,
        in trial order, and the mask of fits that succeeded.

        Every triplet estimator fits the unlabeled cell ``excess:unlabeled``,
        drawn once per (n, trials, seed) and memoised as one read-only
        (trials, m, m) array of pair moments, without labels or sign means,
        with its own fit generator ``trial_rng(seed, f"excess:{estimator}/fit", n)``.
        It fits the array in chunks of as many trials as fit ``BLOCK_BYTES``
        of what a fit keeps alive per trial: two float64 arrays of the
        m*C(m-1,2) census values and their boolean masks, 20 bytes per
        value.  ``labeled``, an unknown estimator and an empty cell are
        refused before any draw.
        """
        _require_triplet(estimator)
        _require_cell(n, trials)
        m = self.m
        pair = self._unlabeled.get((n, trials, seed))
        if pair is None:
            pair, start = np.empty((trials, m, m)), 0
            for mom in self.blocks("excess:unlabeled", n, trials, seed):
                pair[start : start + len(mom.pair)] = mom.pair
                start += len(mom.pair)
            pair.setflags(write=False)
            self._unlabeled[n, trials, seed] = pair
        step = _trials_per_block(20 * m * ((m - 1) * (m - 2) // 2), trials)
        rng = trial_rng(seed, f"excess:{estimator}/fit", n)
        chunks = (self.fit(estimator, pair[s : s + step], rng) for s in range(0, trials, step))
        fits, oks = zip(*chunks)
        return np.concatenate(fits), np.concatenate(oks)

    def excess_series(
        self, estimator: str, n: int, trials: int, seed: int
    ) -> tuple[np.ndarray, int]:
        """Per-trial exact excess values in trial order; failed fits are skipped and counted."""
        fits, ok = self.estimates(estimator, n, trials, seed)
        return self.excess(fits[ok]), trials - int(ok.sum())


def expected_excess_error(
    engine: TrialEngine, estimator: str, n: int, trials: int = 1000, seed: int = 0
) -> ExcessResult:
    """Mean exact excess of a triplet estimator's fits on the engine's
    unlabeled samples of size n, with its standard error."""
    series, failures = engine.excess_series(estimator, n, trials, seed)
    if series.size == 0:
        raise EstimationError(f"every trial failed for estimator '{estimator}'")
    stderr = float(series.std(ddof=1) / np.sqrt(series.size)) if series.size > 1 else 0.0
    return ExcessResult(estimator, n, float(series.mean()), stderr, series.size, failures)


# ---------------------------------------------------------------------------
# Data value ratio
# ---------------------------------------------------------------------------


def labeled_search_grid() -> list[int]:
    """Candidate labeled sizes: 10..100 by 1, then ..1000 by 2, then ..5000 by 10."""
    return (
        list(range(10, 101))
        + list(range(102, 1001, 2))
        + list(range(1010, 5001, 10))
    )


@dataclass(frozen=True)
class DvrResult:
    n_unlabeled: int
    estimator: str
    target_excess: float
    matched_n_labeled: int | None
    value_ratio: float
    lower_bounded: bool
    target_stderr: float
    # least grid points matching target +- DVR_Z * target_stderr; None off-grid
    n_labeled_lo: int | None
    n_labeled_hi: int | None
    # the search's comparisons (n_labeled, threshold, labeled_excess <= threshold),
    # in the order made
    trace: tuple = field(default=())


# Normal quantile of the two-sided 95% interval mapped onto the labeled grid.
DVR_Z = 1.96


def _first_at_or_below(grid: list[int], curve, threshold: float, guess: float) -> int | None:
    """Least grid point with curve(n) <= threshold; None if none.

    Assumes curve is non-increasing along the ascending grid, so the points
    that pass form a suffix of it and its first point is unique.  The search
    starts at the grid point nearest ``guess`` and gallops toward the answer
    in steps of 1, 2, 4, ... until a failing and a passing point bracket it,
    then bisects inside the bracket, so it makes at most 2*ceil(log2(d+1)) + 2
    evaluations, d being the answer's distance in grid points from the start.
    A grid end is evaluated only when the gallop reaches it.  The returned
    point's predecessor, when it has one, has been evaluated and fails; None
    means ``grid[-1]`` has been evaluated and fails.
    """
    last = len(grid) - 1
    i = bisect_left(grid, guess)
    if i > last or (i > 0 and guess - grid[i - 1] < grid[i] - guess):
        i -= 1
    # grid[lo] fails and grid[hi] passes; the sentinels -1 and last + 1 stand
    # for the grid's outside, which is never evaluated
    lo, hi, step = -1, last + 1, 1
    while hi - lo > 1:
        if curve(grid[i]) <= threshold:
            hi = i
        else:
            lo = i
        if lo < 0:
            i = max(hi - step, 0)
        elif hi > last:
            i = min(lo + step, last)
        else:
            i = (lo + hi) // 2
        step *= 2
    return grid[hi] if hi <= last else None


def data_value_ratio(
    engine: TrialEngine,
    n_unlabeled: int,
    estimator: str = "triplet-mean",
    trials: int = 1000,
    seed: int = 0,
    grid: list[int] | None = None,
) -> DvrResult:
    """n_U over the least labeled size whose exact labeled excess matches the
    Monte-Carlo mean excess of n_U unlabeled samples.

    The labeled curve is ``engine.labeled_excess`` (memoised on the engine,
    strictly decreasing in n on the default grid, which is tested), the
    curve ``curves.csv`` reports; every comparison the search makes is
    that curve's value against a threshold.

    Each search starts from the labeled size n0 whose curve value f(n0)
    is nearest its threshold among those the engine has computed, at the
    size where f(n0)'s excess over B_I, scaled as 1/n, meets the threshold:
    n0*(f(n0) - B_I)/(threshold - B_I).  The curve is B_I + m/(2n) +
    O(1/n^2), so before any size is computed it starts from that
    asymptote, (m/2)/(threshold - B_I), and at the grid's last point when
    the threshold is at or below B_I.  It gallops from there to the least
    point at or below the threshold (``_first_at_or_below``).  The guess
    only decides which points are evaluated: on a monotone curve the least
    passing point is unique, and the matched point has, by construction, an
    evaluated failing predecessor, so the result is the one a bisection of
    the whole grid finds.  The target's standard error is mapped through the
    same curve: ``n_labeled_lo`` and ``n_labeled_hi`` are the least grid
    points at or below target + and - DVR_Z standard errors.
    """
    grid = list(grid) if grid is not None else labeled_search_grid()
    target = expected_excess_error(engine, estimator, n_unlabeled, trials, seed)
    b_i = engine.diag.inference_bias
    trace = []

    def first_at_or_below(threshold: float) -> int | None:
        def labeled(n_l: int) -> float:
            value = engine.labeled_excess(n_l)
            trace.append((n_l, threshold, value <= threshold))
            return value

        gap = threshold - b_i
        if gap <= 0:
            guess = grid[-1]
        elif engine.labeled_values:
            n0, f0 = min(engine.labeled_values.items(), key=lambda nf: abs(nf[1] - threshold))
            guess = n0 * (f0 - b_i) / gap
        else:
            guess = engine.m / 2 / gap
        return _first_at_or_below(grid, labeled, threshold, guess)

    matched = first_at_or_below(target.mean)
    half_width = DVR_Z * target.stderr
    n_lo = first_at_or_below(target.mean + half_width)
    n_hi = first_at_or_below(target.mean - half_width)
    ratio = n_unlabeled / (matched if matched is not None else grid[-1])
    return DvrResult(
        n_unlabeled, estimator, target.mean, matched, ratio, matched is None,
        target.stderr, n_lo, n_hi, tuple(trace),
    )


# ---------------------------------------------------------------------------
# Combined-estimator sweep
# ---------------------------------------------------------------------------


ALPHA_STEP = 0.01  # spacing of the combined sweep's grid of unlabeled weights


@dataclass(frozen=True)
class CombinedSweepRow:
    n_labeled: int
    n_unlabeled: int
    excess_labeled: float
    stderr_labeled: float
    excess_unlabeled: float
    stderr_unlabeled: float
    best_alpha: float
    excess_best: float
    stderr_best: float
    gs_alpha_mean: float
    excess_gs: float
    stderr_gs: float
    trials: int
    failures: int
    gs_fallbacks: int  # trials where the shrinkage rule fell back to alpha 1


def _shrinkage_alphas(labeled: SampleMoments, a_u: np.ndarray, r: float) -> np.ndarray:
    """The shrinkage rule's unlabeled weight per trial of a labeled batch;
    NaN where the labeled covariance is zero or undefined.

    One batched covariance and solve; when either fails for some trial, the
    batch is taken again trial by trial.
    """
    try:
        return green_strawderman_alpha(labeled.acc - a_u, labeled.shrinkage_covariance(), r)
    except (NumericalError, ContractError):
        pass
    alphas = np.full(len(a_u), np.nan)
    for b in range(len(a_u)):
        one = SampleMoments(int(labeled.n[b]), None, labeled.pair[b], labeled.acc[b])
        try:
            alphas[b] = green_strawderman_alpha(one.acc - a_u[b], one.shrinkage_covariance(), r)
        except (NumericalError, ContractError):
            pass
    return alphas


def combined_sweep(
    engine: TrialEngine,
    n_unlabeled: int,
    n_labeled_grid,
    estimator: str = "triplet-mean",
    trials: int = 1000,
    seed: int = 0,
) -> list[CombinedSweepRow]:
    """Excess error of linear combinations across a labeled-size grid.

    Per labeled size: the grid-optimal weight is the alpha (unlabeled weight,
    scanned in steps of ``ALPHA_STEP``) minimizing the trial-averaged excess;
    the shrinkage rule picks its own per-trial weight, at r = m - 2, from the
    labeled covariance, and falls back to alpha 1 when that covariance is
    zero or undefined, counted in ``gs_fallbacks``.  Alpha 0 is labeled-only
    and alpha 1 unlabeled-only, so those columns come from the same sweep.

    Trial t pairs the t-th fit of the triplet estimator ``estimator`` on the
    unlabeled cell at n_unlabeled (the samples of the curves,
    ``TrialEngine.estimates``) with the labeled accuracies of the t-th
    sample of the Monte-Carlo labeled cell, read from
    ``engine.blocks("excess:labeled", ...)`` at the labeled size: an
    independent stream even when the two sizes are equal.  The unlabeled
    fits are made once and shared by the whole grid, so every row scores the
    same unlabeled trials and fails the same ones.  The (trials, 101, m)
    blends of a labeled size are scored in chunks of as many trials as fit
    ``BLOCK_BYTES``, whatever the labeled cell's blocks.  ``labeled`` or an
    unknown estimator, and a labeled grid that is empty, not increasing or
    holds a size below 1, raise ``ContractError`` before any trial.
    """
    require_sizes("n_labeled_grid", n_labeled_grid)
    m = engine.m
    alphas = np.arange(0.0, 1.0 + ALPHA_STEP / 2, ALPHA_STEP)
    r = float(m - 2)
    fits_u, ok_u = engine.estimates(estimator, n_unlabeled, trials, seed)
    k = int(ok_u.sum())
    if k == 0:
        raise EstimationError(f"every trial failed for estimator '{estimator}'")
    a_u = fits_u[ok_u]
    # a blend chunk keeps five float64 (alphas, m) arrays per trial alive:
    # the blends, their clipped copy and three terms of ``accuracy_kl``
    step = _trials_per_block(5 * 8 * alphas.size * m, k)
    rows = []
    for n_l in n_labeled_grid:
        fits_l, gs_alpha = [], []
        start = 0
        for mom_l in engine.blocks("excess:labeled", n_l, trials, seed):
            block = slice(start, start + len(mom_l.acc))
            ok, start = ok_u[block], block.stop
            labeled = SampleMoments(mom_l.n[ok], None, mom_l.pair[ok], mom_l.acc[ok])
            fits_l.append(labeled.acc)
            gs_alpha.append(_shrinkage_alphas(labeled, fits_u[block][ok], r))
        a_l, gs_alpha = np.concatenate(fits_l), np.concatenate(gs_alpha)
        fell_back = np.isnan(gs_alpha)
        gs_alpha[fell_back] = 1.0
        gs_excess = engine.excess(gs_alpha[:, None] * a_u + (1 - gs_alpha)[:, None] * a_l)
        per_alpha = np.concatenate([
            engine.excess(alphas[:, None] * a_u[c : c + step, None, :]
                          + (1 - alphas)[:, None] * a_l[c : c + step, None, :])
            for c in range(0, k, step)
        ])
        means = per_alpha.mean(axis=0)
        stderrs = per_alpha.std(axis=0, ddof=1) / np.sqrt(k) if k > 1 else 0 * means
        best = int(np.argmin(means))
        rows.append(
            CombinedSweepRow(
                n_labeled=int(n_l),
                n_unlabeled=int(n_unlabeled),
                excess_labeled=float(means[0]),
                stderr_labeled=float(stderrs[0]),
                excess_unlabeled=float(means[-1]),
                stderr_unlabeled=float(stderrs[-1]),
                best_alpha=float(alphas[best]),
                excess_best=float(means[best]),
                stderr_best=float(stderrs[best]),
                gs_alpha_mean=float(gs_alpha.mean()),
                excess_gs=float(gs_excess.mean()),
                stderr_gs=float(gs_excess.std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0,
                trials=k,
                failures=trials - k,
                gs_fallbacks=int(fell_back.sum()),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Suite runners and persistence
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Comma-separated rows under a header; floats written with ``repr``."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _grid_point(n: int | None) -> int:
    return n if n is not None else -1


def run_curves(config: ExperimentConfig, out_dir: str | Path) -> list[ExcessResult]:
    """Excess-error curves for every (estimator, n) cell; writes curves.csv.

    Unlabeled cells are Monte-Carlo means over ``config.trials`` trials.
    Labeled cells are exact (``TrialEngine.labeled_excess``): stderr 0, no
    failures, and ``trials`` reports the requested count.
    """
    engine = TrialEngine(config.model.build())

    def cell(est: str, n: int) -> ExcessResult:
        if est == "labeled":
            return ExcessResult(est, n, engine.labeled_excess(n), 0.0, config.trials, 0)
        return expected_excess_error(engine, est, n, config.trials, config.seed)

    results = [cell(est, n) for est in config.estimators for n in config.n_grid]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "curves.csv",
        ["estimator", "n", "mean_excess", "stderr", "trials", "failures"],
        [[r.estimator, r.n, r.mean, r.stderr, r.trials, r.failures] for r in results],
    )
    return results


def run_dvr(
    config: ExperimentConfig, out_dir: str | Path, estimators=None
) -> list[DvrResult]:
    """Data value ratios at every n in the grid; writes dvr.csv.

    ``estimators`` defaults to the config's unlabeled estimators.  The list
    follows the config's rule (at least one known estimator, each once) and
    names no ``labeled``; else ``ContractError`` is raised before any trial.
    """
    if estimators is None:
        estimators = [e for e in config.estimators if e != "labeled"]
    _require_estimators(estimators, "dvr's unlabeled estimators")
    if "labeled" in estimators:
        _require_triplet("labeled")
    engine = TrialEngine(config.model.build())
    results = [
        data_value_ratio(engine, n, est, config.trials, config.seed)
        for est in estimators
        for n in config.n_grid
    ]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "dvr.csv",
        [
            "estimator", "n_unlabeled", "target_excess",
            "matched_n_labeled", "value_ratio", "lower_bounded",
            "target_stderr", "n_labeled_lo", "n_labeled_hi",
        ],
        [
            [
                r.estimator, r.n_unlabeled, r.target_excess,
                _grid_point(r.matched_n_labeled), r.value_ratio, int(r.lower_bounded),
                r.target_stderr, _grid_point(r.n_labeled_lo), _grid_point(r.n_labeled_hi),
            ]
            for r in results
        ],
    )
    return results


def run_combined(
    config: ExperimentConfig,
    out_dir: str | Path,
    n_unlabeled: int = 1000,
    n_labeled_grid=(25, 50, 100, 200, 400, 800),
    estimator: str = "triplet-mean",
) -> list[CombinedSweepRow]:
    """Combined-estimator sweep at fixed n_unlabeled; writes combined.csv.

    It reads the config's model, trials and seed, not its estimators or
    n_grid."""
    engine = TrialEngine(config.model.build())
    rows = combined_sweep(engine, n_unlabeled, n_labeled_grid, estimator, config.trials, config.seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "combined.csv",
        [f.name for f in fields(CombinedSweepRow)],
        [astuple(r) for r in rows],
    )
    return rows
