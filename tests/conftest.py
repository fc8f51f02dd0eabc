import itertools
import json
import math
import re

import numpy as np
import pytest

from labelmoments import ContractError, NumericalError, SourceMatrix, calibrate, diagnostics
from labelmoments.analysis import expected_loss_by_enumeration
from labelmoments.estimators import SHRINKAGE_RIDGE
from labelmoments.ising import conditional_entropy
from labelmoments.label_model import ACCURACY_CLAMP
from labelmoments.ws import Corpus, Document, _read_split, default_roster

SYNTH_ACCURACIES = [
    0.6893, 0.6072, 0.5954, 0.6603, 0.6939,
    0.6346, 0.7462, 0.6870, 0.6462, 0.6284,
]
SYNTH_EDGES = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]


@pytest.fixture(scope="session")
def synth_model_dep():
    """Ten-source ground truth with five dependent pairs at gap 0.1."""
    return calibrate(SYNTH_ACCURACIES, SYNTH_EDGES, 0.1)


@pytest.fixture(scope="session")
def synth_model_indep():
    """The same accuracy targets without any dependencies."""
    return calibrate(SYNTH_ACCURACIES, [], 0.0)


@pytest.fixture(scope="session")
def synth_diag_dep(synth_model_dep):
    return diagnostics(synth_model_dep)


@pytest.fixture(scope="session")
def synth_diag_indep(synth_model_indep):
    return diagnostics(synth_model_indep)


# ---------------------------------------------------------------------------
# Independent brute-force oracle, deliberately sharing no code with the
# package's vectorized enumeration.
# ---------------------------------------------------------------------------


def brute_joint(theta, edges=(), theta_y=0.0):
    """Dict {(y, s-tuple): probability} via per-state evaluation."""
    m = len(theta)
    table = {}
    total = 0.0
    for state in itertools.product((-1, 1), repeat=m + 1):
        y, s = state[-1], state[:-1]
        energy = theta_y * y + sum(theta[i] * s[i] * y for i in range(m))
        energy += sum(t * s[i] * s[j] for i, j, t in edges)
        w = math.exp(energy)
        table[(y, s)] = w
        total += w
    return {k: v / total for k, v in table.items()}, total


def brute_moment(table, fn):
    return math.fsum(p * fn(y, s) for (y, s), p in table.items())


def brute_accuracies(table, m):
    return np.array(
        [brute_moment(table, lambda y, s, i=i: s[i] * y) for i in range(m)]
    )


def brute_pair_moments(table, m):
    out = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = brute_moment(
                table, lambda y, s, i=i, j=j: s[i] * s[j]
            )
    return out


def random_valid_edges(rng, m, max_edges=None):
    """Random set of disjoint source pairs respecting the degree constraint."""
    order = list(rng.permutation(m))
    limit = m // 2 if max_edges is None else min(max_edges, m // 2)
    k = int(rng.integers(0, limit + 1))
    return [
        (min(order[2 * t], order[2 * t + 1]), max(order[2 * t], order[2 * t + 1]))
        for t in range(k)
    ]


def values_from_config(indices, m):
    """+-1 int8 rows of source-configuration indices (bit k is source k)."""
    bits = (np.asarray(indices, dtype=np.int64)[:, None] >> np.arange(m)) & 1
    return (2 * bits - 1).astype(np.int8)


def sign_rows(model, n, rng, size):
    """``size`` samples of n rows as the row sampler drew them before it
    returned u: the same uniforms and thresholds, then s_i = u_i * y in the
    source columns and the label in column m."""
    m = model.m
    p, given_minus, first, second = model.row_thresholds
    uniform = rng.random((size, n, m + 1))
    plus = uniform < p
    edge = uniform[..., second]
    plus[..., second] = np.where(plus[..., first], edge < p[second], edge < given_minus)
    plus[..., :m] = plus[..., :m] == plus[..., m:]
    return 2.0 * plus - 1.0


def state_counts(data):
    """Counts of a labeled matrix's rows over the 2**(m+1) joint states: the
    rows-to-counts oracle."""
    return np.bincount(data.state_index(), minlength=1 << (data.m + 1)).astype(np.float64)


def matrix_from_state_counts(counts, m):
    """Expand joint-state counts back into explicit rows (states in index order)."""
    counts = np.asarray(counts, dtype=np.int64)
    idx = np.repeat(np.arange(counts.size), counts)
    values = values_from_config(idx & ((1 << m) - 1), m)
    labels = (2 * ((idx >> m) & 1) - 1).astype(np.int8)
    return SourceMatrix(values, labels)


def exact_generalization_error(model, fitted):
    """(expected loss, excess over H(Y|sources)) of a fitted label model by
    enumeration: the reference that ``analysis.accuracy_excess`` must match."""
    loss = expected_loss_by_enumeration(model, fitted)
    return loss, loss - conditional_entropy(model)


def binomial_pmf(n, p):
    """Binomial(n, p) probabilities of 0..n successes from a cumulative
    log-factorial table, renormalised to absorb its accumulated rounding."""
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1, dtype=np.float64)))))
    k = np.arange(n + 1)
    pmf = np.exp(log_fact[n] - log_fact[k] - log_fact[n - k] + k * np.log(p) + (n - k) * np.log1p(-p))
    return pmf / pmf.sum()


def labeled_excess_by_full_sum(diag, n):
    """Expected excess of the labeled fit on n samples, summed over all n+1
    outcomes of each source's binomial: the reference for
    ``TrialEngine.labeled_excess``, which sums only a window of them.

    Source i's estimate is (2K - n)/n with K ~ Binomial(n, (1+a_i)/2), scored
    by its clamped per-source KL term."""
    outcomes = np.clip((2.0 * np.arange(n + 1) - n) / n, -1.0 + ACCURACY_CLAMP, 1.0 - ACCURACY_CLAMP)
    log_fp, log_fq = np.log((1.0 + outcomes) / 2.0), np.log((1.0 - outcomes) / 2.0)
    total = diag.inference_bias
    for a in diag.accuracies:
        tp, tq = (1.0 + a) / 2.0, (1.0 - a) / 2.0
        kl = tp * (np.log(tp) - log_fp) + tq * (np.log(tq) - log_fq)
        total += float((binomial_pmf(n, tp) * kl).sum())
    return float(total)


def labeled_excess_by_monte_carlo(engine, n, trials, seed):
    """Mean and standard error of the labeled fit's excess over the trials of
    the Monte-Carlo labeled cell, ``engine.blocks("excess:labeled", ...)``:
    the labeled side of the combined sweep, and a sample of the expectation
    that ``TrialEngine.labeled_excess`` computes exactly.

    Each trial's fit is its labeled accuracies mean(s_i*y), scored by the
    per-source KL terms written out here."""
    acc = np.concatenate([mom.acc for mom in engine.blocks("excess:labeled", n, trials, seed)])
    est = np.clip(acc, -1.0 + ACCURACY_CLAMP, 1.0 - ACCURACY_CLAMP)
    tp, tq = (1.0 + engine.diag.accuracies) / 2.0, (1.0 - engine.diag.accuracies) / 2.0
    kl = tp * np.log(tp / ((1.0 + est) / 2.0)) + tq * np.log(tq / ((1.0 - est) / 2.0))
    series = engine.diag.inference_bias + kl.sum(axis=1)
    return float(series.mean()), float(series.std(ddof=1) / np.sqrt(trials))


def raising_shrinkage_covariance(n, pair, acc):
    """The shrinkage rule's covariance of one labeled sample (n rows, pair
    moments of u = s * y, labeled accuracies), written out here: the sample
    covariance (ddof=1) of the rows over n, plus the ridge times its mean
    diagonal.  Below two rows it raises ``ContractError`` and at a zero
    trace ``NumericalError``, the errors the per-trial loops catch."""
    if n < 2:
        raise ContractError("labeled covariance requires at least two rows")
    sigma = (pair - np.outer(acc, acc)) * (n / (n - 1)) / n
    scale = np.trace(sigma) / len(acc)
    if scale <= 0.0:
        raise NumericalError("labeled covariance is identically zero")
    return sigma + SHRINKAGE_RIDGE * scale * np.eye(len(acc))


# ---------------------------------------------------------------------------
# Keyword corpora: the per-line reader that ``Corpus.from_jsonl`` and the
# per-document tokenizer that ``ws.apply_sources`` must agree with, and
# documents with known class-conditional word presences.
# ---------------------------------------------------------------------------


def oracle_from_jsonl(docs_path, split_path=None):
    """``Corpus.from_jsonl`` as one ``json.loads`` per stripped, nonblank line."""
    docs = []
    with open(docs_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                docs.append(Document(str(rec["id"]), rec["text"], rec.get("label")))
            except (ValueError, KeyError, TypeError) as exc:
                raise ContractError(
                    f"{docs_path}, line {lineno}: not a document record with "
                    f"'id' and 'text' ({type(exc).__name__}: {exc})"
                ) from exc
    split = _read_split(split_path) if split_path is not None else {}
    return Corpus(tuple(docs), split)


_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def tokenize(text):
    """The token set of the ``ws`` module docstring: lowercase, split on non-alphanumerics."""
    return frozenset(t for t in _TOKEN_SPLIT.split(text.lower()) if t)


def synthetic_keyword_corpus(n, present_pos, present_neg, roster=None, class_balance=0.5, seed=0):
    """Documents whose word presences are class-conditionally independent.

    ``present_pos[i]`` / ``present_neg[i]`` are the probabilities that word i
    appears given label +1 / -1, so the induced source conditionals are known
    exactly and the end-to-end pipeline can be oracle-checked.
    """
    roster = roster if roster is not None else default_roster()
    present_pos = np.asarray(present_pos, dtype=np.float64)
    present_neg = np.asarray(present_neg, dtype=np.float64)
    assert present_pos.size == len(roster) and present_neg.size == len(roster)
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n) < class_balance, 1, -1)
    prob = np.where(labels[:, None] > 0, present_pos[None, :], present_neg[None, :])
    present = rng.random((n, len(roster))) < prob
    words = [src.word for src in roster]
    docs = []
    for r in range(n):
        text = " ".join(w for w, p in zip(words, present[r]) if p)
        docs.append(Document(f"doc{r}", text, int(labels[r])))
    split = {d.doc_id: "train" for d in docs}
    return Corpus(tuple(docs), split)
