"""Keyword weak supervision on text corpora.

Sources are single keywords with a sentiment: a positive-sentiment source
votes +1 when its word appears in a document and -1 otherwise; a
negative-sentiment source votes -1 on presence and +1 on absence.
Tokenization is lowercasing plus splitting on non-alphanumeric characters,
nothing more.

The case study fits three class-conditional label models on growing
training subsets (labeled frequencies, quadratic-triplet with mean
aggregation, and its median-corrected variant), evaluates test
cross-entropy and F1, and sweeps a shrinkage combination of the corrected
and labeled fits across small labeled budgets.  It works on joint states,
as the synthetic trial engine does: each split becomes one vector of
joint-state indices right after ``apply_sources``, a training subset is the
``bincount`` of the indices it draws, every fit reads those counts (through
``SampleMoments.from_state_counts`` or the class-conditional frequencies),
and the test split is scored by gathering from the label model's
posterior table.

External corpora are ingested to JSONL ({"id", "text", "label"}) plus a
split manifest ({"train": [...], "test": [...]}); nothing is bundled.
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import SourceMatrix
from .errors import ContractError, NumericalError
from .estimators import (
    ClassConditionalEstimate,
    SampleMoments,
    estimate_quadratic_triplet_from_moments,
    green_strawderman_alpha,
)
from .experiments import trial_rng, write_csv
from .label_model import LabelModel, cross_entropy, f1_score
from .manifest import read_json
from .states import config_bits

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

POSITIVE_WORDS = ("love", "like", "good", "great", "best", "excellent")
NEGATIVE_WORDS = ("terrible", "worst", "bad", "better", "could", "would")


@dataclass(frozen=True)
class KeywordSource:
    word: str
    sentiment: int  # +1 votes for presence, -1 against

    def __post_init__(self):
        if not self.word:
            raise ContractError("keyword must be nonempty")
        if self.sentiment not in (-1, 1):
            raise ContractError("sentiment must be -1 or +1")
        object.__setattr__(self, "word", self.word.lower())


def default_roster() -> tuple[KeywordSource, ...]:
    return tuple(
        [KeywordSource(w, 1) for w in POSITIVE_WORDS]
        + [KeywordSource(w, -1) for w in NEGATIVE_WORDS]
    )


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    label: int | None = None

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise ContractError("document text must be a string")
        if self.label is not None and self.label not in (-1, 1):
            raise ContractError("labels must be -1 or +1")


@dataclass(frozen=True)
class Corpus:
    documents: tuple
    split: dict = field(default_factory=dict)  # doc_id -> "train" | "test"

    def __post_init__(self):
        ids = [d.doc_id for d in self.documents]
        if len(set(ids)) != len(ids):
            raise ContractError("document ids must be unique")

    def subset(self, name: str) -> list[Document]:
        return [d for d in self.documents if self.split.get(d.doc_id) == name]

    @property
    def train(self) -> list[Document]:
        return self.subset("train")

    @property
    def test(self) -> list[Document]:
        return self.subset("test")

    # -- persistence -------------------------------------------------------

    def to_jsonl(self, docs_path: str | Path, split_path: str | Path | None = None):
        with open(docs_path, "w") as fh:
            for d in self.documents:
                rec = {"id": d.doc_id, "text": d.text}
                if d.label is not None:
                    rec["label"] = d.label
                fh.write(json.dumps(rec) + "\n")
        if split_path is not None:
            groups = {"train": [], "test": []}
            for d in self.documents:
                name = self.split.get(d.doc_id)
                if name in groups:
                    groups[name].append(d.doc_id)
            Path(split_path).write_text(json.dumps(groups, indent=2))

    @classmethod
    def from_jsonl(
        cls, docs_path: str | Path, split_path: str | Path | None = None
    ) -> "Corpus":
        docs = []
        with open(docs_path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    docs.append(
                        Document(str(rec["id"]), rec["text"], rec.get("label"))
                    )
                except (ValueError, KeyError, TypeError) as exc:
                    raise ContractError(
                        f"{docs_path}, line {lineno}: not a document record with "
                        f"'id' and 'text' ({type(exc).__name__}: {exc})"
                    ) from exc
        split = _read_split(split_path) if split_path is not None else {}
        return cls(tuple(docs), split)


def _split_from_dict(doc: dict) -> dict:
    if not all(isinstance(ids, list) for ids in doc.values()):
        raise TypeError("a split manifest maps each split name to a list of document ids")
    return {str(i): name for name, ids in doc.items() for i in ids}


def _read_split(path: str | Path) -> dict:
    """doc_id -> split name from a {"train": [...], "test": [...]} manifest."""
    return read_json(path, _split_from_dict)


def random_split(docs, test_fraction: float, seed: int) -> dict:
    """doc_id -> "test" for a seeded random ``test_fraction`` of docs, "train" otherwise."""
    if not 0.0 <= test_fraction <= 1.0:
        raise ContractError(f"test fraction must lie in [0, 1], got {test_fraction}")
    order = np.random.default_rng(seed).permutation(len(docs))
    n_test = int(round(test_fraction * len(docs)))
    return {
        docs[idx].doc_id: "test" if rank < n_test else "train"
        for rank, idx in enumerate(order)
    }


def tokenize(text: str) -> frozenset:
    return frozenset(t for t in _TOKEN_SPLIT.split(text.lower()) if t)


def apply_sources(
    docs, roster: tuple[KeywordSource, ...] | None = None
) -> SourceMatrix:
    """Vote matrix for the documents; label column included when all are labeled."""
    if isinstance(docs, Corpus):
        docs = list(docs.documents)
    roster = roster if roster is not None else default_roster()
    if not roster:
        raise ContractError("source roster must be nonempty")
    column: dict[str, int] = {}  # roster word -> presence column; a repeated word shares one
    for src in roster:
        column.setdefault(src.word, len(column))
    k = len(column)
    hits = array("q")  # flat index r * k + column of each word present in document r
    for r, doc in enumerate(docs):
        for word in tokenize(doc.text).intersection(column):
            hits.append(r * k + column[word])
    present = np.zeros((len(docs), k), dtype=bool)
    np.put(present, hits, True)
    sentiment = np.array([src.sentiment for src in roster], dtype=np.int8)
    values = np.where(present[:, [column[src.word] for src in roster]], sentiment, -sentiment)
    labels = None
    if docs and all(d.label is not None for d in docs):
        labels = np.array([d.label for d in docs], dtype=np.int8)
    return SourceMatrix(values, labels)


# ---------------------------------------------------------------------------
# Ingestion of common layouts
# ---------------------------------------------------------------------------


def ingest_review_directory(root: str | Path) -> Corpus:
    """Directory layout <root>/{train,test}/{pos,neg}/*.txt, one review per file."""
    root = Path(root)
    docs, split = [], {}
    found = 0
    for part in ("train", "test"):
        for sentiment, label in (("pos", 1), ("neg", -1)):
            folder = root / part / sentiment
            if not folder.is_dir():
                continue
            for path in sorted(folder.glob("*.txt")):
                doc_id = f"{part}/{sentiment}/{path.stem}"
                docs.append(Document(doc_id, path.read_text(errors="replace"), label))
                split[doc_id] = part
                found += 1
    if not found:
        raise ContractError(
            f"no {{train,test}}/{{pos,neg}}/*.txt reviews found under {root}"
        )
    return Corpus(tuple(docs), split)


_CSV_LABELS = {-1: -1, 0: -1, 1: 1}


def ingest_csv(
    path: str | Path, test_fraction: float = 0.2, seed: int = 0
) -> Corpus:
    """CSV with 'text' and 'label' columns; labels -1, 0 or 1, with 0 read as -1."""
    import csv as _csv

    docs = []
    with open(path, newline="") as fh:
        for row_id, rec in enumerate(_csv.DictReader(fh)):
            if "text" not in rec:
                raise ContractError(f"{path}: csv ingestion needs a 'text' column")
            label = rec.get("label")
            if label is not None:
                try:
                    label = _CSV_LABELS[int(label)]
                except (ValueError, KeyError):
                    raise ContractError(
                        f"{path}, row {row_id + 1}: label must be -1, 0 or 1, got {label!r}"
                    ) from None
            docs.append(Document(str(rec.get("id", row_id)), rec["text"], label))
    return Corpus(tuple(docs), random_split(docs, test_fraction, seed))


# ---------------------------------------------------------------------------
# Synthetic keyword corpus (the no-external-data oracle)
# ---------------------------------------------------------------------------


def synthetic_keyword_corpus(
    n: int,
    present_pos: np.ndarray,
    present_neg: np.ndarray,
    roster: tuple[KeywordSource, ...] | None = None,
    class_balance: float = 0.5,
    seed: int = 0,
) -> Corpus:
    """Documents whose word presences are class-conditionally independent.

    ``present_pos[i]`` / ``present_neg[i]`` are the probabilities that word i
    appears given label +1 / -1, so the induced source conditionals are known
    exactly and the end-to-end pipeline can be oracle-checked.
    """
    roster = roster if roster is not None else default_roster()
    present_pos = np.asarray(present_pos, dtype=np.float64)
    present_neg = np.asarray(present_neg, dtype=np.float64)
    if present_pos.size != len(roster) or present_neg.size != len(roster):
        raise ContractError("presence probabilities must match the roster size")
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


# ---------------------------------------------------------------------------
# Case study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseStudyConfig:
    n_grid: tuple = (2500, 5000, 10000, 20000, 40000)
    n_unlabeled: int = 40000
    n_labeled_grid: tuple = (40, 80, 120, 200, 400)
    trials: int = 5
    seed: int = 0
    class_balance: float = 0.5
    threshold: float = 0.5

    def to_dict(self) -> dict:
        return {
            "n_grid": list(self.n_grid),
            "n_unlabeled": self.n_unlabeled,
            "n_labeled_grid": list(self.n_labeled_grid),
            "trials": self.trials,
            "seed": self.seed,
            "class_balance": self.class_balance,
            "threshold": self.threshold,
        }


def estimate_labeled_class_conditional(
    counts: np.ndarray, m: int, class_balance: float
) -> ClassConditionalEstimate:
    """Empirical Pr(vote = 1 | label) per source from a labeled sample's joint-state counts.

    A class with no rows gets conditionals of 0.5.
    """
    by_class = np.asarray(counts, dtype=np.float64).reshape(2, 1 << m)  # Y = -1, then Y = +1
    votes = by_class @ config_bits(m)  # +1 votes per class and source
    n_neg, n_pos = by_class.sum(axis=1)
    cond_pos = votes[1] / n_pos if n_pos else np.full(m, 0.5)
    cond_neg = votes[0] / n_neg if n_neg else np.full(m, 0.5)
    return ClassConditionalEstimate.from_conditionals(
        cond_pos, cond_neg, class_balance, {"method": "labeled-class-conditional"}
    )


def _combine_class_conditional(
    unlabeled: ClassConditionalEstimate,
    labeled: ClassConditionalEstimate,
    labeled_moments: SampleMoments,
    r: float,
) -> tuple[ClassConditionalEstimate, float]:
    """Shrink the labeled conditionals toward the unlabeled ones.

    The weight comes from the accuracy-vector shrinkage rule (the labeled
    accuracy estimator's covariance is observable), and is 1 when that
    covariance is zero or undefined; the same weight then blends both
    conditional columns, which preserves column-stochasticity.
    """
    diff = labeled.implied_accuracies() - unlabeled.implied_accuracies()
    try:
        alpha = green_strawderman_alpha(diff, labeled_moments.shrinkage_covariance(), r)
    except (NumericalError, ContractError):
        alpha = 1.0
    mu = alpha * unlabeled.mu + (1.0 - alpha) * labeled.mu
    return (
        ClassConditionalEstimate(
            mu, labeled.class_balance, {"method": "combined", "alpha": alpha}
        ),
        alpha,
    )


def _metric_row(model: str, n, n_labeled, losses, f1s, alpha) -> dict:
    """One metrics row: mean and sample standard deviation over the trials."""

    def sd(xs) -> float:
        return float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0

    return {
        "model": model, "n": n, "n_labeled": n_labeled,
        "loss": float(np.mean(losses)), "loss_sd": sd(losses),
        "f1": float(np.mean(f1s)), "f1_sd": sd(f1s),
        "alpha": alpha,
    }


def run_case_study(corpus: Corpus, config: CaseStudyConfig | None = None) -> list[dict]:
    """Fit labeled / mean / median-corrected / combined models; score on the test split.

    Returns metric rows (dicts) ready for CSV serialization.  Both splits
    become joint-state indices once.  Each cell (a model and a training
    size) draws its trials, one after another, from one
    ``trial_rng(seed, f"case:{name}", n)``.  A training subset is one
    ``rng.choice`` of the split's rows without replacement, kept as the
    joint-state counts of the drawn rows; a size of at least the split is
    the whole split and draws nothing.  Every fit reads those counts, and
    the test split is scored by its state indices.  Combined trial t pairs
    the t-th corrected-median fit at ``n_unlabeled``, fitted once for the
    whole labeled grid, with the t-th labeled subset at the labeled size,
    drawn as the ``labeled`` cell of that size draws it.  The test split
    must be labeled.
    """
    config = config if config is not None else CaseStudyConfig()
    train_docs, test_docs = corpus.train, corpus.test
    if not train_docs or not test_docs:
        raise ContractError(
            "corpus is missing a train or test split: ingest one first "
            "(labelmoments ws ingest --help) and pass its split manifest"
        )
    if not all(d.label is not None for d in test_docs):
        raise ContractError("the test split must be fully labeled")
    if not all(d.label is not None for d in train_docs):
        raise ContractError("the training split must be labeled to simulate budgets")
    train_states = apply_sources(train_docs).state_index()
    test_states = apply_sources(test_docs).state_index()
    m = len(default_roster())
    p = config.class_balance
    rows: list[dict] = []

    def score(est: ClassConditionalEstimate) -> tuple[float, float]:
        lm = LabelModel.from_class_conditional(est, mode="normalized")
        return cross_entropy(lm, test_states), f1_score(lm, test_states, config.threshold)

    def subsample(rng, n: int) -> np.ndarray:
        rows = train_states if n >= train_states.size else rng.choice(train_states, n, replace=False)
        return np.bincount(rows, minlength=1 << (m + 1))

    def quadratic(counts: np.ndarray, aggregation: str) -> ClassConditionalEstimate:
        # unlabeled: the solver reads only the source moments, not the labels in the counts
        moments = SampleMoments.from_state_counts(counts, m)
        return estimate_quadratic_triplet_from_moments(moments, p, aggregation)

    fitters = {
        "labeled": lambda counts: estimate_labeled_class_conditional(counts, m, p),
        "unlabeled-mean": lambda counts: quadratic(counts, "mean"),
        "corrected-median": lambda counts: quadratic(counts, "median"),
    }
    for name, fitter in fitters.items():
        for n in config.n_grid:
            losses, f1s = [], []
            rng = trial_rng(config.seed, f"case:{name}", n)
            for _ in range(config.trials):
                loss, f1 = score(fitter(subsample(rng, n)))
                losses.append(loss)
                f1s.append(f1)
            rows.append(_metric_row(name, int(min(n, train_states.size)), "", losses, f1s, ""))

    r = float(m - 2)
    rng = trial_rng(config.seed, "case:corrected-median", config.n_unlabeled)
    unlabeled = [
        quadratic(subsample(rng, config.n_unlabeled), "median") for _ in range(config.trials)
    ]
    for n_l in config.n_labeled_grid:
        stats = {"combined": ([], []), "labeled-small": ([], [])}
        alphas = []
        rng = trial_rng(config.seed, "case:labeled", n_l)
        for corrected in unlabeled:
            lab_counts = subsample(rng, n_l)
            lab = estimate_labeled_class_conditional(lab_counts, m, p)
            combined, alpha = _combine_class_conditional(
                corrected, lab, SampleMoments.from_state_counts(lab_counts, m), r
            )
            alphas.append(alpha)
            for key, est in (("combined", combined), ("labeled-small", lab)):
                loss, f1 = score(est)
                stats[key][0].append(loss)
                stats[key][1].append(f1)
        rows.append(_metric_row("labeled-small", "", int(n_l), *stats["labeled-small"], ""))
        rows.append(_metric_row(
            "combined", int(config.n_unlabeled), int(n_l), *stats["combined"],
            float(np.mean(alphas)),
        ))
    return rows


def write_metrics_csv(rows: list[dict], path: str | Path) -> None:
    header = ["model", "n", "n_labeled", "loss", "loss_sd", "f1", "f1_sd", "alpha"]
    write_csv(path, header, [[row[h] for h in header] for row in rows])
