"""Keyword weak supervision on text corpora.

Sources are single keywords with a sentiment: a positive-sentiment source
votes +1 when its word appears in a document and -1 otherwise; a
negative-sentiment source votes -1 on presence and +1 on absence.
Tokenization is lowercasing plus splitting on non-alphanumeric characters,
nothing more.

The case study fits three class-conditional label models on growing
training subsets (labeled frequencies, quadratic-triplet with mean
aggregation, and its median-corrected variant), evaluates test
cross-entropy and F1 at posterior threshold 0.5, and sweeps a shrinkage
combination of the corrected and labeled fits across small labeled budgets.
It works on joint states, as the synthetic trial engine does: a training
subset is the ``bincount`` of the indices it draws, every fit reads those
counts (through ``SampleMoments.from_state_counts`` or the class-conditional
frequencies), and the test split is scored by gathering from the label
model's posterior table.

The states are built while the corpus file is read (``CorpusVotes``): the
file is read a slice of about ``_SLICE_BYTES`` of text at a time, each slice
is voted by one ``apply_sources`` call, and its text is dropped.  What is
kept per document is its id, its label and its votes, so the memory of
``ws run`` and ``ws apply`` does not grow with the length of the documents.

External corpora are ingested to JSONL ({"id", "text", "label"}) plus a
split manifest ({"train": [...], "test": [...]}); nothing is bundled.
"""

from __future__ import annotations

import json
import re
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
from .experiments import require_sizes, trial_rng, write_csv
from .label_model import LabelModel, cross_entropy, f1_score
from .manifest import read_json
from .states import config_bits

_TOKEN = re.compile(r"[0-9a-z]+")
_TOKEN_BYTE = np.zeros(256, dtype=bool)  # byte value -> whether it can be part of a token
_TOKEN_BYTE[list(b"0123456789abcdefghijklmnopqrstuvwxyz")] = True
_SLICE_BYTES = 1 << 18  # text bytes per slice read and scanned at once: bounds their memory
_SCAN_ONCE = json.JSONDecoder().scan_once  # json.loads' C scanner, without its wrappers

POSITIVE_WORDS = ("love", "like", "good", "great", "best", "excellent")
NEGATIVE_WORDS = ("terrible", "worst", "bad", "better", "could", "would")


@dataclass(frozen=True)
class KeywordSource:
    word: str
    sentiment: int  # +1 votes for presence, -1 against

    def __post_init__(self):
        if self.sentiment not in (-1, 1):
            raise ContractError("sentiment must be -1 or +1")
        object.__setattr__(self, "word", self.word.lower())
        if not _TOKEN.fullmatch(self.word):
            raise ContractError(
                f"keyword {self.word!r} can never be a token: after lowercasing, "
                "a keyword is one or more of [0-9a-z]"
            )


def default_roster() -> tuple[KeywordSource, ...]:
    return tuple(
        [KeywordSource(w, 1) for w in POSITIVE_WORDS]
        + [KeywordSource(w, -1) for w in NEGATIVE_WORDS]
    )


def _check_unique(ids) -> None:
    if len(set(ids)) != len(ids):
        seen = set()
        for doc_id in ids:
            if doc_id in seen:
                raise ContractError(f"document ids must be unique; {doc_id!r} repeats")
            seen.add(doc_id)


@dataclass(frozen=True, slots=True)
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
        _check_unique([d.doc_id for d in self.documents])

    # -- persistence -------------------------------------------------------

    def to_jsonl(self, docs_path: str | Path, split_path: str | Path):
        with open(docs_path, "w") as fh:
            for d in self.documents:
                rec = {"id": d.doc_id, "text": d.text}
                if d.label is not None:
                    rec["label"] = d.label
                fh.write(json.dumps(rec) + "\n")
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
        """Read documents from JSONL (``_read_jsonl``), and their split from a manifest if given."""
        docs = []
        for chunk in _read_jsonl(docs_path):
            docs += chunk
        split = _read_split(split_path) if split_path is not None else {}
        return cls(tuple(docs), split)


def _read_jsonl(docs_path: str | Path):
    """Yield a JSONL corpus's ``Document`` records in lists, a slice at a time.

    The file is UTF-8 text with one JSON object per line, each with ``"id"``,
    ``"text"`` and optionally ``"label"``; an id is read as its ``str``, and
    ``Document`` checks the text and the label.  Lines end as universal
    newlines do (``\\n``, ``\\r\\n`` or a lone ``\\r``); whitespace around a
    line is ignored, and blank lines are skipped.  A line that is not such a
    record, or a file that is not UTF-8, raises ``ContractError`` naming the
    file, and the line where it is known (undecodable bytes are found a read
    buffer at a time).  Records before the faulty line may already have been
    yielded.

    The file is streamed a line at a time, and a slice is yielded as soon as
    its texts reach ``_SLICE_BYTES`` characters (one byte each for ASCII
    text), so at most one slice of text is held at once, however long the
    file.  ``_parse_line`` parses a line with ``json.loads``' own C scanner
    from index 0 and keeps the value when the scan ends at the end of the
    line.  That is exactly ``json.loads`` on a stripped line, which checks
    for a BOM, scans from index 0 and fails with "Extra data" unless the
    scan ends at the end (past trailing whitespace, which a stripped line
    lacks); a BOM fails the scan, as no value starts with one.  On any other
    outcome the line goes to ``json.loads`` itself, for the error it raises.
    """
    docs, size = [], 0
    with open(docs_path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = _parse_line(line)
                    doc = Document(str(rec["id"]), rec["text"], rec.get("label"))
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    raise ContractError(
                        f"{docs_path}, line {lineno}: not a document record with "
                        f"'id' and 'text' ({type(exc).__name__}: {exc})"
                    ) from exc
                docs.append(doc)
                size += len(doc.text)
                if size >= _SLICE_BYTES:
                    yield docs
                    docs, size = [], 0
        except UnicodeDecodeError as exc:
            raise ContractError(f"{docs_path}: not UTF-8 text ({exc})") from exc
    if docs:
        yield docs


def _parse_line(line: str):
    """``json.loads(line)`` for a stripped line, by its C scanner where that is
    exact (``_read_jsonl`` says why)."""
    try:
        rec, end = _SCAN_ONCE(line, 0)
        if end == len(line):
            return rec
    except (StopIteration, ValueError, RecursionError):
        pass
    return json.loads(line)


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


def apply_sources(texts, roster: tuple[KeywordSource, ...] | None = None) -> SourceMatrix:
    """Vote matrix (without labels) for the texts.

    A word is present in a text when it equals one of the text's tokens (the
    module docstring's tokenization), found without a token set per text.
    Each text is lowercased and UTF-8 encoded, and the encoded texts are
    joined into one buffer, with ``b"\\n"`` before, between and after them.
    Each roster word is one literal scan of that buffer.  A match counts
    when the bytes on both sides of it are not token bytes (``_TOKEN_BYTE``),
    and a binary search of the texts' end offsets names its text.  The
    buffer is as large as the texts' encoding: ``CorpusVotes`` bounds it by
    voting one slice of the reader (about ``_SLICE_BYTES`` of text) per call.

    This is exact.  The tokens of the lowercased text are its maximal runs
    of ``[0-9a-z]``.  UTF-8 writes each ASCII character as its own byte and
    every other code point (lone surrogates included) as bytes of 0x80 and
    above, and the separator is not a token byte, so the buffer's maximal
    runs of token bytes are the texts' tokens.  The scan's matches do not
    overlap, but it skips no whole-token match: a match overlapping one
    would put a token byte right before it.
    """
    roster = roster if roster is not None else default_roster()
    if not roster:
        raise ContractError("source roster must be nonempty")
    column: dict[str, int] = {}  # roster word -> presence column; a repeated word shares one
    for src in roster:
        column.setdefault(src.word, len(column))
    encoded = [text.lower().encode("utf-8", "surrogatepass") for text in texts]
    buf = b"\n".join([b""] + encoded + [b""])  # a separator before and after each text
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    ends = np.cumsum(lengths + 1)  # offset of the separator after each text
    byte = np.frombuffer(buf, dtype=np.uint8)
    present = np.zeros((len(encoded), len(column)), dtype=bool)
    for word, col in column.items():  # a keyword is [0-9a-z]+: a literal, the regex fast search
        at = np.fromiter(map(re.Match.start, re.finditer(word.encode(), buf)), np.int64)
        at = at[~(_TOKEN_BYTE[byte[at - 1]] | _TOKEN_BYTE[byte[at + len(word)]])]  # a whole token
        present[np.searchsorted(ends, at, side="right"), col] = True
    sentiment = np.array([src.sentiment for src in roster], dtype=np.int8)
    return SourceMatrix(
        np.where(present[:, [column[src.word] for src in roster]], sentiment, -sentiment)
    )


@dataclass(frozen=True)
class CorpusVotes:
    """The keyword votes of a JSONL corpus, with each document's id, label and split.

    ``from_jsonl`` reads the file through ``_read_jsonl`` and votes each
    slice with one ``apply_sources`` call, then drops its text: only the
    ids, the labels and the votes are kept.  It raises what
    ``Corpus.from_jsonl`` raises on the same files, in the same order (a
    faulty line or undecodable bytes, then a malformed split manifest, then a
    repeated id).
    """

    ids: list  # in file order
    values: np.ndarray  # (n, m) int8 votes of the default roster
    labels: np.ndarray  # int8, 0 for an unlabeled document
    split: dict  # doc_id -> split name

    @classmethod
    def from_jsonl(
        cls, docs_path: str | Path, split_path: str | Path | None = None
    ) -> "CorpusVotes":
        ids, values, labels = [], [], []
        for docs in _read_jsonl(docs_path):
            values.append(apply_sources([d.text for d in docs]).values)
            ids += [d.doc_id for d in docs]
            labels += [d.label for d in docs]
        split = _read_split(split_path) if split_path is not None else {}
        _check_unique(ids)
        m = len(default_roster())
        values = np.concatenate(values) if values else np.empty((0, m), dtype=np.int8)
        labels = np.array([0 if label is None else label for label in labels], dtype=np.int8)
        return cls(ids, values, labels, split)

    def _in(self, name: str) -> np.ndarray:
        return np.fromiter((self.split.get(i) == name for i in self.ids), bool, len(self.ids))

    def matrix(self, name: str | None = None) -> SourceMatrix:
        """The votes of split ``name`` in file order, or of every document when None;
        labeled when every one of them is."""
        rows = self._in(name) if name is not None else slice(None)
        labels = self.labels[rows]
        return SourceMatrix(self.values[rows], labels if labels.size and labels.all() else None)

    def case_study_states(self) -> tuple[np.ndarray, np.ndarray]:
        """The joint-state indices of the train and test splits, which ``run_case_study`` reads.

        Both splits must be nonempty and fully labeled.
        """
        train, test = self._in("train"), self._in("test")
        if not train.any() or not test.any():
            raise ContractError(
                "corpus is missing a train or test split: ingest one first "
                "(labelmoments ws ingest --help) and pass its split manifest"
            )
        if not self.labels[test].all():
            raise ContractError("the test split must be fully labeled")
        if not self.labels[train].all():
            raise ContractError("the training split must be labeled to simulate budgets")
        return tuple(
            SourceMatrix(self.values[rows], self.labels[rows]).state_index() for rows in (train, test)
        )


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
    with open(path, newline="", encoding="utf-8") as fh:
        try:
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
        except UnicodeDecodeError as exc:
            raise ContractError(f"{path}: not UTF-8 text ({exc})") from exc
    return Corpus(tuple(docs), random_split(docs, test_fraction, seed))


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

    def __post_init__(self):
        if self.trials < 1:
            raise ContractError("trials must be at least 1")
        require_sizes("n_grid", self.n_grid)
        require_sizes("n_unlabeled", (self.n_unlabeled,))
        require_sizes("n_labeled_grid", self.n_labeled_grid)

    def to_dict(self) -> dict:
        return {
            "n_grid": list(self.n_grid),
            "n_unlabeled": self.n_unlabeled,
            "n_labeled_grid": list(self.n_labeled_grid),
            "trials": self.trials,
            "seed": self.seed,
            "class_balance": self.class_balance,
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
    accuracy estimator's covariance is observable), and falls back to 1 when
    that covariance is zero or undefined, flagged as ``fallback`` in the
    metadata; the same weight then blends both conditional columns, which
    preserves column-stochasticity.
    """
    diff = labeled.implied_accuracies() - unlabeled.implied_accuracies()
    try:
        alpha = green_strawderman_alpha(diff, labeled_moments.shrinkage_covariance(), r)
        fallback = False
    except (NumericalError, ContractError):
        alpha, fallback = 1.0, True
    mu = alpha * unlabeled.mu + (1.0 - alpha) * labeled.mu
    meta = {"method": "combined", "alpha": alpha, "fallback": fallback}
    return ClassConditionalEstimate(mu, labeled.class_balance, meta), alpha


def _metric_row(model: str, n, n_labeled, losses, f1s, alpha="", gs_fallbacks="") -> dict:
    """One metrics row: mean and sample standard deviation over the trials."""

    def sd(xs) -> float:
        return float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0

    return {
        "model": model, "n": n, "n_labeled": n_labeled,
        "loss": float(np.mean(losses)), "loss_sd": sd(losses),
        "f1": float(np.mean(f1s)), "f1_sd": sd(f1s),
        "alpha": alpha, "gs_fallbacks": gs_fallbacks,
    }


def run_case_study(
    train_states: np.ndarray, test_states: np.ndarray, config: CaseStudyConfig | None = None
) -> list[dict]:
    """Fit labeled / mean / median-corrected / combined models; score on the test split.

    The splits come as joint-state indices of the default roster over
    (sources, Y), one per document (``CorpusVotes.case_study_states``); an
    empty split raises ``ContractError``.  Returns metric rows (dicts) ready for CSV
    serialization.  Each cell (a model and a training size) draws its
    trials, one after another, from one ``trial_rng(seed, f"case:{name}", n)``.
    A training subset is one ``rng.choice`` of the split's rows without
    replacement, kept as the joint-state counts of the drawn rows; a size of
    at least the split is the whole split and draws nothing, so such a cell
    is fitted and scored once and its one result stands for each of its
    trials.  Every fit reads those counts, and the test split is scored by
    its state indices.  Combined trial t pairs the t-th corrected-median fit
    at ``n_unlabeled``, fitted once for the whole labeled grid, with the t-th
    labeled subset at the labeled size, drawn as the ``labeled`` cell of that
    size draws it; a combined row's ``gs_fallbacks`` counts its trials whose
    shrinkage weight fell back to 1.
    """
    config = config if config is not None else CaseStudyConfig()
    if not train_states.size or not test_states.size:
        raise ContractError("the case study needs the states of a nonempty train and test split")
    m = len(default_roster())
    p = config.class_balance
    rows: list[dict] = []

    def score(est: ClassConditionalEstimate) -> tuple[float, float]:
        lm = LabelModel.from_class_conditional(est, mode="normalized")
        return cross_entropy(lm, test_states), f1_score(lm, test_states)

    def subsample(rng, n: int) -> np.ndarray:
        rows = train_states if n >= train_states.size else rng.choice(train_states, n, replace=False)
        return np.bincount(rows, minlength=1 << (m + 1))

    def per_trial(n: int, trial):
        """``trial()`` for each trial of a cell of size n; one call when n covers the split."""
        if n >= train_states.size:
            return [trial()] * config.trials
        return [trial() for _ in range(config.trials)]

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
            rng = trial_rng(config.seed, f"case:{name}", n)
            scores = per_trial(n, lambda: score(fitter(subsample(rng, n))))
            rows.append(_metric_row(
                name, int(min(n, train_states.size)), "",
                [loss for loss, _ in scores], [f1 for _, f1 in scores],
            ))

    r = float(m - 2)
    rng = trial_rng(config.seed, "case:corrected-median", config.n_unlabeled)
    unlabeled = per_trial(
        config.n_unlabeled, lambda: quadratic(subsample(rng, config.n_unlabeled), "median")
    )
    for n_l in config.n_labeled_grid:
        stats = {"combined": ([], []), "labeled-small": ([], [])}
        alphas, fallbacks = [], 0
        rng = trial_rng(config.seed, "case:labeled", n_l)
        for corrected in unlabeled:
            lab_counts = subsample(rng, n_l)
            lab = estimate_labeled_class_conditional(lab_counts, m, p)
            combined, alpha = _combine_class_conditional(
                corrected, lab, SampleMoments.from_state_counts(lab_counts, m), r
            )
            alphas.append(alpha)
            fallbacks += combined.metadata["fallback"]
            for key, est in (("combined", combined), ("labeled-small", lab)):
                loss, f1 = score(est)
                stats[key][0].append(loss)
                stats[key][1].append(f1)
        rows.append(_metric_row("labeled-small", "", int(n_l), *stats["labeled-small"]))
        rows.append(_metric_row(
            "combined", int(config.n_unlabeled), int(n_l), *stats["combined"],
            float(np.mean(alphas)), fallbacks,
        ))
    return rows


def write_metrics_csv(rows: list[dict], path: str | Path) -> None:
    header = ["model", "n", "n_labeled", "loss", "loss_sd", "f1", "f1_sd", "alpha", "gs_fallbacks"]
    write_csv(path, header, [[row[h] for h in header] for row in rows])
