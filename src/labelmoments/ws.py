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
subset is the ``bincount`` of the indices it draws, and the fits read those
counts a cell (a model and a training size) at a time, as one batch: one
``SampleMoments.from_state_counts`` call and one quadratic-triplet fit, or
one product for the class-conditional frequencies.  A cell that covers the
training split is a batch of one, which broadcasts against the trials of
the cells it is combined with, and each distinct fit is scored once.  A
labeled budget's shrinkage weights come from one ``green_strawderman_alpha``
call over its trials whose labeled covariance is defined; the other trials
take weight 1, with no exception caught.  The test split is decoded once
(``label_model.LabeledStates``), and each fit is scored from its
posteriors at the source configurations the split holds.

The states are built while the corpus file is read (``CorpusVotes``): the
reader hands over ids, texts and labels a checked batch of lines at a time,
each slice of about ``_SLICE_BYTES`` of text is voted by one
``apply_sources`` call, and its text is dropped.  What is kept per document
is its id, its label and its votes, so the memory of ``ws run`` and ``ws
apply`` does not grow with the length of the documents.

External corpora are ingested to JSONL ({"id", "text", "label"}) plus a
split manifest ({"train": [...], "test": [...]}); nothing is bundled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .data import SourceMatrix
from .errors import ContractError
from .estimators import (
    ClassConditionalEstimate,
    SampleMoments,
    estimate_quadratic_triplet_from_moments,
    green_strawderman_alpha,
)
from .experiments import require_sizes, trial_rng, write_csv
from .label_model import LabelModel, LabeledStates, cross_entropy, f1_score
from .manifest import read_json
from .states import config_bits

_TOKEN_BYTES = bytes(c in b"0123456789abcdefghijklmnopqrstuvwxyz" for c in range(256))  # 1: token byte
_READ_CHARS = 1 << 13  # characters of lines the reader parses and checks at once
_SLICE_BYTES = 1 << 18  # text bytes voted at once: bounds the memory of a vote
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
        if not (self.word.isascii() and self.word.isalnum()):
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
        for batch in _read_jsonl(docs_path):
            docs += map(Document, *batch)
        split = _read_split(split_path) if split_path is not None else {}
        return cls(tuple(docs), split)


def _read_jsonl(docs_path: str | Path):
    """Yield a JSONL corpus's records as (ids, texts, labels) lists, a batch of lines at a time.

    The file is UTF-8 text with one JSON object per line, each with ``"id"``
    (read as its ``str``), ``"text"`` (a string) and optionally ``"label"``
    (-1 or +1).  Lines end as universal newlines do; whitespace around a line
    is ignored, and blank lines are skipped.  A line that is not such a
    record, or a file that is not UTF-8, raises ``ContractError`` naming the
    file, and the line where it is known; earlier batches may have been
    yielded by then.

    ``fh.readlines`` reads a batch of about ``_READ_CHARS`` characters, and
    ``_checked_batch`` checks it whole.  When a check fails, or the file is
    not UTF-8, the file is read again from the top with one ``json.loads``
    per line, so that the first fault in file order raises its own message;
    that pass yields only the records after those already yielded.
    """
    done = 0  # records yielded
    with open(docs_path, encoding="utf-8") as fh:
        try:
            while lines := fh.readlines(_READ_CHARS):
                batch = _checked_batch(list(filter(None, map(str.strip, lines))))
                yield batch
                done += len(batch[0])
            return
        except (ValueError, KeyError, TypeError, RecursionError):  # UnicodeDecodeError is a ValueError
            fh.seek(0)
        try:
            for lineno, line in enumerate(fh, 1):
                if line := line.strip():
                    try:
                        rec = json.loads(line)
                        doc = Document(str(rec["id"]), rec["text"], rec.get("label"))
                    except (ValueError, KeyError, TypeError, RecursionError) as exc:
                        raise ContractError(
                            f"{docs_path}, line {lineno}: not a document record with "
                            f"'id' and 'text' ({type(exc).__name__}: {exc})"
                        ) from exc
                    if (done := done - 1) < 0:
                        yield [doc.doc_id], [doc.text], [doc.label]
        except UnicodeDecodeError as exc:
            raise ContractError(f"{docs_path}: not UTF-8 text ({exc})") from exc


def _checked_batch(lines):
    """(ids, texts, labels) of stripped, nonblank JSONL lines; ``ValueError`` where a check fails.

    ``json.loads``' C scanner scans each line from index 0.  A scan that ends
    at the end of the line is exactly ``json.loads`` on it (a BOM fails
    both), and a failed scan ends the ``map`` early.  ``itemgetter`` and
    ``dict.get`` refuse a record that is not a dict with an id and a text.
    The texts must be ``str`` and the set of labels lie within {None, -1, 1},
    whose equality is that of ``Document``'s check.  The batch's records die
    when this returns, before the reader yields: held together with the
    records that stay, they would leave freed memory scattered among them.
    """
    scans = list(chain.from_iterable(map(_SCAN_ONCE, lines, repeat(0))))  # record, end, record, ...
    recs = scans[::2]
    texts, labels = list(map(itemgetter("text"), recs)), list(map(dict.get, recs, repeat("label")))
    if scans[1::2] != list(map(len, lines)) or not set(map(type, texts)) <= {str} \
            or not set(labels) <= {None, -1, 1}:
        raise ValueError  # a faulty line, for the per-line pass to name
    ids = list(map(itemgetter("id"), recs))  # each read as its str, which a str already is
    return ids if set(map(type, ids)) <= {str} else list(map(str, ids)), texts, labels


def _split_from_dict(doc: dict) -> dict:
    if not all(isinstance(ids, list) for ids in doc.values()):
        raise TypeError("a split manifest maps each split name to a list of document ids")
    split = {str(i): name for name, ids in doc.items() for i in ids}
    if len(split) < sum(map(len, doc.values())):  # some id is listed twice: name it
        seen = {}
        for name, ids in doc.items():
            for doc_id in map(str, ids):
                if doc_id in seen:
                    raise ContractError(
                        f"document {doc_id!r} is listed under {seen[doc_id]!r} and {name!r}"
                    )
                seen[doc_id] = name
    return split


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
    """Vote matrix (without labels) for a sequence of texts.

    A word is present in a text when it equals one of the text's tokens (the
    module docstring's tokenization), found without a token set per text.
    The texts, joined with ``"\\n"`` before, between and after them, are
    lowercased and UTF-8 encoded into one buffer.  When the buffer is ASCII
    each text's length is its own (only the Kelvin sign lowercases to ASCII
    from outside it, one character to one); otherwise a text that is not
    ASCII takes its length from its own lowercased encoding.
    ``bytes.translate`` codes each byte: 0 outside tokens, 2 for a word's
    first byte, 1 for another token byte.  The tokens that start with a 2
    after a 0 are selected once per first letter, narrowed per word that
    starts with it, byte by byte, and kept when a 0 follows the word; a
    binary search of the texts' end offsets names its text.  Arrays hold a byte per buffer
    byte or an index per candidate, and ``CorpusVotes`` bounds the buffer by
    voting a slice (about ``_SLICE_BYTES`` of text) per call.

    This is exact.  The tokens of the lowercased text are its maximal runs
    of ``[0-9a-z]``.  UTF-8 writes each ASCII character as its own byte and
    every other code point (lone surrogates included) as bytes of 0x80 and
    above, and the separator is not a token byte, so the buffer's maximal
    runs of token bytes are the texts' tokens.  Lowercasing the joined text
    lowercases each text as alone would: only a final sigma looks at its
    neighbours, through cased or case-ignorable letters, and ``"\\n"`` is
    neither.
    """
    roster = roster if roster is not None else default_roster()
    if not roster:
        raise ContractError("source roster must be nonempty")
    column: dict[str, int] = {}  # roster word -> presence column; a repeated word shares one
    for src in roster:
        column.setdefault(src.word, len(column))
    buf = "\n".join(["", *texts, ""]).lower().encode("utf-8", "surrogatepass")
    lengths = map(len, texts) if buf.isascii() else (
        len(t) if t.isascii() else len(t.lower().encode("utf-8", "surrogatepass")) for t in texts
    )
    ends = np.cumsum(np.fromiter(lengths, np.intp, len(texts)) + 1)  # offset of the separator after each text
    by_head: dict[str, list] = {}  # first letter -> the roster words that start with it
    for word in column:
        by_head.setdefault(word[0], []).append(word)
    table = bytearray(_TOKEN_BYTES)
    for head in by_head:
        table[ord(head)] = 2
    code, byte = np.frombuffer(buf.translate(table), np.uint8), np.frombuffer(buf, np.uint8)
    before = np.flatnonzero(code[1:] > code[:-1] + 1)  # the byte before each such token
    heads = byte[1:][before]
    present = np.zeros((len(texts), len(column)), dtype=bool)
    for head, words in by_head.items():
        candidates = before[heads == ord(head)]
        for word in words:
            at = candidates
            for k, b in enumerate(word.encode()[1:], 2):
                at = at[byte[at + k] == b]
            at = at[code[at + len(word) + 1] == 0]  # the token is the word
            present[np.searchsorted(ends, at, side="right"), column[word]] = True
    sentiment = np.array([src.sentiment for src in roster], dtype=np.int8)
    return SourceMatrix(
        np.where(present[:, [column[src.word] for src in roster]], sentiment, -sentiment)
    )


@dataclass(frozen=True)
class CorpusVotes:
    """The keyword votes of a JSONL corpus, with each document's id, label and split.

    ``from_jsonl`` keeps the ids and labels of the reader's batches and votes
    their texts with one ``apply_sources`` call per ``_SLICE_BYTES``
    characters.  It raises what ``Corpus.from_jsonl`` raises on the same
    files, in the same order (a faulty line or undecodable bytes, then a
    malformed split manifest, then a repeated id).
    """

    ids: list  # in file order
    values: np.ndarray  # (n, m) int8 votes of the default roster
    labels: np.ndarray  # int8, 0 for an unlabeled document
    split: dict  # doc_id -> split name

    @classmethod
    def from_jsonl(
        cls, docs_path: str | Path, split_path: str | Path | None = None
    ) -> "CorpusVotes":
        ids, labels, values, texts, size = [], [], [], [], 0
        for batch_ids, batch_texts, batch_labels in _read_jsonl(docs_path):
            ids += batch_ids
            labels += batch_labels
            texts += batch_texts
            size += sum(map(len, batch_texts))
            if size >= _SLICE_BYTES:
                values.append(apply_sources(texts).values)
                texts, size = [], 0
        if texts or not values:
            values.append(apply_sources(texts).values)
        split = _read_split(split_path) if split_path is not None else {}
        _check_unique(ids)
        labels = np.array([0 if label is None else label for label in labels], dtype=np.int8)
        return cls(ids, np.concatenate(values), labels, split)

    def _in(self, *names: str) -> list[np.ndarray]:
        """The row mask of each named split, from one pass over the ids."""
        number = {name: k for k, name in enumerate(names, 1)}.get
        which = np.fromiter(map(number, map(self.split.get, self.ids), repeat(0)), np.int8, len(self.ids))
        return [which == k for k in range(1, len(names) + 1)]

    def matrix(self, name: str | None = None) -> SourceMatrix:
        """The votes of split ``name`` in file order, or of every document when None;
        labeled when every one of them is."""
        rows = self._in(name)[0] if name is not None else slice(None)
        labels = self.labels[rows]
        return SourceMatrix(self.values[rows], labels if labels.size and labels.all() else None)

    def case_study_states(self) -> tuple[np.ndarray, np.ndarray]:
        """The joint-state indices of the train and test splits, which ``run_case_study`` reads.

        Both splits must be nonempty and fully labeled.
        """
        train, test = self._in("train", "test")
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
        if not 0.0 < self.class_balance < 1.0:
            raise ContractError(f"class balance must lie in (0, 1), got {self.class_balance}")
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
    """Empirical Pr(vote = 1 | label) per source from joint-state counts
    (..., 2^(m+1)); leading axes are a batch of labeled samples, and the
    estimate holds one fit per sample.

    A class with no rows gets conditionals of 0.5.  The vote counts are sums
    of integer counts, so they are exact in any order, and one product over
    a batch equals a product per sample.
    """
    by_class = np.asarray(counts, dtype=np.float64).reshape(np.shape(counts)[:-1] + (2, 1 << m))
    votes = by_class @ config_bits(m)  # +1 votes per class and source; Y = -1, then Y = +1
    rows = by_class.sum(axis=-1)[..., None]
    cond = np.divide(votes, rows, out=np.full(votes.shape, 0.5), where=rows > 0)
    return ClassConditionalEstimate.from_conditionals(
        cond[..., 1, :], cond[..., 0, :], class_balance, {"method": "labeled-class-conditional"}
    )


def _mean_sd(xs) -> tuple[float, float]:
    """Mean and sample standard deviation over the trials.  Trials that all
    agree, as a fit-once cell's do, give their one value and 0, not the
    rounding of a sum."""
    if len(set(xs)) == 1:
        return float(xs[0]), 0.0
    return float(np.mean(xs)), float(np.std(xs, ddof=1))


def _metric_row(model: str, n, n_labeled, losses, f1s, alpha="", gs_fallbacks="") -> dict:
    """One metrics row: mean and sample standard deviation over the trials."""
    (loss, loss_sd), (f1, f1_sd) = _mean_sd(losses), _mean_sd(f1s)
    return {
        "model": model, "n": n, "n_labeled": n_labeled,
        "loss": loss, "loss_sd": loss_sd, "f1": f1, "f1_sd": f1_sd,
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
    is one fit.  A cell is keyed by its model and its size capped at the
    split's, and each distinct cell is drawn and fitted once, whichever rows
    read it.  A cell is fitted with one call, as a batch of a row per
    trial or of the one row: its moments come from one
    ``SampleMoments.from_state_counts`` call, its quadratic fit from one
    ``estimate_quadratic_triplet_from_moments`` call and its labeled
    conditionals from one product (``estimate_labeled_class_conditional``),
    and each row equals a call per trial bit for bit.  A metric row scores
    each distinct fit once, and a fit-once cell's one score stands for each
    of its trials.  The test split is decoded once into ``LabeledStates``,
    and each fit's posteriors are computed once, at the configurations the
    split holds.  Combined trial t pairs the t-th fit of the corrected-median cell
    at ``n_unlabeled`` with the t-th subset of the ``labeled`` cell at the
    labeled size; a fit-once side's one row pairs with each row of the
    other, so the combined fits are one row when both sides cover the split.
    One ``green_strawderman_alpha`` call per labeled size weighs the pairs
    whose labeled covariance is defined (``SampleMoments.shrinkage_covariance``'s
    mask); every other pair takes weight 1, and a combined row's
    ``gs_fallbacks`` counts the trials of those pairs.
    """
    config = config if config is not None else CaseStudyConfig()
    if not train_states.size or not test_states.size:
        raise ContractError("the case study needs the states of a nonempty train and test split")
    m = len(default_roster())
    p, trials = config.class_balance, config.trials
    test = LabeledStates.from_states(test_states, m)
    whole = np.bincount(train_states, minlength=2 << m)[None]
    rows: list[dict] = []

    def scores(est: ClassConditionalEstimate) -> tuple[tuple, tuple]:
        """The losses and F1s of a cell's trials: each fit of ``est`` is scored
        once, and a fit-once cell's one score stands for each trial."""
        scored = [
            (cross_entropy(lm, test), f1_score(lm, test))
            for lm in map(LabelModel, est.cond_pos, est.cond_neg, repeat(p))
        ]
        return tuple(zip(*scored * (trials // len(scored))))

    def quadratic(counts: np.ndarray, aggregation: str) -> ClassConditionalEstimate:
        # unlabeled: the solver reads only the source moments, not the labels in the counts
        return estimate_quadratic_triplet_from_moments(SampleMoments.from_state_counts(counts, m), p, aggregation)

    fitters = {
        "labeled": lambda counts: estimate_labeled_class_conditional(counts, m, p),
        "unlabeled-mean": lambda counts: quadratic(counts, "mean"),
        "corrected-median": lambda counts: quadratic(counts, "median"),
    }

    @cache
    def cell(name: str, n: int) -> tuple[np.ndarray, ClassConditionalEstimate]:
        """The joint-state counts of a cell's subsets, a row per trial in draw
        order, and its fit; one row, the whole split, when n is the split's size."""
        if n == train_states.size:
            counts = whole
        else:
            rng = trial_rng(config.seed, f"case:{name}", n)
            counts = np.stack([
                np.bincount(rng.choice(train_states, n, replace=False), minlength=2 << m) for _ in range(trials)
            ])
        return counts, fitters[name](counts)

    def size(n: int) -> int:
        """A cell's training size: n, or the split's size when n covers the split."""
        return int(min(n, train_states.size))

    for name in fitters:
        for n in config.n_grid:
            rows.append(_metric_row(name, size(n), "", *scores(cell(name, size(n))[1])))

    r = float(m - 2)
    unlabeled = cell("corrected-median", size(config.n_unlabeled))[1]
    for n_l in config.n_labeled_grid:
        counts, labeled = cell("labeled", size(n_l))
        sigma, defined = SampleMoments.from_state_counts(counts, m).shrinkage_covariance()
        fallbacks = int(np.count_nonzero(~defined)) * (trials // len(defined))
        # a row per distinct pair of fits: one when both cells are fitted once, else a row per trial
        diff = labeled.implied_accuracies() - unlabeled.implied_accuracies()
        sigma, defined = np.broadcast_to(sigma, diff.shape + (m,)), np.broadcast_to(defined, len(diff))
        alphas = np.ones(len(diff))
        alphas[defined] = green_strawderman_alpha(diff[defined], sigma[defined], r)
        # one weight blends both conditional columns, which keeps them column-stochastic
        weight = alphas[:, None, None, None]
        combined = ClassConditionalEstimate(weight * unlabeled.mu + (1.0 - weight) * labeled.mu, p)
        rows.append(_metric_row("labeled-small", "", int(n_l), *scores(labeled)))
        rows.append(_metric_row(
            "combined", int(config.n_unlabeled), int(n_l), *scores(combined), _mean_sd(alphas)[0], fallbacks,
        ))
    return rows


def write_metrics_csv(rows: list[dict], path: str | Path) -> None:
    header = ["model", "n", "n_labeled", "loss", "loss_sd", "f1", "f1_sd", "alpha", "gs_fallbacks"]
    write_csv(path, header, [[row[h] for h in header] for row in rows])
