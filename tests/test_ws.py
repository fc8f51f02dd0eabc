import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelmoments import ContractError, NumericalError, SourceMatrix, ws
from labelmoments.estimators import (
    ClassConditionalEstimate,
    SampleMoments,
    estimate_quadratic_triplet_from_moments,
    green_strawderman_alpha,
)
from labelmoments.experiments import trial_rng
from labelmoments.label_model import LOSS_FLOOR, LabelModel
from labelmoments.ws import (
    CaseStudyConfig,
    Corpus,
    CorpusVotes,
    Document,
    KeywordSource,
    apply_sources,
    default_roster,
    estimate_labeled_class_conditional,
    ingest_csv,
    ingest_review_directory,
    random_split,
    run_case_study,
    write_metrics_csv,
)

from conftest import (
    oracle_from_jsonl, raising_shrinkage_covariance, state_counts, synthetic_keyword_corpus, tokenize,
)


class TestRoster:
    def test_default_roster(self):
        roster = default_roster()
        assert len(roster) == 12
        assert sum(1 for s in roster if s.sentiment == 1) == 6
        assert {s.word for s in roster} >= {"love", "good", "terrible", "would"}

    def test_validation(self):
        with pytest.raises(ContractError):
            KeywordSource("", 1)
        with pytest.raises(ContractError):
            KeywordSource("fine", 0)

    def test_word_lowercased(self):
        assert KeywordSource("Good", 1).word == "good"

    @pytest.mark.parametrize("word", ["don't", "a_b", "é", "two words", "İ"])
    def test_word_that_can_never_be_a_token_rejected(self, word):
        with pytest.raises(ContractError, match="can never be a token"):
            KeywordSource(word, 1)


class TestTokenize:
    def test_splits_on_non_alphanumeric(self):
        assert tokenize("It's GOOD, really good; 10/10!") == frozenset(
            {"it", "s", "good", "really", "10"}
        )

    def test_empty(self):
        assert tokenize("...") == frozenset()


# Text pieces on which a byte scan could disagree with the token sets: prefix
# words, case folds into ASCII ("İ" lowers to "i" plus a combining dot, the
# Kelvin sign to "k"), non-ASCII letters and digits, separators that are not
# spaces, and a lone surrogate.
FRAGMENTS = [
    "go", "good", "goodness", "GOOD", "Good", "don't", "10", "k", "i", "ss", "fi",
    " ", "  ", "\n", "\t", "_", "\x00", "'", "-", ".", "İ", "\u212a", "ß", "\ufb01",
    "\U0001f600", "\uff11\uff10", "é", "\ud800",
]
# Roster words: each is [0-9a-z]+ after lowercasing, as ``KeywordSource`` requires.
ROSTER_WORDS = ["go", "good", "goodness", "Good", "don", "t", "10", "k", "i", "ss", "fi"]


def oracle_votes(texts, roster):
    """Votes from each text's token set, one text at a time."""
    votes = [[s.sentiment if s.word in tokenize(t) else -s.sentiment for s in roster]
             for t in texts]
    return np.array(votes, dtype=np.int8).reshape(len(texts), len(roster))


def labeled_matrix(corpus):
    """``apply_sources`` on every document of the corpus, with its labels."""
    docs = corpus.documents
    return SourceMatrix(apply_sources([d.text for d in docs]).values, [d.label for d in docs])


class TestApplySources:
    def test_votes_for_simple_document(self):
        matrix = apply_sources(["a good movie"])
        votes = dict(zip([s.word for s in default_roster()], matrix.values[0]))
        assert votes["good"] == 1
        for w in ("love", "like", "great", "best", "excellent"):
            assert votes[w] == -1
        for w in ("terrible", "worst", "bad", "better", "could", "would"):
            assert votes[w] == 1

    def test_empty_document(self):
        matrix = apply_sources([""])
        sentiments = np.array([s.sentiment for s in default_roster()])
        np.testing.assert_array_equal(matrix.values[0], -sentiments)

    def test_no_label_column(self):
        assert apply_sources(["good", "bad"]).labels is None

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        texts = [" ".join(rng.choice(["good", "bad", "movie", "the"], 4)) for _ in range(20)]
        base = apply_sources(texts).values
        perm = rng.permutation(20)
        shuffled = apply_sources([texts[i] for i in perm]).values
        np.testing.assert_array_equal(shuffled, base[perm])

    @pytest.mark.parametrize("roster", [
        default_roster(),
        (KeywordSource("good", 1), KeywordSource("Good", -1), KeywordSource("bad", -1)),
        (KeywordSource("don", 1), KeywordSource("10", -1), KeywordSource("good", 1)),
    ])
    def test_matches_per_document_loop(self, roster):
        texts = [
            "GOOD movie, really good!!", "goodness gracious", "Not bad... 10/10",
            "", "could've been better; WOULD not watch", "don't", "love-like 2 GREAT",
            "goodgood bad_ending", "Excellent.", "worst\tterrible\nbest",
        ]
        np.testing.assert_array_equal(
            apply_sources(texts, roster=roster).values, oracle_votes(texts, roster)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join), max_size=12),
        words=st.lists(st.sampled_from(ROSTER_WORDS), min_size=1, max_size=8),
        sentiments=st.lists(st.sampled_from([-1, 1]), min_size=8, max_size=8),
    )
    def test_matches_tokenize_oracle(self, texts, words, sentiments):
        roster = tuple(KeywordSource(w, s) for w, s in zip(words, sentiments))
        votes = apply_sources(texts, roster=roster).values
        np.testing.assert_array_equal(votes, oracle_votes(texts, roster))

    def test_matches_tokenize_oracle_across_default_slices(self, tmp_path):
        # one call on texts past two slice budgets, and the streaming pass that votes them a slice at a time
        rng = np.random.default_rng(11)
        texts, size = [], 0
        while size < 2 * ws._SLICE_BYTES or len(texts) % 37:
            texts.append("".join(rng.choice(FRAGMENTS, rng.integers(0, 400))))
            size += len(texts[-1])
        roster = tuple(KeywordSource(w, 1) for w in ROSTER_WORDS)
        np.testing.assert_array_equal(
            apply_sources(texts, roster=roster).values, oracle_votes(texts, roster)
        )
        docs = tuple(Document(str(i), t) for i, t in enumerate(texts))
        Corpus(docs).to_jsonl(tmp_path / "docs.jsonl", tmp_path / "split.json")
        votes = CorpusVotes.from_jsonl(tmp_path / "docs.jsonl")
        np.testing.assert_array_equal(votes.values, oracle_votes(texts, default_roster()))

    def test_memory_is_a_few_bytes_per_buffer_byte(self):
        # a keyword-dense slice: about one candidate token per six bytes.  An index
        # per buffer byte (8 bytes each) would alone exceed the bound.
        rng = np.random.default_rng(3)
        words = [s.word for s in default_roster()] + ["Good", "BAD", "the", "film"]
        texts, size = [], 0
        while size < ws._SLICE_BYTES:
            texts.append(" ".join(rng.choice(words, 8)))
            size += len(texts[-1]) + 1
        expected = oracle_votes(texts[:200], default_roster())
        np.testing.assert_array_equal(apply_sources(texts[:200]).values, expected)
        tracemalloc.start()
        try:
            apply_sources(texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * size, peak / size

    def test_empty_corpus(self):
        matrix = apply_sources([])
        assert matrix.values.shape == (0, len(default_roster()))
        assert matrix.labels is None

    def test_empty_roster_rejected(self):
        with pytest.raises(ContractError):
            apply_sources(["x"], roster=())


# JSONL lines on which a parse could disagree with one ``json.loads`` per line:
# records (with a unicode text, or surrounded by whitespace that str.strip
# removes and JSON does not), blank lines, a BOM, NaN and Infinity, two
# objects or trailing garbage on one line, values that are not objects,
# duplicate keys, lone surrogate escapes, and a record split across two lines
# that would parse as two records if the lines were joined.  "@ID@" becomes
# the line's position.
JSONL_LINES = [
    '{"id": "@ID@", "text": "good film", "label": 1}',
    '{"id": "@ID@", "text": "caf\u00e9 \u2603", "label": -1}',
    '{"id": "@ID@", "text": "unlabeled"}',
    '  \t{"id": "@ID@", "text": "padded"} \u00a0\x1c',
    "", "   ", "\t \u3000",
    '\ufeff{"id": "@ID@", "text": "bom"}',
    '{"id": "@ID@", "text": "x", "label": NaN}',
    '{"id": "@ID@", "text": "x", "score": Infinity}',
    '{"id": "@ID@", "text": "x"} {"id": "@ID@b", "text": "y"}',
    '{"id": "@ID@", "text": "x"},',
    '{"id": "@ID@", "text": "x"} trailing',
    '[1, 2]', '"just a string"', "42", "null", "true", "{", "}",
    '{"id": "@ID@", "text": "x", "text": "second"}',
    '{"id": "@ID@", "text": "\\ud800 and \\udfff"}',
    '{"id": "@ID@", "text": "x", "z": [1',
    '2]}, {"id": "@ID@", "text": "y"}',
    '{"id": 7, "text": "numeric id"}',
    # labels equal to -1 or +1 in another type, a null label, and an unhashable one;
    # a text that is not a string; ids that are an object or null
    '{"id": "@ID@", "text": "x", "label": true}',
    '{"id": "@ID@", "text": "x", "label": 1.0}',
    '{"id": "@ID@", "text": "x", "label": -1.0}',
    '{"id": "@ID@", "text": "x", "label": [1]}',
    '{"id": "@ID@", "text": "x", "label": null}',
    '{"id": "@ID@", "text": 5}',
    '{"id": {"a": 1}, "text": "object id"}',
    '{"id": null, "text": "null id"}',
]


class TestCorpusIO:
    def test_jsonl_round_trip(self, tmp_path):
        docs = (
            Document("a", "good movie", 1),
            Document("b", "bad one", -1),
            Document("c", "unlabeled text"),
        )
        corpus = Corpus(docs, {"a": "train", "b": "test", "c": "train"})
        corpus.to_jsonl(tmp_path / "docs.jsonl", tmp_path / "split.json")
        back = Corpus.from_jsonl(tmp_path / "docs.jsonl", tmp_path / "split.json")
        assert back.documents == docs
        assert back.split == {"a": "train", "b": "test", "c": "train"}

    @pytest.mark.parametrize("line", [
        "not json",
        '{"id": "b"}',
        '{"text": "no id"}',
        '["b", "text"]',
        '{"id": "b", "text": "x", "label": 2}',
        '{"id": "b", "text": null}',
    ])
    def test_jsonl_bad_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a", "text": "fine"}\n\n' + line + "\n")
        with pytest.raises(ContractError, match=r"docs\.jsonl, line 3"):
            Corpus.from_jsonl(path)

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(st.sampled_from(JSONL_LINES), max_size=10),
        ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=10, max_size=10),
        bom=st.booleans(),
        slice_bytes=st.integers(1, 30),
    )
    def test_jsonl_matches_per_line_json_loads(
        self, tmp_path_factory, lines, ends, bom, slice_bytes
    ):
        # the record ids are the line positions, so a repeat is a repeated line;
        # small slices, so most files are read in several
        text = "".join(
            line.replace("@ID@", f"r{i}") + end for i, (line, end) in enumerate(zip(lines, ends))
        )
        path = tmp_path_factory.mktemp("jsonl") / "docs.jsonl"
        path.write_bytes(("\ufeff" if bom else "").encode() + text.encode())

        def outcome(read, keep=lambda x: x):
            try:
                return keep(read(path))
            except ContractError as exc:
                return str(exc)

        def kept(corpus):  # what the streaming pass keeps of a corpus
            docs = corpus.documents
            labels = [d.label or 0 for d in docs]
            return [d.doc_id for d in docs], labels, oracle_votes([d.text for d in docs], default_roster())

        def votes_kept(votes):
            return votes.ids, votes.labels.tolist(), votes.values

        with mock.patch.object(ws, "_SLICE_BYTES", slice_bytes):
            corpus, votes = outcome(Corpus.from_jsonl), outcome(CorpusVotes.from_jsonl, votes_kept)
        expected = outcome(oracle_from_jsonl)
        assert corpus == expected
        expected = expected if isinstance(expected, str) else kept(expected)
        if isinstance(votes, str) or isinstance(expected, str):
            assert votes == expected
        else:
            assert votes[:2] == expected[:2]
            np.testing.assert_array_equal(votes[2], expected[2])

    @pytest.mark.parametrize("slice_bytes, read_chars", [
        (1, 1), (7, 1), (7, 200), (100, 50), (100, 5000), (10_000, 1000), (10_000, 100_000),
    ])
    def test_votes_slices_are_whole_batches_that_end_once_their_text_reaches_the_budget(
        self, tmp_path, slice_bytes, read_chars
    ):
        rng = np.random.default_rng(slice_bytes + read_chars)
        docs = tuple(Document(f"d{i}", "good " * int(rng.integers(0, 12)), 1) for i in range(300))
        path = tmp_path / "docs.jsonl"
        Corpus(docs, {}).to_jsonl(path, tmp_path / "split.json")
        slices = []

        def recorded(texts):
            slices.append(list(texts))
            return apply_sources(texts)

        with mock.patch.object(ws, "_SLICE_BYTES", slice_bytes), \
                mock.patch.object(ws, "_READ_CHARS", read_chars):
            batches = list(ws._read_jsonl(path))
            with mock.patch.object(ws, "apply_sources", recorded):
                votes = CorpusVotes.from_jsonl(path)
        # the reader yields every record once, in file order, in batches of whole lines
        assert [rec for batch in batches for rec in zip(*batch)] == [
            (d.doc_id, d.text, d.label) for d in docs
        ]
        assert len(batches) == 1 if read_chars > 20_000 else len(batches) > 1
        # each slice is the texts of whole batches, and ends at the first batch where
        # its text reaches the budget; what is left is one last slice
        expected, texts, size = [], [], 0
        for batch in batches:
            texts, size = texts + batch[1], size + sum(map(len, batch[1]))
            if size >= slice_bytes:
                expected, texts, size = expected + [texts], [], 0
        assert slices == expected + [texts] * bool(texts)
        np.testing.assert_array_equal(votes.values, apply_sources([d.text for d in docs]).values)

    def test_reader_fallback_yields_the_records_not_yet_yielded(self, tmp_path, monkeypatch):
        # a batch that fails its checks sends the reader to the per-line path from the
        # top of the file, which yields each record after those already yielded, once
        docs = tuple(Document(f"d{i}", f"text {i}", 1 - 2 * (i % 2)) for i in range(50))
        path = tmp_path / "docs.jsonl"
        Corpus(docs, {}).to_jsonl(path, tmp_path / "split.json")
        checked, calls = ws._checked_batch, []

        def fails_third(lines):
            calls.append(len(lines))
            if len(calls) == 3:
                raise ValueError
            return checked(lines)

        monkeypatch.setattr(ws, "_READ_CHARS", 200)
        monkeypatch.setattr(ws, "_checked_batch", fails_third)
        batches = list(ws._read_jsonl(path))
        assert len(calls) == 3 and len(batches) > 3
        assert [rec for batch in batches for rec in zip(*batch)] == [
            (d.doc_id, d.text, d.label) for d in docs
        ]

    @pytest.mark.parametrize("manifest, message", [
        ({"train": ["d0", "d4"], "test": ["d4", "d5"]}, "document 'd4' is listed under 'train' and 'test'"),
        ({"train": ["d0", "d1"], "dev": ["d0"]}, "document 'd0' is listed under 'train' and 'dev'"),
        ({"train": ["d1", "d2", "d1"]}, "document 'd1' is listed under 'train' and 'train'"),
        ({"train": ["d0", 5], "test": ["5"]}, "document '5' is listed under 'train' and 'test'"),
    ])
    @pytest.mark.parametrize("reader", [Corpus, CorpusVotes])
    def test_split_manifest_listing_a_document_twice_is_refused(self, tmp_path, reader, manifest, message):
        docs, split = tmp_path / "docs.jsonl", tmp_path / "split.json"
        ids = ["d0", "d1", "d2", "d4", "d5", "5"]
        docs.write_text("".join(json.dumps({"id": d, "text": "x"}) + "\n" for d in ids))
        split.write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=rf"split\.json: malformed \(ContractError: {message}\)"):
            reader.from_jsonl(docs, split)

    @pytest.mark.parametrize("manifest", ['{"train": ["a"]', '["a"]', '{"train": "a"}'])
    def test_bad_split_manifest_names_file(self, tmp_path, manifest):
        docs, split = tmp_path / "docs.jsonl", tmp_path / "split.json"
        docs.write_text('{"id": "a", "text": "fine"}\n')
        split.write_text(manifest)
        with pytest.raises(ContractError, match=r"split\.json"):
            Corpus.from_jsonl(docs, split)

    def test_random_split(self):
        docs = [Document(str(i), "x") for i in range(10)]
        split = random_split(docs, 0.3, 5)
        order = np.random.default_rng(5).permutation(10)
        assert sorted(k for k, v in split.items() if v == "test") == sorted(
            str(i) for i in order[:3]
        )
        assert random_split(docs, 0.0, 5) == {str(i): "train" for i in range(10)}
        for fraction in (-0.1, 1.5, float("nan")):
            with pytest.raises(ContractError, match="test fraction"):
                random_split(docs, fraction, 5)

    def test_duplicate_ids_rejected(self):
        docs = (Document("a", "x"), Document("b", "y"), Document("c", "z"))
        with pytest.raises(ContractError, match="'b' repeats"):
            Corpus(docs + (Document("b", "w"), Document("a", "v")))

    def test_votes_by_split(self, tmp_path):
        texts = ["good", "bad film", "great", "", "worst, could", "love"]
        labels = [1, -1, None, 1, -1, 1]
        docs = tuple(Document(str(i), t, y) for i, (t, y) in enumerate(zip(texts, labels)))
        Corpus(docs, {}).to_jsonl(tmp_path / "docs.jsonl", tmp_path / "split.json")
        (tmp_path / "split.json").write_text(
            json.dumps({"test": ["0", "4"], "train": ["1", "3"], "dev": ["5", "2"]})
        )
        votes = CorpusVotes.from_jsonl(tmp_path / "docs.jsonl", tmp_path / "split.json")

        def expected(rows, labels=None):
            return SourceMatrix(apply_sources([texts[i] for i in rows]).values, labels)

        # a split's matrix is labeled when every one of its documents is
        for name, want in {"train": expected([1, 3], [-1, 1]), "test": expected([0, 4], [1, -1]),
                           "dev": expected([2, 5]), "other": expected([]),
                           None: expected(range(6))}.items():
            matrix = votes.matrix(name)
            np.testing.assert_array_equal(matrix.values, want.values)
            if want.labels is None:
                assert matrix.labels is None
            else:
                np.testing.assert_array_equal(matrix.labels, want.labels)
        train, test = votes.case_study_states()
        np.testing.assert_array_equal(train, expected([1, 3], [-1, 1]).state_index())
        np.testing.assert_array_equal(test, expected([0, 4], [1, -1]).state_index())

    def test_ingest_review_directory(self, tmp_path):
        for part in ("train", "test"):
            for sent in ("pos", "neg"):
                d = tmp_path / part / sent
                d.mkdir(parents=True)
                (d / "0.txt").write_text(f"{part} {sent} review")
        corpus = ingest_review_directory(tmp_path)
        assert len(corpus.documents) == 4
        assert sorted(corpus.split.values()) == ["test", "test", "train", "train"]
        labels = {d.doc_id: d.label for d in corpus.documents}
        assert labels["train/pos/0"] == 1 and labels["test/neg/0"] == -1

    def test_ingest_review_directory_missing(self, tmp_path):
        with pytest.raises(ContractError):
            ingest_review_directory(tmp_path / "nowhere")

    def test_ingest_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,label\ngood film,1\nbad film,0\nfine film,1\nmeh,0\n")
        corpus = ingest_csv(path, test_fraction=0.25, seed=1)
        assert len(corpus.documents) == 4
        assert list(corpus.split.values()).count("test") == 1
        assert {d.label for d in corpus.documents} == {-1, 1}

    @pytest.mark.parametrize("neg", ["0", "-1"])
    def test_ingest_csv_label_encodings(self, tmp_path, neg):
        path = tmp_path / "data.csv"
        path.write_text(f"text,label\ngood film,1\nbad film,{neg}\nmeh, 1 \n")
        labels = [d.label for d in ingest_csv(path).documents]
        assert labels == [1, -1, 1]

    @pytest.mark.parametrize("label", ["pos", "5", "2", "", "1.0"])
    def test_ingest_csv_rejects_other_labels(self, tmp_path, label):
        path = tmp_path / "data.csv"
        path.write_text(f"text,label\ngood film,1\nbad film,{label}\n")
        with pytest.raises(ContractError, match=r"data\.csv, row 2: label must be -1, 0 or 1"):
            ingest_csv(path)


def implied_source_conditionals(present_pos, present_neg, roster=None):
    """Pr(vote = +1 | Y = +-1) induced by per-class word-presence probabilities."""
    roster = roster if roster is not None else default_roster()
    sent = np.array([src.sentiment for src in roster])
    cond_pos = np.where(sent > 0, present_pos, 1.0 - present_pos)
    cond_neg = np.where(sent > 0, present_neg, 1.0 - present_neg)
    return cond_pos, cond_neg


class TestSyntheticOracle:
    def test_implied_conditionals_match_empirical(self):
        roster = default_roster()
        m = len(roster)
        rng = np.random.default_rng(5)
        p_pos = rng.uniform(0.2, 0.8, m)
        p_neg = rng.uniform(0.2, 0.8, m)
        corpus = synthetic_keyword_corpus(40_000, p_pos, p_neg, seed=2)
        matrix = labeled_matrix(corpus)
        cond_pos, cond_neg = implied_source_conditionals(p_pos, p_neg)
        votes = matrix.values > 0
        pos_rows = matrix.labels > 0
        emp_pos = votes[pos_rows].mean(axis=0)
        emp_neg = votes[~pos_rows].mean(axis=0)
        assert np.abs(emp_pos - cond_pos).max() < 0.02
        assert np.abs(emp_neg - cond_neg).max() < 0.02

    def test_pipeline_recovers_generating_conditionals(self):
        roster = default_roster()
        m = len(roster)
        rng = np.random.default_rng(7)
        sent = np.array([s.sentiment for s in roster])
        p_pos = np.where(sent > 0, rng.uniform(0.5, 0.75, m), rng.uniform(0.1, 0.35, m))
        p_neg = np.where(sent > 0, rng.uniform(0.1, 0.35, m), rng.uniform(0.5, 0.75, m))
        corpus = synthetic_keyword_corpus(20_000, p_pos, p_neg, seed=3)
        matrix = labeled_matrix(corpus)
        est = estimate_quadratic_triplet_from_moments(
            SampleMoments.from_source_matrix(matrix), 0.5, "median"
        )
        cond_pos, cond_neg = implied_source_conditionals(p_pos, p_neg)
        assert np.abs(est.cond_pos - cond_pos).max() < 0.05
        assert np.abs(est.cond_neg - cond_neg).max() < 0.05


class TestLabeledClassConditional:
    def test_counts(self):
        values = np.array([[1, -1], [1, 1], [-1, 1], [1, -1]], dtype=np.int8)
        labels = np.array([1, 1, -1, -1], dtype=np.int8)
        counts = state_counts(SourceMatrix(values, labels))
        (est,) = estimate_labeled_class_conditional(counts[None], 2, 0.5)
        np.testing.assert_allclose(est.cond_pos, [1.0, 0.5])
        np.testing.assert_allclose(est.cond_neg, [0.5, 0.5])

    def test_batch_equals_each_sample_alone(self):
        # the third sample has no Y = +1 row, the fourth no row at all
        counts = np.random.default_rng(8).integers(0, 3, (4, 1 << 13))
        counts[2, 1 << 12 :] = 0
        counts[3] = 0
        batch = estimate_labeled_class_conditional(counts, 12, 0.4)
        assert len(batch) == 4
        for b, est in enumerate(batch):
            (one,) = estimate_labeled_class_conditional(counts[b : b + 1], 12, 0.4)
            np.testing.assert_array_equal(est.mu, one.mu)
            assert (est.class_balance, est.metadata) == (0.4, {"method": "labeled-class-conditional"})
        assert (batch[2].cond_pos == 0.5).all() and (batch[3].mu == 0.5).all()

    @pytest.mark.parametrize("n, p", [(1, 0.5), (40, 0.5), (400, 0.9), (40_000, 0.5)])
    def test_counts_equal_row_frequencies(self, n, p):
        # the row path: per-class vote frequencies over the rows themselves
        rng = np.random.default_rng(n)
        labels = np.where(rng.random(n) < p, 1, -1)
        data = SourceMatrix(rng.choice([-1, 1], size=(n, 12)), labels)
        votes, pos_rows = data.values > 0, labels > 0
        expected = [
            votes[rows].mean(axis=0) if rows.any() else np.full(12, 0.5)
            for rows in (pos_rows, ~pos_rows)
        ]
        counts = np.bincount(data.state_index(), minlength=1 << 13)
        (est,) = estimate_labeled_class_conditional(counts[None], 12, 0.5)
        np.testing.assert_array_equal(est.cond_pos, expected[0])
        np.testing.assert_array_equal(est.cond_neg, expected[1])


def _table_scores(est, test_states, m):
    """Loss and F1 at threshold 0.5, gathered per row from the posterior table of all 2^m configurations."""
    lp_pos, lp_neg = LabelModel.from_class_conditional(est).log_posterior_table()
    table = np.maximum(np.concatenate((lp_neg, lp_pos)), np.log(LOSS_FLOOR))
    pred = np.exp(lp_pos)[test_states & ((1 << m) - 1)] >= 0.5
    actual = (test_states >> m) > 0
    tp, fp, fn = int(np.sum(pred & actual)), int(np.sum(pred & ~actual)), int(np.sum(~pred & actual))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    return float(-table[test_states].mean()), f1


def _per_trial_case_study(train_states, test_states, config):
    """The case study fitted and scored trial by trial: one moment call and one
    labeled product per trial, every score through the whole posterior table."""
    m = len(default_roster())
    p = config.class_balance
    rows = []

    def subsample(rng, n):
        drawn = train_states if n >= train_states.size else rng.choice(train_states, n, replace=False)
        return np.bincount(drawn, minlength=1 << (m + 1))

    def per_trial(n, trial):
        return [trial()] * config.trials if n >= train_states.size else [trial() for _ in range(config.trials)]

    def quadratic(counts, aggregation):
        return estimate_quadratic_triplet_from_moments(SampleMoments.from_state_counts(counts, m), p, aggregation)

    fitters = {
        "labeled": lambda counts: estimate_labeled_class_conditional(counts[None], m, p)[0],
        "unlabeled-mean": lambda counts: quadratic(counts, "mean"),
        "corrected-median": lambda counts: quadratic(counts, "median"),
    }
    for name, fitter in fitters.items():
        for n in config.n_grid:
            rng = trial_rng(config.seed, f"case:{name}", n)
            scores = per_trial(n, lambda: _table_scores(fitter(subsample(rng, n)), test_states, m))
            rows.append(ws._metric_row(
                name, int(min(n, train_states.size)), "", [s[0] for s in scores], [s[1] for s in scores],
            ))
    rng = trial_rng(config.seed, "case:corrected-median", config.n_unlabeled)
    unlabeled = per_trial(config.n_unlabeled, lambda: quadratic(subsample(rng, config.n_unlabeled), "median"))
    for n_l in config.n_labeled_grid:
        stats = {"combined": ([], []), "labeled-small": ([], [])}
        alphas, fallbacks = [], 0
        rng = trial_rng(config.seed, "case:labeled", n_l)
        for corrected in unlabeled:
            lab_counts = subsample(rng, n_l)
            (lab,) = estimate_labeled_class_conditional(lab_counts[None], m, p)
            moments = SampleMoments.from_state_counts(lab_counts, m)
            diff = lab.implied_accuracies() - corrected.implied_accuracies()
            try:
                sigma = raising_shrinkage_covariance(moments.n, moments.pair, moments.acc)
                alpha = green_strawderman_alpha(diff, sigma, float(m - 2))
            except (NumericalError, ContractError):
                alpha, fallbacks = 1.0, fallbacks + 1
            alphas.append(alpha)
            combined = ClassConditionalEstimate(alpha * corrected.mu + (1.0 - alpha) * lab.mu, p)
            for key, est in (("combined", combined), ("labeled-small", lab)):
                loss, f1 = _table_scores(est, test_states, m)
                stats[key][0].append(loss)
                stats[key][1].append(f1)
        rows.append(ws._metric_row("labeled-small", "", int(n_l), *stats["labeled-small"]))
        rows.append(ws._metric_row(
            "combined", int(config.n_unlabeled), int(n_l), *stats["combined"],
            float(np.mean(alphas)), fallbacks,
        ))
    return rows


class TestCaseStudy:
    @pytest.fixture(scope="class")
    def small_corpus(self):
        roster = default_roster()
        m = len(roster)
        rng = np.random.default_rng(17)
        sent = np.array([s.sentiment for s in roster])
        p_pos = np.where(sent > 0, rng.uniform(0.5, 0.7, m), rng.uniform(0.15, 0.3, m))
        p_neg = np.where(sent > 0, rng.uniform(0.15, 0.3, m), rng.uniform(0.5, 0.7, m))
        train = synthetic_keyword_corpus(6000, p_pos, p_neg, seed=21)
        test = synthetic_keyword_corpus(2500, p_pos, p_neg, seed=22)
        docs = list(train.documents) + [
            Document("t" + d.doc_id, d.text, d.label) for d in test.documents
        ]
        split = {d.doc_id: "train" for d in train.documents}
        split.update({"t" + d.doc_id: "test" for d in test.documents})
        return Corpus(tuple(docs), split)

    @pytest.fixture(scope="class")
    def small_states(self, small_corpus, tmp_path_factory):
        """The splits' joint states, through the corpus files ``ws run`` reads."""
        path = tmp_path_factory.mktemp("case")
        small_corpus.to_jsonl(path / "docs.jsonl", path / "split.json")
        return CorpusVotes.from_jsonl(path / "docs.jsonl", path / "split.json").case_study_states()

    def test_metrics_table(self, small_states, tmp_path):
        cfg = CaseStudyConfig(
            n_grid=(1500, 6000), n_unlabeled=6000,
            n_labeled_grid=(40, 200), trials=3, seed=0,
        )
        rows = run_case_study(*small_states, cfg)
        models = {r["model"] for r in rows}
        assert models == {
            "labeled", "unlabeled-mean", "corrected-median",
            "labeled-small", "combined",
        }
        for r in rows:
            assert 0.0 <= r["f1"] <= 1.0
            assert r["loss"] > 0.0
        write_metrics_csv(rows, tmp_path / "metrics.csv")
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("model,n,")
        assert len(lines) == len(rows) + 1

    def test_combined_rows_count_shrinkage_fallbacks(self, small_states):
        # one labeled row has no covariance, so every combined trial at n_L=1
        # falls back to alpha 1; at n_L=200 the rule itself picks alpha 1, so
        # only the count tells the rows apart
        cfg = CaseStudyConfig(
            n_grid=(6000,), n_unlabeled=6000, n_labeled_grid=(1, 200), trials=3, seed=2,
        )
        combined = [r for r in run_case_study(*small_states, cfg) if r["model"] == "combined"]
        assert [(r["n_labeled"], r["gs_fallbacks"], r["alpha"]) for r in combined] == [
            (1, 3, 1.0), (200, 0, 1.0),
        ]

    def test_cells_share_streams_and_the_whole_split_draws_nothing(self, small_states):
        # labeled-small at 40 draws as the labeled cell at 40 does; at the
        # split's size every trial is the whole split
        cfg = CaseStudyConfig(
            n_grid=(40, 6000), n_unlabeled=6000, n_labeled_grid=(40,), trials=3, seed=4,
        )
        rows = {(r["model"], r["n"], r["n_labeled"]): r for r in run_case_study(*small_states, cfg)}
        small, labeled = rows["labeled-small", "", 40], rows["labeled", 40, ""]
        assert (small["loss"], small["f1"]) == (labeled["loss"], labeled["f1"])
        assert rows["corrected-median", 6000, ""]["loss_sd"] == 0.0

    def test_trials_that_agree_report_their_score_and_no_spread(self, small_states):
        # five trials of a cell covering the split are one fit: its row holds
        # that fit's score, not the rounding of a mean of five, and sd 0
        train, test = small_states
        m = len(default_roster())
        cfg = CaseStudyConfig(n_grid=(9000,), n_unlabeled=9000, n_labeled_grid=(40,), trials=5, seed=6)
        whole = np.bincount(train, minlength=2 << m)
        (labeled,) = estimate_labeled_class_conditional(whole[None], m, 0.5)
        fits = {"labeled": labeled}
        for name, aggregation in (("unlabeled-mean", "mean"), ("corrected-median", "median")):
            fits[name] = estimate_quadratic_triplet_from_moments(
                SampleMoments.from_state_counts(whole, m), 0.5, aggregation
            )
        for row in run_case_study(train, test, cfg)[:3]:
            loss, f1 = _table_scores(fits[row["model"]], test, m)
            assert (row["loss"], row["loss_sd"], row["f1"], row["f1_sd"]) == (loss, 0.0, f1, 0.0)
        f1 = 0.9567307692307693  # the mean of five copies rounds to ...694
        row = ws._metric_row("labeled", 1, "", [0.25] * 5, [f1] * 5)
        assert (row["loss"], row["loss_sd"], row["f1"], row["f1_sd"]) == (0.25, 0.0, f1, 0.0)

    def test_cells_covering_the_split_are_fitted_and_scored_once(self, small_states, monkeypatch):
        calls = {"fits": 0, "scores": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        cfg = CaseStudyConfig(
            n_grid=(1500, 9000), n_unlabeled=6000, n_labeled_grid=(40,), trials=3, seed=4,
        )
        expected = run_case_study(*small_states, cfg)
        monkeypatch.setattr(ws, "estimate_quadratic_triplet_from_moments",
                            counted(estimate_quadratic_triplet_from_moments, "fits"))
        monkeypatch.setattr(ws, "cross_entropy", counted(ws.cross_entropy, "scores"))
        assert run_case_study(*small_states, cfg) == expected
        # mean and median: 3 trials at 1500 and one fit at 9000 each, then the
        # shared corrected fit at 6000 once; three models scored 3 + 1 times,
        # and labeled-small and combined 3 times each
        assert calls == {"fits": 2 * (3 + 1) + 1, "scores": 3 * (3 + 1) + 2 * 3}

    def test_missing_split_raises_with_remedy(self, small_corpus, tmp_path):
        Corpus(small_corpus.documents, {}).to_jsonl(tmp_path / "docs.jsonl", tmp_path / "split.json")
        votes = CorpusVotes.from_jsonl(tmp_path / "docs.jsonl", tmp_path / "split.json")
        with pytest.raises(ContractError, match="ingest"):
            votes.case_study_states()

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_split_states_raise(self, small_states, empty):
        train, test = small_states
        states = {"train": train, "test": test, empty: train[:0]}
        with pytest.raises(ContractError, match="nonempty train and test split"):
            run_case_study(states["train"], states["test"], CaseStudyConfig(trials=1))

    @pytest.mark.parametrize("cfg", [
        # drawn cells at 40 and 1500 and a fit-once cell at the split's 6000; at
        # n_L = 1 and 2 a subset lacks a class (conditionals of 0.5), and at
        # n_L = 1 every shrinkage weight falls back to 1
        CaseStudyConfig(n_grid=(40, 1500, 6000), n_unlabeled=1500, n_labeled_grid=(1, 2, 40),
                        trials=3, seed=5),
        # the shared corrected fit and the labeled-small budget cover the split
        CaseStudyConfig(n_grid=(200, 9000), n_unlabeled=9000, n_labeled_grid=(1, 6000),
                        trials=2, seed=3, class_balance=0.4),
        CaseStudyConfig(n_grid=(300, 700), n_unlabeled=700, n_labeled_grid=(1, 3), trials=1, seed=8),
    ], ids=["drawn-and-fit-once", "covering", "one-trial"])
    def test_cell_batches_equal_the_per_trial_loop(self, small_states, cfg):
        rows = run_case_study(*small_states, cfg)
        assert rows == _per_trial_case_study(*small_states, cfg)
        combined = {r["n_labeled"]: r for r in rows if r["model"] == "combined"}
        assert combined[1]["gs_fallbacks"] == cfg.trials

    def test_budgets_that_mix_zero_covariances_equal_the_per_trial_loop(self, small_states):
        # a third of the training rows repeat one state, so a labeled subset of
        # two rows is now and then that state twice (a zero covariance, weight 1)
        train, test = small_states
        mixed = train.copy()
        mixed[::3] = train[0]
        cfg = CaseStudyConfig(n_grid=(300,), n_unlabeled=3000, n_labeled_grid=(2, 40), trials=10, seed=34)
        rows = run_case_study(mixed, test, cfg)
        assert rows == _per_trial_case_study(mixed, test, cfg)
        fallbacks = [r["gs_fallbacks"] for r in rows if r["model"] == "combined"]
        assert 0 < fallbacks[0] < cfg.trials and fallbacks[1] == 0

    def test_one_labeled_row_falls_back_on_every_trial_without_warning(self, small_states):
        cfg = CaseStudyConfig(n_grid=(300,), n_unlabeled=3000, n_labeled_grid=(1,), trials=4, seed=12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_case_study(*small_states, cfg)
        (combined,) = [r for r in rows if r["model"] == "combined"]
        assert (combined["gs_fallbacks"], combined["alpha"]) == (cfg.trials, 1.0)

    @pytest.mark.parametrize("balance", [1.5, 1.0, 0.0, -0.2, float("nan")])
    def test_config_refuses_a_class_balance_outside_the_unit_interval(self, balance):
        with pytest.raises(ContractError, match=r"class balance must lie in \(0, 1\), got"):
            CaseStudyConfig(class_balance=balance)
