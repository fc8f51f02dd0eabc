import json

import numpy as np
import pytest

from labelmoments import ContractError, SourceMatrix
from labelmoments.estimators import SampleMoments, estimate_quadratic_triplet_from_moments
from labelmoments.ws import (
    CaseStudyConfig,
    Corpus,
    Document,
    KeywordSource,
    apply_sources,
    default_roster,
    estimate_labeled_class_conditional,
    ingest_csv,
    ingest_review_directory,
    random_split,
    run_case_study,
    synthetic_keyword_corpus,
    tokenize,
    write_metrics_csv,
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


class TestTokenize:
    def test_splits_on_non_alphanumeric(self):
        assert tokenize("It's GOOD, really good; 10/10!") == frozenset(
            {"it", "s", "good", "really", "10"}
        )

    def test_empty(self):
        assert tokenize("...") == frozenset()


class TestApplySources:
    def test_votes_for_simple_document(self):
        matrix = apply_sources([Document("d", "a good movie")])
        votes = dict(zip([s.word for s in default_roster()], matrix.values[0]))
        assert votes["good"] == 1
        for w in ("love", "like", "great", "best", "excellent"):
            assert votes[w] == -1
        for w in ("terrible", "worst", "bad", "better", "could", "would"):
            assert votes[w] == 1

    def test_empty_document(self):
        matrix = apply_sources([Document("d", "")])
        sentiments = np.array([s.sentiment for s in default_roster()])
        np.testing.assert_array_equal(matrix.values[0], -sentiments)

    def test_label_column_when_fully_labeled(self):
        docs = [Document("a", "good", 1), Document("b", "bad", -1)]
        matrix = apply_sources(docs)
        np.testing.assert_array_equal(matrix.labels, [1, -1])
        assert apply_sources([Document("a", "good")]).labels is None

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        docs = [
            Document(f"d{i}", " ".join(rng.choice(["good", "bad", "movie", "the"], 4)))
            for i in range(20)
        ]
        base = apply_sources(docs).values
        perm = rng.permutation(20)
        shuffled = apply_sources([docs[i] for i in perm]).values
        np.testing.assert_array_equal(shuffled, base[perm])

    @pytest.mark.parametrize("roster", [
        default_roster(),
        (KeywordSource("good", 1), KeywordSource("Good", -1), KeywordSource("bad", -1)),
        (KeywordSource("don't", 1), KeywordSource("10", -1), KeywordSource("good", 1)),
    ])
    def test_matches_per_document_loop(self, roster):
        texts = [
            "GOOD movie, really good!!", "goodness gracious", "Not bad... 10/10",
            "", "could've been better; WOULD not watch", "don't", "love-like 2 GREAT",
            "goodgood bad_ending", "Excellent.", "worst\tterrible\nbest",
        ]
        docs = [Document(f"d{i}", t) for i, t in enumerate(texts)]
        expected = np.array(
            [[s.sentiment if s.word in tokenize(d.text) else -s.sentiment for s in roster]
             for d in docs],
            dtype=np.int8,
        )
        np.testing.assert_array_equal(apply_sources(docs, roster).values, expected)

    def test_empty_corpus(self):
        matrix = apply_sources([])
        assert matrix.values.shape == (0, len(default_roster()))
        assert matrix.labels is None

    def test_empty_roster_rejected(self):
        with pytest.raises(ContractError):
            apply_sources([Document("d", "x")], roster=())


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
        assert [d.doc_id for d in back.train] == ["a", "c"]
        assert [d.doc_id for d in back.test] == ["b"]

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
        with pytest.raises(ContractError):
            Corpus((Document("a", "x"), Document("a", "y")))

    def test_ingest_review_directory(self, tmp_path):
        for part in ("train", "test"):
            for sent in ("pos", "neg"):
                d = tmp_path / part / sent
                d.mkdir(parents=True)
                (d / "0.txt").write_text(f"{part} {sent} review")
        corpus = ingest_review_directory(tmp_path)
        assert len(corpus.documents) == 4
        assert len(corpus.train) == 2 and len(corpus.test) == 2
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
        assert len(corpus.test) == 1
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
        matrix = apply_sources(corpus.train)
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
        matrix = apply_sources(corpus.train)
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
        counts = SourceMatrix(values, labels).state_counts()
        est = estimate_labeled_class_conditional(counts, 2, 0.5)
        np.testing.assert_allclose(est.cond_pos, [1.0, 0.5])
        np.testing.assert_allclose(est.cond_neg, [0.5, 0.5])

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
        est = estimate_labeled_class_conditional(counts, 12, 0.5)
        np.testing.assert_array_equal(est.cond_pos, expected[0])
        np.testing.assert_array_equal(est.cond_neg, expected[1])


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

    def test_metrics_table(self, small_corpus, tmp_path):
        cfg = CaseStudyConfig(
            n_grid=(1500, 6000), n_unlabeled=6000,
            n_labeled_grid=(40, 200), trials=3, seed=0,
        )
        rows = run_case_study(small_corpus, cfg)
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

    def test_cells_share_streams_and_the_whole_split_draws_nothing(self, small_corpus):
        # labeled-small at 40 draws as the labeled cell at 40 does; at the
        # split's size every trial is the whole split
        cfg = CaseStudyConfig(
            n_grid=(40, 6000), n_unlabeled=6000, n_labeled_grid=(40,), trials=3, seed=4,
        )
        rows = {(r["model"], r["n"], r["n_labeled"]): r for r in run_case_study(small_corpus, cfg)}
        small, labeled = rows["labeled-small", "", 40], rows["labeled", 40, ""]
        assert (small["loss"], small["f1"]) == (labeled["loss"], labeled["f1"])
        assert rows["corrected-median", 6000, ""]["loss_sd"] == 0.0

    def test_missing_split_raises_with_remedy(self, small_corpus):
        bare = Corpus(small_corpus.documents, {})
        with pytest.raises(ContractError, match="ingest"):
            run_case_study(bare, CaseStudyConfig(trials=1))
