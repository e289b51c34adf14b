import math

import numpy as np
import pytest

from oracles import (
    cosine,
    dense_l2_normalize,
    dense_tf,
    dense_tfidf,
    extract_ngrams,
    from_dense,
    reference_build_vocabulary,
    reference_featurize,
    reference_vectorize_tf,
    to_dense,
)
from rweets.corpus import CATEGORICAL, synth_corpus
from rweets.errors import FormatError, StaleCacheError, ValidationError
from rweets.features import (
    NGRAM_RANGES,
    FeatureConfig,
    Vocabulary,
    build_vocabulary,
    combo,
    count_ngrams,
    enumerate_combos,
    featurize_tokens,
    idf_vector,
    l2_normalize_rows,
    load_matrix,
    save_matrix,
    vectorize_tf,
    vectorize_tfidf,
)
from rweets.models import stratified_kfold
from rweets.preprocess import run_pipeline
from rweets.rules import rule_block_for_ids


def random_corpus(rng, max_docs=10):
    alphabet = ["food", "water", "need", "help", "camp", "cold", "dry", "van"]
    n_docs = int(rng.integers(1, max_docs + 1))
    docs = [
        [alphabet[int(k)] for k in rng.integers(0, len(alphabet), size=rng.integers(0, 9))]
        for _ in range(n_docs)
    ]
    if not any(len(d) >= 3 for d in docs):
        docs[0] = ["need", "water", "now", "please"]
    return docs


class TestNgrams:
    def test_bigram_windows(self):
        assert extract_ngrams(["a", "b", "c"], 2) == ["a b", "b c"]

    def test_too_short(self):
        assert extract_ngrams(["a"], 2) == []

    def test_unigrams(self):
        assert extract_ngrams(["he", "love", "me"], 1) == ["he", "love", "me"]


class TestVocabulary:
    def test_hand_enumeration(self):
        docs = [["he", "love", "me"], ["he", "like", "me"]]
        vocab = build_vocabulary(docs, (1, 1))
        assert set(vocab.terms) == {"he", "love", "me", "like"}
        assert len(vocab) == 4

    def test_min_df_filter(self):
        docs = [["he", "love", "me"], ["he", "like", "me"]]
        vocab = build_vocabulary(docs, (1, 1), min_df=2)
        assert set(vocab.terms) == {"he", "me"}

    def test_range_1_2(self):
        vocab = build_vocabulary([["a", "b"]], (1, 2))
        assert set(vocab.terms) == {"a", "b", "a b"}

    def test_first_appearance_order(self):
        docs = [["b", "a"], ["a", "c"]]
        vocab = build_vocabulary(docs, (1, 1))
        assert vocab.terms == ("b", "a", "c")

    def test_empty_vocabulary_is_error(self):
        with pytest.raises(ValidationError):
            build_vocabulary([["a"]], (1, 1), min_df=5)

    def test_no_gaps_in_indices(self):
        vocab = build_vocabulary([["x", "y", "z", "x"]], (1, 2), min_df=1)
        assert sorted(vocab.index.values()) == list(range(len(vocab)))

    def test_term_lengths_within_range(self):
        vocab = build_vocabulary([["a", "b", "c", "d"]], (2, 3))
        for term in vocab.terms:
            assert 2 <= len(term.split(" ")) <= 3


class TestVectorize:
    def test_tf_hand_count(self):
        docs = [["he", "love", "me"]]
        vocab = Vocabulary(terms=("he", "like", "love", "me"), ngram_range=(1, 1))
        np.testing.assert_array_equal(
            to_dense(vectorize_tf(docs, vocab)), [[1.0, 0.0, 1.0, 1.0]]
        )

    def test_unknown_terms_ignored(self):
        vocab = Vocabulary(terms=("food",), ngram_range=(1, 1))
        m = vectorize_tf([["storm", "wind"]], vocab)
        assert m.nnz == 0

    def test_repeated_term(self):
        vocab = Vocabulary(terms=("food",), ngram_range=(1, 1))
        np.testing.assert_array_equal(
            to_dense(vectorize_tf([["food", "food"]], vocab)), [[2.0]]
        )

    def test_tfidf_term_in_all_docs_equals_tf(self):
        docs = [["a", "b"], ["a", "c"]]
        vocab = build_vocabulary(docs, (1, 1))
        tfidf = to_dense(vectorize_tfidf(docs, vocab))
        col_a = vocab.index["a"]
        tf = to_dense(vectorize_tf(docs, vocab))
        np.testing.assert_allclose(tfidf[:, col_a], tf[:, col_a])

    def test_tfidf_two_doc_example(self):
        docs = [["a", "b"], ["a", "c"]]
        vocab = build_vocabulary(docs, (1, 1))
        idf = idf_vector(vocab)
        assert idf[vocab.index["a"]] == pytest.approx(1.0)
        expected = math.log(3 / 2) + 1.0
        assert idf[vocab.index["b"]] == pytest.approx(expected)
        assert idf[vocab.index["c"]] == pytest.approx(expected)

    def test_tfidf_column_scaling_recovers_tf(self):
        rng = np.random.default_rng(2)
        docs = random_corpus(rng)
        vocab = build_vocabulary(docs, (1, 2))
        tf = to_dense(vectorize_tf(docs, vocab))
        tfidf = to_dense(vectorize_tfidf(docs, vocab))
        np.testing.assert_allclose(tfidf / idf_vector(vocab), tf, atol=1e-12)

    def test_sparse_equals_dense_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            docs = random_corpus(rng)
            lo, hi = NGRAM_RANGES[int(rng.integers(0, len(NGRAM_RANGES)))]
            try:
                vocab = build_vocabulary(docs, (lo, hi))
            except ValidationError:
                continue  # all docs shorter than lo
            sparse_tf = to_dense(vectorize_tf(docs, vocab))
            np.testing.assert_allclose(
                sparse_tf, dense_tf(docs, vocab.terms, lo, hi), atol=1e-12
            )
            sparse_tfidf = to_dense(vectorize_tfidf(docs, vocab))
            np.testing.assert_allclose(
                sparse_tfidf, dense_tfidf(docs, vocab.terms, lo, hi), atol=1e-12
            )

    def test_sparsity_bound(self):
        rng = np.random.default_rng(7)
        docs = random_corpus(rng)
        lo, hi = 1, 3
        vocab = build_vocabulary(docs, (lo, hi))
        m = vectorize_tf(docs, vocab)
        for r, tokens in enumerate(docs):
            bound = sum(max(0, len(tokens) - n + 1) for n in range(lo, hi + 1))
            assert m.indptr[r + 1] - m.indptr[r] <= bound


class TestNormalize:
    def test_three_four_five(self):
        m = from_dense([[3.0, 4.0]])
        np.testing.assert_allclose(to_dense(l2_normalize_rows(m)), [[0.6, 0.8]])

    def test_single_value(self):
        m = from_dense([[5.0]])
        np.testing.assert_allclose(to_dense(l2_normalize_rows(m)), [[1.0]])

    def test_empty_row_unchanged(self):
        m = from_dense([[0.0, 0.0], [1.0, 1.0]])
        out = l2_normalize_rows(m)
        assert out.indptr[1] == out.indptr[0]

    def test_norms_are_one(self):
        rng = np.random.default_rng(3)
        docs = random_corpus(rng)
        vocab = build_vocabulary(docs, (1, 2))
        normalized = l2_normalize_rows(vectorize_tfidf(docs, vocab))
        for norm in normalized.row_norms():
            assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        docs = random_corpus(rng)
        vocab = build_vocabulary(docs, (1, 1))
        ours = to_dense(l2_normalize_rows(vectorize_tf(docs, vocab)))
        oracle = dense_l2_normalize(dense_tf(docs, vocab.terms, 1, 1))
        np.testing.assert_allclose(ours, oracle, atol=1e-12)


class TestCosine:
    def test_lookalike_pair_uni_bi(self):
        docs = ["He loves me".split(), "He likes me".split()]
        vocab = build_vocabulary(docs, (1, 2))
        m = vectorize_tf(docs, vocab)
        assert cosine(*to_dense(m)) == pytest.approx(0.4, abs=1e-3)

    def test_lookalike_pair_uni_bi_tri(self):
        docs = ["He loves me".split(), "He likes me".split()]
        vocab = build_vocabulary(docs, (1, 3))
        m = vectorize_tf(docs, vocab)
        assert cosine(*to_dense(m)) == pytest.approx(1 / 3, abs=1e-3)

    def test_identical_vectors(self):
        assert cosine([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_zero_norm_gives_zero(self):
        assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0

    def test_wider_ranges_drop_similarity(self):
        docs = ["He loves me".split(), "He likes me".split()]
        sims = []
        for rng_ in ((1, 1), (1, 2), (1, 3)):
            vocab = build_vocabulary(docs, rng_)
            m = vectorize_tf(docs, vocab)
            sims.append(cosine(*to_dense(m)))
        assert sims[0] > sims[1] > sims[2]


class TestCombos:
    def test_twenty_four(self):
        assert len(enumerate_combos()) == 24

    def test_entry_10(self):
        cfg = combo(10)
        assert (cfg.vectorizer, cfg.ngram_range, cfg.append_rules) == ("tf", (1, 2), True)

    def test_entry_13(self):
        cfg = combo(13)
        assert (cfg.vectorizer, cfg.ngram_range, cfg.append_rules) == ("tf-idf", (1, 1), False)

    def test_cross_product_structure(self):
        combos = enumerate_combos()
        assert len({c.digest for c in combos}) == 24
        assert [c.vectorizer for c in combos[:12]] == ["tf"] * 12
        assert [c.vectorizer for c in combos[12:]] == ["tf-idf"] * 12
        for i in range(6):
            assert combos[i].ngram_range == combos[i + 6].ngram_range
            assert not combos[i].append_rules and combos[i + 6].append_rules

    def test_bounds(self):
        with pytest.raises(ValidationError):
            combo(0)
        with pytest.raises(ValidationError):
            combo(25)


class TestRuleAppend:
    WITH_RULES = FeatureConfig(append_rules=True)

    def test_dimension_arithmetic(self):
        docs, ids = [["need", "food"]] * 5, [f"t{i}" for i in range(5)]
        fm = featurize_tokens(docs, ids, FeatureConfig())
        rules = np.zeros((5, 18))
        rules[0, 3] = 1.0
        wide = featurize_tokens(docs, ids, self.WITH_RULES, rule_block=rules)
        assert wide.matrix.cols == fm.matrix.cols + 18
        assert wide.config.append_rules

    def test_all_zero_rule_block(self):
        docs = [["need", "food"], ["dry", "camp"]]
        fm = featurize_tokens(docs, ["a", "b"], FeatureConfig())
        wide = featurize_tokens(docs, ["a", "b"], self.WITH_RULES, rule_block=np.zeros((2, 18)))
        np.testing.assert_array_equal(
            to_dense(wide.matrix)[:, : fm.matrix.cols], to_dense(fm.matrix)
        )
        assert wide.matrix.nnz == fm.matrix.nnz

    def test_row_mismatch_is_error(self):
        docs, ids = [["a", "b"]] * 5, [f"t{i}" for i in range(5)]
        for block in (np.zeros((4, 18)), np.zeros((5, 17)), np.zeros(18), None):
            with pytest.raises(ValidationError, match="rule block"):
                featurize_tokens(docs, ids, self.WITH_RULES, rule_block=block)

    def test_rule_block_appended_after_normalization(self):
        docs = [["need", "food", "need"]]
        cfg = FeatureConfig(vectorizer="tf", ngram_range=(1, 1), append_rules=True)
        rules = np.ones((1, 18))
        fm = featurize_tokens(docs, ["t0"], cfg, rule_block=rules)
        dense = to_dense(fm.matrix)
        ngram_part = dense[0, :2]
        assert np.linalg.norm(ngram_part) == pytest.approx(1.0)
        np.testing.assert_array_equal(dense[0, 2:], np.ones(18))


def assert_same_vocab(ours, ref):
    assert ours.terms == ref.terms
    assert ours.ngram_range == ref.ngram_range
    assert ours.doc_freqs == ref.doc_freqs and ours.n_docs == ref.n_docs
    assert ours.digest == ref.digest


def assert_same_matrix(ours, ref):
    assert (ours.rows, ours.cols) == (ref.rows, ref.cols)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(ours, name), getattr(ref, name)), name


class TestCountedOnce:
    """One count per corpus, then fold vocabularies and matrices by row
    selection, must equal the string path rebuilt on every fold."""

    @pytest.fixture(scope="class")
    def cv_corpus(self):
        dataset = synth_corpus(5, 150, CATEGORICAL)
        clean, _ = run_pipeline(dataset)
        return clean, dataset.texts_by_id()

    def test_every_combo_and_fold_matches_string_path(self, cv_corpus):
        clean, texts = cv_corpus
        docs, ids = clean.token_lists(), clean.ids()
        plan = stratified_kfold(clean.labels(), 5, seed=3)
        all_rules = rule_block_for_ids(ids, texts)
        for config in enumerate_combos():
            counts = count_ngrams(docs, config.ngram_range)
            rules = all_rules if config.append_rules else None
            for counts_only in (False, True):
                for fold in range(plan.k):
                    train, test = plan.train_indices(fold), plan.fold_indices(fold)
                    block = {k: None if rules is None else rules[rows]
                             for k, rows in (("train", train), ("test", test))}
                    fm = featurize_tokens(counts.take(train), [ids[i] for i in train], config,
                                          rule_block=block["train"], counts_only=counts_only)
                    vocab, ref = reference_featurize([docs[i] for i in train], config,
                                                     rule_block=block["train"],
                                                     counts_only=counts_only)
                    assert_same_vocab(fm.vocab, vocab)
                    assert_same_matrix(fm.matrix, ref)
                    test_fm = featurize_tokens(counts.take(test), [ids[i] for i in test], config,
                                               vocab=fm.vocab, rule_block=block["test"],
                                               counts_only=counts_only)
                    _, test_ref = reference_featurize([docs[i] for i in test], config, vocab,
                                                      rule_block=block["test"],
                                                      counts_only=counts_only)
                    assert_same_matrix(test_fm.matrix, test_ref)

    @pytest.mark.parametrize("ngram_range", NGRAM_RANGES)
    @pytest.mark.parametrize("min_df,max_df", [(1, 1.0), (2, 1.0), (1, 0.5), (2, 0.7)])
    def test_random_subsets_match_string_path(self, ngram_range, min_df, max_df):
        rng = np.random.default_rng(11)
        for _ in range(25):
            docs = random_corpus(rng, max_docs=12)  # includes docs shorter than n
            counts = count_ngrams(docs, ngram_range)
            n_rows = int(rng.integers(1, len(docs) + 1))
            rows = [int(i) for i in rng.permutation(len(docs))[:n_rows]]
            rows_docs = [docs[i] for i in rows]
            try:
                ref = reference_build_vocabulary(rows_docs, ngram_range, min_df, max_df)
            except ValidationError:
                with pytest.raises(ValidationError, match="vocabulary is empty"):
                    build_vocabulary(counts.take(rows), ngram_range, min_df, max_df)
                continue
            vocab = build_vocabulary(counts.take(rows), ngram_range, min_df, max_df)
            assert_same_vocab(vocab, ref)
            # every doc, the held-out ones' terms included, against that vocabulary
            assert_same_matrix(vectorize_tf(counts, vocab), reference_vectorize_tf(docs, vocab))

    def test_test_only_terms_are_ignored(self):
        docs = [["need", "food"], ["need", "water"], ["storm", "surge", "now"]]
        counts = count_ngrams(docs, (1, 2))
        vocab = build_vocabulary(counts.take([0, 1]), (1, 2))
        assert vocab.terms == ("need", "food", "need food", "water", "need water")
        assert vectorize_tf(counts.take([2]), vocab).nnz == 0

    def test_training_rows_set_the_order(self):
        # "water" comes first in the corpus, but "food" first among the rows
        docs = [["water"], ["food", "water"]]
        vocab = build_vocabulary(count_ngrams(docs, (1, 1)).take([1]), (1, 1))
        assert vocab.terms == ("food", "water")
        assert vocab.doc_freqs == (1, 1) and vocab.n_docs == 1

    def test_docs_shorter_than_n(self):
        counts = count_ngrams([["a"], [], ["a", "b", "c"]], (3, 3))
        assert counts.terms == ("a b c",) and counts.doc.tolist() == [2]
        with pytest.raises(ValidationError, match="vocabulary is empty"):
            build_vocabulary(counts.take([0, 1]), (3, 3))

    def test_counts_of_another_range_are_refused(self):
        counts = count_ngrams([["a", "b"]], (1, 2))
        with pytest.raises(ValidationError, match="range"):
            build_vocabulary(counts, (1, 1))
        with pytest.raises(ValidationError, match="range"):
            featurize_tokens(counts, ["t0"], FeatureConfig(ngram_range=(1, 1)))


class TestVectorizerEstimator:
    def test_transform_counts_ignores_flags(self):
        docs = [["food", "food", "water"], ["water"]]
        config = FeatureConfig(vectorizer="tf-idf", l2_normalize=True)
        fm = featurize_tokens(docs, ["a", "b"], config, counts_only=True)
        np.testing.assert_array_equal(to_dense(fm.matrix), [[2.0, 1.0], [0.0, 1.0]])
        vocab = build_vocabulary(docs, (1, 1))
        np.testing.assert_array_equal(to_dense(vectorize_tf(docs, vocab)), to_dense(fm.matrix))


class TestPersistence:
    def make_fm(self):
        docs = [["need", "food", "now"], ["dry", "camp"], ["need", "water"]]
        cfg = FeatureConfig(vectorizer="tf-idf", ngram_range=(1, 2))
        return featurize_tokens(docs, ["a", "b", "c"], cfg), cfg

    def test_round_trip(self, tmp_path):
        fm, cfg = self.make_fm()
        path = tmp_path / "m.spmat"
        save_matrix(fm, path)
        loaded = load_matrix(path, cfg)
        assert loaded.matrix == fm.matrix
        assert loaded.row_ids == fm.row_ids
        assert loaded.vocab.terms == fm.vocab.terms
        assert loaded.vocab.digest == fm.vocab.digest

    def test_stale_config(self, tmp_path):
        fm, _cfg = self.make_fm()
        path = tmp_path / "m.spmat"
        save_matrix(fm, path)
        other = FeatureConfig(vectorizer="tf", ngram_range=(1, 2))
        with pytest.raises(StaleCacheError):
            load_matrix(path, other)

    def test_tampered_header(self, tmp_path):
        fm, cfg = self.make_fm()
        path = tmp_path / "m.spmat"
        save_matrix(fm, path)
        data = path.read_bytes()
        assert b'"magic":"RWEETS-ARTIFACT"' in data
        path.write_bytes(data.replace(b"RWEETS-ARTIFACT", b"BOGUS-ARTIFACTS", 1))
        with pytest.raises(FormatError):
            load_matrix(path, cfg)

    def test_round_trip_with_rule_columns(self, tmp_path):
        docs = [["need", "food"], ["calm", "bay"]]
        cfg = FeatureConfig(ngram_range=(1, 1), append_rules=True)
        rules = np.zeros((2, 18))
        rules[0, 12] = 1.0
        fm = featurize_tokens(docs, ["a", "b"], cfg, rule_block=rules)
        path = tmp_path / "r.spmat"
        save_matrix(fm, path)
        loaded = load_matrix(path, cfg)
        assert loaded.matrix == fm.matrix
        assert len(loaded.vocab) == len(fm.vocab)
        assert loaded.matrix.cols == len(loaded.vocab) + 18
