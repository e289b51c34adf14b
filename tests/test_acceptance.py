"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time. Tolerances are pinned in the assertions; run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import time
from dataclasses import asdict

import numpy as np
from scipy.special import softmax

from oracles import (
    cosine,
    dense_tf,
    dense_tfidf,
    from_dense,
    gradient_check,
    nb_posteriors,
    regex_search,
    to_dense,
)
from rweets.corpus import BINARY, CATEGORICAL, Dataset, RawTweet, synth_corpus
from rweets.features import (
    FeatureConfig,
    build_vocabulary,
    combo,
    enumerate_combos,
    vectorize_tf,
    vectorize_tfidf,
)
from rweets.metrics import accuracy, micro_metrics
from rweets.models import (
    LogisticRegression,
    MultinomialNaiveBayes,
    cross_validate,
    stratified_kfold,
)
from rweets.pipeline import FeatureCache, featurize_corpus, run_series, train_staged
from rweets.preprocess import run_pipeline
from rweets.rules import PATTERN_SOURCES, compile_patterns, match_tweet, rule_classify
from test_rules import NEGATIVE_FIXTURE, POSITIVE_FIXTURE


class _Budget:
    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"acceptance {self.number:02d} PASS {self.description} ({elapsed:.2f}s)")
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        else:
            print(f"acceptance {self.number:02d} FAIL {self.description}")
        return False


def test_01_cosine_worked_example():
    with _Budget(1, "cosine worked example (0.400 / 0.333)", 1.0):
        docs = ["He loves me".split(), "He likes me".split()]
        for ngram_range, expected in (((1, 2), 0.400), ((1, 3), 0.333)):
            vocab = build_vocabulary(docs, ngram_range)
            matrix = vectorize_tf(docs, vocab)
            sim = cosine(*to_dense(matrix))
            assert abs(sim - expected) <= 1e-3, (ngram_range, sim)


def test_02_dedup_worked_example_and_idempotence():
    with _Budget(2, "dedup worked example + pipeline idempotence", 5.0):
        pair = Dataset(
            BINARY,
            (
                RawTweet("a", "He is going to school @akram, www.example.com"),
                RawTweet("b", "He goes to School @ahmed, www.example123.com"),
            ),
        )
        cleaned, report = run_pipeline(pair)
        assert len(cleaned) == 1
        assert " ".join(cleaned.tokens[0]) == "he go school _MENT_ _URL_"
        assert report.removed_by_stage["dedupe"] == 1

        dataset = synth_corpus(202, 200, BINARY)
        first, _ = run_pipeline(dataset)
        rebuilt = Dataset(
            BINARY,
            tuple(map(RawTweet, first.ids, map(" ".join, first.tokens), first.labels)),
        )
        second, _ = run_pipeline(rebuilt)
        assert first.tokens == second.tokens


def test_03_rule_engine_fixture_and_oracle():
    with _Budget(3, "rule engine: compile, precision 1.0, oracle agreement", 1.0):
        assert len(compile_patterns()) == 18
        assert len(POSITIVE_FIXTURE) == 10 and len(NEGATIVE_FIXTURE) == 20

        for text, pattern_id in POSITIVE_FIXTURE:
            assert match_tweet(text)[pattern_id - 1], (text, pattern_id)
            assert rule_classify(text) == "rweet"
        false_positives = [t for t in NEGATIVE_FIXTURE if rule_classify(t) == "rweet"]
        assert not false_positives  # precision 1.0 on the fixture

        texts = [t for t, _ in POSITIVE_FIXTURE] + list(NEGATIVE_FIXTURE)
        for text in texts:
            engine = match_tweet(text)
            oracle = tuple(regex_search(src, text) for src in PATTERN_SOURCES)
            assert engine == oracle, text

        # 4,000 chars that every "I" / "we" chain starts on and none ends:
        # a backtracking engine takes about 39 s; the words "I" and "am"
        # alone match no pattern
        adversarial = "I am " * 800
        assert match_tweet(adversarial) == (False,) * 18
        assert rule_classify(adversarial) == "not_rweet"


def test_04_twenty_four_combos():
    with _Budget(4, "24 combos; rule pairs differ by exactly 18 columns", 30.0):
        combos = enumerate_combos()
        assert len(combos) == 24
        assert len({c.digest for c in combos}) == 24
        assert combo(10) == FeatureConfig("tf", (1, 2), append_rules=True)
        assert combo(13) == FeatureConfig("tf-idf", (1, 1), append_rules=False)

        dataset = synth_corpus(404, 50, BINARY)
        corpus, _ = run_pipeline(dataset)
        cols = {}
        for i, config in enumerate(combos, start=1):
            fm = featurize_corpus(corpus, config, dataset.texts_by_id())
            cols[i] = fm.matrix.cols
        for base in (1, 2, 3, 4, 5, 6, 13, 14, 15, 16, 17, 18):
            assert cols[base + 6] - cols[base] == 18, (base, cols[base], cols[base + 6])


def test_05_sparse_matches_dense_oracle():
    with _Budget(5, "sparse tf/tf-idf equals dense brute force on 100 corpora", 30.0):
        rng = np.random.default_rng(505)
        alphabet = ["food", "water", "need", "help", "camp", "cold", "dry", "van"]
        checked = 0
        while checked < 100:
            n_docs = int(rng.integers(1, 11))
            docs = [
                [alphabet[int(k)] for k in rng.integers(0, len(alphabet), rng.integers(0, 9))]
                for _ in range(n_docs)
            ]
            lo, hi = ((1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (1, 3))[int(rng.integers(0, 6))]
            if not any(len(d) >= lo for d in docs):
                continue
            vocab = build_vocabulary(docs, (lo, hi))
            ours_tf = to_dense(vectorize_tf(docs, vocab))
            ours_tfidf = to_dense(vectorize_tfidf(docs, vocab))
            oracle_tf = np.array(dense_tf(docs, vocab.terms, lo, hi))
            oracle_tfidf = np.array(dense_tfidf(docs, vocab.terms, lo, hi))
            assert np.max(np.abs(ours_tf - oracle_tf)) <= 1e-12
            assert np.max(np.abs(ours_tfidf - oracle_tfidf)) <= 1e-12
            checked += 1


def test_06_micro_equality_on_random_confusions():
    with _Budget(6, "micro P = R = F1 = accuracy on 1000 random matrices", 5.0):
        rng = np.random.default_rng(606)
        for _ in range(1000):
            size = int(rng.integers(2, 7))
            cm = rng.integers(0, 50, size=(size, size))
            if cm.sum() == 0:
                cm[0, 0] = 1
            p, r, f1 = micro_metrics(cm)
            a = accuracy(cm)
            assert abs(p - a) <= 1e-12
            assert abs(r - a) <= 1e-12
            assert abs(f1 - a) <= 1e-12


def test_07_gradient_check_and_loss_descent():
    with _Budget(7, "LR gradient check over 100 instances; loss non-increasing", 30.0):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = from_dense(rng.normal(size=(6, 4)))
            y = [("p", "q", "r")[i % 3] for i in range(6)]
            assert gradient_check(X, y, seed=seed) <= 1e-4

        rng = np.random.default_rng(7)
        points = np.vstack(
            [rng.normal((1.5, 1.5), 0.4, (6, 2)), rng.normal((-1.5, -1.5), 0.4, (6, 2))]
        )
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        X = from_dense(points / norms)
        y = ["a"] * 6 + ["b"] * 6
        clf = LogisticRegression(max_epochs=300).fit(X, y)
        assert np.all(np.diff(clf.loss_history_) <= 1e-12)


def test_08_nb_posteriors_match_brute_force():
    with _Budget(8, "NB posteriors match brute force within 1e-9", 5.0):
        rng = np.random.default_rng(808)
        fixtures = []
        for _ in range(40):
            n_docs = int(rng.integers(2, 6))
            n_terms = int(rng.integers(1, 11))
            rows = rng.integers(0, 4, size=(n_docs, n_terms)).astype(float)
            labels = [("u", "v")[i % 2] for i in range(n_docs)]
            alpha = float(rng.uniform(0.2, 2.0))
            query = rng.integers(0, 4, size=n_terms).astype(float)
            fixtures.append((rows, labels, alpha, query))
        for rows, labels, alpha, query in fixtures:
            nb = MultinomialNaiveBayes(alpha=alpha).fit(from_dense(rows), labels)
            ours = softmax(nb.predict_log_joint(from_dense(query[None, :])), axis=1)[0]
            oracle = nb_posteriors(rows.tolist(), labels, alpha, query.tolist())
            for i, label in enumerate(nb.classes_):
                assert abs(ours[i] - oracle[label]) <= 1e-9


def test_09_stratification_property():
    with _Budget(9, "stratified folds balanced over 200 random plans", 5.0):
        rng = np.random.default_rng(909)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            y = []
            for c in range(int(rng.integers(2, 5))):
                y += [f"c{c}"] * int(rng.integers(k, 3 * k + 1))
            seed = int(rng.integers(0, 100_000))
            plan = stratified_kfold(y, k, seed)
            replay = stratified_kfold(y, k, seed)
            assert json.dumps(asdict(plan)) == json.dumps(asdict(replay))
            for fold in range(k):
                members = plan.fold_indices(fold)
                for label in set(y):
                    n_c = y.count(label)
                    got = sum(1 for i in members if y[i] == label)
                    assert abs(got - n_c / k) <= 1


def test_10_end_to_end_staged_pipeline(tmp_path):
    with _Budget(10, "end-to-end staged run: CV >= 0.90, conservation, warm cache", 120.0):
        d1 = synth_corpus(1001, 600, BINARY)
        d2 = synth_corpus(1002, 600, CATEGORICAL)
        config = combo(10)

        clean1, _ = run_pipeline(d1)
        cv1 = cross_validate(
            lambda: LogisticRegression(), clean1, BINARY, config,
            k=5, seed=1, raw_texts=d1.texts_by_id(),
        )
        assert cv1.pooled.accuracy >= 0.90

        clean2, _ = run_pipeline(d2)
        cv2 = cross_validate(
            lambda: LogisticRegression(), clean2, CATEGORICAL, config,
            k=5, seed=1, raw_texts=d2.texts_by_id(),
        )
        assert cv2.pooled.accuracy >= 0.90

        staged, _reports = train_staged(d1, d2, config)
        probe = synth_corpus(1003, 200, BINARY)
        cold = FeatureCache(tmp_path / "cache")
        first = run_series(probe.texts_by_id(), staged, cold)
        assert cold.built == 2

        cleaned_probe, _ = run_pipeline(probe, staged.pipeline_config)
        ids, stage1, stage2 = first
        assert len(ids) == len(stage1) == len(stage2) == len(cleaned_probe)  # stage-1 coverage
        assert [label == "rweet" for label in stage1] == [c is not None for c in stage2]
        probe_ids = {t.id for t in probe}
        assert all(i in probe_ids for i in ids)

        warm = FeatureCache(tmp_path / "cache")
        second = run_series(probe.texts_by_id(), staged, warm)
        assert warm.built == 0 and warm.misses == 0 and warm.hits == 2
        assert first == second
