import json
import random
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import softmax

from oracles import (
    add_at_matmul_dense,
    add_at_t_matmul_dense,
    from_dense,
    from_triplets,
    gradient_check,
    nb_posteriors,
    scipy_logreg_optimum,
    zero_model,
)
from rweets.corpus import BINARY, CATEGORICAL, Dataset, RawTweet, synth_corpus
from rweets.errors import FormatError, NotFittedError, ValidationError
from rweets.features import FeatureConfig, Vocabulary, combo
from rweets.models import (
    FoldPlan,
    LogisticRegression,
    MultinomialNaiveBayes,
    cross_validate,
    stratified_kfold,
)
from rweets.pipeline import STAGED_FILE, StagedClassifier, featurize_corpus, load_staged, save_staged
from rweets.preprocess import PipelineConfig, run_pipeline
from rweets.sparse import SparseMatrix


def separable_blobs(seed=0, per_class=4):
    rng = np.random.default_rng(seed)
    points = np.vstack(
        [
            rng.normal((2.0, 2.0), 0.3, (per_class, 2)),
            rng.normal((-2.0, -2.0), 0.3, (per_class, 2)),
        ]
    )
    labels = ["pos"] * per_class + ["neg"] * per_class
    return from_dense(points), labels


class TestLogisticRegression:
    def test_separable_blobs_perfect_fit(self):
        X, y = separable_blobs()
        clf = LogisticRegression().fit(X, y)
        assert clf.predict(X) == y

    def test_zero_model_uniform(self):
        model = zero_model(("a", "b", "c"), 4)
        X = from_dense(np.zeros((2, 4)))
        probs = model.predict_proba(X)
        np.testing.assert_allclose(probs, 1 / 3)
        assert model.predict(X) == ["a", "a"]  # tie -> lowest class index

    def test_weights_shrink_with_penalty(self):
        X, y = separable_blobs()
        norms = []
        for l2 in (0.1, 1.0, 10.0):
            clf = LogisticRegression(l2_penalty=l2, max_epochs=300).fit(X, y)
            norms.append(float(np.linalg.norm(clf.weights_)))
        assert norms[0] > norms[1] > norms[2]

    def test_probabilities_sum_to_one(self):
        X, y = separable_blobs(seed=3)
        clf = LogisticRegression().fit(X, y)
        np.testing.assert_allclose(clf.predict_proba(X).sum(axis=1), 1.0, atol=1e-9)

    def test_single_class_rejected(self):
        X, _ = separable_blobs()
        with pytest.raises(ValidationError):
            LogisticRegression().fit(X, ["same"] * X.rows)

    def test_dimension_mismatch_on_predict(self):
        X, y = separable_blobs()
        clf = LogisticRegression().fit(X, y)
        with pytest.raises(ValidationError):
            clf.predict(from_dense(np.zeros((1, 5))))

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            LogisticRegression().predict(from_dense(np.zeros((1, 2))))

    def test_fit_validates_hyperparameters(self):
        X, y = separable_blobs()
        with pytest.raises(ValidationError, match="l2_penalty must be nonnegative"):
            LogisticRegression(l2_penalty=-1.0).fit(X, y)
        with pytest.raises(ValidationError, match="max_epochs must be at least 1"):
            LogisticRegression(max_epochs=0).fit(X, y)

    def test_loss_non_increasing(self):
        X, y = separable_blobs(seed=5)
        from rweets.features import l2_normalize_rows

        clf = LogisticRegression(max_epochs=200).fit(l2_normalize_rows(X), y)
        diffs = np.diff(clf.loss_history_)
        assert np.all(diffs <= 1e-12)

    def test_deterministic(self):
        X, y = separable_blobs(seed=9)
        a = LogisticRegression().fit(X, y)
        b = LogisticRegression().fit(X, y)
        np.testing.assert_array_equal(a.weights_, b.weights_)
        assert a.loss_history_ == b.loss_history_
        assert a.n_iter_ == b.n_iter_ and a.grad_norm_ == b.grad_norm_

    def test_fit_bit_identical_to_add_at_kernels(self, monkeypatch):
        dataset = synth_corpus(3, 600, BINARY)
        clean, _ = run_pipeline(dataset)
        X = featurize_corpus(clean, combo(10), dataset.texts_by_id()).matrix
        y = clean.labels
        fast = LogisticRegression().fit(X, y, classes=BINARY.labels)
        monkeypatch.setattr(SparseMatrix, "matmul_dense", add_at_matmul_dense)
        monkeypatch.setattr(SparseMatrix, "t_matmul_dense", add_at_t_matmul_dense)
        reference = LogisticRegression().fit(X, y, classes=BINARY.labels)
        assert np.array_equal(fast.weights_, reference.weights_)
        assert np.array_equal(fast.bias_, reference.bias_)
        assert fast.loss_history_ == reference.loss_history_

    def test_class_order_follows_argument(self):
        X, y = separable_blobs()
        clf = LogisticRegression().fit(X, y, classes=("neg", "pos"))
        assert clf.classes_ == ("neg", "pos")

    def test_divergence_names_iteration(self):
        from rweets.errors import TrainingDivergedError

        # finite entries whose gradient is ~1e307: every trial step, down to
        # the smallest halving, overflows the scores and the penalty
        X = from_dense([[1e308, 1e308], [-1e308, -1e308]] * 2)
        y = ["pos", "neg"] * 2
        with pytest.raises(TrainingDivergedError) as excinfo:
            LogisticRegression().fit(X, y)
        assert excinfo.value.iteration == 0
        assert "iteration 0" in str(excinfo.value)


def bench_style_cv_corpora(seed):
    """The benchmark's `cv` inputs for one run seed: an identification corpus
    of 300 binary synth tweets plus 300 categorical ones relabelled rweet,
    shuffled, and a 600-tweet categorization corpus."""
    binary = synth_corpus(16 * seed + 1, 300, BINARY)
    requests = synth_corpus(16 * seed + 2, 300, CATEGORICAL)
    mixed = list(binary) + [RawTweet(tw.id, tw.text, "rweet") for tw in requests]
    random.Random(16 * seed).shuffle(mixed)
    return Dataset(BINARY, tuple(mixed)), synth_corpus(16 * seed + 3, 600, CATEGORICAL)


class TestLBFGS:
    def combo10(self, dataset):
        clean, _ = run_pipeline(dataset)
        return featurize_corpus(clean, combo(10), dataset.texts_by_id()).matrix, clean.labels

    @pytest.mark.parametrize(
        "seed, domain", [(3, BINARY), (4, CATEGORICAL)], ids=["binary", "categorical"]
    )
    def test_final_loss_matches_scipy(self, seed, domain):
        X, y = self.combo10(synth_corpus(seed, 600, domain))
        clf = LogisticRegression().fit(X, y, classes=domain.labels)
        reference = scipy_logreg_optimum(X, y, domain.labels, clf.l2_penalty)
        assert abs(clf.loss_history_[-1] - reference) <= 1e-6 * reference

    def test_every_fit_converges(self):
        ident, categ = bench_style_cv_corpora(1)
        corpora = [
            (synth_corpus(3, 600, BINARY), BINARY),
            (synth_corpus(4, 600, CATEGORICAL), CATEGORICAL),
            (ident, BINARY),
            (categ, CATEGORICAL),
        ]
        fits = []

        def make():
            fits.append(LogisticRegression())
            return fits[-1]

        for dataset, domain in corpora:
            clean, _ = run_pipeline(dataset)
            X = featurize_corpus(clean, combo(10), dataset.texts_by_id()).matrix
            make().fit(X, clean.labels, classes=domain.labels)
            cross_validate(make, clean, domain, combo(10), k=5, seed=1,
                           raw_texts=dataset.texts_by_id())
        assert len(fits) == 4 * 6
        for clf in fits:
            assert clf.stop_reason_ == "converged"
            assert clf.grad_norm_ <= clf.tol
            # about 25-55 iterations on these corpora; a lost or mis-scaled
            # curvature model makes gradient descent-like progress (hundreds)
            assert clf.n_iter_ <= 100
            assert clf.n_iter_ == len(clf.loss_history_) - 1
            assert np.all(np.diff(clf.loss_history_) <= 0)

    def test_iteration_cap(self):
        X, y = self.combo10(synth_corpus(3, 600, BINARY))
        clf = LogisticRegression(max_epochs=3).fit(X, y, classes=BINARY.labels)
        assert clf.stop_reason_ == "max_iter"
        assert clf.n_iter_ == 3
        assert len(clf.loss_history_) == 4
        assert clf.grad_norm_ > clf.tol

    def test_tol_below_rounding_ends_without_progress(self):
        # ||grad||_inf stalls near 1e-11 here, so tol=0 is never met; the fit
        # must end once a step cannot lower the loss, not run to the cap
        X, y = self.combo10(synth_corpus(3, 600, BINARY))
        reference = LogisticRegression(tol=1e-6).fit(X, y, classes=BINARY.labels)
        clf = LogisticRegression(tol=0.0).fit(X, y, classes=BINARY.labels)
        assert clf.stop_reason_ == "no_progress"
        assert clf.n_iter_ <= 100
        assert clf.n_iter_ == len(clf.loss_history_) - 1
        assert np.all(np.diff(clf.loss_history_) < 0)
        assert clf.loss_history_[-1] <= reference.loss_history_[-1]


class TestGradientCheck:
    def make_instance(self, seed):
        rng = np.random.default_rng(seed)
        X = from_dense(rng.normal(size=(6, 4)))
        y = [("p", "q", "r")[i % 3] for i in range(6)]
        return X, y

    def test_small_instances(self):
        for seed in range(30):
            X, y = self.make_instance(seed)
            assert gradient_check(X, y, seed=seed) <= 1e-4

    def test_with_and_without_penalty(self):
        X, y = self.make_instance(0)
        assert gradient_check(X, y, l2=0.0) <= 1e-4
        assert gradient_check(X, y, l2=0.5) <= 1e-4

    def test_error_shrinks_with_h(self):
        X, y = self.make_instance(1)
        coarse = gradient_check(X, y, h=1e-3)
        fine = gradient_check(X, y, h=1e-5)
        assert fine < coarse


class TestNaiveBayes:
    def fit_example(self):
        # R: "need food", R: "need shelter", N: "sunny day"
        rows = np.array(
            [
                [1, 1, 0, 0, 0],
                [1, 0, 1, 0, 0],
                [0, 0, 0, 1, 1],
            ],
            dtype=float,
        )
        X = from_dense(rows)
        return MultinomialNaiveBayes(alpha=1.0).fit(X, ["R", "R", "N"]), rows

    def test_hand_example_prediction(self):
        nb, _ = self.fit_example()
        query = from_dense([[1.0, 1.0, 0.0, 0.0, 0.0]])
        assert nb.predict(query) == ["R"]

    def test_priors(self):
        nb, _ = self.fit_example()
        np.testing.assert_allclose(nb.class_log_prior_, [np.log(2 / 3), np.log(1 / 3)])

    def test_unseen_term_likelihood(self):
        nb, _ = self.fit_example()
        # class N has 2 total counts over 5 terms; unseen term gets 1/(2+5)
        col_need = 0
        assert np.exp(nb.feature_log_prob_[1, col_need]) == pytest.approx(1 / 7)

    def test_likelihoods_normalize(self):
        nb, _ = self.fit_example()
        np.testing.assert_allclose(np.exp(nb.feature_log_prob_).sum(axis=1), 1.0, atol=1e-9)

    def test_negative_counts_rejected(self):
        X = from_dense([[1.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            MultinomialNaiveBayes().fit(X, ["a", "b"])

    def test_empty_row_prior_argmax(self):
        nb, _ = self.fit_example()
        empty = from_triplets(1, 5, [])
        assert nb.predict(empty) == ["R"]  # R has the larger prior

    def test_posteriors_match_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n_docs = int(rng.integers(2, 6))
            n_terms = int(rng.integers(1, 11))
            rows = rng.integers(0, 4, size=(n_docs, n_terms)).astype(float)
            labels = [("u", "v")[i % 2] for i in range(n_docs)]
            alpha = float(rng.uniform(0.2, 2.0))
            nb = MultinomialNaiveBayes(alpha=alpha).fit(
                from_dense(rows), labels
            )
            query = rng.integers(0, 4, size=(1, n_terms)).astype(float)
            ours = softmax(nb.predict_log_joint(from_dense(query)), axis=1)[0]
            oracle = nb_posteriors(rows.tolist(), labels, alpha, query[0].tolist())
            for i, label in enumerate(nb.classes_):
                assert ours[i] == pytest.approx(oracle[label], abs=1e-9)

    def test_deterministic(self):
        nb, rows = self.fit_example()
        query = from_dense(rows)
        assert nb.predict(query) == nb.predict(query)


class TestStratifiedKFold:
    def test_exact_balance(self):
        plan = stratified_kfold(["A"] * 10 + ["B"] * 5, k=5, seed=0)
        for fold in range(5):
            members = plan.fold_indices(fold)
            assert sum(1 for i in members if i < 10) == 2
            assert sum(1 for i in members if i >= 10) == 1

    def test_same_seed_identical_different_seed_differs(self):
        y = ["A"] * 10 + ["B"] * 5
        assert stratified_kfold(y, 5, 1) == stratified_kfold(y, 5, 1)
        a = stratified_kfold(y, 5, 1)
        b = stratified_kfold(y, 5, 2)
        assert a.assignments != b.assignments
        from collections import Counter

        assert Counter(a.assignments) == Counter(b.assignments)

    def test_small_class_rejected(self):
        with pytest.raises(ValidationError, match="B"):
            stratified_kfold(["A"] * 10 + ["B"] * 3, k=5, seed=0)

    def test_k_too_small(self):
        with pytest.raises(ValidationError):
            stratified_kfold(["A", "B"], k=1, seed=0)

    def test_balance_property(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            n_classes = int(rng.integers(2, 5))
            y = []
            for c in range(n_classes):
                y += [f"c{c}"] * int(rng.integers(k, 3 * k + 1))
            seed = int(rng.integers(0, 10_000))
            plan = stratified_kfold(y, k, seed)
            for fold in range(k):
                members = plan.fold_indices(fold)
                for c in set(y):
                    n_c = y.count(c)
                    got = sum(1 for i in members if y[i] == c)
                    assert abs(got - n_c / k) <= 1

    def test_plan_serializes_identically(self):
        y = ["A"] * 8 + ["B"] * 6
        a = json.dumps(asdict(stratified_kfold(y, 2, 42)))
        b = json.dumps(asdict(stratified_kfold(y, 2, 42)))
        assert a == b


class TestCrossValidate:
    def test_separable_corpus_perfect(self):
        dataset = synth_corpus(31, 200, BINARY)
        corpus, _ = run_pipeline(dataset)
        result = cross_validate(
            lambda: LogisticRegression(),
            corpus,
            BINARY,
            FeatureConfig(ngram_range=(1, 2)),
            k=5,
            seed=0,
        )
        assert result.pooled.accuracy >= 0.97

    def test_every_tweet_predicted_once(self):
        dataset = synth_corpus(32, 120, BINARY)
        corpus, _ = run_pipeline(dataset)
        result = cross_validate(
            lambda: LogisticRegression(max_epochs=50),
            corpus,
            BINARY,
            FeatureConfig(),
            k=5,
            seed=0,
        )
        assert len(result.predictions) == len(corpus)
        assert all(p is not None for p in result.predictions)

    def test_fixed_seed_reproducible(self):
        dataset = synth_corpus(33, 100, BINARY)
        corpus, _ = run_pipeline(dataset)
        run = lambda: cross_validate(
            lambda: LogisticRegression(max_epochs=50),
            corpus,
            BINARY,
            FeatureConfig(),
            k=4,
            seed=7,
        )
        assert run().pooled == run().pooled
        assert run().predictions == run().predictions

    def test_rules_config_needs_raw_texts(self):
        dataset = synth_corpus(34, 80, BINARY)
        corpus, _ = run_pipeline(dataset)
        with pytest.raises(ValidationError):
            cross_validate(
                lambda: LogisticRegression(),
                corpus,
                BINARY,
                FeatureConfig(append_rules=True),
                k=2,
                seed=0,
            )

    def test_nb_gets_counts(self):
        dataset = synth_corpus(35, 150, CATEGORICAL)
        corpus, _ = run_pipeline(dataset)
        result = cross_validate(
            lambda: MultinomialNaiveBayes(),
            corpus,
            CATEGORICAL,
            FeatureConfig(vectorizer="tf-idf", ngram_range=(1, 2)),
            k=3,
            seed=0,
        )
        assert result.pooled.accuracy >= 0.8

    def test_unlabeled_corpus_rejected(self):
        from rweets.preprocess import CleanCorpus

        corpus = CleanCorpus(("a", "b"), (("need", "food"), ("dry", "day")), (None, None), "x")
        with pytest.raises(ValidationError):
            cross_validate(
                lambda: LogisticRegression(), corpus, BINARY, FeatureConfig(), 2, 0
            )


def saved_as_stages(identifier, categorizer, directory):
    """The two models saved as the stages of a staged classifier into
    `directory`, each with a vocabulary of one made-up term per column; the
    staged file."""
    def vocab(model):
        n_cols = getattr(model, "weights_", getattr(model, "feature_log_prob_", None)).shape[1]
        return Vocabulary(terms=tuple(f"t{i}" for i in range(n_cols)), ngram_range=(1, 1))

    save_staged(StagedClassifier(identifier, vocab(identifier), categorizer, vocab(categorizer),
                                 FeatureConfig(), PipelineConfig()), directory)
    return directory / STAGED_FILE


def saved_as_both_stages(model, directory):
    """`model` saved as both stages, for the tests whose file `load_staged`
    refuses before it compares each stage's classes with its domain's labels."""
    return saved_as_stages(model, model, directory)


def identifier_logreg(seed=2):
    """A logreg fitted on separable blobs labelled with the binary labels, as
    the identifier stage is, and its training matrix."""
    X, y = separable_blobs(seed=seed)
    y = ["rweet" if label == "pos" else "not_rweet" for label in y]
    return LogisticRegression().fit(X, y, classes=BINARY.labels), X


def categorizer_nb():
    """A multinomial NB fitted with the six categories as its classes, as the
    categorizer stage is."""
    rows = np.array([[1, 2, 0], [0, 1, 3], [2, 0, 1], [4, 0, 0], [0, 0, 2], [1, 1, 1]], dtype=float)
    return MultinomialNaiveBayes(alpha=0.5).fit(
        from_dense(rows), CATEGORICAL.labels, classes=CATEGORICAL.labels
    )


class TestModelPersistence:
    def test_logreg_round_trip(self, tmp_path):
        clf, X = identifier_logreg()
        loaded = load_staged(saved_as_stages(clf, categorizer_nb(), tmp_path).parent).identifier
        assert loaded.classes_ == clf.classes_
        np.testing.assert_array_equal(loaded.weights_, clf.weights_)
        np.testing.assert_array_equal(loaded.bias_, clf.bias_)
        hyper = ("l2_penalty", "max_epochs", "tol")
        assert [getattr(loaded, k) for k in hyper] == [getattr(clf, k) for k in hyper]
        assert loaded.predict(X) == clf.predict(X)

    def test_nb_round_trip(self, tmp_path):
        nb = categorizer_nb()
        loaded = load_staged(saved_as_stages(identifier_logreg()[0], nb, tmp_path).parent).categorizer
        assert loaded.classes_ == nb.classes_ == CATEGORICAL.labels
        np.testing.assert_array_equal(loaded.feature_log_prob_, nb.feature_log_prob_)
        np.testing.assert_array_equal(loaded.class_log_prior_, nb.class_log_prior_)
        assert loaded.alpha == nb.alpha

    def test_deterministic_bytes(self, tmp_path):
        X, y = separable_blobs(seed=4)
        clf = LogisticRegression().fit(X, y)
        a = saved_as_both_stages(clf, tmp_path / "a")
        b = saved_as_both_stages(clf, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header(self, tmp_path):
        X, y = separable_blobs(seed=2)
        path = saved_as_both_stages(LogisticRegression().fit(X, y), tmp_path)
        path.write_text("NOT A MODEL\n")
        with pytest.raises(FormatError):
            load_staged(tmp_path)

    def test_old_format_version_rejected(self, tmp_path):
        X, y = separable_blobs(seed=2)
        path = saved_as_both_stages(LogisticRegression().fit(X, y), tmp_path)
        data = path.read_bytes()
        assert b'"version":1}' in data
        path.write_bytes(data.replace(b'"version":1}', b'"version":0}', 1))
        with pytest.raises(FormatError, match="version 0"):
            load_staged(tmp_path)

    def test_classes_disagreeing_with_parameters(self, tmp_path):
        X, y = separable_blobs(seed=2)
        clf = LogisticRegression().fit(X, y)
        for classes, rows in ((("a", "b", "c"), 2), (("a",), 1)):  # one class: nothing to predict
            clf.classes_, clf.weights_, clf.bias_ = classes, clf.weights_[:rows], clf.bias_[:rows]
            saved_as_both_stages(clf, tmp_path)
            with pytest.raises(FormatError, match=f"disagree with {len(classes)} classes"):
                load_staged(tmp_path)
