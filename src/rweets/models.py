"""From-scratch classifiers over sparse rows, stratified k-fold plans, and
the cross-validation harness.

LogisticRegression is multinomial (softmax) with an L2 penalty on weights
(not bias), fitted by L-BFGS (Liu & Nocedal 1989; Nocedal & Wright,
Numerical Optimization, Alg. 7.4/7.5) from zero-initialized parameters: the
two-loop recursion over the last 10 correction pairs gives the direction,
and a backtracking Armijo line search the step. The fit stops when the
largest absolute gradient entry is at most `tol` (converged), when the
step the line search accepts no longer lowers the loss (no_progress: a `tol`
below the gradient's rounding error is never met), or after `max_epochs`
iterations (max_iter). MultinomialNaiveBayes is the count-based
multinomial model with Laplace smoothing; it must be fed raw term counts,
never tf-idf or normalized rows. Everything here is deterministic given its
inputs and seed; ties always resolve to the lowest class index.
"""

import random
from collections import deque
from dataclasses import asdict, dataclass, fields

import numpy as np

from .corpus import LabelDomain
from .errors import (
    FormatError,
    TrainingDivergedError,
    ValidationError,
    check_equal_length,
    check_is_fitted,
)
from .features import FeatureConfig, count_ngrams, featurize_tokens
from .metrics import MetricsReport, compute_report
from .rules import rule_block_for_ids
from .sparse import SparseMatrix


@dataclass(frozen=True)
class TrainConfig:
    l2_penalty: float = 1e-4
    max_epochs: int = 500
    tol: float = 1e-6

    def __post_init__(self):
        if self.l2_penalty < 0:
            raise ValidationError("l2_penalty must be nonnegative")
        if self.max_epochs < 1:
            raise ValidationError("max_epochs must be at least 1")


def _resolve_classes(y, classes) -> list[str]:
    if classes is None:
        seen = []
        for label in y:
            if label not in seen:
                seen.append(label)
        classes = seen
    classes = list(classes)
    if len(set(y) | set(classes)) > len(classes):
        unknown = sorted(set(y) - set(classes))
        raise ValidationError(f"labels {unknown} not in class list")
    if len(set(y)) < 2:
        raise ValidationError("training labels cover fewer than 2 classes")
    return classes


def _label_indices(y, classes) -> np.ndarray:
    index = {c: i for i, c in enumerate(classes)}
    return np.fromiter((index[label] for label in y), dtype=np.int64, count=len(y))


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _loss_and_grads(X: SparseMatrix, labels: np.ndarray, W: np.ndarray, b: np.ndarray, l2: float):
    """Cross-entropy plus (l2/2)||W||^2 and its analytic gradients, for
    integer class indices `labels`.

    Overflow is allowed to propagate as inf or nan: the line search treats
    a non-finite loss as a failed step.
    """
    n = X.rows
    rows = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        probs = _softmax(X.matmul_dense(W.T) + b)
        eps = 1e-300  # guards log(0) for confidently wrong predictions
        nll = -np.sum(np.log(probs[rows, labels] + eps)) / n
        loss = nll + 0.5 * l2 * float(np.sum(W * W))
        delta = probs
        delta[rows, labels] -= 1.0
        delta /= n
        grad_w = X.t_matmul_dense(delta).T + l2 * W
        grad_b = delta.sum(axis=0)
    return loss, grad_w, grad_b


_MEMORY = 10  # L-BFGS correction pairs kept
_ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search
_MAX_HALVINGS = 50  # trial steps per line search: 1, 1/2, ..., 2**-49


def _lbfgs_direction(grad: np.ndarray, pairs) -> np.ndarray:
    """-H grad by the two-loop recursion over (s, y, 1/s.y) pairs, oldest
    first, with H0 = (s.y / y.y) I from the newest pair (I when empty)."""
    q = -grad
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * (s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * (y @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return q


class LogisticRegression:
    """Softmax regression fitted by L-BFGS to a gradient-norm tolerance.

    `tol` bounds the largest absolute entry of the gradient at the returned
    parameters; `max_epochs` caps the number of L-BFGS iterations. After
    fit, `stop_reason_` is "converged", "no_progress" (an iteration whose
    accepted step would not lower the loss; that step is not taken) or
    "max_iter", `n_iter_` counts the iterations, `grad_norm_` is the final
    max-norm of the gradient, and `loss_history_` holds the loss at the
    starting point and after each iteration (decreasing).
    """

    name = "logreg"
    input_kind = "weighted"

    def __init__(self, l2_penalty=1e-4, max_epochs=500, tol=1e-6):
        self.l2_penalty = l2_penalty
        self.max_epochs = max_epochs
        self.tol = tol

    def fit(self, X: SparseMatrix, y, classes=None) -> "LogisticRegression":
        check_equal_length("X rows", range(X.rows), "y", y)
        classes = _resolve_classes(y, classes)
        labels = _label_indices(y, classes)
        split = len(classes) * X.cols

        def objective(w):
            W = w[:split].reshape(len(classes), X.cols)
            loss, grad_w, grad_b = _loss_and_grads(X, labels, W, w[split:], self.l2_penalty)
            return loss, np.concatenate((grad_w.ravel(), grad_b))

        w = np.zeros(split + len(classes))
        loss, grad = objective(w)
        losses = [loss]
        pairs = deque(maxlen=_MEMORY)
        n_iter, stop_reason = 0, "max_iter"
        while True:
            grad_norm = float(np.max(np.abs(grad)))
            if grad_norm <= self.tol:
                stop_reason = "converged"
                break
            if n_iter >= self.max_epochs:
                break
            direction = _lbfgs_direction(grad, pairs)
            with np.errstate(over="ignore"):  # -inf fails every trial step below
                slope = float(grad @ direction)
            step = 1.0
            for _ in range(_MAX_HALVINGS):
                trial = w + step * direction
                trial_loss, trial_grad = objective(trial)
                # False for a nan or inf loss, which therefore halves the step too
                if trial_loss <= loss + _ARMIJO_C * step * slope:
                    break
                step *= 0.5
            else:
                raise TrainingDivergedError(n_iter)
            if trial_loss >= loss:
                # at the rounding error of the loss, no step lowers it any further
                stop_reason = "no_progress"
                break
            s, y_diff = trial - w, trial_grad - grad
            curvature = float(s @ y_diff)
            if curvature > np.finfo(float).eps * float(y_diff @ y_diff):
                pairs.append((s, y_diff, 1.0 / curvature))
            w, loss, grad = trial, trial_loss, trial_grad
            losses.append(loss)
            n_iter += 1
        self.classes_ = tuple(classes)
        self.weights_ = w[:split].reshape(len(classes), X.cols)
        self.bias_ = w[split:]
        self.loss_history_ = losses
        self.n_iter_ = n_iter
        self.grad_norm_ = grad_norm
        self.stop_reason_ = stop_reason
        return self

    def decision_function(self, X: SparseMatrix) -> np.ndarray:
        check_is_fitted(self, "weights_")
        if X.cols != self.weights_.shape[1]:
            raise ValidationError(
                f"matrix has {X.cols} columns, model expects {self.weights_.shape[1]}"
            )
        return X.matmul_dense(self.weights_.T) + self.bias_

    def predict_proba(self, X: SparseMatrix) -> np.ndarray:
        return _softmax(self.decision_function(X))

    def predict(self, X: SparseMatrix) -> list[str]:
        probs = self.predict_proba(X)
        return [self.classes_[i] for i in np.argmax(probs, axis=1)]


class MultinomialNaiveBayes:
    """Multinomial naive Bayes with Laplace smoothing over raw term counts."""

    name = "nb"
    input_kind = "counts"

    def __init__(self, alpha=1.0):
        self.alpha = alpha

    def fit(self, X: SparseMatrix, y, classes=None) -> "MultinomialNaiveBayes":
        if self.alpha <= 0:
            raise ValidationError("alpha must be positive")
        check_equal_length("X rows", range(X.rows), "y", y)
        if X.nnz and X.data.min() < 0:
            raise ValidationError("count matrix must be nonnegative")
        classes = _resolve_classes(y, classes)
        groups = _label_indices(y, classes)
        class_counts = np.bincount(groups, minlength=len(classes)).astype(np.float64)
        if np.any(class_counts == 0):
            missing = [c for c, n in zip(classes, class_counts) if n == 0]
            raise ValidationError(f"classes {missing} have no training rows")
        term_counts = X.sum_rows_by_group(groups, len(classes))
        smoothed = term_counts + self.alpha
        totals = smoothed.sum(axis=1, keepdims=True)
        self.classes_ = tuple(classes)
        self.class_log_prior_ = np.log(class_counts / class_counts.sum())
        self.feature_log_prob_ = np.log(smoothed / totals)
        return self

    def predict_log_joint(self, X: SparseMatrix) -> np.ndarray:
        """log prior + sum of count-weighted log likelihoods, per class."""
        check_is_fitted(self, "feature_log_prob_")
        if X.cols != self.feature_log_prob_.shape[1]:
            raise ValidationError(
                f"matrix has {X.cols} columns, model expects "
                f"{self.feature_log_prob_.shape[1]}"
            )
        return X.matmul_dense(self.feature_log_prob_.T) + self.class_log_prior_

    def predict(self, X: SparseMatrix) -> list[str]:
        joint = self.predict_log_joint(X)
        return [self.classes_[i] for i in np.argmax(joint, axis=1)]


CLASSIFIERS = {
    "logreg": LogisticRegression,
    "nb": MultinomialNaiveBayes,
}


def make_classifier(name: str, train_config: TrainConfig | None = None, alpha: float = 1.0):
    if name not in CLASSIFIERS:
        raise ValidationError(f"unknown classifier {name!r}; choose from {sorted(CLASSIFIERS)}")
    if name == "logreg":
        return LogisticRegression(**asdict(train_config or TrainConfig()))
    return MultinomialNaiveBayes(alpha=alpha)


# --- cross-validation -------------------------------------------------------


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: tuple[int, ...]
    seed: int

    def fold_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.assignments) if f == fold]

    def train_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.assignments) if f != fold]


def stratified_kfold(y, k: int, seed: int) -> FoldPlan:
    """Within each class, shuffle indices with the seeded RNG and deal them
    round-robin to folds, so per-fold class counts differ by at most one."""
    if k < 2:
        raise ValidationError("k must be at least 2")
    y = list(y)
    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(y):
        by_class.setdefault(label, []).append(i)
    for label, members in by_class.items():
        if len(members) < k:
            raise ValidationError(
                f"class {label!r} has {len(members)} members, fewer than k={k}"
            )
    rng = random.Random(seed)
    assignments = [0] * len(y)
    for label in by_class:  # insertion order: first appearance in y
        members = list(by_class[label])
        rng.shuffle(members)
        for position, index in enumerate(members):
            assignments[index] = position % k
    return FoldPlan(k=k, assignments=tuple(assignments), seed=seed)


@dataclass(frozen=True)
class CVResult:
    pooled: MetricsReport
    fold_reports: tuple[MetricsReport, ...]
    plan: FoldPlan
    predictions: tuple[str, ...]


def cross_validate(
    make_clf,
    corpus,
    domain: LabelDomain,
    config: FeatureConfig,
    k: int,
    seed: int,
    raw_texts=None,
) -> CVResult:
    """Stratified k-fold evaluation. The corpus's n-grams are counted once;
    each training split's vocabulary comes from its rows of those counts,
    exactly as if it were rebuilt from the split's token lists. Held-out
    predictions are pooled into one report.

    `make_clf` is a zero-argument factory so every fold trains a fresh
    model. `raw_texts` (id -> original text) is required when the feature
    configuration appends rule features, which evaluate original tweets.
    """
    labels = corpus.labels()
    if any(label is None for label in labels):
        raise ValidationError("cross-validation requires a fully labeled corpus")
    if config.append_rules and raw_texts is None:
        raise ValidationError("rule features need the original texts (raw_texts)")

    counts = count_ngrams(corpus.token_lists(), config.ngram_range)
    ids = corpus.ids()
    rule_block = rule_block_for_ids(ids, raw_texts) if config.append_rules else None

    plan = stratified_kfold(labels, k, seed)
    predictions: list[str | None] = [None] * len(labels)
    fold_reports = []
    for fold in range(k):
        train_idx = plan.train_indices(fold)
        test_idx = plan.fold_indices(fold)
        clf = make_clf()
        counts_only = getattr(clf, "input_kind", "weighted") == "counts"

        def featurize(indices, vocab=None):
            block = rule_block[indices, :] if rule_block is not None else None
            return featurize_tokens(counts.take(indices), tuple(ids[i] for i in indices), config,
                                    vocab=vocab, rule_block=block, counts_only=counts_only)

        train_fm = featurize(train_idx)
        test_fm = featurize(test_idx, train_fm.vocab)
        clf.fit(train_fm.matrix, [labels[i] for i in train_idx], classes=domain.labels)
        fold_pred = clf.predict(test_fm.matrix)
        for i, pred in zip(test_idx, fold_pred):
            predictions[i] = pred
        fold_reports.append(
            compute_report([labels[i] for i in test_idx], fold_pred, domain)
        )
    pooled = compute_report(labels, predictions, domain)
    return CVResult(
        pooled=pooled,
        fold_reports=tuple(fold_reports),
        plan=plan,
        predictions=tuple(predictions),
    )


# --- persistence ------------------------------------------------------------

# each classifier's fitted parameters: a per-class vector, then a
# class-by-column table
_PARAMS = {
    "logreg": ("bias_", "weights_"),
    "nb": ("class_log_prior_", "feature_log_prob_"),
}
# each classifier's hyperparameters: its constructor's keyword arguments
_HYPER = {
    "logreg": tuple(f.name for f in fields(TrainConfig)),
    "nb": ("alpha",),
}


def _model_fields(model) -> tuple[dict, dict]:
    """The header meta (classifier name, hyperparameters) and the arrays
    (class names, parameters) that store a fitted classifier."""
    check_is_fitted(model, "classes_")
    if type(model) not in CLASSIFIERS.values():
        raise ValidationError(f"cannot persist model of type {type(model).__name__}")
    arrays = {"classes_": tuple(model.classes_)}
    arrays.update((k, np.asarray(getattr(model, k), dtype=np.float64)) for k in _PARAMS[model.name])
    hyper = {k: getattr(model, k) for k in _HYPER[model.name]}
    return {"model": model.name, "hyper": hyper}, arrays


def _model_from(meta: dict, arrays: dict):
    model = CLASSIFIERS[meta["model"]](**meta["hyper"])
    vector, table = (arrays[k] for k in _PARAMS[model.name])
    model.classes_ = arrays["classes_"]
    n = len(model.classes_)
    if n < 2 or vector.shape != (n,) or table.ndim != 2 or table.shape[0] != n:
        raise FormatError(f"parameter shapes disagree with {n} classes")
    for key, value in zip(_PARAMS[model.name], (vector, table)):
        setattr(model, key, value)
    if model.name == "logreg":
        model.loss_history_ = []
    return model
