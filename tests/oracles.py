"""Independent reference implementations used as test oracles.

Each oracle recomputes expected values through a different code path than
the implementation under test: dense dictionary counting for tf/tf-idf,
probability-space enumeration for naive Bayes posteriors, a tiny
backtracking matcher (no `re`) for the rule patterns, and `np.add.at`
scatters for the sparse reductions. The module also holds the model helpers
only tests use: an all-zero logistic regression and a finite-difference
gradient check.
"""

import math
import string

import numpy as np

from rweets.models import LogisticRegression, _loss_and_grads, _one_hot, _resolve_classes
from rweets.sparse import SparseMatrix

# --- dense tf / tf-idf -------------------------------------------------------


def dense_tf(docs, vocab_terms, lo, hi):
    index = {t: j for j, t in enumerate(vocab_terms)}
    matrix = [[0.0] * len(vocab_terms) for _ in docs]
    for r, tokens in enumerate(docs):
        tokens = list(tokens)
        for n in range(lo, hi + 1):
            for i in range(len(tokens) - n + 1):
                j = index.get(" ".join(tokens[i : i + n]))
                if j is not None:
                    matrix[r][j] += 1.0
    return matrix


def _doc_terms(tokens, lo, hi):
    tokens = list(tokens)
    out = set()
    for n in range(lo, hi + 1):
        for i in range(len(tokens) - n + 1):
            out.add(" ".join(tokens[i : i + n]))
    return out


def dense_tfidf(docs, vocab_terms, lo, hi):
    matrix = dense_tf(docs, vocab_terms, lo, hi)
    n_docs = len(docs)
    doc_sets = [_doc_terms(tokens, lo, hi) for tokens in docs]
    for j, term in enumerate(vocab_terms):
        df = sum(1 for terms in doc_sets if term in terms)
        idf = math.log((1 + n_docs) / (1 + df)) + 1.0
        for r in range(n_docs):
            matrix[r][j] *= idf
    return matrix


def dense_l2_normalize(matrix):
    out = []
    for row in matrix:
        norm = math.sqrt(sum(v * v for v in row))
        out.append([v / norm for v in row] if norm > 0 else list(row))
    return out


# --- naive Bayes posteriors ---------------------------------------------------


def nb_posteriors(train_rows, labels, alpha, query_row):
    """Posterior P(c | query) by direct enumeration in probability space."""
    classes = []
    for label in labels:
        if label not in classes:
            classes.append(label)
    n_terms = len(train_rows[0])
    joint = []
    for c in classes:
        rows = [row for row, label in zip(train_rows, labels) if label == c]
        prior = len(rows) / len(train_rows)
        total = sum(sum(row) for row in rows)
        p = prior
        for t in range(n_terms):
            count = sum(row[t] for row in rows)
            theta = (count + alpha) / (total + alpha * n_terms)
            p *= theta ** query_row[t]
        joint.append(p)
    norm = sum(joint)
    return {c: p / norm for c, p in zip(classes, joint)}


# --- minimal regex engine -----------------------------------------------------
#
# Supports exactly the constructs the 18 rule patterns use: \b, \w, \s, ".",
# literal characters, one-level groups of literal alternatives, and a postfix
# "*" on single-character atoms. Matching is case-insensitive.

_WORD_CHARS = set(string.ascii_lowercase + string.digits + "_")


def _parse(pattern):
    nodes = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        base = None
        if ch == "\\":
            esc = pattern[i + 1]
            i += 2
            if esc == "b":
                nodes.append(("bound", None))
                continue
            if esc == "w":
                base = ("word", None)
            elif esc == "s":
                base = ("space", None)
            else:
                base = ("lit", esc.lower())
        elif ch == "(":
            end = pattern.index(")", i)
            body = pattern[i + 1 : end]
            i = end + 1
            assert i >= len(pattern) or pattern[i] not in "*?", "no postfix on groups"
            alts = tuple(alt.replace("\\'", "'").lower() for alt in body.split("|"))
            nodes.append(("alt", alts))
            continue
        elif ch == ".":
            base = ("any", None)
            i += 1
        else:
            base = ("lit", ch.lower())
            i += 1
        if i < len(pattern) and pattern[i] == "*":
            i += 1
            nodes.append(("star", base))
        else:
            nodes.append(base)
    return nodes


def _is_word(ch):
    return ch.lower() in _WORD_CHARS


def _atom_ok(base, text, pos):
    if pos >= len(text):
        return False
    kind, arg = base
    ch = text[pos]
    if kind == "lit":
        return ch == arg
    if kind == "any":
        return ch != "\n"
    if kind == "word":
        return _is_word(ch)
    if kind == "space":
        return ch.isspace()
    raise AssertionError(kind)


def _match_here(nodes, k, text, pos):
    if k == len(nodes):
        return True
    kind, arg = nodes[k]
    if kind == "bound":
        left = pos > 0 and _is_word(text[pos - 1])
        right = pos < len(text) and _is_word(text[pos])
        return left != right and _match_here(nodes, k + 1, text, pos)
    if kind == "alt":
        return any(
            text.startswith(alt, pos) and _match_here(nodes, k + 1, text, pos + len(alt))
            for alt in arg
        )
    if kind == "star":
        run = 0
        while _atom_ok(arg, text, pos + run):
            run += 1
        return any(_match_here(nodes, k + 1, text, pos + take) for take in range(run, -1, -1))
    return _atom_ok(nodes[k], text, pos) and _match_here(nodes, k + 1, text, pos + 1)


def regex_search(pattern, text):
    """True when the pattern matches anywhere in the text."""
    nodes = _parse(pattern)
    text = text.lower()
    return any(_match_here(nodes, 0, text, pos) for pos in range(len(text) + 1))


# --- sparse reductions by unbuffered scatter ----------------------------------
#
# `np.add.at` adds each stored entry into a zeroed output, one entry at a
# time in stored order; the sparse kernels must give bit-identical results.
# Each function has the signature of the SparseMatrix method it checks, so a
# test can install it in the method's place.


def add_at_to_dense(m: SparseMatrix) -> np.ndarray:
    out = np.zeros((m.rows, m.cols))
    out_flat = out.reshape(-1)
    np.add.at(out_flat, m._nnz_rows() * m.cols + m.indices, m.data)
    return out


def add_at_row_norms(m: SparseMatrix) -> np.ndarray:
    norms = np.zeros(m.rows)
    np.add.at(norms, m._nnz_rows(), m.data * m.data)
    return np.sqrt(norms)


def add_at_matmul_dense(m: SparseMatrix, weights) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    out = np.zeros((m.rows, weights.shape[1]))
    if m.nnz:
        np.add.at(out, m._nnz_rows(), m.data[:, None] * weights[m.indices])
    return out


def add_at_t_matmul_dense(m: SparseMatrix, dense) -> np.ndarray:
    dense = np.asarray(dense, dtype=np.float64)
    out = np.zeros((m.cols, dense.shape[1]))
    if m.nnz:
        np.add.at(out, m.indices, m.data[:, None] * dense[m._nnz_rows()])
    return out


def add_at_sum_rows_by_group(m: SparseMatrix, groups, n_groups: int) -> np.ndarray:
    groups = np.asarray(groups, dtype=np.int64)
    out = np.zeros((n_groups, m.cols))
    if m.nnz:
        np.add.at(out, (groups[m._nnz_rows()], m.indices), m.data)
    return out


# --- model helpers only tests use ---------------------------------------------


def zero_model(classes, n_cols: int) -> LogisticRegression:
    """An untrained model with all-zero parameters: predicts uniform
    probabilities and, by the tie rule, the first class."""
    model = LogisticRegression()
    model.classes_ = tuple(classes)
    model.weights_ = np.zeros((len(model.classes_), n_cols))
    model.bias_ = np.zeros(len(model.classes_))
    model.loss_history_ = []
    return model


def gradient_check(
    X: SparseMatrix, y, classes=None, l2: float = 1e-4, h: float = 1e-5, seed: int = 0
) -> float:
    """Max relative error between analytic and central finite-difference
    gradients at a random weight point. Small instances only: cost is two
    loss evaluations per parameter."""
    classes = _resolve_classes(y, classes)
    Y = _one_hot(y, classes)
    rng = np.random.default_rng(seed)
    W = rng.normal(scale=0.5, size=(len(classes), X.cols))
    b = rng.normal(scale=0.5, size=len(classes))
    _, grad_w, grad_b = _loss_and_grads(X, Y, W, b, l2)

    def loss_at(W_try, b_try):
        return _loss_and_grads(X, Y, W_try, b_try, l2)[0]

    worst = 0.0
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            W_hi, W_lo = W.copy(), W.copy()
            W_hi[i, j] += h
            W_lo[i, j] -= h
            numeric = (loss_at(W_hi, b) - loss_at(W_lo, b)) / (2 * h)
            denom = max(1e-8, abs(numeric) + abs(grad_w[i, j]))
            worst = max(worst, abs(numeric - grad_w[i, j]) / denom)
    for i in range(len(b)):
        b_hi, b_lo = b.copy(), b.copy()
        b_hi[i] += h
        b_lo[i] -= h
        numeric = (loss_at(W, b_hi) - loss_at(W, b_lo)) / (2 * h)
        denom = max(1e-8, abs(numeric) + abs(grad_b[i]))
        worst = max(worst, abs(numeric - grad_b[i]) / denom)
    return worst
