"""Independent reference implementations used as test oracles.

Each oracle recomputes expected values through a different code path than
the implementation under test: dense dictionary counting for tf/tf-idf,
the string-per-occurrence vocabulary and tf builders (every n-gram joined
and looked up where it occurs) for the counted-once path of
`rweets.features`,
probability-space enumeration for naive Bayes posteriors, a tiny
backtracking matcher (no `re`) for the rule patterns, and `np.add.at`
scatters for the sparse reductions, scipy's L-BFGS-B on a dense
one-hot form of the logistic regression objective, and the per-op cleaning
runner (word counts by `split()` around every op, no memos, no pre-checks)
for the word-memo one in `rweets.preprocess`, and a line-at-a-time JSONL
reader (one `json.loads` per line as file iteration yields it) for the
chunk-decoding reader of `rweets.jsonl`. The module also holds the helpers
only tests use: a (row, col, value) matrix builder, an all-zero logistic
regression, a finite-difference gradient check, an artifact header
rewriter, a writer of the version-1 matrix layout, a metrics record from
plain loops over a confusion matrix, a metrics report read back from its
record and dataset class statistics, and the dense forms of a matrix (to
and from a 2-D array, and the cosine of two rows).
"""

import hashlib
import itertools
import json
import math
import re
import string
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rweets import artifact, lexicon
from rweets.errors import ValidationError
from rweets.features import (
    TFIDF,
    NgramCounts,
    Vocabulary,
    idf_vector,
    l2_normalize_rows,
)
from rweets.metrics import MetricsReport, PerClassMetrics
from rweets.models import LogisticRegression, _label_indices, _loss_and_grads, _resolve_classes
from rweets.preprocess import (
    _MENT_RE,
    _NOT_ALLOWED_RE,
    _PLACEHOLDER_SPLIT,
    _RT_RE,
    PLACEHOLDERS,
    CleanCorpus,
    PipelineConfig,
    PreprocessReport,
    drop_if_short,
    lemmatize,
    remove_stopwords,
    strip_non_ascii,
    tokenize,
)
from rweets.sparse import SparseMatrix

# --- dense tf / tf-idf -------------------------------------------------------


def from_triplets(rows: int, cols: int, triplets) -> SparseMatrix:
    """A matrix built from (row, col, value) triples in any order, through
    `SparseMatrix.from_coordinates`: zero values are dropped, duplicate
    coordinates are an error."""
    triplets = list(triplets)
    r, c, v = (
        np.fromiter((t[k] for t in triplets), dtype=np.float64, count=len(triplets))
        for k in range(3)
    )
    if np.any(r % 1) or np.any(c % 1):
        raise ValidationError("triplet coordinates must be integers")
    return SparseMatrix.from_coordinates(rows, cols, r.astype(np.int64), c.astype(np.int64), v)


def from_dense(array) -> SparseMatrix:
    """The nonzero entries of a 2-D array as a matrix."""
    array = np.asarray(array, dtype=np.float64)
    r, c = np.nonzero(array)
    return SparseMatrix.from_coordinates(*array.shape, r, c, array[r, c])


def cosine(a, b) -> float:
    """dot(a, b) / (|a| |b|) of two dense vectors; zero when either is all
    zero."""
    norm_a, norm_b = math.sqrt(sum(x * x for x in a)), math.sqrt(sum(x * x for x in b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (norm_a * norm_b)


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


# --- string-per-occurrence vocabulary and tf ----------------------------------


def extract_ngrams(tokens, n: int) -> list[str]:
    """Space-joined contiguous windows of length n, in reading order."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    tokens = list(tokens)
    return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _range_ngrams(tokens, lo, hi):
    for n in range(lo, hi + 1):
        yield from extract_ngrams(tokens, n)


def reference_count_ngrams(docs, ngram_range) -> NgramCounts:
    """`count_ngrams` one n-gram string at a time: every n-gram is joined and
    interned in stream order, and a doc's (term, count) entries run in the
    order its terms first occur."""
    lo, hi = ngram_range
    ids: dict[str, int] = {}
    doc, term, count = [], [], []
    for d, tokens in enumerate(docs):
        counts: dict[int, int] = {}
        for gram in _range_ngrams(tokens, lo, hi):
            t = ids.setdefault(gram, len(ids))
            counts[t] = counts.get(t, 0) + 1
        for t, n in counts.items():
            doc.append(d)
            term.append(t)
            count.append(n)
    return NgramCounts(tuple(ids), (lo, hi), len(docs), *(np.array(a, dtype=np.int64)
                                                          for a in (doc, term, count)))


def reference_build_vocabulary(docs, ngram_range, min_df=1, max_df=1.0) -> Vocabulary:
    """Scan token lists, assign columns in first-appearance order, and drop
    terms whose document frequency falls outside [min_df, max_df * N]."""
    lo, hi = ngram_range
    docs = list(docs)
    order: dict[str, int] = {}
    dfs: dict[str, int] = {}
    for tokens in docs:
        seen = set()
        for term in _range_ngrams(tokens, lo, hi):
            if term not in order:
                order[term] = len(order)
            if term not in seen:
                seen.add(term)
                dfs[term] = dfs.get(term, 0) + 1
    n_docs = len(docs)
    df_cap = max_df * n_docs
    terms = [t for t in order if min_df <= dfs[t] <= df_cap]
    if not terms:
        raise ValidationError("vocabulary is empty after document-frequency filtering")
    return Vocabulary(
        terms=tuple(terms),
        ngram_range=(lo, hi),
        doc_freqs=tuple(dfs[t] for t in terms),
        n_docs=n_docs,
    )


def reference_vectorize_tf(docs, vocab: Vocabulary) -> SparseMatrix:
    """Raw term counts; terms outside the vocabulary are ignored."""
    docs = list(docs)
    lo, hi = vocab.ngram_range
    triplets = []
    for r, tokens in enumerate(docs):
        counts: dict[int, int] = {}
        for term in _range_ngrams(tokens, lo, hi):
            col = vocab.index.get(term)
            if col is not None:
                counts[col] = counts.get(col, 0) + 1
        triplets.extend((r, col, float(n)) for col, n in counts.items())
    return from_triplets(len(docs), len(vocab), triplets)


def reference_featurize(docs, config, vocab=None, rule_block=None):
    """(vocabulary, matrix) as `featurize_tokens` builds them, through the
    string path: vocabulary from `docs` unless given, tf, then idf and L2
    as the config asks, then the rule block."""
    if vocab is None:
        vocab = reference_build_vocabulary(docs, config.ngram_range, config.min_df,
                                           config.max_df)
    matrix = reference_vectorize_tf(docs, vocab)
    if config.vectorizer == TFIDF:
        matrix = matrix.scale_columns(idf_vector(vocab))
    if config.l2_normalize:
        matrix = l2_normalize_rows(matrix)
    if rule_block is not None:
        matrix = matrix.append_dense_columns(rule_block)
    return vocab, matrix


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
# Each `add_at_` function has the signature of the SparseMatrix method it
# checks, so a test can install it in the method's place.


def to_dense(m: SparseMatrix) -> np.ndarray:
    """`m` as a dense array; scipy's `toarray` checks it in test_sparse."""
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
    labels = _label_indices(y, classes)
    rng = np.random.default_rng(seed)
    W = rng.normal(scale=0.5, size=(len(classes), X.cols))
    b = rng.normal(scale=0.5, size=len(classes))
    _, grad_w, grad_b = _loss_and_grads(X, labels, W, b, l2)

    def loss_at(W_try, b_try):
        return _loss_and_grads(X, labels, W_try, b_try, l2)[0]

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


def scipy_logreg_optimum(X: SparseMatrix, y, classes, l2: float) -> float:
    """Minimum of mean softmax cross-entropy plus (l2/2)||W||^2 (bias not
    penalized), found by scipy's L-BFGS-B on a dense one-hot formulation
    with its own gradient, started from zero like LogisticRegression."""
    from scipy.optimize import minimize
    from scipy.special import logsumexp

    dense = to_dense(X)
    n, d = dense.shape
    k = len(classes)
    Y = np.array([[1.0 if label == c else 0.0 for c in classes] for label in y])

    def objective(theta):
        W, b = theta[: k * d].reshape(k, d), theta[k * d :]
        scores = dense @ W.T + b
        log_probs = scores - logsumexp(scores, axis=1, keepdims=True)
        loss = -np.sum(Y * log_probs) / n + 0.5 * l2 * np.sum(W * W)
        residual = (np.exp(log_probs) - Y) / n
        grad = np.concatenate(((residual.T @ dense + l2 * W).ravel(), residual.sum(axis=0)))
        return loss, grad

    result = minimize(
        objective, np.zeros(k * d + k), jac=True, method="L-BFGS-B",
        options={"maxiter": 10_000, "gtol": 1e-10, "ftol": 1e-15},
    )
    return float(result.fun)


# --- per-op cleaning runner ----------------------------------------------------
# The text ops as they were before the fast path: no pre-checks, so a guard
# that skips a pattern which could have matched shows up as a difference.

# The number pattern as the paper's source writes it; `rweets.preprocess`
# compiles an equivalent one without the nested repeat, which `re` runs faster.
SOURCE_NUM_RE = re.compile(r"(?:(?:\d+,?)+(?:\.?\d+)?)")
# The source's URL pattern, and the bare www. host pattern as first written,
# with the word boundary ahead of its literal.
_SOURCE_URL_BODY = r"(?:[a-z]|[0-9]|[$-_@.&+]|[!*\(\),]|(?:%[0-9a-f][0-9a-f]))+"
SOURCE_URL_RE = re.compile(r"http[s]? ?: ?//" + _SOURCE_URL_BODY)
SOURCE_WWW_RE = re.compile(r"\bwww\." + _SOURCE_URL_BODY)
# The language filter trims a lowercased word's leading and trailing
# characters outside [a-z'] before the lexicon lookup.
_EDGE_TRIM_RE = re.compile(r"^[^a-z']+|[^a-z']+$")


def _map_around_placeholders(text: str, fn) -> str:
    parts = _PLACEHOLDER_SPLIT.split(text)
    return "".join(part if part in PLACEHOLDERS else fn(part) for part in parts)


def _is_english(text: str, threshold: float = 0.15) -> bool:
    words = text.split()
    if not words:
        return False
    evidence = lexicon.english_evidence()
    hits = 0
    for word in words:
        if word in PLACEHOLDERS:
            hits += 1
            continue
        trimmed = _EDGE_TRIM_RE.sub("", word.lower())
        if trimmed and trimmed in evidence:
            hits += 1
    if len(words) < 3:
        return hits >= 1
    return hits / len(words) >= threshold


def _lowercase(text: str) -> str:
    return _map_around_placeholders(text, str.lower)


def _generalize_tags(text: str) -> str:
    text = SOURCE_NUM_RE.sub("_NUM_", text)
    text = _RT_RE.sub("_RT_", text)
    text = _MENT_RE.sub("_MENT_", text)
    text = SOURCE_URL_RE.sub("_URL_", text)
    text = SOURCE_WWW_RE.sub("_URL_", text)
    return text


def _remove_punctuation(text: str) -> str:
    cleaned = _map_around_placeholders(text, lambda seg: _NOT_ALLOWED_RE.sub(" ", seg))
    return " ".join(cleaned.split())


def _word_count(state) -> int:
    return len(state) if isinstance(state, list) else len(state.split())


_TEXT_FNS = {
    "strip_non_ascii": strip_non_ascii,
    "lowercase": _lowercase,
    "generalize_tags": _generalize_tags,
    "remove_punctuation": _remove_punctuation,
}

_TOKEN_FNS = {
    "remove_stopwords": remove_stopwords,
    "lemmatize": lemmatize,
}


def _apply(op: str, state):
    """Dispatch an op, adapting text ops to token state by join/split."""
    if op in _TOKEN_FNS:
        return _TOKEN_FNS[op](state)
    fn = _TEXT_FNS[op]
    if isinstance(state, list):
        return fn(" ".join(state)).split()
    return fn(state)


def dedupe(rows: list[tuple]) -> list[tuple]:
    """Collapse (id, tokens, label) rows with identical token strings,
    keeping the first."""
    seen: set[str] = set()
    kept = []
    for row in rows:
        key = " ".join(row[1])
        if key not in seen:
            seen.add(key)
            kept.append(row)
    return kept


def reference_clean(dataset, config: PipelineConfig | None = None):
    """`run_pipeline` as a per-op dispatch loop that counts words before and
    after every op; returns (CleanCorpus, PreprocessReport)."""
    config = config or PipelineConfig()

    filter_stages = ("is_english", "drop_if_short", "dedupe")
    removed: dict[str, int] = {op: 0 for op in config.ops if op in filter_stages}
    deltas: dict[str, int] = {}
    survivors: list[tuple] = []  # (id, tokens, label) rows

    for tweet in dataset:
        state: str | list[str] = tweet.text
        dropped = False
        for op in config.ops:
            if op == "dedupe":
                continue
            before = _word_count(state)
            if op == "is_english":
                if not _is_english(state, config.english_threshold):
                    removed[op] += 1
                    dropped = True
                    break
                continue
            if op == "tokenize":
                state = tokenize(state)
                continue
            if op == "drop_if_short":
                kept = drop_if_short(state, config.min_tokens)
                if kept is None:
                    removed[op] += 1
                    dropped = True
                    break
                state = kept
            else:
                state = _apply(op, state)
            deltas[op] = deltas.get(op, 0) + (_word_count(state) - before)
        if dropped:
            continue
        tokens = tuple(state) if isinstance(state, list) else tuple(state.split())
        if not tokens:
            removed["empty"] = removed.get("empty", 0) + 1
            continue
        survivors.append((tweet.id, tokens, tweet.label))

    if "dedupe" in config.ops:
        before_dedupe = len(survivors)
        survivors = dedupe(survivors)
        removed["dedupe"] = before_dedupe - len(survivors)

    corpus = CleanCorpus(
        tuple(row[0] for row in survivors),
        tuple(row[1] for row in survivors),
        tuple(row[2] for row in survivors),
        config.digest,
    )
    report = PreprocessReport(
        input_count=len(dataset),
        output_count=len(corpus),
        removed_by_stage=removed,
        token_deltas=deltas,
    )
    return corpus, report


# --- JSONL reading and dataset statistics --------------------------------------


def reference_read_records(path, fields=("id", "text"), domain=None) -> list[dict]:
    """`rweets.jsonl.read_records` as a loop over the file's byte lines (split
    at CRLF, CR and LF, as text mode splits them), each UTF-8 decoded and
    JSON decoded on its own and checked in turn; every record is re-encoded
    to find lone surrogates."""
    records, ids = [], set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(re.split(rb"\r\n|\r|\n", fh.read()), start=1):
            where = f"{path}: line {lineno}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ValidationError(f"{where}: bytes that are not UTF-8") from None
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{where}: malformed JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise ValidationError(f"{where}: record is not an object")
            try:
                json.dumps(record, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise ValidationError(
                    f"{where}: lone surrogate escape (not valid Unicode)") from None
            for name in fields:
                value = record.get(name)
                if name == "id" and not (isinstance(value, str) and value):
                    raise ValidationError(f"{where}: 'id' must be a nonempty string")
                if not isinstance(value, str):
                    raise ValidationError(f"{where}: {name!r} must be a string")
            label = record.get("label")
            if domain is not None and label is not None and label not in domain:
                raise ValidationError(
                    f"{where}: unknown label {label!r} for domain {domain.name!r}")
            if "id" in fields:
                if record["id"] in ids:
                    raise ValidationError(f"{where}: duplicate tweet id {record['id']!r}")
                ids.add(record["id"])
            records.append(record)
    return records


def with_header(data: bytes, change) -> bytes:
    """`rweets.artifact` file bytes whose JSON header went through `change`."""
    size = int.from_bytes(data[:4], "little")
    header = json.loads(data[4:4 + size])
    change(header)
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return len(raw).to_bytes(4, "little") + raw + data[4 + size:]


def save_version_1_matrix(fm, path, digest: str) -> None:
    """Write `fm` in the version-1 matrix layout, which `save_matrix` wrote
    before the narrow one: `indptr` and `indices` as int64, `data` as
    float64, then the row ids and the vocabulary."""
    m, vocab = fm.matrix, fm.vocab
    meta = {"n_docs": vocab.n_docs, "ngram_range": vocab.ngram_range, "rows": m.rows,
            "cols": m.cols}
    arrays = {"indptr": m.indptr, "indices": m.indices, "data": m.data,
              "row_ids": fm.row_ids, "terms": vocab.terms}
    if vocab.doc_freqs is not None:
        arrays["doc_freqs"] = np.asarray(vocab.doc_freqs, dtype=np.int64)
    artifact.save(path, "matrix", digest, meta, **arrays)
    data = Path(path).read_bytes()  # the sorted header ends in its version
    assert data.count(b'"version":2}') == 1
    Path(path).write_bytes(data.replace(b'"version":2}', b'"version":1}'))


def reference_report(cm, labels) -> dict:
    """The `render_record` fields of a confusion matrix (rows actual, columns
    predicted), from plain-Python loops over its cells."""
    size = len(labels)
    cells = [[int(cm[i][j]) for j in range(size)] for i in range(size)]
    total = trace = 0
    row_sums, col_sums = [0] * size, [0] * size
    for i in range(size):
        for j in range(size):
            total += cells[i][j]
            row_sums[i] += cells[i][j]
            col_sums[j] += cells[i][j]
            if i == j:
                trace += cells[i][j]

    def ratio(num, den):
        return num / den if den else 0.0

    def f1(p, r):
        return ratio(2.0 * p * r, p + r)

    # every prediction that is not a true positive is one false positive
    # and one false negative, so both pooled denominators are the total
    p_micro = r_micro = ratio(trace, total)
    per_p = [ratio(cells[i][i], col_sums[i]) for i in range(size)]
    per_r = [ratio(cells[i][i], row_sums[i]) for i in range(size)]
    p_macro, r_macro = sum(per_p) / size, sum(per_r) / size
    return {
        "accuracy": ratio(trace, total),
        "p_micro": p_micro,
        "r_micro": r_micro,
        "f1_micro": f1(p_micro, r_micro),
        "p_macro": p_macro,
        "r_macro": r_macro,
        "f1_macro": f1(p_macro, r_macro),
        "per_class": [
            {"label": labels[i], "precision": per_p[i], "recall": per_r[i],
             "f1": f1(per_p[i], per_r[i]), "support": row_sums[i]}
            for i in range(size)
        ],
    }


def report_from_record(record: dict) -> MetricsReport:
    """The report a `render_record` line was written from."""
    per_class = tuple(PerClassMetrics(**pc) for pc in record["per_class"])
    return MetricsReport(**{**record, "per_class": per_class})


@dataclass(frozen=True)
class ClassDistribution:
    counts: dict[str, int] = field(default_factory=dict)
    fractions: dict[str, float] = field(default_factory=dict)


def dataset_stats(dataset) -> ClassDistribution:
    """Counts and fractions over labeled tweets; empty for unlabeled data."""
    counts: dict[str, int] = {}
    for tw in dataset:
        if tw.label is not None:
            counts[tw.label] = counts.get(tw.label, 0) + 1
    total = sum(counts.values())
    fractions = {label: n / total for label, n in counts.items()} if total else {}
    return ClassDistribution(counts, fractions)



def length_prefixed_digest(records) -> str:
    """`digest_records` as it was before its batched stream, which keyed
    series cache entries and `featurize --out` matrices: each field's UTF-8
    byte length (8 bytes, little-endian), then its bytes."""
    h = hashlib.sha256()
    fields = itertools.chain.from_iterable(records)
    while data := list(map(str.encode, itertools.islice(fields, 2048))):
        stream = data * 2  # each field's length, then its bytes
        stream[::2], stream[1::2] = map(struct.Struct("<Q").pack, map(len, data)), data
        h.update(b"".join(stream))
    return h.hexdigest()[:16]
