"""N-gram feature generation over cleaned corpora: vocabulary building,
sparse tf / tf-idf matrices, L2 row normalization, optional rule-feature
columns, and the 24 standard feature configurations.

Every path counts a corpus once (`count_ngrams`): each n-gram is joined and
interned once, and each (doc, term) pair keeps its count, in the order the
doc's terms first occur.
A fold's vocabulary is the training rows' `counts.take(rows)`: the terms
whose df over those rows passes the [min_df, max_df * N] filter, in first
appearance among those rows. Vocabulary and matrices are bit-identical to
rebuilding them from the fold's token lists.

Inverse document frequency uses the smoothed form

    idf(t) = ln((1 + N) / (1 + df(t))) + 1

which is strictly positive and defined for unseen terms. Rule-feature
columns, when appended, stay binary and are added AFTER row normalization of
the n-gram block so the bits remain on the same unit scale as normalized
rows.
"""

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import artifact
from .digest import digest_json
from .errors import FormatError, ValidationError
from .rules import N_PATTERNS
from .sparse import SparseMatrix

NGRAM_RANGES = ((1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (1, 3))
TF = "tf"
TFIDF = "tf-idf"


@dataclass(frozen=True)
class FeatureConfig:
    """One point in the 2 vectorizers x 6 ranges x 2 rule-flags grid, plus
    document-frequency bounds and the normalization switch."""

    vectorizer: str = TF
    ngram_range: tuple[int, int] = (1, 1)
    append_rules: bool = False
    min_df: int = 1
    max_df: float = 1.0
    l2_normalize: bool = True

    def __post_init__(self):
        object.__setattr__(self, "ngram_range", tuple(self.ngram_range))
        if self.vectorizer not in (TF, TFIDF):
            raise ValidationError(f"vectorizer must be {TF!r} or {TFIDF!r}")
        if self.ngram_range not in NGRAM_RANGES:
            raise ValidationError(
                f"ngram_range must be one of {NGRAM_RANGES}, got {self.ngram_range}"
            )
        if self.min_df < 1:
            raise ValidationError("min_df must be at least 1")
        if not 0.0 < self.max_df <= 1.0:
            raise ValidationError("max_df must be in (0, 1]")

    @property
    def digest(self) -> str:
        return digest_json({"kind": "features", **asdict(self)})


def enumerate_combos() -> tuple[FeatureConfig, ...]:
    """The 24 standard configurations: tf combos 1-12, tf-idf combos 13-24;
    within each vectorizer, plain n-grams first, then rule-extended."""
    combos = []
    for vectorizer in (TF, TFIDF):
        for append_rules in (False, True):
            for ngram_range in NGRAM_RANGES:
                combos.append(
                    FeatureConfig(
                        vectorizer=vectorizer,
                        ngram_range=ngram_range,
                        append_rules=append_rules,
                    )
                )
    return tuple(combos)


def combo(index: int) -> FeatureConfig:
    """1-based lookup into the 24 standard configurations."""
    if not 1 <= index <= 24:
        raise ValidationError(f"combo index must be in 1..24, got {index}")
    return enumerate_combos()[index - 1]


# --- n-grams and vocabulary -------------------------------------------------


@dataclass(frozen=True)
class Vocabulary:
    """Term-to-column mapping in first-appearance order, with the document
    frequencies observed in the corpus it was built from."""

    terms: tuple[str, ...]
    ngram_range: tuple[int, int]
    doc_freqs: tuple[int, ...] | None = None
    n_docs: int | None = None
    index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not self.index:
            object.__setattr__(self, "index", {t: i for i, t in enumerate(self.terms)})

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index

    @property
    def digest(self) -> str:
        return digest_json(
            {
                "kind": "vocabulary",
                "terms": list(self.terms),
                "range": list(self.ngram_range),
                "doc_freqs": list(self.doc_freqs) if self.doc_freqs else None,
                "n_docs": self.n_docs,
            }
        )


@dataclass(frozen=True, eq=False)
class NgramCounts:
    """A corpus counted once: one entry per (doc, term) with the term's count.
    A doc's entries run in the order its terms first occur in its n-gram
    stream (unigrams, then bigrams, ...); docs run in order until `take`
    reorders them. Term ids index `terms`, which holds each n-gram string
    once in corpus first-appearance order."""

    terms: tuple[str, ...]
    ngram_range: tuple[int, int]
    n_docs: int
    doc: np.ndarray
    term: np.ndarray
    count: np.ndarray

    def __len__(self) -> int:
        return self.n_docs

    def take(self, rows) -> "NgramCounts":
        """The counts of `rows` (distinct doc indices), renumbered 0.. in the
        order given."""
        rows = np.asarray(rows, dtype=np.int64)
        position = np.full(self.n_docs, -1, dtype=np.int64)
        position[rows] = np.arange(len(rows))
        doc = position[self.doc]
        kept = doc >= 0
        return replace(self, n_docs=len(rows), doc=doc[kept], term=self.term[kept],
                       count=self.count[kept])


def count_ngrams(docs, ngram_range) -> NgramCounts:
    """Join every n-gram of the token lists once, intern it, and count it per
    doc."""
    lo, hi = ngram_range
    if not 1 <= lo <= hi <= 3:
        raise ValidationError(f"ngram range must satisfy 1 <= lo <= hi <= 3, got {ngram_range}")
    ids: dict[str, int] = {}
    stream, lengths = [], []
    for tokens in docs:
        grams = [" ".join(tokens[i : i + n]) for n in range(lo, hi + 1)
                 for i in range(len(tokens) - n + 1)]
        stream.extend([ids.setdefault(g, len(ids)) for g in grams])
        lengths.append(len(grams))
    stream = np.array(stream, dtype=np.int64)
    doc = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    # the first stream index of each (doc, term) pair, in stream order; sorts
    # here are stable: numpy's SIMD quicksort would map 0.4 MiB more code
    _, at, count = np.unique(doc * len(ids) + stream, return_index=True, return_counts=True)
    order = np.argsort(at, kind="stable")
    at = at[order]
    return NgramCounts(tuple(ids), (lo, hi), len(lengths), doc[at], stream[at], count[order])


def _counted(docs, ngram_range) -> NgramCounts:
    """`docs` as counts: token lists are counted, counts are checked."""
    if not isinstance(docs, NgramCounts):
        return count_ngrams(docs, ngram_range)
    if docs.ngram_range != tuple(ngram_range):
        raise ValidationError(f"counts of range {docs.ngram_range}, expected {ngram_range}")
    return docs


def build_vocabulary(docs, ngram_range, min_df: int = 1, max_df: float = 1.0) -> Vocabulary:
    """Columns in first-appearance order (first doc, then first position in
    it) among the terms whose document frequency lies in [min_df, max_df * N].
    `docs` is token lists or counts of the same range."""
    counts = _counted(docs, ngram_range)
    dfs = np.bincount(counts.term, minlength=len(counts.terms))
    seen = counts.term[np.argsort(counts.doc, kind="stable")]
    _, at = np.unique(seen, return_index=True)
    ranked = seen[np.sort(at, kind="stable")]
    kept = ranked[(dfs[ranked] >= min_df) & (dfs[ranked] <= max_df * counts.n_docs)]
    if not len(kept):
        raise ValidationError("vocabulary is empty after document-frequency filtering")
    return Vocabulary(
        terms=tuple(counts.terms[t] for t in kept.tolist()),
        ngram_range=counts.ngram_range,
        doc_freqs=tuple(dfs[kept].tolist()),
        n_docs=counts.n_docs,
    )


def vectorize_tf(docs, vocab: Vocabulary) -> SparseMatrix:
    """Raw term counts of token lists or counts; terms outside the vocabulary
    are ignored."""
    counts = _counted(docs, vocab.ngram_range)
    present = np.flatnonzero(np.bincount(counts.term, minlength=len(counts.terms)))
    column = np.full(len(counts.terms), -1, dtype=np.int64)
    column[present] = [vocab.index.get(counts.terms[t], -1) for t in present.tolist()]
    cols = column[counts.term]
    kept = cols >= 0
    return SparseMatrix.from_coordinates(counts.n_docs, len(vocab), counts.doc[kept], cols[kept],
                                         counts.count[kept].astype(np.float64))


def idf_vector(vocab: Vocabulary) -> np.ndarray:
    if vocab.doc_freqs is None or vocab.n_docs is None:
        raise ValidationError("vocabulary carries no document frequencies")
    dfs = np.asarray(vocab.doc_freqs, dtype=np.float64)
    return np.log((1.0 + vocab.n_docs) / (1.0 + dfs)) + 1.0


def vectorize_tfidf(docs, vocab: Vocabulary) -> SparseMatrix:
    """tf * idf with the smoothed idf; idf comes from the vocabulary's own
    document frequencies."""
    return vectorize_tf(docs, vocab).scale_columns(idf_vector(vocab))


def l2_normalize_rows(matrix: SparseMatrix) -> SparseMatrix:
    """Scale every nonempty row to unit Euclidean norm; empty rows pass
    through."""
    norms = matrix.row_norms()
    factors = np.where(norms > 0.0, 1.0 / np.where(norms > 0.0, norms, 1.0), 1.0)
    return matrix.scale_rows(factors)


# --- feature matrices -------------------------------------------------------


@dataclass(frozen=True)
class FeatureMatrix:
    matrix: SparseMatrix
    vocab: Vocabulary
    config: FeatureConfig
    row_ids: tuple[str, ...]

    def __post_init__(self):
        expected = len(self.vocab) + (N_PATTERNS if self.config.append_rules else 0)
        if self.matrix.cols != expected:
            raise ValidationError(
                f"matrix has {self.matrix.cols} columns, config implies {expected}"
            )
        if self.matrix.rows != len(self.row_ids):
            raise ValidationError(
                f"matrix has {self.matrix.rows} rows but {len(self.row_ids)} row ids"
            )


def featurize_tokens(
    docs,
    ids,
    config: FeatureConfig,
    vocab: Vocabulary | None = None,
    rule_block: np.ndarray | None = None,
    counts_only: bool = False,
) -> FeatureMatrix:
    """Low-level featurization of token lists, or of their `NgramCounts`
    (e.g. `counts.take(rows)` of a corpus counted once).

    When `vocab` is None it is built from `docs` (the fit path); passing a
    vocabulary vectorizes new documents against an existing column space.
    `counts_only` skips idf weighting and normalization for classifiers
    defined on raw counts; the rule block is appended either way.
    """
    docs = _counted(docs, config.ngram_range)
    ids = tuple(ids)
    if len(docs) != len(ids):
        raise ValidationError("one id per document required")
    if vocab is None:
        vocab = build_vocabulary(docs, config.ngram_range, config.min_df, config.max_df)
    elif vocab.ngram_range != config.ngram_range:
        raise ValidationError(
            f"vocabulary range {vocab.ngram_range} differs from config {config.ngram_range}"
        )
    use_idf = config.vectorizer == TFIDF and not counts_only
    matrix = (vectorize_tfidf if use_idf else vectorize_tf)(docs, vocab)
    if config.l2_normalize and not counts_only:
        matrix = l2_normalize_rows(matrix)
    if config.append_rules:
        # the 18 binary rule columns go after normalization, unscaled
        if rule_block is None:
            raise ValidationError("config appends rule features but no rule block was given")
        rule_block = np.asarray(rule_block, dtype=np.float64)
        if rule_block.shape != (matrix.rows, N_PATTERNS):
            raise ValidationError(
                f"rule block has shape {rule_block.shape}, expected ({matrix.rows}, {N_PATTERNS})"
            )
        matrix = matrix.append_dense_columns(rule_block)
    return FeatureMatrix(matrix=matrix, vocab=vocab, config=config, row_ids=ids)


# --- persistence ------------------------------------------------------------


def _vocab_fields(vocab: Vocabulary) -> tuple[dict, dict]:
    """The header meta and the arrays that store a vocabulary."""
    arrays = {"terms": vocab.terms}
    if vocab.doc_freqs is not None:
        arrays["doc_freqs"] = np.asarray(vocab.doc_freqs, dtype=np.int64)
    return {"n_docs": vocab.n_docs, "ngram_range": vocab.ngram_range}, arrays


def _vocab_from(meta: dict, arrays: dict) -> Vocabulary:
    freqs = arrays.get("doc_freqs")
    return Vocabulary(
        terms=arrays["terms"],
        ngram_range=tuple(meta["ngram_range"]),
        doc_freqs=None if freqs is None else tuple(freqs.tolist()),
        n_docs=meta["n_docs"],
    )


def save_matrix(fm: FeatureMatrix, path, digest: str | None = None) -> None:
    """Write the matrix, its vocabulary and its row ids as one artifact.

    The header digest defaults to the feature-config digest; callers that
    key artifacts on more than the configuration (e.g. input content) pass
    the wider digest explicitly.
    """
    m = fm.matrix
    meta, arrays = _vocab_fields(fm.vocab)
    meta.update(rows=m.rows, cols=m.cols)
    artifact.save(path, "matrix", digest or fm.config.digest, meta, indptr=m.indptr,
                  indices=m.indices, data=m.data, row_ids=fm.row_ids, **arrays)


def load_matrix(path, config: FeatureConfig, digest: str | None = None) -> FeatureMatrix:
    """Load a persisted feature matrix; the header digest must match the
    expected one (the feature-config digest unless overridden) or the
    artifact is considered stale."""
    header, arrays = artifact.load(path, "matrix", digest or config.digest)
    meta = header["meta"]
    try:
        matrix = SparseMatrix(
            meta["rows"], meta["cols"], arrays["indptr"], arrays["indices"], arrays["data"]
        )
        vocab = _vocab_from(meta, arrays)
        return FeatureMatrix(matrix=matrix, vocab=vocab, config=config, row_ids=arrays["row_ids"])
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise FormatError(f"{Path(path).name}: inconsistent matrix artifact ({exc})") from None
