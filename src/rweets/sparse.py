"""Row-compressed sparse matrix holding only nonzero (row, col, value)
entries, plus the small set of operations the classifiers need.

Entries are kept row-major with strictly increasing column indices inside
each row; duplicate coordinates are rejected, zeros are dropped.

Every reduction (products, row norms, group sums) accumulates each output
element's terms in stored-entry order, starting from 0.0, through
`np.bincount`: bit-identical to summing the entries one by one in a loop.
"""

import numpy as np

from .errors import ValidationError


class SparseMatrix:
    def __init__(self, rows: int, cols: int, indptr, indices, data):
        self.rows = int(rows)
        self.cols = int(cols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self._row_of_nnz = None
        self._validate()

    def _validate(self):
        if self.rows < 0 or self.cols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        if len(self.indptr) != self.rows + 1 or self.indptr[0] != 0:
            raise ValidationError("malformed row pointer array")
        if self.indptr[-1] != len(self.indices) or len(self.indices) != len(self.data):
            raise ValidationError("index and value arrays disagree with row pointers")
        falls = np.flatnonzero(np.diff(self.indptr) < 0)
        if len(falls):
            raise ValidationError(f"row pointers must be nondecreasing (row {falls[0]})")
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= self.cols):
            raise ValidationError("column index out of range")
        # a column step that crosses into the next row may fall; inside a row
        # every step must rise
        rises = np.diff(self.indices) > 0
        starts = self.indptr[1:-1]
        rises[starts[(starts > 0) & (starts < len(self.indices))] - 1] = True
        bad = np.flatnonzero(~rises)
        if len(bad):
            raise ValidationError(
                f"row {self._row_of(bad[0] + 1)} has unsorted or duplicate column indices"
            )
        if len(self.data) and not np.all(np.isfinite(self.data)):
            raise ValidationError("matrix values must be finite")
        zeros = np.flatnonzero(self.data == 0.0)
        if len(zeros):
            raise ValidationError(f"stored values must be nonzero (row {self._row_of(zeros[0])})")

    def _row_of(self, k) -> int:
        """The row that holds stored entry k."""
        return int(np.searchsorted(self.indptr, k, side="right")) - 1

    # --- constructors -------------------------------------------------------

    @classmethod
    def from_coordinates(cls, rows: int, cols: int, r, c, v) -> "SparseMatrix":
        """Build from parallel int64 row and column and float64 value arrays,
        in any order. Zero values are dropped; duplicate coordinates are an
        error."""
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        kept = v != 0.0
        r, c, v = r[kept], c[kept], v[kept]
        order = np.lexsort((c, r))
        r, c, v = r[order], c[order], v[order]
        outside = (r < 0) | (r >= rows) | (c < 0) | (c >= cols)
        repeated = np.zeros(len(r), dtype=bool)
        repeated[1:] = (r[1:] == r[:-1]) & (c[1:] == c[:-1])
        bad = np.flatnonzero(outside | repeated)
        if len(bad):
            k = bad[0]
            if outside[k]:
                raise ValidationError(f"entry ({r[k]},{c[k]}) outside {rows}x{cols} matrix")
            raise ValidationError(f"duplicate entry at ({r[k]},{c[k]})")
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=rows), out=indptr[1:])
        return cls(rows, cols, indptr, c, v)

    # --- inspection ---------------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.data)

    def _nnz_rows(self) -> np.ndarray:
        if self._row_of_nnz is None:
            self._row_of_nnz = np.repeat(
                np.arange(self.rows, dtype=np.int64), np.diff(self.indptr)
            )
        return self._row_of_nnz

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    # --- transforms ---------------------------------------------------------

    def row_norms(self) -> np.ndarray:
        return np.sqrt(np.bincount(self._nnz_rows(), self.data * self.data, minlength=self.rows))

    def scale_rows(self, factors) -> "SparseMatrix":
        factors = np.asarray(factors, dtype=np.float64)
        if len(factors) != self.rows:
            raise ValidationError("one scale factor per row required")
        data = self.data * factors[self._nnz_rows()]
        return SparseMatrix(self.rows, self.cols, self.indptr.copy(), self.indices.copy(), data)

    def scale_columns(self, factors) -> "SparseMatrix":
        factors = np.asarray(factors, dtype=np.float64)
        if len(factors) != self.cols:
            raise ValidationError("one scale factor per column required")
        data = self.data * factors[self.indices]
        return SparseMatrix(self.rows, self.cols, self.indptr.copy(), self.indices.copy(), data)

    def append_dense_columns(self, block) -> "SparseMatrix":
        """Widen the matrix with a dense column block (row counts must match);
        only nonzero block entries are stored."""
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != self.rows:
            raise ValidationError(
                f"column block must have {self.rows} rows, got shape {block.shape}"
            )
        extra = block.shape[1]
        block_rows, block_cols = np.nonzero(block)
        # each row keeps its own entries, then its block entries: a stable
        # sort on the row alone leaves both runs in column order
        order = np.argsort(
            np.concatenate([self._nnz_rows(), block_rows]), kind="stable"
        )
        indptr = np.zeros(self.rows + 1, dtype=np.int64)
        np.cumsum(
            np.diff(self.indptr) + np.bincount(block_rows, minlength=self.rows),
            out=indptr[1:],
        )
        return SparseMatrix(
            self.rows,
            self.cols + extra,
            indptr,
            np.concatenate([self.indices, block_cols + self.cols])[order],
            np.concatenate([self.data, block[block_rows, block_cols]])[order],
        )

    # --- linear algebra -----------------------------------------------------

    def matmul_dense(self, weights: np.ndarray) -> np.ndarray:
        """self @ weights for a dense (cols, k) matrix; returns (rows, k)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != self.cols:
            raise ValidationError(
                f"weight matrix has {weights.shape[0]} rows, expected {self.cols}"
            )
        rows = self._nnz_rows()
        out = np.empty((self.rows, weights.shape[1]))
        # one contiguous row per output column; for the usual `W.T` argument
        # this is W itself, no copy
        for j, column in enumerate(np.ascontiguousarray(weights.T)):
            out[:, j] = np.bincount(rows, self.data * column[self.indices], minlength=self.rows)
        return out

    def t_matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        """self.T @ dense for a dense (rows, k) matrix; returns (cols, k)."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.shape[0] != self.rows:
            raise ValidationError(f"matrix has {dense.shape[0]} rows, expected {self.rows}")
        rows = self._nnz_rows()
        out = np.empty((self.cols, dense.shape[1]))
        for j, column in enumerate(np.ascontiguousarray(dense.T)):
            out[:, j] = np.bincount(self.indices, self.data * column[rows], minlength=self.cols)
        return out

    def sum_rows_by_group(self, groups, n_groups: int) -> np.ndarray:
        """Sum rows into n_groups buckets given a per-row group index."""
        groups = np.asarray(groups, dtype=np.int64)
        if len(groups) != self.rows:
            raise ValidationError("one group index per row required")
        if len(groups) and (groups.min() < 0 or groups.max() >= n_groups):
            raise ValidationError(f"group indices must lie in [0, {n_groups})")
        cells = groups[self._nnz_rows()] * self.cols + self.indices
        sums = np.bincount(cells, self.data, minlength=n_groups * self.cols)
        # bincount gives int64 zeros when there are no entries to sum
        return sums.reshape(n_groups, self.cols).astype(np.float64, copy=False)
