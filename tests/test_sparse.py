import numpy as np
import pytest

from scipy import sparse as scipy_sparse

from oracles import (
    add_at_matmul_dense,
    add_at_row_norms,
    add_at_sum_rows_by_group,
    add_at_t_matmul_dense,
    from_dense,
    from_triplets,
    to_dense,
)
from rweets.errors import ValidationError
from rweets.sparse import SparseMatrix


def random_dense(rng, rows, cols, density=0.4):
    dense = rng.normal(size=(rows, cols))
    dense[rng.random((rows, cols)) > density] = 0.0
    return dense


class TestConstruction:
    def test_from_triplets_round_trip(self):
        m = from_triplets(2, 3, [(0, 1, 2.0), (1, 0, -1.5), (0, 2, 4.0)])
        assert m.nnz == 3
        np.testing.assert_array_equal(to_dense(m), [[0, 2.0, 4.0], [-1.5, 0, 0]])

    def test_zero_values_dropped(self):
        m = from_triplets(1, 2, [(0, 0, 0.0), (0, 1, 3.0)])
        assert m.nnz == 1

    def test_duplicate_coordinate_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            from_triplets(1, 2, [(0, 0, 1.0), (0, 0, 2.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            from_triplets(1, 2, [(0, 5, 1.0)])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            from_triplets(1, 2, [(0, 0, float("nan"))])

    def test_raw_rejects_unsorted_row(self):
        # row 0 is fine; row 2 (after empty row 1) has its columns out of order
        with pytest.raises(ValidationError, match="row 2 has unsorted"):
            SparseMatrix(4, 3, [0, 2, 2, 4, 5], [0, 2, 2, 1, 0], [1.0] * 5)

    def test_raw_rejects_repeated_column(self):
        with pytest.raises(ValidationError, match="row 1 has unsorted or duplicate"):
            SparseMatrix(2, 3, [0, 1, 3], [2, 1, 1], [1.0] * 3)

    def test_raw_allows_falling_column_across_rows(self):
        m = SparseMatrix(3, 3, [0, 2, 2, 4], [1, 2, 0, 1], [1.0] * 4)
        np.testing.assert_array_equal(to_dense(m), [[0, 1, 1], [0, 0, 0], [1, 1, 0]])

    def test_raw_rejects_stored_zero(self):
        with pytest.raises(ValidationError, match=r"stored values must be nonzero \(row 2\)"):
            SparseMatrix(3, 2, [0, 1, 1, 3], [0, 0, 1], [1.0, 2.0, 0.0])

    def test_raw_rejects_decreasing_indptr(self):
        with pytest.raises(ValidationError, match=r"nondecreasing \(row 1\)"):
            SparseMatrix(3, 2, [0, 2, 1, 2], [0, 1], [1.0, 2.0])

    def test_empty_triplets(self):
        m = from_triplets(3, 2, [])
        assert m.nnz == 0 and list(m.indptr) == [0, 0, 0, 0]
        with pytest.raises(ValidationError, match="nonnegative"):
            from_triplets(-2, 2, [])

    def test_non_integer_coordinates_rejected(self):
        with pytest.raises(ValidationError, match="integers"):
            from_triplets(2, 2, [(0.5, 1, 1.0)])

    def test_dense_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dense = random_dense(rng, rng.integers(1, 6), rng.integers(1, 6))
            np.testing.assert_array_equal(to_dense(from_dense(dense)), dense)


class TestOps:
    def test_append_dense_columns(self):
        m = from_dense([[1.0, 0], [0, 2.0]])
        wide = m.append_dense_columns([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(to_dense(wide), [[1, 0, 0, 1], [0, 2, 1, 0]])

    def test_append_rejects_row_mismatch(self):
        m = from_dense([[1.0]])
        with pytest.raises(ValidationError):
            m.append_dense_columns([[1.0], [2.0]])

    def test_row_norms_and_scaling(self):
        m = from_dense([[3.0, 4.0], [0.0, 0.0]])
        np.testing.assert_allclose(m.row_norms(), [5.0, 0.0])
        scaled = m.scale_rows([0.2, 1.0])
        np.testing.assert_allclose(to_dense(scaled), [[0.6, 0.8], [0, 0]])

    def test_column_scaling(self):
        m = from_dense([[1.0, 2.0], [0.0, 4.0]])
        np.testing.assert_allclose(
            to_dense(m.scale_columns([2.0, 0.5])), [[2.0, 1.0], [0, 2.0]]
        )

    def test_sum_rows_by_group(self):
        m = from_dense([[1.0, 0], [2.0, 1.0], [0, 5.0]])
        out = m.sum_rows_by_group([0, 1, 0], 2)
        np.testing.assert_array_equal(out, [[1.0, 5.0], [2.0, 1.0]])

    def test_sum_rows_by_group_rejects_out_of_range_group(self):
        m = from_dense([[1.0, 0], [2.0, 1.0]])
        for groups in ([0, 2], [-1, 0]):
            with pytest.raises(ValidationError, match="group indices"):
                m.sum_rows_by_group(groups, 2)


class TestMatmul:
    def test_against_numpy(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            rows, cols, k = rng.integers(1, 7, size=3)
            dense = random_dense(rng, rows, cols)
            m = from_dense(dense)
            W = rng.normal(size=(cols, k))
            np.testing.assert_allclose(m.matmul_dense(W), dense @ W, atol=1e-12)
            G = rng.normal(size=(rows, k))
            np.testing.assert_allclose(m.t_matmul_dense(G), dense.T @ G, atol=1e-12)

    def test_dimension_mismatch(self):
        m = from_dense([[1.0, 2.0]])
        with pytest.raises(ValidationError):
            m.matmul_dense(np.zeros((3, 2)))


class TestAgainstScipy:
    """from_triplets and append_dense_columns against scipy.sparse, used
    here only as an independent oracle."""

    @staticmethod
    def scipy_csr(dense):
        csr = scipy_sparse.csr_matrix(dense)
        csr.eliminate_zeros()
        csr.sort_indices()
        return csr

    @staticmethod
    def assert_same(m, csr):
        assert (m.rows, m.cols) == csr.shape
        np.testing.assert_array_equal(m.indptr, csr.indptr)
        np.testing.assert_array_equal(m.indices, csr.indices)
        np.testing.assert_array_equal(m.data, csr.data)

    def random_triplets(self, rng):
        rows, cols = int(rng.integers(0, 9)), int(rng.integers(1, 9))
        dense = random_dense(rng, rows, cols, density=float(rng.uniform(0.0, 0.8)))
        dense[rng.random(rows) < 0.3] = 0.0  # whole empty rows
        triplets = [(r, c, dense[r, c]) for r, c in zip(*np.nonzero(dense))]
        # explicit zeros, which must be dropped, then any order
        triplets += [(int(rng.integers(rows)), int(rng.integers(cols)), 0.0)
                     for _ in range(int(rng.integers(0, 4)) if rows else 0)]
        order = rng.permutation(len(triplets))
        return rows, cols, dense, [triplets[i] for i in order]

    def test_from_triplets(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            rows, cols, dense, triplets = self.random_triplets(rng)
            self.assert_same(from_triplets(rows, cols, triplets),
                             self.scipy_csr(dense))

    def test_from_triplets_rejects_duplicates_and_out_of_range(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(200):
            rows, cols, _dense, triplets = self.random_triplets(rng)
            nonzero = [t for t in triplets if t[2] != 0.0]
            if not nonzero:
                continue
            r, c, _v = nonzero[int(rng.integers(len(nonzero)))]
            with pytest.raises(ValidationError, match=f"duplicate entry at \\({r},{c}\\)"):
                from_triplets(rows, cols, triplets + [(r, c, 1.5)])
            bad = [(rows, c, 1.0), (r, cols, 1.0), (-1, c, 1.0), (r, -1, 1.0)]
            for triplet in bad:
                with pytest.raises(ValidationError, match="outside"):
                    from_triplets(rows, cols, triplets + [triplet])
            # an out-of-range zero is dropped before the range check
            from_triplets(rows, cols, triplets + [(rows, cols, 0.0)])
            checked += 1
        assert checked > 100

    def test_bad_entries_are_named_in_row_col_order(self):
        """Entries outside the shape whose r * cols + c keys equal those of
        entries inside it, such as (0, cols) and (1, 0), beside duplicates:
        an error names the entry a (row, col) sort of the nonzero entries
        reaches first, and a valid set builds scipy's matrix."""
        def first_error(rows, cols, entries):
            entries = sorted((r, c) for r, c, v in entries if v != 0.0)
            for k, (r, c) in enumerate(entries):
                if not (0 <= r < rows and 0 <= c < cols):
                    return f"entry ({r},{c}) outside {rows}x{cols} matrix"
                if k and entries[k - 1] == (r, c):
                    return f"duplicate entry at ({r},{c})"
            return None

        rng = np.random.default_rng(29)
        seen = {"entry": 0, "duplicate": 0, None: 0}  # message kinds: outside, duplicate, none
        for _ in range(1500):
            rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            n = int(rng.integers(1, 7))
            # now and then a side one or two steps outside the shape
            r, c = (np.where(rng.random(n) < 0.07, rng.choice([-2, -1, size, size + 1], size=n),
                             rng.integers(0, size, size=n)) for size in (rows, cols))
            entries = [(int(r), int(c), float(v)) for r, c, v in zip(
                r, c, rng.choice([0.0, 1.0, 2.5], size=n, p=[0.2, 0.4, 0.4]))]
            message = first_error(rows, cols, entries)
            seen[message and message.split()[0]] += 1
            if message is None:
                dense = np.zeros((rows, cols))
                for r, c, v in entries:
                    if v:
                        dense[r, c] = v
                self.assert_same(from_triplets(rows, cols, entries), self.scipy_csr(dense))
            else:
                with pytest.raises(ValidationError) as exc:
                    from_triplets(rows, cols, entries)
                assert str(exc.value) == message
        assert min(seen.values()) > 100, seen
        # (0, 3) has the key of (1, 0), and (-1, 5) that of (0, 2), in a 2x3 matrix
        for entries, message in [
            ([(1, 1, 1.0), (1, 1, 2.0), (0, 4, 1.0)], "entry (0,4) outside 2x3 matrix"),
            ([(0, 2, 1.0), (0, 2, 1.0), (-1, 5, 1.0)], "entry (-1,5) outside 2x3 matrix"),
            ([(1, 0, 1.0), (0, 3, 1.0), (1, 0, 1.0)], "entry (0,3) outside 2x3 matrix"),
            ([(0, 1, 1.0), (1, -1, 1.0), (0, 1, 1.0)], "duplicate entry at (0,1)"),
        ]:
            with pytest.raises(ValidationError) as exc:
                from_triplets(2, 3, entries)
            assert str(exc.value) == message

    @pytest.mark.parametrize("rows,cols", [(2**32, 2**32), (2**31, 2**32), (1, 2**63), (0, 2**63)])
    def test_shapes_whose_cells_overflow_int64_are_refused(self, rows, cols):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValidationError, match="more cells than int64"):
            SparseMatrix.from_coordinates(rows, cols, empty, empty, empty.astype(np.float64))

    def test_append_dense_columns(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            rows, cols, dense, triplets = self.random_triplets(rng)
            m = from_triplets(rows, cols, triplets)
            block = random_dense(rng, rows, int(rng.integers(0, 5)),
                                 density=float(rng.uniform(0.0, 1.0)))
            expected = self.scipy_csr(np.hstack([dense, block]))
            self.assert_same(m.append_dense_columns(block), expected)


def random_sparse(rng):
    """A seeded random matrix with whole empty rows, entries spanning several
    orders of magnitude (so summation order shows in the last bits), and
    now and then no rows or no entries at all."""
    rows, cols = int(rng.integers(0, 12)), int(rng.integers(1, 12))
    dense = random_dense(rng, rows, cols, density=float(rng.uniform(0.0, 0.9)))
    dense *= 10.0 ** rng.integers(-6, 7, size=dense.shape)
    dense[rng.random(rows) < 0.3] = 0.0
    return from_dense(dense)


class TestBitExactReductions:
    """The bincount kernels against the np.add.at scatter they replaced:
    equal bit for bit, not merely close."""

    def matrices(self, seed, n=300):
        rng = np.random.default_rng(seed)
        fixed = [
            from_triplets(0, 4, []),  # no rows
            from_triplets(5, 3, []),  # all zero
            from_dense([[0.0, 0.0], [1e16, 1.0], [0.0, 0.0]]),
        ]
        return rng, fixed + [random_sparse(rng) for _ in range(n)]

    def test_to_dense_and_row_norms(self):
        _rng, matrices = self.matrices(31)
        for m in matrices:
            assert np.array_equal(m.row_norms(), add_at_row_norms(m))

    def test_products(self):
        rng, matrices = self.matrices(32)
        for m in matrices:
            for k in (1, 2, 6):
                W = rng.normal(size=(m.cols, k)) * 10.0 ** rng.integers(-6, 7, size=(m.cols, k))
                D = rng.normal(size=(m.rows, k))
                assert np.array_equal(m.matmul_dense(W), add_at_matmul_dense(m, W))
                assert np.array_equal(m.t_matmul_dense(D), add_at_t_matmul_dense(m, D))

    def test_products_on_transposed_views(self):
        # fit() and predict() pass W.T, a non-contiguous view of the
        # (k, cols) weights
        rng, matrices = self.matrices(33)
        for m in matrices:
            k = int(rng.integers(1, 7))
            W = rng.normal(size=(k, m.cols))
            D = rng.normal(size=(k, m.rows))
            assert np.array_equal(m.matmul_dense(W.T), add_at_matmul_dense(m, W.T))
            assert np.array_equal(m.t_matmul_dense(D.T), add_at_t_matmul_dense(m, D.T))

    def test_sum_rows_by_group(self):
        rng, matrices = self.matrices(34)
        for m in matrices:
            for n_groups in (1, 2, 6):
                groups = rng.integers(0, n_groups, size=m.rows)
                assert np.array_equal(
                    m.sum_rows_by_group(groups, n_groups),
                    add_at_sum_rows_by_group(m, groups, n_groups),
                )

    def test_results_are_float_arrays_of_the_right_shape(self):
        for m in (from_triplets(0, 4, []), from_triplets(5, 3, [])):
            for out, shape in (
                (m.matmul_dense(np.ones((m.cols, 2))), (m.rows, 2)),
                (m.t_matmul_dense(np.ones((m.rows, 2))), (m.cols, 2)),
                (m.row_norms(), (m.rows,)),
                (m.sum_rows_by_group(np.zeros(m.rows, dtype=int), 3), (3, m.cols)),
                (to_dense(m), (m.rows, m.cols)),
            ):
                assert out.dtype == np.float64 and out.shape == shape
                assert not out.any()

    def test_against_scipy(self):
        rng, matrices = self.matrices(35, n=100)
        for m in matrices:
            csr = scipy_sparse.csr_matrix((m.data, m.indices, m.indptr), shape=(m.rows, m.cols))
            k = int(rng.integers(1, 7))
            W = rng.normal(size=(m.cols, k))
            D = rng.normal(size=(m.rows, k))
            groups = rng.integers(0, k, size=m.rows)
            one_hot = scipy_sparse.csr_matrix(
                (np.ones(m.rows), (groups, np.arange(m.rows))), shape=(k, m.rows)
            )
            np.testing.assert_array_equal(to_dense(m), csr.toarray())
            np.testing.assert_allclose(m.matmul_dense(W), csr @ W, rtol=1e-12, atol=1e-6)
            np.testing.assert_allclose(m.t_matmul_dense(D), csr.T @ D, rtol=1e-12, atol=1e-6)
            np.testing.assert_allclose(
                m.row_norms(), scipy_sparse.linalg.norm(csr, axis=1), rtol=1e-12
            )
            np.testing.assert_allclose(
                m.sum_rows_by_group(groups, k), (one_hot @ csr).toarray(), rtol=1e-12, atol=1e-6
            )
