import tracemalloc

import numpy as np

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nearline.data import Dataset
from nearline.linalg import gram_eigh, orient_columns, sym_eigh
from nearline.nlp import TrainingSplit

EPS = np.finfo(float).eps


def loop_orient_columns(V):
    """Per-column sign fixing, one column at a time (oracle)."""
    V = np.array(V, dtype=float)
    for c in range(V.shape[1]):
        col = V[:, c]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        pivot = nz[0] if nz.size else int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            V[:, c] = -col
    return V


def assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# values at, just inside and just outside the 1e-12 pivot threshold, signed zeros
EDGE_VALUES = [0.0, -0.0, 1e-12, -1e-12, 5e-13, -5e-13, 1.0000000000000002e-12, -1.0000000000000002e-12, 3e-12, -3e-12]


@st.composite
def matrices(draw):
    """Matrices mixing ordinary entries, near-threshold entries and columns
    scaled below the threshold, including zero-column ones."""
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(0, 7))
    elements = st.one_of(st.floats(-10.0, 10.0, allow_subnormal=True), st.sampled_from(EDGE_VALUES))
    V = draw(arrays(float, (rows, cols), elements=elements))
    if cols:
        tiny = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
        V[:, tiny] *= 1e-13
    return V


class TestOrientColumns:
    @given(matrices())
    @settings(deadline=None, max_examples=300)
    def test_matches_per_column_loop(self, V):
        before = V.copy()
        assert_same(orient_columns(V), loop_orient_columns(V))
        assert np.array_equal(V, before)

    @given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=100)
    def test_negative_pivots_in_late_rows(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        V = rng.normal(size=(rows, cols))
        for c in range(cols):
            first = int(rng.integers(0, rows))
            V[:first, c] = rng.choice(EDGE_VALUES[:6], size=first)
            V[first, c] = -abs(V[first, c]) - 1e-12
        assert_same(orient_columns(V), loop_orient_columns(V))

    def test_all_zero_and_sub_threshold_columns(self):
        V = np.array([
            [0.0, -0.0, 1e-13, -1e-12, 0.0],
            [0.0, 0.0, -5e-13, 1e-12, -0.0],
            [0.0, -0.0, 2e-13, -5e-13, 0.0],
        ])
        want = loop_orient_columns(V)
        assert_same(orient_columns(V), want)
        # a sub-threshold column takes the sign of its largest entry
        assert want[1, 2] > 0 and want[0, 3] > 0

    def test_zero_columns(self):
        for shape in ((3, 0), (0, 0)):
            assert_same(orient_columns(np.zeros(shape)), loop_orient_columns(np.zeros(shape)))

    def test_integer_input_becomes_float(self):
        V = np.array([[0, -2], [-1, 3]])
        assert_same(orient_columns(V), loop_orient_columns(V))

    @given(matrices(), st.sampled_from(["C", "F", "rows", "columns", "reversed"]))
    @settings(deadline=None, max_examples=100)
    def test_returns_a_fresh_column_major_array(self, V, layout):
        """C-ordered, F-ordered and strided inputs all come back as a new
        F-contiguous array, the layout a loaded model file gives, and the
        input keeps its values."""
        if layout == "F":
            V = np.asfortranarray(V)
        elif layout == "rows":
            V = np.repeat(V, 2, axis=0)[::2]
        elif layout == "columns":
            V = np.repeat(V, 2, axis=1)[:, ::2]
        elif layout == "reversed":
            V = V[::-1, ::-1]
        before = V.copy()
        W = orient_columns(V)
        assert W.flags.f_contiguous and W.flags.owndata
        assert not np.shares_memory(W, V)
        assert_same(W, loop_orient_columns(V))
        assert_same(V, before)


def row_space(features):
    """Orthonormal basis ``V_r`` (d x r) of the span of the rows of
    ``features``, already centered: ``gram_eigh`` lifted in full, the
    principal directions in decreasing order of variance, oriented."""
    gram = gram_eigh(features)
    return gram.lift(np.eye(gram.rank), gram.rank)


def traced_peak(call):
    """The result of ``call()`` and the peak of the memory traced while it runs."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def strided_gram(n, d, seed=0):
    """The smaller Gram product of every other column of an n x 2d matrix:
    rows numpy multiplies without the symmetric kernel it uses for
    contiguous rows, so at some shapes, such as 60 x 400 with OpenBLAS, the
    product differs from its transpose in the last bits."""
    X = np.random.default_rng(seed).normal(size=(n, 2 * d))[:, ::2]
    return X @ X.T if n <= d else X.T @ X


@st.composite
def eigh_inputs(draw):
    """Square matrices: Gram products of contiguous rows (exactly symmetric),
    of strided rows (``strided_gram``), of contiguous rows with one entry
    off the diagonal moved by one ulp, and general asymmetric matrices."""
    kind = draw(st.sampled_from(["gram", "strided", "nudged", "asymmetric"]))
    n = draw(st.integers(1, 80))
    d = draw(st.integers(1, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "asymmetric":
        return rng.normal(size=(n, n))
    if kind == "strided":
        return strided_gram(n, d, seed)
    X = rng.normal(size=(n, d))
    M = X @ X.T if n <= d else X.T @ X
    if kind == "nudged" and M.shape[0] > 1:
        M[1, 0] = np.nextafter(M[1, 0], np.inf)
    return M


class TestSymEigh:
    @given(eigh_inputs())
    @example(strided_gram(60, 400))
    @example(strided_gram(100, 100))
    @settings(deadline=None, max_examples=150)
    def test_eigendecomposes_the_symmetric_part_bit_for_bit(self, M):
        # a matrix passed as it is must give the very bits its symmetric
        # part gives, and one that is not symmetric must be symmetrized
        values, vectors = sym_eigh(M)
        want_values, want_vectors = np.linalg.eigh((M + M.T) / 2.0)
        assert_same(values, want_values)
        assert_same(vectors, want_vectors)

    def test_symmetric_input_is_not_copied(self):
        """n = 200, M = X X^T of contiguous 200 x 644 rows, exactly symmetric.

        ``eigh`` returns n eigenvalues and an n x n matrix of eigenvectors
        (its LAPACK workspace is not traced), and the symmetry test holds one
        boolean n x n array, an eighth of M: about 1.01 n^2 doubles, under
        the bound of 1.5 n^2.  A symmetrized copy held beside M while
        ``eigh`` runs adds a second n x n array, 2.01 n^2.
        """
        X = np.random.default_rng(2).normal(size=(200, 644))
        M = X @ X.T
        assert np.array_equal(M, M.T)
        (values, _), peak = traced_peak(lambda: sym_eigh(M))
        assert values.shape == (200,)
        assert peak < 1.5 * 200 * 200 * 8, peak / (200 * 200 * 8)


def log_spectrum(n, d, smallest, seed=0):
    """An n x d matrix with random singular vectors and singular values
    log-spaced from 1 down to ``smallest``."""
    rng = np.random.default_rng(seed)
    k = min(n, d)
    U = np.linalg.qr(rng.normal(size=(n, k)))[0]
    V = np.linalg.qr(rng.normal(size=(d, k)))[0]
    return (U * np.logspace(0, np.log10(smallest), k)) @ V.T


@st.composite
def row_space_inputs(draw):
    """Wide and narrow matrices: rank-deficient products, duplicated rows,
    identical centered rows (rank 0) and log-spaced spectra whose smallest
    values reach past the rank threshold."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["product", "duplicated", "identical", "spectrum"]))
    if kind == "identical":
        row = rng.integers(-5, 6, size=d).astype(float)
        X = np.tile(row, (n, 1))
        return X - X.mean(axis=0)
    if kind == "spectrum":
        return log_spectrum(n, d, 10.0 ** -draw(st.floats(0.0, 12.0)), seed=int(rng.integers(2**32)))
    rank = draw(st.integers(0, min(n, d)))
    X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d))
    if kind == "duplicated":
        repeated = draw(st.integers(1, max(1, n // 2)))
        X[n - repeated:] = X[:repeated]
    return X


class TestRowSpace:
    @given(row_space_inputs())
    @example(log_spectrum(12, 30, 1e-5))
    @example(log_spectrum(30, 12, 1e-6))
    @settings(deadline=None, max_examples=300)
    def test_matches_svd(self, X):
        n, d = X.shape
        V = row_space(X)
        r = V.shape[1]
        assert V.shape == (d, r)
        assert np.all(np.abs(V.T @ V - np.eye(r)) <= 1e-12)
        assert np.array_equal(orient_columns(V), V)

        S = np.linalg.svd(X, compute_uv=False)
        if not S.size or S[0] == 0.0:
            assert r == 0
            return
        # the rank rule, applied to S = sqrt(lambda), and the thin SVD's own rule
        gram_tol = S[0] * np.sqrt(max(n, d) * EPS)
        svd_tol = S[0] * max(n, d) * EPS
        if not np.any((S > gram_tol / 10) & (S < gram_tol * 10)):
            assert r == np.count_nonzero(S > gram_tol)
            if not np.any((S > svd_tol / 10) & (S < gram_tol * 10)):
                assert r == np.count_nonzero(S > svd_tol)

        variance = ((X @ V) ** 2).sum(axis=0)
        assert np.all(np.diff(variance) <= 10 * max(n, d) * EPS * S[0] ** 2)
        residual = X - (X @ V) @ V.T
        assert np.sqrt((residual ** 2).sum(axis=1)).max() <= 10 * gram_tol

    @given(row_space_inputs(), st.sampled_from([1.0, 1e-170, 1e-120, 1e120, 1e200]))
    @example(log_spectrum(12, 30, 1e-5), 1.0)
    @example(log_spectrum(30, 12, 1e-6), 1.0)
    @example(log_spectrum(30, 12, 1e-6), 1e200)
    @example(log_spectrum(12, 30, 1e-5), 1e-170)
    @settings(deadline=None, max_examples=300)
    def test_coordinates_are_the_rows_in_the_basis(self, X, scale):
        """``coordinates`` equals ``X V_r``, the rows in the full lift, up to
        column signs.  Both come from the same computed eigenpairs
        ``(lambda_i, u_i)`` of the Gram matrix G, which satisfy
        ``|G u_i - lambda_i u_i| <~ max(n, d) eps S_0^2`` (forming G and a
        backward-stable eigensolver).  When n <= d column i of the lift,
        ``X^T u_i / sqrt(lambda_i)``, maps to ``G u_i / sqrt(lambda_i)``,
        within ``max(n, d) eps S_0^2 / sqrt(lambda_i)`` of
        ``sqrt(lambda_i) u_i``; the Gram-Schmidt pass mixes in earlier columns
        with weights of the lift's orthonormality error, of the same order.
        When n > d the two differ by product rounding, which the same bound
        covers.  ``sqrt(lambda_i)`` is at least the rank cut
        ``S_0 sqrt(max(n, d) eps)``, and the constant 10 leaves room over the
        largest ratio seen, 1.8 in 4000 draws.  Rows far outside
        (1e-100, 1e100) are rescaled for the eigensolve, so a coordinate that
        loses the factor misses by its size."""
        X = X * scale
        n, d = X.shape
        Z = gram_eigh(X).coordinates
        XV = X @ row_space(X)
        assert Z.shape == XV.shape
        if not Z.shape[1]:
            return
        S = np.linalg.svd(X, compute_uv=False)
        S_i = np.maximum(S[: Z.shape[1]], S[0] * np.sqrt(max(n, d) * EPS))
        error = np.minimum(np.abs(Z - XV).max(axis=0), np.abs(Z + XV).max(axis=0))
        assert np.all(error <= 10 * max(n, d) * EPS * S[0] * (S[0] / S_i))

    def test_identical_rows_have_rank_zero(self):
        X = np.tile([1.0, -2.0, 3.0, 0.5], (6, 1))
        V = row_space(X - X.mean(axis=0))
        assert V.shape == (4, 0)

    def test_rank_rule_drops_what_a_gram_matrix_cannot_resolve(self):
        # S = [1, 1e-10]: the thin SVD's rule (S_i > 5 * eps * S_0) kept both
        # directions; sqrt(5 * eps) = 3.3e-8 is the Gram matrix's resolution
        V = row_space(log_spectrum(2, 5, 1e-10))
        assert V.shape == (5, 1)

    @given(st.sampled_from([1e-170, 1e-120, 1e120, 1e200]), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=20)
    def test_scale_does_not_change_the_basis(self, scale, seed):
        # rows this far outside (1e-100, 1e100) are rescaled before the Gram
        # matrix squares them; squared, 1e-170 underflows and 1e200 overflows
        X = np.random.default_rng(seed).normal(size=(6, 9))
        V = row_space(X)
        assert np.abs(row_space(X * scale) - V).max() < 1e-12

    def test_memory_is_bounded(self):
        # the d x r result is 4.1 MB; a thin SVD of the rows peaks at 12.7 MB.
        # The spectrum spreads far enough that the orthonormality pass runs.
        X = log_spectrum(200, 2576, 1e-3, seed=5)
        tracemalloc.start()
        try:
            V = row_space(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert V.shape == (2576, 200)
        assert peak < 10 * 2**20

    def test_gram_eigensolve_holds_no_symmetrized_copy(self):
        """n = 200 centered rows of d = 644, so the Gram matrix is n x n.

        The eigensolve holds the product ``X X^T`` and the n x n eigenvectors
        ``eigh`` returns, 2 n^2 doubles; the symmetry test's boolean array
        (n^2 / 8) goes before ``eigh`` runs, and the kept eigenpairs are
        views.  About 2.01 n^2, under the bound of 2.5 n^2.  Symmetrizing
        the product, which numpy already forms exactly symmetric, holds a
        third n x n array while ``eigh`` runs: 3.01 n^2.
        """
        n, d = 200, 644
        X = np.random.default_rng(3).normal(size=(n, d))
        X -= X.mean(axis=0)
        gram, peak = traced_peak(lambda: gram_eigh(X))
        assert gram.rank == n - 1
        assert peak < 2.5 * n * n * 8, peak / (n * n * 8)


def principal_split(X):
    """A training split of the rows of X, all of one class."""
    return TrainingSplit(Dataset(X, np.zeros(X.shape[0], dtype=int)))


class TestPrincipalBasis:
    @given(row_space_inputs(), st.integers(1, 24))
    @example(log_spectrum(12, 30, 1e-5), 11)
    @example(log_spectrum(30, 12, 1e-6), 11)
    # n > d, rank 4: the eigenvectors' orthonormality error is larger over 4
    # columns than over 1, so a repair pass run only when that error passes
    # a threshold can run on the 4-column lift alone and move its top column
    @example(np.random.default_rng(38).normal(size=(5, 4)), 1)
    @settings(deadline=None, max_examples=300)
    def test_top_columns_of_the_row_space(self, X, k):
        """Both bases are lifted from the same computed eigenpairs
        ``(lambda_i, u_i)``, i < k.  In exact arithmetic each spans the range
        of ``Y = X^T U_k Lambda_k^(-1/2)`` (n <= d): a Gram-Schmidt pass
        multiplies by an upper-triangular matrix, which keeps the span of
        every leading set of columns.  Rounding in the product moves column i
        of Y by at most ``gamma_n ||X||_F / sqrt(lambda_i)``
        (``|fl(AB) - AB| <= gamma_n |A||B|``), so each computed basis lies
        within ``e = gamma_n ||X||_F (sum_i 1 / lambda_i)^(1/2)`` of range(Y),
        relative to ``s``, the smallest singular value of the lift; the pass,
        the orientation and the residual below add O(k eps).  The sine of the
        largest principal angle between the two is therefore at most
        ``2 (e / s + k eps)``.  When n > d both are the same slice of the
        eigenvectors, and equal bit for bit.  Past the rank both complete
        with the same unit directions, so only the lifted columns are
        compared with the row space."""
        n, d = X.shape
        assume(n >= 2)
        k = min(k, d)
        split = principal_split(X)
        P = split.gram.lift(np.eye(min(k, split.gram.rank)), k)
        gram = split.gram
        m = min(k, gram.rank)
        assert P.shape == (d, k)
        assert np.array_equal(orient_columns(P), P)
        assert np.abs(P.T @ P - np.eye(k)).max() <= 1e-12
        if not m:
            return
        A, B = P[:, :m], gram.lift(np.eye(gram.rank), gram.rank)[:, :m]
        if n > d:
            assert np.array_equal(A, B)
            return
        Y = gram.rows.T @ (gram.vectors[:, :m] / np.sqrt(gram.values[:m]))
        s = np.linalg.svd(Y, compute_uv=False)[-1]
        gamma_n = n * EPS / (1 - n * EPS)
        e = gamma_n * np.linalg.norm(gram.rows) * np.sqrt((1 / gram.values[:m]).sum())
        sine = np.linalg.norm(B - A @ (A.T @ B), 2)
        assert sine <= 2 * (e / s + m * EPS)

    def test_lifts_only_the_columns_it_returns(self):
        # the full lift of these rows is a 4.1 MB d x r basis; the top 20
        # columns, their Gram-Schmidt pass included, hold at most two d x 20
        # arrays (0.8 MB) at once
        split = principal_split(log_spectrum(200, 2576, 1e-3, seed=5))
        tracemalloc.start()
        try:
            P = split.gram.lift(np.eye(min(20, split.gram.rank)), 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert P.shape == (2576, 20)
        assert peak < 2 * 2**20
