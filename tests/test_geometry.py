import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nearline import geometry
from nearline.geometry import (
    DegenerateLineError,
    is_degenerate_line,
    line_alpha,
    line_residual,
    nearest_candidates,
    nearest_rows,
    point_line_sqdist,
    project_onto_lines,
)


def golden_section_argmin(f, lo, hi, tol=1e-9):
    """Independent 1-D minimizer for unimodal f on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def sqdist_at(point, a, b, t):
    r = point - (a * t + b * (1.0 - t))
    return float(r @ r)


def _vectors(min_dim=1, max_dim=8):
    dim = st.integers(min_dim, max_dim)
    return dim.flatmap(
        lambda d: st.tuples(
            *[
                st.lists(
                    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
                    min_size=d,
                    max_size=d,
                ).map(np.array)
                for _ in range(3)
            ]
        )
    )


def _well_separated(a, b):
    gap = a - b
    return float(gap @ gap) >= 1e-6


class TestLineAlpha:
    def test_point_at_b_gives_zero(self):
        b = np.array([2.0, -1.0, 3.0])
        assert line_alpha(b, np.array([5.0, 0.0, 0.0]), b) == 0.0

    def test_point_at_a_gives_one(self):
        a = np.array([5.0, 0.0, 1.0])
        assert line_alpha(a, a, np.array([2.0, -1.0, 3.0])) == pytest.approx(1.0)

    def test_symmetric_configuration(self):
        assert line_alpha([0, 1], [1, 0], [-1, 0]) == pytest.approx(0.5)

    def test_degenerate_line_raises(self):
        p = np.array([1.0, 2.0])
        with pytest.raises(DegenerateLineError):
            line_alpha(p, np.array([3.0, 3.0]), np.array([3.0, 3.0]))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            line_alpha([0.0, 1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "fit", [line_alpha, point_line_sqdist, lambda point, a, b: line_residual(point, a, b, 0.5)]
    )
    @pytest.mark.parametrize("bad", ["point", "a", "b"])
    def test_two_dimensional_argument_raises(self, fit, bad):
        args = {"point": [0.0, 1.0], "a": [1.0, 0.0], "b": [-1.0, 0.0]}
        args[bad] = [args[bad]]
        with pytest.raises(ValueError, match=rf"{bad} must be a 1-D vector, got shape \(1, 2\)"):
            fit(**args)

    def test_matches_golden_section_on_random_triples(self):
        # Independent oracle: direct 1-D minimization of the squared distance.
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 1000:
            d = rng.integers(2, 11)
            point, a, b = rng.normal(size=(3, d))
            if is_degenerate_line(a, b):
                continue
            alpha = line_alpha(point, a, b)
            if abs(alpha) > 90:
                continue
            best = golden_section_argmin(lambda t: sqdist_at(point, a, b, t), -100.0, 100.0)
            assert abs(alpha - best) < 1e-6
            checked += 1


class TestPointLineSqdist:
    def test_collinear_point_has_zero_distance(self):
        a = np.array([1.0, 2.0, 0.5])
        b = np.array([-2.0, 0.0, 1.0])
        point = 2.0 * a - b  # on the infinite line, outside the segment
        assert point_line_sqdist(point, a, b) < 1e-10

    def test_perpendicular_distance(self):
        assert point_line_sqdist([0, 1], [1, 0], [-1, 0]) == pytest.approx(1.0)

    def test_never_exceeds_endpoint_distances(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = rng.integers(2, 11)
            point, a, b = rng.normal(size=(3, d))
            if is_degenerate_line(a, b):
                continue
            dist = point_line_sqdist(point, a, b)
            bound = min(float((point - a) @ (point - a)), float((point - b) @ (point - b)))
            assert dist <= bound + 1e-9


class TestLineResidual:
    def test_alpha_zero_is_point_minus_b(self):
        point, a, b = np.array([1.0, 2.0]), np.array([4.0, 4.0]), np.array([0.5, -1.0])
        assert np.array_equal(line_residual(point, a, b, 0.0), point - b)

    def test_alpha_one_is_point_minus_a(self):
        point, a, b = np.array([1.0, 2.0]), np.array([4.0, 4.0]), np.array([0.5, -1.0])
        assert np.allclose(line_residual(point, a, b, 1.0), point - a)

    def test_nonfinite_alpha_rejected(self):
        p = np.zeros(2)
        with pytest.raises(ValueError):
            line_residual(p, p + 1, p - 1, np.inf)

    def test_projected_residual_norm_matches_projected_distance(self):
        # Two paths to the same number: project the residual, or project the
        # points first and measure the distance there.
        rng = np.random.default_rng(3)
        for _ in range(500):
            d = int(rng.integers(3, 12))
            d_prime = int(rng.integers(1, d + 1))
            W = rng.normal(size=(d, d_prime))
            x_point, x_a, x_b = rng.normal(size=(3, d))
            y_point, y_a, y_b = W.T @ x_point, W.T @ x_a, W.T @ x_b
            if is_degenerate_line(y_a, y_b):
                continue
            alpha = line_alpha(y_point, y_a, y_b)
            r = line_residual(x_point, x_a, x_b, alpha)
            lhs = float((W.T @ r) @ (W.T @ r))
            rhs = point_line_sqdist(y_point, y_a, y_b)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestProperties:
    @given(_vectors())
    @settings(deadline=None)
    def test_pair_symmetry(self, triple):
        point, a, b = triple
        assume(_well_separated(a, b))
        alpha_ab = line_alpha(point, a, b)
        alpha_ba = line_alpha(point, b, a)
        assert alpha_ab == pytest.approx(1.0 - alpha_ba, rel=1e-8, abs=1e-8)
        d_ab = point_line_sqdist(point, a, b)
        d_ba = point_line_sqdist(point, b, a)
        assert abs(d_ab - d_ba) < 1e-10 * max(1.0, d_ab)

    @given(_vectors(), st.floats(0.1, 10.0), st.booleans())
    @settings(deadline=None)
    def test_scale_covariance(self, triple, magnitude, negate):
        point, a, b = triple
        assume(_well_separated(a, b))
        c = -magnitude if negate else magnitude
        alpha = line_alpha(point, a, b)
        dist = point_line_sqdist(point, a, b)
        assert line_alpha(c * point, c * a, c * b) == pytest.approx(alpha, rel=1e-8, abs=1e-8)
        assert point_line_sqdist(c * point, c * a, c * b) == pytest.approx(
            c * c * dist, rel=1e-8, abs=1e-10
        )

    @given(_vectors())
    @settings(deadline=None)
    def test_translation_invariance(self, triple):
        point, a, b = triple
        assume(_well_separated(a, b))
        t = np.full(point.shape, 3.25)
        assert line_alpha(point + t, a + t, b + t) == pytest.approx(
            line_alpha(point, a, b), rel=1e-8, abs=1e-8
        )
        assert point_line_sqdist(point + t, a + t, b + t) == pytest.approx(
            point_line_sqdist(point, a, b), rel=1e-8, abs=1e-9
        )

    @given(_vectors(), st.floats(-100, 100))
    @settings(deadline=None)
    def test_alpha_minimizes_distance(self, triple, other):
        point, a, b = triple
        assume(_well_separated(a, b))
        alpha = line_alpha(point, a, b)
        assert sqdist_at(point, a, b, other) >= sqdist_at(point, a, b, alpha) - 1e-9

    @given(_vectors())
    @settings(deadline=None)
    def test_endpoint_bound(self, triple):
        point, a, b = triple
        assume(_well_separated(a, b))
        dist = point_line_sqdist(point, a, b)
        bound = min(float((point - a) @ (point - a)), float((point - b) @ (point - b)))
        assert dist <= bound + 1e-9


@st.composite
def line_batches(draw):
    """Points and lines in any dimension, some lines through coincident or
    nearly coincident endpoints, some points repeated or on an endpoint."""
    m = draw(st.integers(1, 12))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    P, A, B = (scale * rng.normal(size=(m, d)) for _ in range(3))
    coincide = rng.random(m) < draw(st.floats(0, 1))
    B[coincide] = A[coincide] + draw(st.sampled_from([0.0, 1e-9, 1e-3])) * scale * rng.normal(size=d)
    repeat = rng.random(m) < 0.2
    P[repeat] = P[0]
    on_end = rng.random(m) < 0.2
    P[on_end] = B[on_end]
    return P, A, B


class TestProjectOntoLines:
    @given(line_batches())
    @settings(deadline=None, max_examples=200)
    def test_matches_scalar_functions(self, batch):
        P, A, B = batch
        alpha, rho, ok = project_onto_lines(P, A, B)
        assert alpha.shape == ok.shape == (P.shape[0],) and rho.shape == P.shape
        for p, a, b, t, r, kept in zip(P, A, B, alpha, rho, ok):
            assert kept == (not is_degenerate_line(a, b))
            if kept:
                scale = np.linalg.norm(p - b) / np.linalg.norm(a - b)
                assert t == pytest.approx(line_alpha(p, a, b), rel=1e-9, abs=1e-12 * scale)
            else:
                with pytest.raises(DegenerateLineError):
                    line_alpha(p, a, b)
                assert t == 0.0
            assert np.array_equal(r, line_residual(p, a, b, t))

    @given(line_batches(), st.integers(1, 5))
    @settings(deadline=None, max_examples=100)
    def test_broadcast_equals_one_call_per_query(self, batch, queries):
        _, A, B = batch
        Q = np.random.default_rng(queries).normal(size=(queries, A.shape[1]))
        alpha, rho, ok = project_onto_lines(Q[:, None, :], A, B)
        assert alpha.shape == (queries, A.shape[0]) and rho.shape == (queries, *A.shape)
        for q in range(queries):
            alpha_q, rho_q, ok_q = project_onto_lines(np.tile(Q[q], (A.shape[0], 1)), A, B)
            assert np.array_equal(ok, ok_q)
            assert np.array_equal(alpha[q], alpha_q)
            assert np.array_equal(rho[q], rho_q)


@st.composite
def search_problems(draw):
    """Rows and queries up to 1e8 from the origin that differ by small
    integers (the Gram screen cancels, direct distances tie exactly), some
    candidates ruled out, and query and candidate block widths small enough
    that every query meets several candidate blocks."""
    d = draw(st.integers(1, 4))
    offset = draw(st.sampled_from([0.0, 1e3, -1e6, 1e8]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 12))
    T = offset + rng.integers(-3, 4, size=(n, d)).astype(float)
    Q = offset + rng.integers(-3, 4, size=(draw(st.integers(1, 8)), d)).astype(float)
    out = rng.random((Q.shape[0], n)) < draw(st.sampled_from([0.0, 0.3]))
    return T, Q, out, draw(st.integers(1, n)), draw(st.integers(1, 4)), draw(st.integers(1, 5))


class TestNearestCandidates:
    @given(search_problems(), st.integers(1, 40))
    @settings(deadline=None, max_examples=300)
    def test_matches_direct_ranking(self, problem, budget):
        # several candidate blocks per query exercise the running K-th value
        # for K > 1, which neither caller's screens do
        T, Q, out, K, query_width, candidate_width = problem
        t_norms, q_norms = np.einsum("ij,ij->i", T, T), np.einsum("ij,ij->i", Q, Q)

        def screens():
            for start in range(0, T.shape[0], candidate_width):
                cols = slice(start, start + candidate_width)
                for first in range(0, Q.shape[0], query_width):
                    rows = slice(first, first + query_width)
                    screen = q_norms[rows, None] + t_norms[cols] - 2.0 * (Q[rows] @ T[cols].T)
                    screen[out[rows, cols]] = np.inf
                    yield rows, start, screen

        def rescore(q, c):
            return np.sum((T[c] - Q[q]) ** 2, axis=1)

        want = []
        for q, ruled_out in zip(Q, out):
            dist = np.sum((T - q) ** 2, axis=1)
            ranked = [c for c in np.lexsort((np.arange(T.shape[0]), dist)) if not ruled_out[c]]
            want.append(ranked[:K])
        scale = q_norms + t_norms.max()
        with mock.patch.object(geometry, "BLOCK_ELEMENTS", budget):
            if min(len(w) for w in want) < K:
                with pytest.raises(ValueError):
                    nearest_candidates(screens(), rescore, scale, T.shape[1], K)
            else:
                got = nearest_candidates(screens(), rescore, scale, T.shape[1], K)
                assert got.tolist() == want

    def test_no_screen_block_outlives_the_screen_pass(self):
        """``nearest_rows(X, K=5)`` on n = 200 rows of d = 2576.

        The screen is one n x n block (n^2 <= ``BLOCK_ELEMENTS``); building it
        holds two n x n arrays, and the K-partition then holds a third beside
        the block and its boolean keep-mask.  The rescore pass gathers the
        kept candidates' rows ``T[c]`` and queries ``Q[q]`` in blocks of
        ``BLOCK_ELEMENTS // d`` = 25 rows, two at once (numpy writes their
        difference and its square into the first): 2 x 25 x 2576 = 3.22 n^2,
        plus the per-candidate indices and distances, 3.46 n^2 in all.  The
        bound is that pair of blocks and one n x n array, 4.22 n^2.  The last
        screen block and its partition copy, kept alive through the rescore
        pass, add 2 n^2: 5.47 n^2.
        """
        n, d = 200, 2576
        X = np.random.default_rng(9).normal(size=(n, d))
        tracemalloc.start()
        try:
            nearest = nearest_rows(X, K=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nearest.shape == (n, 5)
        rows = geometry.BLOCK_ELEMENTS // d
        assert peak < (2 * rows * d + n * n) * 8, peak / (n * n * 8)
