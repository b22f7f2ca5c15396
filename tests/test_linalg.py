import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nearline.linalg import orient_columns


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
