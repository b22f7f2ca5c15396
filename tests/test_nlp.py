import logging
import tracemalloc

import numpy as np
import pytest
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nearline.geometry
import nearline.nlp
from conftest import centered
from nearline.data import Dataset
from nearline.geometry import (
    DEGENERACY_RTOL,
    DegenerateLineError,
    is_degenerate_line,
    line_alpha,
    line_residual,
    point_line_sqdist,
    project_onto_lines,
)
from nearline.linalg import GramEigen, gram_eigh, sym_eigh
from nearline.nlp import (
    TrainConfig,
    TrainedModel,
    TrainingSplit,
    assemble_scatter,
    build_neighbor_lines,
    eigen_step,
    k_nearest_neighbors,
    objective,
    project,
    train,
)
from nearline.synthetic import gaussian_blobs


def brute_force_knn(X, K):
    """Exhaustive pairwise-distance neighbor oracle, ties to smaller index."""
    n = X.shape[0]
    out = []
    for i in range(n):
        scored = []
        for j in range(n):
            if j == i:
                continue
            diff = X[i] - X[j]
            scored.append((float(np.sum(diff * diff)), j))
        scored.sort()
        out.append([j for _, j in scored[:K]])
    return out


def geometry_objective(Y, index):
    """Objective via the scalar geometry functions (independent path)."""
    total = 0.0
    i_idx, j_idx, k_idx = index.flat_triples()
    for i, j, k in zip(i_idx, j_idx, k_idx):
        try:
            total += point_line_sqdist(Y[i], Y[j], Y[k])
        except DegenerateLineError:
            continue
    return total


def random_dataset(rng, n, d, classes=2):
    return Dataset(rng.normal(size=(n, d)), rng.integers(0, classes, size=n))


@st.composite
def offset_grid_rows(draw):
    """Rows at a large common offset plus small integer perturbations, some
    duplicated, with a row-block budget small enough that blocks end
    mid-matrix.  The direct distances are exact small integers, so near the
    K-th neighbor they tie exactly, while the Gram form cancels ``|x|^2`` of
    up to 3e19 and misorders them."""
    n = draw(st.integers(3, 40))
    d = draw(st.sampled_from([1, 2, 7, 64, 700, 3000]))
    offset = draw(st.sampled_from([0.0, 3.0, -1e3, 1e6, 1e8]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = offset + rng.integers(-2, 3, size=(n, d)).astype(float)
    dup = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=max(2, n // 2)))
    X[dup] = X[dup[0]]
    K = draw(st.integers(1, n - 1))
    budget = draw(st.integers(1, 3 * n))
    return X, K, budget


class TestKNearestNeighbors:
    @given(offset_grid_rows())
    @settings(deadline=None, max_examples=120)
    def test_matches_exhaustive_oracle(self, problem):
        X, K, budget = problem
        with mock.patch.object(nearline.geometry, "BLOCK_ELEMENTS", budget):
            got = k_nearest_neighbors(X, K)
        assert got.tolist() == brute_force_knn(X, K)

    def test_row_blocks_match_one_block(self):
        rng = np.random.default_rng(11)
        X = 1e4 + rng.integers(-3, 4, size=(23, 40)).astype(float)
        X[[3, 9, 17]] = X[12]
        whole = k_nearest_neighbors(X, 6)
        for budget in (1, 23, 50, 69, 5 * 23):
            with mock.patch.object(nearline.geometry, "BLOCK_ELEMENTS", budget):
                assert np.array_equal(k_nearest_neighbors(X, 6), whole)
        assert whole.tolist() == brute_force_knn(X, 6)


class TestBuildNeighborLines:
    def test_one_dimensional_nearest(self):
        ds = Dataset(np.array([[0.0], [1.0], [10.0]]), np.array([0, 0, 1]))
        index = build_neighbor_lines(ds, 1)
        assert index.neighbors.tolist() == [[1], [0], [1]]
        assert index.lines.shape == (3, 0, 2)

    def test_line_count_is_k_choose_two(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 12, 4)
        index = build_neighbor_lines(ds, 3)
        assert index.lines.shape == (12, 3, 2)
        index5 = build_neighbor_lines(ds, 5)
        assert index5.lines.shape == (12, 10, 2)
        # K=1 reaches here from LPP's BaselineConfig: no lines, same layout
        index1 = build_neighbor_lines(ds, 1)
        assert index1.lines.shape == (12, 0, 2)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 50, 5)
        index = build_neighbor_lines(ds, 4)
        assert index.neighbors.tolist() == brute_force_knn(ds.features, 4)

    def test_non_neighbors_are_no_closer(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 50, 5)
        index = build_neighbor_lines(ds, 4)
        X = ds.features
        for i in range(ds.n):
            nb = set(index.neighbors[i].tolist())
            worst = max(float(np.sum((X[i] - X[j]) ** 2)) for j in nb)
            for m in range(ds.n):
                if m == i or m in nb:
                    continue
                assert float(np.sum((X[i] - X[m]) ** 2)) >= worst

    def test_tie_break_prefers_smaller_index(self):
        # integer grid with exact duplicates: distances tie exactly
        feats = np.array([[0.0], [2.0], [2.0], [5.0]])
        index = build_neighbor_lines(Dataset(feats, np.zeros(4, dtype=int)), 2)
        assert index.neighbors[0].tolist() == [1, 2]

    def test_pairs_have_j_less_than_k(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 20, 3)
        index = build_neighbor_lines(ds, 4)
        assert (index.lines[:, :, 0] < index.lines[:, :, 1]).all()
        for i in range(ds.n):
            members = set(index.neighbors[i].tolist())
            assert i not in members
            for j, k in index.lines[i]:
                assert {int(j), int(k)} <= members

    def test_k_out_of_range(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 5, 2)
        with pytest.raises(ValueError):
            build_neighbor_lines(ds, 5)


class TestAssembleScatter:
    def test_collinear_points_give_zero_operator(self):
        t = np.array([0.0, 1.0, 2.0])
        feats = np.outer(t, np.array([1.0, -2.0, 0.5]))
        ds = Dataset(feats, np.zeros(3, dtype=int))
        index = build_neighbor_lines(ds, 2)
        L = assemble_scatter(ds, index, np.eye(3))
        assert np.abs(L).max() < 1e-20

    def test_trace_matches_direct_objective(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 10, 6)
        index = build_neighbor_lines(ds, 3)
        W, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        L = assemble_scatter(ds, index, W)
        trace = float(np.trace(W.T @ L @ W))
        direct = objective(ds, index, W)
        assert trace == pytest.approx(direct, rel=1e-8)

    def test_feature_scaling_scales_operator_quadratically(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 15, 4)
        index = build_neighbor_lines(ds, 3)
        W, _ = np.linalg.qr(rng.normal(size=(4, 2)))
        L1 = assemble_scatter(ds, index, W)
        ds2 = Dataset(2.0 * ds.features, ds.labels)
        L2 = assemble_scatter(ds2, index, W)
        assert np.allclose(L2, 4.0 * L1, rtol=1e-9)

    def test_operator_is_symmetric_psd(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, 20, 5)
        index = build_neighbor_lines(ds, 4)
        W, _ = np.linalg.qr(rng.normal(size=(5, 2)))
        L = assemble_scatter(ds, index, W)
        assert np.array_equal(L, L.T)
        vals = np.linalg.eigvalsh(L)
        assert vals.min() >= -1e-8 * max(vals.max(), 1.0)

    def test_matches_scalar_geometry_loop_with_degenerate_lines(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(16, 5))
        X[[4, 9, 13]] = X[2]
        X[[7, 11]] = X[0]
        ds = Dataset(X, np.zeros(16, dtype=int))
        index = build_neighbor_lines(ds, 4)
        W, _ = np.linalg.qr(rng.normal(size=(5, 3)))
        Y = X @ W
        expected = np.zeros((5, 5))
        skipped = 0
        for i, j, k in zip(*index.flat_triples()):
            if is_degenerate_line(Y[j], Y[k]):
                skipped += 1
                continue
            r = line_residual(X[i], X[j], X[k], line_alpha(Y[i], Y[j], Y[k]))
            expected += np.outer(r, r)
        assert 0 < skipped < index.lines.size // 2
        assert np.allclose(assemble_scatter(ds, index, W), expected, rtol=1e-9, atol=1e-12)


class TestObjective:
    def test_identical_points_define_zero_objective(self):
        ds = Dataset(np.ones((4, 3)), np.zeros(4, dtype=int))
        index = build_neighbor_lines(ds, 2)
        assert objective(ds, index, np.eye(3)) == 0.0

    def test_projection_scaling_scales_objective(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 12, 5)
        index = build_neighbor_lines(ds, 3)
        W = rng.normal(size=(5, 2))
        base = objective(ds, index, W)
        assert objective(ds, index, 3.0 * W) == pytest.approx(9.0 * base, rel=1e-9)

    def test_matches_trace_form_on_small_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(4, 11))
            d = int(rng.integers(2, 7))
            ds = random_dataset(rng, n, d)
            K = min(3, n - 1)
            index = build_neighbor_lines(ds, K)
            d_prime = int(rng.integers(1, d + 1))
            W, _ = np.linalg.qr(rng.normal(size=(d, d_prime)))
            direct = objective(ds, index, W)
            L = assemble_scatter(ds, index, W)
            trace = float(np.trace(W.T @ L @ W))
            assert trace == pytest.approx(direct, rel=1e-8, abs=1e-12)

    def test_matches_scalar_geometry_path(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, 10, 4)
        index = build_neighbor_lines(ds, 3)
        W, _ = np.linalg.qr(rng.normal(size=(4, 2)))
        direct = objective(ds, index, W)
        assert direct == pytest.approx(geometry_objective(ds.features @ W, index), rel=1e-9)


class TestEigenStep:
    def test_diagonal_smallest(self):
        W = eigen_step(np.diag([3.0, 1.0]), 1)
        assert np.allclose(W, [[0.0], [1.0]], atol=1e-12)

    def test_identity_spectrum_contract(self):
        W = eigen_step(np.eye(4), 2)
        assert np.allclose(W.T @ W, np.eye(2), atol=1e-8)
        assert float(np.trace(W.T @ np.eye(4) @ W)) == pytest.approx(2.0)

    def test_ky_fan_optimality_vs_random_subspaces(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(20, 20))
        L = (M + M.T) / 2.0
        W = eigen_step(L, 5)
        best = float(np.trace(W.T @ L @ W))
        for _ in range(100):
            Q, _ = np.linalg.qr(rng.normal(size=(20, 5)))
            assert best <= float(np.trace(Q.T @ L @ Q)) + 1e-9

    def test_null_eigenvalues_are_the_minimizers(self):
        L = np.diag([0.0, 0.0, 1.0, 2.0])
        W = eigen_step(L, 2)
        assert float(np.trace(W.T @ L @ W)) == 0.0

    def test_trace_equals_selected_eigenvalue_sum(self):
        rng = np.random.default_rng(10)
        M = rng.normal(size=(12, 12))
        L = (M + M.T) / 2.0
        W = eigen_step(L, 4)
        vals = np.linalg.eigvalsh(L)
        assert float(np.trace(W.T @ L @ W)) == pytest.approx(float(vals[:4].sum()), rel=1e-8)

    def test_deterministic_signs(self):
        rng = np.random.default_rng(11)
        M = rng.normal(size=(8, 8))
        L = (M + M.T) / 2.0
        assert np.array_equal(eigen_step(L, 3), eigen_step(L, 3))
        for c in range(3):
            col = eigen_step(L, 3)[:, c]
            first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert first > 0

    def test_non_finite_input_rejected(self):
        L = np.eye(3)
        L[0, 0] = np.inf
        with pytest.raises(ValueError):
            eigen_step(L, 1)


class TestTrain:
    def test_zero_loss_fixed_point(self):
        # points on one line embedded in 5-D: every neighbor line is exact
        t = np.linspace(0.0, 1.0, 12)
        direction = np.array([1.0, -1.0, 0.5, 2.0, 0.0])
        ds = Dataset(np.outer(t, direction), np.zeros(12, dtype=int))
        model = train(ds, TrainConfig(K=3, d_prime=2))
        assert model.converged
        assert model.objective_trace[-1] < 1e-8

    def test_max_iters_zero_returns_init(self):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=0)
        model = train(ds, TrainConfig(K=3, d_prime=2, max_iters=0))
        assert model.iterations_run == 0
        assert not model.converged
        assert len(model.objective_trace) == 1
        assert np.allclose(model.projection.T @ model.projection, np.eye(2), atol=1e-8)

    def test_fixed_operator_monotonicity(self):
        ds = gaussian_blobs(n_per_class=50, n_classes=3, d=50, seed=42)
        model = train(ds, TrainConfig(K=5, d_prime=5))
        assert model.step_traces
        for old, new in model.step_traces:
            assert new <= old + 1e-9

    def test_orthonormal_after_every_step(self):
        ds = gaussian_blobs(n_per_class=15, n_classes=2, d=8, seed=1)
        model = train(ds, TrainConfig(K=4, d_prime=3))
        W = model.projection
        assert np.abs(W.T @ W - np.eye(3)).max() < 1e-8

    def test_trace_csv_semantics(self):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=3)
        model = train(ds, TrainConfig(K=3, d_prime=2, max_iters=7, rel_tol=0.0))
        assert model.iterations_run == 7
        assert len(model.objective_trace) == 7

    def test_deterministic_given_same_inputs(self):
        ds = gaussian_blobs(n_per_class=12, n_classes=3, d=10, seed=2)
        cfg = TrainConfig(K=4, d_prime=3)
        a = train(ds, cfg)
        b = train(ds, cfg)
        assert np.array_equal(a.projection, b.projection)
        assert np.array_equal(a.mean_vector, b.mean_vector)
        assert a.objective_trace == b.objective_trace
        assert a.iterations_run == b.iterations_run

    def test_identity_init_builds_no_d_by_d_matrix(self):
        # any d x d matrix, np.eye(d) included, would take 128 MB at d = 4000
        ds = random_dataset(np.random.default_rng(14), 12, 4000)
        tracemalloc.start()
        try:
            model = train(ds, TrainConfig(K=3, d_prime=4, max_iters=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.projection.shape == (4000, 4)
        assert peak < 16 * 2**20

    def test_memory_does_not_grow_with_K(self, monkeypatch):
        # n = 400 rows of a d >> n split, r = 399.  A (lines x r) residual
        # matrix alone takes 12.2 MiB at K = 5 and 54.8 MiB at K = 10, and a
        # d x r basis 7.8 MiB.  Without them the fit holds n x n and r x r
        # pieces (1.2 MiB each), block temporaries and the line pass's few
        # lines x d' arrays (1.4 MiB each at K = 10), under one bound for
        # every K.  Only the d x d' result is lifted.
        n, d, d_prime = 400, 2576, 10
        split = TrainingSplit(random_dataset(np.random.default_rng(15), n, d))
        lifted = []
        lift = GramEigen.lift

        def spy(gram, B, k):
            lifted.append((B.shape, k))
            return lift(gram, B, k)

        monkeypatch.setattr(GramEigen, "lift", spy)
        for K in (5, 10):
            tracemalloc.start()
            try:
                model = train(split, TrainConfig(K=K, d_prime=d_prime, max_iters=3, rel_tol=0.0))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert model.iterations_run == 3
            assert peak < 16 * 2**20
        assert lifted == [((n - 1, d_prime), d_prime)] * 2

    def test_config_validation(self):
        with pytest.raises(ValueError, match="K must be >= 2"):
            TrainConfig(K=1, d_prime=2)
        with pytest.raises(ValueError, match="d_prime must be >= 1"):
            TrainConfig(K=3, d_prime=0)
        with pytest.raises(ValueError, match="rel_tol must be nonnegative"):
            TrainConfig(K=3, d_prime=2, rel_tol=float("nan"))
        ds = gaussian_blobs(n_per_class=5, n_classes=2, d=4, seed=0)
        with pytest.raises(ValueError, match="K must be <="):
            train(ds, TrainConfig(K=10, d_prime=2))
        with pytest.raises(ValueError, match="d_prime must be <="):
            train(ds, TrainConfig(K=3, d_prime=9))

    def test_identical_rows_train_to_zero_objective(self):
        # rank 0: the centered rows vanish and every line is degenerate
        ds = Dataset(np.full((6, 4), 2.5), np.zeros(6, dtype=int))
        model = train(ds, TrainConfig(K=3, d_prime=3))
        W = model.projection
        assert np.abs(W.T @ W - np.eye(3)).max() < 1e-12
        assert model.objective_trace[-1] == 0.0
        assert model.converged

    def test_eigensolves_stay_in_row_space(self, monkeypatch):
        n, d = 30, 3000
        shapes = []

        def spy(M):
            shapes.append(np.shape(M))
            return sym_eigh(M)

        monkeypatch.setattr(nearline.nlp, "sym_eigh", spy)
        rng = np.random.default_rng(13)
        train(random_dataset(rng, n, d), TrainConfig(K=4, d_prime=5, max_iters=3, rel_tol=0.0))
        assert len(shapes) == 3
        assert all(shape[0] <= n - 1 and shape[1] <= n - 1 for shape in shapes)


@st.composite
def training_problems(draw):
    """Small data sets of any rank, with d < n and d > n, some rows repeated."""
    n = draw(st.integers(6, 14))
    d = draw(st.integers(2, 24))
    rank = draw(st.integers(1, min(n - 1, d)))
    repeated = draw(st.integers(0, n // 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d))
    X[n - repeated :] = X[:repeated]
    K = draw(st.integers(2, min(4, n - 1)))
    # d_prime >= 2: any 1-D projection puts every point on every line, so
    # both objectives are zero and the operators are pure rounding
    d_prime = draw(st.integers(2, d))
    max_iters = draw(st.integers(1, 3))
    return Dataset(X, np.zeros(n, dtype=int)), K, d_prime, max_iters


def step_is_well_posed(L, V_r, m):
    """Whether the eigen step's choice of m directions in the row space V_r
    is unique and well conditioned: either it takes the whole row space, or
    the spectrum of L there has a clear gap after its m smallest eigenvalues
    (within the gap every choice minimizes the trace, and two exact paths may
    pick different ones)."""
    vals = np.linalg.eigvalsh(V_r.T @ L @ V_r)
    if vals.max() <= 0.0:
        return False
    return m == vals.size or vals[m] - vals[m - 1] > 1e-6 * vals.max()


def full_space_train(ds, K, d_prime, max_iters):
    """Direct d x d loop from the top-d' principal directions (oracle).  The
    d - r directions orthogonal to the row space V_r are null directions of
    every operator, which the row-space fit takes only past the rank; the
    eigen step here reads them after every eigenvalue of L, from
    ``L + c (I - V_r V_r^T)`` with c above L's spectrum."""
    X = centered(ds)
    rank = np.linalg.matrix_rank(X)
    index = build_neighbor_lines(X, K)
    Vt = np.linalg.svd(X)[2]
    V_r = Vt[:rank].T
    outside = np.eye(X.shape[1]) - V_r @ V_r.T
    W = Vt[:d_prime].T
    objectives, steps = [], []
    for _ in range(max_iters):
        L = assemble_scatter(X, index, W)
        assume(step_is_well_posed(L, V_r, min(d_prime, rank)))
        old = float(np.trace(W.T @ L @ W))
        c = 1.0 + 2.0 * np.abs(np.linalg.eigvalsh(L)).max()
        W = eigen_step(L + c * outside, d_prime)
        steps.append((old, float(np.trace(W.T @ L @ W))))
        objectives.append(objective(X, index, W))
    return objectives, steps


class TestRowSpaceTraining:
    @given(training_problems())
    @settings(deadline=None, max_examples=100)
    def test_matches_full_space_loop(self, problem):
        ds, K, d_prime, max_iters = problem
        model = train(ds, TrainConfig(K=K, d_prime=d_prime, max_iters=max_iters, rel_tol=0.0))
        objectives, steps = full_space_train(ds, K, d_prime, max_iters)

        assert model.objective_trace == pytest.approx(objectives, rel=1e-8)
        assert np.ravel(model.step_traces) == pytest.approx(np.ravel(steps), rel=1e-8)

        X = centered(ds)
        W = model.projection
        assert np.abs(W.T @ W - np.eye(d_prime)).max() < 1e-8
        r = np.linalg.matrix_rank(X)
        if d_prime > r:
            scale = max(np.abs(X).max(), 1.0)
            assert np.abs(X @ W[:, r:]).max() < 1e-8 * scale


@st.composite
def fit_problems(draw):
    """Small fits of any rank (0 included), with d < n and d > n, repeated
    rows (so some lines are degenerate), d' above the rank and stopping on
    tolerance or on max_iters."""
    n = draw(st.integers(6, 14))
    d = draw(st.integers(1, 24))
    rank = draw(st.integers(0, min(n - 1, d)))
    repeated = draw(st.integers(0, n // 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d)) + rng.normal(size=d)
    X[n - repeated :] = X[:repeated]
    config = TrainConfig(
        K=draw(st.integers(2, min(5, n - 1))),
        d_prime=draw(st.integers(1, d)),
        max_iters=draw(st.integers(0, 5)),
        rel_tol=draw(st.sampled_from([0.0, 1e-6, 1e-2])),
    )
    return Dataset(X, np.zeros(n, dtype=int)), config


def two_pass_train(ds, config):
    """The training loop with one line pass for each scatter operator and
    another for each objective, from the public pieces (reference).  As in
    ``train``, it runs on the split's row-space coordinates, starts from the
    top principal directions and lifts the result once."""
    X = centered(ds)
    gram = gram_eigh(X)
    Z = gram.coordinates
    r = gram.rank
    W_z = np.eye(r, min(config.d_prime, r))
    index = build_neighbor_lines(X, config.K)
    previous = objective(Z, index, W_z)
    if config.max_iters == 0 or r == 0:
        return TrainingSplit(ds).principal_basis(config.d_prime), [previous], [], 0, r == 0
    objectives, steps = [], []
    converged = False
    for t in range(1, config.max_iters + 1):
        L = assemble_scatter(Z, index, W_z)
        old = float(np.trace(W_z.T @ L @ W_z))
        W_z = eigen_step(L, min(config.d_prime, r))
        steps.append((old, float(np.trace(W_z.T @ L @ W_z))))
        value = objective(Z, index, W_z)
        objectives.append(value)
        rel_change = abs(value - previous) / max(abs(previous), 1e-30)
        previous = value
        if rel_change < config.rel_tol:
            converged = True
            break
    return gram.lift(W_z, config.d_prime), objectives, steps, t, converged


def direct_scatter_and_objective(X, index, W):
    """The operator and the objective each from its own expression over the
    kept lines (oracle for the exact arithmetic of the shared pass).  The
    operator sums ``R_b^T R_b`` over the residuals of the same
    ``geometry.blocks`` of kept lines that the scatter step reads."""
    Y = X @ W
    i, j, k = index.flat_triples()
    Djk = Y[j] - Y[k]
    gap = np.einsum("ij,ij->i", Djk, Djk)
    scale = np.maximum(1.0, np.maximum(np.einsum("ij,ij->i", Y[j], Y[j]), np.einsum("ij,ij->i", Y[k], Y[k])))
    ok = gap >= DEGENERACY_RTOL * scale
    if not ok.any():
        return np.zeros((X.shape[1], X.shape[1])), 0.0
    alpha = np.zeros_like(gap)
    np.divide(np.einsum("ij,ij->i", Y[i] - Y[k], Djk), gap, out=alpha, where=ok)
    i, j, k, alpha = i[ok], j[ok], k[ok], alpha[ok]
    R = X[i] - X[k] - alpha[:, None] * (X[j] - X[k])
    L = np.zeros((X.shape[1], X.shape[1]))
    for rows in nearline.geometry.blocks(R.shape[0], R.shape[1]):
        L += R[rows].T @ R[rows]
    rho = (Y[i] - Y[k]) - alpha[:, None] * (Y[j] - Y[k])
    return (L + L.T) / 2.0, float(np.einsum("ij,ij->", rho, rho))


class TestSingleLinePass:
    @given(fit_problems(), st.integers(0, 2**32 - 1), st.integers(1, 80))
    @settings(deadline=None, max_examples=100)
    def test_public_pieces_keep_the_exact_arithmetic(self, problem, seed, budget):
        ds, config = problem
        X = ds.features
        index = build_neighbor_lines(X, config.K)
        W = np.random.default_rng(seed).normal(size=(ds.d, config.d_prime))
        with mock.patch.object(nearline.geometry, "BLOCK_ELEMENTS", budget):
            L, value = direct_scatter_and_objective(X, index, W)
            assert np.array_equal(assemble_scatter(X, index, W), L)
        L, value = direct_scatter_and_objective(X, index, W)
        assert np.array_equal(assemble_scatter(X, index, W), L)
        assert objective(X, index, W) == value

    @given(fit_problems())
    @settings(deadline=None, max_examples=150)
    def test_bit_identical_to_two_pass_loop(self, problem):
        ds, config = problem
        model = train(ds, config)
        W, objectives, steps, iterations, converged = two_pass_train(ds, config)
        assert model.objective_trace == objectives
        assert model.step_traces == steps
        assert np.array_equal(model.projection, W)
        assert model.projection.flags.f_contiguous  # the layout load_model gives
        assert (model.iterations_run, model.converged) == (iterations, converged)

    def test_one_pass_per_projection(self, monkeypatch):
        passes = []

        def spy(P, A, B):
            passes.append(A.shape)
            return project_onto_lines(P, A, B)

        monkeypatch.setattr(nearline.nlp, "project_onto_lines", spy)
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=3)
        for t in (1, 2, 7):
            passes.clear()
            model = train(ds, TrainConfig(K=3, d_prime=2, max_iters=t, rel_tol=0.0))
            assert model.iterations_run == t
            assert len(passes) == t + 1
        X = centered(ds)
        index = build_neighbor_lines(X, 3)
        W = np.eye(6)[:, :2]
        for public in (assemble_scatter, objective):
            passes.clear()
            public(X, index, W)
            assert len(passes) == 1

    def test_degenerate_mask_change_is_logged(self, monkeypatch, caplog):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=3)
        cfg = TrainConfig(K=3, d_prime=2, max_iters=3, rel_tol=0.0)
        passes = []

        def lose_three_lines_once(P, A, B):
            passes.append(None)
            alpha, rho, ok = project_onto_lines(P, A, B)
            if len(passes) == 2:  # the pass at the first updated projection
                ok = ok.copy()
                ok[[0, 5, 9]] = False
            return alpha, rho, ok

        with caplog.at_level(logging.DEBUG, logger="nearline.nlp"):
            plain = train(ds, cfg)
            assert not [rec for rec in caplog.records if "mask changed" in rec.getMessage()]
            monkeypatch.setattr(nearline.nlp, "project_onto_lines", lose_three_lines_once)
            flipped = train(ds, cfg)
        changes = [rec for rec in caplog.records if "mask changed" in rec.getMessage()]
        # the three lines drop out at W_1 and come back at W_2
        assert [rec.args[:2] for rec in changes] == [(1, 3), (2, 3)]
        assert all(rec.levelno == logging.DEBUG for rec in changes)
        assert flipped.objective_trace[0] < plain.objective_trace[0]


# six rows in 3-D, one repeated: an eigen step that ranks near-null
# eigenvalues last makes this trace oscillate (0.669, 0.710, 0.666, 0.697,
# ...) while the degenerate-line mask stays the same
OSCILLATING = Dataset(
    np.array([
        [-0.47188468, -0.17856733, -0.31855552],
        [-1.28382757, 0.04195274, -0.25042701],
        [0.2733886, 0.20555868, 0.90872103],
        [-2.25695649, -1.35846062, 0.13303256],
        [-3.30339325, -2.85319339, 1.36846855],
        [-0.47188468, -0.17856733, -0.31855552],
    ]),
    np.zeros(6, dtype=int),
)


class TestMonotoneObjective:
    @given(fit_problems())
    @example((OSCILLATING, TrainConfig(K=2, d_prime=2, max_iters=6, rel_tol=0.0)))
    @settings(deadline=None, max_examples=300)
    def test_objective_never_rises_while_the_mask_holds(self, problem):
        """Under a fixed mask each eigen step minimizes the trace against the
        operator of the previous projection, and the next line pass
        minimizes each line's coefficient, so neither step can raise the
        objective; only rounding can, relative to the trace and, for fits
        whose objectives are rounding zeros, to the data's energy."""
        ds, config = problem
        with mock.patch.object(nearline.nlp.log, "debug", wraps=nearline.nlp.log.debug) as debug:
            model = train(ds, config)
        assume(not any("mask changed" in call.args[0] for call in debug.call_args_list))
        trace = model.objective_trace
        energy = float((centered(ds) ** 2).sum())
        slack = 1e-9 * max(trace) + 1e-12 * energy * config.K ** 2
        for previous, value in zip(trace, trace[1:]):
            assert value <= previous + slack


class TestProject:
    def test_identity_columns_select_coordinates(self):
        mean = np.linspace(-1.0, 1.5, 6)
        model = TrainedModel(np.eye(6)[:, :3], mean, TrainConfig(K=3, d_prime=3), [0.0], 0, False)
        x = np.arange(6.0)
        assert np.array_equal(project(model, x), (x - model.mean_vector)[:3])

    def test_projection_contracts_norm(self):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=8, seed=7)
        model = train(ds, TrainConfig(K=3, d_prime=3))
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=8)
            y = project(model, x)
            assert np.linalg.norm(y) <= np.linalg.norm(x - model.mean_vector) + 1e-12

    def test_projected_objective_matches_trace_tail(self):
        ds = gaussian_blobs(n_per_class=12, n_classes=3, d=10, seed=8)
        cfg = TrainConfig(K=4, d_prime=3)
        model = train(ds, cfg)
        index = build_neighbor_lines(centered(ds), cfg.K)
        Y = project(model, ds.features)
        assert geometry_objective(Y, index) == pytest.approx(model.objective_trace[-1], rel=1e-8)

    def test_dimension_mismatch(self):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=9)
        model = train(ds, TrainConfig(K=3, d_prime=2))
        with pytest.raises(ValueError):
            project(model, np.zeros(5))
