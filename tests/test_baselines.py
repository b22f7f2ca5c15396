import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nearline
from conftest import centered
from nearline.baselines import BaselineConfig, _knn_affinity, train_lpp, train_pca
from nearline.data import Dataset
from nearline.evaluate import fit_method
from nearline.nlp import TrainConfig, TrainedModel, TrainingSplit, k_nearest_neighbors, project, train
from nearline.synthetic import manifold_classes


def two_far_clusters(n_per=30, d=10, gap=10.0, seed=0):
    rng = np.random.default_rng(seed)
    offset = np.full(d, gap / np.sqrt(d))
    feats = np.vstack(
        [rng.normal(size=(n_per, d)) - offset, rng.normal(size=(n_per, d)) + offset]
    )
    labels = np.repeat([0, 1], n_per)
    return Dataset(feats, labels)


@st.composite
def pca_splits(draw):
    """Small splits of any rank (0 included), d < n and d > n, some with
    repeated rows, and a K the nlp start can use."""
    n = draw(st.integers(3, 8))
    d = draw(st.integers(1, 13))
    rank = draw(st.integers(0, min(n - 1, d)))
    repeated = draw(st.integers(0, n // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d)) + rng.normal(size=d)
    X[n - repeated :] = X[:repeated]
    return TrainingSplit(Dataset(X, np.zeros(n, dtype=int))), draw(st.integers(2, n - 1))


class TestPca:
    @given(pca_splits())
    @example((TrainingSplit(Dataset(np.full((4, 6), 2.5), np.zeros(4, dtype=int))), 2))  # r = 0, d' >= n
    @settings(deadline=None, max_examples=100)
    def test_takes_every_d_prime_the_nlp_start_takes(self, problem):
        """One d' rule: PCA returns the nlp start at every d' in [1, d],
        d' >= n included, and every method refuses d' = d + 1."""
        split, K = problem
        d = split.features.shape[1]
        for d_prime in range(1, d + 1):
            start = train(split, TrainConfig(K=K, d_prime=d_prime, max_iters=0)).projection
            assert np.array_equal(train_pca(split, d_prime).projection, start)
        for fit in (lambda: train(split, TrainConfig(K=K, d_prime=d + 1)),
                    lambda: train_pca(split, d + 1),
                    lambda: train_lpp(split, BaselineConfig("lpp", d + 1, K=K))):
            with pytest.raises(ValueError, match=f"d_prime must be <= d = {d}, got {d + 1}"):
                fit()

    def test_recovers_dominant_direction(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=400)
        feats = np.column_stack([t, t]) + 0.01 * rng.normal(size=(400, 2))
        model = train_pca(Dataset(feats, np.zeros(400, dtype=int)), 1)
        target = np.array([1.0, 1.0]) / np.sqrt(2.0)
        angle = np.arccos(np.clip(abs(float(model.projection[:, 0] @ target)), -1, 1))
        assert angle < 1e-2

    def test_full_rank_captures_total_variance(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(200, 6)), np.zeros(200, dtype=int))
        model = train_pca(ds, 6)
        Xc = centered(ds)
        total = float(np.var(Xc, axis=0, ddof=1).sum())
        captured = float(np.var(Xc @ model.projection, axis=0, ddof=1).sum())
        assert captured == pytest.approx(total, rel=1e-8)

    def test_low_rank_data_reconstructs(self):
        rng = np.random.default_rng(2)
        basis = rng.normal(size=(3, 12))
        coords = rng.normal(size=(50, 3))
        ds = Dataset(coords @ basis, np.zeros(50, dtype=int))
        model = train_pca(ds, 3)
        Xc = centered(ds)
        recon = Xc @ model.projection @ model.projection.T
        loss = float(np.sum((Xc - recon) ** 2)) / float(np.sum(Xc**2))
        assert loss < 1e-8

    def test_optimality_vs_random_subspaces(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(80, 10)) * np.arange(1, 11), np.zeros(80, dtype=int))
        model = train_pca(ds, 3)
        Xc = centered(ds)
        captured = float(np.var(Xc @ model.projection, axis=0, ddof=1).sum())
        for _ in range(100):
            Q, _ = np.linalg.qr(rng.normal(size=(10, 3)))
            assert captured >= float(np.var(Xc @ Q, axis=0, ddof=1).sum()) - 1e-9

    def test_orthonormal_and_deterministic(self):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(30, 8)), np.zeros(30, dtype=int))
        a = train_pca(ds, 4)
        b = train_pca(ds, 4)
        assert np.array_equal(a.projection, b.projection)
        assert np.abs(a.projection.T @ a.projection - np.eye(4)).max() < 1e-10

    @pytest.mark.parametrize("d_prime", [2, 7, 9, 12])
    def test_equals_nlp_initialization(self, d_prime):
        # rank 7 in d = 20, so d' = 9 and 12 take directions past the rank
        ds = manifold_classes(n_per_class=6, ambient_dim=20, seed=11)
        assert np.linalg.matrix_rank(centered(ds)) == 7
        init = train(ds, TrainConfig(K=3, d_prime=d_prime, max_iters=0)).projection
        assert np.array_equal(train_pca(ds, d_prime).projection, init)
        split = TrainingSplit(ds)
        assert np.array_equal(train_pca(split, d_prime).projection, init)
        assert np.array_equal(train(split, TrainConfig(K=3, d_prime=d_prime, max_iters=0)).projection, init)

    def test_d_prime_too_large(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(5, 10)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError, match="d_prime"):
            train_pca(ds, 11)  # exceeds d = 10


class TestLpp:
    def test_rejects_a_pca_config(self):
        with pytest.raises(ValueError, match="train_lpp called with method 'pca'"):
            train_lpp(two_far_clusters(), BaselineConfig("pca", 2))

    def test_identical_rows_fail_the_solve(self):
        # centered rows of zeros leave X^T D X and its regularizer both zero
        ds = Dataset(np.full((6, 4), 2.5), np.zeros(6, dtype=int))
        with pytest.raises(ValueError, match="LPP generalized eigenproblem failed despite regularization"):
            train_lpp(ds, BaselineConfig("lpp", 2, K=3))

    def test_separates_far_clusters_in_one_dimension(self):
        ds = two_far_clusters()
        model = train_lpp(ds, BaselineConfig(method="lpp", d_prime=1, K=5))
        y = project(model, ds.features).ravel()
        lo = y[ds.labels == 0]
        hi = y[ds.labels == 1]
        assert lo.max() < hi.min() or hi.max() < lo.min()

    def test_disconnected_graph_still_trains(self):
        # two clusters far apart with small K: the kNN graph has two components
        ds = two_far_clusters(n_per=15, gap=200.0, seed=1)
        model = train_lpp(ds, BaselineConfig(method="lpp", d_prime=2, K=3))
        assert np.isfinite(model.projection).all()

    def test_generalized_orthogonality(self):
        ds = two_far_clusters(seed=2)
        cfg = BaselineConfig(method="lpp", d_prime=3, K=5)
        model = train_lpp(ds, cfg)
        X = centered(ds)
        A = _knn_affinity(X, k_nearest_neighbors(X, cfg.K))
        degrees = A.sum(axis=1)
        M_deg = X.T @ (degrees[:, None] * X)
        gram = model.projection.T @ M_deg @ model.projection
        assert np.abs(gram - np.eye(3)).max() < 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError, match="method"):
            BaselineConfig(method="lda", d_prime=2)
        with pytest.raises(ValueError, match="d_prime"):
            BaselineConfig(method="pca", d_prime=0)

    def test_k_too_large(self):
        ds = two_far_clusters(n_per=3, seed=4)
        with pytest.raises(ValueError, match="K must be <="):
            train_lpp(ds, BaselineConfig(method="lpp", d_prime=1, K=6))


def loop_affinity(X, K):
    """Row-by-row heat-kernel kNN adjacency, symmetrized by max (oracle)."""
    n = X.shape[0]
    neighbors = k_nearest_neighbors(X, K)
    d2 = np.zeros((n, K))
    for i in range(n):
        diffs = X[neighbors[i]] - X[i]
        d2[i] = np.einsum("ij,ij->i", diffs, diffs)
    dists = np.sqrt(d2[d2 > 0])
    sigma = float(np.median(dists)) if dists.size else 1.0
    A = np.zeros((n, n))
    weights = np.exp(-d2 / (sigma * sigma))
    for i in range(n):
        for slot, j in enumerate(neighbors[i]):
            w = weights[i, slot]
            A[i, j] = max(A[i, j], w)
            A[j, i] = max(A[j, i], w)
    return A


class TestKnnAffinity:
    # the ids name the heat-kernel width, always "auto" (the median distance)
    @pytest.mark.parametrize("seed", [0, 7, 21], ids=lambda seed: f"auto-{seed}")
    def test_matches_loop_oracle_bitwise(self, seed):
        X = centered(manifold_classes(n_per_class=12, ambient_dim=30, seed=seed))
        for K in (1, 3, 8):
            assert np.array_equal(_knn_affinity(X, k_nearest_neighbors(X, K)), loop_affinity(X, K))

    def test_duplicates_and_one_sided_neighbors(self):
        # duplicated rows give zero distances (weight 1, left out of the auto
        # width); the far point is nobody's neighbor but has neighbors itself
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [9.0, 9.0]])
        A = _knn_affinity(X, k_nearest_neighbors(X, 2))
        assert np.array_equal(A, loop_affinity(X, 2))
        assert np.array_equal(A, A.T)
        assert A[0, 1] == 1.0 and A[4, 3] > 0.0


def run_script(script: str) -> subprocess.CompletedProcess:
    """Run a Python script in a fresh interpreter that imports this nearline."""
    src = str(Path(nearline.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestLazyScipy:
    def test_scipy_loads_only_when_lpp_is_fitted(self):
        script = """
import sys
import numpy as np
import nearline, nearline.cli, nearline.nlp, nearline.evaluate
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
from nearline.baselines import BaselineConfig, train_lpp, train_pca
from nearline.data import Dataset
from nearline.nlp import TrainConfig, train
rng = np.random.default_rng(0)
ds = Dataset(rng.normal(size=(20, 6)), np.repeat([0, 1], 10))
train(ds, TrainConfig(K=3, d_prime=2, max_iters=2))
train_pca(ds, 2)
assert "scipy" not in sys.modules
train_lpp(ds, BaselineConfig("lpp", 2, K=3))
assert "scipy.linalg" in sys.modules
"""
        result = run_script(script)
        assert result.returncode == 0, result.stderr


class TestLazyNumpyMa:
    def test_evaluation_never_imports_numpy_ma(self):
        # numpy before 2.0 imports numpy.ma with numpy itself
        script = """
import sys
import numpy as np
if "numpy.ma" in sys.modules:
    sys.exit(3)
from nearline.baselines import BaselineConfig
from nearline.data import Dataset, SplitSpec
from nearline.evaluate import run_experiments
from nearline.nlp import TrainConfig
rng = np.random.default_rng(0)
ds = Dataset(rng.normal(size=(30, 6)), np.repeat([0, 4, 7], 10))
configs = [TrainConfig(K=3, d_prime=2, max_iters=2), BaselineConfig("pca", 2)]
for classifier in ("nn", "nearest_line"):
    run_experiments(ds, configs, SplitSpec(0.5, 1, 3), classifier)
assert "numpy.ma" not in sys.modules
"""
        result = run_script(script)
        if result.returncode == 3:
            pytest.skip("this numpy imports numpy.ma on import")
        assert result.returncode == 0, result.stderr


class TestInterchangeability:
    def test_models_share_projection_contract(self):
        ds = two_far_clusters(seed=5)
        for cfg in (BaselineConfig("pca", 2), BaselineConfig("lpp", 2, K=5)):
            model = fit_method(ds, cfg)
            assert isinstance(model, TrainedModel)
            assert model.projection.flags.f_contiguous  # the layout load_model gives
            y = project(model, ds.features)
            assert y.shape == (ds.n, 2)
            assert model.mean_vector.shape == (ds.d,)
            assert model.objective_trace == []
