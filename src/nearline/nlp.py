"""Nearest-line projection training.

Learns a linear projection W whose columns are eigenvectors of a scatter
operator built from point-to-neighbor-line residuals.  Training alternates
two steps: assemble the scatter operator for the current W (the line
coefficients depend on the projected coordinates), then replace W by the
eigenvectors of the operator's smallest eigenvalues.  The neighbor/line
index is built once, from input-space distances, and never rebuilt.

Every residual is a combination of differences of training rows, so the
scatter operator lives in the span of the centered training data, of rank
r <= n - 1.  Training therefore runs in that row space, on the coordinates
Z (n x r) of the rows in their principal directions V_r, read from one
eigendecomposition of the split's smaller Gram matrix (``linalg.gram_eigh``:
``Z = U_r Lambda_r^(1/2)`` when n <= d, and singular values at or below
``S[0] * sqrt(max(n, d) * eps)`` are dropped).  The scatter operator is
r x r, summed over blocks of lines, and only the learned r x d' update is
lifted to the input space, once, at the end (``GramEigen.lift``, whose
Cholesky-QR pass keeps it orthonormal).  No d x d matrix, no d x r basis and
no matrix of all residuals is built.  While the set of degenerate lines
stays the same, neither step can raise the objective.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from nearline.data import Dataset
from nearline.geometry import blocks, nearest_rows, project_onto_lines
from nearline.linalg import GramEigen, gram_eigh, orient_columns, sym_eigh

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of nearest-line projection training."""

    K: int
    d_prime: int
    max_iters: int = 50
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.K < 2:
            raise ValueError(f"K must be >= 2, got {self.K}")
        if self.d_prime < 1:
            raise ValueError(f"d_prime must be >= 1, got {self.d_prime}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.rel_tol >= 0:  # also rejects NaN, which would never converge
            raise ValueError(f"rel_tol must be nonnegative, got {self.rel_tol}")


@dataclass(frozen=True)
class NeighborLineIndex:
    """Per-sample nearest neighbors and the lines they span.

    ``neighbors[i]`` holds the K nearest indices of sample i ordered by
    distance; ``lines[i]`` the K*(K-1)/2 unordered neighbor pairs (j, k) with
    j < k, in lexicographic order.
    """

    neighbors: np.ndarray  # (n, K) int
    lines: np.ndarray      # (n, K*(K-1)//2, 2) int

    def flat_triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, k) index arrays enumerating every (sample, line) pair."""
        n, pairs = self.lines.shape[0], self.lines.shape[1]
        i_idx = np.repeat(np.arange(n), pairs)
        j_idx = self.lines[:, :, 0].reshape(-1)
        k_idx = self.lines[:, :, 1].reshape(-1)
        return i_idx, j_idx, k_idx


@dataclass
class TrainedModel:
    """A learned projection plus the statistics needed to apply it.

    ``step_traces`` records, for each iteration, the trace objective of the
    previous and the updated W under that iteration's fixed scatter operator
    (the updated value can never exceed the previous one).  It is a training
    diagnostic and is not serialized.
    """

    projection: np.ndarray       # (d, d_prime)
    mean_vector: np.ndarray      # (d,)
    config: object               # TrainConfig or baselines.BaselineConfig
    objective_trace: list[float]
    iterations_run: int
    converged: bool
    step_traces: list[tuple[float, float]] = field(default_factory=list)

    @property
    def d(self) -> int:
        return self.projection.shape[0]

    @property
    def d_prime(self) -> int:
        return self.projection.shape[1]


def _features_of(data) -> np.ndarray:
    if isinstance(data, Dataset):
        return data.features
    return np.asarray(data, dtype=float)


def k_nearest_neighbors(features: np.ndarray, K: int) -> np.ndarray:
    """Indices of the K nearest rows to each row, by squared distance.

    Exact, ties broken by the smaller index (``geometry.nearest_rows``): the
    same neighbors as ranking every row by the direct ``sum((x_j - x_i)^2)``.
    """
    X = np.asarray(features, dtype=float)
    n = X.shape[0]
    if not 1 <= K <= n - 1:
        raise ValueError(f"K must be in [1, {n - 1}], got {K}")
    return nearest_rows(X, K=K)


def build_neighbor_lines(dataset, K: int) -> NeighborLineIndex:
    """Neighbor sets and all neighbor-pair lines for every sample."""
    neighbors = k_nearest_neighbors(_features_of(dataset), K)
    j, k = np.triu_indices(K, 1)
    nb_sorted = np.sort(neighbors, axis=1)
    lines = np.stack([nb_sorted[:, j], nb_sorted[:, k]], axis=2)
    return NeighborLineIndex(neighbors=neighbors, lines=lines)


class TrainingSplit:
    """A training set centered once, the package's only centering step:
    ``mean_vector`` is the column mean of the rows and ``features`` the
    read-only rows minus it.  One eigendecomposition of its smaller Gram
    matrix (``linalg.gram_eigh``) and the neighbor/line index per K are
    computed on first use and shared by every fit on the split; each fit
    lifts from the eigendecomposition only the input-space columns it
    returns."""

    def __init__(self, dataset: Dataset):
        self.mean_vector = dataset.features.mean(axis=0)
        self.features = dataset.features - self.mean_vector
        self.mean_vector.setflags(write=False)
        self.features.setflags(write=False)
        self._neighbor_lines: dict[int, NeighborLineIndex] = {}

    @classmethod
    def of(cls, data: Dataset | TrainingSplit) -> TrainingSplit:
        return data if isinstance(data, cls) else cls(data)

    @functools.cached_property
    def gram(self) -> GramEigen:
        return gram_eigh(self.features)

    def principal_basis(self, k: int) -> np.ndarray:
        """The top k principal directions (d x k), oriented, lifted from the
        split's Gram eigendecomposition without forming the other r - k
        columns of the row-space basis; past the rank r, deterministic unit
        directions orthogonal to every training row."""
        return self.gram.lift(np.eye(min(k, self.gram.rank)), k)

    def neighbor_lines(self, K: int) -> NeighborLineIndex:
        if K not in self._neighbor_lines:
            self._neighbor_lines[K] = build_neighbor_lines(self.features, K)
        return self._neighbor_lines[K]


def _line_pass(X: np.ndarray, W: np.ndarray, triples):
    """One pass over the lines under projection W: coefficients, validity
    mask and objective.

    Returns (alpha, ok, objective): the line coefficient minimizes the
    projected residual ``rho = (y_i - y_k) - alpha * (y_j - y_k)``; lines
    whose projected endpoints (nearly) coincide are masked out for this W
    only, and the objective sums the squared residuals of the kept lines.
    Both the objective of W and the scatter operator built under W are read
    from this one pass; the residuals themselves are not kept.
    """
    i_idx, j_idx, k_idx = triples
    Y = X @ W
    alpha, rho, ok = project_onto_lines(
        Y.take(i_idx, axis=0), Y.take(j_idx, axis=0), Y.take(k_idx, axis=0)
    )
    skipped = ok.size - np.count_nonzero(ok)
    if skipped:
        log.debug("skipped %d degenerate projected lines (of %d)", skipped, ok.size)
    kept = rho[ok] if skipped else rho
    return alpha, ok, float(np.einsum("ij,ij->", kept, kept))


def _scatter_of(X: np.ndarray, triples, alpha: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Scatter operator from one pass's coefficients: the sum of the outer
    products of the input-space residuals of the kept lines, symmetrized.

    The operator is summed block by block, ``L += R_b^T R_b`` over the
    ``geometry.blocks`` of lines, so besides L only temporaries of at most
    ``geometry.BLOCK_ELEMENTS`` elements and one product of L's size are
    alive; each residual element is computed as
    ``(x_i - x_k) - alpha * (x_j - x_k)``.
    """
    i_idx, j_idx, k_idx = triples
    L = np.zeros((X.shape[1], X.shape[1]))
    if not ok.all():
        if not ok.any():
            return L
        i_idx, j_idx, k_idx, alpha = i_idx[ok], j_idx[ok], k_idx[ok], alpha[ok]
    for rows in blocks(i_idx.size, X.shape[1]):
        Xk = X.take(k_idx[rows], axis=0)
        R = X.take(i_idx[rows], axis=0)
        R -= Xk
        D = X.take(j_idx[rows], axis=0)
        D -= Xk
        D *= alpha[rows, None]
        R -= D
        L += R.T @ R
    return (L + L.T) / 2.0


def assemble_scatter(dataset, index: NeighborLineIndex, W: np.ndarray) -> np.ndarray:
    """Scatter operator: the sum over samples and neighbor lines of the outer
    products of input-space residuals.

    Each residual is ``x_i - x_k - alpha * (x_j - x_k)`` with the coefficient
    computed from the projected points, so the operator depends on W.  The
    result is symmetrized to remove floating-point asymmetry.
    """
    X = _features_of(dataset)
    if W.shape[0] != X.shape[1]:
        raise ValueError(f"projection has {W.shape[0]} rows, features have {X.shape[1]} columns")
    triples = index.flat_triples()
    alpha, ok, _ = _line_pass(X, W, triples)
    return _scatter_of(X, triples, alpha, ok)


def objective(dataset, index: NeighborLineIndex, W: np.ndarray) -> float:
    """Total squared point-to-line distance in the projected space.

    Sums, over every sample and every line through a pair of its neighbors,
    the squared distance of the projected sample to the projected line.
    Degenerate lines are skipped exactly as in assemble_scatter, so this
    equals the trace of W^T L W against the assembled scatter operator.
    """
    return _line_pass(_features_of(dataset), W, index.flat_triples())[2]


def eigen_step(L: np.ndarray, d_prime: int) -> np.ndarray:
    """Projection update: the eigenvectors of L's d_prime smallest
    eigenvalues, null ones included, which minimize the trace objective."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"scatter operator must be square, got shape {L.shape}")
    d = L.shape[0]
    if not 1 <= d_prime <= d:
        raise ValueError(f"d_prime must be in [1, {d}], got {d_prime}")
    _, vecs = sym_eigh(L)
    return orient_columns(np.asfortranarray(vecs[:, :d_prime]))


def train(data: Dataset | TrainingSplit, config: TrainConfig) -> TrainedModel:
    """Fit the nearest-line projection.

    A plain dataset is wrapped in a ``TrainingSplit``, which centers it; the
    row-space coordinates ``Z = X V_r`` (``GramEigen.coordinates``) and the
    neighbor/line index (from input-space distances) are read from the split.
    The loop runs on Z, where ``X W`` equals ``Z W_z`` for ``W = V_r W_z``,
    and starts from the top principal directions, ``W_z = I``
    (r x min(d', r)): each iteration assembles the r x r scatter operator
    under the current projection, replaces the projection through the eigen
    step, and records the objective of the new one.  One line pass per
    projection gives both its objective and the next operator.  The
    objective does not rise unless the degenerate-line mask changes between
    two projections; such a change is logged at DEBUG level.  Training stops
    when the relative objective change drops below ``rel_tol`` or after
    ``max_iters`` iterations.  The result ``V_r W_z`` is lifted once (``GramEigen.lift``)
    and, when ``d_prime`` exceeds r, completed with deterministic directions
    orthogonal to the training rows.  Without iterations the result is the
    principal basis and the trace holds the initial objective.  Data with a
    single distinct row (r = 0) is already at the zero objective and runs
    none.
    """
    split = TrainingSplit.of(data)
    n, d = split.features.shape
    if config.K > n - 1:
        raise ValueError(f"K must be <= n - 1 = {n - 1}, got {config.K}")
    if config.d_prime > d:
        raise ValueError(f"d_prime must be <= d = {d}, got {config.d_prime}")

    gram = split.gram
    Z = gram.coordinates
    r = gram.rank
    W_z = np.eye(r, min(config.d_prime, r))

    triples = split.neighbor_lines(config.K).flat_triples()

    alpha, ok, objective_prev = _line_pass(Z, W_z, triples)
    if not np.isfinite(objective_prev):
        raise ValueError(f"non-finite objective at initialization: {objective_prev}")

    trace: list[float] = []
    step_traces: list[tuple[float, float]] = []
    converged = r == 0
    iterations = 0
    for t in range(1, config.max_iters + 1 if r else 1):
        L = _scatter_of(Z, triples, alpha, ok)
        trace_old = float(np.trace(W_z.T @ L @ W_z))
        W_z = eigen_step(L, min(config.d_prime, r))
        trace_new = float(np.trace(W_z.T @ L @ W_z))
        step_traces.append((trace_old, trace_new))

        ok_prev = ok
        alpha, ok, value = _line_pass(Z, W_z, triples)
        flipped = np.count_nonzero(ok != ok_prev)
        if flipped:
            log.debug(
                "iteration %d: degenerate-line mask changed on %d lines; the objective may rise here",
                t, flipped,
            )
        if not np.isfinite(value):
            raise ValueError(f"non-finite objective at iteration {t}: {value}")
        trace.append(value)
        iterations = t
        rel_change = abs(value - objective_prev) / max(abs(objective_prev), 1e-30)
        objective_prev = value
        if rel_change < config.rel_tol:
            converged = True
            break
        log.debug("iteration %d: objective %.6e (rel change %.3e)", t, value, rel_change)

    return TrainedModel(
        projection=gram.lift(W_z, config.d_prime),
        mean_vector=split.mean_vector,
        config=config,
        objective_trace=trace or [objective_prev],
        iterations_run=iterations,
        converged=converged,
        step_traces=step_traces,
    )


def project(model: TrainedModel, x) -> np.ndarray:
    """Map a vector (or a matrix of row vectors) into the learned subspace:
    subtract the training mean and apply the projection."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.d:
        raise ValueError(f"input has dimension {x.shape[-1]}, model expects {model.d}")
    return (x - model.mean_vector) @ model.projection
