"""Reference projection methods for the comparison harness: PCA and locality
preserving projections (LPP).

Both return TrainedModel objects with the same projection contract as
nearest-line training, so the evaluation harness treats all methods alike.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from nearline.data import Dataset
from nearline.linalg import orient_columns
from nearline.nlp import TrainConfig, TrainedModel, TrainingSplit

log = logging.getLogger(__name__)

LPP_REG_RTOL = 1e-8


@dataclass(frozen=True)
class BaselineConfig:
    """Configuration of one baseline method.

    ``K`` only matters for LPP: the neighbor count of its heat-kernel
    affinity graph, whose width is the median nonzero neighbor distance.
    """

    method: str
    d_prime: int
    K: int = 5

    def __post_init__(self):
        if METHODS.get(self.method) is not BaselineConfig:
            raise ValueError(f"method must be 'pca' or 'lpp', got {self.method!r}")
        if self.d_prime < 1:
            raise ValueError(f"d_prime must be >= 1, got {self.d_prime}")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")


# Every method by name, with the config class that describes its fits: the
# CLI's choices, the model file's ``method`` key and the baselines' check all
# read this table.
METHODS = {"nlp": TrainConfig, "pca": BaselineConfig, "lpp": BaselineConfig}


def train_pca(data: Dataset | TrainingSplit, d_prime: int) -> TrainedModel:
    """Top principal directions of the centered data, deterministic signs.

    The directions are the split's principal basis: only these ``d_prime``
    columns are lifted (``GramEigen.lift``) from its one eigendecomposition
    of the smaller Gram matrix (``linalg.gram_eigh``), the basis that nlp
    training starts from; past the rank of the data they are completed with
    unit directions orthogonal to every training row.  Any ``d_prime`` in
    [1, d] is taken, as by nlp training: the lift's completion refuses one
    above d, since d dimensions hold no more orthonormal columns.
    """
    config = BaselineConfig(method="pca", d_prime=d_prime)
    split = TrainingSplit.of(data)
    return TrainedModel(
        projection=split.gram.lift(np.eye(min(d_prime, split.gram.rank)), d_prime),
        mean_vector=split.mean_vector,
        config=config,
    )


def _knn_affinity(X: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Symmetric heat-kernel adjacency of the graph linking i to ``neighbors[i]``,
    its width the median nonzero neighbor distance."""
    n = X.shape[0]
    diffs = X[neighbors] - X[:, None, :]
    d2 = np.einsum("ikj,ikj->ik", diffs, diffs)
    dists = np.sqrt(d2[d2 > 0])
    sigma = float(np.median(dists)) if dists.size else 1.0
    B = np.zeros((n, n))
    B[np.arange(n)[:, None], neighbors] = np.exp(-d2 / (sigma * sigma))
    return np.maximum(B, B.T)


def train_lpp(data: Dataset | TrainingSplit, config: BaselineConfig) -> TrainedModel:
    """Locality preserving projections.

    Builds the symmetric heat-kernel graph on the split's K nearest
    neighbors, then solves the generalized eigenproblem
    X^T L_graph X w = lambda X^T D X w  for the smallest eigenvalues (rows
    of X are samples, L_graph = D - A).  The right-hand matrix is
    regularized by a small multiple of its mean diagonal so rank-deficient
    data stays solvable.
    """
    if config.method != "lpp":
        raise ValueError(f"train_lpp called with method {config.method!r}")
    split = TrainingSplit.of(data)
    X = split.features
    d = X.shape[1]
    if config.d_prime > d:
        raise ValueError(f"d_prime must be <= d = {d}, got {config.d_prime}")

    A = _knn_affinity(X, split.neighbor_lines(config.K).neighbors)
    degrees = A.sum(axis=1)
    L_graph = np.diag(degrees) - A

    M_lap = X.T @ L_graph @ X
    M_deg = X.T @ (degrees[:, None] * X)
    M_lap = (M_lap + M_lap.T) / 2.0
    M_deg = (M_deg + M_deg.T) / 2.0
    reg = LPP_REG_RTOL * np.trace(M_deg) / d
    M_deg_reg = M_deg + reg * np.eye(d)

    # imported here rather than at module load: only LPP needs scipy, and the
    # import costs more than a whole reduced-space nearest-line fit
    import scipy.linalg

    try:
        vals, vecs = scipy.linalg.eigh(M_lap, M_deg_reg, subset_by_index=(0, config.d_prime - 1))
    except scipy.linalg.LinAlgError as exc:
        cond = np.linalg.cond(M_deg_reg)
        raise ValueError(
            f"LPP generalized eigenproblem failed despite regularization "
            f"(cond(X^T D X + reg I) = {cond:.3e}): {exc}"
        ) from exc
    log.debug("lpp selected eigenvalues: %s", vals)
    return TrainedModel(projection=orient_columns(vecs), mean_vector=split.mean_vector, config=config)
