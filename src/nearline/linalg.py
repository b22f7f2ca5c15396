"""Shared numerical helpers: symmetric eigensolves, sign fixing, row-space bases."""

from __future__ import annotations

import numpy as np


def orient_columns(V: np.ndarray) -> np.ndarray:
    """Fix the sign of each column so its first nonzero component is positive.

    A component counts as nonzero above 1e-12 in magnitude; a column with
    none takes the sign of its largest component.  Eigenvectors and singular
    vectors are only defined up to sign; this makes every decomposition in
    the package deterministic.
    """
    V = np.array(V, dtype=float)
    if V.shape[1] == 0:
        return V
    cols = np.arange(V.shape[1])
    nonzero = (V > 1e-12) | (V < -1e-12)
    pivot = nonzero.argmax(axis=0)
    tiny = ~nonzero[pivot, cols]
    if tiny.any():
        pivot[tiny] = np.abs(V[:, tiny]).argmax(axis=0)
    np.negative(V, out=V, where=V[pivot, cols] < 0)
    return V


def sym_eigh(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (symmetrized) matrix, eigenvalues ascending."""
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise ValueError("eigendecomposition input contains non-finite values")
    sym = (M + M.T) / 2.0
    return np.linalg.eigh(sym)


def row_space(features: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of the rows of ``features``, which the
    caller has already centered (``nlp.TrainingSplit.features``).

    One thin SVD of the centered rows, ``Xc = U S V^T``.  Singular values at
    or below ``S[0] * max(n, d) * eps`` are dropped, leaving rank r.
    Returns ``V_r`` (d x r): the principal directions in decreasing order of
    variance, oriented.  Every row lies in the span of ``V_r``, so with
    ``Z = features @ V_r``, ``features @ (V_r @ B)`` equals ``Z @ B`` for
    any r-row matrix B.
    """
    X = np.asarray(features, dtype=float)
    _, S, Vt = np.linalg.svd(X, full_matrices=False)
    tol = S[0] * max(X.shape) * np.finfo(float).eps if S.size else 0.0
    return orient_columns(Vt[S > tol].T)


def complete_basis(V: np.ndarray, k: int) -> np.ndarray:
    """Extend orthonormal columns of V to k columns using identity directions.

    Candidate axes are tried in index order and orthogonalized against the
    accepted columns, so the completion is deterministic.
    """
    d = V.shape[0]
    if k > d:
        raise ValueError(f"cannot build {k} orthonormal columns in dimension {d}")
    cols = [V[:, i] for i in range(V.shape[1])]
    for axis in range(d):
        if len(cols) >= k:
            break
        e = np.zeros(d)
        e[axis] = 1.0
        for c in cols:
            e = e - (c @ e) * c
        norm = np.linalg.norm(e)
        if norm > 1e-8:
            cols.append(e / norm)
    # column-major, the layout a model file's projection_columns load into
    return np.array(cols[:k]).T
