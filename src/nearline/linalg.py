"""Shared numerical helpers: symmetric eigensolves, sign fixing, and the
row-space coordinates of some rows from one Gram eigendecomposition, with
input-space directions lifted from it only as far as the caller reads."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class GramEigen:
    """The eigendecomposition of the smaller Gram matrix of some rows, cut
    to their rank r (``gram_eigh``): ``coordinates`` are the rows in the
    basis of principal directions, and ``lift`` turns coefficients on that
    basis into directions of the input space."""

    rows: np.ndarray     # the rows, divided by scale
    scale: float         # what gram_eigh divided the rows by (1.0 when it did not rescale)
    values: np.ndarray   # the r kept eigenvalues lambda = S^2 of the rescaled rows, decreasing
    vectors: np.ndarray  # their eigenvectors U_r, one per column

    @property
    def rank(self) -> int:
        return self.values.size

    @property
    def coordinates(self) -> np.ndarray:
        """The rows in the principal directions ``V_r`` (n x r): ``X V_r``,
        which is ``U_r Lambda_r^(1/2)`` when n <= d and ``X U_r`` otherwise,
        in the units of the rows the caller passed.  Column signs follow
        ``vectors``, not the orientation ``lift`` applies."""
        if self.rows.shape[0] <= self.rows.shape[1]:
            Z = self.vectors * np.sqrt(self.values)
        else:
            Z = self.rows @ self.vectors
        Z *= self.scale
        return Z

    def lift(self, B: np.ndarray, k: int) -> np.ndarray:
        """The input-space directions ``V_p B`` (d x m), orthonormal and
        oriented, for coefficients B (p x m) on the top p <= r principal
        directions ``V_p``, completed to k >= m columns (``complete_basis``)
        with deterministic unit directions orthogonal to them; column-major.

        When n <= d they are ``X^T U_p Lambda_p^(-1/2) B``, else ``U_p B``.
        The first form loses orthonormality as the kept spectrum spreads, so
        when ``max |V^T V - I|`` exceeds ``max(n, d) * eps`` one Cholesky-QR
        pass, ``V R^-1`` with ``V^T V = R^T R``, restores it.  Only the m
        lifted columns are formed, checked and passed over; ``B = I`` gives
        the top p directions themselves, bit for bit.
        """
        X = self.rows
        n, d = X.shape
        p, m = B.shape
        U = self.vectors[:, :p]
        if n <= d:
            V = X.T @ ((U / np.sqrt(self.values[:p])) @ B)
        else:
            V = U @ B
        if m:
            C = V.T @ V
            if np.abs(C - np.eye(m)).max() > max(n, d) * np.finfo(float).eps:
                V = V @ np.linalg.inv(np.linalg.cholesky(C).T)
        if k > m:
            V = complete_basis(V, k)
        V = np.asfortranarray(V)  # the layout a model file's projection_columns load into
        return orient_columns(V)


def gram_eigh(features: np.ndarray) -> GramEigen:
    """One eigendecomposition of the smaller Gram matrix of rows the caller
    has already centered (``nlp.TrainingSplit.features``): ``X X^T`` (n x n)
    when n <= d, else ``X^T X`` (d x d), eigenvalues ``lambda = S^2`` in
    decreasing order.

    Eigenvalues at or below ``lambda[0] * max(n, d) * eps`` are dropped,
    leaving rank r.  That is the thin SVD's rule applied to lambda, and all a
    Gram matrix can resolve; in singular values it drops
    ``S_i <= S[0] * sqrt(max(n, d) * eps)``, where a thin SVD of X could keep
    everything above ``S[0] * max(n, d) * eps``.
    """
    X = np.asarray(features, dtype=float)
    n, d = X.shape
    # the Gram matrix squares the scale of X: outside this range it would
    # overflow or lose the small eigenvalues to underflow (V is scale-free)
    peak = max(X.max(initial=0.0), -X.min(initial=0.0))
    scale = 1.0
    if peak and not 1e-100 < peak < 1e100:
        scale = peak
        X = X / peak
    lam, U = sym_eigh(X @ X.T if n <= d else X.T @ X)
    lam, U = lam[::-1], U[:, ::-1]
    r = np.count_nonzero(lam > lam[0] * max(n, d) * np.finfo(float).eps) if lam.size else 0
    return GramEigen(rows=X, scale=scale, values=lam[:r], vectors=U[:, :r])


def row_space(features: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of the rows of ``features``, which the
    caller has already centered: ``gram_eigh`` lifted in full.

    Returns ``V_r`` (d x r): the principal directions in decreasing order of
    variance, oriented.  Every row lies in the span of ``V_r`` up to the
    dropped spectrum, so with ``Z = features @ V_r``, ``features @ (V_r @ B)``
    equals ``Z @ B`` for any r-row matrix B.
    """
    gram = gram_eigh(features)
    return gram.lift(np.eye(gram.rank), gram.rank)


def complete_basis(V: np.ndarray, k: int) -> np.ndarray:
    """Extend orthonormal columns of V to k columns using identity directions.

    Candidate axes are tried in index order and orthogonalized against the
    accepted columns, so the completion is deterministic.  Each axis gets two
    Gram-Schmidt passes: the second removes what rounding left of the first,
    so an axis nearly inside the span still comes out orthogonal to eps.
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
        for c in cols * 2:
            e = e - (c @ e) * c
        norm = np.linalg.norm(e)
        if norm > 1e-8:
            cols.append(e / norm)
    # column-major, the layout a model file's projection_columns load into
    return np.array(cols[:k]).T
