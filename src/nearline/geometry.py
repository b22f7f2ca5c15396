"""Point-to-line algebra (interpolation coefficient, residual, squared
distance) and the package's one exact nearest search.

A line through two points ``a`` and ``b`` is parameterized as
``line(t) = a * t + b * (1 - t)``, so ``t = 1`` lands on ``a`` and ``t = 0``
on ``b``.  The parameter is unconstrained: these are infinite lines, not
segments.  All distances are squared Euclidean distances; no square roots
are taken anywhere.
"""

from __future__ import annotations

import numpy as np

# A line is degenerate when its squared gap is at most this fraction of its
# larger squared endpoint norm, a test free of the data's scale (so are the
# fits and classifiers that read it); the coefficient divides by that gap.
DEGENERACY_RTOL = 1e-12

# Upper bound on the elements of each temporary the nearest searches and the
# scatter step build (one row per block at least).  A nearest-line call on a
# faces_nearest_line split (200 queries, 400 lines, d' = 20; 2 vCPUs) takes
# 5.7 ms at 1 << 10, 1.6 ms at 1 << 14 and 1.45 ms from 1 << 16 to 1 << 20.
BLOCK_ELEMENTS = 1 << 16

# Rounding slack of the nearest searches' Gram screens, in units of
# (dim + 2) eps (|q|^2 + max_t |t|^2); derived in nearest_candidates.
SCREEN_SLACK = 64


class DegenerateLineError(ValueError):
    """Raised when the two points defining a line (nearly) coincide."""


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


def _check_dims(point: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    if not (point.shape == a.shape == b.shape):
        raise ValueError(
            f"dimension mismatch: point {point.shape}, a {a.shape}, b {b.shape}"
        )


def line_gaps(A, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directions ``D = A - B`` of the lines through ``A`` and ``B``, their
    squared lengths ``|D|^2`` and the mask of lines that are not degenerate,
    ``|D|^2 > DEGENERACY_RTOL * max(|A|^2, |B|^2)``: the package's one
    degeneracy test (equal points, zero too, make a degenerate line).  The
    last axis holds coordinates; the others broadcast.
    """
    D = A - B
    gap_sq = np.einsum("...j,...j->...", D, D)
    na = np.einsum("...j,...j->...", A, A)
    nb = np.einsum("...j,...j->...", B, B)
    ok = gap_sq > DEGENERACY_RTOL * np.maximum(na, nb)
    return D, gap_sq, ok


def is_degenerate_line(a, b) -> bool:
    """True when the squared gap between ``a`` and ``b`` is at most
    ``DEGENERACY_RTOL * max(|a|^2, |b|^2)`` (``line_gaps``)."""
    return not line_gaps(_as_vector(a, "a"), _as_vector(b, "b"))[2]


def project_onto_lines(P, A, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closest points of ``P`` on the lines through ``A`` and ``B``.

    The vectorised form of ``line_alpha`` and ``line_residual``: the last axis
    holds coordinates and the other axes broadcast, so (m, d) arrays give one
    point per line, and ``P`` of shape (q, 1, d) against (m, d) endpoints
    scores every point against every line.  Returns ``(alpha, rho, ok)``: the
    coefficients, the residuals ``P - B - alpha (A - B)`` and the mask of
    lines that are not degenerate (``line_gaps``).  A degenerate line gets
    ``alpha = 0``, so its residual is ``P - B``.
    """
    D, gap_sq, ok = line_gaps(A, B)
    rho = P - B
    alpha = np.zeros(rho.shape[:-1])
    np.divide(np.einsum("...j,...j->...", rho, D), gap_sq, out=alpha, where=ok)
    rho -= alpha[..., None] * D
    return alpha, rho, ok


def blocks(count: int, width: int):
    """Slices of ``range(count)`` whose (rows x width) temporaries hold at
    most BLOCK_ELEMENTS elements (one row per slice at least)."""
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    for start in range(0, count, step):
        yield slice(start, start + step)


def nearest_candidates(screens, rescore, scale: np.ndarray, dim: int, K: int = 1) -> np.ndarray:
    """The K nearest candidates of every query, exactly: a (queries, K) int
    array, each row in (distance, index) order.

    ``screens`` yields ``(rows, start, screen)``: ``screen[i, c]`` is a
    Gram-form squared distance in ``dim`` dimensions from query ``rows.start
    + i`` to candidate ``start + c`` (``+inf`` rules it out), and ``scale[q]``
    is ``|q|^2`` plus the largest squared candidate norm.  One pass keeps the
    candidates within a rounding slack of their query's running K-th smallest
    screened value, pruned by the final one; ``rescore(q, c)`` gives their
    direct squared distances chunk by chunk, and each query takes the first
    K, as if every candidate were rescored.  A query whose scale is not
    finite keeps nothing; one that keeps fewer than K raises ``ValueError``.
    """
    # Each form is within about 10 (dim + 2) eps scale of the exact distance:
    # a sum of dim + 2 products errs by (dim + 2) eps times the sum of their
    # magnitudes, at most 2 scale in either screen, and the direct form errs
    # relative to |q - t|^2 <= 2 scale.  A true K nearest candidate screens at
    # most four such errors above the K-th screened value (both forms, on it
    # and on that one); SCREEN_SLACK = 64 leaves a 1.6x margin over 40.
    if scale.size == 0:
        return np.empty((0, K), dtype=int)
    slack = SCREEN_SLACK * (dim + 2) * np.finfo(float).eps * scale
    low = np.full((scale.size, K), np.inf)  # each query's K smallest screened values so far
    low[~np.isfinite(slack)] = -np.inf  # non-finite rows or queries: keep nothing

    def keep(rows, start, screen):
        smallest = (screen.min(axis=1, keepdims=True) if K == 1  # 7x faster than a partition
                    else np.partition(screen, min(K, screen.shape[1]) - 1, axis=1)[:, :K])
        low[rows] = np.sort(np.hstack([low[rows], smallest]), axis=1)[:, :K]
        # fewer than K finite screens so far: keep every finite one
        bound = np.minimum(low[rows, -1] + slack[rows], np.finfo(float).max)
        q, c = np.nonzero(screen <= bound[:, None])
        return q + rows.start, c + start, screen[q, c]

    # a block and its partition go with keep's frame: none lives on into the rescore
    kept = [keep(*block) for block in screens]
    if np.isposinf(low[:, 0]).all():
        raise ValueError("all candidates are degenerate")
    q, c, screened = (np.concatenate(parts) for parts in zip(*kept))
    within = screened <= low[q, -1] + slack[q]
    q, c = q[within], c[within]
    dist = np.empty(q.size)
    for part in blocks(q.size, dim):
        dist[part] = rescore(q[part], c[part])
    counts = np.bincount(q, minlength=scale.size)
    if (counts < K).any():
        raise ValueError("non-finite distances: rows and queries must be finite")
    order = np.lexsort((c, dist, q))
    first = np.cumsum(counts) - counts
    return c[order[first[:, None] + np.arange(K)]]


def nearest_rows(T: np.ndarray, Q: np.ndarray | None = None, K: int = 1) -> np.ndarray:
    """Indices of the K rows of ``T`` nearest to each row of ``Q`` (without
    ``Q``, to each row of ``T`` but itself): ``nearest_candidates`` with the
    screen ``|q|^2 + |t|^2 - 2 q.t`` and the rescore ``sum((t - q)^2)``."""
    t_norms = np.einsum("ij,ij->i", T, T)
    Q, q_norms, own = (T, t_norms, True) if Q is None else (Q, np.einsum("ij,ij->i", Q, Q), False)

    def screens():
        for rows in blocks(Q.shape[0], T.shape[0]):
            screen = q_norms[rows, None] + t_norms - 2.0 * (Q[rows] @ T.T)
            if own:
                np.fill_diagonal(screen[:, rows], np.inf)
            yield rows, 0, screen

    def rescore(q, c):
        return np.sum((T[c] - Q[q]) ** 2, axis=1)

    return nearest_candidates(screens(), rescore, q_norms + t_norms.max(), T.shape[1], K)


def line_alpha(point, a, b) -> float:
    """Coefficient of the point on the line through ``a`` and ``b`` closest
    to ``point``.

    Setting the derivative of ``|point - (a*t + b*(1-t))|^2`` to zero gives
    the closed form ``t = <point - b, a - b> / |a - b|^2``, the unique
    minimizer of the (convex) squared distance.  The result may fall outside
    [0, 1]; it is deliberately not clamped.

    Raises DegenerateLineError when ``a`` and ``b`` (nearly) coincide;
    callers are expected to skip such lines.
    """
    point = _as_vector(point, "point")
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    _check_dims(point, a, b)
    direction = a - b
    denom = float(direction @ direction)
    if is_degenerate_line(a, b):
        raise DegenerateLineError(
            f"line through (nearly) coincident points: |a - b|^2 = {denom:.3e}"
        )
    return float((point - b) @ direction) / denom


def line_residual(point, a, b, alpha: float) -> np.ndarray:
    """Residual vector ``point - b - alpha * (a - b)`` for a given coefficient.

    The coefficient is typically computed in another (projected) space; the
    residual lives in the space of the vectors passed here.  For a projection
    matrix W with ``y = W^T x``, ``|W^T residual|^2`` equals the projected
    point-to-line squared distance when ``alpha`` came from the projected
    points.
    """
    point = _as_vector(point, "point")
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    _check_dims(point, a, b)
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return point - b - alpha * (a - b)


def point_line_sqdist(point, a, b) -> float:
    """Squared distance from ``point`` to the infinite line through ``a``
    and ``b``.  Never exceeds the squared distance to either endpoint.
    """
    alpha = line_alpha(point, a, b)
    r = line_residual(point, a, b, alpha)
    return float(r @ r)
