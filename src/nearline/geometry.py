"""Point-to-line algebra: interpolation coefficient, residual, squared distance.

A line through two points ``a`` and ``b`` is parameterized as
``line(t) = a * t + b * (1 - t)``, so ``t = 1`` lands on ``a`` and ``t = 0``
on ``b``.  The parameter is unconstrained: these are infinite lines, not
segments.  All distances are squared Euclidean distances; no square roots
are taken anywhere.
"""

from __future__ import annotations

import numpy as np

# A line is degenerate when its two defining points (nearly) coincide
# relative to their magnitude; the closed-form coefficient divides by the
# squared gap between them.
DEGENERACY_RTOL = 1e-12


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
    ``|D|^2 >= DEGENERACY_RTOL * max(1, |A|^2, |B|^2)``: the package's one
    degeneracy test.  The last axis holds coordinates; the others broadcast.
    """
    D = A - B
    gap_sq = np.einsum("...j,...j->...", D, D)
    na = np.einsum("...j,...j->...", A, A)
    nb = np.einsum("...j,...j->...", B, B)
    ok = gap_sq >= DEGENERACY_RTOL * np.maximum(1.0, np.maximum(na, nb))
    return D, gap_sq, ok


def is_degenerate_line(a, b) -> bool:
    """True when the squared gap between ``a`` and ``b`` falls below the
    degeneracy threshold ``DEGENERACY_RTOL * max(1, |a|^2, |b|^2)``."""
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
