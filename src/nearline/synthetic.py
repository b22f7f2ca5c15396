"""Seeded synthetic datasets for benchmarks and tests."""

from __future__ import annotations

import numpy as np

from nearline.data import Dataset

# manifold_classes: the latent square's half-width, the sheet's curvature, the
# class offset and the noise on the structure coordinates
LATENT_EXTENT = 3.0
CURVATURE = 0.35
CLASS_OFFSET = 3.0
MANIFOLD_NOISE = 0.02

# separable_clusters: the offset of a cluster center from the origin, and the
# noise on the two center coordinates and on the rest
CLUSTER_SEPARATION = 10.0
TIGHT_NOISE = 1e-3
LOOSE_NOISE = 0.1


def gaussian_blobs(
    n_per_class: int = 50,
    n_classes: int = 3,
    d: int = 50,
    separation: float = 6.0,
    noise: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Isotropic Gaussian clusters at random, well-spread centers."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, d))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    features = np.vstack(
        [centers[c] + noise * rng.normal(size=(n_per_class, d)) for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return Dataset(features, labels)


def manifold_classes(
    n_per_class: int = 50,
    n_classes: int = 3,
    ambient_dim: int = 50,
    seed: int = 0,
) -> Dataset:
    """Classes on noisy curved 2-D sheets embedded in a high-dimensional space.

    Each class samples a latent square of half-width ``LATENT_EXTENT``, maps
    it through a shared quadratic sheet of curvature ``CURVATURE``, and is
    shifted by ``CLASS_OFFSET`` in one of two extra structure coordinates;
    the whole structure is rotated into the ambient space by a fixed
    orthonormal embedding.  The sheets have large extent, so variance alone
    does not reveal the class offsets.

    The noise, of standard deviation ``MANIFOLD_NOISE``, is added to the 7
    structure coordinates before the embedding, so the rows have rank at
    most 7 whatever ``ambient_dim`` is.  A
    projection to more dimensions (``--dims 10`` in the README's comparison)
    exceeds that rank and keeps directions orthogonal to every row.  LPP
    collapses there: when ``ambient_dim`` exceeds the rank it returns
    null-space directions, whose projected rows are about 1e-12 of the
    data's norm (at the defaults, seeds 0 and 5, at d' = 5, 7 and 10 alike),
    so its features are set by rounding.  Nearest-line, whose degeneracy
    test is relative, scores those small rows as 1-NN does: at any scale.
    """
    if n_classes > 3:
        raise ValueError("at most 3 classes supported (2 offset coordinates)")
    rng = np.random.default_rng(seed)
    structure_dim = 7  # 2 tangent + 3 curvature + 2 offset coordinates
    if ambient_dim < structure_dim:
        raise ValueError(f"ambient_dim must be >= {structure_dim}")

    blocks = []
    for c in range(n_classes):
        u = rng.uniform(-LATENT_EXTENT, LATENT_EXTENT, size=n_per_class)
        v = rng.uniform(-LATENT_EXTENT, LATENT_EXTENT, size=n_per_class)
        coords = np.column_stack(
            [
                u,
                v,
                CURVATURE * (u**2 - LATENT_EXTENT),
                CURVATURE * (u * v),
                CURVATURE * (v**2 - LATENT_EXTENT),
                np.full(n_per_class, CLASS_OFFSET if c == 1 else 0.0),
                np.full(n_per_class, CLASS_OFFSET if c == 2 else 0.0),
            ]
        )
        coords += MANIFOLD_NOISE * rng.normal(size=coords.shape)
        blocks.append(coords)
    structure = np.vstack(blocks)

    basis, _ = np.linalg.qr(rng.normal(size=(ambient_dim, structure_dim)))
    features = structure @ basis.T
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return Dataset(features, labels)


def separable_clusters(
    n_per_class: int = 12,
    n_classes: int = 3,
    d: int = 8,
    seed: int = 0,
) -> Dataset:
    """Perfectly separated compact clusters.

    Cluster centers differ only in the first two coordinates: class 0 sits
    at the origin, and classes 1 and 2 at ``CLUSTER_SEPARATION`` along the
    first and the second axis.  There the within-class noise is
    ``TIGHT_NOISE``; the remaining coordinates carry class-independent noise
    of ``LOOSE_NOISE``.  Any method that keeps the first two coordinates
    separates the classes exactly.
    """
    if n_classes > 3:
        raise ValueError("at most 3 classes supported (2 center coordinates)")
    if d < 3:
        raise ValueError("d must be >= 3")
    rng = np.random.default_rng(seed)
    centers = np.zeros((n_classes, d))
    if n_classes > 1:
        centers[1, 0] = CLUSTER_SEPARATION
    if n_classes > 2:
        centers[2, 1] = CLUSTER_SEPARATION
    blocks = []
    for c in range(n_classes):
        pts = np.tile(centers[c], (n_per_class, 1))
        pts[:, :2] += TIGHT_NOISE * rng.normal(size=(n_per_class, 2))
        pts[:, 2:] += LOOSE_NOISE * rng.normal(size=(n_per_class, d - 2))
        blocks.append(pts)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return Dataset(np.vstack(blocks), labels)
