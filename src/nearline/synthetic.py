"""Seeded synthetic datasets for benchmarks and tests."""

from __future__ import annotations

import numpy as np

from nearline.data import Dataset


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
    latent_extent: float = 3.0,
    curvature: float = 0.35,
    class_offset: float = 3.0,
    noise: float = 0.02,
    seed: int = 0,
) -> Dataset:
    """Classes on noisy curved 2-D sheets embedded in a high-dimensional space.

    Each class samples a latent square, maps it through a shared quadratic
    sheet, and is shifted by a class-specific offset in two extra structure
    coordinates; the whole structure is rotated into the ambient space by a
    fixed orthonormal embedding.  The sheets have large extent, so variance
    alone does not reveal the class offsets.

    The noise is added to the 7 structure coordinates before the embedding,
    so the rows have rank at most 7 whatever ``ambient_dim`` is.  A
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
        u = rng.uniform(-latent_extent, latent_extent, size=n_per_class)
        v = rng.uniform(-latent_extent, latent_extent, size=n_per_class)
        coords = np.column_stack(
            [
                u,
                v,
                curvature * (u**2 - latent_extent),
                curvature * (u * v),
                curvature * (v**2 - latent_extent),
                np.full(n_per_class, class_offset if c == 1 else 0.0),
                np.full(n_per_class, class_offset if c == 2 else 0.0),
            ]
        )
        coords += noise * rng.normal(size=coords.shape)
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
    separation: float = 10.0,
    tight_noise: float = 1e-3,
    loose_noise: float = 0.1,
    seed: int = 0,
) -> Dataset:
    """Perfectly separated compact clusters.

    Cluster centers differ only in the first two coordinates, where the
    within-class spread is very small; the remaining coordinates carry
    moderate class-independent noise.  Any method that keeps the first two
    coordinates separates the classes exactly.
    """
    if n_classes > 3:
        raise ValueError("at most 3 classes supported (2 center coordinates)")
    if d < 3:
        raise ValueError("d must be >= 3")
    rng = np.random.default_rng(seed)
    centers = np.zeros((n_classes, d))
    if n_classes > 1:
        centers[1, 0] = separation
    if n_classes > 2:
        centers[2, 1] = separation
    blocks = []
    for c in range(n_classes):
        pts = np.tile(centers[c], (n_per_class, 1))
        pts[:, :2] += tight_noise * rng.normal(size=(n_per_class, 2))
        pts[:, 2:] += loose_noise * rng.normal(size=(n_per_class, d - 2))
        blocks.append(pts)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return Dataset(np.vstack(blocks), labels)
