"""Synthetic latent structure: points clustered around class centroids.

The generator works directly in latent space. Points are sampled from
isotropic Gaussians centered at k random centroid locations, with classes
assigned round-robin so balanced designs (k | n) have exactly n/k points
per class.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validate import check_count, check_real


@dataclass(frozen=True)
class LatentDataset:
    """Ground-truth latent points and centroids the learner must recover."""

    points: np.ndarray     # (n, d); generate_dataset puts point i in class i mod k
    centroids: np.ndarray  # (k, d)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def all_items(self) -> np.ndarray:
        """Combined item coordinates: points first, centroids after.

        This index layout (points in [0, n), centroids in [n, n+k)) is fixed
        project-wide so constraint sets, Gram matrices and similarity
        matrices align by construction.
        """
        return np.vstack([self.points, self.centroids])


def generate_dataset(n: int, k: int, d: int, sigma: float = 0.5, seed: int = 0) -> LatentDataset:
    """Sample n points around k standard-normal centroids in R^d.

    Centroids are i.i.d. N(0, I_d). Point i belongs to class (i mod k) and
    equals its centroid plus isotropic Gaussian noise with per-coordinate
    standard deviation `sigma`. Pure function of its arguments: the same
    (n, k, d, sigma, seed) always yields bit-identical contents.
    """
    for name, value, low in (("n", n, 1), ("k", k, 2), ("d", d, 1)):
        check_count(name, value, low)
    check_real("sigma", sigma)
    check_count("seed", seed, 0, 2**64 - 1)

    rng = np.random.default_rng(seed)
    centroids = rng.standard_normal((k, d))
    points = centroids[np.arange(n) % k] + sigma * rng.standard_normal((n, d))
    return LatentDataset(points=points, centroids=centroids)


def similarity_matrix(items: np.ndarray, normalized: bool = True) -> np.ndarray:
    """Symmetric m x m pairwise similarities of m items: cosine when
    `normalized`, raw inner products otherwise."""
    x = np.asarray(items, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"items must be a 2-d array of vectors, got shape {x.shape}")
    gram = x @ x.T
    if normalized:
        norms = np.sqrt(np.diagonal(gram))
        if np.any(norms == 0):
            raise ValueError("cosine similarity is undefined for zero vectors")
        gram = gram / np.outer(norms, norms)
        gram = np.clip(gram, -1.0, 1.0)
    return gram

