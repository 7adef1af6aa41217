"""Label construction and sparsification transforms over a latent dataset.

Every label is an n-by-k row per point. Hard labels one-hot the nearest
centroid; soft labels are the softmax of negative point-to-centroid
distances; the remaining kinds are derived transforms (smoothing,
typicality spreading, per-row sparsification, informative-column selection,
PCA coordinate encoding).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .latentgen import LatentDataset


class LabelKind(enum.Enum):
    HARD = "hard"
    SOFT = "soft"
    SMOOTHED = "smoothed"
    TYPICALITY = "typicality"
    SPARSE_SOFT = "sparse"
    TOP_CLASS = "topclass"
    PCA_COORDS = "pca"


# Kinds that keep k_hat components per point, in the order sparsity sweeps run them;
# the first two keep k_hat of a point's k class scores, so need k_hat <= k.
CLASS_TRUNCATIONS = (LabelKind.SPARSE_SOFT, LabelKind.TOP_CLASS)
PARTIAL_KINDS = CLASS_TRUNCATIONS + (LabelKind.PCA_COORDS,)

# Equal-frequency bins per marginal in the top-class mutual-information estimate.
_MI_BINS = 8


@dataclass(frozen=True)
class LabelSet:
    kind: LabelKind
    values: np.ndarray  # (n, k); for PCA_COORDS: (n_items, k_hat), may be negative
    k_hat: Optional[int] = None


def _point_centroid_distances(dataset: LatentDataset) -> np.ndarray:
    diff = dataset.points[:, None, :] - dataset.centroids[None, :, :]
    return np.linalg.norm(diff, axis=2)


def hard_labels(dataset: LatentDataset) -> LabelSet:
    """One-hot at the nearest centroid; distance ties break toward the lowest class."""
    dist = _point_centroid_distances(dataset)
    nearest = np.argmin(dist, axis=1)  # argmin returns the first (lowest) index on ties
    values = np.zeros((dataset.n, dataset.k))
    values[np.arange(dataset.n), nearest] = 1.0
    return LabelSet(kind=LabelKind.HARD, values=values)


def soft_labels(dataset: LatentDataset) -> LabelSet:
    """Softmax of negative point-to-centroid Euclidean distances, row-normalized."""
    dist = _point_centroid_distances(dataset)
    logits = -dist
    logits -= logits.max(axis=1, keepdims=True)  # max-shift for numeric stability
    expd = np.exp(logits)
    values = expd / expd.sum(axis=1, keepdims=True)
    return LabelSet(kind=LabelKind.SOFT, values=values)


def smooth_labels(hard: LabelSet, epsilon: float) -> LabelSet:
    """Image-independent smoothing: the typicality labels of a constant score 1-eps."""
    if not 0 <= epsilon < 1:
        raise ValueError(f"smoothing rate must lie in [0, 1), got {epsilon}")
    typical = typicality_labels(hard, np.full(hard.values.shape[0], 1.0 - epsilon))
    return replace(typical, kind=LabelKind.SMOOTHED)


def typicality_labels(hard: LabelSet, typicality: Sequence[float]) -> LabelSet:
    """Put mass p_i on the true class and spread 1-p_i uniformly over the rest."""
    if hard.kind is not LabelKind.HARD:
        raise TypeError(f"typicality_labels requires hard labels, got {hard.kind.value}")
    p = np.asarray(typicality, dtype=float)
    n, k = hard.values.shape
    if p.shape != (n,):
        raise ValueError(f"expected one typicality score per point ({n}), got shape {p.shape}")
    if np.any(p <= 0) or np.any(p > 1):
        raise ValueError("typicality scores must lie in (0, 1]")
    true_class = np.argmax(hard.values, axis=1)
    values = np.repeat(((1.0 - p) / (k - 1))[:, None], k, axis=1)
    values[np.arange(n), true_class] = p
    return LabelSet(kind=LabelKind.TYPICALITY, values=values)


def sparsify_labels(soft: LabelSet, k_hat: int) -> LabelSet:
    """Keep the k_hat largest components of each row, zero the rest.

    Values are kept as-is, not renormalized: downstream triplet mining only
    uses within-row and within-column order.
    Ties at the cutoff break toward the lowest class index.
    """
    if soft.kind not in (LabelKind.SOFT, LabelKind.SMOOTHED, LabelKind.TYPICALITY):
        raise TypeError(f"sparsify_labels requires a dense soft variant, got {soft.kind.value}")
    n, k = soft.values.shape
    if not 1 <= k_hat <= k:
        raise ValueError(f"k_hat must lie in [1, {k}], got {k_hat}")
    # Stable sort on negated values keeps the lowest class index first among ties.
    order = np.argsort(-soft.values, axis=1, kind="stable")
    keep = order[:, :k_hat]
    values = np.zeros_like(soft.values)
    rows = np.repeat(np.arange(n), k_hat)
    values[rows, keep.ravel()] = soft.values[rows, keep.ravel()]
    return LabelSet(kind=LabelKind.SPARSE_SOFT, values=values, k_hat=k_hat)


def _columns_mutual_information(values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Plug-in mutual information (bits) between each label column and similarity structure.

    For each column, forms the paired sample (|col_a - col_b|, sim_ab) over
    all point pairs a < b of the n x n `reference`, discretizes each
    marginal into `_MI_BINS` equal-frequency bins and returns the mutual
    information of the joint histogram. Every column is binned and counted at
    once, so the extra memory is O(pairs * k); a sweep's size check bounds
    pairs * k, which is below the tie-free soft count kn(n + k - 2)/2.
    Non-negative by construction; exactly 0 for a constant column.
    """
    n, k = values.shape
    if n < 3:
        raise ValueError(f"need at least 3 points to estimate column information, got {n}")
    bins = _MI_BINS
    iu = np.triu_indices(n, 1)
    y = _equal_frequency_codes(reference[iu])
    x = _equal_frequency_codes(np.abs(values[iu[0]] - values[iu[1]]))  # (pairs, k)
    cells = (np.arange(k) * bins + x) * bins + y[:, None]  # (column, x, y) in C order
    histograms = np.bincount(cells.ravel(), minlength=k * bins * bins).reshape(k, bins, bins)
    mi = np.empty(k)
    for j, counts in enumerate(histograms):  # one column's sum at a time keeps its bits
        joint = counts / counts.sum()
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        nz = joint > 0
        mi[j] = max(float(np.sum(joint[nz] * np.log2(joint[nz] / np.outer(px, py)[nz]))), 0.0)
    return mi


def _equal_frequency_codes(x: np.ndarray) -> np.ndarray:
    """Quantile-based bin codes in [0, _MI_BINS) for x, or for each column of a 2-D x;
    ties collapse into shared bins. A code counts the bin edges at or below its value,
    as `np.searchsorted(edges, x, side="right")` would."""
    edges = np.quantile(x, np.linspace(0.0, 1.0, _MI_BINS + 1)[1:-1], axis=0)
    return np.count_nonzero(x[:, None] >= edges, axis=1)


def topclass_labels(soft: LabelSet, k_hat: int, reference: np.ndarray) -> LabelSet:
    """Zero out all but the k_hat columns most informative about the similarity structure.

    Column informativeness is the plug-in mutual information between the
    column and the ground-truth point-pairwise similarities; ties break
    toward the lowest column index.
    """
    if soft.kind is not LabelKind.SOFT:
        raise TypeError(f"topclass_labels requires soft labels, got {soft.kind.value}")
    n, k = soft.values.shape
    if not 1 <= k_hat <= k:
        raise ValueError(f"k_hat must lie in [1, {k}], got {k_hat}")
    if reference.shape != (n, n):
        raise ValueError(f"reference has shape {reference.shape}, labels have {n} points")
    retained = np.argsort(-_columns_mutual_information(soft.values, reference),
                          kind="stable")[:k_hat]
    values = np.zeros_like(soft.values)
    values[:, retained] = soft.values[:, retained]
    return LabelSet(kind=LabelKind.TOP_CLASS, values=values, k_hat=k_hat)


def pca_encode(dataset: LatentDataset, k_hat: int) -> LabelSet:
    """Coordinates of all n+k items in the top-k_hat principal-component basis.

    PCA runs on the latent item coordinates (points then centroids), treating
    the curve over k_hat as a bound on how well any k_hat-vector encoding can
    communicate the geometry.

    Each component's sign is fixed by making its largest-magnitude loading
    positive, so repeated runs are deterministic.
    """
    matrix = dataset.all_items()
    m, width = matrix.shape
    if not 1 <= k_hat <= min(width, m):
        raise ValueError(f"k_hat must lie in [1, {min(width, m)}], got {k_hat}")
    centered = matrix - matrix.mean(axis=0, keepdims=True)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    scores = u[:, :k_hat] * s[:k_hat]
    for j in range(k_hat):
        lead = np.argmax(np.abs(vt[j]))
        if vt[j, lead] < 0:
            scores[:, j] = -scores[:, j]
    return LabelSet(kind=LabelKind.PCA_COORDS, values=scores, k_hat=k_hat)
