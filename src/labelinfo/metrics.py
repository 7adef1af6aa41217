"""Recovery-quality and label-statistics metrics.

Tie-corrected Spearman correlation, triplet disagreement (bit-flip) rate
between similarity structures, entropy summaries of probabilistic labels,
and effective dimensionality read off a PCA curve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gnmds import GramMatrix
from .labels import LabelSet, PROBABILITY_KINDS
from .latentgen import SimilarityMatrix


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="mergesort")
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.arange(len(x))
    sorted_x = x[order]
    group_start = np.r_[True, sorted_x[1:] != sorted_x[:-1]]
    group_id = np.cumsum(group_start) - 1
    starts = np.flatnonzero(group_start)
    ends = np.r_[starts[1:], len(x)]
    mean_rank = (starts + ends + 1) / 2.0  # mean of the 1-based positions
    return mean_rank[group_id][inverse]


def spearman(a, b) -> float:
    """Tie-corrected Spearman rank correlation (Pearson on average ranks)."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if len(a) < 3:
        raise ValueError(f"need at least 3 observations, got {len(a)}")
    ra = _average_ranks(a) - (len(a) + 1) / 2.0
    rb = _average_ranks(b) - (len(b) + 1) / 2.0
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    if denom == 0.0:
        raise ValueError("rank variance is zero in at least one input")
    return float(np.clip((ra * rb).sum() / denom, -1.0, 1.0))


def recovery_score(gram: GramMatrix, truth: SimilarityMatrix,
                   normalize_gram: bool = False) -> float:
    """Spearman between predicted Gram entries and true cosine similarities.

    The prediction side is deliberately left unnormalized (rank correlation
    absorbs the scale); `normalize_gram` cosine-normalizes it for
    sensitivity checks.
    """
    if gram.size != truth.size:
        raise ValueError(f"item count mismatch: gram {gram.size}, truth {truth.size}")
    entries = gram.entries
    if normalize_gram:
        norms = np.sqrt(np.clip(np.diag(entries), 1e-30, None))
        entries = entries / np.outer(norms, norms)
    iu = np.triu_indices(gram.size, 1)
    return spearman(entries[iu], truth.values)


def _nearness_scores(structure) -> np.ndarray:
    """Dense matrix where larger means nearer, from similarities or coordinates."""
    if isinstance(structure, SimilarityMatrix):
        return structure.to_dense()
    coords = np.asarray(structure, dtype=float)
    if coords.ndim != 2:
        raise ValueError("coordinates must be a 2-d array of shape (m, dim)")
    sq_norm = np.einsum("ij,ij->i", coords, coords)
    return -(sq_norm[:, None] + sq_norm[None, :] - 2.0 * coords @ coords.T)


def triplet_disagreement_rate(a, b, sample_size: int | None = None,
                              seed: int = 0) -> float:
    """Fraction of triplet queries answered oppositely by two structures.

    Queries with a tie in either structure drop out of the denominator.
    Exhaustive over all 3*C(m,3) queries by default; `sample_size` switches
    to a seeded uniform sample (with replacement).
    """
    score_a = _nearness_scores(a)
    score_b = _nearness_scores(b)
    if score_a.shape != score_b.shape:
        raise ValueError(f"item count mismatch: {score_a.shape[0]} vs {score_b.shape[0]}")
    m = score_a.shape[0]
    if m < 3:
        raise ValueError(f"need at least 3 items for triplet queries, got {m}")
    if sample_size is None:
        anchors, ys, zs = _all_queries(m)
    else:
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        anchors, ys, zs = _sample_queries(m, sample_size, seed)
    diff_a = score_a[anchors, ys] - score_a[anchors, zs]
    diff_b = score_b[anchors, ys] - score_b[anchors, zs]
    valid = (diff_a != 0.0) & (diff_b != 0.0)
    if not valid.any():
        return 0.0
    disagree = np.sign(diff_a[valid]) != np.sign(diff_b[valid])
    return float(disagree.mean())


def _all_queries(m: int):
    """All 3*C(m,3) unique queries as (anchor, y, z) with y < z, y,z != anchor."""
    a, y, z = np.ogrid[:m, :m, :m]
    return np.nonzero((y < z) & (y != a) & (z != a))


def _sample_queries(m: int, sample_size: int, seed: int):
    rng = np.random.default_rng(seed)
    anchors = np.empty(sample_size, dtype=np.intp)
    ys = np.empty(sample_size, dtype=np.intp)
    zs = np.empty(sample_size, dtype=np.intp)
    filled = 0
    while filled < sample_size:
        draw = rng.integers(0, m, size=(sample_size - filled, 3))
        ok = ((draw[:, 0] != draw[:, 1]) & (draw[:, 0] != draw[:, 2])
              & (draw[:, 1] != draw[:, 2]))
        kept = draw[ok]
        anchors[filled:filled + len(kept)] = kept[:, 0]
        ys[filled:filled + len(kept)] = kept[:, 1]
        zs[filled:filled + len(kept)] = kept[:, 2]
        filled += len(kept)
    return anchors, ys, zs


@dataclass(frozen=True)
class LabelStats:
    mean_entropy: float  # bits
    variance_first_order: float  # variance of the per-row maximum mass
    normalized_entropy: float  # mean entropy / log2(k)
    stochastic_ir: float  # 1 - normalized entropy


def label_stats(labels: LabelSet) -> LabelStats:
    """Entropy summaries for probability-valued label matrices."""
    if labels.kind not in PROBABILITY_KINDS:
        raise TypeError(f"label_stats needs probability rows, got kind {labels.kind.value}")
    values = labels.values
    if np.any(values < 0) or not np.allclose(values.sum(axis=1), 1.0, atol=1e-8):
        raise TypeError("rows must be probability vectors")
    k = values.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(values > 0, values * np.log2(np.where(values > 0, values, 1.0)), 0.0)
    mean_entropy = float(-plogp.sum(axis=1).mean())
    eta = mean_entropy / np.log2(k) if k > 1 else 0.0
    return LabelStats(
        mean_entropy=mean_entropy,
        variance_first_order=float(np.var(values.max(axis=1))),
        normalized_entropy=float(eta),
        stochastic_ir=float(1.0 - eta),
    )


@dataclass(frozen=True)
class PcaCurve:
    """(k_hat, rho) pairs with strictly increasing k_hat."""
    points: tuple

    def __post_init__(self):
        pts = tuple((int(kh), float(r)) for kh, r in self.points)
        ks = [kh for kh, _ in pts]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("k_hat values must be strictly increasing")
        object.__setattr__(self, "points", pts)


def effective_dimensionality(rho_target: float, curve: PcaCurve):
    """Smallest k_hat on the curve reaching rho_target.

    Returns (k_hat, saturated); saturated=True means no point reached the
    target and the largest k_hat is reported instead. The curve need not be
    monotone (solver noise), so this scans for the first crossing.
    """
    if not curve.points:
        raise ValueError("curve is empty")
    for k_hat, rho in curve.points:
        if rho >= rho_target:
            return k_hat, False
    return curve.points[-1][0], True
