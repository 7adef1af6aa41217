"""Recovery-quality metrics: tie-corrected Spearman correlation and the
recovery score built on it."""
from __future__ import annotations

import numpy as np

from .gnmds import GramMatrix


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


def recovery_score(gram: GramMatrix, truth: np.ndarray) -> float:
    """Spearman between predicted Gram entries and true similarities, over
    the pairs i < j of the m x m `truth`.

    The prediction side is deliberately left unnormalized: rank correlation
    absorbs the scale.
    """
    if truth.shape != gram.entries.shape:
        raise ValueError(f"shape mismatch: gram {gram.entries.shape}, truth {truth.shape}")
    iu = np.triu_indices(gram.entries.shape[0], 1)
    return spearman(gram.entries[iu], truth[iu])
