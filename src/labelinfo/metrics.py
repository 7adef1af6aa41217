"""Recovery-quality metrics: tie-corrected Spearman correlation and the
recovery score built on it."""
from __future__ import annotations

import numpy as np

from .gnmds import GramMatrix


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    _, group_id, counts = np.unique(np.asarray(x, dtype=float), return_inverse=True,
                                    return_counts=True)
    ends = np.cumsum(counts)  # a group of c ties holds the 1-based positions end - c + 1 .. end
    return ((2 * ends - counts + 1) / 2.0)[group_id]


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
