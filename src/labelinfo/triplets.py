"""Triplet-constraint mining from labels, closed-form counts, and bit-flip noise.

Items live in a combined index space: points occupy [0, n) and centroids
[n, n+k). A constraint (anchor, near, far) asserts that the anchor's
embedding is closer to `near` than to `far`; each such one-bit query appears
at most once per mined set.

One miner serves every label kind. It reads a label set as blocks of
nearness scores and emits (anchor, near, far) exactly when the anchor's
score for `near` is strictly larger than for `far`, so ties emit nothing.
Mined rows come out in lexicographic (anchor, near, far) order by
construction, as one C-contiguous int16 (T, 3) array: MAX_ITEMS bounds every
index a run may use, so int16 holds them all. A PCA set has 3 * C(m, 3) rows,
so int16 quarters the memory of the program's largest arrays against numpy's
default int64. The solver widens the indices to intp before it gathers with
them, because numpy's `take` is several times slower with narrow indices.
"""
from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from math import comb

import numpy as np

from .labels import LabelKind, LabelSet

# The largest set a sweep config or a constraint CSV may ask to mine and solve: at least 10x
# the largest any workload, experiment or battery check uses (the mining workload's PCA set at
# n = k = 40: 246,480 rows over 80 items). At MAX_ITEMS, an m x m float64 matrix is 5 MB, and
# the largest class-label cell under MAX_ROWS (n = 7, k = 793: 2,214,849 rows) took 0.12-0.15 s
# per solver iteration on 2 cores, so 4-5 minutes at the 2,000-iteration cap.
MAX_ROWS = 2_500_000
MAX_ITEMS = 800
# A triplet field as numpy's loadtxt reads an int64: optional sign, ASCII digits.
_INDEX = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")


@dataclass(frozen=True)
class ConstraintSet:
    n_points: int
    n_centroids: int
    triplets: np.ndarray  # (T, 3) int16 rows of (anchor, near, far); see the module docstring

    @property
    def m(self) -> int:
        """Total number of indexable items."""
        return self.n_points + self.n_centroids

    def __len__(self) -> int:
        return self.triplets.shape[0]


def _nearer(scores: np.ndarray) -> np.ndarray:
    """Mask whose [anchor, near, far] entry says scores[anchor, near] > scores[anchor, far].

    Ties and NaN comparisons are False, so they emit nothing. Its hits, read
    in C order, are the triples in lexicographic order.
    """
    return scores[:, :, None] > scores[:, None, :]


def mine_constraints(labels: LabelSet, n_points: int) -> ConstraintSet:
    """Every constraint that a strict comparison of nearness scores in `labels` answers.

    Class labels (n_points rows) are two blocks of scores: each point scores the
    classes by its masses, and each centroid the points by their masses in its
    class, so a hard label answers only the queries its class decides. Coordinates
    (m rows, points first) are one block, the negative squared distances between items.
    """
    values = labels.values
    coordinates = labels.kind is LabelKind.PCA_COORDS
    m = values.shape[0] if coordinates else n_points + values.shape[1]
    if coordinates and not 0 <= n_points <= m:
        raise ValueError(f"n_points must lie in [0, {m}], got {n_points}")
    if not coordinates and values.shape[0] != n_points:
        raise ValueError(f"class labels have {values.shape[0]} rows, not n_points={n_points}")
    if m > MAX_ITEMS:  # int16 rows hold every index below MAX_ITEMS, and no more
        raise ValueError(f"{m} items exceed the item limit of {MAX_ITEMS}")
    if coordinates:
        nearness = -_squared_distances(values)
        np.fill_diagonal(nearness, np.nan)  # an anchor is never its own near or far item
        masks = [(_nearer(nearness), 0, 0)]
    else:
        masks = [(_nearer(values), 0, n_points), (_nearer(values.T), n_points, 0)]
    # (mask, anchor offset, item offset): a mask's indices count from 0. A mask's hits per
    # (anchor, near) pair size its block and decode the anchor and near of each hit.
    hits = [np.count_nonzero(mask, axis=2).ravel() for mask, _, _ in masks]
    counts = [int(pair_hits.sum()) for pair_hits in hits]
    triplets = np.empty((sum(counts), 3), dtype=np.int16)
    start = 0
    for (mask, anchor, item), pair_hits, count in zip(masks, hits, counts):
        block = triplets[start:start + count]
        start += count
        anchors, nears, fars = mask.shape
        block[:, 0] = np.repeat(np.arange(anchor, anchor + anchors, dtype=np.int16),
                                pair_hits.reshape(anchors, nears).sum(axis=1))
        block[:, 1] = np.repeat(np.tile(np.arange(item, item + nears, dtype=np.int16), anchors),
                                pair_hits)
        # far is a hit's C-order flat index less its (anchor, near) row's start, plus `item`
        row_starts = np.arange(anchors * nears) * fars - item
        np.subtract(np.flatnonzero(mask), np.repeat(row_starts, pair_hits),
                    out=block[:, 2], casting="unsafe")
    return ConstraintSet(n_points=n_points, n_centroids=m - n_points, triplets=triplets)


def _squared_distances(coords: np.ndarray) -> np.ndarray:
    sq_norm = np.einsum("ij,ij->i", coords, coords)
    sq = sq_norm[:, None] + sq_norm[None, :] - 2.0 * coords @ coords.T
    np.fill_diagonal(sq, 0.0)
    return np.maximum(sq, 0.0)


def count_hard(n: int, k: int) -> Fraction:
    """Closed-form constraint count for n hard labels over k balanced classes.

    n(k-1) point-anchored constraints plus n^2(1-1/k) centroid-anchored
    ones; exact rational, integral whenever k divides n^2.
    """
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be >= 1, got n={n}, k={k}")
    return Fraction(n) * (k - 1) + Fraction(n * n) * (k - 1) / k


def count_soft(n: int, k: int) -> int:
    """Closed-form constraint count for n tie-free soft labels over k classes."""
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be >= 1, got n={n}, k={k}")
    prod = k * n * (k + n - 2)
    assert prod % 2 == 0
    return prod // 2


def count_queries(m: int) -> int:
    """All unique triplet queries over m items: three anchors per unordered item triple."""
    return 3 * comb(m, 3)


def information_ratio(constraint_count, n: int, k: int) -> float:
    """Fraction of all 3*C(n+k, 3) unique queries answered by a constraint set."""
    m = n + k
    if m < 3:
        raise ValueError(f"need n + k >= 3 items for any triplet query, got {m}")
    return float(Fraction(constraint_count) / count_queries(m))


def apply_noise(constraints: ConstraintSet, epsilon: float, seed: int) -> ConstraintSet:
    """Independently swap near/far on each constraint with probability `epsilon`."""
    if not 0 <= epsilon <= 1:
        raise ValueError(f"flip rate must lie in [0, 1], got {epsilon}")
    source = constraints.triplets
    rng = np.random.default_rng(seed)
    flipped = np.flatnonzero(rng.random(source.shape[0]) < epsilon)
    triplets = source.copy()
    triplets[flipped, 1] = source[flipped, 2]
    triplets[flipped, 2] = source[flipped, 1]
    return replace(constraints, triplets=triplets)


def check_size(where: str, n_items: int, rows: int) -> None:
    """Reject a set of more than MAX_ITEMS items or MAX_ROWS triplets before it is built."""
    if n_items > MAX_ITEMS:
        raise ValueError(f"{where}: {n_items} items exceed the item limit of {MAX_ITEMS}")
    if rows > MAX_ROWS:
        raise ValueError(f"{where}: {rows} triplets exceed the row limit of {MAX_ROWS}")


def constraints_from_csv(text: str) -> ConstraintSet:
    """Read a constraint set: the header `n,k,source_kind,flip_rate`, its one
    row of values, the header `anchor,near,far`, then one row per triplet.

    Lines end at "\n", "\r\n" or "\r", as a text-mode file reads them, and blank
    lines are skipped. A malformed header, a negative n or k, a set that
    `check_size` rejects (checked before any row is parsed), or a row that is not
    three distinct integer indices in [0, n + k) is a ValueError. The header's
    source kind and flip rate are read, and the rate must be a number, but
    neither is kept.
    """
    # one byte stream for the whole text: its rows are parsed with no list of lines
    stream = io.BytesIO(text.replace("\r\n", "\n").replace("\r", "\n").encode())
    header = list(islice(_lines(stream), 3))
    if len(header) < 3 or header[0] != "n,k,source_kind,flip_rate" or header[2] != "anchor,near,far":
        raise ValueError("malformed constraint CSV")
    n_str, k_str, _, flip = header[1].split(",")
    n, k = int(n_str), int(k_str)
    float(flip)  # a rate that is not a number is malformed
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be >= 0, got n={n}, k={k}")
    start = stream.tell()
    rows = sum(line != b"\n" for line in stream)  # the lines `_lines` would give
    check_size(f"n={n} k={k}", n + k, rows)
    stream.seek(start)
    return ConstraintSet(n_points=n, n_centroids=k, triplets=_triplet_rows(stream, rows, n + k))


def _lines(stream: io.BytesIO):
    """The stream's non-empty lines from where it stands, decoded, without their ends."""
    return (line.rstrip(b"\n").decode() for line in stream if line != b"\n")


def _triplet_rows(stream: io.BytesIO, rows: int, m: int) -> np.ndarray:
    """The stream's `rows` rows as one (T, 3) int16 array, parsed and checked whole; the
    first bad row is looked for only when a check fails, to name it in the error."""
    start = stream.tell()
    triplets = np.empty((0, 3), dtype=np.int16)  # loadtxt warns when it reads no rows
    if rows:
        try:  # a field past int16 fails here, and the bound check below names its row
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy 1.x reads "1.0" as 1 with a warning
                triplets = np.loadtxt(stream, delimiter=",", dtype=np.int16, ndmin=2,
                                      comments=None, encoding="utf-8")
        except (ValueError, Warning):
            triplets = None
    if triplets is not None and triplets.shape[1] == 3:
        anchor, near, far = triplets.T
        if (np.all((triplets >= 0) & (triplets < m))
                and np.all((anchor != near) & (anchor != far) & (near != far))):
            return triplets
    stream.seek(start)
    for number, line in enumerate(_lines(stream), start=1):
        fields = line.split(",")
        if len(fields) != 3 or not all(_INDEX.fullmatch(v) and 0 <= int(v) < m for v in fields):
            raise ValueError(f"constraint row {number} is not three integer indices "
                             f"in [0, {m}): {line!r}")
        if len({int(v) for v in fields}) < 3:
            raise ValueError(f"constraint row {number} names an item twice; anchor, near "
                             f"and far must differ: {line!r}")
    raise ValueError(f"constraint rows are not three integer indices in [0, {m})")
