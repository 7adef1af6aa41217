"""Correctness checks made apart from the program.

Each check takes plain data (CSV text, arrays) and returns a list of error
strings; an empty list means the output passed. Reference values come from
closed forms, from properties the method must have, or from this file's own
re-implementation of the dataset generator, nearest-centroid assignment,
PCA, cosine similarity, rank correlation and a nested-loop triplet
enumeration. None of them reads a stored copy of an earlier output.
"""
from __future__ import annotations

import csv
import hashlib
import io
from math import comb, sqrt

import numpy as np

# Two reference distances or label values closer than this (relative) count
# as a possible tie: the program's own arithmetic may order them either way,
# so a closed form that assumes no ties is not applied there.
NEAR_TIE = 1e-9
# Recomputed rank correlations agree with the program's to this (absolute).
RHO_TOLERANCE = 1e-6
# A flip count further than this many standard deviations from epsilon * T
# is rejected; the chance of a false rejection per set is about 2e-9.
NOISE_SIGMAS = 6.0


def cell_seed(base_seed: int, **fields) -> int:
    """The sweep's per-cell seed: a keyed blake2b digest of the named fields."""
    payload = "|".join(f"{name}={fields[name]!r}" for name in sorted(fields))
    digest = hashlib.blake2b(payload.encode(), digest_size=8,
                             key=int(base_seed).to_bytes(8, "little")).digest()
    return int.from_bytes(digest, "little")


def latent_items(n: int, k: int, d: int, sigma: float, seed: int) -> np.ndarray:
    """Points then centroids, drawn as the generator documents it."""
    rng = np.random.default_rng(seed)
    centroids = rng.standard_normal((k, d))
    points = centroids[np.arange(n) % k] + sigma * rng.standard_normal((n, d))
    return np.vstack([points, centroids])


def _squared_distances(x: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - x[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _distinct(values: np.ndarray) -> bool:
    """No two entries closer than NEAR_TIE relative to their size."""
    v = np.sort(np.asarray(values, dtype=float))
    return bool(np.all(np.diff(v) > NEAR_TIE * np.maximum(np.abs(v[1:]), 1e-300)))


def _point_centroid_distances(items: np.ndarray, n: int) -> np.ndarray:
    points, centroids = items[:n], items[n:]
    return np.sqrt(((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2))


def hard_count(items: np.ndarray, n: int) -> int | None:
    """n(k-1) + sum_j c_j (n - c_j) from the nearest-centroid class sizes c_j.

    None when some point is nearly equidistant from its two nearest
    centroids, where the assignment could go either way.
    """
    dist = _point_centroid_distances(items, n)
    k = dist.shape[1]
    ordered = np.sort(dist, axis=1)
    if np.any(ordered[:, 1] - ordered[:, 0] <= NEAR_TIE * ordered[:, 1]):
        return None
    sizes = np.bincount(dist.argmin(axis=1), minlength=k)
    return n * (k - 1) + int((sizes * (n - sizes)).sum())


def soft_count(items: np.ndarray, n: int) -> int | None:
    """kn(k+n-2)/2 for tie-free softmax labels; None when a row or column ties."""
    dist = _point_centroid_distances(items, n)
    k = dist.shape[1]
    logits = -dist - (-dist).max(axis=1, keepdims=True)
    values = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    if not (all(_distinct(row) for row in values)
            and all(_distinct(col) for col in values.T)):
        return None
    return k * n * (k + n - 2) // 2


def pca_coordinates(items: np.ndarray, k_hat: int) -> np.ndarray:
    centred = items - items.mean(axis=0)
    u, s, _ = np.linalg.svd(centred, full_matrices=False)
    return u[:, :k_hat] * s[:k_hat]


def pca_count(items: np.ndarray, k_hat: int) -> int | None:
    """3 C(m, 3) when no anchor sees two items at tying distances, else None."""
    sq = _squared_distances(pca_coordinates(items, k_hat))
    m = len(items)
    for a in range(m):
        if not _distinct(np.delete(sq[a], a)):
            return None
    return 3 * comb(m, 3)


def average_ranks(x: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2.0)[inverse]


def spearman(a, b) -> float:
    ra = average_ranks(np.asarray(a, dtype=float).ravel())
    rb = average_ranks(np.asarray(b, dtype=float).ravel())
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / sqrt((ra * ra).sum() * (rb * rb).sum()))


def cosine(items: np.ndarray) -> np.ndarray:
    norms = np.sqrt((items * items).sum(axis=1))
    return np.clip(items @ items.T / np.outer(norms, norms), -1.0, 1.0)


def read_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep_rows(text: str, expected: list[dict], sigma: float) -> list[str]:
    """Rows in the expected cell order, with counts and ratios from closed forms.

    `expected` holds, per row and in order, the cell key the benchmark
    derived itself: n, k, d, kind, k_hat (as recorded), epsilon and seed.
    Rows whose status is not `ok` are failed operations and are not checked.
    """
    rows = read_rows(text)
    errors = []
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    items_by_seed: dict = {}
    for i, (row, key) in enumerate(zip(rows, expected)):
        got = {name: row.get(name) for name in key}
        if got != {name: str(value) for name, value in key.items()}:
            errors.append(f"row {i} is {got}, expected {key}")
            continue
        if row["status"] != "ok":
            continue
        n, k, d, seed = key["n"], key["k"], key["d"], key["seed"]
        if seed not in items_by_seed:
            items_by_seed[seed] = latent_items(n, k, d, sigma, seed)
        items = items_by_seed[seed]
        count = int(row["constraint_count"])
        if key["kind"] == "hard":
            want = hard_count(items, n)
        elif key["kind"] == "soft":
            want = soft_count(items, n)
        elif key["kind"] == "pca":
            want = pca_count(items, int(key["k_hat"]))
        else:
            want = None
        if want is not None and count != want:
            errors.append(f"row {i} ({key['kind']}): {count} constraints, "
                          f"closed form gives {want}")
        ratio = count / (3 * comb(n + k, 3))
        if float(row["information_ratio"]) != ratio:
            errors.append(f"row {i}: information ratio {row['information_ratio']}, "
                          f"expected {ratio!r}")
        if not -1.0 <= float(row["rho"]) <= 1.0:
            errors.append(f"row {i}: rho {row['rho']} outside [-1, 1]")
    return errors


def check_soft_gap(text: str) -> list[str]:
    """Mean soft minus hard recovery is positive in every cell with k >= 2n."""
    sums: dict = {}
    for row in read_rows(text):
        if row["status"] == "ok" and row["kind"] in ("hard", "soft"):
            cell = sums.setdefault((int(row["n"]), int(row["k"])), {})
            cell.setdefault(row["kind"], []).append(float(row["rho"]))
    errors = []
    for (n, k), kinds in sorted(sums.items()):
        if k < 2 * n or len(kinds) < 2:
            continue
        gap = np.mean(kinds["soft"]) - np.mean(kinds["hard"])
        if not gap > 0:
            errors.append(f"cell n={n} k={k}: soft - hard recovery {gap:+.4f}")
    return errors


def check_gram(label: str, gram: np.ndarray, items: np.ndarray, rho: float) -> list[str]:
    """Symmetric, PSD, double-centred, and scoring the reported rho."""
    errors = []
    scale = max(1.0, float(np.abs(gram).max()))
    m = gram.shape[0]
    if np.abs(gram - gram.T).max() > 1e-9 * scale:
        errors.append(f"{label}: Gram matrix is not symmetric")
    if np.linalg.eigvalsh(0.5 * (gram + gram.T))[0] < -1e-8 * scale:
        errors.append(f"{label}: Gram matrix is not PSD")
    if np.abs(gram.sum(axis=0)).max() > 1e-9 * scale * m:
        errors.append(f"{label}: Gram matrix is not double-centred")
    iu = np.triu_indices(m, 1)
    recomputed = spearman(gram[iu], cosine(items)[iu])
    if abs(recomputed - rho) > RHO_TOLERANCE:
        errors.append(f"{label}: rho {rho!r}, recomputed {recomputed!r}")
    return errors


def check_tradeoff(text: str) -> list[str]:
    """One preferred row per beta, loss = beta * c_hat - rho, and rho wins at beta = 0."""
    by_beta: dict = {}
    errors = []
    for row in read_rows(text):
        by_beta.setdefault(float(row["beta"]), []).append(row)
        beta, c_hat, rho = float(row["beta"]), float(row["c_hat"]), float(row["rho"])
        if row["utility_kind"] != "linear":
            errors.append(f"beta={beta}: unexpected utility {row['utility_kind']}")
        elif abs(float(row["loss"]) - (beta * c_hat - rho)) > 1e-12 * max(1.0, abs(rho)):
            errors.append(f"beta={beta} {row['kind']} {row['k_hat']}: loss "
                          f"{row['loss']} != beta * c_hat - rho")
    if 0.0 not in by_beta:
        errors.append("tradeoff table has no beta = 0 rows")
    for beta, rows in sorted(by_beta.items()):
        preferred = [r for r in rows if r["preferred"] == "1"]
        if len(preferred) != 1:
            errors.append(f"beta={beta}: {len(preferred)} preferred rows")
        elif beta == 0.0 and float(preferred[0]["rho"]) != max(float(r["rho"]) for r in rows):
            errors.append("beta=0: preferred option does not have the highest rho")
    return errors


def check_constraint_array(label: str, triplets: np.ndarray, m: int) -> list[str]:
    """Sorted, unique, in bounds, three distinct items per triplet."""
    t = np.asarray(triplets)
    if t.ndim != 2 or t.shape[1] != 3:
        return [f"{label}: triplet array has shape {t.shape}"]
    errors = []
    if t.size and (t.min() < 0 or t.max() >= m):
        errors.append(f"{label}: index outside [0, {m})")
    if np.any((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])):
        errors.append(f"{label}: a triplet repeats an item")
    a, b = t[:-1], t[1:]
    increasing = ((a[:, 0] < b[:, 0])
                  | ((a[:, 0] == b[:, 0]) & (a[:, 1] < b[:, 1]))
                  | ((a[:, 0] == b[:, 0]) & (a[:, 1] == b[:, 1]) & (a[:, 2] < b[:, 2])))
    if not np.all(increasing):
        errors.append(f"{label}: triplets are not sorted and unique")
    return errors


def enumerate_from_labels(values: np.ndarray) -> set:
    """Every strict comparison within a label row or a class column, by nested loops."""
    n, k = values.shape
    found = set()
    for i in range(n):
        for p in range(k):
            for q in range(k):
                if values[i, p] > values[i, q]:
                    found.add((i, n + p, n + q))
    for p in range(k):
        for i in range(n):
            for j in range(n):
                if values[i, p] > values[j, p]:
                    found.add((n + p, i, j))
    return found


def enumerate_from_coordinates(coords: np.ndarray) -> tuple[set, set]:
    """Every query answered by distance, by nested loops; also the near-tied queries."""
    m = coords.shape[0]
    found, tied = set(), set()
    for a in range(m):
        for y in range(m):
            for z in range(y + 1, m):
                if a in (y, z):
                    continue
                dy = float(((coords[a] - coords[y]) ** 2).sum())
                dz = float(((coords[a] - coords[z]) ** 2).sum())
                if abs(dy - dz) <= NEAR_TIE * max(dy, dz):
                    tied.update({(a, y, z), (a, z, y)})
                elif dy < dz:
                    found.add((a, y, z))
                else:
                    found.add((a, z, y))
    return found, tied


def check_enumeration(label: str, triplets: np.ndarray, expected: set,
                      tied: set = frozenset()) -> list[str]:
    mined = {tuple(int(v) for v in row) for row in triplets}
    differ = (mined ^ expected) - set(tied)
    if differ:
        return [f"{label}: {len(differ)} triplets differ from the nested-loop "
                f"enumeration, e.g. {sorted(differ)[0]}"]
    return []


def check_noise(label: str, clean: np.ndarray, noisy: np.ndarray, epsilon: float) -> list[str]:
    """Each triplet kept or near/far swapped; flips within a binomial bound of epsilon."""
    if clean.shape != noisy.shape:
        return [f"{label}: noisy set has shape {noisy.shape}, clean {clean.shape}"]
    kept = np.all(clean == noisy, axis=1)
    swapped = ((clean[:, 0] == noisy[:, 0]) & (clean[:, 1] == noisy[:, 2])
               & (clean[:, 2] == noisy[:, 1]))
    if not np.all(kept | swapped):
        return [f"{label}: noise changed a triplet other than by swapping near and far"]
    total = len(clean)
    flips = int(swapped.sum())
    bound = NOISE_SIGMAS * sqrt(total * epsilon * (1 - epsilon)) + 1
    if abs(flips - epsilon * total) > bound:
        return [f"{label}: {flips} of {total} flipped at rate {epsilon}"]
    return []


def agreement(items: np.ndarray, triplets: np.ndarray) -> float:
    """2p - 1, where p is the share of triplets the latent distances satisfy."""
    sq = _squared_distances(items)
    a, near, far = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    return float(2.0 * np.mean(sq[a, near] < sq[a, far]) - 1.0)
