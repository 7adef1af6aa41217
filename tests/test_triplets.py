import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import constraints_to_csv, satisfied_share
from hypothesis import given, settings
from hypothesis import strategies as st

from labelinfo.labels import (LabelKind, LabelSet, hard_labels, pca_encode,
                              smooth_labels, soft_labels, sparsify_labels,
                              topclass_labels, typicality_labels)
from labelinfo.latentgen import generate_dataset, similarity_matrix
from labelinfo.triplets import (MAX_ITEMS, MAX_ROWS, ConstraintSet, apply_noise,
                                constraints_from_csv, count_hard, count_queries, count_soft,
                                information_ratio, mine_constraints)

_EMPTY = np.empty((0, 3), dtype=np.int64)


def _reference_sorted(triplets):
    if triplets.shape[0] == 0:
        return _EMPTY
    order = np.lexsort((triplets[:, 2], triplets[:, 1], triplets[:, 0]))
    return np.ascontiguousarray(triplets[order])


def _reference_mine_hard(values):
    """The hard miner as first written: one block per class, then the point anchors."""
    n, k = values.shape
    classes = np.argmax(values, axis=1)
    chunks = []
    for i in range(k):
        pos = np.flatnonzero(classes == i)
        neg = np.flatnonzero(classes != i)
        if pos.size and neg.size:
            pp, nn = np.meshgrid(pos, neg, indexing="ij")
            block = np.empty((pp.size, 3), dtype=np.int64)
            block[:, 0] = n + i
            block[:, 1] = pp.ravel()
            block[:, 2] = nn.ravel()
            chunks.append(block)
    others = np.array([[j for j in range(k) if j != c] for c in classes], dtype=np.int64)
    if k > 1:
        block = np.empty((n * (k - 1), 3), dtype=np.int64)
        block[:, 0] = np.repeat(np.arange(n), k - 1)
        block[:, 1] = n + np.repeat(classes, k - 1)
        block[:, 2] = n + others.ravel()
        chunks.append(block)
    return _reference_sorted(np.concatenate(chunks) if chunks else _EMPTY)


def _reference_mine_soft(values):
    """The soft miner as first written: one loop over columns, one over rows."""
    n, k = values.shape
    chunks = []
    pi, pj = np.triu_indices(n, 1)
    for i in range(k):
        col = values[:, i]
        diff = col[pi] - col[pj]
        gt = diff > 0
        lt = diff < 0
        block = np.empty((int(gt.sum()) + int(lt.sum()), 3), dtype=np.int64)
        block[:, 0] = n + i
        block[: gt.sum(), 1] = pi[gt]
        block[: gt.sum(), 2] = pj[gt]
        block[gt.sum():, 1] = pj[lt]
        block[gt.sum():, 2] = pi[lt]
        if block.shape[0]:
            chunks.append(block)
    ci, cj = np.triu_indices(k, 1)
    for x in range(n):
        row = values[x]
        diff = row[ci] - row[cj]
        gt = diff > 0
        lt = diff < 0
        block = np.empty((int(gt.sum()) + int(lt.sum()), 3), dtype=np.int64)
        block[:, 0] = x
        block[: gt.sum(), 1] = n + ci[gt]
        block[: gt.sum(), 2] = n + cj[gt]
        block[gt.sum():, 1] = n + cj[lt]
        block[gt.sum():, 2] = n + ci[lt]
        if block.shape[0]:
            chunks.append(block)
    return _reference_sorted(np.concatenate(chunks) if chunks else _EMPTY)


def _reference_mine_coordinates(coords):
    """The coordinate miner as first written: one loop over anchors."""
    m = coords.shape[0]
    sq_norm = np.einsum("ij,ij->i", coords, coords)
    sq = sq_norm[:, None] + sq_norm[None, :] - 2.0 * coords @ coords.T
    np.fill_diagonal(sq, 0.0)
    sq = np.maximum(sq, 0.0)
    chunks = []
    base_i, base_j = np.triu_indices(m - 1, 1)
    others = np.arange(m)
    for a in range(m):
        rest = np.delete(others, a)
        y = rest[base_i]
        z = rest[base_j]
        day = sq[a, y]
        daz = sq[a, z]
        nearer_y = day < daz
        nearer_z = daz < day
        total = int(nearer_y.sum()) + int(nearer_z.sum())
        block = np.empty((total, 3), dtype=np.int64)
        block[:, 0] = a
        block[: nearer_y.sum(), 1] = y[nearer_y]
        block[: nearer_y.sum(), 2] = z[nearer_y]
        block[nearer_y.sum():, 1] = z[nearer_z]
        block[nearer_y.sum():, 2] = y[nearer_z]
        if total:
            chunks.append(block)
    return _reference_sorted(np.concatenate(chunks) if chunks else _EMPTY)


def _reference_noise(triplets, epsilon, seed):
    triplets = triplets.copy()
    flips = np.random.default_rng(seed).random(triplets.shape[0]) < epsilon
    triplets[flips, 1], triplets[flips, 2] = (triplets[flips, 2].copy(),
                                              triplets[flips, 1].copy())
    return triplets


def _oracle_cases():
    """(name, labels, n_points, reference loop) covering every label kind and the edge shapes.

    The soft loop compares any class masses, and the hard loop only one-hot rows.
    """
    hard_ref, soft_ref, coords_ref = (_reference_mine_hard, _reference_mine_soft,
                                      _reference_mine_coordinates)
    cases = []
    for n, k in [(1, 2), (1, 5), (2, 2), (3, 4), (9, 3), (12, 7)]:
        ds = generate_dataset(n=n, k=k, d=3, seed=10 * n + k)
        hard, soft = hard_labels(ds), soft_labels(ds)
        cases += [(f"hard-{n}-{k}", hard, n, hard_ref), (f"soft-{n}-{k}", soft, n, soft_ref),
                  (f"smoothed-{n}-{k}", smooth_labels(hard, 0.2), n, soft_ref),
                  (f"typicality-{n}-{k}",
                   typicality_labels(hard, np.linspace(0.5, 1.0, n)), n, soft_ref),
                  (f"sparse-{n}-{k}", sparsify_labels(soft, 1), n, soft_ref),
                  (f"pca-{n}-{k}", pca_encode(ds, 2), n, coords_ref)]
        if n >= 3:
            cases.append((f"topclass-{n}-{k}",
                          topclass_labels(soft, min(2, k - 1), similarity_matrix(ds.points)), n,
                          soft_ref))
    ones = np.ones((4, 1))
    cases += [("hard-k1", LabelSet(LabelKind.HARD, ones), 4, hard_ref),
              ("soft-k1", LabelSet(LabelKind.SOFT, ones), 4, soft_ref),
              ("sparse-uniform", LabelSet(LabelKind.SPARSE_SOFT, np.full((3, 3), 1 / 3)), 3,
               soft_ref),
              ("pca-m3", LabelSet(LabelKind.PCA_COORDS, np.array([[-1.0], [0.0], [1.0]])), 2,
               coords_ref)]
    grid = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    coords = pca_encode(generate_dataset(n=6, k=3, d=4, seed=3), 3).values
    coords[4] = coords[1]
    cases += [("pca-integer-grid", LabelSet(LabelKind.PCA_COORDS, grid), 3, coords_ref),
              ("pca-duplicated", LabelSet(LabelKind.PCA_COORDS, coords), 6, coords_ref),
              ("pca-all-equal", LabelSet(LabelKind.PCA_COORDS, np.zeros((4, 2))), 2, coords_ref)]
    return cases


_ORACLE_CASES = _oracle_cases()


def _mined_as_reference(labels, n_points, expected):
    """The mined set, once its bytes are shown to equal the reference rows as int16."""
    got = mine_constraints(labels, n_points)
    t = got.triplets
    assert t.dtype == np.int16 and t.flags.c_contiguous and t.shape == expected.shape
    assert t.tobytes() == expected.astype(np.int16).tobytes()
    return got


@pytest.mark.parametrize("labels,n_points,reference", [c[1:] for c in _ORACLE_CASES],
                         ids=[c[0] for c in _ORACLE_CASES])
def test_miners_match_reference_loops_bit_for_bit(labels, n_points, reference):
    expected = reference(labels.values)
    got = _mined_as_reference(labels, n_points, expected)
    for epsilon in (0.0, 0.05, 0.5, 1.0):
        for seed in (0, 11):
            noisy = apply_noise(got, epsilon, seed).triplets
            assert noisy.dtype == np.int16 and noisy.flags.c_contiguous
            assert np.array_equal(noisy, _reference_noise(expected, epsilon, seed))


def test_oracle_cases_include_empty_sets_and_skipped_ties():
    sizes = {name: mine_constraints(labels, n_points).triplets.shape
             for name, labels, n_points, _ in _ORACLE_CASES}
    for name in ("hard-k1", "soft-k1", "sparse-uniform", "pca-all-equal"):
        assert sizes[name] == (0, 3)
    assert sizes["pca-m3"] == (2, 3)  # the middle item is equidistant from the ends
    assert 0 < sizes["pca-integer-grid"][0] < 3 * 10  # 3 * C(5, 3) queries, some tied
    assert 0 < sizes["pca-duplicated"][0] < 3 * 84  # 3 * C(9, 3) queries, some tied
    assert 0 < sizes["topclass-12-7"][0] < sizes["soft-12-7"][0]  # zeroed columns tie


def test_hard_mining_two_points_two_classes():
    hard = LabelSet(kind=LabelKind.HARD, values=np.eye(2))
    cs = mine_constraints(hard, 2)
    assert cs.triplets.tolist() == [[0, 2, 3], [1, 3, 2], [2, 0, 1], [3, 1, 0]]
    assert len(cs) == count_hard(2, 2) == 4
    assert cs.m == 4


def test_soft_mining_hand_example():
    soft = LabelSet(kind=LabelKind.SOFT,
                    values=np.array([[0.7, 0.3], [0.4, 0.6]]))
    cs = mine_constraints(soft, 2)
    assert cs.triplets.tolist() == [[0, 2, 3], [1, 3, 2], [2, 0, 1], [3, 1, 0]]
    assert len(cs) == count_soft(2, 2) == 4


def test_soft_mining_uniform_rows_emit_nothing():
    soft = LabelSet(kind=LabelKind.SOFT, values=np.full((4, 3), 1 / 3))
    assert len(mine_constraints(soft, 4)) == 0


def test_sparse_zero_ties_are_skipped():
    ds = generate_dataset(n=8, k=5, d=3, seed=2)
    soft = soft_labels(ds)
    sparse = sparsify_labels(soft, 2)
    full = mine_constraints(soft, ds.n)
    pruned = mine_constraints(sparse, ds.n)
    assert len(pruned) < len(full)
    # top-k retention preserves within-row order, so the point-anchored
    # constraints can only shrink (centroid-anchored ones may flip: a dropped
    # large mass lands at zero, below a retained small one).
    n = ds.n
    full_rows = {tuple(t) for t in full.triplets.tolist() if t[0] < n}
    pruned_rows = {tuple(t) for t in pruned.triplets.tolist() if t[0] < n}
    assert pruned_rows < full_rows


def test_count_hard_balanced_matches_mined():
    for n, k in [(4, 2), (6, 3), (9, 3), (8, 4), (12, 6)]:
        ds = generate_dataset(n=n, k=k, d=3, sigma=1e-9, seed=n * 31 + k)
        mined = mine_constraints(hard_labels(ds), ds.n)
        expected = count_hard(n, k)
        assert expected.denominator == 1
        assert len(mined) == expected


def test_count_soft_matches_mined_tie_free():
    for n, k in [(3, 2), (5, 4), (7, 3), (10, 10)]:
        ds = generate_dataset(n=n, k=k, d=4, seed=n * 17 + k)
        mined = mine_constraints(soft_labels(ds), ds.n)
        assert len(mined) == count_soft(n, k)


def test_count_hard_is_exact_rational():
    assert count_hard(5, 3) == Fraction(5 * 2) + Fraction(25 * 2, 3)
    assert count_hard(5, 3).denominator == 3


def test_one_shot_identities():
    for n in (2, 5, 37):
        assert information_ratio(count_hard(n, n), n, n) == pytest.approx(
            1.0 / (2 * n - 1), rel=1e-12)
        assert information_ratio(count_soft(n, n), n, n) == pytest.approx(
            n / (2.0 * (2 * n - 1)), rel=1e-12)


def test_information_ratio_bounds_and_errors():
    assert 0.0 < information_ratio(count_soft(4, 4), 4, 4) <= 1.0
    with pytest.raises(ValueError):
        information_ratio(1, 1, 1)
    with pytest.raises(ValueError):
        count_hard(0, 3)
    with pytest.raises(ValueError):
        count_soft(3, 0)


@pytest.mark.parametrize("kind, n_points, error", [
    (LabelKind.HARD, 2, "class labels have 3 rows, not n_points=2"),
    (LabelKind.SOFT, 4, "class labels have 3 rows, not n_points=4"),
    (LabelKind.PCA_COORDS, -1, r"n_points must lie in \[0, 3\], got -1"),
    (LabelKind.PCA_COORDS, 4, r"n_points must lie in \[0, 3\], got 4"),
], ids=["class_rows_past_n", "class_rows_short_of_n", "coords_negative_n", "coords_n_past_m"])
def test_mining_rejects_a_mismatched_n_points(kind, n_points, error):
    with pytest.raises(ValueError, match=error):
        mine_constraints(LabelSet(kind=kind, values=np.eye(3)), n_points)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_mining_tie_heavy_labels_matches_reference_loops_bit_for_bit(data):
    """Few distinct values make ties common: in class masses and in grid distances."""
    pool = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=3, max_size=4,
                              unique=True))
    n, k = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 6))
    values = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n * k,
                                         max_size=n * k))).reshape(n, k)
    kind = data.draw(st.sampled_from([kind for kind in LabelKind
                                      if kind is not LabelKind.PCA_COORDS]))
    _mined_as_reference(LabelSet(kind, values), n, _reference_mine_soft(values))
    m, width = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 3))
    grid = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=m * width,
                                       max_size=m * width)), dtype=float).reshape(m, width)
    _mined_as_reference(LabelSet(LabelKind.PCA_COORDS, grid), data.draw(st.integers(0, m)),
                        _reference_mine_coordinates(grid))


def test_coordinate_mining_collinear():
    coords = LabelSet(kind=LabelKind.PCA_COORDS,
                      values=np.array([[0.0], [1.0], [3.0]]))
    cs = mine_constraints(coords, n_points=2)
    assert cs.triplets.tolist() == [[0, 1, 2], [1, 0, 2], [2, 1, 0]]
    assert information_ratio(len(cs), 2, 1) == 1.0


@pytest.mark.parametrize("n, k", [(3, 3), (10, 4), (20, 20), (40, 10), (5, 40)])
def test_hard_sets_are_met_by_collapsing_each_class_on_any_centroids(n, k):
    """A hard label orders no two non-label classes, so any centroid placement serves."""
    for seed in range(30):
        hard = hard_labels(generate_dataset(n=n, k=k, d=5, seed=seed))
        centroids = np.random.default_rng(seed).standard_normal((k, 5))
        points = centroids[np.argmax(hard.values, axis=1)]
        coords = np.vstack([points, centroids])
        assert satisfied_share(mine_constraints(hard, n).triplets, coords) == 1.0


def test_coordinate_mining_skips_exact_ties():
    coords = LabelSet(kind=LabelKind.PCA_COORDS,
                      values=np.array([[-1.0], [0.0], [1.0]]))
    cs = mine_constraints(coords, n_points=3)
    # the middle point is equidistant from the ends: one unanswered query
    assert len(cs) == 2
    assert [1, 0, 2] not in cs.triplets.tolist()
    assert [1, 2, 0] not in cs.triplets.tolist()


def test_coordinate_mining_full_rank_answers_everything():
    ds = generate_dataset(n=5, k=3, d=4, seed=6)
    coords = pca_encode(ds, 4)
    cs = mine_constraints(coords, n_points=5)
    assert information_ratio(len(cs), 5, 3) == pytest.approx(1.0)
    assert satisfied_share(cs.triplets, coords.values) == 1.0


def test_triplets_are_lexsorted_and_unique():
    ds = generate_dataset(n=10, k=4, d=3, seed=5)
    for cs in (mine_constraints(hard_labels(ds), ds.n), mine_constraints(soft_labels(ds), ds.n)):
        t = cs.triplets
        assert t.shape[0] == len(np.unique(t, axis=0))
        order = np.lexsort((t[:, 2], t[:, 1], t[:, 0]))
        assert np.array_equal(order, np.arange(len(t)))


def test_apply_noise_zero_and_one():
    ds = generate_dataset(n=6, k=3, d=3, seed=7)
    cs = mine_constraints(soft_labels(ds), ds.n)
    original = cs.triplets.copy()
    same = apply_noise(cs, 0.0, seed=1)
    assert np.array_equal(same.triplets, cs.triplets)
    flipped = apply_noise(cs, 1.0, seed=1)
    assert np.array_equal(flipped.triplets[:, 1], cs.triplets[:, 2])
    assert np.array_equal(flipped.triplets[:, 2], cs.triplets[:, 1])
    assert np.array_equal(cs.triplets, original)  # original untouched


def test_apply_noise_deterministic_and_partial():
    ds = generate_dataset(n=12, k=4, d=3, seed=8)
    cs = mine_constraints(soft_labels(ds), ds.n)
    a = apply_noise(cs, 0.3, seed=42)
    b = apply_noise(cs, 0.3, seed=42)
    assert np.array_equal(a.triplets, b.triplets)
    changed = np.any(a.triplets != cs.triplets, axis=1)
    assert 0 < changed.sum() < len(cs)
    # anchors never move
    assert np.array_equal(a.triplets[:, 0], cs.triplets[:, 0])


def test_apply_noise_rejects_bad_rate():
    cs = ConstraintSet(1, 2, np.array([[0, 1, 2]], dtype=np.int64))
    with pytest.raises(ValueError):
        apply_noise(cs, -0.1, seed=0)
    with pytest.raises(ValueError):
        apply_noise(cs, 1.5, seed=0)


def test_constraint_csv_round_trip():
    ds = generate_dataset(n=7, k=3, d=3, seed=9)
    cs = apply_noise(mine_constraints(soft_labels(ds), ds.n), 0.2, seed=3)
    back = constraints_from_csv(constraints_to_csv(cs, "soft", 0.2))
    assert back.n_points == 7 and back.n_centroids == 3
    assert np.array_equal(back.triplets, cs.triplets)


def test_constraint_csv_empty_set():
    empty = ConstraintSet(2, 1, np.empty((0, 3), dtype=np.int64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's loadtxt warns when it reads no rows
        back = constraints_from_csv(constraints_to_csv(empty))
    assert back.triplets.dtype == np.int16 and back.triplets.shape == (0, 3)
    assert len(back) == 0 and back.m == 3


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_constraint_csv_reads_every_line_end_and_skips_blank_lines(monkeypatch, newline):
    lines = ["", "n,k,source_kind,flip_rate", "2,1,soft,0.0", "", "anchor,near,far",
             "0,1,2", "", "", "1,0,2"]
    monkeypatch.setattr("labelinfo.triplets.MAX_ROWS", 2)  # a blank line is not a row
    cs = constraints_from_csv(newline.join(lines + [""]))
    assert cs.triplets.dtype == np.int16 and cs.triplets.tolist() == [[0, 1, 2], [1, 0, 2]]
    with pytest.raises(ValueError, match="constraint row 2 names an item twice"):
        constraints_from_csv(newline.join(lines[:-1] + ["2,0,0"]))
    with pytest.raises(ValueError, match="3 triplets exceed the row limit of 2"):
        constraints_from_csv(newline.join(lines + ["2,0,1"]))


def test_size_limits_leave_headroom_over_the_largest_set_in_use():
    # PCA at n = k = 40, in the mining benchmark workload, is the largest set any run mines
    assert count_queries(80) == 246_480
    assert MAX_ROWS >= 10 * count_queries(80) and MAX_ITEMS >= 10 * 80


def test_every_index_below_the_item_limit_fits_int16():
    """Constraint rows are int16, so a larger MAX_ITEMS must fail here, not wrap indices."""
    assert MAX_ITEMS - 1 <= np.iinfo(np.int16).max


def test_mining_at_the_item_limit_keeps_the_largest_index():
    # one class whose only non-zero mass is point 5's: its centroid, item MAX_ITEMS - 1,
    # answers that point 5 is nearer than each other point
    values = np.zeros((MAX_ITEMS - 1, 1))
    values[5] = 1.0
    got = mine_constraints(LabelSet(LabelKind.SOFT, values), MAX_ITEMS - 1).triplets
    assert got.tolist() == [[MAX_ITEMS - 1, 5, far] for far in range(MAX_ITEMS - 1) if far != 5]
    with pytest.raises(ValueError, match=f"{MAX_ITEMS + 1} items exceed the item limit"):
        mine_constraints(LabelSet(LabelKind.SOFT, np.zeros((1, MAX_ITEMS))), 1)


def test_constraint_csv_rejects_garbage():
    with pytest.raises(ValueError):
        constraints_from_csv("nope\n1,2\n")
    with pytest.raises(ValueError):  # the flip rate is not kept, but it must be a number
        constraints_from_csv("n,k,source_kind,flip_rate\n1,2,soft,x\nanchor,near,far\n")


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 6), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_hard_count_formula_balanced_property(per_class, k, seed):
    n = per_class * k
    ds = generate_dataset(n=n, k=k, d=3, sigma=1e-9, seed=seed)
    assert len(mine_constraints(hard_labels(ds), ds.n)) == count_hard(n, k)


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 20), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_soft_count_formula_property(n, k, seed):
    ds = generate_dataset(n=n, k=k, d=4, seed=seed)
    assert len(mine_constraints(soft_labels(ds), ds.n)) == count_soft(n, k)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 12), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_mined_indices_in_range(n, k, seed):
    ds = generate_dataset(n=n, k=k, d=3, seed=seed)
    for cs in (mine_constraints(hard_labels(ds), ds.n), mine_constraints(soft_labels(ds), ds.n)):
        t = cs.triplets
        if t.size:
            assert t.min() >= 0 and t.max() < cs.m
            assert np.all(t[:, 1] != t[:, 2])
            assert np.all(t[:, 0] != t[:, 1])
            assert np.all(t[:, 0] != t[:, 2])
