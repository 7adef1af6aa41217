import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelinfo.labels import (LabelKind, LabelSet, _columns_mutual_information,
                              hard_labels, pca_encode, smooth_labels, soft_labels,
                              sparsify_labels, topclass_labels, typicality_labels)
from labelinfo.latentgen import LatentDataset, generate_dataset, similarity_matrix


def _dataset_with(points, centroids):
    points = np.asarray(points, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    return LatentDataset(points=points, centroids=centroids)


def test_hard_label_at_exact_centroid():
    ds = _dataset_with([[0.0, 1.0]], [[5.0, 5.0], [-3.0, 0.0], [0.0, 1.0]])
    lab = hard_labels(ds)
    assert lab.values.tolist() == [[0.0, 0.0, 1.0]]


def test_hard_label_tie_breaks_low_index():
    # point equidistant from centroids 0 and 1
    ds = _dataset_with([[0.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0], [9.0, 9.0]])
    lab = hard_labels(ds)
    assert lab.values.tolist() == [[1.0, 0.0, 0.0]]


def test_hard_labels_match_assignments_at_tiny_sigma():
    ds = generate_dataset(n=12, k=4, d=3, sigma=1e-9, seed=3)
    lab = hard_labels(ds)
    assert np.array_equal(np.argmax(lab.values, axis=1), np.arange(12) % 4)


def test_soft_label_hand_value():
    # distances (0, ln 3) -> masses (0.75, 0.25)
    ds = _dataset_with([[0.0]], [[0.0], [np.log(3.0)]])
    lab = soft_labels(ds)
    assert np.allclose(lab.values, [[0.75, 0.25]])


def test_soft_uniform_when_equidistant():
    ds = _dataset_with([[0.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    lab = soft_labels(ds)
    assert np.allclose(lab.values, 0.25)


def test_soft_argmax_is_hard_class():
    ds = generate_dataset(n=30, k=7, d=4, seed=11)
    assert np.array_equal(np.argmax(soft_labels(ds).values, axis=1),
                          np.argmax(hard_labels(ds).values, axis=1))


def test_soft_stable_under_huge_distances():
    ds = _dataset_with([[0.0]], [[0.0], [1e6]])
    lab = soft_labels(ds)
    assert np.all(np.isfinite(lab.values))
    assert lab.values[0, 0] == pytest.approx(1.0)


def test_smooth_labels_formula():
    hard = LabelSet(kind=LabelKind.HARD,
                    values=np.array([[1.0, 0.0, 0.0]]))
    out = smooth_labels(hard, 0.2)
    assert np.allclose(out.values, [[0.8, 0.1, 0.1]])
    assert out.kind is LabelKind.SMOOTHED


def test_smooth_zero_identity():
    hard = LabelSet(kind=LabelKind.HARD, values=np.eye(4))
    assert np.array_equal(smooth_labels(hard, 0.0).values, np.eye(4))


def test_smooth_rejects_bad_epsilon_and_kind():
    hard = LabelSet(kind=LabelKind.HARD, values=np.eye(3))
    with pytest.raises(ValueError):
        smooth_labels(hard, 1.0)
    with pytest.raises(ValueError):
        smooth_labels(hard, -0.1)
    soft = LabelSet(kind=LabelKind.SOFT, values=np.full((2, 2), 0.5))
    with pytest.raises(TypeError):
        smooth_labels(soft, 0.1)


def test_typicality_spread():
    hard = LabelSet(kind=LabelKind.HARD,
                    values=np.eye(10)[[3]])
    out = typicality_labels(hard, np.array([0.7]))
    assert out.values[0, 3] == pytest.approx(0.7)
    others = np.delete(out.values[0], 3)
    assert np.allclose(others, 0.3 / 9)


def test_typicality_p_one_is_hard():
    hard = LabelSet(kind=LabelKind.HARD, values=np.eye(3))
    out = typicality_labels(hard, np.ones(3))
    assert np.array_equal(out.values, np.eye(3))


def test_typicality_uniform_at_inverse_k():
    hard = LabelSet(kind=LabelKind.HARD, values=np.eye(4)[[0]])
    out = typicality_labels(hard, np.array([0.25]))
    assert np.allclose(out.values, 0.25)


def test_typicality_rejects_out_of_range():
    hard = LabelSet(kind=LabelKind.HARD, values=np.eye(2))
    with pytest.raises(ValueError):
        typicality_labels(hard, np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        typicality_labels(hard, np.array([0.5, 1.5]))


def test_smoothing_at_one_minus_p_is_typicality_p():
    """A constant typicality score p builds the labels of smoothing at 1 - p."""
    hard = hard_labels(generate_dataset(n=4, k=5, d=3, seed=1))
    for p in (0.9, 1, 1e-9):
        smoothed = smooth_labels(hard, 1 - p)
        typical = typicality_labels(hard, np.full(4, float(p)))
        assert np.allclose(smoothed.values, typical.values, rtol=0, atol=1e-15)


def test_sparsify_keeps_top_values():
    soft = LabelSet(kind=LabelKind.SOFT,
                    values=np.array([[0.5, 0.3, 0.15, 0.05]]))
    out = sparsify_labels(soft, 2)
    assert np.allclose(out.values, [[0.5, 0.3, 0.0, 0.0]])
    assert out.kind is LabelKind.SPARSE_SOFT
    assert out.k_hat == 2


def test_sparsify_full_width_identity():
    ds = generate_dataset(n=5, k=4, d=2, seed=1)
    soft = soft_labels(ds)
    assert np.allclose(sparsify_labels(soft, 4).values, soft.values)


def test_sparsify_tie_prefers_low_index():
    soft = LabelSet(kind=LabelKind.SOFT,
                    values=np.array([[0.25, 0.25, 0.25, 0.25]]))
    out = sparsify_labels(soft, 2)
    assert np.allclose(out.values, [[0.25, 0.25, 0.0, 0.0]])


def test_sparsify_range_errors():
    soft = LabelSet(kind=LabelKind.SOFT, values=np.full((2, 3), 1 / 3))
    for bad in (0, 4):
        with pytest.raises(ValueError):
            sparsify_labels(soft, bad)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 24), st.integers(2, 10), st.integers(1, 6),
       st.integers(0, 2**32 - 1), st.data())
def test_sparse_rows_have_exactly_k_hat_nonzeros(n, k, d, seed, data):
    ds = generate_dataset(n=n, k=k, d=d, seed=seed)
    k_hat = data.draw(st.integers(1, k))
    out = sparsify_labels(soft_labels(ds), k_hat)
    assert np.all((out.values > 0).sum(axis=1) == k_hat)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 20), st.integers(2, 9), st.integers(1, 5),
       st.integers(0, 2**32 - 1), st.data())
def test_sparsify_preserves_argmax(n, k, d, seed, data):
    ds = generate_dataset(n=n, k=k, d=d, seed=seed)
    soft = soft_labels(ds)
    k_hat = data.draw(st.integers(1, k))
    out = sparsify_labels(soft, k_hat)
    assert np.array_equal(np.argmax(out.values, axis=1),
                          np.argmax(soft.values, axis=1))
    rows = np.arange(n)
    top = np.argmax(soft.values, axis=1)
    assert np.array_equal(out.values[rows, top], soft.values[rows, top])


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 10), st.floats(0.0, 0.89), st.integers(0, 2**32 - 1))
def test_smooth_preserves_argmax_below_threshold(k, eps, seed):
    # argmax preserved whenever eps < (k-1)/k
    if eps >= (k - 1) / k:
        eps = (k - 1) / k - 0.01
    ds = generate_dataset(n=8, k=k, d=3, seed=seed)
    hard = hard_labels(ds)
    out = smooth_labels(hard, eps)
    assert np.array_equal(np.argmax(out.values, axis=1),
                          np.argmax(hard.values, axis=1))
    assert np.allclose(out.values.sum(axis=1), 1.0, atol=1e-9)


def column_mutual_information(column, reference):
    """One column's mutual information, through the estimator `topclass_labels` uses."""
    values = np.asarray(column, dtype=float)[:, None]
    return float(_columns_mutual_information(values, reference)[0])


def test_mutual_information_constant_column_is_zero():
    rng = np.random.default_rng(0)
    items = rng.standard_normal((40, 3))
    sim = similarity_matrix(items)
    assert column_mutual_information(np.full(40, 0.5), sim) == 0.0


def test_mutual_information_needs_three_points():
    sim = similarity_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        column_mutual_information(np.array([0.1, 0.2]), sim)


def test_mutual_information_detects_informative_column():
    # a raw coordinate knows the geometry; its random permutation does not
    for seed in range(10):
        rng = np.random.default_rng(seed)
        items = rng.standard_normal((80, 3))
        sim = similarity_matrix(items)
        informative = column_mutual_information(items[:, 0], sim)
        null = column_mutual_information(rng.permutation(items[:, 0]), sim)
        assert informative > null + 0.02


def test_mutual_information_null_is_near_zero():
    # plug-in bias ~ (bins-1)^2 / (2 N ln 2) stays small for n >= 40
    for seed in range(10):
        rng = np.random.default_rng(seed)
        items = rng.standard_normal((40, 3))
        sim = similarity_matrix(items)
        null = column_mutual_information(rng.permutation(items[:, 0]), sim)
        assert 0.0 <= null < 0.15


def test_mutual_information_rejects_bad_size():
    """`topclass_labels` checks its reference before it estimates any column."""
    rng = np.random.default_rng(1)
    sim = similarity_matrix(rng.standard_normal((10, 3)))
    soft = LabelSet(kind=LabelKind.SOFT, values=np.full((9, 3), 1 / 3))
    with pytest.raises(ValueError, match=r"reference has shape \(10, 10\), labels have 9"):
        topclass_labels(soft, 2, sim)


def _reference_column_mutual_information(column, reference, bins=8):
    """The estimator as first written: both marginals binned per call, `np.add.at` histogram."""
    n = column.shape[0]
    iu = np.triu_indices(n, 1)
    pair_dist = np.abs(column[iu[0]] - column[iu[1]])
    codes = []
    for sample in (pair_dist, reference[iu]):
        edges = np.quantile(sample, np.linspace(0.0, 1.0, bins + 1)[1:-1])
        codes.append(np.searchsorted(edges, sample, side="right"))
    joint = np.zeros((bins, bins))
    np.add.at(joint, tuple(codes), 1.0)
    joint /= joint.sum()
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    return max(float(np.sum(joint[nz] * np.log2(joint[nz] / np.outer(px, py)[nz]))), 0.0)


def test_mutual_information_matches_reference_bit_for_bit():
    for n, k, seed in [(3, 2, 0), (6, 5, 1), (20, 7, 2), (40, 4, 3)]:
        ds = generate_dataset(n=n, k=k, d=4, seed=seed)
        soft = soft_labels(ds)
        sim = similarity_matrix(ds.points)
        expected = [_reference_column_mutual_information(soft.values[:, j], sim)
                    for j in range(k)]
        assert [column_mutual_information(soft.values[:, j], sim)
                for j in range(k)] == expected
        order = np.argsort(-np.array(expected), kind="stable")
        top = topclass_labels(soft, min(2, k), sim)
        assert _kept_columns(top) == sorted(int(j) for j in order[:min(2, k)])


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_mutual_information_matches_reference_per_column_property(data):
    """All columns at once give each column's reference bytes, with ties and constant columns."""
    n, k = data.draw(st.integers(3, 12)), data.draw(st.integers(1, 6))
    anything = st.floats(-1e3, 1e3, allow_nan=False)
    pool = data.draw(st.lists(st.sampled_from([-3.0, 0.0, 0.1, 0.5, 7.5]), min_size=1,
                              max_size=3, unique=True))
    cell = st.sampled_from(pool) if data.draw(st.booleans()) else anything  # few values tie
    values = np.array(data.draw(st.lists(cell, min_size=n * k, max_size=n * k))).reshape(n, k)
    if data.draw(st.booleans()):
        values[:, data.draw(st.integers(0, k - 1))] = data.draw(anything)  # a constant column
    reference = np.array(data.draw(st.lists(cell, min_size=n * n, max_size=n * n)))
    reference = reference.reshape(n, n)
    expected = np.array([_reference_column_mutual_information(values[:, j], reference)
                         for j in range(k)])
    assert _columns_mutual_information(values, reference).tobytes() == expected.tobytes()


def _kept_columns(top):
    """Columns a top-class label set keeps: the ones not zeroed out."""
    return np.flatnonzero(np.any(top.values != 0.0, axis=0)).tolist()


def test_topclass_identity_at_full_width():
    ds = generate_dataset(n=10, k=4, d=3, seed=2)
    soft = soft_labels(ds)
    sim = similarity_matrix(ds.points)
    out = topclass_labels(soft, 4, sim)
    assert np.allclose(out.values, soft.values)
    assert _kept_columns(out) == [0, 1, 2, 3]


def test_topclass_drops_constant_column():
    # two tight clusters on the x-axis; centroid 2 is equidistant from both
    # clusters, so its soft-label column is (nearly) constant and has the
    # lowest MI with the true similarities.
    rng = np.random.default_rng(5)
    pts = np.concatenate([rng.normal([-4, 0], 0.1, size=(12, 2)),
                          rng.normal([4, 0], 0.1, size=(12, 2))])
    cents = np.array([[-4.0, 0.0], [4.0, 0.0], [0.0, 1e9]])
    ds = _dataset_with(pts, cents)
    soft = soft_labels(ds)
    sim = similarity_matrix(ds.points)
    out = topclass_labels(soft, 2, sim)
    assert np.array_equal(out.values[:, :2], soft.values[:, :2])
    assert np.all(out.values[:, 2] == 0.0)


def test_topclass_zeroes_whole_columns():
    ds = generate_dataset(n=25, k=6, d=4, seed=9)
    out = topclass_labels(soft_labels(ds), 2, similarity_matrix(ds.points))
    zero_cols = np.all(out.values == 0.0, axis=0)
    assert zero_cols.sum() == 4


def test_pca_full_rank_preserves_distances():
    ds = generate_dataset(n=6, k=3, d=4, seed=8)
    out = pca_encode(ds, 4)
    orig = ds.all_items()
    d_orig = np.linalg.norm(orig[:, None] - orig[None, :], axis=2)
    d_enc = np.linalg.norm(out.values[:, None] - out.values[None, :], axis=2)
    assert np.allclose(d_orig, d_enc, atol=1e-9)


def test_pca_rank_one_line():
    t = np.linspace(-2, 2, 5)
    direction = np.array([1.0, 2.0, -1.0]) / np.linalg.norm([1.0, 2.0, -1.0])
    pts = t[:3, None] * direction
    cents = t[3:, None] * direction
    ds = _dataset_with(pts, cents)
    out = pca_encode(ds, 1)
    orig = ds.all_items()
    d_orig = np.linalg.norm(orig[:, None] - orig[None, :], axis=2)
    d_enc = np.abs(out.values[:, None, 0] - out.values[None, :, 0])
    assert np.allclose(d_orig, d_enc, atol=1e-9)


def test_pca_deterministic_and_sign_fixed():
    ds = generate_dataset(n=9, k=3, d=5, seed=13)
    a = pca_encode(ds, 3)
    b = pca_encode(ds, 3)
    assert np.array_equal(a.values, b.values)


def test_pca_rejects_bad_rank():
    ds = generate_dataset(n=4, k=2, d=3, seed=0)
    with pytest.raises(ValueError):
        pca_encode(ds, 0)
    capped = pca_encode(ds, 4)  # k_hat > d keeps the d = 3 components there are
    assert capped.k_hat == 3 and capped.values.shape == (6, 3)
    assert np.array_equal(capped.values, pca_encode(ds, 3).values)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 15), st.integers(2, 8), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_probability_kinds_row_sums(n, k, d, seed):
    ds = generate_dataset(n=n, k=k, d=d, seed=seed)
    hard = hard_labels(ds)
    soft = soft_labels(ds)
    assert np.allclose(soft.values.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(soft.values > 0)
    assert np.all(hard.values.sum(axis=1) == 1.0)
    assert np.all((hard.values == 0) | (hard.values == 1))
    smoothed = smooth_labels(hard, 0.05)
    assert np.allclose(smoothed.values.sum(axis=1), 1.0, atol=1e-9)

