import numpy as np
import pytest
from conftest import PcaCurve, effective_dimensionality
from hypothesis import given, settings
from hypothesis import strategies as st

from labelinfo.gnmds import GramMatrix
from labelinfo.latentgen import generate_dataset, similarity_matrix
from labelinfo.metrics import _average_ranks, recovery_score, spearman


def test_spearman_perfect_and_reversed():
    x = [1.0, 2.0, 3.0, 4.0]
    assert spearman(x, [10.0, 20.0, 30.0, 40.0]) == 1.0
    assert spearman(x, [4.0, 3.0, 2.0, 1.0]) == -1.0


def test_spearman_hand_value_with_ties():
    # ranks of a: [1, 2.5, 2.5, 4]; ranks of b: [2, 1, 3, 4]
    a = [10.0, 20.0, 20.0, 30.0]
    b = [5.0, 1.0, 7.0, 9.0]
    ra = np.array([1.0, 2.5, 2.5, 4.0]) - 2.5
    rb = np.array([2.0, 1.0, 3.0, 4.0]) - 2.5
    expected = (ra * rb).sum() / np.sqrt((ra * ra).sum() * (rb * rb).sum())
    assert spearman(a, b) == pytest.approx(expected)


def test_spearman_errors():
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_spearman_nonlinear_monotone_is_one():
    x = np.linspace(0.1, 5.0, 20)
    assert spearman(x, np.exp(x)) == 1.0
    assert spearman(x, -np.log(x)) == -1.0


def _average_ranks_reference(x):
    """Tie groups found by hand from a stable sort: the grouping `_average_ranks` replaced."""
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


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0]),
                          st.floats(allow_nan=False)), min_size=1, max_size=300))
def test_average_ranks_match_the_hand_grouped_reference(values):
    # heavy ties, and -0.0 with 0.0, which compare equal and so share a rank
    got = _average_ranks(np.array(values))
    want = _average_ranks_reference(np.array(values))
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_recovery_score_exact_geometry():
    ds = generate_dataset(n=6, k=3, d=3, seed=0)
    items = ds.all_items()
    centered = items - items.mean(axis=0)
    gram = GramMatrix(entries=centered @ centered.T, diagnostics={})
    truth = similarity_matrix(centered, normalized=False)
    assert recovery_score(gram, truth) == pytest.approx(1.0)


def test_recovery_score_size_mismatch():
    gram = GramMatrix(entries=np.eye(3), diagnostics={})
    truth = similarity_matrix(np.eye(4))
    with pytest.raises(ValueError):
        recovery_score(gram, truth)


def test_pca_curve_validation():
    PcaCurve(points=((1, 0.2), (2, 0.5), (3, 0.4)))
    with pytest.raises(ValueError):
        PcaCurve(points=((2, 0.2), (2, 0.5)))
    with pytest.raises(ValueError):
        PcaCurve(points=((3, 0.2), (1, 0.5)))


def test_effective_dimensionality_first_crossing():
    curve = PcaCurve(points=((1, 0.30), (2, 0.62), (3, 0.55), (5, 0.90)))
    assert effective_dimensionality(0.6, curve) == (2, False)
    assert effective_dimensionality(0.85, curve) == (5, False)
    assert effective_dimensionality(0.95, curve) == (5, True)
    assert effective_dimensionality(0.1, curve) == (1, False)
    with pytest.raises(ValueError):
        effective_dimensionality(0.5, PcaCurve(points=()))


@settings(deadline=None, max_examples=120)
@given(st.lists(st.integers(-500, 500), min_size=3, max_size=40, unique=True),
       st.integers(0, 2**32 - 1))
def test_spearman_invariant_to_monotone_transform(grid, seed):
    # integer-spaced inputs keep exp() injective in float arithmetic
    xs = np.asarray(grid, dtype=float) / 10.0
    rng = np.random.default_rng(seed)
    ys = rng.standard_normal(len(xs))
    base = spearman(xs, ys)
    warped = np.exp(xs / 25.0) + 3.0
    assert spearman(warped, ys) == pytest.approx(base, abs=1e-12)
    assert spearman(ys, xs) == pytest.approx(base, abs=1e-12)
