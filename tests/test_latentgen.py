import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelinfo.latentgen import LatentDataset, generate_dataset, similarity_matrix


def test_round_robin_balance():
    ds = generate_dataset(n=6, k=3, d=5, sigma=1e-9, seed=7)
    nearest = np.argmin(((ds.points[:, None] - ds.centroids[None]) ** 2).sum(-1), axis=1)
    assert np.array_equal(nearest, np.arange(6) % 3)  # point i belongs to class i mod k
    assert (ds.n, ds.k, ds.d) == (6, 3, 5)  # read off the arrays


def test_tiny_sigma_points_stick_to_centroids():
    ds = generate_dataset(n=3, k=3, d=2, sigma=1e-9, seed=1)
    for i in range(3):
        assert np.linalg.norm(ds.points[i] - ds.centroids[i % 3]) < 1e-6


def test_generation_deterministic():
    a = generate_dataset(n=90, k=90, d=125, sigma=0.5, seed=42)
    b = generate_dataset(n=90, k=90, d=125, sigma=0.5, seed=42)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.centroids, b.centroids)


def test_different_seeds_differ():
    a = generate_dataset(n=5, k=2, d=3, seed=0)
    b = generate_dataset(n=5, k=2, d=3, seed=1)
    assert not np.array_equal(a.points, b.points)


@pytest.mark.parametrize("bad", [
    dict(n=0, k=2, d=1),
    dict(n=1, k=1, d=1),
    dict(n=1, k=2, d=0),
    dict(n=1, k=2, d=1, sigma=0.0),
    dict(n=1, k=2, d=1, sigma=-1.0),
])
def test_generate_rejects_bad_params(bad):
    with pytest.raises(ValueError):
        generate_dataset(seed=0, **bad)


def test_similarity_parallel_and_orthogonal():
    sim = similarity_matrix(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert sim[0, 1] == pytest.approx(1.0)
    sim = similarity_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert sim[0, 1] == pytest.approx(0.0)


def test_similarity_unnormalized_dot():
    sim = similarity_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]), normalized=False)
    assert sim[0, 1] == pytest.approx(11.0)


def test_similarity_zero_vector_rejected():
    with pytest.raises(ValueError):
        similarity_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_similarity_upper_triangle_layout():
    # scoring reads the pairs i < j of the symmetric m x m matrix
    items = np.random.default_rng(3).standard_normal((5, 4))
    sim = similarity_matrix(items)
    assert sim.shape == (5, 5)
    assert np.array_equal(sim, sim.T)
    unit = items / np.linalg.norm(items, axis=1, keepdims=True)
    iu = np.triu_indices(5, 1)
    assert np.allclose(sim[iu], (unit @ unit.T)[iu])


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 12), st.integers(2, 8), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_class_balance_when_k_divides_n(mult, k, d, seed):
    n = mult * k
    ds = generate_dataset(n=n, k=k, d=d, sigma=0.5, seed=seed)
    rng = np.random.default_rng(seed)
    assert np.array_equal(ds.centroids, rng.standard_normal((k, d)))
    classes = np.arange(n) % k  # point i belongs to class i mod k
    assert np.array_equal(ds.points, ds.centroids[classes] + 0.5 * rng.standard_normal((n, d)))
    assert np.bincount(classes, minlength=k).tolist() == [n // k] * k


@settings(deadline=None, max_examples=50)
@given(st.integers(2, 8), st.integers(1, 5), st.floats(0.1, 10.0),
       st.integers(0, 2**32 - 1))
def test_cosine_invariant_under_positive_rescaling(m, d, scale, seed):
    rng = np.random.default_rng(seed)
    items = rng.standard_normal((m, d)) + 0.1  # keep away from the zero vector
    a = similarity_matrix(items)
    scaled = items.copy()
    scaled[0] *= scale
    b = similarity_matrix(scaled)
    assert np.allclose(a, b, atol=1e-10)


def test_all_items_stacks_points_then_centroids():
    ds = generate_dataset(n=3, k=2, d=2, seed=0)
    items = ds.all_items()
    assert items.shape == (5, 2)
    assert np.array_equal(items[:3], ds.points)
    assert np.array_equal(items[3:], ds.centroids)
