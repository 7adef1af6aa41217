"""Property suite: every module invariant at >= 200 random cases.

Solver-backed properties run the full pipeline on tiny instances so the
whole file stays well under the time budget.
"""
import numpy as np
import pytest
from conftest import PcaCurve, effective_dimensionality, indifference_beta, satisfied_share
from hypothesis import given, settings
from hypothesis import strategies as st

from labelinfo.costbenefit import SignalOption, TradeoffConfig, loss, optimize_sparsity
from labelinfo.gnmds import SolverConfig, solve
from labelinfo.labels import (LabelKind, LabelSet, hard_labels, smooth_labels,
                              soft_labels, sparsify_labels, topclass_labels)
from labelinfo.latentgen import generate_dataset, similarity_matrix
from labelinfo.metrics import spearman
from labelinfo.sweep import SignalSpec, SweepSpec, run_sweep
from labelinfo.triplets import (apply_noise, count_hard, count_soft, information_ratio,
                                mine_constraints)

N200 = settings(deadline=None, max_examples=200)

seeds = st.integers(0, 2**32 - 1)

_FAST = SolverConfig(max_iterations=300)


def _tiny_dataset(n, k, d, seed):
    return generate_dataset(n=n, k=k, d=d, sigma=0.5, seed=seed)


# ---------------------------------------------------------------- latentgen

@N200
@given(st.integers(1, 8), st.integers(2, 8), st.integers(1, 6), seeds)
def test_generation_is_deterministic_and_balanced(per_class, k, d, seed):
    n = per_class * k
    a = _tiny_dataset(n, k, d, seed)
    b = _tiny_dataset(n, k, d, seed)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.centroids, b.centroids)
    rng = np.random.default_rng(seed)
    assert np.array_equal(a.centroids, rng.standard_normal((k, d)))
    classes = np.arange(n) % k  # point i belongs to class i mod k
    assert np.array_equal(a.points, a.centroids[classes] + 0.5 * rng.standard_normal((n, d)))
    assert np.all(np.bincount(classes, minlength=k) == n // k)


@N200
@given(st.integers(2, 10), st.integers(1, 5), seeds, st.floats(0.1, 100.0))
def test_cosine_similarity_scale_invariant(m, d, seed, scale):
    rng = np.random.default_rng(seed)
    items = rng.standard_normal((m, d)) + 0.1
    base = similarity_matrix(items, normalized=True)
    which = rng.integers(0, m)
    rescaled = items.copy()
    rescaled[which] *= scale
    again = similarity_matrix(rescaled, normalized=True)
    assert np.allclose(base, again, atol=1e-9)


# ------------------------------------------------------------------- labels

@N200
@given(st.integers(1, 15), st.integers(2, 10), st.integers(1, 5), seeds,
       st.data())
def test_label_row_sums_one_hot_and_sparse_support(n, k, d, seed, data):
    ds = _tiny_dataset(n, k, d, seed)
    hard = hard_labels(ds)
    soft = soft_labels(ds)
    assert np.all((hard.values == 0.0) | (hard.values == 1.0))
    assert np.all(hard.values.sum(axis=1) == 1.0)
    assert np.allclose(soft.values.sum(axis=1), 1.0, atol=1e-9)
    k_hat = data.draw(st.integers(1, k))
    sparse = sparsify_labels(soft, k_hat)
    assert np.all((sparse.values > 0).sum(axis=1) == min(k_hat, k))


@N200
@given(st.integers(1, 12), st.integers(2, 9), st.integers(1, 4), seeds,
       st.data())
def test_argmax_preservation_under_smoothing_and_sparsify(n, k, d, seed, data):
    ds = _tiny_dataset(n, k, d, seed)
    hard = hard_labels(ds)
    soft = soft_labels(ds)
    eps = data.draw(st.floats(0.0, (k - 1) / k - 1e-6))
    smoothed = smooth_labels(hard, eps)
    assert np.array_equal(np.argmax(smoothed.values, axis=1),
                          np.argmax(hard.values, axis=1))
    # so every rate below (k-1)/k mines exactly the hard set
    assert (mine_constraints(smoothed, n).triplets.tobytes()
            == mine_constraints(hard, n).triplets.tobytes())
    k_hat = data.draw(st.integers(1, k))
    sparse = sparsify_labels(soft, k_hat)
    top = np.argmax(soft.values, axis=1)
    assert np.array_equal(np.argmax(sparse.values, axis=1), top)
    rows = np.arange(n)
    assert np.array_equal(sparse.values[rows, top], soft.values[rows, top])
    # soft argmax is the hard class
    assert np.array_equal(top, np.argmax(hard.values, axis=1))


@N200
@given(st.integers(3, 12), st.integers(2, 8), st.integers(1, 4), seeds,
       st.data())
def test_topclass_columns_vs_sparse_entries(n, k, d, seed, data):
    ds = _tiny_dataset(n, k, d, seed)
    soft = soft_labels(ds)
    sim = similarity_matrix(ds.points)
    k_hat = data.draw(st.integers(1, k))
    top = topclass_labels(soft, k_hat, sim)
    kept = np.flatnonzero(np.any(top.values != 0.0, axis=0))  # the other columns are zero
    assert len(kept) == k_hat
    assert np.array_equal(top.values[:, kept], soft.values[:, kept])
    sparse = sparsify_labels(soft, k_hat)
    if k_hat == k:
        assert np.allclose(top.values, sparse.values)
        assert np.allclose(top.values, soft.values)


# ----------------------------------------------------------------- triplets

def _has_exact_ties(values: np.ndarray) -> bool:
    """Any two rows sharing a column value, or two columns sharing a row value.

    Exact soft-label ties are not merely float accidents: in d = 1 two points
    on the same side of every centroid shift all logits by a constant, which
    softmax cancels, so their label rows coincide bit for bit.
    """
    n, k = values.shape
    for col in range(k):
        if len(np.unique(values[:, col])) < n:
            return True
    for row in range(n):
        if len(np.unique(values[row])) < k:
            return True
    return False


@N200
@given(st.integers(1, 5), st.integers(2, 7), st.integers(1, 4), seeds)
def test_count_formulas_and_dedup(per_class, k, d, seed):
    n = per_class * k
    # tiny spread keeps every point nearest its own centroid, so hard labels
    # stay balanced — the count formula's precondition
    tight = generate_dataset(n=n, k=k, d=d, sigma=1e-9, seed=seed)
    hard_cs = mine_constraints(hard_labels(tight), tight.n)
    assert len(hard_cs) == count_hard(n, k)
    ds = _tiny_dataset(n, k, d, seed)
    soft = soft_labels(ds)
    soft_cs = mine_constraints(soft, n)
    if _has_exact_ties(soft.values):
        assert len(soft_cs) < count_soft(n, k)  # ties emit nothing
    else:
        assert len(soft_cs) == count_soft(n, k)
    for cs in (hard_cs, soft_cs):
        t = cs.triplets
        # no duplicated unordered query (anchor, {near, far})
        key = np.stack([t[:, 0], np.minimum(t[:, 1], t[:, 2]),
                        np.maximum(t[:, 1], t[:, 2])], axis=1)
        assert len(np.unique(key, axis=0)) == len(t)


@N200
@given(st.integers(2, 12), st.integers(2, 8), st.integers(1, 4), seeds)
def test_point_anchored_constraints_respect_geometry(n, k, d, seed):
    ds = _tiny_dataset(n, k, d, seed)
    coords = ds.all_items()
    for cs in (mine_constraints(hard_labels(ds), ds.n), mine_constraints(soft_labels(ds), ds.n)):
        point_anchored = cs.triplets[cs.triplets[:, 0] < n]
        if len(point_anchored):
            assert satisfied_share(point_anchored, coords) == 1.0


@N200
@given(st.integers(2, 200))
def test_one_shot_identities_property(n):
    assert information_ratio(count_hard(n, n), n, n) == pytest.approx(
        1.0 / (2 * n - 1), rel=1e-12)
    assert information_ratio(count_soft(n, n), n, n) == pytest.approx(
        n / (2.0 * (2 * n - 1)), rel=1e-12)


@N200
@given(st.integers(1, 200), st.integers(2, 200))
def test_soft_counts_dominate_hard_when_classes_outnumber_points(n, k):
    # the lone exception is (n=1, k=2), where 1 = T_S < T_H = 3/2
    if n > k or (n, k) == (1, 2):
        return
    assert count_soft(n, k) >= count_hard(n, k)


@N200
@given(st.integers(2, 10), st.integers(2, 6), st.integers(1, 4),
       st.floats(0.0, 1.0), seeds, seeds)
def test_noise_preserves_count_and_anchors(n, k, d, eps, seed, noise_seed):
    ds = _tiny_dataset(n, k, d, seed)
    cs = mine_constraints(soft_labels(ds), ds.n)
    noisy = apply_noise(cs, eps, noise_seed)
    assert len(noisy) == len(cs)
    assert np.array_equal(noisy.triplets[:, 0], cs.triplets[:, 0])
    assert np.array_equal(np.sort(noisy.triplets[:, 1:], axis=1),
                          np.sort(cs.triplets[:, 1:], axis=1))


# -------------------------------------------------------------------- gnmds

@N200
@given(st.integers(2, 5), st.integers(2, 4), seeds)
def test_solver_output_psd_symmetric_monotone(n, k, seed):
    ds = _tiny_dataset(n, k, 3, seed)
    gram = solve(mine_constraints(soft_labels(ds), ds.n), _FAST)
    entries = gram.entries
    assert np.allclose(entries, entries.T, atol=1e-10)
    assert np.linalg.eigvalsh(entries).min() >= -1e-8
    assert (gram.diagnostics["final_objective"]
            <= gram.diagnostics["initial_objective"] + 1e-12)


@N200
@given(st.integers(2, 5), st.integers(2, 4), seeds)
def test_solver_determinism(n, k, seed):
    ds = _tiny_dataset(n, k, 3, seed)
    cs = mine_constraints(hard_labels(ds), ds.n)
    a = solve(cs, _FAST)
    b = solve(cs, _FAST)
    assert np.array_equal(a.entries, b.entries)
    assert a.diagnostics == b.diagnostics


@N200
@given(st.integers(2, 4), st.integers(2, 3), seeds, seeds)
def test_solver_permutation_equivariance(n, k, seed, perm_seed):
    ds = _tiny_dataset(n, k, 3, seed)
    cs = mine_constraints(soft_labels(ds), ds.n)
    m = cs.m
    perm = np.random.default_rng(perm_seed).permutation(m)
    permuted = type(cs)(n_points=cs.n_points, n_centroids=cs.n_centroids,
                        triplets=perm[cs.triplets])
    base = solve(cs, _FAST).entries
    shuffled = solve(permuted, _FAST).entries
    assert np.allclose(shuffled[np.ix_(perm, perm)], base, atol=1e-6)


# ------------------------------------------------------------------ metrics

@N200
@given(st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=60,
                unique=True),
       st.floats(0.01, 3.0), seeds)
def test_spearman_increasing_transform_and_symmetry(grid, slope, seed):
    x = np.asarray(grid, dtype=float)
    g = slope * x + np.tanh(x / 1e6)  # strictly increasing
    assert spearman(x, g) == 1.0
    ys = np.random.default_rng(seed).standard_normal(len(x))
    assert spearman(x, ys) == pytest.approx(spearman(ys, x), abs=1e-12)


@N200
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_effective_dim_monotone_in_target(rhos, t1, t2):
    curve = PcaCurve(points=tuple((i + 1, r) for i, r in enumerate(sorted(rhos))))
    lo, hi = sorted([t1, t2])
    k_lo, _ = effective_dimensionality(lo, curve)
    k_hi, _ = effective_dimensionality(hi, curve)
    assert k_lo <= k_hi


# -------------------------------------------------------------- costbenefit

@N200
@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.5, 30.0),
       st.floats(-1.0, 1.0))
def test_loss_increasing_in_beta(b1, b2, c, rho):
    lo, hi = sorted([b1, b2])
    opt = SignalOption(kind=LabelKind.SOFT, k_hat=1, rho=rho, cost_units=c)
    if (hi - lo) * c > 1e-9:  # separation must survive float addition
        assert loss(opt, TradeoffConfig(beta=lo)) < loss(opt, TradeoffConfig(beta=hi))


@N200
@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 30.0)),
                min_size=2, max_size=8))
def test_extreme_beta_preferences(pool):
    options = [SignalOption(kind=LabelKind.SOFT, k_hat=i + 1, rho=r, cost_units=c)
               for i, (r, c) in enumerate(pool)]
    at_zero = optimize_sparsity(options, TradeoffConfig(beta=0.0))
    assert at_zero.rho == max(o.rho for o in options)
    at_inf = optimize_sparsity(options, TradeoffConfig(beta=1e9))
    cheapest = min(o.cost_units for o in options)
    # costs a few ulps apart are indistinguishable once scaled by beta
    assert at_inf.cost_units <= cheapest * (1 + 1e-9)


@N200
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
       st.floats(0.5, 20.0), st.floats(0.5, 20.0))
def test_indifference_beta_flip(r1, r2, c1, c2):
    if abs(c1 - c2) < 1e-6:
        return
    a = SignalOption(kind=LabelKind.SOFT, k_hat=1, rho=r1, cost_units=c1)
    b = SignalOption(kind=LabelKind.HARD, k_hat=1, rho=r2, cost_units=c2)
    beta_star = indifference_beta(a, b)
    if beta_star <= 0:
        return  # one option dominates at every nonnegative beta
    eps = max(abs(beta_star), 1.0) * 1e-3
    cheaper, pricier = (a, b) if c1 < c2 else (b, a)
    assert optimize_sparsity([a, b], TradeoffConfig(beta=beta_star + eps)) is cheaper
    assert optimize_sparsity([a, b], TradeoffConfig(beta=max(beta_star - eps, 0.0))
                             ) is pricier


@N200
@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 30.0)),
                min_size=1, max_size=8),
       st.floats(0.0, 5.0))
def test_dominated_option_never_wins(pool, beta):
    cfg = TradeoffConfig(beta=beta)
    options = [SignalOption(kind=LabelKind.SOFT, k_hat=i + 1, rho=r, cost_units=c)
               for i, (r, c) in enumerate(pool)]
    best = optimize_sparsity(options, cfg)
    dominated = SignalOption(kind=LabelKind.HARD, k_hat=best.k_hat + 1,
                             rho=best.rho - 0.5 if best.rho >= -0.5 else -1.0,
                             cost_units=best.cost_units + 1.0)
    assert optimize_sparsity(options + [dominated], cfg) is best


# ---------------------------------------------------------------- sweep/cli

@N200
@given(st.integers(1, 4), st.integers(2, 4), st.integers(1, 3),
       st.integers(1, 2), seeds)
def test_sweep_row_count_and_replay(n, k, d, reps, base_seed):
    spec = SweepSpec(n_grid=(n,), k_grid=(k,), d_grid=(d,),
                     signals=(SignalSpec(LabelKind.HARD),
                              SignalSpec(LabelKind.SOFT)),
                     reps=reps, base_seed=base_seed, solver=_FAST)
    rows, _ = run_sweep(spec, workers=1)
    assert len(rows) == 2 * reps == len(list(spec.cells()))
    again, _ = run_sweep(spec, workers=1)
    assert rows == again
