import io
from dataclasses import fields

import numpy as np
import pytest
from conftest import satisfied_share
from hypothesis import given, settings
from hypothesis import strategies as st

from labelinfo import gnmds
from labelinfo.gnmds import (_GROW, _WINDOW, GramMatrix, SolverConfig,
                             _double_center, _hinge_subgradient, extract_embedding,
                             project_psd, solve)
from labelinfo.labels import hard_labels, pca_encode, soft_labels
from labelinfo.latentgen import generate_dataset
from labelinfo.render import matrix_to_csv
from labelinfo.sweep import derive_seed
from labelinfo.triplets import ConstraintSet, apply_noise, mine_constraints


def _toy_constraints():
    """0 closer to 1 than to 2, and 1 closer to 0 than to 2."""
    t = np.array([[0, 1, 2], [1, 0, 2]], dtype=np.int64)
    return ConstraintSet(n_points=3, n_centroids=0, triplets=t)


def _reference_solve(constraints: ConstraintSet, config: SolverConfig) -> GramMatrix:
    """The solver loop as first written, kept as an oracle for `solve`.

    It evaluates the hinge terms twice per iteration, five gathers each, and
    scatters six float-weighted terms per active triplet.
    """
    triplets = constraints.triplets
    n_constraints, m = triplets.shape[0], constraints.m
    anchor, near, far = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    scatter_idx = np.concatenate([
        near * m + near, far * m + far,
        anchor * m + near, near * m + anchor,
        anchor * m + far, far * m + anchor,
    ])
    signs = np.repeat(np.array([1.0, -1.0, -1.0, -1.0, 1.0, 1.0]), n_constraints)
    flat_near = anchor * m + near
    flat_far = anchor * m + far
    margin, lam = config.margin, config.lam

    def hinge_terms(k):
        diag = np.einsum("ii->i", k)
        d2_near = diag[anchor] + diag[near] - 2.0 * k.ravel()[flat_near]
        d2_far = diag[anchor] + diag[far] - 2.0 * k.ravel()[flat_far]
        return margin + d2_near - d2_far

    def objective(k):
        return float(np.maximum(hinge_terms(k), 0.0).sum() + lam * np.trace(k))

    gram = np.zeros((m, m))
    obj = initial_objective = objective(gram)
    best_gram, best_obj = gram, obj
    eta = 1.0 / n_constraints
    history = [best_obj]
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        active = np.flatnonzero(np.tile(hinge_terms(gram) > 0.0, 6))
        grad = np.bincount(scatter_idx[active], weights=signs[active],
                           minlength=m * m).reshape(m, m) + lam * np.eye(m)
        candidate = _double_center(project_psd(gram - eta * grad))
        candidate_obj = objective(candidate)
        eta = eta * 0.5 if candidate_obj > obj else eta * _GROW
        gram, obj = candidate, candidate_obj
        if obj < best_obj:
            best_gram, best_obj = gram, obj
        history.append(best_obj)
        if (len(history) > _WINDOW
                and history[-1 - _WINDOW] - history[-1]
                <= config.tolerance * max(1.0, abs(history[-1]))):
            break
    diagnostics = {
        "initial_objective": initial_objective,
        "final_objective": best_obj,
        "iterations": iterations,
        "satisfied_fraction": float(np.mean(hinge_terms(best_gram) - margin < 0.0)),
    }
    return GramMatrix(entries=best_gram, diagnostics=diagnostics)


def _oracle_sets():
    ds = generate_dataset(n=7, k=4, d=3, seed=21)
    soft = mine_constraints(soft_labels(ds), ds.n)
    return {
        "hard": mine_constraints(hard_labels(ds), ds.n),
        "soft": soft,
        "pca": mine_constraints(pca_encode(ds, 2), ds.n),
        "noisy": apply_noise(soft, 0.2, seed=3),
    }


@pytest.mark.parametrize("config", [
    SolverConfig(),
    SolverConfig(margin=0.5, lam=0.2, tolerance=1e-4, max_iterations=400),
], ids=["default", "custom"])
@pytest.mark.parametrize("kind", ["hard", "soft", "pca", "noisy"])
def test_solve_matches_reference_loop_bit_for_bit(kind, config):
    constraints = _oracle_sets()[kind]
    expected = _reference_solve(constraints, config)
    got = solve(constraints, config)
    assert np.array_equal(got.entries, expected.entries)
    diagnostics = dict(got.diagnostics)
    assert diagnostics.pop("stop_reason") in {"tolerance", "max_iterations"}
    assert diagnostics == expected.diagnostics



def test_solve_gives_the_same_bytes_for_int16_and_int64_indices():
    """Mined sets are int16; a set built as int64 must solve to the same bytes."""
    ds = generate_dataset(n=8, k=6, d=4, seed=3)
    narrow = apply_noise(mine_constraints(soft_labels(ds), ds.n), 0.1, seed=2)
    assert narrow.triplets.dtype == np.int16
    wide = ConstraintSet(narrow.n_points, narrow.n_centroids,
                         narrow.triplets.astype(np.int64))
    got, expected = solve(narrow), solve(wide)
    assert got.entries.tobytes() == expected.entries.tobytes()
    assert got.diagnostics == expected.diagnostics

def test_hinge_subgradient_equals_dense_sum_of_per_triplet_terms():
    rng = np.random.default_rng(4)
    m = 6
    triplets = rng.integers(0, m, size=(80, 3))  # repeats and coincident items too
    eye = np.eye(m)
    dense = np.zeros((m, m))
    for a, near, far in triplets:
        # d/dK of D2(a, near) - D2(a, far), where D2(i, j) = (e_i - e_j)^T K (e_i - e_j)
        dense += (np.outer(eye[a] - eye[near], eye[a] - eye[near])
                  - np.outer(eye[a] - eye[far], eye[a] - eye[far]))
    got = _hinge_subgradient(triplets[:, 0] * m + triplets[:, 1],
                             triplets[:, 0] * m + triplets[:, 2], m)
    assert got.dtype.kind == "i"
    assert np.array_equal(got, dense)


@pytest.mark.parametrize("config, reason, iterations", [
    (SolverConfig(), "tolerance", None),
    (SolverConfig(max_iterations=3), "max_iterations", 3),
])
def test_solve_records_stop_reason(config, reason, iterations):
    diag = solve(_toy_constraints(), config).diagnostics
    assert diag["stop_reason"] == reason
    if iterations is not None:
        assert diag["iterations"] == iterations
    else:
        assert diag["iterations"] < config.max_iterations


def test_default_tolerance_stops_a_large_solve_before_the_cap():
    # battery check 6's (20, 20) dataset at rep 0, PCA k_hat = 2: 29,640 triplets,
    # which ran to the 2,000-iteration cap under a tolerance of 1e-6
    ds = generate_dataset(n=20, k=20, d=5, seed=derive_seed(23, n=20, k=20, d=5, rep=0))
    diag = solve(mine_constraints(pca_encode(ds, 2), ds.n)).diagnostics
    assert diag["stop_reason"] == "tolerance"
    assert diag["iterations"] < SolverConfig().max_iterations


def test_solver_config_defaults_and_validation():
    # the step is worked out from the constraint count, so it is not a setting
    assert [f.name for f in fields(SolverConfig)] == ["margin", "lam", "max_iterations",
                                                      "tolerance"]
    cfg = SolverConfig()
    assert cfg.margin == 1.0 and cfg.lam == 0.05
    assert cfg.max_iterations == 2000 and cfg.tolerance == 1e-4
    with pytest.raises(ValueError):
        SolverConfig(margin=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(lam=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(tolerance=-1e-6)


def test_project_psd_clips_negative_eigenvalues():
    mat = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    proj = project_psd(mat)
    vals = np.linalg.eigvalsh(proj)
    assert vals.min() >= -1e-10
    assert np.allclose(proj, proj.T)
    # the PSD part of the spectrum is retained
    assert np.linalg.eigvalsh(proj).max() == pytest.approx(3.0)


def test_project_psd_fixes_psd_input():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5))
    psd = a @ a.T
    assert np.allclose(project_psd(psd), psd, atol=1e-10)


def test_project_psd_symmetrizes():
    mat = np.array([[2.0, 1.0], [0.0, 2.0]])
    proj = project_psd(mat)
    assert np.allclose(proj, proj.T)


def test_project_psd_svd_fallback_matches_eigh(monkeypatch):
    rng = np.random.default_rng(17)
    matrices = []
    for size in (1, 2, 5, 12, 40):
        a = rng.standard_normal((size, size))
        matrices += [a, a + a.T, a @ a.T, -(a @ a.T)]  # nonsymmetric, indefinite, PSD, NSD
    expected = [project_psd(a) for a in matrices]

    def eigh_fails(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh_fails)
    for a, want in zip(matrices, expected):
        got = project_psd(a)
        assert np.array_equal(got, got.T)
        scale = max(1.0, np.abs(want).max())
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * scale * len(a))


def test_project_psd_rejects_nonfinite():
    with pytest.raises(ValueError):
        project_psd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_solve_empty_raises():
    empty = ConstraintSet(2, 1, np.empty((0, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        solve(empty, SolverConfig())


def test_solve_out_of_range_index_raises():
    bad = ConstraintSet(1, 1, np.array([[0, 1, 2]], dtype=np.int64))
    with pytest.raises(IndexError):
        solve(bad, SolverConfig())


def test_solve_table_reuses_a_set_by_content_and_returns_copies(monkeypatch):
    sets = _oracle_sets()
    config = SolverConfig()
    expected = solve(sets["soft"], config)
    inner_calls = []
    inner_solve = gnmds._solve
    monkeypatch.setattr(gnmds, "_solve",
                        lambda c, cfg: inner_calls.append(cfg) or inner_solve(c, cfg))
    table = {}
    first = solve(sets["soft"], config, table)
    assert np.array_equal(first.entries, expected.entries)
    assert first.diagnostics == expected.diagnostics
    first.entries[:] = 99.0
    first.diagnostics["iterations"] = -1
    same_content = ConstraintSet(7, 4, sets["soft"].triplets.copy())
    for _ in range(2):
        hit = solve(same_content, config, table)
        assert np.array_equal(hit.entries, expected.entries)
        assert hit.diagnostics == expected.diagnostics
        hit.entries[0, 0] = -5.0
    assert len(inner_calls) == 1
    # a new config, a new item count or new triplets is a new entry
    solve(sets["soft"], SolverConfig(lam=0.2), table)
    solve(ConstraintSet(7, 5, sets["soft"].triplets), config, table)
    solve(sets["hard"], config, table)
    assert len(inner_calls) == len(table) == 4


def test_solve_toy_satisfies_constraints():
    gram = solve(_toy_constraints(), SolverConfig())
    assert isinstance(gram, GramMatrix)
    assert gram.entries.shape == (3, 3)
    k = gram.entries
    d = np.diag(k)[:, None] + np.diag(k)[None, :] - 2 * k
    assert d[0, 1] < d[0, 2]
    assert d[1, 0] < d[1, 2]
    assert gram.diagnostics["satisfied_fraction"] == 1.0


def test_solve_result_is_psd_and_centered():
    ds = generate_dataset(n=6, k=3, d=3, seed=1)
    gram = solve(mine_constraints(soft_labels(ds), ds.n), SolverConfig())
    vals = np.linalg.eigvalsh(gram.entries)
    assert vals.min() >= -1e-8
    assert np.abs(gram.entries.sum(axis=0)).max() < 1e-8


def test_solve_objective_never_worse_than_start():
    ds = generate_dataset(n=5, k=3, d=3, seed=4)
    gram = solve(mine_constraints(hard_labels(ds), ds.n), SolverConfig())
    diag = gram.diagnostics
    assert diag["final_objective"] <= diag["initial_objective"] + 1e-12
    assert set(diag) == {"initial_objective", "final_objective",
                         "iterations", "satisfied_fraction", "stop_reason"}
    assert 1 <= diag["iterations"] <= 2000


def test_solve_deterministic():
    ds = generate_dataset(n=7, k=3, d=3, seed=5)
    cs = mine_constraints(soft_labels(ds), ds.n)
    a = solve(cs, SolverConfig())
    b = solve(cs, SolverConfig())
    assert np.array_equal(a.entries, b.entries)
    assert a.diagnostics == b.diagnostics


def test_solve_attains_high_satisfaction_on_consistent_sets():
    ds = generate_dataset(n=8, k=4, d=3, seed=6)
    gram = solve(mine_constraints(hard_labels(ds), ds.n), SolverConfig())
    assert gram.diagnostics["satisfied_fraction"] >= 0.95


def test_trace_regularization_shrinks_scale():
    cs = _toy_constraints()
    small = solve(cs, SolverConfig(lam=0.01))
    large = solve(cs, SolverConfig(lam=5.0))
    assert np.trace(large.entries) < np.trace(small.entries)


def test_extract_embedding_reproduces_gram():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 3))
    x -= x.mean(axis=0)
    gram = GramMatrix(entries=x @ x.T, diagnostics={})
    emb = extract_embedding(gram, 3)
    assert emb.shape == (6, 3)
    assert np.allclose(emb @ emb.T, gram.entries, atol=1e-8)


def test_extract_embedding_rank_capping():
    gram = GramMatrix(entries=np.eye(3), diagnostics={})
    emb = extract_embedding(gram, 2)
    assert emb.shape == (3, 2)
    with pytest.raises(ValueError):
        extract_embedding(gram, 0)
    with pytest.raises(ValueError):
        extract_embedding(gram, 4)


def test_embedding_respects_solved_constraints():
    ds = generate_dataset(n=6, k=3, d=3, seed=11)
    cs = mine_constraints(hard_labels(ds), ds.n)
    gram = solve(cs, SolverConfig())
    emb = extract_embedding(gram, 3)
    assert satisfied_share(cs.triplets, emb) >= 0.95


def test_gram_csv_round_trip():
    ds = generate_dataset(n=4, k=2, d=2, seed=3)
    gram = solve(mine_constraints(soft_labels(ds), ds.n), SolverConfig())
    back = np.loadtxt(io.StringIO(matrix_to_csv(gram.entries)), delimiter=",")
    assert np.array_equal(back, gram.entries)


@settings(deadline=None, max_examples=50)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_project_psd_is_idempotent_and_psd(size, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((size, size)) * 3
    proj = project_psd(mat)
    assert np.linalg.eigvalsh(proj).min() >= -1e-8
    assert np.allclose(project_psd(proj), proj, atol=1e-8)
