"""End-to-end acceptance battery.

Ten numbered checks cover the headline behaviours of the package: exact
constraint-count formulas, one-shot information-ratio identities, solver
recovery on exhaustively constrained geometry, the few-shot soft-vs-hard
gap, noise monotonicity, sparsity orderings, the information-ratio versus
effective-dimensionality relation, cost-benefit regime flips, deterministic
replay, and the randomized property suite. Each check records a one-line
PASS/FAIL verdict that conftest prints in the terminal summary.

These are experiment-scale tests (several minutes of solver time total);
the unit suites next to this file cover the fast, fine-grained behaviour.
"""
from __future__ import annotations

import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import conftest
from conftest import PcaCurve, effective_dimensionality, indifference_beta
from labelinfo.cli import simulate_spec, sparsity_spec
from labelinfo.costbenefit import SignalOption, TradeoffConfig, optimize_sparsity
from labelinfo.gnmds import solve
from labelinfo.labels import LabelKind, hard_labels, soft_labels
from labelinfo.latentgen import generate_dataset, similarity_matrix
from labelinfo.metrics import recovery_score
from labelinfo.render import rows_to_csv
from labelinfo.sweep import SWEEP_COLUMNS, SignalSpec, SweepSpec, run_sweep
from labelinfo.triplets import (ConstraintSet, count_hard, count_soft,
                                information_ratio, mine_constraints)

_ELAPSED: dict[str, float] = {}
# checks 4 and 6 run the experiments as committed, through the CLI's own spec builders
_EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"


def _verdict(num: int, label: str, ok: bool, detail: str) -> str:
    line = f"[{num:2d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    conftest.record_verdict(line)
    return line


def _sign_test_p(wins: int, trials: int) -> float:
    """One-sided exact binomial p-value for `wins` successes at chance 1/2."""
    total = sum(math.comb(trials, i) for i in range(wins, trials + 1))
    return float(Fraction(total, 2**trials))


# ---------------------------------------------------------------------------
# 1. Closed-form constraint counts against a brute-force enumerator.
# ---------------------------------------------------------------------------

def _enumerate_constraints(values: np.ndarray) -> set:
    """Re-derive the mined constraint set with plain nested loops.

    Deliberately independent of the vectorized miners: every strict
    value comparison within a label row (point anchored) or within a
    class column (centroid anchored) yields one ordered triplet.
    """
    n, k = values.shape
    rows = set()
    for i in range(n):
        for p in range(k):
            for q in range(k):
                if p != q and values[i, p] > values[i, q]:
                    rows.add((i, n + p, n + q))
    for p in range(k):
        for i in range(n):
            for j in range(n):
                if i != j and values[i, p] > values[j, p]:
                    rows.add((n + p, i, j))
    return rows


def _tie_free(values: np.ndarray) -> bool:
    return (all(len(set(row.tolist())) == len(row) for row in values)
            and all(len(set(col.tolist())) == len(col) for col in values.T))


def test_criterion_01_closed_form_counts_match_brute_force():
    t0 = time.perf_counter()
    pairs = [(n, k) for k in range(2, 13) for n in range(k, 13) if n % k == 0]
    assert len(pairs) == 23
    for n, k in pairs:
        ds = generate_dataset(n=n, k=k, d=3, sigma=1e-9, seed=1000 + 17 * n + k)
        hard = hard_labels(ds)
        classes = np.argmax(hard.values, axis=1)
        assert np.all(np.bincount(classes, minlength=k) == n // k), \
            f"unbalanced hard labels at (n={n}, k={k})"

        mined_h = {tuple(t) for t in mine_constraints(hard, n).triplets.tolist()}
        assert mined_h == _enumerate_constraints(hard.values)
        expected_h = Fraction(n * (k - 1)) + Fraction(n * n) * (1 - Fraction(1, k))
        assert Fraction(len(mined_h)) == expected_h == count_hard(n, k)

        soft = soft_labels(ds)
        assert _tie_free(soft.values), f"soft ties at (n={n}, k={k})"
        mined_s = {tuple(t) for t in mine_constraints(soft, n).triplets.tolist()}
        assert mined_s == _enumerate_constraints(soft.values)
        assert len(mined_s) == k * n * (k + n - 2) // 2 == count_soft(n, k)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _verdict(1, "closed-form counts vs brute force", ok,
             f"{len(pairs)} balanced grids exact, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 2. One-shot information-ratio identities, exact over n = 2..200.
# ---------------------------------------------------------------------------

def test_criterion_02_one_shot_identities():
    t0 = time.perf_counter()
    for n in range(2, 201):
        queries = 3 * math.comb(2 * n, 3)
        assert Fraction(count_hard(n, n)) / queries == Fraction(1, 2 * n - 1)
        assert Fraction(count_soft(n, n), queries) == Fraction(n, 2 * (2 * n - 1))
        ir_hard = information_ratio(int(count_hard(n, n)), n, n)
        ir_soft = information_ratio(count_soft(n, n), n, n)
        assert abs(ir_hard - 1 / (2 * n - 1)) <= 1e-12 / (2 * n - 1)
        assert abs(ir_soft - n / (2 * (2 * n - 1))) <= 1e-12 * ir_soft
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    _verdict(2, "one-shot information-ratio identities", ok,
             f"n=2..200 exact, {elapsed:.2f}s")
    assert ok


# ---------------------------------------------------------------------------
# 3. Solver recovery from exhaustive noise-free constraints.
# ---------------------------------------------------------------------------

def _exhaustive_queries(coords: np.ndarray) -> np.ndarray:
    m = coords.shape[0]
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1)
    rows = []
    for a in range(m):
        for b in range(m):
            for c in range(b + 1, m):
                if a in (b, c):
                    continue
                if d2[a, b] < d2[a, c]:
                    rows.append((a, b, c))
                elif d2[a, c] < d2[a, b]:
                    rows.append((a, c, b))
    return np.array(rows, dtype=np.int64)


def test_criterion_03_solver_oracle_recovery():
    t0 = time.perf_counter()
    details = []
    all_ok = True
    for m in (6, 8, 10):
        hits = 0
        rho_min = np.inf
        for seed in range(10):
            rng = np.random.default_rng(seed)
            items = rng.standard_normal((m, 3))
            items /= np.linalg.norm(items, axis=1, keepdims=True)
            constraints = ConstraintSet(n_points=m, n_centroids=0,
                                        triplets=_exhaustive_queries(items))
            assert len(constraints) == 3 * math.comb(m, 3)
            gram = solve(constraints)
            truth = similarity_matrix(items - items.mean(axis=0), normalized=False)
            rho = recovery_score(gram, truth)
            rho_min = min(rho_min, rho)
            if rho >= 0.9 and gram.diagnostics["satisfied_fraction"] >= 0.95:
                hits += 1
        all_ok &= hits >= 9
        details.append(f"m={m}: {hits}/10, min rho {rho_min:.3f}")
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 60.0
    _verdict(3, "solver oracle recovery", ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 4. Soft labels beat hard labels across the few-shot grid.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def fewshot_rows():
    spec = simulate_spec(str(_EXPERIMENTS / "fewshot.json"))
    t0 = time.perf_counter()
    rows, _ = run_sweep(spec, workers=1)
    _ELAPSED["fewshot"] = time.perf_counter() - t0
    assert all(row["status"] == "ok" for row in rows)
    return rows


def _rho_by_seed(rows, n, k, kind, **match):
    out = {}
    for row in rows:
        if row["n"] == n and row["k"] == k and row["kind"] == kind and \
                all(row[key] == val for key, val in match.items()):
            out[row["seed"]] = row["rho"]
    return out


def test_criterion_04_soft_beats_hard_in_few_shot_grid(fewshot_rows):
    wins = trials = 0
    cell_gaps = {}
    for n in (3, 5, 10):
        for k in (10, 20, 40):
            hard = _rho_by_seed(fewshot_rows, n, k, "hard")
            soft = _rho_by_seed(fewshot_rows, n, k, "soft")
            assert len(hard) == len(soft) == 20
            diffs = [soft[s] - hard[s] for s in hard]
            cell_gaps[(n, k)] = float(np.mean(diffs))
            wins += sum(d > 0 for d in diffs)
            trials += sum(d != 0 for d in diffs)
    p = _sign_test_p(wins, trials)
    gap_cells = {c: g for c, g in cell_gaps.items() if c[1] >= 2 * c[0]}
    every_cell = all(g > 0 for g in gap_cells.values())
    elapsed = _ELAPSED["fewshot"]
    ok = every_cell and p < 0.01 and elapsed < 600.0
    _verdict(4, "soft beats hard in few-shot grid", ok,
             f"{len(gap_cells)} cells with k>=2n all positive "
             f"(min gap {min(gap_cells.values()):+.3f}), sign test {wins}/{trials} "
             f"p={p:.2e}, {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 5. Recovery degrades monotonically with triplet noise.
# ---------------------------------------------------------------------------

def test_criterion_05_noise_monotonicity():
    spec = SweepSpec(n_grid=(10,), k_grid=(10,), d_grid=(5,),
                     signals=(SignalSpec(LabelKind.SOFT),),
                     epsilon_grid=(0.0, 0.1, 0.3), reps=20, base_seed=11)
    t0 = time.perf_counter()
    rows, _ = run_sweep(spec, workers=1)
    elapsed = time.perf_counter() - t0
    assert all(row["status"] == "ok" for row in rows)
    by_eps = {eps: _rho_by_seed(rows, 10, 10, "soft", epsilon=eps)
              for eps in (0.0, 0.1, 0.3)}
    means = {eps: float(np.mean(list(v.values()))) for eps, v in by_eps.items()}
    seeds = list(by_eps[0.0])
    wins_01 = sum(by_eps[0.0][s] > by_eps[0.1][s] for s in seeds)
    wins_13 = sum(by_eps[0.1][s] > by_eps[0.3][s] for s in seeds)
    p01 = _sign_test_p(wins_01, len(seeds))
    p13 = _sign_test_p(wins_13, len(seeds))
    ok = (means[0.0] > means[0.1] > means[0.3] and p01 < 0.05 and p13 < 0.05
          and elapsed < 300.0)
    _verdict(5, "noise monotonicity", ok,
             f"mean rho {means[0.0]:.3f} > {means[0.1]:.3f} > {means[0.3]:.3f}, "
             f"sign tests p={p01:.1e}/{p13:.1e}, {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 6. Sparsity orderings: PCA >= sparse >= top-class at matched budgets.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def sparsity_rows():
    spec = sparsity_spec(str(_EXPERIMENTS / "sparsity.json"))
    t0 = time.perf_counter()
    rows, _ = run_sweep(spec, workers=1)
    _ELAPSED["sparsity"] = time.perf_counter() - t0
    assert all(row["status"] == "ok" for row in rows)
    return rows


def test_criterion_06_sparsity_orderings(sparsity_rows):
    # PCA coordinate count is capped by the latent dimensionality (5 here),
    # so the budget-10 comparison uses the capped PCA representation.
    def mean_rho(kind, k_hat):
        recorded = min(k_hat, 5) if kind == "pca" else k_hat
        vals = _rho_by_seed(sparsity_rows, 20, 20, kind, k_hat=recorded)
        assert len(vals) == 10
        return float(np.mean(list(vals.values()))), vals

    ordered = True
    triples = []
    for k_hat in (2, 5, 10):
        pca, pca_seeds = mean_rho("pca", k_hat)
        sparse, sparse_seeds = mean_rho("sparse", k_hat)
        top, top_seeds = mean_rho("topclass", k_hat)
        triples.append(f"k_hat={k_hat}: {pca:.3f}/{sparse:.3f}/{top:.3f}")
        ordered &= pca >= sparse >= top
        if k_hat == 5:
            ps_wins = sum(pca_seeds[s] >= sparse_seeds[s] for s in pca_seeds)
            st_wins = sum(sparse_seeds[s] >= top_seeds[s] for s in sparse_seeds)
    elapsed = _ELAPSED["sparsity"]
    ok = ordered and ps_wins >= 8 and st_wins >= 8 and elapsed < 600.0
    _verdict(6, "sparsity orderings pca>=sparse>=topclass", ok,
             "; ".join(triples) + f"; per-seed at k_hat=5: {ps_wins}/10, {st_wins}/10, "
             f"{elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 7. Information ratio versus effective dimensionality across signals.
# ---------------------------------------------------------------------------
#
# A signal that answers a larger share of triplet queries should only be
# matched by more principal components. The comparison is made between
# signals on the same dataset, where problem size is fixed: across cells,
# the effective dimension of soft labels grows with n (2.0 at n=3, about 4
# at n=10) while the closed-form soft ratio nk/((n+k)(n+k-1)) is symmetric
# in (n, k) and falls as n+k grows, so a cross-cell correlation measures
# problem size rather than signal richness (about +0.27 here; it is
# printed, not asserted). Saturation at d=5 is rare and is also printed.
# Each cell runs as one sweep, so its rows are scored as every command's are.

def test_criterion_07_information_ratio_tracks_effective_dimensionality():
    cells = [(3, 10), (3, 20), (3, 40), (5, 10), (5, 20), (5, 40),
             (10, 10), (10, 20), (10, 40), (3, 3), (5, 5), (20, 20)]
    signals = (SignalSpec(LabelKind.HARD),
               SignalSpec(LabelKind.SPARSE_SOFT, k_hat=2),
               SignalSpec(LabelKind.SOFT))
    # the PCA curve: k_hat = 1..d, since n + k > d = 5 in every cell
    curve_signals = tuple(SignalSpec(LabelKind.PCA_COORDS, k_hat=k_hat) for k_hat in range(1, 6))
    t0 = time.perf_counter()
    irs, dims = [], []  # centred within each dataset
    cell_irs, cell_dims = [], []  # soft labels only, one point per cell
    saturated = 0
    for n, k in cells:
        spec = SweepSpec(n_grid=(n,), k_grid=(k,), d_grid=(5,), reps=3, base_seed=99,
                         signals=signals + curve_signals)
        rows, _ = run_sweep(spec, workers=2)
        assert all(row["status"] == "ok" for row in rows)
        by_dataset: dict = {}
        for row in rows:
            by_dataset.setdefault(row["seed"], []).append(row)
        soft_dims = []
        for ds_rows in by_dataset.values():
            curve = PcaCurve(tuple((row["k_hat"], row["rho"]) for row in ds_rows
                                   if row["kind"] == "pca"))
            ds_irs, ds_dims = [], []
            for row in ds_rows:
                if row["kind"] == "pca":
                    continue
                dim, sat = effective_dimensionality(row["rho"], curve)
                if row["kind"] == "soft":
                    soft_dims.append(dim)
                ds_irs.append(row["information_ratio"])
                ds_dims.append(dim)
                saturated += sat
            irs.extend(np.asarray(ds_irs) - np.mean(ds_irs))
            dims.extend(np.asarray(ds_dims, dtype=float) - np.mean(ds_dims))
        cell_irs.append(information_ratio(count_soft(n, k), n, k))
        cell_dims.append(float(np.mean(soft_dims)))
    r = float(np.corrcoef(irs, dims)[0, 1])
    r_cells = float(np.corrcoef(cell_irs, cell_dims)[0, 1])
    elapsed = time.perf_counter() - t0
    ok = r > 0.5 and elapsed < 900.0
    _verdict(7, "information ratio tracks effective dimensionality", ok,
             f"within-dataset Pearson r={r:+.4f} over {len(irs)} centred "
             f"(dataset, signal) pairs (target > 0.5); cross-cell soft "
             f"r={r_cells:+.4f} over {len(cells)} cells; {saturated} "
             f"saturated points; {elapsed:.0f}s")
    assert ok, (
        f"within-dataset Pearson r={r:+.4f} (target > 0.5) in {elapsed:.0f}s. "
        "Hard, sparse k_hat=2 and soft labels of the same dataset are "
        "compared, so problem size is fixed; a richer signal that needs no "
        "more principal components than a poorer one breaks the relation.")


# ---------------------------------------------------------------------------
# 8. Cost-benefit flips: cheap wins at high beta, accurate wins at zero beta.
# ---------------------------------------------------------------------------

def _cell_options(rows, n, k):
    acc = {}
    for row in rows:
        if row["n"] != n or row["k"] != k or row["status"] != "ok":
            continue
        if row["epsilon"] != 0.0:
            continue
        acc.setdefault((row["kind"], row["k_hat"]), []).append(
            (row["rho"], row["c_hat"]))
    options = []
    for (kind, k_hat), vals in sorted(acc.items(), key=lambda kv: repr(kv[0])):
        default = k if kind == "soft" else 1
        options.append(SignalOption(
            kind=LabelKind(kind), k_hat=k_hat if k_hat != "" else default,
            rho=float(np.mean([v[0] for v in vals])), cost_units=vals[0][1]))
    return options


def test_criterion_08_cost_benefit_flips(fewshot_rows, sparsity_rows):
    t0 = time.perf_counter()
    cells = [(n, k, fewshot_rows) for n in (3, 5, 10) for k in (10, 20, 40)]
    cells.append((20, 20, sparsity_rows))
    betas = np.linspace(0.0, 0.2, 50)
    step = betas[1] - betas[0]
    zero_ok = huge_ok = flip_ok = 0
    for n, k, rows in cells:
        options = _cell_options(rows, n, k)
        at_zero = optimize_sparsity(options, TradeoffConfig(beta=0.0))
        zero_ok += at_zero.rho == max(o.rho for o in options)
        at_huge = optimize_sparsity(options, TradeoffConfig(beta=1e6))
        huge_ok += at_huge.kind is LabelKind.HARD

        soft = next(o for o in options if o.kind is LabelKind.SOFT)
        hard = next(o for o in options if o.kind is LabelKind.HARD)
        beta_star = indifference_beta(soft, hard)
        winners = [optimize_sparsity([soft, hard], TradeoffConfig(beta=b)).kind
                   for b in betas]
        first_hard = winners.index(LabelKind.HARD)
        flip_ok += (winners[0] is LabelKind.SOFT
                    and all(w is LabelKind.HARD for w in winners[first_hard:])
                    and abs(beta_star - betas[first_hard]) <= step + 1e-12)
    elapsed = time.perf_counter() - t0
    ok = zero_ok == huge_ok == flip_ok == len(cells) and elapsed < 60.0
    _verdict(8, "cost-benefit flips", ok,
             f"beta=0 max-rho {zero_ok}/{len(cells)}, beta=1e6 hard "
             f"{huge_ok}/{len(cells)}, analytic flip within one grid step "
             f"{flip_ok}/{len(cells)}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 9. Deterministic replay: worker count never changes emitted bytes.
# ---------------------------------------------------------------------------

def test_criterion_09_deterministic_replay():
    spec = SweepSpec(n_grid=(3, 5), k_grid=(4,), d_grid=(3,),
                     signals=(SignalSpec(LabelKind.HARD),
                              SignalSpec(LabelKind.SOFT),
                              SignalSpec(LabelKind.SPARSE_SOFT, k_hat=2),
                              SignalSpec(LabelKind.PCA_COORDS, k_hat=10)),
                     epsilon_grid=(0.0, 0.2), reps=3, base_seed=5)
    t0 = time.perf_counter()
    rows_serial, _ = run_sweep(spec, workers=1)
    rows_pool, _ = run_sweep(spec, workers=8)
    elapsed = time.perf_counter() - t0
    csv_serial = rows_to_csv(rows_serial, SWEEP_COLUMNS)
    csv_pool = rows_to_csv(rows_pool, SWEEP_COLUMNS)
    identical = csv_serial.encode() == csv_pool.encode()
    row_count = len(rows_serial) == len(list(spec.cells())) == 48
    budget = 2 * _ELAPSED.get("fewshot", 300.0)
    ok = identical and row_count and elapsed < budget
    _verdict(9, "deterministic replay across worker counts", ok,
             f"{len(rows_serial)} rows byte-identical at workers 1 vs 8, "
             f"{elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 10. Randomized property suite (>= 200 cases per invariant).
# ---------------------------------------------------------------------------

def test_criterion_10_property_suite():
    target = Path(__file__).with_name("test_properties.py")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(target), "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True, cwd=str(target.parent.parent))
    elapsed = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    ok = proc.returncode == 0 and elapsed < 300.0
    _verdict(10, "randomized property suite", ok, f"{tail}, {elapsed:.0f}s")
    assert ok, proc.stdout + proc.stderr
