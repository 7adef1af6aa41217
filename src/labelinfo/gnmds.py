"""Gram-matrix embedding from triplet constraints (generalized non-metric MDS).

Fits a positive-semidefinite Gram matrix K over all items so that as many
constraints (a, near, far) as possible hold under the induced squared
distances D2(i, j) = K_ii + K_jj - 2 K_ij, by minimizing

    sum_t max(0, margin + D2(a_t, near_t) - D2(a_t, far_t)) + lam * trace(K)

with projected subgradient descent: gradient step, projection onto the PSD
cone, then double-centering (squared distances are centering-invariant, so
this only removes the translation gauge and can only shrink the trace term).
The best iterate seen is returned, so the reported final objective never
exceeds the initial one; diagnostics["stop_reason"] says which rule ended the
run ("tolerance" or "max_iterations").

A run stops on "tolerance" when the best objective has fallen by less than
`tolerance` (relative) over the last `_WINDOW` iterations, as it does in a
stall. The default of 1e-4 is set by recovery, which settles long before the
objective stops falling. Under 1e-6, 31 of the 470 solves in the battery's
few-shot and sparsity sweeps, and 64 of the 288 in its effective-dimension
check, ran to the 2,000-iteration cap, so their rho depended on the cap.
Under 1e-4 every one of them stops on the tolerance rule, after 56% as many
iterations in total, and no sweep row's rho moves by more than 0.0064.

Each iteration makes one O(T) hinge pass, which gathers two entries per
triplet from the m x m matrix D2, and one O(T) integer scatter
(`_hinge_subgradient`). The candidate's hinge terms give both its objective
and the next iteration's active set.
"""
from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .triplets import ConstraintSet

# Convergence is declared when the best objective improves by less than
# tolerance (relative) over this many consecutive iterations. At the default
# tolerance of 1e-4 a solve stops once its best objective falls by under
# 0.01% per 10 iterations; why 1e-4 is in the module docstring.
_WINDOW = 10
# Step growth on a non-increasing move. The subgradient iterate must keep
# moving through kinks of the hinge (strict descent stalls far from the
# optimum), so steps are always taken: the step starts at 1 / |constraints|,
# halves on an increase and grows on a success; the best iterate is returned.
_GROW = 1.2


def check_count(name: str, value, low: int, high: int | None = None) -> None:
    """Reject a count that is not an integer (a bool included) or lies outside [low, high].

    A float count would otherwise fail deep inside a run, as a TypeError traceback.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def check_real(name: str, value, bounds: str = "> 0", holds=lambda v: v > 0) -> None:
    """Reject a value that is not a finite real number (a bool included) or fails `holds`.

    A JSON `true` would otherwise pass every range test as the number 1, and
    Python's json reads `Infinity`, which passes every lower bound.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or not holds(value)):
        raise ValueError(f"{name} must be a number {bounds}, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    margin: float = 1.0
    lam: float = 0.05
    max_iterations: int = 2000
    tolerance: float = 1e-4

    def __post_init__(self):
        for name in ("margin", "lam", "tolerance"):
            check_real(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))  # so JSON's 1 writes as 1.0
        check_count("max_iterations", self.max_iterations, 1)


@dataclass(frozen=True)
class GramMatrix:
    entries: np.ndarray
    diagnostics: dict


def project_psd(matrix: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clip negative eigenvalues at zero."""
    matrix = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains non-finite entries")
    sym = 0.5 * (matrix + matrix.T)
    try:
        eigvals, eigvecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError:
        # For symmetric S the projection is (S + |S|) / 2, and the SVD
        # S = U diag(s) Vt gives |S| = Vt.T diag(s) Vt through another
        # LAPACK driver, which converges where eigh's did not.
        _, singular, vt = np.linalg.svd(sym)
        clipped = 0.5 * (sym + (vt.T * singular) @ vt)
    else:
        clipped = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T
    return 0.5 * (clipped + clipped.T)


def _double_center(matrix: np.ndarray) -> np.ndarray:
    row = matrix.mean(axis=1, keepdims=True)
    col = matrix.mean(axis=0, keepdims=True)
    return matrix - row - col + matrix.mean()


def _hinge_subgradient(flat_near: np.ndarray, flat_far: np.ndarray, m: int) -> np.ndarray:
    """Sum of the hinge subgradients of triplets at flat (a, near), (a, far) indices.

    W[a, j] counts far item j minus near item j at anchor a; integer sums are exact."""
    weights = (np.bincount(flat_far, minlength=m * m)
               - np.bincount(flat_near, minlength=m * m)).reshape(m, m)
    return weights + weights.T - np.diag(weights.sum(axis=0))


def solve(constraints: ConstraintSet, config: SolverConfig = SolverConfig(),
          table: dict | None = None) -> GramMatrix:
    """Fit a Gram matrix to the constraint set by projected subgradient descent.

    With a `table`, a set already solved under the same config is looked up
    by its content rather than solved again; every call returns its own copy.
    """
    if table is None:
        return _solve(constraints, config)
    key = (constraints.m, config,
           hashlib.blake2b(constraints.triplets.tobytes()).digest())
    if key not in table:
        table[key] = _solve(constraints, config)
    stored = table[key]
    return GramMatrix(entries=stored.entries.copy(), diagnostics=dict(stored.diagnostics))


def _solve(constraints: ConstraintSet, config: SolverConfig) -> GramMatrix:
    triplets = constraints.triplets
    n_constraints = triplets.shape[0]
    if n_constraints == 0:
        raise ValueError("cannot solve an empty constraint set")
    m = constraints.m
    if triplets.min() < 0 or triplets.max() >= m:
        raise IndexError(f"constraint indices must lie in [0, {m})")

    # intp indices: take gathers several times faster with them than with int16 or int32
    anchor_row = triplets[:, 0].astype(np.intp) * m
    flat_near = anchor_row + triplets[:, 1]
    flat_far = anchor_row + triplets[:, 2]
    margin, lam = config.margin, config.lam
    ridge = lam * np.eye(m)

    def evaluate(k: np.ndarray) -> tuple[np.ndarray, float]:
        """Hinge terms and objective; ndarray.take is the fastest 1-D gather."""
        diag = np.einsum("ii->i", k)
        d2 = (diag[:, None] + diag[None, :] - 2.0 * k).ravel()
        hinges = margin + d2.take(flat_near) - d2.take(flat_far)
        return hinges, float(np.maximum(hinges, 0.0).sum() + lam * np.trace(k))

    gram = np.zeros((m, m))
    hinges, obj = evaluate(gram)
    best_gram, best_obj, best_hinges = gram, obj, hinges
    eta = 1.0 / n_constraints
    history = [best_obj]
    stop_reason = "max_iterations"

    for iterations in range(1, config.max_iterations + 1):
        active = np.flatnonzero(hinges > 0.0)
        grad = _hinge_subgradient(flat_near.take(active), flat_far.take(active), m) + ridge
        candidate = _double_center(project_psd(gram - eta * grad))
        hinges, candidate_obj = evaluate(candidate)
        eta = eta * 0.5 if candidate_obj > obj else eta * _GROW
        gram, obj = candidate, candidate_obj
        if obj < best_obj:
            best_gram, best_obj, best_hinges = gram, obj, hinges
        history.append(best_obj)
        if (len(history) > _WINDOW
                and history[-1 - _WINDOW] - history[-1]
                <= config.tolerance * max(1.0, abs(history[-1]))):
            stop_reason = "tolerance"
            break

    diagnostics = {
        "initial_objective": history[0],
        "final_objective": best_obj,
        "iterations": iterations,
        "satisfied_fraction": float(np.mean(best_hinges - margin < 0.0)),
        "stop_reason": stop_reason,
    }
    return GramMatrix(entries=best_gram, diagnostics=diagnostics)


def extract_embedding(gram: GramMatrix, h: int) -> np.ndarray:
    """Coordinates from the top-h eigenpairs: row i is (sqrt(l_j) v_j[i])_j."""
    m = gram.entries.shape[0]
    if not 1 <= h <= m:
        raise ValueError(f"embedding rank must lie in [1, {m}], got {h}")
    eigvals, eigvecs = np.linalg.eigh(gram.entries)
    top = np.argsort(eigvals)[::-1][:h]
    scale = np.sqrt(np.maximum(eigvals[top], 0.0))
    return eigvecs[:, top] * scale

