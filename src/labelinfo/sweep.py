"""Deterministic grid-sweep engine: dataset -> labels -> constraints -> solve -> score.

Cells are fully self-contained work items keyed by (n, k, d, signal,
epsilon, rep); every random draw comes from a seed derived by a stable
keyed hash, so results are identical regardless of worker count or
execution order. Wall-clock timings are collected separately from the
result rows to keep the emitted sweep CSV byte-reproducible.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from multiprocessing import get_context

import numpy as np

from . import costbenefit, triplets
from .costbenefit import TradeoffConfig
from .gnmds import SolverConfig, check_count, check_real, solve
from .labels import (CLASS_TRUNCATIONS, PARTIAL_KINDS, LabelKind, LabelSet, hard_labels,
                     pca_encode, smooth_labels, soft_labels, sparsify_labels,
                     topclass_labels, typicality_labels)
from .latentgen import LatentDataset, generate_dataset, similarity_matrix
from .metrics import recovery_score
from .render import rows_to_csv
from .triplets import mine_constraints

CELL_COLUMNS = ("n", "k", "d", "kind", "k_hat", "epsilon", "seed")  # name a cell
SWEEP_COLUMNS = CELL_COLUMNS + (
    "constraint_count", "information_ratio", "rho", "satisfied_fraction", "c_hat",
    "loss", "iterations", "stop_reason", "final_objective", "status")

_SMOOTHING = 0.05
# The beta that prices a row's loss column; `labelinfo tradeoff` prices rows at any beta grid.
_ROW_TRADEOFF = TradeoffConfig(beta=0.1)
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def derive_seed(base_seed: int, **fields) -> int:
    """Stable 64-bit seed from a base seed and named cell coordinates."""
    payload = "|".join(f"{name}={fields[name]!r}" for name in sorted(fields))
    digest = hashlib.blake2b(payload.encode(), digest_size=8,
                             key=int(base_seed).to_bytes(8, "little")).digest()
    return int.from_bytes(digest, "little")


def reject_unknown_keys(data: dict, known, what: str) -> None:
    """A misspelt key would otherwise fall back to its default without a word."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")


def from_config(schema: type, data: dict, what: str):
    """`schema(**data)`, for a config section that names a dataclass's fields."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    reject_unknown_keys(data, {f.name for f in dataclass_fields(schema)}, what)
    return schema(**data)


@dataclass(frozen=True)
class SignalSpec:
    kind: LabelKind
    k_hat: int | None = None

    def __post_init__(self):
        """A k_hat the kind ignores would still name the row and seed its noise."""
        object.__setattr__(self, "kind", LabelKind(self.kind))
        if self.kind in PARTIAL_KINDS:
            check_count(f"signal {self.kind.value} k_hat", self.k_hat, 1)
        elif self.k_hat is not None:
            raise ValueError(f"signal {self.kind.value} takes no k_hat")

    def to_dict(self) -> dict:
        out = {"kind": self.kind.value}
        if self.k_hat is not None:
            out["k_hat"] = self.k_hat
        return out


@dataclass(frozen=True)
class SweepSpec:
    n_grid: tuple = (3, 5, 10, 20, 40)
    k_grid: tuple = (3, 5, 10, 20, 40)
    d_grid: tuple = (5, 25, 125)
    signals: tuple = (SignalSpec(LabelKind.HARD), SignalSpec(LabelKind.SOFT))
    epsilon_grid: tuple = (0.0,)
    reps: int = 3
    sigma: float = 0.5
    base_seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        for name in ("n_grid", "k_grid", "d_grid", "signals", "epsilon_grid"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        for name, low in (("n_grid", 1), ("k_grid", 2), ("d_grid", 1)):
            for value in getattr(self, name):
                check_count(f"{name} value", value, low)
        check_count("reps", self.reps, 1)
        check_count("base_seed", self.base_seed, 0, 2**64 - 1)
        check_real("sigma", self.sigma)
        for eps in self.epsilon_grid:
            check_real("flip rate", eps, "in [0, 1]", lambda e: 0 <= e <= 1)
        object.__setattr__(self, "sigma", float(self.sigma))  # JSON's 1 writes and seeds as 1.0
        object.__setattr__(self, "epsilon_grid", tuple(map(float, self.epsilon_grid)))
        # a signal that some cell cannot build would only fill rows with errors
        k, n = min(self.k_grid), min(self.n_grid)
        for signal in self.signals:
            if signal.kind in CLASS_TRUNCATIONS and signal.k_hat > k:
                raise ValueError(f"signal {signal.kind.value} k_hat {signal.k_hat} exceeds "
                                 f"the smallest k in k_grid, {k}")
            if signal.kind is LabelKind.TOP_CLASS and n < 3:
                raise ValueError(f"signal topclass needs n >= 3, got n_grid value {n}")
        # the largest cell mines the most: PCA answers every query, class labels at most
        # the tie-free count
        n, k = max(self.n_grid), max(self.k_grid)
        for signal in self.signals:
            rows = (triplets.count_queries(n + k) if signal.kind is LabelKind.PCA_COORDS
                    else triplets.count_soft(n, k))
            triplets.check_size(f"cell n={n} k={k} {signal.kind.value}", n + k, rows)

    def cells(self):
        """Deterministic cell order, the last coordinate fastest; one result row per cell."""
        return itertools.product(self.n_grid, self.k_grid, self.d_grid, self.signals,
                                 self.epsilon_grid, range(self.reps))

    def to_dict(self) -> dict:
        out = asdict(self)
        out["signals"] = [s.to_dict() for s in self.signals]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        reject_unknown_keys(data, {f.name for f in dataclass_fields(cls)}, "sweep config")
        kwargs = dict(data)
        if "signals" in data:
            kwargs["signals"] = [from_config(SignalSpec, s, "signal") for s in data["signals"]]
        if "solver" in data:
            kwargs["solver"] = from_config(SolverConfig, data["solver"], "solver config")
        return cls(**kwargs)


def build_labels(dataset: LatentDataset, signal: SignalSpec) -> LabelSet:
    """Materialize one supervision signal for a dataset."""
    kind = signal.kind
    if kind is LabelKind.HARD:
        return hard_labels(dataset)
    if kind is LabelKind.SOFT:
        return soft_labels(dataset)
    if kind is LabelKind.SMOOTHED:
        return smooth_labels(hard_labels(dataset), _SMOOTHING)
    if kind is LabelKind.TYPICALITY:  # each point's soft mass on its hard class
        hard = hard_labels(dataset)
        mass = soft_labels(dataset).values[np.arange(dataset.n), np.argmax(hard.values, axis=1)]
        return typicality_labels(hard, mass)
    if kind is LabelKind.SPARSE_SOFT:
        return sparsify_labels(soft_labels(dataset), signal.k_hat)
    if kind is LabelKind.TOP_CLASS:
        reference = similarity_matrix(dataset.points)
        return topclass_labels(soft_labels(dataset), signal.k_hat, reference)
    if kind is LabelKind.PCA_COORDS:
        return pca_encode(dataset, min(signal.k_hat, dataset.d, dataset.n + dataset.k))
    raise ValueError(f"no label builder for kind {kind!r}")


def evaluate_cell(spec: SweepSpec, cell, table: dict | None = None) -> tuple[dict, float]:
    """Run one (n, k, d, signal, epsilon, rep) cell.

    Returns the result row and the cell wall time. A domain error (a bad
    value, an index out of range, a failed decomposition) is recorded in the
    row's status field so a sweep survives individual bad cells; any other
    exception is a bug and propagates. `table` is passed on to `solve`.
    """
    n, k, d, signal, eps, rep = cell
    ds_seed = derive_seed(spec.base_seed, n=n, k=k, d=d, rep=rep)
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row.update({"n": n, "k": k, "d": d, "kind": signal.kind.value,
                "k_hat": "" if signal.k_hat is None else signal.k_hat,
                "epsilon": eps, "seed": ds_seed, "status": "ok"})
    start = time.perf_counter()
    try:
        dataset = generate_dataset(n=n, k=k, d=d, sigma=spec.sigma, seed=ds_seed)
        labels = build_labels(dataset, signal)
        k_hat_eff = labels.k_hat
        if k_hat_eff is not None:
            row["k_hat"] = k_hat_eff
        constraints = mine_constraints(labels, dataset.n)
        if eps > 0:
            noise_seed = derive_seed(spec.base_seed, n=n, k=k, d=d, rep=rep,
                                     kind=signal.kind.value,
                                     k_hat=k_hat_eff, epsilon=eps, stage="noise")
            constraints = triplets.apply_noise(constraints, eps, noise_seed)
        gram = solve(constraints, spec.solver, table)
        truth = similarity_matrix(dataset.all_items())
        rho = recovery_score(gram, truth)
        option = costbenefit.signal_option(signal.kind, n, k, k_hat_eff, rho)
        row.update({
            "constraint_count": len(constraints),
            "information_ratio": triplets.information_ratio(len(constraints), n, k),
            "rho": rho,
            "satisfied_fraction": gram.diagnostics["satisfied_fraction"],
            "c_hat": option.cost_units,
            "loss": costbenefit.loss(option, _ROW_TRADEOFF),
            "iterations": gram.diagnostics["iterations"],
            "stop_reason": gram.diagnostics["stop_reason"],
            "final_objective": gram.diagnostics["final_objective"],
        })
    except (ValueError, IndexError, np.linalg.LinAlgError) as exc:
        message = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
        row["status"] = f"error: {message}"
    return row, time.perf_counter() - start


# A pool worker's solve table; `_init_worker` sets it, so it lives as long
# as the worker's pool, and the parent process never has one.
_worker_table: dict | None = None


def _init_worker():
    global _worker_table
    _worker_table = {}


def _worker(args):
    spec, cell = args
    return evaluate_cell(spec, cell, _worker_table)


@contextmanager
def _single_threaded_blas():
    """Pin BLAS to one thread in processes spawned inside the block.

    Each pool worker runs one cell at a time, so BLAS threads of their own
    only oversubscribe the cores. A spawned worker imports numpy before any
    pool initializer runs, so the variables must be in the parent's
    environment at spawn time. Variables the user has set are left alone.
    """
    added = [name for name in _BLAS_THREAD_VARS if name not in os.environ]
    os.environ.update(dict.fromkeys(added, "1"))
    try:
        yield
    finally:
        for name in added:
            os.environ.pop(name, None)


def run_sweep(spec: SweepSpec, workers: int = 1):
    """All cells in deterministic order. Returns (rows, wall_times).

    Each distinct constraint set is solved once per call (per pool worker
    when `workers` > 1); a later cell that mines the same set reuses that
    Gram matrix and scores it against its own dataset.
    """
    check_count("workers", workers, 1)
    cells = list(spec.cells())
    processes = min(workers, len(cells))
    if processes == 1:
        table: dict = {}
        results = [evaluate_cell(spec, cell, table) for cell in cells]
    else:
        jobs = [(spec, cell) for cell in cells]
        with _single_threaded_blas(), get_context("spawn").Pool(
                processes=processes, initializer=_init_worker) as pool:
            results = pool.map(_worker, jobs)  # map preserves submission order
    rows = [row for row, _ in results]
    times = [t for _, t in results]
    return rows, times


def timings_to_csv(rows, times) -> str:
    return rows_to_csv([{**row, "wall_time": t} for row, t in zip(rows, times)],
                       CELL_COLUMNS + ("wall_time",))
