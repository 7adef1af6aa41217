"""The benchmark's workloads: inputs made from a seed, one round of work,
and the checks on what a round produced.

A run makes rounds 0, 1, 2, ... of a workload. Every round does the same
operations on datasets of its own, drawn from the workload's base seed
`battery seed + ROUND_STRIDE * seed + round`. So `--seed 0` starts with the
acceptance battery's own datasets, the same seed always gives the same
inputs, and a run averages over many datasets: solve times depend on the
data, and one dataset per cell would make the figures follow the seed.

`fewshot` and `sparsity` drive the `labelinfo` command line in-process, as
a user's run would, and read back the files it writes. `mining` calls the
label builders and miners directly, because no command runs them without a
solve.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np

import checks

SIGMA = 0.5
D = 5
ROUND_STRIDE = 1_000_000


@dataclasses.dataclass
class Output:
    """What one round produced. `text` is the round's main CSV (sweep rows);
    mining leaves it empty and fills `results` instead."""
    round: int
    elapsed: float
    ops: int
    failed: int
    text: str = ""
    tradeoff: str = ""
    cell_times: list = dataclasses.field(default_factory=list)
    results: list = dataclasses.field(default_factory=list)
    errors: list = dataclasses.field(default_factory=list)

    def digest(self) -> str:
        """Hash of every output byte that must replay exactly."""
        h = hashlib.blake2b(digest_size=16)
        h.update(self.text.encode())
        h.update(self.tradeoff.encode())
        for op in self.results:
            h.update(op["triplets"].tobytes())
            for _, noisy in op["noisy"]:
                h.update(noisy.tobytes())
        return h.hexdigest()


def check_replay(reference: Output, others: dict) -> list[str]:
    """Every named digest equals the reference output's digest."""
    want = reference.digest()
    return [f"{name} outputs differ from the traced outputs"
            for name, digest in others.items() if digest != want]


def _timings(path: Path) -> list:
    lines = path.read_text().splitlines()[1:]
    return [float(line.rsplit(",", 1)[1]) for line in lines if line]


def _run_cli(argv) -> int:
    from labelinfo import cli  # looked up per call, so a traced round sees the wrapper
    rc = cli.main(argv)
    if rc not in (0, 1):
        raise RuntimeError(f"labelinfo {argv[0]} exited with {rc}")
    return rc


class _Workload:
    battery_seed: int
    pool_workers = None  # workers of the extra pool round a traced run makes

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.quick = quick
        self.workdir = workdir

    def base_seed(self, round_index: int) -> int:
        return (self.battery_seed + ROUND_STRIDE * self.seed + round_index) % 2**63


class _SweepWorkload(_Workload):
    """A workload that writes sweep rows through the command line."""

    def _output(self, round_index: int, elapsed: float, out: Path,
                csv_name: str) -> Output:
        text = (out / csv_name).read_text()
        rows = checks.read_rows(text)
        tradeoff = out / "tradeoff.csv"
        return Output(round=round_index, elapsed=elapsed, ops=len(rows),
                      failed=sum(r["status"] != "ok" for r in rows), text=text,
                      tradeoff=tradeoff.read_text() if tradeoff.exists() else "",
                      cell_times=_timings(out / "timings.csv"))

    def rhos(self, output: Output) -> list[float]:
        return [float(r["rho"]) for r in checks.read_rows(output.text)
                if r["status"] == "ok"]

    def check_traced(self, output: Output, solves: list) -> list[str]:
        """Each traced solve's Gram matrix against its row's rho.

        Rows are in cell order and the tracer numbers cells from 1.
        """
        by_cell = {solve["cell"]: solve for solve in solves}
        errors = []
        for i, row in enumerate(checks.read_rows(output.text)):
            if row["status"] != "ok":
                continue
            if i + 1 not in by_cell:
                errors.append(f"row {i}: no traced solve")
                continue
            items = checks.latent_items(int(row["n"]), int(row["k"]), int(row["d"]),
                                        SIGMA, int(row["seed"]))
            errors += checks.check_gram(f"row {i}", by_cell[i + 1]["gram"], items,
                                        float(row["rho"]))
        return errors


class FewShot(_SweepWorkload):
    """Battery check 4's few-shot grid through `labelinfo simulate`, one
    worker; one dataset per cell in each round."""
    name = "fewshot"
    battery_seed = 7

    def __init__(self, seed: int, quick: bool, workdir: Path):
        super().__init__(seed, quick, workdir)
        self.n_grid = (3,) if quick else (3, 5, 10)
        self.k_grid = (6, 10) if quick else (10, 20, 40)
        self.min_rounds = 1 if quick else 6

    def run(self, round_index: int, tag: str = "rounds", workers: int = 1,
            tracer=None) -> Output:
        out = self.workdir / tag
        config = self.workdir / f"fewshot-{round_index}.json"
        config.write_text(json.dumps({
            "n_grid": list(self.n_grid), "k_grid": list(self.k_grid), "d_grid": [D],
            "signals": [{"kind": "hard"}, {"kind": "soft"}], "reps": 1,
            "sigma": SIGMA, "base_seed": self.base_seed(round_index)}))
        start = time.perf_counter()
        _run_cli(["simulate", "--config", str(config), "--out", str(out),
                  "--workers", str(workers)])
        return self._output(round_index, time.perf_counter() - start, out, "sweep.csv")

    def expected_rows(self, round_index: int) -> list[dict]:
        rows = []
        for n in self.n_grid:
            for k in self.k_grid:
                seed = checks.cell_seed(self.base_seed(round_index), n=n, k=k, d=D, rep=0)
                for kind in ("hard", "soft"):
                    rows.append({"n": n, "k": k, "d": D, "kind": kind, "k_hat": "",
                                 "epsilon": 0.0, "seed": seed})
        return rows

    def check(self, output: Output) -> list[str]:
        return (checks.check_sweep_rows(output.text, self.expected_rows(output.round),
                                        SIGMA)
                + checks.check_soft_gap(output.text))


class Sparsity(_SweepWorkload):
    """Battery check 6's sparsity study: `labelinfo sparsity`, then
    `labelinfo tradeoff` on its rows; one dataset in each round.

    Timed rounds run one worker. A traced run adds a round on two workers,
    the only use of the sweep's process pool in the benchmark; its wall time
    is not an end-to-end figure because, with BLAS threads oversubscribed,
    it varied from 21 s to 65 s between runs on a 2-core machine.
    """
    name = "sparsity"
    battery_seed = 23
    pool_workers = 2

    def __init__(self, seed: int, quick: bool, workdir: Path):
        super().__init__(seed, quick, workdir)
        self.n = self.k = 6 if quick else 20
        self.k_hats = (2, 3) if quick else (2, 5, 10)
        self.min_rounds = 1 if quick else 2

    def run(self, round_index: int, tag: str = "rounds", workers: int = 1,
            tracer=None) -> Output:
        out = self.workdir / tag
        config = self.workdir / f"sparsity-{round_index}.json"
        spec = {"n": self.n, "k": self.k, "d": D, "k_hat_grid": list(self.k_hats),
                "reps": 1, "sigma": SIGMA, "base_seed": self.base_seed(round_index)}
        if self.quick:
            spec["solver"] = {"max_iterations": 300}
        config.write_text(json.dumps(spec))
        tradeoff_config = self.workdir / f"tradeoff-{tag}.json"
        tradeoff_config.write_text(json.dumps({
            "sweep_csv": str(out / "sparsity.csv"), "n": self.n, "k": self.k, "d": D}))
        start = time.perf_counter()
        _run_cli(["sparsity", "--config", str(config), "--out", str(out),
                  "--workers", str(workers)])
        _run_cli(["tradeoff", "--config", str(tradeoff_config), "--out", str(out)])
        return self._output(round_index, time.perf_counter() - start, out,
                            "sparsity.csv")

    def expected_rows(self, round_index: int) -> list[dict]:
        seed = checks.cell_seed(self.base_seed(round_index), n=self.n, k=self.k,
                                d=D, rep=0)
        signals = [("hard", ""), ("soft", "")]
        for kind in ("sparse", "topclass", "pca"):
            for k_hat in self.k_hats:
                recorded = min(k_hat, D, self.n + self.k) if kind == "pca" else k_hat
                signals.append((kind, recorded))
        return [{"n": self.n, "k": self.k, "d": D, "kind": kind, "k_hat": k_hat,
                 "epsilon": 0.0, "seed": seed} for kind, k_hat in signals]

    def check(self, output: Output) -> list[str]:
        return (checks.check_sweep_rows(output.text, self.expected_rows(output.round),
                                        SIGMA)
                + checks.check_tradeoff(output.tradeoff))


class Mining(_Workload):
    """Every label kind `sweep.build_labels` supports, mined by
    `sweep.mine_constraints`, then flipped by `triplets.apply_noise`; no solve.

    An operation is one (dataset, signal) pass. Each dataset is one cell of
    the trace.
    """
    name = "mining"
    battery_seed = 41
    rates = (0.05, 0.2, 0.5)
    # Datasets with at most this many items are also mined by nested loops.
    brute_force_items = 10

    def __init__(self, seed: int, quick: bool, workdir: Path):
        super().__init__(seed, quick, workdir)
        from labelinfo.labels import LabelKind
        from labelinfo.sweep import SignalSpec
        self.grid = (3, 5, 10) if quick else (3, 5, 10, 20, 40)
        self.min_rounds = 1 if quick else 10
        self.signals = (SignalSpec(LabelKind.HARD), SignalSpec(LabelKind.SOFT),
                        SignalSpec(LabelKind.SMOOTHED), SignalSpec(LabelKind.TYPICALITY),
                        SignalSpec(LabelKind.SPARSE_SOFT, k_hat=2),
                        SignalSpec(LabelKind.TOP_CLASS, k_hat=2),
                        SignalSpec(LabelKind.PCA_COORDS, k_hat=2))

    def run(self, round_index: int, tag: str = "rounds", workers: int = 1,
            tracer=None) -> Output:
        from labelinfo import latentgen, sweep, triplets
        base = self.base_seed(round_index)
        jobs = []
        for n in self.grid:
            for k in self.grid:
                ds_seed = checks.cell_seed(base, n=n, k=k, d=D)
                jobs.append((n, k, ds_seed, [
                    (signal, [(rate, checks.cell_seed(base, seed=ds_seed,
                                                      kind=signal.kind.value, rate=rate))
                              for rate in self.rates])
                    for signal in self.signals]))
        results, errors = [], []
        start = time.perf_counter()
        for n, k, ds_seed, signals in jobs:
            with (tracer.span("bench.dataset", new_cell=True) if tracer
                  else contextlib.nullcontext()):
                dataset = latentgen.generate_dataset(n=n, k=k, d=D, sigma=SIGMA,
                                                     seed=ds_seed)
                for signal, noise_seeds in signals:
                    try:
                        labels = sweep.build_labels(dataset, signal)
                        mined = sweep.mine_constraints(labels, dataset.n)
                        noisy = [(rate, triplets.apply_noise(mined, rate, seed).triplets)
                                 for rate, seed in noise_seeds]
                    except Exception as exc:  # a failed operation is counted, not fatal
                        errors.append(f"n={n} k={k} {signal.kind.value}: "
                                      f"{type(exc).__name__}: {exc}")
                        continue
                    results.append({"n": n, "k": k, "seed": ds_seed,
                                    "kind": signal.kind.value, "k_hat": labels.k_hat,
                                    "values": labels.values, "triplets": mined.triplets,
                                    "noisy": noisy})
        elapsed = time.perf_counter() - start
        return Output(round=round_index, elapsed=elapsed,
                      ops=len(jobs) * len(self.signals), failed=len(errors),
                      results=results, errors=errors)

    def _items(self, op) -> np.ndarray:
        return checks.latent_items(op["n"], op["k"], D, SIGMA, op["seed"])

    def rhos(self, output: Output) -> list[float]:
        """Rank agreement (2p - 1) of each mined set with the latent distances."""
        return [checks.agreement(self._items(op), op["triplets"])
                for op in output.results]

    def check(self, output: Output) -> list[str]:
        errors = []
        hard_sets = {}
        for op in output.results:
            n, k, kind = op["n"], op["k"], op["kind"]
            label = f"round {output.round} n={n} k={k} {kind}"
            items = self._items(op)
            t = op["triplets"]
            errors += checks.check_constraint_array(label, t, n + k)
            want = {"hard": lambda: checks.hard_count(items, n),
                    "soft": lambda: checks.soft_count(items, n),
                    "pca": lambda: checks.pca_count(items, op["k_hat"])}.get(kind)
            want = want() if want else None
            if want is not None and len(t) != want:
                errors.append(f"{label}: {len(t)} triplets, closed form gives {want}")
            if kind == "hard":
                hard_sets[op["seed"]] = t
            if kind == "smoothed" and not np.array_equal(t, hard_sets.get(op["seed"])):
                errors.append(f"{label}: smoothed and hard labels mine different sets")
            if n + k <= self.brute_force_items:
                if kind == "pca":
                    found, tied = checks.enumerate_from_coordinates(op["values"])
                    errors += checks.check_enumeration(label, t, found, tied)
                else:
                    errors += checks.check_enumeration(
                        label, t, checks.enumerate_from_labels(op["values"]))
            for rate, noisy in op["noisy"]:
                errors += checks.check_noise(f"{label} rate={rate}", t, noisy, rate)
        return errors

    def check_traced(self, output: Output, solves: list) -> list[str]:
        return [f"mining made {len(solves)} solves"] if solves else []


WORKLOADS = {w.name: w for w in (FewShot, Sparsity, Mining)}
