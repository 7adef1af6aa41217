"""Command-line harness: seeded sweeps, closed-form analysis, embedding,
cost-benefit tables, and sparsity curves, all emitted as CSV/JSON/SVG.

Each command returns its files (name -> text), the spec its manifest echoes
(None for no manifest: `defaults`, a failed `embed`) and its exit status;
`main` alone writes them.

Exit codes: 0 success, 1 any cell failure (per-cell status still written),
2 usage/config error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, costbenefit, render, sweep, triplets
from .costbenefit import TradeoffConfig, UtilityKind
from .gnmds import SolverConfig, extract_embedding, solve
from .labels import CLASS_TRUNCATIONS, PARTIAL_KINDS, LabelKind
from .validate import check_count


class UsageError(Exception):
    pass


def _load_config(path: str | None, what: str, known, required=()) -> dict:
    """The JSON object at `path` ({} without one); an unknown or missing key is a usage error."""
    data = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError("config must be a JSON object")
    try:
        sweep.reject_unknown_keys(data, known, what)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    missing = [key for key in required if key not in data]
    if missing:
        raise UsageError(f"{what} needs '{missing[0]}'")
    return data


def _sweep_spec(path: str | None, what: str, known, to_sweep_config=dict) -> sweep.SweepSpec:
    """The config at `path`, turned into a sweep config."""
    config = _load_config(path, what, known)
    try:
        return sweep.SweepSpec.from_dict(to_sweep_config(config))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


# each worker is a spawned interpreter that imports numpy, about 40 MB, so 32 is about 1.3 GB;
# the cap is fixed, not the CPU count, so one config is valid on every machine
MAX_WORKERS = 32


def _run_sweep_command(args, command: str, spec: sweep.SweepSpec, rows_csv: str, plots):
    """Run the sweep; its files are the rows, timings.csv and `plots(rows)`."""
    if not 1 <= args.workers <= MAX_WORKERS:
        bound = ">= 1" if args.workers < 1 else f"<= {MAX_WORKERS}"
        raise UsageError(f"--workers must be {bound}, got {args.workers}")
    rows, times = sweep.run_sweep(spec, workers=args.workers)
    failed = [row for row in rows if row["status"] != "ok"]
    if failed:
        first = ", ".join(f"{c}={failed[0][c]}" for c in sweep.CELL_COLUMNS + ("status",))
        print(f"{command}: {len(failed)}/{len(rows)} cells failed; first: {first}",
              file=sys.stderr)
    files = {rows_csv: render.rows_to_csv(rows, sweep.SWEEP_COLUMNS),
             "timings.csv": sweep.timings_to_csv(rows, times), **plots(rows)}
    return files, spec.to_dict(), 1 if failed else 0


def _rho_heatmap(rows) -> dict:
    try:
        svg, pivot_csv = render.render_heatmap(rows, "rho")
    except ValueError:
        return {}  # every cell failed; sweep.csv still carries the statuses
    return {"heatmap_rho_kind.svg": svg, "heatmap_rho_kind.csv": pivot_csv}


def simulate_spec(path: str | None) -> sweep.SweepSpec:
    """The sweep `labelinfo simulate --config path` runs."""
    known = [f.name for f in dataclasses.fields(sweep.SweepSpec)]
    return _sweep_spec(path, "sweep config", known)


def cmd_simulate(args):
    return _run_sweep_command(args, "simulate", simulate_spec(args.config), "sweep.csv",
                              _rho_heatmap)


def cmd_analyze(args):
    config = _load_config(args.config, "analyze config", ("n_grid", "k_grid"))
    try:
        n_grid = tuple(config.get("n_grid", sweep.SweepSpec().n_grid))
        k_grid = tuple(config.get("k_grid", sweep.SweepSpec().k_grid))
        if not n_grid or not k_grid:
            raise ValueError("n_grid and k_grid must be non-empty")
        for value in n_grid + k_grid:
            check_count("analyze grid value", value, 1)
        rows = []
        for n in n_grid:
            for k in k_grid:
                counts = {"hard": triplets.count_hard(n, k),
                          "soft": triplets.count_soft(n, k)}
                for kind, count in counts.items():
                    rows.append({"n": n, "k": k, "kind": kind,
                                 "information_ratio":
                                     triplets.information_ratio(count, n, k)})
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad analyze config: {exc}") from exc
    svg, pivot_csv = render.render_heatmap(rows, "information_ratio")
    return ({"analysis.csv": render.rows_to_csv(rows, ("n", "k", "kind", "information_ratio")),
             "heatmap_information_ratio_kind.svg": svg,
             "heatmap_information_ratio_kind.csv": pivot_csv},
            {"n_grid": list(n_grid), "k_grid": list(k_grid)}, 0)


def cmd_embed(args):
    config = _load_config(args.config, "embed config",
                          ("constraints_csv", "solver", "embedding_rank"), ("constraints_csv",))
    try:
        constraints = triplets.constraints_from_csv(
            Path(args.config).parent.joinpath(config["constraints_csv"]).read_text())
    except (OSError, TypeError) as exc:
        raise UsageError(f"cannot read constraints: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"bad constraints CSV: {exc}") from exc
    rank = config.get("embedding_rank")
    try:
        solver = sweep.from_config(SolverConfig, config.get("solver", {}), "solver config")
        if rank is not None:
            check_count("embedding_rank", rank, 1, constraints.m)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad embed config: {exc}") from exc
    try:
        gram = solve(constraints, solver)
    except (ValueError, IndexError) as exc:
        print(f"embed: solve failed: {exc}", file=sys.stderr)
        return {}, None, 1
    files = {"gram.csv": render.matrix_to_csv(gram.entries),
             "diagnostics.json": json.dumps(gram.diagnostics, indent=2) + "\n"}
    if rank is not None:
        files["embedding.csv"] = render.matrix_to_csv(extract_embedding(gram, rank))
    return files, config, 0


def _options_from_sweep_rows(rows, n: int, k: int, d: int):
    """One SignalOption per (kind, k_hat): mean rho over the cell's noiseless rows."""
    cell = [row for row in rows if (int(row["n"]), int(row["k"]), int(row["d"]),
                                    float(row["epsilon"])) == (n, k, d, 0.0)]
    means = render.mean_by(cell, lambda row: (row["kind"], int(row["k_hat"] or 0)), "rho")
    return [costbenefit.signal_option(LabelKind(kind), n, k, k_hat or None,
                                      float(np.clip(mean_rho, -1.0, 1.0)))
            for (kind, k_hat), (mean_rho, _) in means.items()]


def cmd_tradeoff(args):
    required = ("sweep_csv", "n", "k", "d")
    config = _load_config(args.config, "tradeoff config",
                          required + ("beta_grid", "utility_kind"), required)
    try:
        with Path(args.config).parent.joinpath(config["sweep_csv"]).open(newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, TypeError) as exc:
        raise UsageError(f"cannot read sweep CSV: {exc}") from exc
    try:
        for key in ("n", "k", "d"):
            check_count(f"tradeoff {key}", config[key], 1)
        n, k, d = config["n"], config["k"], config["d"]
        utility_kind = UtilityKind(config.get("utility_kind", "linear"))
        configs = [TradeoffConfig(beta=b, utility_kind=utility_kind)
                   for b in config.get("beta_grid", np.linspace(0.0, 0.5, 50))]
        beta_grid = [c.beta for c in configs]
        if not beta_grid:
            raise ValueError("beta_grid must be non-empty")
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad tradeoff config: {exc}") from exc
    try:
        options = _options_from_sweep_rows(rows, n, k, d)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad sweep CSV: {type(exc).__name__}: {exc}") from exc
    if not any(o.kind in CLASS_TRUNCATIONS for o in options):
        raise UsageError("sweep has no sparse/top-class rows for this cell; "
                         "run a sparsity sweep first")
    table_rows = []
    panels = []
    panel_betas = {beta_grid[round(i * (len(beta_grid) - 1) / 3)]
                   for i in range(4)} if len(beta_grid) > 4 else set(beta_grid)
    for cfg in configs:
        table = costbenefit.tradeoff_table(options, cfg)
        table_rows.extend(table)
        if cfg.beta in panel_betas:
            best = next(r for r in table if r["preferred"])
            panels.append((f"n={n} k={k} beta={cfg.beta:.4g}",
                           {(r["kind"], r["k_hat"]): r["loss"] for r in table},
                           (best["k_hat"], best["loss"], best["kind"])))
    return ({"tradeoff.csv": costbenefit.tradeoff_to_csv(table_rows),
             "tradeoff.svg": render.render_curve_panels(panels, ylabel="loss")},
            {**config, "beta_grid": beta_grid}, 0)


_SPARSITY_KEYS = ("n", "k", "d", "k_hat_grid", "reps", "sigma", "base_seed", "solver")


def _sparsity_sweep_config(config: dict) -> dict:
    """A sparsity config as the sweep config of its one (n, k, d) cell: hard and
    soft labels, then each partial kind at every k_hat of the grid."""
    n, k, d = config.get("n", 20), config.get("k", 20), config.get("d", 5)
    if "k_hat_grid" in config:
        k_hat_grid = sorted(set(config["k_hat_grid"]))
    else:
        k_hat_grid = [v for v in (1, 2, 3, 5, 10) if v <= k]
    if not k_hat_grid:
        raise ValueError(f"k_hat_grid has no values in [1, {k}]")
    signals = [{"kind": "hard"}, {"kind": "soft"}] + [
        {"kind": kind.value, "k_hat": k_hat} for kind in PARTIAL_KINDS for k_hat in k_hat_grid]
    rest = {key: config[key] for key in ("reps", "sigma", "base_seed", "solver")
            if key in config}
    return {"n_grid": [n], "k_grid": [k], "d_grid": [d], "signals": signals, **rest}


def _rho_curves(rows) -> dict:
    means = render.mean_by(rows, lambda row: (row["kind"], row["k_hat"]), "rho")
    n, k, d = (rows[0][c] for c in ("n", "k", "d"))
    panel = (f"n={n} k={k} d={d}", {key: mean for key, (mean, _) in means.items()}, None)
    try:
        return {"sparsity.svg": render.render_curve_panels([panel], ylabel="rho")}
    except ValueError:
        return {}  # no partial signal has an ok row to draw


def sparsity_spec(path: str | None) -> sweep.SweepSpec:
    """The sweep `labelinfo sparsity --config path` runs."""
    return _sweep_spec(path, "sparsity config", _SPARSITY_KEYS, _sparsity_sweep_config)


def cmd_sparsity(args):
    return _run_sweep_command(args, "sparsity", sparsity_spec(args.config), "sparsity.csv",
                              _rho_curves)


def cmd_defaults(args):
    text = json.dumps(sweep.SweepSpec().to_dict(), indent=2)
    print(text)
    return ({} if args.out is None else {"defaults.json": text + "\n"}), None, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelinfo",
        description="Simulate how informative hard/soft/sparse labels are "
                    "for recovering latent representations.")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "simulate": (cmd_simulate, "run a full sweep (datasets -> labels -> "
                                   "constraints -> embedding -> scores)"),
        "analyze": (cmd_analyze, "closed-form information-ratio heatmaps, no solver"),
        "embed": (cmd_embed, "solve one constraint CSV into a Gram matrix"),
        "tradeoff": (cmd_tradeoff, "cost-benefit tables/curves from a sweep CSV"),
        "sparsity": (cmd_sparsity, "recovery-vs-k_hat curves for partial signals"),
        "defaults": (cmd_defaults, "print the default sweep configuration"),
    }
    for name, (func, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        if name != "defaults":
            p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory (default: .)")
        if name in ("simulate", "sparsity"):
            p.add_argument("--workers", type=int, default=1)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run the command, then write its files and run_manifest.json into --out."""
    args = build_parser().parse_args(argv)
    out = Path(args.out or ".")
    start = time.perf_counter()
    try:
        try:  # a directory that cannot be made is caught before any work
            existing = next(path for path in (out, *out.parents) if path.exists())
        except OSError as exc:
            raise UsageError(f"cannot use --out: {exc}") from exc
        if not existing.is_dir():
            raise UsageError(f"--out {args.out} is not a directory" if existing == out
                             else f"--out {args.out} lies below {existing}, not a directory")
        files, spec, status = args.func(args)
        if spec is not None:
            manifest = {"command": args.command, "tool_version": __version__,
                        "config": args.config and str(Path(args.config).resolve()),
                        "spec": spec}
            if "workers" in args:
                manifest["workers"] = args.workers
            manifest["wall_time_seconds"] = time.perf_counter() - start
            files["run_manifest.json"] = json.dumps(manifest, indent=2) + "\n"
        try:
            if files:
                out.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                (out / name).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write outputs: {exc}") from exc
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
