#!/usr/bin/env python3
"""Sparsity study: recovery versus per-point annotation budget, with tradeoffs.

Sweeps sparse, top-class and PCA signals over a k_hat grid at a single
(n, k, d) cell, renders recovery-vs-k_hat curves with hard/soft reference
lines, then feeds the same rows into the beta tradeoff to find the
preferred signal at each annotation price. Prints mean recovery per signal
and budget, and the preferred option along the beta grid. The sparsity run
writes into --out and the tradeoff run into --out/tradeoff, so each keeps its
own run_manifest.json.
"""
import argparse
import csv
import json
import sys
from pathlib import Path

from labelinfo import cli, render


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results/sparsity", help="output directory")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--seed", type=int, default=23, help="sweep base seed")
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--k", type=int, default=20)
    ap.add_argument("--d", type=int, default=5)
    ap.add_argument("--reps", type=int, default=10, help="datasets per cell")
    ap.add_argument("--k-hats", type=int, nargs="+", default=[1, 2, 3, 5, 10])
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sparsity_config = out / "sparsity_config.json"
    sparsity_config.write_text(json.dumps({
        "n": args.n, "k": args.k, "d": args.d,
        "k_hat_grid": args.k_hats,
        "reps": args.reps,
        "base_seed": args.seed,
    }, indent=2) + "\n")
    rc = cli.main(["sparsity", "--config", str(sparsity_config),
                   "--out", str(out), "--workers", str(args.workers)])
    if rc != 0:
        return rc

    with open(out / "sparsity.csv") as fh:
        means = render.mean_by(csv.DictReader(fh),
                               lambda row: (row["kind"], int(row["k_hat"] or 0)), "rho")
    print(f"{'signal':>10} {'k_hat':>6} {'mean_rho':>9}")
    for (kind, k_hat), (mean_rho, _) in means.items():
        print(f"{kind:>10} {k_hat or '-':>6} {mean_rho:>9.3f}")

    tradeoff_config = out / "tradeoff_config.json"
    tradeoff_config.write_text(json.dumps({
        "sweep_csv": str(out / "sparsity.csv"),
        "n": args.n, "k": args.k, "d": args.d,
    }, indent=2) + "\n")
    rc = cli.main(["tradeoff", "--config", str(tradeoff_config), "--out", str(out / "tradeoff")])
    if rc != 0:
        return rc

    preferred: dict = {}
    with open(out / "tradeoff" / "tradeoff.csv") as fh:
        for row in csv.DictReader(fh):
            if row["preferred"] == "1":
                preferred[float(row["beta"])] = (row["kind"], row["k_hat"])
    print("\npreferred signal along the beta grid:")
    last = None
    for beta in sorted(preferred):
        if preferred[beta] != last:
            kind, k_hat = preferred[beta]
            print(f"  beta >= {beta:.4f}: {kind} (k_hat={k_hat})")
            last = preferred[beta]
    print(f"\nartifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
