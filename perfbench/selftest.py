"""Show that every correctness check rejects a deliberately wrong output.

Each workload runs once at its quick size, untraced and traced. The true
outputs must pass every check. Then each check is given a copy of an output
with one deliberate fault and must reject it. Run it through
`python3 perfbench/run.py --selftest`.
"""
from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads


def _edit(text: str, row: int, column: str, change) -> str:
    """Apply `change` to one field of data row `row` of a CSV text."""
    lines = text.split("\n")
    j = lines[0].split(",").index(column)
    fields = lines[row + 1].split(",")
    fields[j] = change(fields[j])
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def _row_where(text: str, **match) -> int:
    lines = text.split("\n")
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:]):
        fields = dict(zip(header, line.split(",")))
        if all(fields.get(key) == value for key, value in match.items()):
            return i
    raise LookupError(f"no row with {match}")


def _swap_rows(text: str, a: int, b: int) -> str:
    lines = text.split("\n")
    lines[a + 1], lines[b + 1] = lines[b + 1], lines[a + 1]
    return "\n".join(lines)


def _with_op(output, pick, change):
    """Copy of a mining output in which the first op matching `pick` is changed."""
    results = list(output.results)
    i = next(i for i, op in enumerate(results) if pick(op))
    op = dict(results[i], triplets=results[i]["triplets"].copy())
    change(op)
    results[i] = op
    return dataclasses.replace(output, results=results)


def _centred_unit(m: int) -> np.ndarray:
    v = np.arange(m, dtype=float)
    v -= v.mean()
    return v / np.linalg.norm(v)


def _run(workload):
    output = workload.run(0)
    replays = {"untraced": output.digest()}
    if workload.pool_workers:
        replays["pool"] = workload.run(0, tag="pool",
                                       workers=workload.pool_workers).digest()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = workload.run(0, tag="traced", tracer=tracer)
    baseline = (workload.check(output) + workload.check_traced(traced, tracer.solves)
                + workloads.check_replay(traced, replays))
    return output, traced, tracer.solves, baseline


def _fewshot_faults(wl, out, traced, solves):
    text = out.text
    soft_row = _row_where(text, n="3", k="10", kind="soft")
    gram = solves[0]["gram"]
    m = gram.shape[0]
    perm = np.random.default_rng(0).permutation(m)
    v = _centred_unit(m)

    def with_gram(entries):
        return [dict(solves[0], gram=entries)] + solves[1:]

    return [
        ("constraint count off by one",
         wl.check(dataclasses.replace(out, text=_edit(
             text, 0, "constraint_count", lambda s: str(int(s) + 1))))),
        ("information ratio off in the last digit",
         wl.check(dataclasses.replace(out, text=_edit(
             text, 1, "information_ratio",
             lambda s: repr(float(np.nextafter(float(s), 1.0))))))),
        ("rows out of order",
         wl.check(dataclasses.replace(out, text=_swap_rows(text, 0, 2)))),
        ("soft recovery below hard in a k >= 2n cell",
         wl.check(dataclasses.replace(out, text=_edit(
             text, soft_row, "rho", lambda s: "-0.9")))),
        ("rho recomputed from a permuted Gram matrix",
         wl.check_traced(traced, with_gram(gram[np.ix_(perm, perm)]))),
        ("Gram matrix not PSD",
         wl.check_traced(traced, with_gram(gram - (v @ gram @ v + 1.0) * np.outer(v, v)))),
        ("Gram matrix not double-centred",
         wl.check_traced(traced, with_gram(gram + 0.1))),
        ("traced rows differ from untraced rows",
         workloads.check_replay(traced, {"untraced": dataclasses.replace(
             out, text=_swap_rows(text, 0, 1)).digest()})),
    ]


def _sparsity_faults(wl, out, traced, solves):
    text, table = out.text, out.tradeoff
    pca_row = _row_where(text, kind="pca")
    rows = checks.read_rows(table)
    beta0 = [i for i, row in enumerate(rows) if float(row["beta"]) == 0.0]
    preferred0 = next(i for i in beta0 if rows[i]["preferred"] == "1")
    other0 = next(i for i in beta0 if i != preferred0)
    swapped = _edit(_edit(table, preferred0, "preferred", lambda s: "0"),
                    other0, "preferred", lambda s: "1")
    return [
        ("PCA constraint count off by one",
         wl.check(dataclasses.replace(out, text=_edit(
             text, pca_row, "constraint_count", lambda s: str(int(s) - 1))))),
        ("pool rows differ from serial traced rows",
         workloads.check_replay(traced, {"two-worker": dataclasses.replace(
             out, text=_swap_rows(text, 0, 1)).digest()})),
        ("two preferred rows at one beta",
         wl.check(dataclasses.replace(out, tradeoff=_edit(
             table, other0, "preferred", lambda s: "1")))),
        ("loss is not beta * c_hat - rho",
         wl.check(dataclasses.replace(out, tradeoff=_edit(
             table, len(rows) - 1, "loss", lambda s: repr(float(s) + 1e-6))))),
        ("beta = 0 prefers an option without the highest rho",
         wl.check(dataclasses.replace(out, tradeoff=swapped))),
    ]


def _mining_faults(wl, out, traced, solves):
    small = wl.brute_force_items

    def drop_last(op):
        op["triplets"] = op["triplets"][:-1]

    def swap_and_resort(op):
        t = op["triplets"]
        t[0, 1], t[0, 2] = t[0, 2], t[0, 1]
        op["triplets"] = t[np.lexsort((t[:, 2], t[:, 1], t[:, 0]))]

    def swap_rows(op):
        op["triplets"][[0, 1]] = op["triplets"][[1, 0]]

    def duplicate(op):
        op["triplets"][1] = op["triplets"][0]

    def out_of_bounds(op):
        op["triplets"][-1, 2] = op["n"] + op["k"]

    def noiseless(op):
        op["noisy"] = [(rate, op["triplets"].copy()) for rate, _ in op["noisy"]]

    largest = max(len(op["triplets"]) for op in out.results)
    cases = [
        ("hard set with one triplet dropped",
         lambda op: op["kind"] == "hard" and op["n"] + op["k"] <= small, drop_last),
        ("smoothed set differs from hard set",
         lambda op: op["kind"] == "smoothed" and op["n"] + op["k"] > small, drop_last),
        ("PCA set with one triplet dropped",
         lambda op: op["kind"] == "pca" and op["n"] + op["k"] > small, drop_last),
        ("sparse set with near and far swapped in one triplet",
         lambda op: op["kind"] == "sparse" and op["n"] + op["k"] <= small, swap_and_resort),
        ("triplets out of order", lambda op: op["kind"] == "soft", swap_rows),
        ("duplicate triplet", lambda op: op["kind"] == "typicality", duplicate),
        ("index out of bounds", lambda op: op["kind"] == "topclass", out_of_bounds),
        ("no flips at rate 0.5", lambda op: len(op["triplets"]) == largest, noiseless),
    ]
    return [(fault, wl.check(_with_op(out, pick, change))) for fault, pick, change in cases]


_FAULTS = {"fewshot": _fewshot_faults, "sparsity": _sparsity_faults,
           "mining": _mining_faults}


def main(out_dir: Path) -> int:
    out_dir.mkdir(exist_ok=True)
    failures = 0
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for name, make_faults in _FAULTS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            wl = workloads.WORKLOADS[name](seed=0, quick=True, workdir=workdir)
            out, traced, solves, baseline = _run(wl)
            print(f"{name}: true outputs {'pass' if not baseline else 'FAIL'}")
            for line in baseline:
                print(f"    {line}")
            failures += bool(baseline)
            for fault, errors in make_faults(wl, out, traced, solves):
                verdict = "rejected" if errors else "NOT REJECTED"
                print(f"  {fault:52s} {verdict}: {errors[0] if errors else ''}")
                failures += not errors
    print(f"selftest: {'ok' if not failures else f'{failures} failures'}")
    return 0 if not failures else 1
