#!/usr/bin/env python3
"""Benchmark of labelinfo: three workloads, timed end to end or traced per layer.

Run from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload fewshot --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30
    python3 perfbench/run.py --workload all --quick --seconds 1
    python3 perfbench/run.py --selftest

Workloads: fewshot, sparsity, mining (see perfbench/README.md). A run
repeats whole rounds of the workload's fixed work until --seconds have
passed, checks the outputs, and prints each metric by name and unit. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 a further serial round runs under span
wrappers and the metrics are the per-layer ones. Each run also writes its
full result, with the environment it ran in, to perfbench/out/, and a
traced run writes its spans there too.

The benchmark sets no BLAS or OpenMP thread variable; it records the ones
it finds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("fewshot", "sparsity", "mining")


def import_program():
    """Import labelinfo from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "labelinfo" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no labelinfo sources under {src}")
    sys.path.insert(0, str(src))
    import labelinfo
    import labelinfo.cli  # the entry point a user's run imports; part of set-up
    if Path(labelinfo.__file__).resolve().parent != (src / "labelinfo").resolve():
        raise SystemExit(f"run.py: imported labelinfo from {labelinfo.__file__}, "
                         f"not from {src}")


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            git_rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                     capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "git_rev": git_rev}


def make_workload(args, workdir: Path):
    import workloads
    return workloads.WORKLOADS[args.workload](args.seed, args.quick, workdir)


def probe_setup(args) -> int:
    """Child side of the set-up timing: import, build inputs, say so, exit."""
    import_program()
    make_workload(args, Path(args.workdir))
    print("ready", flush=True)
    return 0


def measure_setup(args) -> list:
    """Seconds from starting a fresh interpreter until the workload is ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            cmd = [sys.executable, str(Path(__file__)), "--probe-setup",
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--workdir", tmp] + (["--quick"] if args.quick else [])
            start = time.perf_counter()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                samples.append(time.perf_counter() - start)
                proc.stdout.read()
                rc = proc.wait(timeout=120)
            if line.strip() != "ready" or rc != 0:
                raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return samples


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def stop_resource_tracker() -> None:
    """End the helper process multiprocessing starts beside a spawn pool."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def run_workload(args) -> int:
    import_program()
    import tracing
    import workloads
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = Path(tempfile.mkdtemp(prefix=stem + "-", dir=OUT))
    try:
        setup_samples = measure_setup(args)
        workload = make_workload(args, workdir)
        # Rounds run until --seconds have passed, and at least the workload's
        # fixed rounds, whose outputs make rho_mean. Outputs are checked as
        # they come and then let go, so they do not pile up in memory.
        elapsed, errors, operation_errors, rhos, attempted, failed = [], [], [], [], 0, 0
        replay_s = {}
        # A traced run replays the last fixed round: warm, and the same round
        # however many rounds the time allowed, so its counts repeat exactly.
        again = workload.min_rounds - 1
        start = time.perf_counter()
        while len(elapsed) < workload.min_rounds or time.perf_counter() - start < args.seconds:
            out = workload.run(len(elapsed))
            if args.trace and out.round == again:
                again_digest, again_cell_times = out.digest(), out.cell_times
            elapsed.append(out.elapsed)
            errors += workload.check(out)
            operation_errors += out.errors
            if out.round < workload.min_rounds:
                rhos += workload.rhos(out)
            attempted += out.ops
            failed += out.failed
            out = None  # let this round's output go before the next
        if args.trace:
            replays = {"untraced": again_digest}
            pool_cell_times = again_cell_times
            if workload.pool_workers:
                pool = workload.run(again, tag="pool", workers=workload.pool_workers)
                replays["pool"] = pool.digest()
                pool_cell_times = pool.cell_times
                replay_s["pool"] = pool.elapsed
                attempted += pool.ops
                failed += pool.failed
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = workload.run(again, tag="traced", tracer=tracer)
            replay_s["traced"] = traced.elapsed
            attempted += traced.ops
            failed += traced.failed
            errors += workload.check_traced(traced, tracer.solves)
            errors += workloads.check_replay(traced, replays)
            metrics = tracer.layer_metrics()
            metrics["sweep.pool_inflation"] = (sum(pool_cell_times) / sum(traced.cell_times)
                                               if traced.cell_times else 0.0)
            metrics["trace.overhead_s"] = traced.elapsed - elapsed[again]
            tracer.write(OUT / f"{stem}-spans.jsonl.gz")
        else:
            metrics = {"setup_s": statistics.median(setup_samples),
                       "run_s": statistics.median(elapsed),
                       "peak_rss_mb": peak_rss_mb(),
                       "rho_mean": statistics.fmean(rhos)}
    finally:
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)

    units = load_units()
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
              "rounds_s": elapsed, "replays_s": replay_s, "setup_samples_s": setup_samples,
              "errors": errors, "environment": environment()}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    for line in operation_errors:
        print(f"operation failed: {line}", file=sys.stderr)
    print(f"{args.workload}: {len(elapsed)} rounds, {attempted} operations, "
          f"{failed} failed, correct={not errors}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    print(f"  environment: {json.dumps(record['environment'])}")
    print(json.dumps(result))
    return 0 if not errors else 1


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter, then one summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"run.py: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for a check of the whole benchmark in seconds")
    parser.add_argument("--selftest", action="store_true",
                        help="show that every correctness check rejects a wrong output")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.probe_setup:
        return probe_setup(args)
    if args.selftest:
        import_program()
        import selftest
        try:
            return selftest.main(OUT)
        finally:
            stop_resource_tracker()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
