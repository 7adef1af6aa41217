"""In-memory span tracer for the benchmark's traced run.

The tracer replaces public functions of `labelinfo` modules with wrappers
for the length of one traced round and puts the originals back afterwards;
no file of the program changes. Each wrapper records a span: id, parent
span, cell id, layer name, start and end (`perf_counter_ns`). Spans opened
under one `sweep.evaluate_cell` call (or one mining dataset) share a cell
id. Spans stay in memory and are written out once, when the run ends.

Wrappers act only in the process that installs them, so a traced round
must run serially: spawned pool workers import the unwrapped program.
"""
from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name, whether the call starts a new cell).
# A module attribute is patched where the caller looks it up: `sweep` binds
# several functions by `from ... import`, so those are patched on `sweep`.
_PATCHES = (
    ("latentgen", "generate_dataset", "latentgen.generate", False),
    ("sweep", "generate_dataset", "latentgen.generate", False),
    ("sweep", "similarity_matrix", "latentgen.similarity", False),
    ("sweep", "build_labels", "labels.build", False),
    ("sweep", "topclass_labels", "labels.topclass", False),
    ("sweep", "mine_constraints", "triplets.mine", False),
    ("triplets", "apply_noise", "triplets.noise", False),
    ("sweep", "solve", "gnmds.solve", False),
    ("gnmds", "project_psd", "gnmds.project_psd", False),
    ("sweep", "recovery_score", "metrics.score", False),
    ("costbenefit", "cost", "costbenefit", False),
    ("costbenefit", "loss", "costbenefit", False),
    ("costbenefit", "optimize_sparsity", "costbenefit", False),
    ("costbenefit", "tradeoff_table", "costbenefit", False),
    ("costbenefit", "tradeoff_to_csv", "costbenefit", False),
    ("render", "render_heatmap", "render", False),
    ("render", "render_curve_panels", "render", False),
    ("sweep", "run_sweep", "sweep.run", False),
    ("sweep", "evaluate_cell", "sweep.cell", True),
    ("cli", "main", "cli", False),
)

# Span fields, stored as lists to keep the tracer's own cost low.
_ID, _PARENT, _CELL, _NAME, _START, _END = range(6)


class Tracer:
    """Collects spans and the per-call facts the checks and counters need."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cells = 0
        self.mined: list[int] = []              # triplets per mining call
        self.solves: list[dict] = []            # one record per gnmds.solve

    @contextmanager
    def span(self, name: str, new_cell: bool = False):
        parent = self._stack[-1] if self._stack else -1
        if new_cell:
            self._cells += 1
            cell = self._cells
        else:
            cell = self.spans[parent][_CELL] if parent >= 0 else 0
        record = [len(self.spans), parent, cell, name, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(record[_ID])
        try:
            yield record
        finally:
            record[_END] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, func, new_cell: bool):
        def wrapper(*args, **kwargs):
            with self.span(name, new_cell) as record:
                result = func(*args, **kwargs)
            self._record(name, record[_CELL], args, kwargs, result)
            return result
        wrapper.__wrapped__ = func
        return wrapper

    def _record(self, name, cell, args, kwargs, result):
        if name == "triplets.mine":
            self.mined.append(len(result))
        elif name == "gnmds.solve":
            config = args[1] if len(args) > 1 else kwargs.get("config")
            if config is None:
                from labelinfo.gnmds import SolverConfig
                config = SolverConfig()
            self.solves.append({
                "cell": cell, "triplets": len(args[0]), "gram": result.entries,
                "iterations": int(result.diagnostics["iterations"]),
                "max_iterations": config.max_iterations})

    @contextmanager
    def installed(self):
        """Patch the program's functions with span wrappers, then restore them."""
        import importlib
        saved = []
        try:
            for module_name, attr, name, new_cell in _PATCHES:
                module = importlib.import_module(f"labelinfo.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, new_cell))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write one JSON array per span: id, parent, cell, name, start_ns, end_ns."""
        with gzip.open(path, "wt") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and times; a layer's time is its spans' self time."""
        child = [0] * len(self.spans)
        for record in self.spans:
            if record[_PARENT] >= 0:
                child[record[_PARENT]] += record[_END] - record[_START]
        total: dict[str, int] = {}
        own: dict[str, int] = {}
        cells = []
        for record in self.spans:
            duration = record[_END] - record[_START]
            name = record[_NAME]
            total[name] = total.get(name, 0) + duration
            own[name] = own.get(name, 0) + duration - child[record[_ID]]
            if name == "sweep.cell":
                cells.append(duration / 1e9)

        def secs(table, name):
            return table.get(name, 0) / 1e9

        mined = sum(self.mined)
        triplet_iterations = sum(s["triplets"] * s["iterations"] for s in self.solves)
        return {
            "latentgen.generate_s": secs(own, "latentgen.generate"),
            "latentgen.similarity_s": secs(own, "latentgen.similarity"),
            "labels.build_s": secs(own, "labels.build") + secs(own, "labels.topclass"),
            "labels.topclass_s": secs(own, "labels.topclass"),
            "triplets.mine_s": secs(own, "triplets.mine"),
            "triplets.noise_s": secs(own, "triplets.noise"),
            "triplets.mined": mined,
            "triplets.mine_ns_per_triplet":
                own.get("triplets.mine", 0) / mined if mined else 0.0,
            "gnmds.solve_s": secs(total, "gnmds.solve"),
            "gnmds.project_psd_s": secs(total, "gnmds.project_psd"),
            "gnmds.other_s": secs(own, "gnmds.solve"),
            "gnmds.solves": len(self.solves),
            "gnmds.iterations": sum(s["iterations"] for s in self.solves),
            "gnmds.capped": sum(s["iterations"] == s["max_iterations"]
                                for s in self.solves),
            "gnmds.triplet_iterations": triplet_iterations,
            "gnmds.ns_per_triplet_iteration":
                own.get("gnmds.solve", 0) / triplet_iterations
                if triplet_iterations else 0.0,
            "metrics.score_s": secs(own, "metrics.score"),
            "costbenefit.s": secs(own, "costbenefit"),
            "render.s": secs(own, "render"),
            "cli.other_s": secs(own, "cli"),
            "sweep.cells": len(cells),
            "sweep.cell_s.p50": float(np.percentile(cells, 50)) if cells else 0.0,
            "sweep.cell_s.p90": float(np.percentile(cells, 90)) if cells else 0.0,
        }
