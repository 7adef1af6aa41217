import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import constraints_to_csv

import labelinfo
from labelinfo import cli, gnmds, render, sweep, triplets
from labelinfo.cli import main
from labelinfo.gnmds import solve
from labelinfo.labels import LabelKind, soft_labels
from labelinfo.latentgen import generate_dataset, similarity_matrix
from labelinfo.metrics import recovery_score
from labelinfo.render import render_curve_panels, render_heatmap, rows_to_csv
from labelinfo.sweep import (SWEEP_COLUMNS, SignalSpec, SweepSpec, _single_threaded_blas,
                             build_labels, derive_seed, evaluate_cell, mine_constraints,
                             run_sweep, timings_to_csv)

TINY = SweepSpec(n_grid=(3,), k_grid=(4,), d_grid=(3,),
                 signals=(SignalSpec(LabelKind.HARD), SignalSpec(LabelKind.SOFT)),
                 epsilon_grid=(0.0,), reps=2, base_seed=5)


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed(0, n=3, k=4, d=5, rep=0)
    assert a == derive_seed(0, n=3, k=4, d=5, rep=0)
    assert a == derive_seed(0, rep=0, d=5, k=4, n=3)  # field order irrelevant
    assert a != derive_seed(1, n=3, k=4, d=5, rep=0)
    assert a != derive_seed(0, n=3, k=4, d=5, rep=1)
    assert 0 <= a < 2**64


def test_signal_spec_round_trip_and_validation():
    s = SignalSpec(LabelKind.SPARSE_SOFT, k_hat=3)
    assert sweep.from_config(SignalSpec, s.to_dict(), "signal") == s
    with pytest.raises(ValueError):
        SignalSpec(LabelKind.PCA_COORDS)  # k_hat required
    plain = SignalSpec(LabelKind.SOFT)
    assert plain.to_dict() == {"kind": "soft"}
    with pytest.raises(ValueError, match="parm"):
        sweep.from_config(SignalSpec, {"kind": "smoothed", "parm": 0.3}, "signal")


# smoothing has one rate, so no kind takes a param
@pytest.mark.parametrize("signal, message", [
    ({"kind": "hard", "k_hat": 3}, "signal hard takes no k_hat"),
    ({"kind": "soft", "param": 0.3}, "unknown signal keys: param"),
], ids=["signal0-k_hat", "signal1-param"])
def test_signal_spec_rejects_fields_its_kind_ignores(tmp_path, monkeypatch, capsys, signal,
                                                     message):
    with pytest.raises(ValueError, match=message):
        sweep.from_config(SignalSpec, signal, "signal")
    cfg = _write_config(tmp_path, "spec.json", {"signals": [signal]})
    out = tmp_path / "out"
    monkeypatch.setattr(sweep, "run_sweep", lambda *_, **__: pytest.fail("ran a cell"))
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert f"error: bad sweep config: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_spec_round_trip_and_validation():
    spec = SweepSpec.from_dict(TINY.to_dict())
    assert spec == TINY
    with pytest.raises(ValueError):
        SweepSpec(n_grid=())
    with pytest.raises(ValueError):
        SweepSpec(reps=0)
    with pytest.raises(ValueError):
        SweepSpec(epsilon_grid=(1.2,))
    with pytest.raises(ValueError):
        SweepSpec(n_grid=(1,), k_grid=(1,))


def test_cells_order_and_count():
    cells = list(TINY.cells())
    assert len(cells) == 2 * 2  # signals x reps
    assert cells[0][3].kind is LabelKind.HARD and cells[0][5] == 0
    assert cells[1][5] == 1
    assert cells[2][3].kind is LabelKind.SOFT
    # every axis varied: the nested loops are the reference order, the last axis fastest
    spec = SweepSpec(n_grid=(5, 3), k_grid=(4, 3), d_grid=(2, 3),
                     signals=(SignalSpec(LabelKind.SOFT), SignalSpec(LabelKind.HARD)),
                     epsilon_grid=(0.0, 0.2), reps=2)
    expected = [(n, k, d, signal, eps, rep)
                for n in spec.n_grid for k in spec.k_grid for d in spec.d_grid
                for signal in spec.signals for eps in spec.epsilon_grid
                for rep in range(spec.reps)]
    assert list(spec.cells()) == expected and len(expected) == 2 ** 6


def test_evaluate_cell_ok_row():
    cell = (3, 4, 3, SignalSpec(LabelKind.SOFT), 0.0, 0)
    row, wall = evaluate_cell(TINY, cell)
    assert row["status"] == "ok"
    assert row["kind"] == "soft" and row["k_hat"] == ""
    assert row["constraint_count"] == 4 * 3 * (4 + 3 - 2) // 2
    assert -1.0 <= row["rho"] <= 1.0
    assert row["c_hat"] == 4.0
    assert row["stop_reason"] in {"tolerance", "max_iterations"}
    assert 1 <= row["iterations"] <= TINY.solver.max_iterations
    assert row["final_objective"] > 0
    assert wall > 0
    # rho scores the solved Gram against the cosines of all n + k items
    ds = generate_dataset(n=3, k=4, d=3, sigma=TINY.sigma, seed=row["seed"])
    gram = solve(mine_constraints(soft_labels(ds), ds.n), TINY.solver)
    assert row["rho"] == recovery_score(gram, similarity_matrix(ds.all_items()))
    # paired datasets: hard cell at same (n,k,d,rep) shares the seed
    hard_row, _ = evaluate_cell(TINY, (3, 4, 3, SignalSpec(LabelKind.HARD), 0.0, 0))
    assert hard_row["seed"] == row["seed"]


def test_evaluate_cell_failure_is_status_not_exception():
    # k_hat above d collapses PCA to d, but a zero-size grid cannot: force an
    # error with an absurd sigma by constructing the spec directly
    bad = SweepSpec(n_grid=(1,), k_grid=(2,), d_grid=(2,),
                    signals=(SignalSpec(LabelKind.HARD),), reps=1)
    row, _ = evaluate_cell(bad, (1, 2, 2, SignalSpec(LabelKind.HARD), 0.0, 0))
    # n=1, k=2 mines only point-anchored constraints; still solvable -> ok
    assert row["status"] == "ok"
    # an actually-broken cell: epsilon outside range hits apply_noise
    row2, _ = evaluate_cell(bad, (1, 2, 2, SignalSpec(LabelKind.HARD), 1.5, 0))
    assert row2["status"].startswith("error: ")
    assert "," not in row2["status"]
    assert row2["rho"] == ""


def test_run_sweep_serial_matches_parallel():
    rows1, _ = run_sweep(TINY, workers=1)
    rows2, _ = run_sweep(TINY, workers=2)
    assert rows_to_csv(rows1, SWEEP_COLUMNS) == rows_to_csv(rows2, SWEEP_COLUMNS)


# At d = 3 and d = 5, PCA k_hat = 10 mines the same set as k_hat = 5, and the
# hard set depends only on class membership, so it repeats across d and reps.
# Smoothed labels mine the hard set, so they add cells but no solve: 20 cells,
# 8 distinct constraint sets.
REPEATS = SweepSpec(n_grid=(3,), k_grid=(4,), d_grid=(3, 5),
                    signals=(SignalSpec(LabelKind.HARD),
                             SignalSpec(LabelKind.PCA_COORDS, k_hat=5),
                             SignalSpec(LabelKind.PCA_COORDS, k_hat=10),
                             SignalSpec(LabelKind.SMOOTHED),
                             SignalSpec(LabelKind.TYPICALITY)),
                    reps=2, base_seed=5)


def _distinct_sets(spec):
    keys = set()
    for n, k, d, signal, _, rep in spec.cells():
        dataset = generate_dataset(n=n, k=k, d=d, sigma=spec.sigma,
                                   seed=derive_seed(spec.base_seed, n=n, k=k, d=d, rep=rep))
        constraints = mine_constraints(build_labels(dataset, signal), dataset.n)
        keys.add((constraints.m, constraints.triplets.tobytes()))
    return len(keys)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_rows_equal_cells_solved_alone(workers):
    alone = [evaluate_cell(REPEATS, cell)[0] for cell in REPEATS.cells()]
    rows, _ = run_sweep(REPEATS, workers=workers)
    assert rows_to_csv(rows, SWEEP_COLUMNS) == rows_to_csv(alone, SWEEP_COLUMNS)
    assert all(row["status"] == "ok" for row in rows)
    smoothed, hard = ([{**row, "kind": ""} for row in rows if row["kind"] == kind]
                      for kind in ("smoothed", "hard"))
    assert len(smoothed) == 4 and smoothed == hard  # equal in every column but kind


def test_typicality_labels_score_each_point_by_its_soft_mass_on_its_hard_class():
    for n, k, d, signal, _, rep in REPEATS.cells():
        if signal.kind is not LabelKind.TYPICALITY:
            continue
        dataset = generate_dataset(n=n, k=k, d=d, sigma=REPEATS.sigma,
                                   seed=derive_seed(REPEATS.base_seed, n=n, k=k, d=d, rep=rep))
        hard = np.argmax(build_labels(dataset, SignalSpec(LabelKind.HARD)).values, axis=1)
        points = np.arange(n)
        typical = build_labels(dataset, SignalSpec(LabelKind.TYPICALITY)).values
        assert np.array_equal(typical[points, hard], soft_labels(dataset).values[points, hard])


def test_run_sweep_solves_each_distinct_set_once_per_call(monkeypatch):
    distinct = _distinct_sets(REPEATS)
    cells = len(list(REPEATS.cells()))
    assert distinct == 8 and cells == 20
    outer, inner = [], []
    monkeypatch.setattr(sweep, "solve",
                        lambda *args: outer.append(1) or gnmds.solve(*args))
    inner_solve = gnmds._solve
    monkeypatch.setattr(gnmds, "_solve",
                        lambda *args: inner.append(1) or inner_solve(*args))
    first, _ = run_sweep(REPEATS)
    assert (len(outer), len(inner)) == (cells, distinct)
    second, _ = run_sweep(REPEATS)  # a second call starts from an empty table
    assert (len(outer), len(inner)) == (2 * cells, 2 * distinct)
    assert rows_to_csv(first, SWEEP_COLUMNS) == rows_to_csv(second, SWEEP_COLUMNS)


def test_evaluate_cell_records_domain_errors_and_raises_bugs(monkeypatch):
    def fails_with(exc_type):
        def solve(*_):
            raise exc_type("boom")
        return solve

    monkeypatch.setattr(sweep, "solve", fails_with(ValueError))
    rows, _ = run_sweep(TINY)
    assert {row["status"] for row in rows} == {"error: ValueError: boom"}
    monkeypatch.setattr(sweep, "solve", fails_with(TypeError))
    with pytest.raises(TypeError, match="boom"):
        run_sweep(TINY)


def test_eigh_failure_falls_back_to_svd(monkeypatch):
    # On this cell eigh fails to converge on one iteration; the SVD form of
    # the projection lets the solve finish.
    spec = SweepSpec(n_grid=(20,), k_grid=(20,), d_grid=(5,),
                     signals=(SignalSpec(LabelKind.TOP_CLASS, k_hat=5),),
                     reps=1, sigma=0.5, base_seed=506_000_023)
    eigh_failures = []
    eigh = np.linalg.eigh

    def counting_eigh(matrix):
        try:
            return eigh(matrix)
        except np.linalg.LinAlgError:
            eigh_failures.append(1)
            raise

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    (row,), _ = run_sweep(spec)
    assert row["status"] == "ok"
    assert (row["iterations"], row["stop_reason"]) == (166, "tolerance")
    assert len(eigh_failures) == 1


def test_single_threaded_blas_sets_only_unset_variables_and_restores(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    with _single_threaded_blas():
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"  # the user's value stays
        assert os.environ["OMP_NUM_THREADS"] == "1"
        assert os.environ["MKL_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert "OMP_NUM_THREADS" not in os.environ
    assert "MKL_NUM_THREADS" not in os.environ


def test_rows_csv_round_trip():
    rows, times = run_sweep(TINY, workers=1)
    text = rows_to_csv(rows, SWEEP_COLUMNS)
    assert text.splitlines()[0] == ",".join(SWEEP_COLUMNS) == (
        "n,k,d,kind,k_hat,epsilon,seed,constraint_count,information_ratio,rho,"
        "satisfied_fraction,c_hat,loss,iterations,stop_reason,final_objective,status")
    back = _read_rows(text)
    assert len(back) == len(rows)
    assert back[0]["kind"] == rows[0]["kind"]
    assert float(back[0]["rho"]) == rows[0]["rho"]
    timing_text = timings_to_csv(rows, times)
    assert timing_text.splitlines()[0] == "n,k,d,kind,k_hat,epsilon,seed,wall_time"
    assert len(timing_text.splitlines()) == len(rows) + 1
    assert "wall_time" not in text  # timings never contaminate sweep.csv


def test_pca_signal_records_effective_k_hat():
    spec = SweepSpec(n_grid=(4,), k_grid=(3,), d_grid=(2,),
                     signals=(SignalSpec(LabelKind.PCA_COORDS, k_hat=10),),
                     reps=1)
    rows, _ = run_sweep(spec, workers=1)
    assert rows[0]["status"] == "ok"
    assert rows[0]["k_hat"] == 2  # capped at d
    assert rows[0]["c_hat"] == 2.0
    # k_hat above k: d = 5 < n + k = 6 components, each priced at one unit
    spec = SweepSpec(n_grid=(3,), k_grid=(3,), d_grid=(5,),
                     signals=(SignalSpec(LabelKind.PCA_COORDS, k_hat=5),), reps=1)
    rows, _ = run_sweep(spec, workers=1)
    assert rows[0]["status"] == "ok"
    assert rows[0]["k_hat"] == 5
    assert rows[0]["c_hat"] == 5.0
    # n + k = 3 items below d = 5: capped at n + k
    spec = SweepSpec(n_grid=(1,), k_grid=(2,), d_grid=(5,),
                     signals=(SignalSpec(LabelKind.PCA_COORDS, k_hat=10),), reps=1)
    rows, _ = run_sweep(spec, workers=1)
    assert rows[0]["status"] == "ok"
    assert rows[0]["k_hat"] == 3


def test_heatmap_pivot_csv_mean_oracle():
    rows = [
        {"n": 3, "k": 4, "kind": "soft", "rho": 0.5, "status": "ok"},
        {"n": 3, "k": 4, "kind": "soft", "rho": 0.7, "status": "ok"},
        {"n": 3, "k": 4, "kind": "hard", "rho": 0.2, "status": "ok"},
        {"n": 3, "k": 4, "kind": "soft", "rho": 0.9, "status": "error: x"},
        {"n": 5, "k": 4, "kind": "soft", "rho": 0.1, "status": "ok"},
    ]
    _, csv_text = render_heatmap(rows, "rho")
    pivot = list(csv.DictReader(io.StringIO(csv_text)))
    assert list(pivot[0]) == ["facet", "n", "k", "value", "count"]
    # one line per (kind, n, k), in that order; the error row is dropped
    assert [(p["facet"], p["n"], p["k"], p["count"]) for p in pivot] == [
        ("hard", "3", "4", "1"), ("soft", "3", "4", "2"), ("soft", "5", "4", "1")]
    assert [float(p["value"]) for p in pivot] == [0.2, pytest.approx(0.6), 0.1]
    with pytest.raises(ValueError, match="unknown column 'nope'"):
        render_heatmap(rows, metric="nope")


def test_render_heatmap_svg_contents():
    rows = [{"n": 3, "k": 4, "kind": "soft", "rho": 0.25, "status": "ok"},
            {"n": 3, "k": 8, "kind": "soft", "rho": 0.75, "status": "ok"}]
    svg, pivot_csv = render_heatmap(rows, "rho")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "0.250" in svg and "0.750" in svg
    assert "kind = soft" in svg
    assert pivot_csv.count("\n") == 3


def test_render_curve_panels_svg():
    panels = [("demo", {("sparse", 1): 0.2, ("sparse", 2): 0.5, ("soft", ""): 0.6},
               (2, 0.5, "sparse"))]
    svg = render_curve_panels(panels, ylabel="rho")
    assert svg.startswith("<svg") and svg.endswith("</svg>\n") and ">k_hat</text>" in svg
    assert "demo" in svg and "polyline" in svg
    assert svg.count("<circle") == 3  # two points and the marker
    assert 'r="5"' not in render_curve_panels([(*panels[0][:2], None)], ylabel="rho")


# expected values are the SHA-256 of the renderers' output before the curve panels
# became (title, values, marker) tuples and both renderers shared one SVG frame
_CURVE_VALUES = {("hard", ""): 0.1, ("soft", ""): 0.7, ("sparse", 1): 0.3, ("sparse", 2): 0.4,
                 ("pca", 1): 0.2, ("pca", 3): 0.6, ("topclass", 1): 0.25, ("topclass", 2): 0.35}


def test_render_curve_panels_bytes_are_pinned():
    panels = [("n=4 k=4 d=5", _CURVE_VALUES, (2, 0.4, "sparse")),
              ("flat", {("sparse", 1): 0.5, ("sparse", 2): 0.5}, None)]
    svg = render_curve_panels(panels, ylabel="rho")
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "8cbec7966f31f94b46e65e016152c02fc7f47c45e9f7014a1a2540fd86a1e089")


def test_render_heatmap_bytes_are_pinned():
    rows = [{"n": 3, "k": 4, "kind": "hard", "rho": 0.2, "status": "ok"},
            {"n": 3, "k": 4, "kind": "soft", "rho": 0.5, "status": "ok"},
            {"n": 3, "k": 4, "kind": "soft", "rho": 0.7, "status": "ok"},
            {"n": 3, "k": 8, "kind": "soft", "rho": 0.9, "status": "ok"},
            {"n": 5, "k": 4, "kind": "soft", "rho": -0.1, "status": "ok"},
            {"n": 5, "k": 8, "kind": "soft", "rho": 0.4, "status": "error: x"}]
    svg, pivot_csv = render_heatmap(rows, "rho")
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "8836536ece26cddc85bc707938e5f472091415b3f95df5f4bf0ac4ec00ac6a1c")
    assert hashlib.sha256(pivot_csv.encode()).hexdigest() == (
        "389d319cc2ad4f2fa6a225122c544882d82edc093df31c8c6240cfcbe4168a4b")


def test_render_escape_matches_saxutils():
    from xml.sax.saxutils import escape as sax_escape
    text = "a & b < c > d &amp; <tag> \"q\" 'x'"
    assert render._escape(text) == sax_escape(text)


def _read_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_curve_panel_splits_partial_kinds_from_reference_lines():
    values = {("pca", 3): 0.6, ("hard", ""): 0.1, ("sparse", 2): 0.4,
              ("pca", 1): 0.2, ("soft", ""): 0.7, ("sparse", 1): 0.3}
    svg = render_curve_panels([("demo", values, None)], ylabel="rho")
    # one polyline per partial kind and one line per other kind, each in name order
    lines = [line for line in svg.splitlines() if line.startswith(("<polyline", "<line"))]
    assert [line.split()[0] for line in lines] == ["<line", "<line", "<polyline", "<polyline"]
    assert [line.split('stroke="')[1][:7] for line in lines] == [
        render._SERIES_COLORS[kind] for kind in ("hard", "soft", "pca", "sparse")]
    assert [line.count(",") for line in lines[2:]] == [2, 2]  # two points per curve
    with pytest.raises(ValueError, match="panel 'flat' has no partial kind"):
        render_curve_panels([("flat", {("hard", ""): 0.1, ("soft", ""): 0.7}, None)], "rho")


def test_cli_defaults(capsys):
    assert main(["defaults"]) == 0
    printed = capsys.readouterr().out
    spec = SweepSpec.from_dict(json.loads(printed))
    assert spec == SweepSpec()


def test_cli_defaults_writes_its_file_only_when_given_out(tmp_path, monkeypatch, capsys):
    """`--out .` names the working directory, as `--out ./` does."""
    monkeypatch.chdir(tmp_path)
    assert main(["defaults"]) == 0
    assert list(tmp_path.iterdir()) == []
    assert main(["defaults", "--out", "."]) == 0
    written = (tmp_path / "defaults.json").read_text()
    assert capsys.readouterr().out == 2 * written  # each run prints what the file holds
    assert SweepSpec.from_dict(json.loads(written)) == SweepSpec()


def test_cli_simulate_and_determinism(tmp_path):
    cfg = _write_config(tmp_path, "spec.json", {
        "n_grid": [3], "k_grid": [4], "d_grid": [3], "reps": 2,
        "signals": [{"kind": "hard"}, {"kind": "soft"}], "base_seed": 5})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2),
                 "--workers", "2"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "heatmap_rho_kind.svg").exists()
    manifest = json.loads((out1 / "run_manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["workers"] == 1
    assert manifest["spec"]["base_seed"] == 5
    assert manifest["wall_time_seconds"] > 0
    # the base seed changes the data
    other = _write_config(tmp_path, "other.json", {**json.loads(Path(cfg).read_text()),
                                                   "base_seed": 6})
    out3 = tmp_path / "c"
    assert main(["simulate", "--config", other, "--out", str(out3)]) == 0
    assert (out1 / "sweep.csv").read_text() != (out3 / "sweep.csv").read_text()


def test_cli_a_json_integer_setting_writes_what_its_float_writes(tmp_path):
    """An integer flip rate would otherwise seed the noise from "1", not "1.0"."""
    base = {"n_grid": [3], "k_grid": [3], "d_grid": [2], "reps": 1}
    written = []
    for number in (int, float):
        cfg = _write_config(tmp_path, f"{number.__name__}.json", {
            **base, "epsilon_grid": [number(0), number(1)], "sigma": number(1),
            "solver": {"lam": number(1), "max_iterations": 50}})
        out = tmp_path / number.__name__
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        del manifest["wall_time_seconds"], manifest["config"]
        written.append(((out / "sweep.csv").read_bytes(), manifest))
    assert written[0] == written[1]
    assert written[0][1]["spec"]["epsilon_grid"] == [0.0, 1.0]


def _program_env(**extra):
    """Environment for a child interpreter that imports this checkout's labelinfo."""
    src = str(Path(labelinfo.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_cli_module_runs_as_main():
    proc = subprocess.run([sys.executable, "-m", "labelinfo.cli", "defaults"],
                          env=_program_env(), capture_output=True, text=True,
                          check=True, timeout=60)
    assert SweepSpec.from_dict(json.loads(proc.stdout)) == SweepSpec()


def test_cli_import_loads_no_network_modules():
    """xml.sax.saxutils would pull in urllib.request and ssl at start-up."""
    code = ("import sys, labelinfo.cli; "
            "print(sorted(m for m in ('ssl', 'urllib.request') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=_program_env(),
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


def test_cli_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # m = 45 items: large enough that OpenBLAS runs the solver's eigh on both
    # threads when it has two
    cfg = _write_config(tmp_path, "spec.json", {
        "n_grid": [5], "k_grid": [40], "d_grid": [5], "reps": 1,
        "signals": [{"kind": "hard"}, {"kind": "soft"}], "base_seed": 3})
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-c", "from labelinfo.cli import entrypoint; entrypoint()",
                        "simulate", "--config", cfg, "--out", str(out)],
                       env=_program_env(OPENBLAS_NUM_THREADS=threads), check=True,
                       timeout=300)
        outputs.append((out / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_analyze(tmp_path):
    cfg = _write_config(tmp_path, "a.json", {"n_grid": [3, 5], "k_grid": [4]})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "analysis.csv").read_text().splitlines()
    assert lines[0] == "n,k,kind,information_ratio"
    assert len(lines) == 5  # 2 cells x 2 kinds
    assert (out / "heatmap_information_ratio_kind.svg").exists()
    assert "workers" not in json.loads((out / "run_manifest.json").read_text())


@pytest.mark.parametrize("grids", [{"n_grid": [3.5]}, {"n_grid": [True]}, {"k_grid": [4.0]}])
def test_cli_analyze_rejects_counts_that_are_not_integers(tmp_path, capsys, grids):
    cfg = _write_config(tmp_path, "a.json", {"n_grid": [3], "k_grid": [4], **grids})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert "analyze grid value must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_embed(tmp_path):
    ds = generate_dataset(n=4, k=3, d=3, seed=2)
    cs = mine_constraints(soft_labels(ds), ds.n)
    constraints_path = tmp_path / "constraints.csv"
    constraints_path.write_text(constraints_to_csv(cs))
    cfg = _write_config(tmp_path, "embed.json", {
        "constraints_csv": str(constraints_path), "embedding_rank": 3,
        "solver": {"max_iterations": 500}})
    out = tmp_path / "out"
    assert main(["embed", "--config", cfg, "--out", str(out)]) == 0
    gram = np.loadtxt(out / "gram.csv", delimiter=",")
    assert gram.shape == (7, 7)
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["satisfied_fraction"] > 0.9
    emb = np.array([[float(v) for v in ln.split(",")]
                    for ln in (out / "embedding.csv").read_text().splitlines()])
    assert emb.shape == (7, 3)


def test_cli_embed_failed_solve_writes_nothing(tmp_path, capsys):
    constraints_path = tmp_path / "constraints.csv"
    constraints_path.write_text("n,k,source_kind,flip_rate\n3,0,x,0.0\nanchor,near,far\n")
    cfg = _write_config(tmp_path, "embed.json", {"constraints_csv": str(constraints_path)})
    out = tmp_path / "out"
    assert main(["embed", "--config", cfg, "--out", str(out)]) == 1
    assert "embed: solve failed: cannot solve an empty constraint set" in capsys.readouterr().err
    assert not out.exists()  # neither gram.csv nor a manifest


def test_cli_sparsity_then_tradeoff(tmp_path):
    cfg = _write_config(tmp_path, "sp.json", {
        "n": 4, "k": 4, "d": 3, "k_hat_grid": [1, 2], "reps": 1})
    out = tmp_path / "sp"
    assert main(["sparsity", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_rows((out / "sparsity.csv").read_text())
    kinds = {r["kind"] for r in rows}
    assert kinds == {"hard", "soft", "sparse", "topclass", "pca"}
    assert (out / "sparsity.svg").exists()

    tr_cfg = _write_config(tmp_path, "tr.json", {
        "sweep_csv": str(out / "sparsity.csv"), "n": 4, "k": 4, "d": 3,
        "beta_grid": [0.0, 0.05, 0.1, 0.2, 0.4]})
    tr_out = tmp_path / "tr"
    assert main(["tradeoff", "--config", tr_cfg, "--out", str(tr_out)]) == 0
    text = (tr_out / "tradeoff.csv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("kind,k_hat,rho,c_hat,beta")
    # every beta contributes one preferred row
    preferred = [ln for ln in lines[1:] if ln.endswith(",1")]
    assert len(preferred) == 5
    assert (tr_out / "tradeoff.svg").exists()


def test_cli_tradeoff_prices_each_option_as_its_sweep_rows(tmp_path):
    # d = 3 caps PCA k_hat = 4 at 3 components, priced at 3 units
    cfg = _write_config(tmp_path, "sp.json", {
        "n": 4, "k": 4, "d": 3, "k_hat_grid": [1, 2, 4], "reps": 2,
        "solver": {"max_iterations": 50}})
    out = tmp_path / "sp"
    assert main(["sparsity", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_rows((out / "sparsity.csv").read_text())
    assert {(r["kind"], r["k_hat"]) for r in rows if r["kind"] == "pca"} == {
        ("pca", "1"), ("pca", "2"), ("pca", "3")}
    sweep_c_hat = {(r["kind"], r["k_hat"]): float(r["c_hat"]) for r in rows}
    tr_cfg = _write_config(tmp_path, "tr.json", {
        "sweep_csv": str(out / "sparsity.csv"), "n": 4, "k": 4, "d": 3,
        "beta_grid": [0.0, 0.1]})
    tr_out = tmp_path / "tr"
    assert main(["tradeoff", "--config", tr_cfg, "--out", str(tr_out)]) == 0
    table = _read_rows((tr_out / "tradeoff.csv").read_text())
    assert len(table) == 2 * len(sweep_c_hat)
    full_k_hat = {"hard": "1", "soft": "4"}  # a full signal has no k_hat in its rows
    for row in table:
        if row["kind"] in full_k_hat:
            assert row["k_hat"] == full_k_hat[row["kind"]]
            key = (row["kind"], "")
        else:
            key = (row["kind"], row["k_hat"])
        assert float(row["c_hat"]) == sweep_c_hat[key]


def test_cli_sparsity_draws_no_curves_when_every_partial_signal_fails(tmp_path, monkeypatch,
                                                                        capsys):
    def partial_fails(dataset, signal):
        if signal.k_hat is not None:
            raise ValueError("boom")
        return build_labels(dataset, signal)

    monkeypatch.setattr(sweep, "build_labels", partial_fails)
    cfg = _write_config(tmp_path, "sp.json", {
        "n": 3, "k": 3, "d": 3, "k_hat_grid": [1], "reps": 1,
        "solver": {"max_iterations": 50}})
    out = tmp_path / "sp"
    assert main(["sparsity", "--config", cfg, "--out", str(out)]) == 1
    assert "sparsity: 3/5 cells failed" in capsys.readouterr().err
    assert (out / "sparsity.csv").exists() and not (out / "sparsity.svg").exists()


def test_cli_usage_errors(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["simulate", "--config", missing, "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["embed", "--config", str(bad), "--out", str(tmp_path)]) == 2
    empty_cfg = _write_config(tmp_path, "empty.json", {})
    assert main(["embed", "--config", empty_cfg, "--out", str(tmp_path)]) == 2
    assert main(["tradeoff", "--config", empty_cfg, "--out", str(tmp_path)]) == 2
    # tradeoff over a sweep lacking sparse rows is a usage error
    spec_cfg = _write_config(tmp_path, "s.json", {
        "n_grid": [3], "k_grid": [4], "d_grid": [3], "reps": 1})
    out = tmp_path / "plain"
    assert main(["simulate", "--config", spec_cfg, "--out", str(out)]) == 0
    tr_cfg = _write_config(tmp_path, "t.json", {
        "sweep_csv": str(out / "sweep.csv"), "n": 3, "k": 4, "d": 3})
    assert main(["tradeoff", "--config", tr_cfg, "--out", str(tmp_path)]) == 2


def test_cli_sparsity_k_hat_grid_range(tmp_path, capsys):
    outside = _write_config(tmp_path, "outside.json", {
        "n": 4, "k": 3, "d": 5, "k_hat_grid": [2, 5], "reps": 1})
    out = tmp_path / "outside"
    assert main(["sparsity", "--config", outside, "--out", str(out)]) == 2
    assert "signal sparse k_hat 5 exceeds the smallest k in k_grid, 3" in capsys.readouterr().err
    assert not (out / "sparsity.csv").exists()
    # the built-in grid (1, 2, 3, 5, 10) is clipped to k
    default = _write_config(tmp_path, "default.json", {
        "n": 4, "k": 3, "d": 3, "reps": 1, "solver": {"max_iterations": 50}})
    out = tmp_path / "default"
    assert main(["sparsity", "--config", default, "--out", str(out)]) == 0
    rows = _read_rows((out / "sparsity.csv").read_text())
    assert {r["k_hat"] for r in rows if r["kind"] == "sparse"} == {"1", "2", "3"}


def test_cli_failure_line_names_the_first_failed_cell(tmp_path, monkeypatch, capsys):
    def topclass_fails(dataset, signal):
        if signal.kind is LabelKind.TOP_CLASS:
            raise ValueError("boom")
        return build_labels(dataset, signal)

    monkeypatch.setattr(sweep, "build_labels", topclass_fails)
    cfg = _write_config(tmp_path, "sp.json", {
        "n": 3, "k": 3, "d": 3, "k_hat_grid": [1, 2], "reps": 1,
        "solver": {"max_iterations": 50}})
    assert main(["sparsity", "--config", cfg, "--out", str(tmp_path / "sp")]) == 1
    seed = derive_seed(0, n=3, k=3, d=3, rep=0)
    assert capsys.readouterr().err == (
        "sparsity: 2/8 cells failed; first: n=3, k=3, d=3, kind=topclass, k_hat=1, "
        f"epsilon=0.0, seed={seed}, status=error: ValueError: boom\n")
    cfg = _write_config(tmp_path, "sim.json", {
        "n_grid": [3], "k_grid": [4], "d_grid": [3], "reps": 2, "base_seed": 5,
        "signals": [{"kind": "hard"}, {"kind": "topclass", "k_hat": 2}]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 1
    seed = derive_seed(5, n=3, k=4, d=3, rep=0)
    assert capsys.readouterr().err == (
        "simulate: 2/4 cells failed; first: n=3, k=4, d=3, kind=topclass, k_hat=2, "
        f"epsilon=0.0, seed={seed}, status=error: ValueError: boom\n")


@pytest.mark.parametrize("flag, command", [
    (flag, command) for flag in ("--workers", "--seed")
    for command in ("analyze", "embed", "tradeoff", "defaults")] + [("--config", "defaults")])
def test_cli_commands_without_a_sweep_reject_workers_and_seed(flag, command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, flag, "2"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def test_cli_rejects_unknown_config_keys(tmp_path, capsys):
    with pytest.raises(ValueError, match="k_grd"):
        SweepSpec.from_dict({"k_grd": [3]})
    typo = _write_config(tmp_path, "typo.json", {"k_grd": [3]})
    out = tmp_path / "typo"
    assert main(["simulate", "--config", typo, "--out", str(out)]) == 2
    assert "k_grd" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()
    signal = _write_config(tmp_path, "signal.json",
                           {"signals": [{"kind": "smoothed", "parm": 0.3}]})
    assert main(["simulate", "--config", signal, "--out", str(out)]) == 2
    assert "parm" in capsys.readouterr().err
    sparsity = _write_config(tmp_path, "sparsity.json", {"sigmaa": 0.9})
    assert main(["sparsity", "--config", sparsity, "--out", str(out)]) == 2
    assert "sigmaa" in capsys.readouterr().err
    assert not (out / "sparsity.csv").exists()
    constraints_csv = tmp_path / "constraints.csv"
    constraints_csv.write_text(constraints_to_csv(
        mine_constraints(soft_labels(generate_dataset(n=4, k=3, d=3, seed=2)), 4)))
    for command, payload, key in [
            ("simulate", {"solver": {"stepsize": 0.1}}, "unknown solver config keys: stepsize"),
            ("simulate", {"solver": {"step_size": 0.01}}, "unknown solver config keys: step_size"),
            ("sparsity", {"solver": {"step_size": 0.01}}, "unknown solver config keys: step_size"),
            ("embed", {"constraints_csv": str(constraints_csv), "solver": {"stepsize": 0.1}},
             "unknown solver config keys: stepsize"),
            ("embed", {"constraints_csv": str(constraints_csv), "solver": {"step_size": 0.01}},
             "unknown solver config keys: step_size"),
            ("analyze", {"n_grd": [3], "k_grid": [4]}, "n_grd"),
            ("embed", {"constraints_csv": "c.csv", "embeding_rank": 2}, "embeding_rank"),
            ("tradeoff", {"sweep_csv": "s.csv", "n": 3, "k": 4, "d": 3, "beta_grd": [0.1]},
             "beta_grd")]:
        cfg = _write_config(tmp_path, f"{command}.json", payload)
        command_out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(command_out)]) == 2
        assert key in capsys.readouterr().err
        assert not command_out.exists()


@pytest.mark.parametrize("key", ["n", "k", "d"])
def test_cli_tradeoff_non_integer_cell_is_usage_error(tmp_path, capsys, key):
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text(rows_to_csv([], SWEEP_COLUMNS))
    cfg = _write_config(tmp_path, "t.json", {
        "sweep_csv": str(sweep_csv), "n": 3, "k": 4, "d": 3, key: "abc"})
    out = tmp_path / "tr"
    assert main(["tradeoff", "--config", cfg, "--out", str(out)]) == 2
    assert "bad tradeoff config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rank", ["abc", "3", 2.5, True, 0, 8, 50])
def test_cli_embed_rejects_a_bad_rank_before_solving(tmp_path, monkeypatch, capsys, rank):
    constraints_path = tmp_path / "constraints.csv"
    constraints_path.write_text(constraints_to_csv(
        mine_constraints(soft_labels(generate_dataset(n=4, k=3, d=3, seed=2)), 4)))
    cfg = _write_config(tmp_path, "embed.json", {
        "constraints_csv": str(constraints_path), "embedding_rank": rank})
    monkeypatch.setattr(cli, "solve", lambda *_: pytest.fail("solved before the check"))
    out = tmp_path / "out"
    assert main(["embed", "--config", cfg, "--out", str(out)]) == 2
    assert "embedding_rank must be an integer in [1, 7]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sweep_config, sparsity_config", [
    ({"reps": 1.5}, {"reps": 1.5}),
    ({"n_grid": [3.5]}, {"n": 3.5}),
    ({"d_grid": [2.5]}, {"d": 2.5}),
    ({"solver": {"max_iterations": 2.5}}, {"solver": {"max_iterations": 2.5}}),
    ({"n_grid": [True]}, {"n": True}),
    ({"base_seed": -1}, {"base_seed": -1}),
    ({"base_seed": 2**64}, {"base_seed": 2**64}),
    ({"signals": [{"kind": "sparse", "k_hat": 2.5}]}, {"k_hat_grid": [2.5]}),
    ({"d_grid": [801]}, {"d": 801}),  # d is bounded by the item limit, MAX_ITEMS
], ids=["reps", "n", "d", "max_iterations", "bool_n", "negative_seed", "huge_seed", "k_hat",
        "d_past_item_limit"])
def test_cli_sweeps_reject_counts_that_are_not_integers(tmp_path, capsys, sweep_config,
                                                         sparsity_config):
    with pytest.raises(ValueError, match="must be an integer"):
        SweepSpec.from_dict(sweep_config)
    for command, config in (("simulate", sweep_config), ("sparsity", sparsity_config)):
        cfg = _write_config(tmp_path, f"{command}.json", config)
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not out.exists()


def test_cli_tradeoff_negative_beta_is_usage_error(tmp_path, capsys):
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text(rows_to_csv([_sweep_row()], SWEEP_COLUMNS))
    for beta_grid, message in (([-0.1, 0.1], "beta must be a number >= 0"),
                               ([], "beta_grid must be non-empty")):
        cfg = _write_config(tmp_path, "t.json", {
            "sweep_csv": str(sweep_csv), "n": 6, "k": 4, "d": 3, "beta_grid": beta_grid})
        assert main(["tradeoff", "--config", cfg, "--out", str(tmp_path / "tr")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "tr").exists()


@pytest.mark.parametrize("value", [6.9, "6", True, 0])
@pytest.mark.parametrize("key", ["n", "k", "d"])
def test_cli_tradeoff_rejects_counts_that_are_not_integers(tmp_path, capsys, key, value):
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text(rows_to_csv([], SWEEP_COLUMNS))
    cfg = _write_config(tmp_path, "t.json", {
        "sweep_csv": str(sweep_csv), "n": 6, "k": 4, "d": 3, key: value})
    out = tmp_path / "tr"
    assert main(["tradeoff", "--config", cfg, "--out", str(out)]) == 2
    assert f"tradeoff {key} must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("signal", [
    {"kind": "smoothed", "param": "abc"}, {"kind": "smoothed", "param": "0.5"},
    {"kind": "smoothed", "param": True}, {"kind": "smoothed", "param": False},
    {"kind": "smoothed", "param": 1.0}, {"kind": "smoothed", "param": -0.1},
    {"kind": "smoothed", "param": float("inf")}, {"kind": "smoothed", "param": 1.5},
    {"kind": "smoothed", "param": float("nan")}])
def test_signal_param_outside_its_range_is_usage_error(tmp_path, monkeypatch, capsys, signal):
    """Smoothing has one rate, so no value of a smoothed signal's `param` is in range:
    each, whatever its type, is refused as an unknown key before any cell runs."""
    with pytest.raises(ValueError, match="unknown signal keys: param"):
        sweep.from_config(SignalSpec, signal, "signal")
    cfg = _write_config(tmp_path, "spec.json", {"signals": [signal]})
    out = tmp_path / "out"
    monkeypatch.setattr(sweep, "run_sweep", lambda *_, **__: pytest.fail("ran a cell"))
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "error: bad sweep config: unknown signal keys: param" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, extra, message", [
    ("simulate", TINY.to_dict(), ["--seed", "6"], "unrecognized arguments: --seed 6"),
    ("sparsity", {"n": 3, "k": 3, "d": 3, "k_hat_grid": [1]}, ["--seed", "6"],
     "unrecognized arguments: --seed 6"),
    ("simulate", {**TINY.to_dict(), "tradeoff": {"beta": 0.1}}, [],
     "error: unknown sweep config keys: tradeoff"),
], ids=["simulate_seed", "sparsity_seed", "sweep_tradeoff"])
def test_cli_rejects_the_base_seed_flag_and_a_tradeoff_block(tmp_path, monkeypatch, capsys,
                                                             command, config, extra, message):
    """`base_seed` sets the seed and `labelinfo tradeoff` prices rows at any beta."""
    cfg = _write_config(tmp_path, "spec.json", config)
    out = tmp_path / "out"
    monkeypatch.setattr(sweep, "run_sweep", lambda *_, **__: pytest.fail("ran a cell"))
    try:
        status = main([command, "--config", cfg, "--out", str(out), *extra])
    except SystemExit as exc:
        status = exc.code
    assert status == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("simulate", TINY.to_dict()), ("sparsity", {"n": 3, "k": 3, "d": 3, "k_hat_grid": [1]})])
@pytest.mark.parametrize("workers", ["0", "-5"])
def test_cli_workers_below_one_is_usage_error(tmp_path, capsys, command, config, workers):
    cfg = _write_config(tmp_path, "spec.json", config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--workers", workers]) == 2
    assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("simulate", TINY.to_dict()), ("sparsity", {"n": 3, "k": 3, "d": 3, "k_hat_grid": [1]})])
def test_cli_workers_above_the_cap_is_usage_error(tmp_path, monkeypatch, capsys, command,
                                                  config):
    cfg = _write_config(tmp_path, "spec.json", config)
    out = tmp_path / "out"
    monkeypatch.setattr(sweep, "run_sweep", lambda *_, **__: pytest.fail("ran a cell"))
    assert main([command, "--config", cfg, "--out", str(out), "--workers", "33"]) == 2
    assert "--workers must be <= 32, got 33" in capsys.readouterr().err
    assert not out.exists()


def test_run_sweep_pool_has_no_more_processes_than_cells(monkeypatch):
    created = []

    class _Pool:
        def __init__(self, processes, initializer):
            created.append(processes)
            initializer()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return [func(job) for job in jobs]

    class _Context:
        Pool = _Pool

    monkeypatch.setattr(sweep, "get_context", lambda method: _Context())
    monkeypatch.setattr(sweep, "_worker_table", None)
    serial, _ = run_sweep(TINY, workers=1)
    assert created == []  # one worker runs in this process
    pooled, _ = run_sweep(TINY, workers=16)
    assert created == [len(list(TINY.cells()))] == [4]
    assert pooled == serial
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        run_sweep(TINY, workers=0)


def test_every_traced_name_is_a_program_attribute():
    """perfbench's `--trace 1` patches these attributes; a rename would break it."""
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tracing)
    for module_name, attr, _, _ in tracing._PATCHES:
        module = importlib.import_module(f"labelinfo.{module_name}")
        assert callable(getattr(module, attr, None)), f"labelinfo.{module_name}.{attr}"


def _sweep_row(**changes) -> dict:
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row.update({"n": 6, "k": 4, "d": 3, "kind": "sparse", "k_hat": 2, "epsilon": 0.0,
                "seed": 1, "rho": 0.5, "status": "ok"})
    row.update(changes)
    return row


@pytest.mark.parametrize("sweep_text, error", [
    (timings_to_csv([_sweep_row()], [0.1]), "KeyError: 'rho'"),
    (rows_to_csv([_sweep_row(n="abc")], SWEEP_COLUMNS), "ValueError: invalid literal"),
    (rows_to_csv([_sweep_row(kind="bogus")], SWEEP_COLUMNS), "'bogus' is not a valid"),
], ids=["timings_csv", "n_not_an_integer", "unknown_kind"])
def test_cli_tradeoff_malformed_sweep_csv_is_usage_error(tmp_path, capsys, sweep_text, error):
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text(sweep_text)
    cfg = _write_config(tmp_path, "t.json", {
        "sweep_csv": str(sweep_csv), "n": 6, "k": 4, "d": 3})
    out = tmp_path / "tr"
    assert main(["tradeoff", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad sweep CSV" in err and error in err
    assert not out.exists()


def test_cli_embed_constraints_path_that_is_not_a_string_is_usage_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, "embed.json", {"constraints_csv": 5})
    out = tmp_path / "out"
    assert main(["embed", "--config", cfg, "--out", str(out)]) == 2
    assert "cannot read constraints" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("header, row, error", [
    ("2,1", "0,1,99999999999999999999", "constraint row 2 is not three integer indices in [0, 3)"),
    ("2,1", "0,1,7", "constraint row 2 is not three integer indices in [0, 3)"),
    ("2,1", "0,1,-1", "constraint row 2"),
    ("2,1", "0,1", "constraint row 2"),
    ("2,1", "0,1,2,0", "constraint row 2"),
    ("2,1", "0,1,x", "constraint row 2"),
    ("2,1", "0,1.0,2", "constraint row 2"),
    ("-1,4", "0,1,2", "n and k must be >= 0"),
    ("2,-1", "0,1,2", "n and k must be >= 0"),
    ("2147483647,1", "0,1,2", "n=2147483647 k=1: 2147483648 items exceed the item limit of 800"),
    ("1000000,0", "0,1,2", "n=1000000 k=0: 1000000 items exceed the item limit of 800"),
    ("2,1", "0,1,2\n0,2,1", "n=2 k=1: 3 triplets exceed the row limit of 2"),
    ("2,1", "0,1,0", "constraint row 2 names an item twice; anchor, near and far must differ"),
    ("2,1", "1,2,2", "constraint row 2 names an item twice"),
], ids=["huge_index", "index_past_m", "negative_index", "two_fields", "four_fields",
        "not_a_number", "float_index", "negative_n", "negative_k", "m_past_int32",
        "m_past_item_limit", "rows_past_row_limit", "anchor_is_far", "near_is_far"])
def test_cli_embed_malformed_constraints_csv_is_usage_error(tmp_path, monkeypatch, capsys,
                                                           header, row, error):
    # every other case has two rows, so only the three-row set crosses this row limit
    monkeypatch.setattr(triplets, "MAX_ROWS", 2)
    constraints_csv = tmp_path / "constraints.csv"
    constraints_csv.write_text(f"n,k,source_kind,flip_rate\n{header},soft,0.0\n"
                               f"anchor,near,far\n1,0,2\n{row}\n")
    cfg = _write_config(tmp_path, "embed.json", {"constraints_csv": str(constraints_csv)})
    monkeypatch.setattr(cli, "solve", lambda *_: pytest.fail("solved a malformed set"))
    out = tmp_path / "out"
    assert main(["embed", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad constraints CSV" in err and error in err
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    ("simulate", {"sigma": True}, "sigma must be a number > 0"),
    ("simulate", {"sigma": "0.5"}, "sigma must be a number > 0"),
    ("simulate", {"epsilon_grid": [True]}, "flip rate must be a number in [0, 1]"),
    ("simulate", {"solver": {"lam": True}}, "lam must be a number > 0"),
    ("simulate", {"solver": {"margin": "1"}}, "margin must be a number > 0"),
    ("simulate", {"solver": {"tolerance": False}}, "tolerance must be a number > 0"),
    ("sparsity", {"sigma": True}, "sigma must be a number > 0"),
    ("embed", {"solver": {"lam": True}}, "lam must be a number > 0"),
    ("tradeoff", {"beta_grid": [True, 0.1]}, "beta must be a number >= 0"),
    ("tradeoff", {"beta_grid": ["0.1"]}, "beta must be a number >= 0"),
    # Python's json reads Infinity and NaN
    ("simulate", {"sigma": float("inf")}, "sigma must be a number > 0, got inf"),
    ("simulate", {"sigma": float("nan")}, "sigma must be a number > 0, got nan"),
    ("simulate", {"solver": {"lam": float("inf")}}, "lam must be a number > 0, got inf"),
    ("simulate", {"solver": {"tolerance": float("inf")}}, "tolerance must be a number > 0"),
    ("embed", {"solver": {"margin": float("inf")}}, "margin must be a number > 0, got inf"),
    ("tradeoff", {"beta_grid": [0.1, float("inf")]}, "beta must be a number >= 0, got inf"),
], ids=["sigma_bool", "sigma_str", "flip_rate_bool", "lam_bool", "margin_str",
        "tolerance_bool", "sparsity_sigma_bool",
        "embed_lam_bool", "beta_grid_bool", "beta_grid_str", "sigma_inf", "sigma_nan",
        "lam_inf", "tolerance_inf", "embed_margin_inf", "beta_grid_inf"])
def test_cli_real_config_values_reject_bools_and_non_numbers(tmp_path, capsys, command,
                                                             config, message):
    constraints_csv = tmp_path / "constraints.csv"
    constraints_csv.write_text(constraints_to_csv(
        mine_constraints(soft_labels(generate_dataset(n=4, k=3, d=3, seed=2)), 4)))
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text(rows_to_csv([_sweep_row()], SWEEP_COLUMNS))
    required = {"simulate": TINY.to_dict(), "sparsity": {"n": 3, "k": 3, "d": 3},
                "embed": {"constraints_csv": str(constraints_csv)},
                "tradeoff": {"sweep_csv": str(sweep_csv), "n": 6, "k": 4, "d": 3}}
    cfg = _write_config(tmp_path, "c.json", {**required[command], **config})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_tradeoff_writes_an_integer_beta_as_a_float(tmp_path):
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text(rows_to_csv([_sweep_row()], SWEEP_COLUMNS))
    cfg = _write_config(tmp_path, "t.json", {
        "sweep_csv": str(sweep_csv), "n": 6, "k": 4, "d": 3, "beta_grid": [0, 1]})
    out = tmp_path / "tr"
    assert main(["tradeoff", "--config", cfg, "--out", str(out)]) == 0
    table = _read_rows((out / "tradeoff.csv").read_text())
    assert [row["beta"] for row in table] == ["0.0", "1.0"]



def _dirs(tmp_path, *names):
    """Directories below tmp_path; the last, the working directory, is one level deeper, so a
    path relative to a sibling config directory does not resolve from it."""
    dirs = [tmp_path / name for name in names[:-1]] + [tmp_path / "cwd" / names[-1]]
    for path in dirs:
        path.mkdir(parents=True)
    return dirs


def test_cli_tradeoff_reads_a_relative_sweep_csv_from_its_config_directory(tmp_path,
                                                                           monkeypatch):
    runs, configs, elsewhere = _dirs(tmp_path, "runs", "configs", "elsewhere")
    (runs / "sweep.csv").write_text(rows_to_csv([_sweep_row()], SWEEP_COLUMNS))
    cfg = _write_config(configs, "t.json", {"sweep_csv": "../runs/sweep.csv",
                                            "n": 6, "k": 4, "d": 3, "beta_grid": [0.0, 0.1]})
    monkeypatch.chdir(elsewhere)  # ../runs is not there from the working directory
    for config_arg in ("../../configs/t.json", cfg):
        assert main(["tradeoff", "--config", config_arg, "--out", "tr"]) == 0
        table = _read_rows((elsewhere / "tr" / "tradeoff.csv").read_text())
        assert [(row["kind"], row["beta"]) for row in table] == [("sparse", "0.0"),
                                                                  ("sparse", "0.1")]
        manifest = json.loads((elsewhere / "tr" / "run_manifest.json").read_text())
        assert manifest["spec"]["sweep_csv"] == "../runs/sweep.csv"  # echoed as written
        # the manifest alone resolves it: its config names the file absolutely
        assert manifest["config"] == str(configs.resolve() / "t.json")
        resolved = Path(manifest["config"]).parent / manifest["spec"]["sweep_csv"]
        assert resolved.read_text() == (runs / "sweep.csv").read_text()


def test_cli_embed_reads_a_relative_constraints_csv_from_its_config_directory(tmp_path,
                                                                              monkeypatch):
    data, configs, elsewhere = _dirs(tmp_path, "data", "configs", "elsewhere")
    ds = generate_dataset(n=4, k=3, d=3, seed=2)
    (data / "constraints.csv").write_text(constraints_to_csv(
        mine_constraints(soft_labels(ds), ds.n)))
    solver = {"max_iterations": 50}
    absolute = _write_config(configs, "abs.json", {
        "constraints_csv": str(data / "constraints.csv"), "solver": solver})
    _write_config(configs, "rel.json", {"constraints_csv": "../data/constraints.csv",
                                        "solver": solver})
    monkeypatch.chdir(elsewhere)  # ../data is not there from the working directory
    assert main(["embed", "--config", absolute, "--out", "abs"]) == 0
    assert main(["embed", "--config", "../../configs/rel.json", "--out", "rel"]) == 0
    assert (elsewhere / "rel" / "gram.csv").read_bytes() == (
        elsewhere / "abs" / "gram.csv").read_bytes()


def _command_argv(tmp_path, command):
    """A small accepted run of `command`, without --out."""
    constraints_csv = tmp_path / "constraints.csv"
    constraints_csv.write_text(constraints_to_csv(
        mine_constraints(soft_labels(generate_dataset(n=4, k=3, d=3, seed=2)), 4)))
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text(rows_to_csv([_sweep_row()], SWEEP_COLUMNS))
    configs = {"simulate": TINY.to_dict(),
               "sparsity": {"n": 3, "k": 3, "d": 3, "k_hat_grid": [1], "reps": 1,
                            "solver": {"max_iterations": 50}},
               "analyze": {"n_grid": [3], "k_grid": [4]},
               "embed": {"constraints_csv": str(constraints_csv),
                         "solver": {"max_iterations": 50}},
               "tradeoff": {"sweep_csv": str(sweep_csv), "n": 6, "k": 4, "d": 3}}
    if command == "defaults":
        return [command]
    return [command, "--config", _write_config(tmp_path, f"{command}.json", configs[command])]


_COMMANDS = ("simulate", "sparsity", "analyze", "embed", "tradeoff", "defaults")


@pytest.mark.parametrize("command", _COMMANDS)
def test_cli_out_that_is_not_a_directory_is_usage_error(tmp_path, monkeypatch, capsys, command):
    argv = _command_argv(tmp_path, command)
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "run_sweep", lambda *_, **__: pytest.fail("ran a cell"))
        patch.setattr(cli, "solve", lambda *_: pytest.fail("solved"))
        assert main(argv + ["--out", str(blocker)]) == 2
        assert f"error: --out {blocker} is not a directory" in capsys.readouterr().err
        # a directory that cannot be made is caught before any work too
        assert main(argv + ["--out", str(blocker / "sub")]) == 2
        assert (f"error: --out {blocker / 'sub'} lies below {blocker}, not a directory"
                in capsys.readouterr().err)
        # a name the file system cannot hold raises OSError on the check itself
        assert main(argv + ["--out", str(tmp_path / ("x" * 300))]) == 2
        assert "error: cannot use --out: [Errno 36] File name too long" in capsys.readouterr().err
    assert blocker.read_text() == "keep"


def test_cli_manifest_is_written_by_every_command_but_defaults(tmp_path):
    for command in _COMMANDS:
        out = tmp_path / f"{command}-out"
        assert main(_command_argv(tmp_path, command) + ["--out", str(out)]) == 0
        if command == "defaults":
            assert sorted(p.name for p in out.iterdir()) == ["defaults.json"]
            continue
        manifest = json.loads((out / "run_manifest.json").read_text())
        workers = ["workers"] if command in ("simulate", "sparsity") else []
        assert list(manifest) == ["command", "tool_version", "config", "spec", *workers,
                                  "wall_time_seconds"]
        config = _command_argv(tmp_path, command)[2]
        assert manifest["config"] == str(Path(config).resolve())
        assert manifest["command"] == command
        assert manifest["tool_version"] == labelinfo.__version__


@pytest.mark.parametrize("grids, signal, message", [
    ({"k_grid": [3]}, {"kind": "sparse", "k_hat": 5},
     "signal sparse k_hat 5 exceeds the smallest k in k_grid, 3"),
    ({"k_grid": [6, 3]}, {"kind": "topclass", "k_hat": 5},
     "signal topclass k_hat 5 exceeds the smallest k in k_grid, 3"),
    ({"n_grid": [4, 2]}, {"kind": "topclass", "k_hat": 1},
     "signal topclass needs n >= 3, got n_grid value 2"),
    # the largest cell would mine and solve a set past a size limit
    ({"n_grid": [3, 100000], "k_grid": [2]}, {"kind": "soft"},
     "cell n=100000 k=2 hard: 100002 items exceed the item limit of 800"),
    ({"n_grid": [1], "k_grid": [800]}, {"kind": "soft"},
     "cell n=1 k=800 hard: 801 items exceed the item limit of 800"),
    ({"n_grid": [40], "k_grid": [700]}, {"kind": "soft"},
     "cell n=40 k=700 hard: 10332000 triplets exceed the row limit of 2500000"),
    ({"n_grid": [100], "k_grid": [100]}, {"kind": "pca", "k_hat": 2},
     "cell n=100 k=100 pca: 3940200 triplets exceed the row limit of 2500000"),
], ids=["sparse_k_hat", "topclass_k_hat", "topclass_n", "items_past_limit",
        "one_item_past_limit", "class_rows_past_limit", "pca_rows_past_limit"])
def test_sweep_rejects_partial_signals_the_grid_cannot_build(tmp_path, monkeypatch, capsys,
                                                            grids, signal, message):
    base = {"n_grid": [3], "k_grid": [4], "d_grid": [3], "reps": 1}
    config = {**base, **grids, "signals": [{"kind": "hard"}, signal]}
    with pytest.raises(ValueError, match=message):
        SweepSpec.from_dict(config)
    monkeypatch.setattr(sweep, "run_sweep", lambda *_, **__: pytest.fail("ran a cell"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_config(tmp_path, "c.json", config),
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    # PCA k_hat may exceed k, and a sparse label needs no third point
    SweepSpec.from_dict({**base, "k_grid": [3], "signals": [{"kind": "pca", "k_hat": 5}]})
    SweepSpec.from_dict({**base, "n_grid": [2], "signals": [{"kind": "sparse", "k_hat": 1}]})
    # a cell of exactly MAX_ITEMS items is accepted
    SweepSpec.from_dict({**base, "n_grid": [1], "k_grid": [triplets.MAX_ITEMS - 1],
                         "signals": [{"kind": "soft"}]})
