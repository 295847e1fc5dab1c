"""End-to-end command line checks: files written, exit codes, determinism."""

import dataclasses
import json
import logging
import math
import os
import re
import struct
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings
from hypothesis import strategies as st

import ddsim.dynamics
from ddsim import Trajectory, cli, config, effective
from ddsim.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main


def _write_cfg(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _propagate_cfg(**extra):
    cfg = {
        "mode": "propagate-rwa",
        "spectrum": {"delta": 0.0, "omega_exc": 2000.0},
        "pulses": {"amp0": 10.0, "amp1": 10.0, "omega0": 1900.0, "duration": 0.5},
        "integrator": {"save_points": 9},
    }
    cfg.update(extra)
    return cfg


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------


def test_validate_reports_ok(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _propagate_cfg())
    assert main(["validate", cfg_path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out == {"valid": True, "mode": "propagate-rwa"}


def test_validate_rejects_missing_section(tmp_path, capsys):
    cfg = _propagate_cfg()
    del cfg["pulses"]
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["validate", cfg_path]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"
    assert "pulses" in err["error"]["message"]


def test_validate_catches_semantic_problems(tmp_path, capsys):
    cfg = _propagate_cfg()
    cfg["spectrum"] = {"delta": 5.0, "omega_exc": 2.0}  # manifold below |1>
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["validate", cfg_path]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == EXIT_CONFIG


# ---------------------------------------------------------------------
# run: propagation
# ---------------------------------------------------------------------


def test_run_writes_trajectory_summary_manifest(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _propagate_cfg())
    out_dir = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out_dir)]) == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("run_manifest.json")

    traj = (out_dir / "run_trajectory.csv").read_text()
    lines = traj.strip().split("\n")
    assert lines[0] == "t,a0_re,a0_im,a1_re,a1_im,a2_re,a2_im,p0,p1,p2"
    assert len(lines) == 1 + 9  # header plus one row per save point

    summary = _read_json(out_dir / "run_summary.json")
    pops = summary["final_populations"]
    assert pops["p0"] + pops["p1"] + pops["manifold"] == pytest.approx(1.0, abs=1e-6)
    assert summary["norm_drift"] < 1e-6
    assert "regime" in summary and "polarization" in summary

    manifest = _read_json(out_dir / "run_manifest.json")
    assert manifest["package"] == "ddsim"
    assert manifest["mode"] == "propagate-rwa"
    assert manifest["config"]["pulses"]["amp0"] == 10.0
    assert sorted(manifest["outputs"]) == [
        "run_manifest.json",
        "run_summary.json",
        "run_trajectory.csv",
    ]


def test_trajectory_csv_layout():
    times = np.linspace(0.0, 4.0, 5)
    amps = np.zeros((5, 3), dtype=complex)
    amps[:, 0] = np.cos(times)
    amps[:, 1] = 1j * np.sin(times)
    traj = Trajectory(times=times, amplitudes=amps, frame="rwa")
    text = cli._trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,a0_re,a0_im,a1_re,a1_im,a2_re,a2_im,p0,p1,p2"
    assert len(lines) == 6
    data = np.loadtxt(text.split("\n"), delimiter=",", skiprows=1)
    assert data.shape == (5, 10)
    assert data[:, 0] == pytest.approx(traj.times)
    assert data[:, 4] == pytest.approx(np.sin(times))
    assert data[:, 7] == pytest.approx(traj.populations[:, 0])


_AWKWARD_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16,
                   123456789012345678.0, 1.0 / 3.0, 2.0**53 + 2.0, 1e-310, 0.1]


@pytest.mark.parametrize("rows", [
    [_AWKWARD_FLOATS, _AWKWARD_FLOATS[::-1]],
    # a sweep table: integer axis values ahead of the float results
    [[3, -7, 0.25, 1.0, *_AWKWARD_FLOATS[4:]], [2**60, 0, math.nan, 0.0, *_AWKWARD_FLOATS[:10]]],
    np.array([_AWKWARD_FLOATS, _AWKWARD_FLOATS[::-1]]),
    [],
])
def test_csv_text_writes_each_value_as_the_per_value_format(rows):
    header = [f"c{i}" for i in range(len(_AWKWARD_FLOATS))]
    old = "\n".join([",".join(header)] + [",".join(format(float(v), ".17g") for v in row) for row in rows]) + "\n"
    assert cli._csv_text(header, rows) == old


def _per_value_csv(header, rows):
    return "\n".join([",".join(header)] + [",".join(format(float(v), ".17g") for v in row) for row in rows]) + "\n"


# any float64 bit pattern: subnormals, NaNs of either sign and any payload, the infinities and both zeros
_ANY_DOUBLE = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308]),
)


@st.composite
def _tables(draw):
    n_cols = draw(st.integers(1, 9))
    row = st.lists(_ANY_DOUBLE, min_size=n_cols, max_size=n_cols)
    return [f"c{i}" for i in range(n_cols)], draw(st.lists(row, min_size=1, max_size=40))


@hypothesis_settings(max_examples=300)
@given(_tables())
def test_csv_text_matches_the_per_value_format_on_any_table(table):
    header, rows = table
    assert cli._csv_text(header, rows) == _per_value_csv(header, rows)


def _edge_corpus():
    """Values at every boundary the writer's fast path decides on, with their float64 neighbours."""
    centres = [float(f"1e{p}") for p in range(-323, 309)]  # every power of ten, 1e-323 being subnormal
    centres += [1e-5, 5e-5, 9.9999999999999995e-05, 1.5e-4, 1e16, 5e16, 99999999999999999.0, 1.5e17,  # k = -5/-4, 16/17
                2.0**53, 1e-280, 1e280, 2.2250738585072014e-308, 1.7976931348623157e308,
                1000000000000000.25, 123456789012345.625, 0.5, 2.5]  # the last four are exact ties
    values = [0.0, 5e-324, math.inf, math.nan]
    for c in centres:
        values += [c, math.nextafter(c, 0.0), math.nextafter(c, math.inf)]
    return values + [-v for v in values]


def test_csv_text_matches_the_per_value_format_on_the_edge_corpus():
    values = _edge_corpus()
    rows = [values[i:i + 7] for i in range(0, len(values) - 6, 7)]
    assert cli._csv_text([f"c{i}" for i in range(7)], rows) == _per_value_csv([f"c{i}" for i in range(7)], rows)


@pytest.mark.parametrize("value, text", [
    (99999999999999999.0, "1e+17"),  # parses to 1e17 itself
    (9.9999999999999995e-05, "9.9999999999999991e-05"),
    (1e-5, "1.0000000000000001e-05"),  # k = -5: exponent notation, two exponent digits
    (1e-4, "0.0001"),  # k = -4: fixed, trailing zeros dropped
    (1e16, "10000000000000000"),  # k = 16: fixed, no point
    (1.5e17, "1.5e+17"),  # k = 17: exponent notation
    (1e-100, "1e-100"),  # a three-digit exponent, and no point with nothing after it
    (1000000000000000.25, "1000000000000000.2"),  # an exact tie, to even
    (1e23, "9.9999999999999992e+22"),  # the double below a power of ten
    (-0.0, "-0"),
    (-math.nan, "nan"),
])
def test_csv_text_writes_the_pinned_texts(value, text):
    assert cli._csv_text(["v"], [[value]]) == f"v\n{text}\n"


def _unprovable(v):
    """True when a value's 17 digits cannot be proven from a product good to about 1e-14.

    That is: non-finite, subnormal or outside [1e-280, 1e280); a scaled value |v| 10^(16-k) within 2^-29 of a
    half-integer; or |v| within a relative 1e-15 of a power of ten it is not equal to.
    """
    a = abs(v)
    if a == 0:
        return False
    if not 1e-280 <= a < 1e280:  # NaN fails this too
        return True
    exact = Fraction(a)
    scaled = exact * Fraction(10) ** (16 - Decimal(a).adjusted())
    near_tie = abs(scaled - math.floor(scaled) - Fraction(1, 2)) <= Fraction(1, 2**29)
    near_decade = any(0 < abs(scaled / edge - 1) < Fraction(1, 10**15) for edge in (10**16, 10**17))
    return near_tie or near_decade


def test_only_unprovable_values_reach_the_python_fallback(monkeypatch):
    # without this a writer that quietly sent every value to CPython would pass every byte test
    seen = []
    python_text = cli._format_by_python

    def spy(values):
        seen.extend(values.tolist())
        return python_text(values)

    monkeypatch.setattr(cli, "_format_by_python", spy)
    # a model-check-like table: a 1001-point grid, populations down to 1e-20, deviations near 1e-12
    t = np.linspace(0.0, 40.0, 1001)
    p1 = np.sin(0.2 * t) ** 2
    manifold = 1e-3 * np.exp(-1.1 * t)
    model = np.sin(0.2 * t + 1e-7) ** 2
    table = np.column_stack((t, 1.0 - p1 - manifold, p1, manifold, 1.0 - model, model, 1e-12 * (1.5 + np.cos(t))))
    planted = [math.nan, -math.inf, 5e-324, 1e-300, 1e300, 1000000000000000.25, 0.0]
    rows = np.vstack((table, planted))
    header = [f"c{i}" for i in range(7)]
    assert cli._csv_text(header, rows) == _per_value_csv(header, rows)
    assert manifold.min() < 1e-20
    # exactly the planted values past 0.0, which is written directly, and none of the table's 7007
    assert [v for v in seen if v == v] == [v for v in planted if v == v and _unprovable(v)]  # NaN != NaN
    assert sum(v != v for v in seen) == 1


def test_reruns_are_byte_identical(tmp_path):
    cfg_path = _write_cfg(tmp_path, _propagate_cfg())
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        assert main(["run", cfg_path, "--out", str(d)]) == EXIT_OK
    first = (dirs[0] / "run_trajectory.csv").read_bytes()
    second = (dirs[1] / "run_trajectory.csv").read_bytes()
    assert first == second
    s1 = (dirs[0] / "run_summary.json").read_bytes()
    s2 = (dirs[1] / "run_summary.json").read_bytes()
    assert s1 == s2


def test_output_prefix_override(tmp_path):
    cfg = _propagate_cfg(output={"prefix": "alpha"})
    cfg_path = _write_cfg(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out_dir)]) == EXIT_OK
    assert (out_dir / "alpha_trajectory.csv").exists()
    assert (out_dir / "alpha_manifest.json").exists()


def test_seed_override_changes_jittered_manifold(tmp_path):
    cfg = _propagate_cfg(seed=1)
    cfg["spectrum"].update({"n_levels": 3, "jitter": 0.05})
    cfg["pulses"]["duration"] = 0.2
    cfg["integrator"]["save_points"] = 5
    cfg_path = _write_cfg(tmp_path, cfg)
    dirs = (tmp_path / "s1", tmp_path / "s2")
    assert main(["run", cfg_path, "--out", str(dirs[0]), "--seed", "1"]) == EXIT_OK
    assert main(["run", cfg_path, "--out", str(dirs[1]), "--seed", "2"]) == EXIT_OK
    a = (dirs[0] / "run_trajectory.csv").read_bytes()
    b = (dirs[1] / "run_trajectory.csv").read_bytes()
    assert a != b
    manifest = _read_json(dirs[1] / "run_manifest.json")
    assert manifest["config"]["seed"] == 2


@pytest.mark.parametrize("command", ["run", "compare"])
def test_seed_override_is_validated_before_compute(tmp_path, capsys, monkeypatch, command):
    # --seed -1 fails as a config file whose seed is -1 does: exit 2 with the schema's error, no compute, no files
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started before the seed was checked")

    for name in ("propagate_rwa", "propagate_averaged", "propagate_bare"):
        monkeypatch.setattr(cli, name, no_compute)
    cfg_path = _write_cfg(tmp_path, _propagate_cfg(seed=1))
    bad_path = _write_cfg(tmp_path, _propagate_cfg(seed=-1), "bad.json")
    out_dir = tmp_path / "out"
    assert main([command, cfg_path, "--out", str(out_dir), "--seed", "-1"]) == EXIT_CONFIG
    assert main([command, bad_path, "--out", str(out_dir)]) == EXIT_CONFIG
    assert not out_dir.exists()
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert errors[0] == errors[1] == {"error": {"type": "config", "exit_code": EXIT_CONFIG,
                                                "message": "config invalid at seed: -1 is less than the minimum of 0"}}


# ---------------------------------------------------------------------
# run: other modes
# ---------------------------------------------------------------------


def test_run_effective_writes_model_grid(tmp_path):
    cfg = _propagate_cfg()
    cfg["mode"] = "effective"
    cfg["spectrum"]["delta"] = 5.0
    cfg["pulses"].update({"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0})
    cfg["gate"] = {"target": "NOT"}
    cfg_path = _write_cfg(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out_dir)]) == EXIT_OK

    grid = (out_dir / "run_effective.csv").read_text().strip().split("\n")
    assert grid[0] == "t,f0,f1,theta,omega,e_plus,e_minus"
    assert len(grid) == 1 + 9

    summary = _read_json(out_dir / "run_summary.json")
    assert summary["lambda0"] == pytest.approx(-0.01)
    assert summary["rabi"] > 0
    assert summary["adiabaticity"]["passed"] is True
    assert "u01" in summary["gate_matrix"]
    sol = summary["gate_solution"]
    assert sol["target"] == "NOT"
    assert sol["predicted_fidelity"] >= 1 - 1e-9


def test_run_synthesize_gate_writes_solution(tmp_path):
    cfg = {
        "mode": "synthesize-gate",
        "spectrum": {"delta": 5.0, "omega_exc": 2000.0},
        "pulses": {"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0, "duration": 1.0},
        "gate": {"target": "NOT"},
    }
    cfg_path = _write_cfg(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out_dir)]) == EXIT_OK
    report = _read_json(out_dir / "run_gate.json")
    sol = report["solution"]
    assert sol["target"] == "NOT"
    assert sol["duration_ns"] > 0
    assert sol["delta_t_residual_rad"] < 1e-9
    assert sol["predicted_fidelity"] >= 1 - 1e-9
    assert report["effective_sums"]["lambda2"] != [0.0, 0.0]
    assert report["regime_labels"]


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_run_synthesize_diagonal_custom_gate(tmp_path, sign):
    # red-detuned pulses give negative light shifts, so Theta sits at pi
    # with the second pulse off; diag(e^{-i pi/4}, e^{i pi/4}) lies at 0
    cfg = {
        "mode": "synthesize-gate",
        "spectrum": {"delta": 5.0, "omega_exc": 2000.0},
        "pulses": {"amp0": 200.0, "amp1": 200.0, "omega0": 1905.0, "duration": 1.0},
        "gate": {
            "target": "CUSTOM",
            "custom_unitary": [[[0.5**0.5, sign * 0.5**0.5], [0.0, 0.0]],
                               [[0.0, 0.0], [0.5**0.5, -sign * 0.5**0.5]]],
        },
    }
    out_dir = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out_dir)]) == EXIT_OK
    report = _read_json(out_dir / "run_gate.json")
    assert report["effective_sums"]["lambda0"] < 0
    sol = report["solution"]
    assert sol["amplitude_ratio"] == 0.0
    assert sol["n"] == (1 if sign < 0 else 0)
    assert sol["predicted_fidelity"] >= 1 - 1e-12


def test_run_stirap_reports_transfer(tmp_path):
    cfg = {
        "mode": "stirap",
        "spectrum": {"delta": 0.0, "omega_exc": 2000.0},
        "pulses": {"amp0": 80.0, "amp1": 80.0, "omega0": 1900.0, "duration": 24.0},
        "stirap": {
            "ordering": "counterintuitive",
            "delay": 3.0,
            "envelope": {"shape": "gaussian", "width": 1.5},
        },
        "integrator": {"save_points": 25},
    }
    cfg_path = _write_cfg(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out_dir)]) == EXIT_OK
    summary = _read_json(out_dir / "run_summary.json")
    assert summary["ordering"] == "counterintuitive"
    assert 0.0 <= summary["transfer_probability"] <= 1.0
    assert summary["overlap"] > 0
    assert (out_dir / "run_trajectory.csv").exists()


def test_sweep_grid_and_parallel_determinism(tmp_path):
    cfg = {
        "mode": "sweep",
        "spectrum": {"delta": 5.0, "omega_exc": 2000.0},
        "pulses": {"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0, "duration": 1.0},
        "sweep": {
            "mode": "effective",
            "axes": [{"path": "pulses.amp0", "start": 10.0, "stop": 30.0, "steps": 3}],
        },
    }
    cfg_path = _write_cfg(tmp_path, cfg)
    dirs = (tmp_path / "serial", tmp_path / "parallel")
    assert main(["run", cfg_path, "--out", str(dirs[0]), "--jobs", "1"]) == EXIT_OK
    assert main(["run", cfg_path, "--out", str(dirs[1]), "--jobs", "2"]) == EXIT_OK

    serial = (dirs[0] / "run_sweep.csv").read_text()
    parallel = (dirs[1] / "run_sweep.csv").read_text()
    assert serial == parallel

    lines = serial.strip().split("\n")
    assert lines[0] == "pulses.amp0,p0,p1,rabi_uev,adiabatic"
    assert len(lines) == 1 + 3
    amps = [float(line.split(",")[0]) for line in lines[1:]]
    assert amps == [10.0, 20.0, 30.0]

    summary = _read_json(dirs[0] / "run_summary.json")
    assert summary["n_points"] == 3
    assert summary["sub_mode"] == "effective"


def _rwa_sweep_cfg(axes):
    cfg = _propagate_cfg(mode="sweep", seed=3)
    cfg["spectrum"].update({"n_levels": 3, "jitter": 0.05})
    cfg["pulses"]["duration"] = 0.2
    cfg["integrator"]["save_points"] = 5
    cfg["sweep"] = {"mode": "propagate-rwa", "axes": axes}
    return cfg


@pytest.mark.parametrize("sub_mode", ["propagate-rwa", "propagate-averaged", "propagate-bare", "effective"])
def test_sweep_points_share_only_what_no_build_changes(sub_mode):
    # each point copies only the dicts its overrides set, so the builders must leave the config they read, and
    # every other point sharing its sections, as they found them
    axes = [{"path": "pulses.amp0", "start": 10.0, "stop": 20.0, "steps": 2},
            {"path": "spectrum.delta", "start": 5.0, "stop": 6.0, "steps": 2},
            {"path": "integrator.save_points", "start": 5, "stop": 7, "steps": 2}]
    cfg = _rwa_sweep_cfg(axes)
    cfg["sweep"]["mode"] = sub_mode
    cfg["initial_state"] = {"alpha": [0.6, 0.0], "beta": [0.0, 0.8]}
    cfg["pulses"]["envelope0"] = {"shape": "sin2", "width": 0.15}
    cfg["pulses"]["envelope1"] = {"shape": "trapezoid", "ramp": 0.04}
    before = json.loads(json.dumps(cfg))
    points = [config.config_with_overrides(cfg, pt) for pt in config.sweep_points(cfg["sweep"])]
    expected = [json.loads(json.dumps(point)) for point in points]
    assert [point["pulses"]["amp0"] for point in points] == [10.0] * 4 + [20.0] * 4
    assert points[0]["pulses"]["envelope0"] is cfg["pulses"]["envelope0"]  # shared, not copied
    for point in points:
        cli._build({**point, "mode": sub_mode})
    cli._dry_run(cfg)
    assert cfg == before
    assert points == expected


def test_propagate_sweep_rows_match_single_runs(tmp_path):
    axes = [{"path": "pulses.amp0", "start": 10.0, "stop": 20.0, "steps": 2}]
    cfg = _rwa_sweep_cfg(axes)
    out_dir = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out_dir)]) == EXIT_OK
    lines = (out_dir / "run_sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "pulses.amp0,p0,p1,p_manifold,norm_drift"
    assert len(lines) == 1 + 2

    for line in lines[1:]:
        amp0, p0, p1, manifold, drift = (float(v) for v in line.split(","))
        single = dict(cfg, mode="propagate-rwa")
        del single["sweep"]
        single["pulses"] = dict(cfg["pulses"], amp0=amp0)
        single_dir = tmp_path / f"single_{amp0}"
        assert main(["run", _write_cfg(tmp_path, single, "single.json"), "--out", str(single_dir)]) == EXIT_OK
        summary = _read_json(single_dir / "single_summary.json")
        assert summary["final_populations"] == {"p0": p0, "p1": p1, "manifold": manifold}
        assert summary["norm_drift"] == drift


@pytest.mark.parametrize("path, start, stop", [
    ("spectrum.seed", 1, 2),
    ("integrator.save_points", 3, 5),
])
def test_sweep_over_integer_field(tmp_path, path, start, stop):
    axes = [{"path": path, "start": start, "stop": stop, "steps": 2}]
    out_dir = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, _rwa_sweep_cfg(axes)), "--out", str(out_dir)]) == EXIT_OK
    lines = (out_dir / "run_sweep.csv").read_text().strip().split("\n")
    assert [line.split(",")[0] for line in lines[1:]] == [str(start), str(stop)]


def test_out_of_range_sweep_axis_fails_before_compute(tmp_path, capsys):
    axes = [{"path": "pulses.amp0", "start": 10.0, "stop": -10.0, "steps": 3}]
    cfg_path = _write_cfg(tmp_path, _rwa_sweep_cfg(axes))
    assert main(["validate", cfg_path]) == EXIT_CONFIG
    out_dir = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out_dir)]) == EXIT_CONFIG
    assert not out_dir.exists()
    err = capsys.readouterr().err.strip().split("\n")
    assert "pulses.amp0" in json.loads(err[-1])["error"]["message"]


_STIRAP_EDGES_CFG = {
    "mode": "stirap",
    "spectrum": {"delta": 0.0, "omega_exc": 2000.0},
    "pulses": {"amp0": 80.0, "amp1": 80.0, "omega0": 1900.0, "duration": 20.0},
    "stirap": {
        "ordering": "counterintuitive",
        "delay": 4.0,
        "envelope": {"shape": "gaussian", "width": 3.0},
    },
}


@pytest.mark.parametrize("cfg, message", [
    # the last sweep point puts the qubit splitting above the manifold
    (_rwa_sweep_cfg([{"path": "spectrum.delta", "start": 5.0, "stop": 2500.0, "steps": 3}]),
     "must exceed the qubit splitting"),
    # the shifted gaussians are still on at the window edges
    (_STIRAP_EDGES_CFG, "stirap envelopes: envelope0 does not vanish"),
    # a trapezoid without ramps, as under `pulses`
    ({**_STIRAP_EDGES_CFG, "stirap": {**_STIRAP_EDGES_CFG["stirap"],
                                      "envelope": {"shape": "trapezoid", "width": 10.0, "ramp": 0.0}}},
     "stirap envelopes: trapezoid envelope needs ramp > 0"),
    # pulses delayed by twice their width
    ({**_STIRAP_EDGES_CFG, "stirap": {**_STIRAP_EDGES_CFG["stirap"], "delay": 12.0,
                                      "envelope": {"shape": "sin2", "width": 6.0}}},
     "stirap envelopes: shifted envelopes barely overlap"),
])
def test_semantic_problem_fails_before_compute(tmp_path, capsys, monkeypatch, cfg, message):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started before the config was checked")

    for name in ("propagate_rwa", "propagate_averaged", "propagate_bare"):
        monkeypatch.setattr(cli, name, no_compute)
    monkeypatch.setattr(effective, "_cumulative_integrals", no_compute)
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["validate", cfg_path]) == EXIT_CONFIG
    out_dir = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out_dir)]) == EXIT_CONFIG
    assert not out_dir.exists()
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert len(errors) == 2
    assert all(message in err["error"]["message"] for err in errors)


# ---------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------


@pytest.mark.parametrize("tier", ["rwa", "averaged", "bare"])
def test_compare_exact_against_model(tmp_path, tier):
    cfg = {
        "mode": "propagate-rwa",
        "spectrum": {"delta": 2000.0, "omega_exc": 2500.0},
        "pulses": {"amp0": 20.0, "amp1": 20.0, "omega0": 4400.0, "duration": 0.5},
        "integrator": {"save_points": 21},
    }
    if tier != "rwa":  # rwa is the default exact tier
        cfg["compare"] = {"exact_tier": tier}
    if tier == "bare":
        # the bare tier resolves the carrier, so it gets a low one; the
        # drive and detuning shrink with it to keep lambda/delta at 0.01
        cfg["spectrum"] = {"delta": 100.0, "omega_exc": 150.0}
        cfg["pulses"].update({"amp0": 2.0, "amp1": 2.0, "omega0": 240.0})
    cfg_path = _write_cfg(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main(["compare", cfg_path, "--out", str(out_dir)]) == EXIT_OK

    summary = _read_json(out_dir / "run_summary.json")
    assert summary["exact_tier"] == tier
    assert summary["coupling_over_detuning"] == pytest.approx(0.01)
    assert summary["within_bound"] is True
    assert summary["max_population_deviation"] <= summary["deviation_bound"]

    table = (out_dir / "run_compare.csv").read_text().strip().split("\n")
    assert table[0] == "t,p0_exact,p1_exact,p_manifold_exact,p0_model,p1_model,deviation"
    assert len(table) == 1 + 21

    manifest = _read_json(out_dir / "run_manifest.json")
    assert manifest["command"] == "compare"


# ---------------------------------------------------------------------
# each config is built once
# ---------------------------------------------------------------------


def _gated_cfg(mode):
    return {
        "mode": mode,
        "spectrum": {"delta": 5.0, "omega_exc": 2000.0},
        "pulses": {"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0, "duration": 1.0},
        "integrator": {"save_points": 9},
        "gate": {"target": "NOT"},
    }


_BUILD_ONCE_CASES = {
    "run-propagate-rwa": ("run", _propagate_cfg(), 1),
    "run-propagate-averaged": ("run", _gated_cfg("propagate-averaged"), 1),
    "run-propagate-bare": ("run", {
        "mode": "propagate-bare",
        "spectrum": {"delta": 100.0, "omega_exc": 150.0},
        "pulses": {"amp0": 2.0, "amp1": 2.0, "omega0": 240.0, "duration": 0.2},
        "integrator": {"save_points": 5},
    }, 1),
    "run-effective": ("run", _gated_cfg("effective"), 1),
    "run-synthesize-gate": ("run", _gated_cfg("synthesize-gate"), 1),
    "run-stirap": ("run", {
        "mode": "stirap",
        "spectrum": {"delta": 0.0, "omega_exc": 2000.0},
        "pulses": {"amp0": 80.0, "amp1": 80.0, "omega0": 1900.0, "duration": 2.4},
        "stirap": {
            "ordering": "counterintuitive",
            "delay": 0.3,
            "envelope": {"shape": "gaussian", "width": 0.15},
        },
        "integrator": {"save_points": 5},
    }, 1),
    "compare": ("compare", _propagate_cfg(), 1),
    "run-sweep": ("run", _rwa_sweep_cfg([{"path": "pulses.amp0", "start": 10.0, "stop": 20.0, "steps": 2}]), 2),
    "validate": ("validate", _propagate_cfg(), 1),
}


@pytest.mark.parametrize("command, cfg, points", _BUILD_ONCE_CASES.values(), ids=_BUILD_ONCE_CASES)
def test_each_config_is_built_once(tmp_path, monkeypatch, capsys, command, cfg, points):
    calls = []
    build = cli.build_spectrum_model

    def counted(sub_cfg):
        calls.append(sub_cfg)
        return build(sub_cfg)

    monkeypatch.setattr(cli, "build_spectrum_model", counted)
    argv = [command, _write_cfg(tmp_path, cfg)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out"), *(["--jobs", "1"] if command == "run" else [])]
    assert main(argv) == EXIT_OK
    assert len(calls) == points
    capsys.readouterr()


# ---------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------


@pytest.mark.parametrize("text", [
    "{not json",
    '{"mode": "propagate-rwa", "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
    '{"mode": "propagate-rwa", "seed": ' + "1" * 5000 + "}",
], ids=["broken", "nested-100000-deep", "integer-of-5000-digits"])
def test_broken_json_exits_config(tmp_path, capsys, text):
    path = tmp_path / "broken.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert [err["error"]["type"] for err in errors] == ["config", "config"]
    assert all("not valid JSON" in err["error"]["message"] for err in errors)


# json writes these floats as NaN, Infinity and -Infinity, which json also reads; an integer too large for a
# float is the digit spelling of what 1e400 reads as
@pytest.mark.parametrize("section, field, value", [
    ("integrator", "tol", math.nan),
    ("integrator", "tol", math.inf),
    ("pulses", "duration", math.inf),
    ("pulses", "phi0", -math.inf),
    ("spectrum", "dipole0", math.nan),
    ("pulses", "amp0", 10**400),
    ("spectrum", "spacing", 10**400),
])
def test_non_finite_number_exits_config(tmp_path, capsys, section, field, value):
    cfg = _propagate_cfg()
    cfg[section][field] = value
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["validate", cfg_path]) == EXIT_CONFIG
    out_dir = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out_dir)]) == EXIT_CONFIG
    assert not out_dir.exists()
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert len(errors) == 2
    problem = "integer beyond the float range" if isinstance(value, int) else f"non-finite number {json.dumps(value)}"
    assert all(f"at {section}/{field}: {problem} is not allowed" in err["error"]["message"] for err in errors)


# keys of former integrators: one engine takes one tolerance, tol = atol + rtol, and its
# step-doubling estimate, not a step cap or a norm bound, guards accuracy
@pytest.mark.parametrize("key, value", [
    ("method", "adaptive"), ("norm_tol", 1e-6), ("rtol", 1e-10), ("atol", 1e-12), ("max_step", 0.01),
])
def test_removed_integrator_key_exits_config_before_compute(tmp_path, capsys, monkeypatch, key, value):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started before the config was checked")

    for name in ("propagate_rwa", "propagate_averaged", "propagate_bare"):
        monkeypatch.setattr(cli, name, no_compute)
    cfg_path = _write_cfg(tmp_path, _propagate_cfg(mode="propagate-bare", integrator={key: value}))
    out_dir = tmp_path / "out"
    assert main(["validate", cfg_path]) == EXIT_CONFIG
    assert main(["run", cfg_path, "--out", str(out_dir)]) == EXIT_CONFIG
    assert not out_dir.exists()
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert len(errors) == 2
    assert all(f"'{key}' was unexpected" in err["error"]["message"] for err in errors)


def _integral_float_cases():
    """(config, path to an integer field) per integer field whose float spelling used to crash a command."""
    jittered = _propagate_cfg(spectrum={"delta": 0.0, "omega_exc": 2000.0, "n_levels": 3, "jitter": 0.1})
    gate = {
        "mode": "synthesize-gate",
        "spectrum": {"delta": 5.0, "omega_exc": 2000.0},
        "pulses": {"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0, "duration": 1.0},
        "gate": {"target": "NOT", "l_max": 64},
    }
    sweep = _rwa_sweep_cfg([{"path": "pulses.amp0", "start": 5.0, "stop": 10.0, "steps": 2}])
    return {
        "integrator.save_points": (_propagate_cfg(), ("integrator", "save_points")),
        "gate.l_max": (gate, ("gate", "l_max")),
        "seed": ({**jittered, "seed": 3}, ("seed",)),
        "spectrum.seed": ({**jittered, "spectrum": {**jittered["spectrum"], "seed": 3}}, ("spectrum", "seed")),
        "sweep.axes.steps": (sweep, ("sweep", "axes", 0, "steps")),
    }


def _with_value(cfg, path, value):
    out = json.loads(json.dumps(cfg))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


# JSON Schema counts 5.0 as an integer: such a config runs as its int spelling, byte for byte
@pytest.mark.parametrize("cfg, path", _integral_float_cases().values(), ids=_integral_float_cases())
def test_integral_float_in_an_integer_field_runs_as_its_int(tmp_path, capsys, cfg, path):
    node = cfg
    for key in path:
        node = node[key]
    outputs = []
    for spelling, value in (("int", node), ("float", float(node))):
        (tmp_path / spelling).mkdir()
        cfg_path = _write_cfg(tmp_path / spelling, _with_value(cfg, path, value))
        assert main(["validate", cfg_path]) == EXIT_OK
        out_dir = tmp_path / spelling / "out"
        assert main(["run", cfg_path, "--out", str(out_dir)]) == EXIT_OK
        files = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
        manifest = json.loads(files.pop("run_manifest.json"))
        assert manifest.pop("elapsed_s") >= 0.0
        outputs.append((files, manifest))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]["config"] == _with_value(cfg, path, node)
    assert capsys.readouterr().err == ""
    # a non-integral value still fails the schema check
    cfg_path = _write_cfg(tmp_path, _with_value(cfg, path, node + 0.5))
    assert main(["validate", cfg_path]) == EXIT_CONFIG
    assert main(["run", cfg_path, "--out", str(tmp_path / "half")]) == EXIT_CONFIG
    assert not (tmp_path / "half").exists()
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert [err["error"]["type"] for err in errors] == ["config", "config"]


def test_unsatisfiable_gate_exits_numeric(tmp_path, capsys):
    cfg = {
        "mode": "synthesize-gate",
        "spectrum": {"delta": 5.0, "omega_exc": 2000.0},
        "pulses": {"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0, "duration": 1.0},
        "gate": {"target": "NOT", "l_max": 1, "k_max": 0, "scale_bounds": [0.99, 1.01]},
    }
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "numeric"


def test_magnus_estimate_above_tolerance_exits_numeric_without_files(tmp_path, capsys, monkeypatch):
    # README's minimal propagation config: sin2 pulses take Magnus steps in the rwa tier, and with
    # no halving allowed its first estimate (1.5e-12) stays above the tolerance (1.7e-13)
    monkeypatch.setattr(ddsim.dynamics, "_MAGNUS_MAX_HALVINGS", 0)
    cfg = {
        "mode": "propagate-rwa",
        "spectrum": {"n_levels": 3, "shape": "uniform", "omega_exc": 2000.0, "spacing": 20.0,
                     "delta": 5.0, "dipole0": 2.0, "dipole1": 2.0},
        "pulses": {"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0, "duration": 1.0,
                   "envelope0": {"shape": "sin2"}, "envelope1": {"shape": "sin2"}},
        "integrator": {"tol": 1.01e-14, "save_points": 2},
    }
    out_dir = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, cfg, "mini.json"), "--out", str(out_dir)]) == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "numeric"
    assert err["error"]["message"].startswith("Magnus error estimate")
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_missing_config_exits_io(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == EXIT_IO
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "io"


def test_failed_write_leaves_no_partial_files(tmp_path, capsys):
    # README's minimal propagation config; a directory takes the summary's path
    cfg = {
        "mode": "propagate-rwa",
        "spectrum": {"n_levels": 3, "shape": "uniform", "omega_exc": 2000.0, "spacing": 20.0,
                     "delta": 5.0, "dipole0": 2.0, "dipole1": 2.0},
        "pulses": {"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0, "duration": 1.0,
                   "envelope0": {"shape": "sin2"}, "envelope1": {"shape": "sin2"}},
    }
    out_dir = tmp_path / "out"
    (out_dir / "mini_summary.json").mkdir(parents=True)
    (out_dir / "other.txt").write_text("kept")
    assert main(["run", _write_cfg(tmp_path, cfg, "mini.json"), "--out", str(out_dir)]) == EXIT_IO
    assert sorted(p.name for p in out_dir.iterdir()) == ["mini_summary.json", "other.txt"]
    assert (out_dir / "mini_summary.json").is_dir()
    assert (out_dir / "other.txt").read_text() == "kept"
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "io"


def test_rejects_nonpositive_jobs(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _propagate_cfg())
    assert main(["run", cfg_path, "--jobs", "0"]) == EXIT_CONFIG
    capsys.readouterr()


# ---------------------------------------------------------------------
# process-level behavior
# ---------------------------------------------------------------------


_NO_JSONSCHEMA_SCRIPT = r"""
import json, pathlib, re, sys
sys.modules["jsonschema"] = None  # any import of it fails
from ddsim.cli import main

readme, out = map(pathlib.Path, sys.argv[1:])
block = re.search(r"A minimal propagation config:\s*```json\n(.*?)```", readme.read_text(), re.S).group(1)
(out / "minimal.json").write_text(block)
assert main(["validate", str(out / "minimal.json")]) == 0
assert main(["run", str(out / "minimal.json"), "--out", str(out / "run")]) == 0
bad = json.loads(block)
bad["pulses"]["duration"] = 0
(out / "bad.json").write_text(json.dumps(bad))
assert main(["run", str(out / "bad.json"), "--out", str(out / "bad")]) == 2
assert sys.modules.pop("jsonschema") is None
assert not [name for name in sys.modules if name.split(".")[0] == "jsonschema"]
"""


def test_cli_runs_without_jsonschema(tmp_path):
    src = Path(config.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    readme = Path(__file__).resolve().parents[1] / "README.md"
    proc = subprocess.run([sys.executable, "-c", _NO_JSONSCHEMA_SCRIPT, str(readme), str(tmp_path)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "minimal_trajectory.csv").stat().st_size > 0
    assert not (tmp_path / "bad").exists()
    errors = [json.loads(line) for line in proc.stderr.splitlines() if line.startswith("{")]
    message = "config invalid at pulses/duration: 0 is less than or equal to the minimum of 0"
    assert errors == [{"error": {"type": "config", "message": message, "exit_code": EXIT_CONFIG}}]


def test_module_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "ddsim", "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ddsim ")


# README's spectrum under pulses that take each fast path of the engine
_README_SPECTRUM = {"n_levels": 3, "shape": "uniform", "omega_exc": 2000.0, "spacing": 20.0, "delta": 5.0,
                    "dipole0": 2.0, "dipole1": 2.0}
_FLAT = {"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0, "envelope0": {"shape": "constant"},
         "envelope1": {"shape": "constant"}}
_SIN2_20 = {"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0, "duration": 20.0,
            "envelope0": {"shape": "sin2", "center": 10.0, "width": 18.0},
            "envelope1": {"shape": "sin2", "center": 10.0, "width": 18.0}}
_SIN2_025 = {"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0, "duration": 0.25,
             "envelope0": {"shape": "sin2", "center": 0.125, "width": 0.25},
             "envelope1": {"shape": "sin2", "center": 0.125, "width": 0.25}}
_BEAT_WINDOW = 2.4814006179624018  # exactly 3 beat periods at Delta = 5 ueV


@pytest.mark.parametrize("mode, pulses, save_points, expect", [
    # constant pulses with a beat: one eigendecomposition of the Floquet matrix over harmonics -N..N gives every
    # saved state
    pytest.param("propagate-rwa", {**_FLAT, "duration": _BEAT_WINDOW}, 2,
                 r"rwa propagation: Floquet matrix over harmonics -(\d+)\.\.\1, dimension \d+, at 2 saved times"
                 r", error estimate \S+ \(tolerance \S+\)$", id="beat"),
    # the same pulses in the averaged tier: no beat is left, so the generator is constant, and its Floquet matrix
    # over harmonic 0 alone, one eigendecomposition, gives every saved state
    pytest.param("propagate-averaged", {**_FLAT, "duration": _BEAT_WINDOW}, 2,
                 r"averaged propagation: Floquet matrix over harmonics -0\.\.0, dimension 5, at 2 saved times, "
                 r"error estimate \S+ \(tolerance \S+\)$", id="beat_averaged"),
    # pulse 1 off, as in the paper's phase gate: turning qubit level 1 at the beat takes the beat off the crossed
    # coupling and leaves one constant envelope, so the rwa run's generator is constant too
    pytest.param("propagate-rwa", {**_FLAT, "amp1": 0, "duration": _BEAT_WINDOW}, 2,
                 r"rwa propagation: Floquet matrix over harmonics -0\.\.0, dimension 5, at 2 saved times, "
                 r"error estimate \S+ \(tolerance \S+\)$", id="single"),
    # one sin2 pulse shape centred in the window, averaged tier, at the default 201 save points: the run integrates
    # the first half of the window and takes the second by time reversal
    pytest.param("propagate-averaged", _SIN2_20, None,
                 r"averaged propagation: magnus \(one envelope\) over .*; second half by time reversal", id="mirrored"),
    # 200 save points leave no saved time in the middle of the window: the whole window is integrated
    pytest.param("propagate-averaged", _SIN2_20, 200, r"averaged propagation: magnus \(one envelope\) over ",
                 id="mirrored_even"),
    # the centred sin2 pulse alone in the rwa tier: one shaped envelope left, so the one-envelope basis serves, and
    # the 201 save points mirror
    pytest.param("propagate-rwa", {**_SIN2_20, "amp1": 0}, None,
                 r"rwa propagation: magnus \(one envelope\) over .*; second half by time reversal", id="single_sin2"),
    # two sin2 pulses in the bare tier: with qubit level 1 turned at the splitting the generator is the
    # instantaneous field on the dipoles, one term, so the run takes the one-envelope basis
    pytest.param("propagate-bare", _SIN2_025, 5, r"bare propagation: magnus \(one envelope\) over ", id="bare"),
    # the same two shaped pulses in the rwa tier at Delta = 5 ueV: their crossed couplings carry the beat, so the
    # run takes the alpha path, logged as plain "magnus"
    pytest.param("propagate-rwa", _SIN2_025, 5, r"rwa propagation: magnus over ", id="shaped_beat"),
])
def test_each_fast_path_logs_its_line(tmp_path, caplog, monkeypatch, mode, pulses, save_points, expect):
    cfg = {"mode": mode, "spectrum": _README_SPECTRUM, "pulses": pulses}
    if save_points is not None:
        cfg["integrator"] = {"save_points": save_points}
    monkeypatch.setenv("DDSIM_LOG", "INFO")
    with caplog.at_level(logging.INFO, logger="ddsim"):
        assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    messages = [r.getMessage() for r in caplog.records if r.name == "ddsim.dynamics"]
    assert len([m for m in messages if re.match(expect, m)]) == 1
    # only a mirrored run takes its second half by time reversal
    assert any("time reversal" in m for m in messages) == ("time reversal" in expect)


@pytest.mark.parametrize("mode, pulses", [
    ("propagate-rwa", {**_FLAT, "amp1": 0, "duration": _BEAT_WINDOW}),  # one pulse off, as in a PHASE gate
    ("propagate-averaged", {**_FLAT, "duration": _BEAT_WINDOW}),
    pytest.param("propagate-rwa", {**_FLAT, "duration": _BEAT_WINDOW}, id="propagate-rwa-beat"),  # both pulses on
])
def test_non_finite_coupling_of_a_constant_run_exits_numeric_without_files(tmp_path, capsys, monkeypatch, mode,
                                                                          pulses):
    # the config path rejects non-finite numbers, so the NaN is planted in the derived couplings: constant pulses,
    # with a beat or without one, check their Floquet matrix before its eigendecomposition
    derive = cli.derive_couplings

    def planted(*args):
        couplings = derive(*args)
        return dataclasses.replace(couplings, lambda0=np.where(np.arange(couplings.n_levels) == 1, math.nan,
                                                               couplings.lambda0))

    monkeypatch.setattr(cli, "derive_couplings", planted)
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: pytest.fail("eigh called"))
    out_dir = tmp_path / "out"
    cfg = {"mode": mode, "spectrum": _README_SPECTRUM, "pulses": pulses, "integrator": {"save_points": 5}}
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out_dir)]) == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "numeric" and "are the couplings finite" in err["error"]["message"]
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_run_effective_under_two_envelopes_writes_its_files(tmp_path):
    # README's spectrum under two different sin2 pulses: the one effective-model path that still integrates the
    # dressed phase Omega by quadrature
    cfg = {"mode": "effective", "spectrum": _README_SPECTRUM,
           "pulses": {"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0, "duration": 1.0,
                      "envelope0": {"shape": "sin2", "center": 0.45, "width": 0.8},
                      "envelope1": {"shape": "sin2", "center": 0.55, "width": 0.8}}}
    out_dir = tmp_path / "two_envelopes"
    assert main(["run", _write_cfg(tmp_path, cfg, "two_envelopes.json"), "--out", str(out_dir)]) == EXIT_OK
    for suffix in ("effective.csv", "summary.json", "manifest.json"):
        assert (out_dir / f"two_envelopes_{suffix}").stat().st_size > 0


def test_log_env_variable_enables_info_logging(tmp_path):
    cfg = {
        "mode": "sweep",
        "spectrum": {"delta": 5.0, "omega_exc": 2000.0},
        "pulses": {"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0, "duration": 1.0},
        "sweep": {
            "mode": "effective",
            "axes": [{"path": "pulses.amp0", "start": 10.0, "stop": 30.0, "steps": 3}],
        },
    }
    cfg_path = _write_cfg(tmp_path, cfg)
    env = dict(os.environ, DDSIM_LOG="INFO")
    proc = subprocess.run(
        [sys.executable, "-m", "ddsim", "run", cfg_path, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert "sweep: 3 points" in proc.stderr


# README's minimal propagation config
_MINIMAL = {"mode": "propagate-rwa", "spectrum": _README_SPECTRUM,
            "pulses": {"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0, "duration": 1.0,
                       "envelope0": {"shape": "sin2"}, "envelope1": {"shape": "sin2"}}}


@pytest.mark.parametrize("levels", [("WARNING", "INFO"), ("INFO", "WARNING")])
def test_each_main_call_applies_ddsim_log(tmp_path, caplog, monkeypatch, levels):
    # logging.basicConfig configures the root logger once per process (under pytest, never), so each call sets
    # the ddsim logger's level from DDSIM_LOG itself: only the INFO call logs its propagation
    cfg_path = _write_cfg(tmp_path, _MINIMAL)
    logged = []
    for level in levels:
        monkeypatch.setenv("DDSIM_LOG", level)
        caplog.clear()
        assert main(["run", cfg_path, "--out", str(tmp_path / level)]) == EXIT_OK
        logged.append(any(r.name == "ddsim.dynamics" and r.levelno == logging.INFO for r in caplog.records))
    assert logged == [level == "INFO" for level in levels]


def test_ddsim_log_that_names_no_level_falls_back_to_warning(tmp_path, monkeypatch):
    # logging.BASIC_FORMAT is a string, not a level
    monkeypatch.setenv("DDSIM_LOG", "basic_format")
    assert main(["validate", _write_cfg(tmp_path, _MINIMAL)]) == EXIT_OK
    assert logging.getLogger("ddsim").level == logging.WARNING


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
    cli._main_parser.cache_clear()
    cfg_path = _write_cfg(tmp_path, _MINIMAL)
    for _ in range(2):
        assert main(["validate", cfg_path]) == EXIT_OK
    assert len(built) == 1
    # build_parser itself returns a fresh parser on each call
    assert build() is not build()
