"""End-to-end command line checks: files written, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ddsim import Trajectory, cli, effective
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
])
def test_semantic_problem_fails_before_compute(tmp_path, capsys, monkeypatch, cfg, message):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started before the config was checked")

    for name in ("propagate_rwa", "propagate_averaged", "propagate_bare"):
        monkeypatch.setattr(cli, name, no_compute)
    monkeypatch.setattr(effective, "quad", no_compute)
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


def test_broken_json_exits_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"


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


def test_module_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "ddsim", "--version"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ddsim ")


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
