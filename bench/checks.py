"""Expected outputs (from `reference`) and the per-operation checks.

`expected(op)` runs outside every timed region and its result is cached
per seed as JSON.  `check(op, output, exp)` compares what one operation
produced against it and returns (ok, amp_err, model_err):

* exact-tier amplitudes, or the populations a CLI file reports, within
  AMP_TOL of the DOP853 rtol 1e-12 reference;
* closed-form model columns within MODEL_TOL of the reference quadrature;
* synthesized gates realize an exact fidelity of at least FID_MIN.
"""

from __future__ import annotations

import copy
import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

import gen
import reference as ref

AMP_TOL = 1e-6
MODEL_TOL = 1e-9
FID_MIN = 0.99


def _c(z) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _z(pair) -> complex:
    return complex(pair[0], pair[1])


def qubit_state(cfg: dict) -> np.ndarray:
    section = cfg.get("initial_state")
    if section is None:
        return np.array([1.0, 0.0], dtype=complex)
    psi = np.array([_z(section["alpha"]), _z(section["beta"])])
    return psi / np.linalg.norm(psi)


def sweep_grid(section: dict) -> list[tuple[float, ...]]:
    """Sweep points as value tuples, in the documented sorted order."""
    axes = [np.linspace(ax["start"], ax["stop"], ax["steps"]).tolist() for ax in section["axes"]]
    return sorted(itertools.product(*axes))


# ---------------------------------------------------------------------
# expected outputs
# ---------------------------------------------------------------------


def _expected_gate(op: dict) -> dict:
    sol = gen.gate_solution(op)
    amp0 = sol["scale"] * op["amp_ref"]
    sysm = gen.gate_system(op, amp0, amp0 * sol["ratio"], sol["duration"], sol["phase_offset"])
    finals = sysm.propagate("rwa", np.eye(2), [0.0, sol["duration"]])[-1]
    transfer = finals[:, :2].T  # columns: runs from |0> and from |1>
    return {
        "solution": sol,
        "from_zero": [_c(z) for z in finals[0]],
        "from_one": [_c(z) for z in finals[1]],
        "fidelity": ref.fidelity(transfer, ref.TARGETS[op["target"]]),
    }


def _expected_sweep(op: dict) -> dict:
    cfg = op["config"]
    section = cfg["sweep"]
    paths = [ax["path"] for ax in section["axes"]]
    rows = []
    for values in sweep_grid(section):
        point = copy.deepcopy(cfg)
        for path, value in zip(paths, values):
            group, field = path.split(".")
            point[group][field] = value
        sysm = ref.System.from_config(point["spectrum"], point["pulses"])
        psi = qubit_state(point)
        if section["mode"] == "effective":
            out = sysm.model_matrices([sysm.duration])[-1] @ psi
            l0, l1, l2 = sysm.sums()
            rabi = math.sqrt(0.25 * (l0 - l1) ** 2 + abs(l2) ** 2)
            rows.append(list(values) + [abs(out[0]) ** 2, abs(out[1]) ** 2, rabi])
        else:
            tier = section["mode"].removeprefix("propagate-")
            amps = sysm.propagate(tier, psi, [0.0, sysm.duration])[-1]
            pops = np.abs(amps) ** 2
            rows.append(list(values) + [pops[0], pops[1], float(np.sum(pops[2:]))])
    return {"rows": rows}


def _expected_model_check(op: dict) -> dict:
    cfg = op["config"]
    sysm = ref.System.from_config(cfg["spectrum"], cfg["pulses"])
    times = np.linspace(0.0, sysm.duration, cfg["integrator"]["save_points"])
    psi = qubit_state(cfg)
    if op["command"] == "compare":
        pops = np.abs(sysm.propagate("averaged", psi, times)) ** 2
        model = np.abs(np.einsum("tij,j->ti", sysm.model_matrices(times), psi)) ** 2
        return {
            "exact": [pops[:, 0].tolist(), pops[:, 1].tolist(), pops[:, 2:].sum(axis=1).tolist()],
            "model": [model[:, 0].tolist(), model[:, 1].tolist()],
        }
    omega, mean = sysm._split_mean(times)
    u00, u01, glob = sysm.model_parts([sysm.duration])
    return {
        "columns": {
            "t": times.tolist(),
            "f0": sysm.env0(times).tolist(),
            "f1": sysm.env1(times).tolist(),
            "theta": sysm.theta(times).tolist(),
            "omega": omega.tolist(),
            "e_plus": (mean + omega).tolist(),
            "e_minus": (mean - omega).tolist(),
        },
        "gate": {
            "u00": _c(u00[0]),
            "u01": _c(u01[0]),
            "u10": _c(-np.conj(u01[0])),
            "u11": _c(np.conj(u00[0])),
            "global_phase": _c(glob[0]),
        },
    }


def expected(op: dict) -> dict:
    if op["kind"] == "gate":
        return _expected_gate(op)
    if op["config"]["mode"] == "sweep":
        return _expected_sweep(op)
    return _expected_model_check(op)


# ---------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float)
    return {name: data[:, i] for i, name in enumerate(rows[0])}


def _scaled_err(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _check_gate(out: dict, exp: dict) -> tuple[float, float, bool]:
    amp_err = max(
        float(np.max(np.abs(out["from_zero"] - np.array([_z(p) for p in exp["from_zero"]])))),
        float(np.max(np.abs(out["from_one"] - np.array([_z(p) for p in exp["from_one"]])))),
    )
    sol = exp["solution"]
    model_err = max(
        _scaled_err(out["duration"], sol["duration"]),
        _scaled_err(out["amplitude_scale"], sol["scale"]),
        _scaled_err(out["amplitude_ratio"], sol["ratio"]),
        abs(math.remainder(out["phase_offset"] - sol["phase_offset"], 2.0 * math.pi)),
        float(out["k"] != sol["k"]),
    )
    fid_ok = out["fidelity"] >= FID_MIN and abs(out["fidelity"] - exp["fidelity"]) <= AMP_TOL
    return amp_err, model_err, fid_ok


def _check_sweep(out_dir: Path, op: dict, exp: dict) -> tuple[float, float, bool]:
    prefix = op["config"]["output"]["prefix"]
    got = _read_csv(out_dir / f"{prefix}_sweep.csv")
    names = list(got)
    table = np.column_stack([got[name] for name in names])
    want = np.array(exp["rows"], dtype=float)
    if table.shape[0] != want.shape[0]:
        return math.inf, math.inf, False
    if np.any(table[:, :3] != want[:, :3]):
        return math.inf, math.inf, False
    if op["config"]["sweep"]["mode"] == "effective":
        # p0, p1, rabi_uev; the adiabatic flag is not a model value (README)
        return 0.0, _scaled_err(table[:, 3:6], want[:, 3:6]), True
    return float(np.max(np.abs(table[:, 3:6] - want[:, 3:6]))), 0.0, True


def _check_model_check(out_dir: Path, op: dict, exp: dict) -> tuple[float, float, bool]:
    prefix = op["config"]["output"]["prefix"]
    if op["command"] == "compare":
        got = _read_csv(out_dir / f"{prefix}_compare.csv")
        amp_err = max(
            float(np.max(np.abs(got[name] - np.asarray(col))))
            for name, col in zip(("p0_exact", "p1_exact", "p_manifold_exact"), exp["exact"])
        )
        model_err = max(
            float(np.max(np.abs(got[name] - np.asarray(col))))
            for name, col in zip(("p0_model", "p1_model"), exp["model"])
        )
        return amp_err, model_err, True
    got = _read_csv(out_dir / f"{prefix}_effective.csv")
    model_err = max(_scaled_err(got[name], col) for name, col in exp["columns"].items())
    with open(out_dir / f"{prefix}_summary.json") as fh:
        gate = json.load(fh)["gate_matrix"]
    for key, want in exp["gate"].items():
        model_err = max(model_err, abs(_z(gate[key]) - _z(want)))
    return 0.0, model_err, True


def check(op: dict, output, exp: dict) -> tuple[bool, float, float]:
    """(ok, amp_err, model_err) for one operation's output.

    `output` is the gate-design result dict, or the directory a CLI
    operation wrote into.
    """
    if op["kind"] == "gate":
        amp_err, model_err, extra_ok = _check_gate(output, exp)
    elif op["config"]["mode"] == "sweep":
        amp_err, model_err, extra_ok = _check_sweep(output, op, exp)
    else:
        amp_err, model_err, extra_ok = _check_model_check(output, op, exp)
    ok = extra_ok and amp_err <= AMP_TOL and model_err <= MODEL_TOL
    return ok, amp_err, model_err
