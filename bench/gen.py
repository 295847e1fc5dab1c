"""Seeded inputs for the three benchmark workloads.

`generate(workload, seed)` returns a list of operation specs: plain,
JSON-serializable dicts.  The same seed gives byte-identical specs
(`canonical`).  The seed only moves draws inside fixed strata, so every
seed yields the same mix of gate targets, manifold sizes, sub-modes and
window lengths, and per-run costs stay comparable across seeds.

Admissibility of each draw (the gate can be synthesized, every level is
off resonance, the gap hierarchy holds) is a property of the draw,
decided here with the reference formulas, never by calling ddsim.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

WORKLOADS = ("gate-design", "shaped-sweep", "model-check")

# ---------------------------------------------------------------------
# gate-design
# ---------------------------------------------------------------------

# (target, levels, q range) with q = Delta / |delta_0|.  NOT and HADAMARD
# need q in about [0.15, 0.55]: a smaller splitting leaves the beat terms
# under-averaged, and near q = 1 the crossed coupling turns resonant.
# PHASE drives |1> only weakly (small dipole), so it spans both small and
# large q, which is what carries l from a few to a few hundred.
GATE_STRATA = (
    ("PHASE", 3, (0.038, 0.042)),
    ("HADAMARD", 3, (0.36, 0.40)),
    ("NOT", 1, (0.38, 0.42)),
    ("PHASE", 3, (1.75, 1.85)),
    ("PHASE", 2, (2.9, 3.1)),
)


def _gate_draw(rng: np.random.Generator, target: str, n: int, q_range) -> dict:
    delta0 = -float(rng.uniform(100.0, 160.0))
    gaps = float(rng.uniform(4.0, 10.0)) * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, n - 1))
    offsets = np.concatenate([[0.0], np.cumsum(gaps)])
    det = delta0 - offsets
    d0 = float(rng.uniform(1.5, 2.5))
    r_target = float(rng.uniform(0.049, 0.051))
    s2 = float(rng.uniform(0.85, 1.15))
    omega_exc = float(rng.uniform(1800.0, 2600.0))
    q = float(rng.uniform(*q_range))
    d1_ratio = float(rng.uniform(0.06, 0.10))

    def d1_for(delta_q: float) -> float:
        if target == "PHASE":
            return d1_ratio * d0
        # balance the crossed-coupling light shifts on |0> and |1>
        a = float(np.sum(1.0 / (det - delta_q)))
        b = float(np.sum(1.0 / (det + delta_q)))
        gain = 1.0 if target == "NOT" else (1.0 + math.sqrt(2.0)) ** 2
        return d0 * (gain * a / b) ** 0.25

    def unit_system(d1: float) -> ref.System:
        pulses = {"amp0": 1.0, "amp1": 1.0, "omega0": omega_exc + 1.0 + delta0, "duration": 1.0}
        return ref.System(omega_exc + 1.0 + offsets, np.full(n, d0), np.full(n, d1), 1.0, pulses)

    def realized(d1: float):
        sysm = unit_system(d1)
        sums = sysm.sums()
        syn = ref.synthesize(target, sums, 1.0, 1, bounds=(1e-300, 1e300))
        x = syn["ratio"]
        l0, l1, l2 = sums
        rabi1 = math.sqrt(0.25 * (l0 - x * x * l1) ** 2 + (x * abs(l2)) ** 2)
        r1 = float(np.max(np.maximum(abs(d0), abs(x * d1)) * 0.5 * ref.FIELD / np.abs(det)))
        amp = r_target / r1
        duration = 0.5 * math.pi * ref.HBAR / (amp * amp * rabi1)
        return amp, duration

    # Delta depends on the duration and d1 on Delta: two fixed-point passes
    d1 = d1_for(q * abs(delta0))
    for _ in range(2):
        amp, duration = realized(d1)
        l_beats = max(1, round(q * abs(delta0) * duration / (2.0 * math.pi * ref.HBAR)))
        delta_q = 2.0 * math.pi * ref.HBAR * l_beats / duration
        d1 = d1_for(delta_q)
    amp, duration = realized(d1)
    delta_q = 2.0 * math.pi * ref.HBAR * l_beats / duration
    return {
        "kind": "gate",
        "points": 1,
        "target": target,
        "l": l_beats,
        "epsilon1": delta_q,
        "energies": (delta_q + omega_exc + offsets).tolist(),
        "dipole0": d0,
        "dipole1": d1,
        "omega0": omega_exc + delta_q + delta0,
        "amp_ref": amp / math.sqrt(s2),
    }


def gate_system(op: dict, amp0: float, amp1: float, duration: float, phi0: float = 0.0) -> ref.System:
    """Reference system for a gate op at given realized amplitudes."""
    n = len(op["energies"])
    pulses = {"amp0": amp0, "amp1": amp1, "omega0": op["omega0"], "duration": duration, "phi0": phi0}
    return ref.System(op["energies"], np.full(n, op["dipole0"]), np.full(n, op["dipole1"]), op["epsilon1"], pulses)


def gate_solution(op: dict) -> dict:
    """Reference synthesis for a gate op; raises if the draw is not admissible."""
    sysm = gate_system(op, op["amp_ref"], op["amp_ref"], 1.0)
    sol = ref.synthesize(op["target"], sysm.sums(), op["epsilon1"], op["l"])
    if sol is None:
        raise ValueError("gate draw is not admissible")
    return sol


def _gate_ops(rng: np.random.Generator) -> list[dict]:
    ops = []
    for target, n, q_range in GATE_STRATA:
        op = _gate_draw(rng, target, n, q_range)
        sol = gate_solution(op)
        if sol["k"] != 0 or not 0.8 <= sol["scale"] ** 2 <= 1.2:
            raise ValueError(f"gate draw left its stratum: {sol}")
        ops.append(op)
    return ops


# ---------------------------------------------------------------------
# config-file workloads
# ---------------------------------------------------------------------


def _envelope(rng: np.random.Generator, kind: str, duration: float) -> dict:
    if kind == "sin2":
        return {"shape": "sin2"}
    if kind == "gaussian":
        return {"shape": "gaussian", "width": duration / 14.0}
    return {"shape": "trapezoid", "ramp": float(rng.uniform(0.15, 0.3)) * duration}


def _spectrum(rng: np.random.Generator, n: int, shape: str, delta_q: float, omega_exc: float, seed: int) -> dict:
    """3-5 level manifold; 'anharmonic' is a uniform ladder with strong gap jitter."""
    spec = {
        "n_levels": n,
        "shape": "doublet" if shape == "doublet" else "uniform",
        "delta": delta_q,
        "omega_exc": omega_exc,
        "spacing": float(rng.uniform(15.0, 20.0)),
        "dipole0": float(rng.uniform(1.8, 2.2)),
        "dipole1": float(rng.uniform(1.8, 2.2)),
        "jitter": float(rng.uniform(0.3, 0.5) if shape == "anharmonic" else rng.uniform(0.0, 0.1)),
        "seed": seed,
    }
    if shape == "doublet":
        spec["doublet_split"] = float(rng.uniform(1.0, 4.0))
    return spec


def _drive(rng: np.random.Generator, spec: dict, env_kind: str, duration: float, r: float, detune: float) -> dict:
    """Pulses at detuning `detune` below the lowest level with ratio r there."""
    d_max = max(abs(spec["dipole0"]), abs(spec["dipole1"]))
    amp = r * abs(detune) / (0.5 * ref.FIELD * d_max)
    env = _envelope(rng, env_kind, duration)
    return {
        "amp0": amp,
        "amp1": amp * float(rng.uniform(0.7, 1.0)),
        "omega0": spec["delta"] + spec["omega_exc"] + detune,
        "phi0": float(rng.uniform(0.0, 2.0 * math.pi)),
        "phi1": float(rng.uniform(0.0, 2.0 * math.pi)),
        "duration": duration,
        "envelope0": env,
        "envelope1": env,
    }


# (sub-mode, window ns, levels, shape, envelope, axis steps): one sweep each
# per pass, so every seed runs the same mix of tiers, shapes and windows.
SWEEP_STRATA = (
    ("propagate-rwa", (0.25, 0.26), 3, "uniform", "sin2", (2, 2, 2)),
    ("propagate-averaged", (1.6, 1.7), 4, "doublet", "gaussian", (2, 2, 2)),
    ("effective", (9.0, 9.5), 5, "anharmonic", "sin2", (3, 3, 3)),
    ("propagate-rwa", (0.38, 0.40), 5, "doublet", "trapezoid", (2, 2, 2)),
    ("propagate-bare", (0.25, 0.27), 3, "anharmonic", "gaussian", (2, 2, 2)),
    ("propagate-averaged", (1.0, 1.05), 4, "uniform", "sin2", (2, 2, 2)),
    ("effective", (1.0, 1.05), 3, "doublet", "gaussian", (3, 3, 3)),
)


def _sweep_ops(rng: np.random.Generator, seed: int) -> list[dict]:
    ops = []
    for i, (sub_mode, window, n, shape, envelope, steps) in enumerate(SWEEP_STRATA):
        duration = float(rng.uniform(*window))
        bare = sub_mode == "propagate-bare"
        # the bare tier resolves the carrier, so it gets a low one
        omega_exc = float(rng.uniform(70.0, 80.0)) if bare else float(rng.uniform(1800.0, 2600.0))
        delta_q = float(rng.uniform(4.0, 6.0)) if bare else float(rng.uniform(10.0, 15.0))
        spec = _spectrum(rng, n, shape, delta_q, omega_exc, seed + i)
        detune = -float(rng.uniform(35.0, 40.0)) if bare else -float(rng.uniform(100.0, 120.0))
        pulses = _drive(rng, spec, envelope, duration, float(rng.uniform(0.045, 0.05)), detune)
        a0 = pulses["amp0"]
        w0 = pulses["omega0"]
        axes = [
            {"path": "pulses.amp0", "start": a0, "stop": 1.5 * a0, "steps": steps[0]},
            {"path": "pulses.omega0", "start": w0, "stop": w0 - 10.0, "steps": steps[1]},
            {"path": "spectrum.delta", "start": delta_q, "stop": delta_q + 2.0, "steps": steps[2]},
        ]
        cfg = {
            "mode": "sweep",
            "spectrum": spec,
            "pulses": pulses,
            "sweep": {"mode": sub_mode, "axes": axes},
            "output": {"prefix": f"op{i}"},
        }
        ops.append({"kind": "cli", "command": "run", "config": cfg, "points": int(np.prod(steps))})
    return ops


# (command, window ns, levels, shape, envelope, save points, r).  Only
# sin2 and gaussian envelopes: with trapezoid ramps the seed commit's
# adaptive quad misses the ramp kinks and its model values can be off by
# up to a few 1e-6 on some draws (see bench/README.md and
# test_trapezoid_model_defect in bench/tests).
MODEL_STRATA = (
    ("compare", (2.0, 2.2), 3, "uniform", "sin2", 401, 0.02),
    ("run", (4.0, 4.4), 4, "doublet", "gaussian", 1001, 0.05),
    ("compare", (1.5, 1.6), 5, "anharmonic", "gaussian", 601, 0.1),
    ("run", (4.0, 4.4), 5, "uniform", "sin2", 801, 0.1),
    ("run", (2.0, 2.2), 3, "anharmonic", "sin2", 601, 0.02),
    ("compare", (3.0, 3.2), 4, "doublet", "sin2", 1001, 0.05),
    ("run", (6.0, 6.6), 4, "uniform", "gaussian", 1001, 0.07),
)


def _model_ops(rng: np.random.Generator, seed: int) -> list[dict]:
    ops = []
    for i, (command, window, n, shape, envelope, save_points, r) in enumerate(MODEL_STRATA):
        duration = float(rng.uniform(*window))
        spec = _spectrum(rng, n, shape, float(rng.uniform(10.0, 15.0)), float(rng.uniform(1800.0, 2600.0)), seed + i)
        pulses = _drive(rng, spec, envelope, duration, r * float(rng.uniform(0.97, 1.0)), -float(rng.uniform(100.0, 120.0)))
        cfg = {
            "mode": "propagate-averaged" if command == "compare" else "effective",
            "spectrum": spec,
            "pulses": pulses,
            "integrator": {"save_points": save_points},
            "initial_state": {"alpha": rng.normal(size=2).tolist(), "beta": rng.normal(size=2).tolist()},
            "output": {"prefix": f"op{i}"},
        }
        if command == "compare":
            cfg["compare"] = {"exact_tier": "averaged"}
        ops.append({"kind": "cli", "command": command, "config": cfg, "points": 1})
    return ops


def generate(workload: str, seed: int) -> list[dict]:
    """Operation specs for one pass over the workload's pool."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "gate-design":
        return _gate_ops(rng)
    if workload == "shaped-sweep":
        return _sweep_ops(rng, seed)
    return _model_ops(rng, seed)


def exact_counts(op: dict) -> dict:
    """Per-operation counts that repeat exactly for a seed."""
    if op["kind"] == "gate":
        return {"target": op["target"], "levels": len(op["energies"]), "beat_periods": op["l"]}
    cfg = op["config"]
    counts = {"command": op["command"], "levels": cfg["spectrum"]["n_levels"], "points": op["points"]}
    if "sweep" in cfg:
        counts["sub_mode"] = cfg["sweep"]["mode"]
    else:
        counts["save_points"] = cfg["integrator"]["save_points"]
    return counts


def canonical(ops: list[dict]) -> bytes:
    """Byte form of a pool, used for the cache key and the determinism test."""
    return json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
