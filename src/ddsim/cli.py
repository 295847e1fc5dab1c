"""Command line entry point.

Subcommands:

    ddsim run <config.json> [--out DIR] [--jobs N] [--seed S]
    ddsim validate <config.json>
    ddsim compare <config.json> [--out DIR] [--seed S]

`run` executes the configured mode and writes a manifest, a summary,
and mode-specific data files (delimited text, one header row, LF line
endings, full float precision so reruns are byte-identical).  All
outputs are computed before anything is written, so a failing run
leaves no partial files.  `validate` checks a configuration without
computing.  `compare` propagates an exact tier and evaluates the
closed-form model on the same grid, reporting the worst population
deviation against the perturbative error scale.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure,
4 I/O failure.  Errors also land on stderr as a single JSON object.
Set DDSIM_LOG=DEBUG|INFO|WARNING|ERROR to control log verbosity.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import logging
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    build_envelope,
    build_gate_spec,
    build_initial_state,
    build_integrator,
    build_pulse_pair,
    build_spectrum_model,
    config_with_overrides,
    load_config,
    sweep_points,
)
from .drive import classify_regime, derive_couplings
from .dynamics import (
    PropagationError,
    check_adiabatic_elimination,
    propagate_averaged,
    propagate_bare,
    propagate_rwa,
)
from .effective import (
    EffectiveEvolution,
    apply,
    effective_hamiltonian,
    evolution_matrix,
)
from .gates import (
    GateSynthesisError,
    polarization_leakage,
    schedule_stirap,
    synthesize_gate,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

def _fmt(value) -> str:
    return format(float(value), ".17g")


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _trajectory_csv(traj) -> str:
    """t, Re/Im of each amplitude, then each population."""
    n, dim = traj.amplitudes.shape
    re_im = np.stack((traj.amplitudes.real, traj.amplitudes.imag), axis=-1).reshape(n, 2 * dim)
    header = ["t", *(f"a{i}_{part}" for i in range(dim) for part in ("re", "im"))]
    header += [f"p{i}" for i in range(dim)]
    return _csv_text(header, np.column_stack((traj.times, re_im, traj.populations)))


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and complex to JSON types."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


def _gate_matrix_quiet(ev, spectrum, t0, t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return evolution_matrix(ev, spectrum, t0, t)


def _effective_model(couplings, pulses):
    """Effective Hamiltonian and its evolution over the pulse window."""
    ham = effective_hamiltonian(couplings, pulses.phi0, pulses.phi1)
    return ham, EffectiveEvolution(ham, pulses.envelope0, pulses.envelope1, 0.0, pulses.duration)


def _propagate(cfg, tier, spectrum, pulses):
    """Propagate the configured initial state in one tier.

    Returns the trajectory and the rotating-frame couplings of the
    drive.  The propagators are resolved through this module's globals
    at each call, so wrappers installed on those names see every run.
    """
    settings = build_integrator(cfg)
    psi0 = build_initial_state(cfg, spectrum.n_excited, frame=tier)
    couplings = derive_couplings(spectrum, pulses)
    if tier == "bare":
        traj = propagate_bare(spectrum, pulses, psi0, settings)
    elif tier == "rwa":
        traj = propagate_rwa(couplings, pulses, psi0, settings)
    else:
        traj = propagate_averaged(couplings, pulses, psi0, settings)
    return traj, couplings


def _final_summary(traj) -> dict:
    pops = traj.populations
    return {
        "final_populations": {
            "p0": float(pops[-1, 0]),
            "p1": float(pops[-1, 1]),
            "manifold": float(np.sum(pops[-1, 2:])),
        },
        "peak_manifold_population": float(np.max(traj.manifold_population)),
        "norm_drift": traj.norm_drift,
    }


def _polarization_summary(pulses, regime) -> dict:
    leak = polarization_leakage(pulses, regime)
    return {
        "class": leak.regime_class,
        "gamma_sq": leak.gamma_sq,
        "leakage": leak.leakage,
        "success_weight": leak.success_weight,
    }


def _effective_sums(ham) -> dict:
    return {
        "lambda0": ham.Lambda0,
        "lambda1": ham.Lambda1,
        "lambda2": complex(ham.Lambda2),
        "mixing_angle": ham.mixing_angle,
        "rabi": ham.rabi,
    }


# ---------------------------------------------------------------------
# mode runners; each returns {filename_suffix: text}
# ---------------------------------------------------------------------


def _run_propagate(cfg, mode):
    spectrum = build_spectrum_model(cfg)
    pulses = build_pulse_pair(cfg, spectrum)
    tier = mode.removeprefix("propagate-")
    traj, couplings = _propagate(cfg, tier, spectrum, pulses)

    summary = {"mode": mode}
    if tier != "bare":
        regime = classify_regime(couplings)
        summary["regime"] = {
            "labels": list(regime.labels),
            "all_off_resonant": regime.all_off_resonant,
        }
        summary["polarization"] = _polarization_summary(pulses, regime)
        try:
            rep = check_adiabatic_elimination(traj)
            summary["elimination"] = {
                "peak_residual": rep.peak_residual,
                "peak_manifold_population": rep.peak_manifold_population,
                "valid": rep.valid,
            }
        except ValueError as exc:
            logger.info("elimination check skipped: %s", exc)
    summary.update(_final_summary(traj))
    return {"trajectory.csv": _trajectory_csv(traj), "summary.json": _json_text(summary)}


def _run_effective(cfg):
    spectrum = build_spectrum_model(cfg)
    pulses = build_pulse_pair(cfg, spectrum)
    settings = build_integrator(cfg)
    ham, ev = _effective_model(derive_couplings(spectrum, pulses), pulses)
    check = ev.check

    grid = np.linspace(0.0, pulses.duration, settings.save_points)
    columns = (pulses.envelope0, pulses.envelope1, ev.theta, ev.omega, ev.E_plus, ev.E_minus)
    csv = _csv_text(
        ["t", "f0", "f1", "theta", "omega", "e_plus", "e_minus"],
        np.column_stack([grid, *(column(grid) for column in columns)]),
    )

    gate = _gate_matrix_quiet(ev, spectrum, 0.0, pulses.duration)
    summary = {
        "mode": "effective",
        **_effective_sums(ham),
        "adiabaticity": {
            "max_ratio": check.max_ratio,
            "time_of_max": check.time_of_max,
            "passed": check.passed,
        },
        "gate_matrix": {
            "u00": gate.u00,
            "u01": gate.u01,
            "u10": gate.u10,
            "u11": gate.u11,
            "global_phase": gate.global_phase,
            "adiabatic": gate.adiabatic,
        },
    }
    if "gate" in cfg:
        solution = synthesize_gate(build_gate_spec(cfg), ham, spectrum.delta)
        summary["gate_solution"] = solution.to_dict()
    return {"effective.csv": csv, "summary.json": _json_text(summary)}


def _run_synthesize(cfg):
    spectrum = build_spectrum_model(cfg)
    pulses = build_pulse_pair(cfg, spectrum)
    couplings = derive_couplings(spectrum, pulses)
    regime = classify_regime(couplings)
    ham = effective_hamiltonian(couplings, pulses.phi0, pulses.phi1)
    solution = synthesize_gate(build_gate_spec(cfg), ham, spectrum.delta)
    summary = {
        "mode": "synthesize-gate",
        "solution": solution.to_dict(),
        "effective_sums": _effective_sums(ham),
        "regime_labels": list(regime.labels),
        "polarization": _polarization_summary(pulses, regime),
    }
    return {"gate.json": _json_text(summary)}


def _stirap_schedule(cfg, spectrum, probe, ham=None):
    """The stirap schedule and the pulse pair its shifted envelopes form.

    Without `ham` the schedule skips the effective-model quadrature.
    """
    st = cfg["stirap"]
    duration = cfg["pulses"]["duration"]
    schedule = schedule_stirap(
        st["ordering"], build_envelope(st["envelope"], duration), st["delay"], duration,
        ham=ham, delta_qubit=spectrum.delta,
    )
    try:
        pulses = dataclasses.replace(
            probe, envelope0=schedule.envelope0, envelope1=schedule.envelope1
        )
    except ValueError as exc:
        raise ConfigError(f"stirap envelopes: {exc}") from exc
    return schedule, pulses


def _run_stirap(cfg):
    spectrum = build_spectrum_model(cfg)
    probe = build_pulse_pair(cfg, spectrum)  # validates amplitudes and carriers
    ham = effective_hamiltonian(derive_couplings(spectrum, probe), probe.phi0, probe.phi1)
    schedule, pulses = _stirap_schedule(cfg, spectrum, probe, ham)

    traj, _ = _propagate(cfg, "rwa", spectrum, pulses)
    final = _final_summary(traj)
    summary = {
        "mode": "stirap",
        "ordering": schedule.ordering,
        "delay": schedule.delay,
        "overlap": schedule.overlap,
        "theta_start": schedule.theta_start,
        "theta_end": schedule.theta_end,
        "omega_tilde": schedule.omega_tilde,
        "residual_phase_plus": schedule.residual_phase_plus,
        "residual_phase_minus": schedule.residual_phase_minus,
        "residual_beat": schedule.residual_beat,
        "transfer_probability": final["final_populations"]["p1"],
        **final,
    }
    return {"trajectory.csv": _trajectory_csv(traj), "summary.json": _json_text(summary)}


_SWEEP_COLUMNS = {
    "propagate-rwa": ["p0", "p1", "p_manifold", "norm_drift"],
    "propagate-averaged": ["p0", "p1", "p_manifold", "norm_drift"],
    "propagate-bare": ["p0", "p1", "p_manifold", "norm_drift"],
    "effective": ["p0", "p1", "rabi_uev", "adiabatic"],
}


def _sweep_configs(cfg):
    """Each sweep point's (path, value) overrides and the config it runs."""
    sub_mode = cfg["sweep"]["mode"]
    return [
        (pt, {**config_with_overrides(cfg, pt), "mode": sub_mode}) for pt in sweep_points(cfg["sweep"])
    ]


def _sweep_worker(sub_cfg):
    """Evaluate one sweep point; module-level so it pickles for workers."""
    sub_mode = sub_cfg["mode"]
    spectrum = build_spectrum_model(sub_cfg)
    pulses = build_pulse_pair(sub_cfg, spectrum)
    if sub_mode == "effective":
        ham, ev = _effective_model(derive_couplings(spectrum, pulses), pulses)
        gate = _gate_matrix_quiet(ev, spectrum, 0.0, pulses.duration)
        out = apply(gate, build_initial_state(sub_cfg, 0).amplitudes)
        return [abs(out[0]) ** 2, abs(out[1]) ** 2, ham.rabi, 1.0 if gate.adiabatic else 0.0]

    traj, _ = _propagate(sub_cfg, sub_mode.removeprefix("propagate-"), spectrum, pulses)
    final = _final_summary(traj)
    return [*final["final_populations"].values(), final["norm_drift"]]


def _run_sweep(cfg, jobs):
    sub_mode = cfg["sweep"]["mode"]
    points = _sweep_configs(cfg)
    axis_paths = [ax["path"] for ax in cfg["sweep"]["axes"]]
    payloads = [sub_cfg for _, sub_cfg in points]

    logger.info("sweep: %d points, mode %s, %d worker(s)", len(points), sub_mode, jobs)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_worker, payloads))
    else:
        results = [_sweep_worker(p) for p in payloads]

    rows = []
    for (pt, _), res in zip(points, results):
        rows.append([v for _, v in pt] + list(res))
    header = axis_paths + _SWEEP_COLUMNS[sub_mode]
    summary = {
        "mode": "sweep",
        "sub_mode": sub_mode,
        "n_points": len(points),
        "axes": cfg["sweep"]["axes"],
    }
    return {"sweep.csv": _csv_text(header, rows), "summary.json": _json_text(summary)}


def _run_compare(cfg):
    spectrum = build_spectrum_model(cfg)
    pulses = build_pulse_pair(cfg, spectrum)
    tier = cfg.get("compare", {}).get("exact_tier", "rwa")
    traj, couplings = _propagate(cfg, tier, spectrum, pulses)
    ham, ev = _effective_model(couplings, pulses)
    psi2 = build_initial_state(cfg, 0).amplitudes

    pops = traj.populations
    model = np.abs(apply(_gate_matrix_quiet(ev, spectrum, 0.0, traj.times), psi2)) ** 2
    dev = np.max(np.abs(pops[:, :2] - model), axis=1)
    max_dev = float(np.max(dev))

    ratio = couplings.max_lambda_over_delta
    bound = 5.0 * ratio**2
    summary = {
        "mode": "compare",
        "exact_tier": tier,
        "max_population_deviation": max_dev,
        "coupling_over_detuning": ratio,
        "deviation_bound": bound,
        "within_bound": bool(max_dev <= bound),
        "model_adiabatic": ev.check.passed,
        "norm_drift": traj.norm_drift,
    }
    csv = _csv_text(
        ["t", "p0_exact", "p1_exact", "p_manifold_exact", "p0_model", "p1_model", "deviation"],
        np.column_stack((traj.times, pops[:, :2], np.sum(pops[:, 2:], axis=1), model, dev)),
    )
    return {"compare.csv": csv, "summary.json": _json_text(summary)}


# ---------------------------------------------------------------------
# command plumbing
# ---------------------------------------------------------------------


def _output_prefix(cfg, config_path) -> str:
    return cfg.get("output", {}).get("prefix") or Path(config_path).stem


def _write_outputs(files: dict, out_dir: Path, prefix: str, cfg, elapsed: float, extra=None) -> Path:
    """Write data files plus a manifest; nothing touches disk before this."""
    out_dir.mkdir(parents=True, exist_ok=True)
    named = {f"{prefix}_{suffix}": text for suffix, text in files.items()}
    manifest_name = f"{prefix}_manifest.json"
    manifest = {
        "package": "ddsim",
        "version": __version__,
        "mode": cfg["mode"],
        "config": cfg,
        "outputs": sorted(named) + [manifest_name],
        "elapsed_s": round(elapsed, 6),
    }
    if extra:
        manifest.update(extra)
    for name, text in named.items():
        with open(out_dir / name, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    manifest_path = out_dir / manifest_name
    with open(manifest_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_json_text(manifest))
    return manifest_path


def _dry_run(cfg) -> None:
    """Run the builders a run of `cfg` uses, on every sweep point's config.

    `validate` and `run` both call this, so a semantic problem exits 2
    before any propagation or quadrature and no file is written.
    """
    configs = [sub for _, sub in _sweep_configs(cfg)] if cfg["mode"] == "sweep" else [cfg]
    for sub in configs:
        spectrum = build_spectrum_model(sub)
        pulses = build_pulse_pair(sub, spectrum)
        build_integrator(sub)
        build_initial_state(sub, spectrum.n_excited)
        derive_couplings(spectrum, pulses)
        if "gate" in sub:
            build_gate_spec(sub)
        if sub["mode"] == "stirap":
            _stirap_schedule(sub, spectrum, pulses)


def _cmd_run(args) -> int:
    """Shared by `run` and `compare`: load, check, compute, then write everything."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dict(cfg)
        cfg["seed"] = args.seed
    _dry_run(cfg)
    mode = cfg["mode"]
    extra = None
    start = time.perf_counter()
    if args.command == "compare":
        files = _run_compare(cfg)
        extra = {"command": "compare"}
    elif mode.startswith("propagate-"):
        files = _run_propagate(cfg, mode)
    elif mode == "effective":
        files = _run_effective(cfg)
    elif mode == "synthesize-gate":
        files = _run_synthesize(cfg)
    elif mode == "stirap":
        files = _run_stirap(cfg)
    else:
        files = _run_sweep(cfg, args.jobs)
    elapsed = time.perf_counter() - start
    manifest = _write_outputs(
        files, Path(args.out), _output_prefix(cfg, args.config), cfg, elapsed, extra
    )
    print(manifest)
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    _dry_run(cfg)
    print(json.dumps({"valid": True, "mode": cfg["mode"]}))
    return EXIT_OK


def _emit_error(code: int, kind: str, message: str) -> int:
    logger.error("%s: %s", kind, message)
    print(
        json.dumps({"error": {"type": kind, "message": message, "exit_code": code}}),
        file=sys.stderr,
    )
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddsim",
        description="Simulate optical single-qubit control of a double-donor charge qubit.",
        epilog="Set DDSIM_LOG=DEBUG|INFO|WARNING|ERROR to control log verbosity.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configuration file")
    p_run.add_argument("config", help="path to a JSON configuration")
    p_run.add_argument("--out", default=".", help="output directory (default: current)")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a configuration without running it")
    p_val.add_argument("config", help="path to a JSON configuration")
    p_val.set_defaults(func=_cmd_validate)

    p_cmp = sub.add_parser("compare", help="exact propagation vs the closed-form model")
    p_cmp.add_argument("config", help="path to a JSON configuration")
    p_cmp.add_argument("--out", default=".", help="output directory (default: current)")
    p_cmp.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_cmp.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    level_name = os.environ.get("DDSIM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING))

    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        return _emit_error(EXIT_CONFIG, "config", "--jobs must be >= 1")

    try:
        return args.func(args)
    except ConfigError as exc:
        return _emit_error(EXIT_CONFIG, "config", str(exc))
    except (PropagationError, GateSynthesisError) as exc:
        return _emit_error(EXIT_NUMERIC, "numeric", str(exc))
    except ValueError as exc:
        return _emit_error(EXIT_NUMERIC, "numeric", str(exc))
    except OSError as exc:
        return _emit_error(EXIT_IO, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
