"""Command line entry point.

Subcommands:

    ddsim run <config.json> [--out DIR] [--jobs N] [--seed S]
    ddsim validate <config.json>
    ddsim compare <config.json> [--out DIR] [--seed S]

`run` executes the configured mode and writes a manifest, a summary,
and mode-specific data files (delimited text, one header row, LF line
endings, full float precision so reruns are byte-identical).  All
outputs are computed before anything is written, and a failed write
removes the files it wrote, so a failing run leaves no partial files.
`validate` builds every object a run needs without computing; `run`
and `compare` compute from exactly those objects, so each config is
built once.  `compare` propagates an exact tier and evaluates the
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
import functools
import json
import logging
import os
import sys
import time
import warnings
from pathlib import Path
from typing import NamedTuple

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
    validate_config,
)
from .drive import CouplingSet, PulsePair, classify_regime, derive_couplings
from .dynamics import (
    IntegratorSettings,
    PropagationError,
    StateVector,
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
    GateSpec,
    polarization_leakage,
    schedule_stirap,
    synthesize_gate,
)
from .spectrum import SpectrumModel

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class _Inputs(NamedTuple):
    """Everything one run computes from, made by `_build` and only read after."""

    mode: str
    spectrum: SpectrumModel
    pulses: PulsePair  # for stirap, with the scheduled envelopes
    settings: IntegratorSettings
    psi0: StateVector  # in the rwa frame; `_propagate` re-tags it
    couplings: CouplingSet
    gate: GateSpec | None


# ---------------------------------------------------------------------
# CSV text: each value exactly as format(v, ".17g"), the whole table at once
# ---------------------------------------------------------------------
#
# A finite x != 0 has the 17 significant digits D = round(|x| 10^(16-k)), 10^16 <= D < 10^17, with
# k = floor(log10 |x|).  |x| 10^p is formed as a double-double from 10^p = hi + lo: Dekker's TwoProduct
# (Numer. Math. 18, 224 (1971)) gives |x| hi = P + E exactly, so P + (E + |x| lo) is |x| 10^p within about
# 5e-15, and exact when lo = 0 (0 <= p <= 22).  The rounding of D is then certain unless the product lies
# within _TIE_WINDOW of a half-integer (of one exactly, when exact) or of the decade's ends.  Those values,
# and the non-finite, subnormal and out-of-range ones, take CPython's own text instead.

_K_MIN, _K_MAX = -281, 280  # k over 1e-280 <= |x| < 1e280, where no product or split can overflow
_TIE_WINDOW = 2.0**-30  # far wider than the inexact product's error
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter: v = v1 + v2 with 26-bit halves whose products are exact
_CELL = 30  # bytes per value: sign, "0.000" prefix, 17 digits and a point, "e+123", separator
_COLUMN = np.arange(18, dtype=np.int8)[:, None]  # digit or point column within a cell's 18 such columns


@functools.cache
def _pow10():
    """10^p for p = 16 - _K_MAX .. 16 - _K_MIN as (hi, hi's split halves, lo), from exact integers."""
    hi, lo = [], []
    for p in range(16 - _K_MAX, 16 - _K_MIN + 1):
        if p >= 0:
            h = float(10**p)  # int -> float is correctly rounded
            lo.append(float(10**p - int(h)))
        else:
            h = 1 / 10**-p  # so is int / int
            num, den = h.as_integer_ratio()
            lo.append((den - num * 10**-p) / (den * 10**-p))
        hi.append(h)
    hi = np.array(hi)
    split = _SPLIT * hi
    hi1 = split - (split - hi)
    return hi, hi1, hi - hi1, np.array(lo)


def _exact_digits(x):
    """(D, k, proven) per value: its 17 digits and exponent, and whether the two are certain (D = 0 for 0)."""
    ax = np.abs(x)
    with np.errstate(invalid="ignore"):  # NaN compares False: it is neither in range nor zero
        in_range = (ax >= 1e-280) & (ax < 1e280)
        zero = ax == 0
    a = np.where(in_range, ax, 1.0)  # the rest take stand-in digits that `proven` discards
    hi, hi1, hi2, lo = _pow10()
    k = np.clip(np.floor(np.log10(a)), _K_MIN, _K_MAX).astype(np.int64)
    rough = a * hi[_K_MAX - k]  # log10 may miss the decade by one next to a power of ten
    k = np.clip(k + (rough >= 1e17) - (rough < 1e16), _K_MIN, _K_MAX)
    i = _K_MAX - k
    h, h1, h2, l = hi[i], hi1[i], hi2[i], lo[i]
    split = _SPLIT * a
    a1 = split - (split - a)
    a2 = a - a1
    prod = a * h
    rest = (((a1 * h1 - prod) + a1 * h2 + a2 * h1) + a2 * h2) + a * l
    whole = np.floor(rest)
    frac = rest - whole
    digits = prod.astype(np.int64) + whole.astype(np.int64)  # where D >= 10^16 > 2^53, prod is an integer
    # the rounding is certain away from a half-integer, and k is right if the product is >= 10^16 (by more
    # than the window, when inexact)
    window = np.where(l == 0, 0.0, _TIE_WINDOW)
    proven = in_range & (np.abs(frac - 0.5) > window) & (
        (digits > 10**16) | ((digits == 10**16) & (frac >= window)))
    digits += frac > 0.5
    proven &= digits < 10**17  # a carry into the next decade goes to CPython too
    return np.where(zero, 0, digits), np.where(zero, 0, k), proven | zero


def _digit_rows(digits):
    """(17, n) uint8: row j holds digit j of each 17-digit integer."""
    n = len(digits)
    v = np.concatenate(np.divmod(digits, 10**9)).astype(np.int32)  # 8 leading digits, then 9
    rows = np.empty((9, 2 * n), np.uint8)
    for j in range(8, -1, -1):
        q = v // 10
        rows[j] = v - 10 * q
        v = q
    return np.concatenate((rows[1:, :n], rows[:, n:]))


def _cells(x, digits, k):
    """(_CELL, n) uint8: each value's text as laid out by notation, NUL where a character is absent.

    Fixed notation for -4 <= k < 17, else exponent.  The significant length is the digit count
    without trailing zeros; fixed notation also keeps the integer part's digits.  A point follows
    digit q when any digit comes after it: q = k in fixed notation with k >= 0, and 0 in exponent
    notation; fixed notation with k < 0 writes "0." and -k - 1 zeros ahead of the digits instead.
    """
    n = len(x)
    rows = _digit_rows(digits)
    length = ((rows != 0) * (_COLUMN[:17] + np.int8(1))).max(axis=0)
    fixed = (k >= -4) & (k < 17)
    sci = ~fixed
    small = fixed & (k < 0)
    large = fixed & (k >= 0)
    k8 = np.clip(k, -5, 17).astype(np.int8)
    point = k8 * large + np.int8(16) * small  # 16: no point among the digits
    shown = np.maximum(np.maximum(length, 1), (k8 + np.int8(1)) * large)  # "0" for 0

    cells = np.zeros((_CELL, n), np.uint8)
    cells[0] = np.signbit(x) * np.uint8(ord("-"))
    cells[1] = small * np.uint8(ord("0"))
    cells[2] = small * np.uint8(ord("."))
    cells[3:6] = ((_COLUMN[:3] < -k8 - np.int8(1)) & small) * np.uint8(ord("0"))
    chars = (rows + np.uint8(ord("0"))) * (_COLUMN[:17] < shown)
    after = _COLUMN[:17] > point
    body = cells[6:24]
    body[:17] = chars * ~after
    body[1:] += chars * after  # digits after the point move one column right
    body += (shown > point + np.int8(1)) * np.uint8(ord(".")) * (_COLUMN == point + np.int8(1))
    e = np.abs(k).astype(np.int16)
    cells[24] = sci * np.uint8(ord("e"))
    cells[25] = sci * (np.uint8(ord("+")) + np.uint8(2) * (k < 0))  # "-" is "+" + 2
    cells[26] = (sci & (e >= 100)) * (ord("0") + e // 100)
    cells[27] = sci * (ord("0") + e // 10 % 10)
    cells[28] = sci * (ord("0") + e % 10)
    return cells


def _format_by_python(values) -> list[str]:
    """CPython's own "%.17g" text, for the values whose digits `_exact_digits` cannot prove."""
    return [format(v, ".17g") for v in values.tolist()]


def _csv_text(header, rows) -> str:
    """The table as CSV, every value written as a float by "%.17g"."""
    values = np.asarray(rows, dtype=float)
    x = values.reshape(len(values), len(header)).ravel()
    digits, k, proven = _exact_digits(x)
    cells = _cells(x, digits, k)
    unproven = np.flatnonzero(~proven)
    if len(unproven):
        texts = "".join(text.ljust(_CELL - 1, "\0") for text in _format_by_python(x[unproven]))
        cells[:-1, unproven] = np.frombuffer(texts.encode("ascii"), np.uint8).reshape(-1, _CELL - 1).T
    cells[-1] = ord(",")
    cells[-1, len(header) - 1 :: len(header)] = ord("\n")
    return ",".join(header) + "\n" + cells.T.tobytes().translate(None, b"\0").decode("ascii")


def _trajectory_csv(traj) -> str:
    """t, Re/Im of each amplitude, then each population."""
    n, dim = traj.amplitudes.shape
    re_im = np.stack((traj.amplitudes.real, traj.amplitudes.imag), axis=-1).reshape(n, 2 * dim)
    header = ["t", *(f"a{i}_{part}" for i in range(dim) for part in ("re", "im"))]
    header += [f"p{i}" for i in range(dim)]
    return _csv_text(header, np.column_stack((traj.times, re_im, traj.populations)))


def _json_default(obj):
    """JSON form of what json cannot encode itself: complex numbers, numpy arrays and scalars."""
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


def _gate_matrix_quiet(ev, spectrum, t0, t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return evolution_matrix(ev, spectrum, t0, t)


def _effective_model(inputs):
    """Effective Hamiltonian and its evolution over the pulse window."""
    pulses = inputs.pulses
    ham = effective_hamiltonian(inputs.couplings, pulses.phi0, pulses.phi1)
    return ham, EffectiveEvolution(ham, pulses.envelope0, pulses.envelope1, 0.0, pulses.duration)


def _propagate(inputs: _Inputs, tier: str):
    """Propagate the built initial state in one tier.

    The propagators are resolved through this module's globals at each
    call, so wrappers installed on those names see every run.
    """
    psi0 = dataclasses.replace(inputs.psi0, frame=tier)
    if tier == "bare":
        return propagate_bare(inputs.spectrum, inputs.pulses, psi0, inputs.settings)
    propagate = propagate_rwa if tier == "rwa" else propagate_averaged
    return propagate(inputs.couplings, inputs.pulses, psi0, inputs.settings)


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


def _run_propagate(inputs):
    couplings, pulses = inputs.couplings, inputs.pulses
    tier = inputs.mode.removeprefix("propagate-")
    traj = _propagate(inputs, tier)

    summary = {"mode": inputs.mode}
    if tier != "bare":
        regime = classify_regime(couplings)
        summary["regime"] = {
            "labels": list(regime.labels),
            "all_off_resonant": regime.all_off_resonant,
        }
        summary["polarization"] = _polarization_summary(pulses, regime)
        try:
            rep = check_adiabatic_elimination(traj, couplings, pulses)
            summary["elimination"] = {
                "peak_residual": rep.peak_residual,
                "peak_manifold_population": rep.peak_manifold_population,
                "valid": rep.valid,
            }
        except ValueError as exc:
            logger.info("elimination check skipped: %s", exc)
    summary.update(_final_summary(traj))
    return {"trajectory.csv": _trajectory_csv(traj), "summary.json": _json_text(summary)}


def _run_effective(inputs):
    spectrum, pulses = inputs.spectrum, inputs.pulses
    ham, ev = _effective_model(inputs)
    check = ev.check

    grid = np.linspace(0.0, pulses.duration, inputs.settings.save_points)
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
    if inputs.gate is not None:
        summary["gate_solution"] = synthesize_gate(inputs.gate, ham, spectrum.delta).to_dict()
    return {"effective.csv": csv, "summary.json": _json_text(summary)}


def _run_synthesize(inputs):
    pulses = inputs.pulses
    regime = classify_regime(inputs.couplings)
    ham = effective_hamiltonian(inputs.couplings, pulses.phi0, pulses.phi1)
    solution = synthesize_gate(inputs.gate, ham, inputs.spectrum.delta)
    summary = {
        "mode": "synthesize-gate",
        "solution": solution.to_dict(),
        "effective_sums": _effective_sums(ham),
        "regime_labels": list(regime.labels),
        "polarization": _polarization_summary(pulses, regime),
    }
    return {"gate.json": _json_text(summary)}


def _stirap_schedule(cfg, spectrum, ham=None):
    """The configured stirap schedule; without `ham` it skips the effective-model quadrature."""
    st, duration = cfg["stirap"], cfg["pulses"]["duration"]
    return schedule_stirap(
        st["ordering"], build_envelope(st["envelope"], duration), st["delay"], duration,
        ham=ham, delta_qubit=spectrum.delta,
    )


def _run_stirap(cfg, inputs):
    ham = effective_hamiltonian(inputs.couplings, inputs.pulses.phi0, inputs.pulses.phi1)
    schedule = _stirap_schedule(cfg, inputs.spectrum, ham)

    traj = _propagate(inputs, "rwa")
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


_SWEEP_COLUMNS = {  # by sub-mode, one row for the three propagate-* modes
    "propagate": ["p0", "p1", "p_manifold", "norm_drift"],
    "effective": ["p0", "p1", "rabi_uev", "adiabatic"],
}


def _sweep_worker(inputs):
    """Evaluate one built sweep point; module-level so it pickles for workers."""
    if inputs.mode == "effective":
        ham, ev = _effective_model(inputs)
        gate = _gate_matrix_quiet(ev, inputs.spectrum, 0.0, inputs.pulses.duration)
        out = apply(gate, inputs.psi0.amplitudes[:2])
        return [abs(out[0]) ** 2, abs(out[1]) ** 2, ham.rabi, 1.0 if gate.adiabatic else 0.0]

    final = _final_summary(_propagate(inputs, inputs.mode.removeprefix("propagate-")))
    return [*final["final_populations"].values(), final["norm_drift"]]


def _run_sweep(cfg, points, jobs):
    """The sweep table from each point's (path, value) overrides and built inputs."""
    sub_mode = cfg["sweep"]["mode"]
    axis_paths = [ax["path"] for ax in cfg["sweep"]["axes"]]
    payloads = [inputs for _, inputs in points]

    logger.info("sweep: %d points, mode %s, %d worker(s)", len(points), sub_mode, jobs)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_worker, payloads))
    else:
        results = [_sweep_worker(p) for p in payloads]

    rows = [[v for _, v in pt] + list(res) for (pt, _), res in zip(points, results)]
    header = axis_paths + _SWEEP_COLUMNS[sub_mode.partition("-")[0]]
    summary = {
        "mode": "sweep",
        "sub_mode": sub_mode,
        "n_points": len(points),
        "axes": cfg["sweep"]["axes"],
    }
    return {"sweep.csv": _csv_text(header, rows), "summary.json": _json_text(summary)}


def _run_compare(inputs):
    tier = inputs.mode.removeprefix("propagate-")
    traj = _propagate(inputs, tier)
    _, ev = _effective_model(inputs)

    pops = traj.populations
    gate = _gate_matrix_quiet(ev, inputs.spectrum, 0.0, traj.times)
    model = np.abs(apply(gate, inputs.psi0.amplitudes[:2])) ** 2
    dev = np.max(np.abs(pops[:, :2] - model), axis=1)
    max_dev = float(np.max(dev))

    ratio = inputs.couplings.max_lambda_over_delta
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
    """Write data files plus a manifest; nothing touches disk before this, and a failed write removes them."""
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
    named[manifest_name] = _json_text(manifest)
    written = []
    try:
        for name, text in named.items():
            with open(out_dir / name, "w", newline="", encoding="utf-8") as fh:
                written.append(out_dir / name)
                fh.write(text)
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return out_dir / manifest_name


def _build(cfg) -> _Inputs:
    """Build everything one run of `cfg` computes from; a bad config raises here."""
    spectrum = build_spectrum_model(cfg)
    pulses = build_pulse_pair(cfg, spectrum)
    settings = build_integrator(cfg)
    psi0 = build_initial_state(cfg, spectrum.n_excited)
    couplings = derive_couplings(spectrum, pulses)
    gate = build_gate_spec(cfg) if "gate" in cfg else None
    if cfg["mode"] == "stirap":
        try:
            schedule = _stirap_schedule(cfg, spectrum)
            pulses = dataclasses.replace(pulses, envelope0=schedule.envelope0, envelope1=schedule.envelope1)
        except ValueError as exc:
            raise ConfigError(f"stirap envelopes: {exc}") from exc
    return _Inputs(cfg["mode"], spectrum, pulses, settings, psi0, couplings, gate)


def _dry_run(cfg) -> list:
    """`_build` a run of `cfg`: [(overrides, inputs)], one entry per sweep point.

    A single run is [((), inputs)].  `validate` stops here, and `run`
    and `compare` compute from what this returns, so a semantic problem
    exits 2 before any propagation or quadrature and no file is written.
    """
    if cfg["mode"] != "sweep":
        return [((), _build(cfg))]
    sub_mode = cfg["sweep"]["mode"]
    return [
        (pt, _build({**config_with_overrides(cfg, pt), "mode": sub_mode}))
        for pt in sweep_points(cfg["sweep"])
    ]


def _cmd_run(args) -> int:
    """Shared by `run` and `compare`: load, build, compute, then write everything."""
    cfg = load_config(args.config)
    if args.seed is not None:  # the override is checked as the file's own seed would be
        cfg = {**cfg, "seed": args.seed}
        validate_config(cfg)
    compare = args.command == "compare"
    tier = cfg.get("compare", {}).get("exact_tier", "rwa")
    # compare computes a single run of its exact tier, whatever the mode
    built = _dry_run({**cfg, "mode": f"propagate-{tier}"} if compare else cfg)
    mode = cfg["mode"]
    inputs = built[0][1]
    start = time.perf_counter()
    if compare:
        files = _run_compare(inputs)
    elif mode.startswith("propagate-"):
        files = _run_propagate(inputs)
    elif mode == "effective":
        files = _run_effective(inputs)
    elif mode == "synthesize-gate":
        files = _run_synthesize(inputs)
    elif mode == "stirap":
        files = _run_stirap(cfg, inputs)
    else:
        files = _run_sweep(cfg, built, args.jobs)
    elapsed = time.perf_counter() - start
    extra = {"command": "compare"} if compare else None
    manifest = _write_outputs(files, Path(args.out), _output_prefix(cfg, args.config), cfg, elapsed, extra)
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


@functools.lru_cache(maxsize=1)
def _main_parser() -> argparse.ArgumentParser:
    """main's parser, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    # basicConfig adds the stderr handler once; the level is set on every call, and a name that is not a level
    # (say BASIC_FORMAT, a logging attribute but a string) leaves WARNING
    logging.basicConfig()
    level = getattr(logging, os.environ.get("DDSIM_LOG", "WARNING").upper(), None)
    logging.getLogger("ddsim").setLevel(level if isinstance(level, int) else logging.WARNING)

    args = _main_parser().parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        return _emit_error(EXIT_CONFIG, "config", "--jobs must be >= 1")

    try:
        return args.func(args)
    except ConfigError as exc:
        return _emit_error(EXIT_CONFIG, "config", str(exc))
    except (PropagationError, ValueError) as exc:  # a GateSynthesisError is a ValueError
        return _emit_error(EXIT_NUMERIC, "numeric", str(exc))
    except OSError as exc:
        return _emit_error(EXIT_IO, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
