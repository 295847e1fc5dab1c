"""Experiment configuration: JSON schema, validation, object builders.

A run is described by a single JSON document.  `mode` selects what to
compute; the sections it needs are validated structurally against
SCHEMA (types, ranges, enums) and then semantically while the library
objects are built.  The second carrier frequency is never configured:
it is always derived from the first so the pair sits exactly on the
two-photon resonance.

Sweeps refer to scalar fields by dotted path ("pulses.amp0",
"spectrum.delta"); each axis is an inclusive linear range.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any, Iterator, Sequence

import jsonschema
import numpy as np

from .drive import SHAPES as ENVELOPE_SHAPES, Envelope, PulsePair, enforce_two_photon_resonance
from .dynamics import FRAMES, IntegratorSettings, StateVector
from .gates import ORDERINGS, TARGETS, GateSpec
from .spectrum import SHAPES as SPECTRUM_SHAPES, SpectrumConfig, SpectrumModel, build_spectrum

_REQUIRED_SECTIONS = {
    "propagate-rwa": ("spectrum", "pulses"),
    "propagate-averaged": ("spectrum", "pulses"),
    "propagate-bare": ("spectrum", "pulses"),
    "effective": ("spectrum", "pulses"),
    "synthesize-gate": ("spectrum", "pulses", "gate"),
    "stirap": ("spectrum", "pulses", "stirap"),
    "sweep": ("sweep",),
}
MODES = tuple(_REQUIRED_SECTIONS)
# a sweep point is a run that needs no section beyond the spectrum and the pulses
_SWEEPABLE_MODES = tuple(mode for mode, needed in _REQUIRED_SECTIONS.items() if needed == ("spectrum", "pulses"))


class ConfigError(ValueError):
    """The configuration document is malformed or inconsistent."""


_COMPLEX_PAIR = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

_ENVELOPE_SCHEMA = {
    "type": "object",
    "properties": {
        "shape": {"enum": list(ENVELOPE_SHAPES)},
        "center": {"type": "number"},
        "width": {"type": "number", "exclusiveMinimum": 0},
        "ramp": {"type": "number", "minimum": 0},
    },
    "required": ["shape"],
    "additionalProperties": False,
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "mode": {"enum": list(MODES)},
        "seed": {"type": "integer", "minimum": 0},
        "spectrum": {
            "type": "object",
            "properties": {
                "delta": {"type": "number", "minimum": 0},
                "omega_exc": {"type": "number", "exclusiveMinimum": 0},
                "n_levels": {"type": "integer", "minimum": 1},
                "shape": {"enum": list(SPECTRUM_SHAPES)},
                "spacing": {"type": "number", "exclusiveMinimum": 0},
                "doublet_split": {"type": "number", "exclusiveMinimum": 0},
                "dipole0": {"type": "number"},
                "dipole1": {"type": "number"},
                "epsilon0": {"type": "number"},
                "jitter": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
            "required": ["delta", "omega_exc"],
            "additionalProperties": False,
        },
        "pulses": {
            "type": "object",
            "properties": {
                "amp0": {"type": "number", "minimum": 0},
                "amp1": {"type": "number", "minimum": 0},
                "omega0": {"type": "number", "exclusiveMinimum": 0},
                "phi0": {"type": "number"},
                "phi1": {"type": "number"},
                "duration": {"type": "number", "exclusiveMinimum": 0},
                "envelope0": _ENVELOPE_SCHEMA,
                "envelope1": _ENVELOPE_SCHEMA,
                "gamma_y0": {"type": "number"},
                "gamma_z0": {"type": "number"},
                "gamma_y1": {"type": "number"},
                "gamma_z1": {"type": "number"},
            },
            "required": ["amp0", "amp1", "omega0", "duration"],
            "additionalProperties": False,
        },
        "integrator": {
            "type": "object",
            "properties": {
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "save_points": {"type": "integer", "minimum": 2},
            },
            "additionalProperties": False,
        },
        "initial_state": {
            "type": "object",
            "properties": {"alpha": _COMPLEX_PAIR, "beta": _COMPLEX_PAIR},
            "required": ["alpha", "beta"],
            "additionalProperties": False,
        },
        "gate": {
            "type": "object",
            "properties": {
                "target": {"enum": list(TARGETS)},
                "custom_unitary": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": _COMPLEX_PAIR,
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "minItems": 2,
                    "maxItems": 2,
                },
                "k": {"type": "integer", "minimum": 0},
                "l": {"type": "integer", "minimum": 1},
                "k_max": {"type": "integer", "minimum": 0},
                "l_max": {"type": "integer", "minimum": 1},
                "allow_rescale": {"type": "boolean"},
                "scale_bounds": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
            "required": ["target"],
            "additionalProperties": False,
        },
        "stirap": {
            "type": "object",
            "properties": {
                "ordering": {"enum": list(ORDERINGS)},
                "delay": {"type": "number", "minimum": 0},
                "envelope": _ENVELOPE_SCHEMA,
            },
            "required": ["ordering", "delay", "envelope"],
            "additionalProperties": False,
        },
        "sweep": {
            "type": "object",
            "properties": {
                "mode": {"enum": list(_SWEEPABLE_MODES)},
                "axes": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "path": {"type": "string", "minLength": 1},
                            "start": {"type": "number"},
                            "stop": {"type": "number"},
                            "steps": {"type": "integer", "minimum": 1},
                        },
                        "required": ["path", "start", "stop", "steps"],
                        "additionalProperties": False,
                    },
                    "minItems": 1,
                    "maxItems": 3,
                },
            },
            "required": ["mode", "axes"],
            "additionalProperties": False,
        },
        "compare": {
            "type": "object",
            "properties": {"exact_tier": {"enum": list(FRAMES)}},
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {"prefix": {"type": "string", "minLength": 1}},
            "additionalProperties": False,
        },
    },
    "required": ["mode"],
    "additionalProperties": False,
}
_VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)  # SCHEMA itself is checked by the test suite


def load_config(path) -> dict:
    """Read and validate a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def _check_finite(node: Any, path: tuple = ()) -> None:
    """Reject NaN and +-inf anywhere in the document, which no bound in SCHEMA rejects."""
    if isinstance(node, float) and not math.isfinite(node):
        loc = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"config invalid at {loc}: non-finite number {json.dumps(node)} is not allowed")
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        _check_finite(value, (*path, key))


def _integral_floats_to_ints(node: Any, schema: dict) -> None:
    """Turn the floats in the "integer" fields of schema into ints, in place.

    JSON Schema counts 5.0 as an integer, so once node has passed the
    schema check every such float is integral, and a run takes it as
    its int spelling.
    """
    if isinstance(node, dict):
        children = [(key, schema.get("properties", {}).get(key)) for key in node]
    elif isinstance(node, list):
        children = [(i, schema.get("items")) for i in range(len(node))]
    else:
        return
    for key, sub in children:
        if sub is None:
            continue
        if sub.get("type") == "integer" and isinstance(node[key], float):
            node[key] = int(node[key])
        else:
            _integral_floats_to_ints(node[key], sub)


def validate_config(cfg: Any) -> None:
    """Structural and cross-field validation; raises ConfigError.

    Integral floats in integer fields ("save_points": 5.0) become ints
    in cfg, in place.
    """
    _check_finite(cfg)
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(cfg))
    if error is not None:
        loc = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {loc}: {error.message}") from error
    _integral_floats_to_ints(cfg, SCHEMA)

    mode = cfg["mode"]
    needed = set(_REQUIRED_SECTIONS[mode])
    if mode == "sweep":
        needed |= set(_REQUIRED_SECTIONS[cfg["sweep"]["mode"]])
    missing = sorted(needed - set(cfg))
    if missing:
        raise ConfigError(f"mode {mode!r} needs section(s): {', '.join(missing)}")

    gate = cfg.get("gate")
    if gate and gate["target"] == "CUSTOM" and "custom_unitary" not in gate:
        raise ConfigError("gate target CUSTOM needs custom_unitary")

    if mode == "sweep":
        for axis in cfg["sweep"]["axes"]:
            _check_sweep_axis(axis)


_SWEEP_ROOTS = ("spectrum", "pulses", "integrator")


def _check_sweep_axis(axis: dict) -> None:
    """The axis names a numeric field and every value on it fits that field."""
    path = axis["path"]
    parts = path.split(".")
    if len(parts) != 2 or parts[0] not in _SWEEP_ROOTS:
        raise ConfigError(
            f"sweep path {path!r} must be '<section>.<field>' with section one of {_SWEEP_ROOTS}"
        )
    section, fld = parts
    props = SCHEMA["properties"][section]["properties"]
    if fld not in props:
        raise ConfigError(f"sweep path {path!r}: unknown field {fld!r}")
    if props[fld].get("type") not in ("number", "integer"):
        raise ConfigError(f"sweep path {path!r}: field is not numeric")
    validator = jsonschema.Draft202012Validator(props[fld])
    for value in _axis_values(axis):
        try:
            validator.validate(value)
        except jsonschema.ValidationError as exc:
            raise ConfigError(f"sweep path {path!r}: {exc.message}") from exc


def _axis_values(axis: dict) -> list:
    """The axis's inclusive linear range.

    On an integer field the integral values come out as ints; any other
    value stays a float, for validate_config to reject.
    """
    section, fld = axis["path"].split(".")
    values = [float(v) for v in np.linspace(axis["start"], axis["stop"], axis["steps"])]
    if SCHEMA["properties"][section]["properties"][fld]["type"] == "integer":
        return [int(v) if v.is_integer() else v for v in values]
    return values


def set_by_path(cfg: dict, path: str, value: float) -> None:
    """Assign a scalar into the config by dotted path, creating the section."""
    section, fld = path.split(".")
    cfg.setdefault(section, {})[fld] = value


def sweep_points(sweep_section: dict) -> list[tuple[tuple[str, float], ...]]:
    """Expand the axes into an ordered grid of (path, value) overrides.

    Points come out sorted by their value tuple so output rows have a
    deterministic order regardless of axis direction.
    """
    axes = [[(axis["path"], v) for v in _axis_values(axis)] for axis in sweep_section["axes"]]
    points = list(itertools.product(*axes))
    points.sort(key=lambda pt: tuple(v for _, v in pt))
    return points


# ---------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------


def _as_complex(pair: Sequence[float]) -> complex:
    return complex(pair[0], pair[1])


def build_spectrum_model(cfg: dict) -> SpectrumModel:
    section = dict(cfg["spectrum"])
    if "seed" not in section and "seed" in cfg:
        section["seed"] = cfg["seed"]
    try:
        return build_spectrum(SpectrumConfig(**section))
    except ValueError as exc:
        raise ConfigError(f"spectrum: {exc}") from exc


def build_envelope(section: dict | None, duration: float) -> Envelope:
    """Turn an envelope block into an Envelope, defaulting to constant.

    Center defaults to mid-window; sin2 and trapezoid widths default to
    the full window.  Gaussian width (the 1-sigma point) has no natural
    default and must be given.
    """
    if section is None:
        return Envelope("constant")
    shape = section["shape"]
    if shape == "constant":
        return Envelope("constant")
    center = section.get("center", 0.5 * duration)
    if shape == "gaussian":
        if "width" not in section:
            raise ConfigError("gaussian envelope needs an explicit width")
        return Envelope("gaussian", center=center, width=section["width"])
    width = section.get("width", duration)
    if shape == "sin2":
        return Envelope("sin2", center=center, width=width)
    ramp = section.get("ramp", 0.25 * width)
    return Envelope("trapezoid", center=center, width=width, ramp=ramp)


def build_pulse_pair(cfg: dict, spectrum: SpectrumModel) -> PulsePair:
    section = cfg["pulses"]
    duration = section["duration"]
    try:
        omega0, omega1 = enforce_two_photon_resonance(spectrum, section["omega0"])
        return PulsePair(
            amp0=section["amp0"],
            amp1=section["amp1"],
            envelope0=build_envelope(section.get("envelope0"), duration),
            envelope1=build_envelope(section.get("envelope1"), duration),
            omega0=omega0,
            omega1=omega1,
            duration=duration,
            phi0=section.get("phi0", 0.0),
            phi1=section.get("phi1", 0.0),
            gamma_y0=section.get("gamma_y0", 0.0),
            gamma_z0=section.get("gamma_z0", 0.0),
            gamma_y1=section.get("gamma_y1", 0.0),
            gamma_z1=section.get("gamma_z1", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"pulses: {exc}") from exc


def build_integrator(cfg: dict) -> IntegratorSettings:
    section = cfg.get("integrator", {})
    try:
        return IntegratorSettings(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"integrator: {exc}") from exc


def build_initial_state(cfg: dict, n_excited: int) -> StateVector:
    section = cfg.get("initial_state")
    if section is None:
        return StateVector.qubit(1.0, 0.0, n_excited)
    alpha = _as_complex(section["alpha"])
    beta = _as_complex(section["beta"])
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    if norm < 1e-12:
        raise ConfigError("initial_state: alpha and beta are both zero")
    try:
        return StateVector.qubit(alpha / norm, beta / norm, n_excited)
    except ValueError as exc:
        raise ConfigError(f"initial_state: {exc}") from exc


def build_gate_spec(cfg: dict) -> GateSpec:
    section = dict(cfg["gate"])
    if "custom_unitary" in section:
        rows = section["custom_unitary"]
        section["custom_unitary"] = np.array(
            [[_as_complex(cell) for cell in row] for row in rows], dtype=complex
        )
    if "scale_bounds" in section:
        section["scale_bounds"] = tuple(section["scale_bounds"])
    try:
        return GateSpec(**section)
    except ValueError as exc:
        raise ConfigError(f"gate: {exc}") from exc


def config_with_overrides(cfg: dict, overrides) -> dict:
    """cfg with (path, value) pairs applied, cfg itself unchanged.

    Only the dicts on an override's path are copied: the top level and
    each section an override sets.  Every other section, and anything
    nested in a section, is shared with cfg, so the builders must not
    mutate what they read.
    """
    out = dict(cfg)
    for path, value in overrides:
        section = path.split(".")[0]
        out[section] = dict(out.get(section, {}))
        set_by_path(out, path, value)
    return out
