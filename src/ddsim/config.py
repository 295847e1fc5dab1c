"""Experiment configuration: JSON schema, validation, object builders.

A run is described by a single JSON document.  `mode` selects what to
compute; the sections it needs are validated structurally against
SCHEMA (types, ranges, enums) and then semantically while the library
objects are built.  SCHEMA is a JSON Schema (draft 2020-12) document.
No JSON Schema library checks it at run time: one walk over SCHEMA
implements exactly the keywords it uses (KEYWORDS) and, of several
errors, reports the one jsonschema 4.26's `best_match` picks, with the
same message; the test suite holds the two to the same verdict,
location and message.  NaN, the infinities and integers beyond the
float range are rejected before the walk, anywhere in the document.
The second carrier frequency is never configured: it is always derived
from the first so the pair sits exactly on the two-photon resonance.

Sweeps refer to scalar fields by dotted path ("pulses.amp0",
"spectrum.delta"); each axis is an inclusive linear range.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
from typing import Any, Iterator, Sequence

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


def load_config(path) -> dict:
    """Read and validate a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        cfg = json.loads(raw)
    # besides JSONDecodeError, json.loads raises a plain ValueError on an integer of more digits than int()
    # converts, and a RecursionError on nesting too deep for it
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


# float() of an integer rounds to nearest even, so the integers from here up round to 2**1024 and overflow
_FLOAT_LIMIT = 2**1024 - 2**970


def _check_finite(node: Any, path: tuple = ()) -> None:
    """Reject NaN, +-inf and integers beyond the float range anywhere in the document.

    No bound in SCHEMA rejects them.  An integer too large for a float
    is the digit spelling of 1e400, which JSON reads as infinity.
    """
    if isinstance(node, float) and not math.isfinite(node):
        problem = f"non-finite number {json.dumps(node)}"
    elif isinstance(node, int) and not -_FLOAT_LIMIT < node < _FLOAT_LIMIT:
        problem = "integer beyond the float range"
    else:
        children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in children:
            _check_finite(value, (*path, key))
        return
    loc = "/".join(str(p) for p in path) or "<root>"
    raise ConfigError(f"config invalid at {loc}: {problem} is not allowed")


def _is_number(node: Any) -> bool:
    return isinstance(node, numbers.Number) and not isinstance(node, bool)


_TYPES = {
    "object": lambda node: isinstance(node, dict),
    "array": lambda node: isinstance(node, list),
    "string": lambda node: isinstance(node, str),
    "boolean": lambda node: isinstance(node, bool),
    "number": _is_number,
    "integer": lambda node: (isinstance(node, int) and not isinstance(node, bool))
    or (isinstance(node, float) and node.is_integer()),
}


def _too_short(kind):
    return lambda node, n: (
        f"{node!r} {'should be non-empty' if n == 1 else 'is too short'}"
        if isinstance(node, kind) and len(node) < n else None
    )


def _bound(breaks, text):
    return lambda node, bound: f"{node!r} {text} {bound!r}" if _is_number(node) and breaks(node, bound) else None


# the keywords that check a node by itself, each as (node, the keyword's value) -> jsonschema's message or None
_NODE_CHECKS = {
    "type": lambda node, name: None if _TYPES[name](node) else f"{node!r} is not of type {name!r}",
    "enum": lambda node, names: (
        None if isinstance(node, str) and node in names else f"{node!r} is not one of {names!r}"
    ),
    "minItems": _too_short(list),
    "maxItems": lambda node, n: (
        f"{node!r} {'is expected to be empty' if n == 0 else 'is too long'}"
        if isinstance(node, list) and len(node) > n else None
    ),
    "minLength": _too_short(str),
    "minimum": _bound(operator.lt, "is less than the minimum of"),
    "exclusiveMinimum": _bound(operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": _bound(operator.ge, "is greater than or equal to the maximum of"),
}
# every keyword _schema_errors implements; "enum" takes strings only, and "additionalProperties" only false
KEYWORDS = frozenset(_NODE_CHECKS) | {"properties", "required", "additionalProperties", "items"}


def _schema_errors(node: Any, schema: dict, path: tuple, errors: list, floats: list) -> None:
    """Append (path, message) for each keyword of schema that node breaks, in jsonschema's order.

    Keywords run in the schema's own order; "properties" and "items"
    descend into the children they name.  The (container, key) of each
    integral float in an "integer" field goes to floats.
    """
    for keyword, value in schema.items():
        check = _NODE_CHECKS.get(keyword)
        if check is not None:
            message = check(node, value)
            if message is not None:
                errors.append((path, message))
        elif keyword == "items":
            if isinstance(node, list):
                _descend(node, [(i, value) for i in range(len(node))], path, errors, floats)
        elif not isinstance(node, dict):
            continue
        elif keyword == "properties":
            _descend(node, [(key, sub) for key, sub in value.items() if key in node], path, errors, floats)
        elif keyword == "required":
            errors.extend((path, f"{name!r} is a required property") for name in value if name not in node)
        elif keyword == "additionalProperties":
            extras = sorted((key for key in node if key not in schema.get("properties", {})), key=str)
            if extras:
                listed = ", ".join(map(repr, extras))
                verb = "was" if len(extras) == 1 else "were"
                errors.append((path, f"Additional properties are not allowed ({listed} {verb} unexpected)"))


def _descend(node: dict | list, children: list, path: tuple, errors: list, floats: list) -> None:
    for key, sub in children:
        child = node[key]
        _schema_errors(child, sub, (*path, key), errors, floats)
        if sub.get("type") == "integer" and isinstance(child, float):
            floats.append((node, key))


def _schema_error(node: Any, schema: dict) -> tuple | None:
    """The (path, message) of the error of node against schema that jsonschema's best_match picks, or None.

    best_match takes the error of the shortest path, then of the largest
    path, then one whose node fails its schema's "type"; every error at
    one path shares one schema and one node, so the last rule never
    splits them, and the first found wins.

    If node has no error, the integral floats in its "integer" fields
    become ints, in place: JSON Schema counts 5.0 as an integer, and a
    run takes it as its int spelling.
    """
    errors, floats = [], []
    _schema_errors(node, schema, (), errors, floats)
    if errors:
        return max(errors, key=lambda err: (-len(err[0]), err[0]))
    for container, key in floats:
        container[key] = int(container[key])
    return None


def validate_config(cfg: Any) -> None:
    """Structural and cross-field validation; raises ConfigError.

    Integral floats in integer fields ("save_points": 5.0) become ints
    in cfg, in place.
    """
    _check_finite(cfg)
    error = _schema_error(cfg, SCHEMA)
    if error is not None:
        path, message = error
        loc = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"config invalid at {loc}: {message}")

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
    for value in _axis_values(axis):
        error = _schema_error(value, props[fld])
        if error is not None:
            raise ConfigError(f"sweep path {path!r}: {error[1]}")


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
