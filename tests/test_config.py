"""Configuration validation and object construction from JSON documents."""

import json
import math
import re
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from ddsim import Envelope, IntegratorSettings, SpectrumModel, StateVector, schedule_stirap
from ddsim.cli import _dry_run
from ddsim.config import (
    SCHEMA,
    ConfigError,
    build_envelope,
    build_gate_spec,
    build_initial_state,
    build_integrator,
    build_pulse_pair,
    build_spectrum_model,
    config_with_overrides,
    load_config,
    set_by_path,
    sweep_points,
    validate_config,
)


def _base_cfg(**extra):
    cfg = {
        "mode": "propagate-rwa",
        "spectrum": {"delta": 5.0, "omega_exc": 2000.0},
        "pulses": {"amp0": 20.0, "amp1": 20.0, "omega0": 1905.0, "duration": 1.0},
    }
    cfg.update(extra)
    return cfg


def _sweep_cfg(axes):
    cfg = _base_cfg()
    cfg["mode"] = "sweep"
    cfg["sweep"] = {"mode": "propagate-rwa", "axes": axes}
    return cfg


# ---------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------


def test_minimal_config_validates():
    validate_config(_base_cfg())


def test_mode_is_required():
    with pytest.raises(ConfigError, match="<root>"):
        validate_config({"spectrum": {"delta": 1.0, "omega_exc": 100.0}})


def test_unknown_mode_rejected():
    cfg = _base_cfg()
    cfg["mode"] = "diagonalize"
    with pytest.raises(ConfigError, match="mode"):
        validate_config(cfg)


def test_unknown_keys_rejected_with_location():
    cfg = _base_cfg()
    cfg["pulses"]["amplitude"] = 3.0
    with pytest.raises(ConfigError, match="pulses"):
        validate_config(cfg)


def test_out_of_range_value_rejected():
    cfg = _base_cfg()
    cfg["pulses"]["duration"] = 0.0
    with pytest.raises(ConfigError, match="duration"):
        validate_config(cfg)


# a dict config can hold what json.loads would only read from NaN and Infinity literals;
# the check comes before the schema's, so -inf is not reported as below a minimum
@pytest.mark.parametrize("path, value", [
    (("pulses", "duration"), math.nan),
    (("pulses", "amp0"), math.inf),
    (("pulses", "amp0"), -math.inf),
    (("sweep", "axes", 0, "stop"), math.inf),
])
def test_non_finite_numbers_rejected_with_location(path, value):
    cfg = _sweep_cfg([{"path": "pulses.amp0", "start": 10.0, "stop": 30.0, "steps": 3}])
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    loc = "/".join(str(p) for p in path)
    with pytest.raises(ConfigError, match=f"at {loc}: non-finite number {json.dumps(value)} "):
        validate_config(cfg)


@pytest.mark.parametrize(
    "mode, drop, missing",
    [
        ("propagate-rwa", "pulses", "pulses"),
        ("propagate-bare", "spectrum", "spectrum"),
        ("effective", "pulses", "pulses"),
    ],
)
def test_modes_demand_their_sections(mode, drop, missing):
    cfg = _base_cfg()
    cfg["mode"] = mode
    del cfg[drop]
    with pytest.raises(ConfigError, match=missing):
        validate_config(cfg)


def test_gate_mode_needs_gate_section():
    cfg = _base_cfg()
    cfg["mode"] = "synthesize-gate"
    with pytest.raises(ConfigError, match="gate"):
        validate_config(cfg)


def test_custom_gate_needs_unitary():
    cfg = _base_cfg()
    cfg["mode"] = "synthesize-gate"
    cfg["gate"] = {"target": "CUSTOM"}
    with pytest.raises(ConfigError, match="custom_unitary"):
        validate_config(cfg)


def test_stirap_mode_needs_schedule():
    cfg = _base_cfg()
    cfg["mode"] = "stirap"
    with pytest.raises(ConfigError, match="stirap"):
        validate_config(cfg)


def test_removed_geometry_settings_rejected():
    for key in ("bohr_radius", "donor_separation"):
        cfg = _base_cfg()
        cfg["spectrum"][key] = 3.0
        with pytest.raises(ConfigError, match=key):
            validate_config(cfg)


def _schema_enums(node, path=()):
    """(dotted property path, enum values) for every enum in the schema."""
    if "enum" in node:
        yield ".".join(path), node["enum"]
    for name, child in node.get("properties", {}).items():
        yield from _schema_enums(child, path + (name,))


def _full_cfg(mode):
    cfg = _base_cfg(mode=mode)
    cfg["gate"] = {"target": "NOT"}
    cfg["stirap"] = {"ordering": "counterintuitive", "delay": 0.05,
                     "envelope": {"shape": "gaussian", "width": 0.05}}
    cfg["sweep"] = {"mode": "propagate-rwa",
                    "axes": [{"path": "pulses.amp0", "start": 20.0, "stop": 20.0, "steps": 1}]}
    return cfg


def _build_mode(value):
    cfg = _full_cfg(value)
    validate_config(cfg)
    _dry_run(cfg)


def _build_sweep_mode(value):
    cfg = _full_cfg("sweep")
    cfg["sweep"]["mode"] = value
    validate_config(cfg)
    _dry_run(cfg)


def _build_spectrum_shape(value):
    cfg = _base_cfg()
    cfg["spectrum"].update(shape=value, n_levels=1 if value == "single" else 2)
    build_spectrum_model(cfg)


def _build_envelope_shape(value):
    assert build_envelope({"shape": value, "width": 1.0}, 2.0).shape == value


_ENUM_BUILDERS = {
    "mode": _build_mode,
    "spectrum.shape": _build_spectrum_shape,
    "pulses.envelope0.shape": _build_envelope_shape,
    "pulses.envelope1.shape": _build_envelope_shape,
    "gate.target": lambda v: build_gate_spec(
        {"gate": {"target": v, "custom_unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}
    ).target_matrix(),
    "stirap.ordering": lambda v: schedule_stirap(v, Envelope("gaussian", 1.0, 0.3), 0.1, 2.0),
    "stirap.envelope.shape": _build_envelope_shape,
    "sweep.mode": _build_sweep_mode,
    "compare.exact_tier": lambda v: StateVector.qubit(1, 0, 1, frame=v),
}


def test_schema_is_valid_draft_2020_12():
    # validate_config builds its validator once and never checks SCHEMA itself
    Draft202012Validator.check_schema(SCHEMA)


def test_every_schema_enum_value_builds():
    enums = dict(_schema_enums(SCHEMA))
    assert set(enums) == set(_ENUM_BUILDERS)
    for path, values in enums.items():
        for value in values:
            _ENUM_BUILDERS[path](value)


# ---------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------


def test_sweep_config_validates():
    validate_config(_sweep_cfg([
        {"path": "pulses.amp0", "start": 1.0, "stop": 3.0, "steps": 3},
    ]))


def test_sweep_inherits_inner_mode_sections():
    cfg = _sweep_cfg([{"path": "pulses.amp0", "start": 1.0, "stop": 3.0, "steps": 3}])
    del cfg["spectrum"]
    with pytest.raises(ConfigError, match="spectrum"):
        validate_config(cfg)


@pytest.mark.parametrize(
    "path, match",
    [
        ("gate.k", "section"),
        ("amp0", "section"),
        ("pulses.nope", "unknown field"),
        ("pulses.envelope0", "not numeric"),
    ],
)
def test_bad_sweep_paths_rejected(path, match):
    cfg = _sweep_cfg([{"path": path, "start": 1.0, "stop": 2.0, "steps": 2}])
    with pytest.raises(ConfigError, match=match):
        validate_config(cfg)


@pytest.mark.parametrize(
    "axis, match",
    [
        ({"path": "integrator.save_points", "start": 2, "stop": 5, "steps": 3}, "integer"),
        ({"path": "spectrum.seed", "start": 0, "stop": 1, "steps": 3}, "integer"),
        ({"path": "pulses.amp0", "start": 10.0, "stop": -10.0, "steps": 3}, "minimum"),
        ({"path": "spectrum.jitter", "start": 0.5, "stop": 1.0, "steps": 2}, "maximum"),
    ],
)
def test_sweep_values_must_fit_the_field(axis, match):
    with pytest.raises(ConfigError, match=match):
        validate_config(_sweep_cfg([axis]))


def test_integer_sweep_fields_get_int_overrides():
    axes = [
        {"path": "spectrum.seed", "start": 1, "stop": 3, "steps": 3},
        {"path": "integrator.save_points", "start": 3.0, "stop": 5.0, "steps": 2},
    ]
    validate_config(_sweep_cfg(axes))
    pts = sweep_points({"mode": "propagate-rwa", "axes": axes})
    assert [tuple(v for _, v in pt) for pt in pts] == [(1, 3), (1, 5), (2, 3), (2, 5), (3, 3), (3, 5)]
    assert all(type(v) is int for pt in pts for _, v in pt)


def test_sweep_points_sorted_regardless_of_axis_direction():
    pts = sweep_points({
        "mode": "propagate-rwa",
        "axes": [
            {"path": "pulses.amp0", "start": 3.0, "stop": 1.0, "steps": 3},
            {"path": "pulses.amp1", "start": 2.0, "stop": 1.0, "steps": 2},
        ],
    })
    assert len(pts) == 6
    values = [tuple(v for _, v in pt) for pt in pts]
    assert values == sorted(values)
    assert values[0] == (1.0, 1.0)
    assert values[-1] == (3.0, 2.0)
    assert all(pt[0][0] == "pulses.amp0" for pt in pts)


def test_path_helpers_round_trip():
    cfg = {"pulses": {"amp0": 1.0}}
    set_by_path(cfg, "pulses.amp0", 7.0)
    assert cfg["pulses"]["amp0"] == 7.0
    set_by_path(cfg, "integrator.tol", 1e-9)  # section created on demand
    assert cfg["integrator"]["tol"] == 1e-9


def test_overrides_do_not_mutate_the_original():
    cfg = _base_cfg()
    out = config_with_overrides(cfg, [("pulses.amp0", 99.0), ("spectrum.delta", 1.0)])
    assert out["pulses"]["amp0"] == 99.0
    assert out["spectrum"]["delta"] == 1.0
    assert cfg["pulses"]["amp0"] == 20.0
    assert cfg["spectrum"]["delta"] == 5.0


# ---------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------


def test_spectrum_builder_returns_model():
    sp = build_spectrum_model(_base_cfg())
    assert isinstance(sp, SpectrumModel)
    assert sp.delta == 5.0
    assert sp.omega_exc == 2000.0


def test_spectrum_builder_falls_back_to_run_seed():
    cfg = _base_cfg(seed=7)
    cfg["spectrum"].update({"n_levels": 4, "jitter": 0.1})
    a = build_spectrum_model(cfg)
    b = build_spectrum_model(cfg)
    assert list(a.manifold_energies) == list(b.manifold_energies)
    cfg["spectrum"]["seed"] = 8  # explicit section seed wins
    c = build_spectrum_model(cfg)
    assert list(c.manifold_energies) != list(a.manifold_energies)


def test_spectrum_builder_wraps_semantic_errors():
    cfg = _base_cfg()
    cfg["spectrum"]["omega_exc"] = 2.0  # below the qubit splitting
    with pytest.raises(ConfigError, match="spectrum"):
        build_spectrum_model(cfg)


def test_envelope_defaults():
    assert build_envelope(None, 2.0).shape == "constant"
    env = build_envelope({"shape": "sin2"}, 2.0)
    assert env.shape == "sin2"
    assert env.center == 1.0
    assert env.width == 2.0
    trap = build_envelope({"shape": "trapezoid", "width": 2.0}, 4.0)
    assert trap.ramp == pytest.approx(0.5)


def test_gaussian_envelope_needs_width():
    with pytest.raises(ConfigError, match="width"):
        build_envelope({"shape": "gaussian"}, 2.0)


def test_pulse_builder_locks_second_carrier():
    cfg = _base_cfg()
    sp = build_spectrum_model(cfg)
    pair = build_pulse_pair(cfg, sp)
    assert pair.omega1 == pytest.approx(cfg["pulses"]["omega0"] - sp.delta)
    assert pair.envelope0.shape == "constant"


def test_pulse_builder_wraps_envelope_errors():
    cfg = _base_cfg()
    # a gaussian this wide cannot vanish at the window edges
    cfg["pulses"]["envelope0"] = {"shape": "gaussian", "width": 10.0}
    sp = build_spectrum_model(cfg)
    with pytest.raises(ConfigError, match="pulses"):
        build_pulse_pair(cfg, sp)


def test_integrator_builder_defaults_and_errors():
    assert build_integrator({}) == IntegratorSettings()
    tuned = build_integrator({"integrator": {"tol": 1e-8, "save_points": 11}})
    assert (tuned.tol, tuned.save_points) == (1e-8, 11)
    with pytest.raises(ConfigError, match="integrator"):
        build_integrator({"integrator": {"tol": -1.0}})
    with pytest.raises(ConfigError, match="integrator"):
        build_integrator({"integrator": {"max_step": 0.01}})


def test_initial_state_defaults_to_ground():
    psi = build_initial_state({}, n_excited=3)
    assert isinstance(psi, StateVector)
    assert psi.amplitudes[0] == 1.0
    assert len(psi.amplitudes) == 5


def test_initial_state_is_normalized():
    cfg = {"initial_state": {"alpha": [1.0, 0.0], "beta": [1.0, 0.0]}}
    psi = build_initial_state(cfg, n_excited=1)
    assert abs(psi.amplitudes[0]) == pytest.approx(1 / math.sqrt(2))
    assert abs(psi.amplitudes[1]) == pytest.approx(1 / math.sqrt(2))


def test_initial_state_rejects_null_vector():
    cfg = {"initial_state": {"alpha": [0.0, 0.0], "beta": [0.0, 0.0]}}
    with pytest.raises(ConfigError, match="zero"):
        build_initial_state(cfg, n_excited=1)


def test_gate_builder_parses_complex_pairs():
    inv_sqrt2 = 1 / math.sqrt(2)
    cfg = {
        "gate": {
            "target": "CUSTOM",
            "custom_unitary": [
                [[inv_sqrt2, 0.0], [0.0, -inv_sqrt2]],
                [[0.0, -inv_sqrt2], [inv_sqrt2, 0.0]],
            ],
        }
    }
    spec = build_gate_spec(cfg)
    assert spec.target == "CUSTOM"
    assert spec.custom_unitary[0, 1] == pytest.approx(-1j * inv_sqrt2)


def test_gate_builder_wraps_spec_errors():
    cfg = {"gate": {"target": "NOT", "scale_bounds": [2.0, 1.0]}}
    with pytest.raises(ConfigError, match="gate"):
        build_gate_spec(cfg)


# ---------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_base_cfg()))
    cfg = load_config(path)
    assert cfg["mode"] == "propagate-rwa"


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{'mode': 'propagate-rwa'}")  # single quotes: not JSON
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_load_config_propagates_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.json")


# ---------------------------------------------------------------------
# documentation
# ---------------------------------------------------------------------


def test_readme_json_blocks_validate():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```json\n(.*?)^```", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        validate_config(json.loads(block))


def test_readme_library_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"^```python\n(.*?)^```", library, flags=re.M | re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["traj"].norm_drift < 1e-6
    assert namespace["sol"].predicted_fidelity > 1.0 - 1e-9
