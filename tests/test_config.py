"""Configuration validation and object construction from JSON documents."""

import copy
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from ddsim import Envelope, IntegratorSettings, SpectrumModel, StateVector, schedule_stirap
from ddsim.cli import _dry_run
from ddsim.config import (
    KEYWORDS,
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
from ddsim.config import _schema_error


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
# the check comes before the schema's, so -inf is not reported as below a minimum.  An integer
# too large for a float would overflow where a builder converts it
@pytest.mark.parametrize("path, value", [
    (("pulses", "duration"), math.nan),
    (("pulses", "amp0"), math.inf),
    (("pulses", "amp0"), -math.inf),
    (("sweep", "axes", 0, "stop"), math.inf),
    (("pulses", "amp0"), 10**400),
    (("spectrum", "spacing"), 10**400),
    (("sweep", "axes", 0, "stop"), -10**400),
    (("pulses", "amp0"), 2**1024 - 2**970),  # the least integer that float() overflows on
])
def test_non_finite_numbers_rejected_with_location(path, value):
    cfg = _sweep_cfg([{"path": "pulses.amp0", "start": 10.0, "stop": 30.0, "steps": 3}])
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    loc = "/".join(str(p) for p in path)
    problem = "integer beyond the float range" if isinstance(value, int) else f"non-finite number {json.dumps(value)}"
    with pytest.raises(ConfigError, match=f"at {loc}: {re.escape(problem)} is not allowed"):
        validate_config(cfg)


def test_integers_below_the_float_overflow_pass_the_finite_check():
    cfg = _base_cfg()
    cfg["pulses"]["amp0"] = 2**1024 - 2**970 - 1  # float() rounds it to the largest double
    validate_config(cfg)
    assert float(cfg["pulses"]["amp0"]) == 1.7976931348623157e308


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
    # validate_config walks SCHEMA and never checks SCHEMA itself
    Draft202012Validator.check_schema(SCHEMA)


def _schema_nodes(node):
    yield node
    for child in node.get("properties", {}).values():
        yield from _schema_nodes(child)
    if "items" in node:
        yield from _schema_nodes(node["items"])


def test_schema_uses_only_the_keywords_the_walker_implements():
    # a keyword outside KEYWORDS (say "pattern") would be skipped without a word, so SCHEMA may not use one
    nodes = list(_schema_nodes(SCHEMA))
    used = {keyword for node in nodes for keyword in node} - {"$schema"}
    assert used <= KEYWORDS, used - KEYWORDS
    assert all(isinstance(name, str) for node in nodes for name in node.get("enum", ()))
    assert all(node["additionalProperties"] is False for node in nodes if "additionalProperties" in node)
    assert all(isinstance(node["type"], str) for node in nodes if "type" in node)


# every section and field of SCHEMA with a valid value
_FULL_CFG = {
    "mode": "sweep",
    "seed": 3,
    "spectrum": {"delta": 5.0, "omega_exc": 2000.0, "n_levels": 3, "shape": "uniform", "spacing": 20.0,
                 "doublet_split": 1.0, "dipole0": 2.0, "dipole1": -2.0, "epsilon0": 0.0, "jitter": 0.5, "seed": 0},
    "pulses": {"amp0": 20.0, "amp1": 0, "omega0": 1905.0, "phi0": 0.1, "phi1": -1, "duration": 1.0,
               "envelope0": {"shape": "trapezoid", "center": 0.5, "width": 1.0, "ramp": 0.0},
               "envelope1": {"shape": "gaussian", "width": 0.2},
               "gamma_y0": 0.0, "gamma_z0": 0.1, "gamma_y1": 0.0, "gamma_z1": 0.1},
    "integrator": {"tol": 1e-10, "save_points": 5.0},
    "initial_state": {"alpha": [1.0, 0.0], "beta": [0, 0.5]},
    "gate": {"target": "CUSTOM", "custom_unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "k": 0, "l": 1,
             "k_max": 4, "l_max": 9.0, "allow_rescale": True, "scale_bounds": [0.5, 2.0]},
    "stirap": {"ordering": "counterintuitive", "delay": 0.05, "envelope": {"shape": "sin2"}},
    "sweep": {"mode": "propagate-averaged",
              "axes": [{"path": "pulses.amp0", "start": 10.0, "stop": 30.0, "steps": 3},
                       {"path": "integrator.save_points", "start": 3, "stop": 5, "steps": 2.0}]},
    "compare": {"exact_tier": "bare"},
    "output": {"prefix": "x"},
}
_KEYS = sorted({key for node in _schema_nodes(SCHEMA) for key in node.get("properties", {})} | {"x", ""})
# around every bound in SCHEMA (0, 1 and 2), integral floats among them
_NUMBERS = st.sampled_from([0, 1, 2, 3, -1, 0.0, -0.0, 1.0, 2.0, 5.0, -1.0, 0.5, 1e-300]) | st.floats(-5.0, 5.0)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS
    | st.sampled_from(["", "a", "sin2", "NOT", "rwa", "propagate-rwa", "pulses.amp0"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=6,
)


def _nodes(node, path=()):
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield from _nodes(value, (*path, key))


@st.composite
def _mutated_cfgs(draw):
    """_FULL_CFG or a bare minimum with up to four values replaced, deleted or added at random places."""
    cfg = copy.deepcopy(draw(st.sampled_from([_FULL_CFG, _base_cfg()])))
    for _ in range(draw(st.integers(1, 4))):
        path, node = draw(st.sampled_from(list(_nodes(cfg))))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" and isinstance(node, (dict, list)):
            value = draw(_JSON)
            if isinstance(node, dict):
                node[draw(st.sampled_from(_KEYS))] = value
            else:
                node.insert(draw(st.integers(0, len(node))), value)
        elif path:
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            if action == "delete":
                del parent[path[-1]]
            else:  # a number mostly by another number, to reach the bounds
                number = isinstance(node, (int, float)) and not isinstance(node, bool)
                parent[path[-1]] = draw(_NUMBERS | _JSON if number else _JSON)
        else:
            cfg = draw(_JSON)
    return cfg


def _reference_error(cfg):
    error = best_match(Draft202012Validator(SCHEMA).iter_errors(cfg))
    return None if error is None else (tuple(error.absolute_path), error.message)


def _assert_walker_matches_jsonschema(cfg):
    expected = _reference_error(cfg)
    assert _schema_error(copy.deepcopy(cfg), SCHEMA) == expected
    if expected is not None:  # validate_config reports it, located the same way
        loc = "/".join(str(p) for p in expected[0]) or "<root>"
        with pytest.raises(ConfigError) as info:
            validate_config(copy.deepcopy(cfg))
        assert str(info.value) == f"config invalid at {loc}: {expected[1]}"


@settings(max_examples=1000)
@given(_mutated_cfgs())
def test_walker_reports_the_error_jsonschema_best_match_picks(cfg):
    _assert_walker_matches_jsonschema(cfg)


@pytest.mark.parametrize("cfg", [
    _FULL_CFG,
    # an integral float below an error is reported as written: the ints come only once nothing is wrong
    {**_FULL_CFG, "sweep": {"mode": "propagate-rwa", "axes": [
        {"path": "pulses.amp0", "start": 1, "stop": 2, "steps": 3.0}, {}, {}, {}]}},
    # several errors at one depth: the largest path wins, and at one path the first keyword and required name
    {**_FULL_CFG, "pulses": {"amp0": -1}, "spectrum": {"x": 1}},
    {**_FULL_CFG, "gate": {"k": -1.5, "l": 0, "extra": 1, "other": 2}},
    {**_FULL_CFG, "initial_state": {"alpha": [True, "1"], "beta": [1, 2, 3]}},
    # a bool is neither a number nor an integer, and a number is not a bool
    {**_FULL_CFG, "pulses": {**_FULL_CFG["pulses"], "amp0": True}},
    {**_FULL_CFG, "integrator": {"save_points": False}},
    {**_FULL_CFG, "gate": {**_FULL_CFG["gate"], "allow_rescale": 1}},
    {"mode": "nope", "y": 1, "x": 2},
    [],
])
def test_walker_matches_jsonschema_on_chosen_configs(cfg):
    _assert_walker_matches_jsonschema(cfg)


def test_integral_floats_become_ints_only_in_a_valid_config():
    cfg = copy.deepcopy(_FULL_CFG)
    validate_config(cfg)
    assert type(cfg["integrator"]["save_points"]) is int and type(cfg["gate"]["l_max"]) is int
    assert type(cfg["sweep"]["axes"][1]["steps"]) is int
    bad = copy.deepcopy(_FULL_CFG)
    bad["output"]["prefix"] = ""
    with pytest.raises(ConfigError, match="output/prefix"):
        validate_config(bad)
    assert bad["integrator"] == _FULL_CFG["integrator"] and type(bad["integrator"]["save_points"]) is float


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


@pytest.mark.parametrize("text", [
    "{'mode': 'propagate-rwa'}",  # single quotes: not JSON
    '{"mode": "propagate-rwa", "x": ' + "[" * 100_000 + "]" * 100_000 + "}",  # nested past json's recursion limit
    '{"mode": "propagate-rwa", "seed": ' + "1" * 5000 + "}",  # more digits than int() converts
], ids=["single-quotes", "nested-100000-deep", "integer-of-5000-digits"])
def test_load_config_rejects_bad_json(tmp_path, text):
    path = tmp_path / "broken.json"
    path.write_text(text)
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
