"""Gate synthesis, fidelity bookkeeping, and transfer scheduling."""

import cmath
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddsim import (
    EffectiveHamiltonian,
    Envelope,
    ExcitedLevel,
    GateSpec,
    GateSynthesisError,
    IntegratorSettings,
    PulsePair,
    SpectrumModel,
    StateVector,
    classify_regime,
    derive_couplings,
    gate_fidelity,
    polarization_leakage,
    propagate_rwa,
    qubit_transfer_matrix,
    schedule_stirap,
    synthesize_gate,
)
from ddsim.units import HBAR

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SQRT_X = np.array([[1, -1j], [-1j, 1]], dtype=complex) / math.sqrt(2)

SYMMETRIC = EffectiveHamiltonian(-1.0, -1.0, -1.0)


# ---------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------


def test_unknown_target_rejected():
    with pytest.raises(ValueError, match="unknown target"):
        GateSpec(target="CNOT")


def test_custom_requires_matrix():
    with pytest.raises(ValueError, match="custom_unitary"):
        GateSpec(target="CUSTOM")


def test_custom_matrix_must_be_2x2():
    with pytest.raises(ValueError, match="2x2"):
        GateSpec(target="CUSTOM", custom_unitary=np.eye(3))


def test_custom_matrix_must_be_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        GateSpec(target="CUSTOM", custom_unitary=np.array([[1, 0], [0, 0.5]]))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k_max": -1},
        {"l_max": 0},
        {"scale_bounds": (0.0, 4.0)},
        {"scale_bounds": (2.0, 1.0)},
    ],
)
def test_bad_search_bounds_rejected(kwargs):
    with pytest.raises(ValueError):
        GateSpec(target="NOT", **kwargs)


def test_target_matrices():
    assert np.array_equal(GateSpec(target="NOT").target_matrix(), PAULI_X)
    assert np.array_equal(GateSpec(target="PHASE").target_matrix(), PAULI_Z)
    h = GateSpec(target="HADAMARD").target_matrix()
    assert h[0, 0] == pytest.approx(1 / math.sqrt(2))
    assert h[1, 1] == pytest.approx(-1 / math.sqrt(2))
    c = GateSpec(target="CUSTOM", custom_unitary=SQRT_X)
    assert np.allclose(c.target_matrix(), SQRT_X)


# ---------------------------------------------------------------------
# synthesis on degenerate qubits (no beat constraint)
# ---------------------------------------------------------------------


def test_not_on_symmetric_sums():
    sol = synthesize_gate(GateSpec(target="NOT"), SYMMETRIC, 0.0)
    # quarter dressed turn at splitting 1 ueV: T = (pi/2) hbar / 1
    assert sol.duration == pytest.approx(1.0339169241510007, rel=1e-12)
    assert sol.theta0 == pytest.approx(math.pi / 2)
    assert sol.omega_tilde == pytest.approx(math.pi / 2)
    assert sol.amplitude_ratio == pytest.approx(1.0)
    assert sol.amplitude_scale == pytest.approx(1.0)
    # the two-photon sum points along -1; the target transfer phase needs +pi
    assert abs(sol.phase_offset) == pytest.approx(math.pi)
    assert (sol.k, sol.l, sol.n) == (0, 0, 0)
    assert sol.delta_t_residual == 0.0
    assert sol.predicted_fidelity >= 1.0 - 1e-12


def test_phase_gate_turns_second_pulse_off():
    sol = synthesize_gate(GateSpec(target="PHASE"), SYMMETRIC, 0.0)
    assert sol.amplitude_ratio == 0.0
    assert sol.theta0 == pytest.approx(math.pi)
    assert sol.n == 1
    # only Lambda0/2 = 0.5 ueV of splitting remains, so twice the NOT time
    assert sol.duration == pytest.approx(2.0678338483020013, rel=1e-12)
    assert sol.predicted_fidelity >= 1.0 - 1e-12


def test_phase_gate_with_positive_shifts():
    pos = EffectiveHamiltonian(1.0, 1.0, 1.0)
    sol = synthesize_gate(GateSpec(target="PHASE"), pos, 0.0)
    assert sol.theta0 == 0.0
    assert sol.n == 0
    assert sol.duration == pytest.approx(2.0678338483020013, rel=1e-12)


def test_hadamard_amplitude_ratio():
    sol = synthesize_gate(GateSpec(target="HADAMARD"), SYMMETRIC, 0.0)
    # positive root of x^2 + 2x - 1 = 0 scaled by the sum ratios
    assert sol.amplitude_ratio == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)
    assert sol.theta0 == pytest.approx(math.pi / 4)
    assert sol.duration == pytest.approx(0.3028272559002907, rel=1e-12)
    assert sol.predicted_fidelity >= 1.0 - 1e-12


def test_custom_square_root_of_not():
    spec = GateSpec(target="CUSTOM", custom_unitary=SQRT_X)
    sol = synthesize_gate(spec, SYMMETRIC, 0.0)
    # half the NOT rotation at the same splitting: half the duration
    assert sol.duration == pytest.approx(1.0339169241510007 / 2, rel=1e-12)
    assert sol.theta0 == pytest.approx(math.pi / 2)
    assert sol.omega_tilde == pytest.approx(math.pi / 4)
    assert sol.predicted_fidelity >= 1.0 - 1e-12


def test_not_ratio_balances_light_shifts():
    asym = EffectiveHamiltonian(-1.0, -0.25, -0.5)
    sol = synthesize_gate(GateSpec(target="NOT"), asym, 0.0)
    # Lambda1 x^2 = Lambda0 at the pi/2 angle: x = sqrt(4) = 2
    assert sol.amplitude_ratio == pytest.approx(2.0, rel=1e-12)
    assert sol.predicted_fidelity >= 1.0 - 1e-12


# diag(e^{-i pi/4}, e^{i pi/4}) sits at Theta_0 = 0, its adjoint at pi
DIAG = np.diag([cmath.exp(-0.25j * math.pi), cmath.exp(0.25j * math.pi)])


@pytest.mark.parametrize("lambda0", [-30.0, 30.0])
@pytest.mark.parametrize("delta", [0.0, 37.0])
@pytest.mark.parametrize("target", [DIAG, DIAG.conj().T], ids=["pole0", "pole_pi"])
def test_diagonal_custom_target_at_either_pole(lambda0, delta, target):
    ham = EffectiveHamiltonian(lambda0, math.copysign(9.0, lambda0), 15.0)
    sol = synthesize_gate(GateSpec(target="CUSTOM", custom_unitary=target), ham, delta)
    assert sol.amplitude_ratio == 0.0
    assert sol.theta0 == (0.0 if lambda0 > 0 else math.pi)
    # the target's own pole is 0 for DIAG; the other pole is reached mirrored
    target_pole = 0.0 if target[0, 0].imag < 0 else math.pi
    assert sol.n == (1 if sol.theta0 != target_pole else 0)
    assert sol.predicted_fidelity >= 1.0 - 1e-12


@pytest.mark.parametrize("target", ["PHASE", "CUSTOM"])
def test_diagonal_target_without_rescale_uses_the_pole_the_sums_give(target):
    # Lambda2 = 0 and Lambda0 > Lambda1 put Theta at 0 although Lambda0 < 0
    ham = EffectiveHamiltonian(-1.0, -2.0, 0.0)
    spec = GateSpec(target=target, custom_unitary=PAULI_Z, allow_rescale=False)
    sol = synthesize_gate(spec, ham, 0.0)
    assert sol.amplitude_ratio == 1.0
    assert (sol.theta0, sol.n) == (0.0, 0)
    assert sol.predicted_fidelity >= 1.0 - 1e-12


@pytest.mark.parametrize(
    "ham, delta",
    [(SYMMETRIC, 0.0), (SYMMETRIC, 5.0), (EffectiveHamiltonian(-1.0, -0.25, -0.5 + 0.2j), 3.0)],
)
def test_custom_pauli_x_is_the_not_solution(ham, delta):
    named = synthesize_gate(GateSpec(target="NOT"), ham, delta)
    custom = synthesize_gate(GateSpec(target="CUSTOM", custom_unitary=PAULI_X), ham, delta)
    assert dataclasses.replace(custom, target="NOT") == named


# ---------------------------------------------------------------------
# synthesis with a finite qubit splitting (beat-period branch)
# ---------------------------------------------------------------------


def test_duration_snaps_to_beat_period():
    sol = synthesize_gate(GateSpec(target="NOT"), SYMMETRIC, 5.0)
    assert sol.l == 1
    assert sol.duration == pytest.approx(2 * math.pi * HBAR / 5.0, rel=1e-12)
    assert sol.delta_t_residual < 1e-12
    # the beat period is shorter than the unconstrained quarter turn, so
    # the amplitudes are boosted to fit: s^2 = (pi/2) / (2 pi / 5)
    assert sol.amplitude_scale**2 == pytest.approx(1.25, rel=1e-12)
    assert sol.k == 0
    assert sol.predicted_fidelity >= 1.0 - 1e-9


def test_pinned_branch_integers_are_honored():
    sol = synthesize_gate(GateSpec(target="NOT", k=2, l=1), SYMMETRIC, 5.0)
    assert sol.k == 2
    assert sol.l == 1
    assert sol.omega_tilde == pytest.approx(math.pi / 2 + 2 * math.pi)
    # pinning k bypasses the scale window (here s^2 = 6.25)
    assert sol.amplitude_scale**2 == pytest.approx(6.25, rel=1e-12)
    assert sol.predicted_fidelity >= 1.0 - 1e-9


def test_unsatisfiable_search_window_raises():
    spec = GateSpec(target="NOT", l_max=1, k_max=0, scale_bounds=(0.9, 1.1))
    with pytest.raises(GateSynthesisError, match="no duration satisfies"):
        synthesize_gate(spec, SYMMETRIC, 5.0)


@pytest.mark.parametrize("delta", [-5.0, math.nan, math.inf])
def test_bad_splitting_is_named_before_any_search(delta):
    with pytest.raises(GateSynthesisError, match=r"Delta = .* must be finite and >= 0"):
        synthesize_gate(GateSpec(target="NOT"), SYMMETRIC, delta)


@pytest.mark.parametrize("target, k", [("NOT", 4), ("HADAMARD", 9)])
def test_scale_bounds_away_from_one_keep_the_first_beat_period(target, k):
    # with s^2 held in [2, 3] the admissible k lie far from the unit-scale one
    spec = GateSpec(target=target, scale_bounds=(2.0, 3.0))
    sol = synthesize_gate(spec, EffectiveHamiltonian(-20.0, -5.0, 5.0), 10.0)
    assert (sol.l, sol.k) == (1, k)
    assert 2.0 <= sol.amplitude_scale**2 <= 3.0
    assert sol.predicted_fidelity >= 1.0 - 1e-9


_SUM = st.floats(0.5, 100.0).flatmap(lambda v: st.sampled_from([v, -v]))
_BOUNDS = st.one_of(
    st.tuples(st.floats(0.1, 1.0), st.floats(1.0, 10.0)),  # containing 1
    st.tuples(st.floats(1.01, 5.0), st.floats(1.0, 3.0)).map(lambda b: (b[0], b[0] * b[1])),  # above 1
    st.tuples(st.floats(0.05, 0.99), st.floats(1.0, 3.0)).map(lambda b: (b[0] / b[1], b[0])),  # below 1
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    sums=st.tuples(_SUM, _SUM, _SUM),
    delta=st.floats(0.5, 60.0),
    target=st.sampled_from(["NOT", "HADAMARD", "PHASE", "SQRT_X"]),
    bounds=_BOUNDS,
    k_max=st.integers(0, 64),
    l_max=st.integers(1, 64),
)
def test_branch_search_returns_the_shortest_admissible_window(sums, delta, target, bounds, k_max, l_max):
    ham = EffectiveHamiltonian(*sums)
    if target == "SQRT_X":
        spec = GateSpec("CUSTOM", custom_unitary=SQRT_X, k_max=k_max, l_max=l_max, scale_bounds=bounds)
    else:
        spec = GateSpec(target, k_max=k_max, l_max=l_max, scale_bounds=bounds)
    try:
        # pinned branches bypass the bounds and expose W0 and the reference ratio
        pinned = synthesize_gate(dataclasses.replace(spec, k=0, l=1), ham, delta)
    except GateSynthesisError as exc:
        with pytest.raises(GateSynthesisError, match=re.escape(str(exc))):
            synthesize_gate(spec, ham, delta)
        return
    omega_ref = ham.rescaled(pinned.amplitude_ratio).rabi
    beat = 2.0 * math.pi * HBAR / delta
    lo, hi = bounds
    expected = None
    for l in range(1, l_max + 1):
        s2 = [(pinned.omega_tilde + math.pi * k) * HBAR / (omega_ref * (l * beat)) for k in range(k_max + 1)]
        admissible = [(abs(math.log(v)), k) for k, v in enumerate(s2) if lo <= v <= hi]
        if admissible:
            expected = (l, min(admissible)[1])
            break
    if expected is None:
        with pytest.raises(GateSynthesisError, match="no duration satisfies"):
            synthesize_gate(spec, ham, delta)
    else:
        sol = synthesize_gate(spec, ham, delta)
        assert (sol.l, sol.k) == expected


def test_identity_at_zero_splitting_takes_the_first_positive_window():
    # W = 0 at k = 0 would be a zero-length window; k = 1 (W = pi) is -1 times the identity
    ham = EffectiveHamiltonian(1.0, 1.0, 1.0)
    sol = synthesize_gate(GateSpec(target="CUSTOM", custom_unitary=np.eye(2)), ham, 0.0)
    assert sol.k == 1
    assert sol.omega_tilde == math.pi
    assert sol.duration > 0
    assert sol.predicted_fidelity >= 1.0 - 1e-12


@pytest.mark.parametrize("delta", [0.0, 5.0])
def test_identity_pinned_to_zero_length_branch_raises(delta):
    spec = GateSpec(target="CUSTOM", custom_unitary=np.eye(2), k=0)
    with pytest.raises(GateSynthesisError, match="k = 0 leaves CUSTOM no dressed phase"):
        synthesize_gate(spec, EffectiveHamiltonian(1.0, 1.0, 1.0), delta)


# ---------------------------------------------------------------------
# synthesis failure modes
# ---------------------------------------------------------------------


def test_not_needs_two_photon_sum():
    dark = EffectiveHamiltonian(-1.0, -1.0, 0.0)
    with pytest.raises(GateSynthesisError, match="Lambda2"):
        synthesize_gate(GateSpec(target="NOT"), dark, 0.0)


def test_hadamard_needs_two_photon_sum():
    dark = EffectiveHamiltonian(-1.0, -1.0, 0.0)
    with pytest.raises(GateSynthesisError, match="Lambda2"):
        synthesize_gate(GateSpec(target="HADAMARD"), dark, 0.0)


def test_rescale_disallowed_keeps_unit_ratio():
    sol = synthesize_gate(GateSpec(target="NOT", allow_rescale=False), SYMMETRIC, 0.0)
    assert sol.amplitude_ratio == 1.0
    assert sol.predicted_fidelity >= 1.0 - 1e-12


def test_rescale_disallowed_rejects_unbalanced_shifts():
    asym = EffectiveHamiltonian(-1.0, -0.25, -0.5)
    spec = GateSpec(target="NOT", allow_rescale=False)
    with pytest.raises(GateSynthesisError, match="equal light shifts"):
        synthesize_gate(spec, asym, 0.0)


def test_solution_dict_round_trip():
    sol = synthesize_gate(GateSpec(target="NOT"), SYMMETRIC, 5.0)
    d = sol.to_dict()
    assert d["target"] == "NOT"
    assert d["duration_ns"] == sol.duration
    assert d["theta0_rad"] == sol.theta0
    assert d["omega_tilde_rad"] == sol.omega_tilde
    assert d["amplitude_ratio"] == sol.amplitude_ratio
    assert d["amplitude_scale"] == sol.amplitude_scale
    assert d["phase_offset_rad"] == sol.phase_offset
    assert d["delta_t_residual_rad"] == sol.delta_t_residual
    assert d["predicted_fidelity"] == sol.predicted_fidelity
    assert {"k", "l", "n"} <= set(d)
    assert "m" not in d


# ---------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------


def test_fidelity_of_identical_gates():
    assert gate_fidelity(PAULI_X, PAULI_X) == pytest.approx(1.0)


def test_fidelity_of_orthogonal_gates():
    assert gate_fidelity(PAULI_X, PAULI_Z) == pytest.approx(0.0, abs=1e-15)


def test_fidelity_ignores_global_phase(rng):
    phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    assert gate_fidelity(phase * PAULI_X, PAULI_X) == pytest.approx(1.0)


def test_fidelity_rejects_subunitary_input():
    leaky = 0.9 * PAULI_X
    with pytest.raises(ValueError, match="not unitary"):
        gate_fidelity(leaky, PAULI_X)


def test_fidelity_tolerance_admits_small_leakage():
    leaky = 0.99 * PAULI_X  # U^dag U deviates from identity by ~0.02
    assert gate_fidelity(leaky, PAULI_X, unitarity_tol=0.05) == pytest.approx(0.99)


def test_fidelity_requires_2x2():
    with pytest.raises(ValueError, match="2x2"):
        gate_fidelity(np.eye(3), np.eye(3))


# ---------------------------------------------------------------------
# transfer-matrix assembly
# ---------------------------------------------------------------------


def _weak_drive_trajectories(duration=0.5):
    lev = ExcitedLevel(energy=2000.0, dipole_to_0=2.0, dipole_to_1=2.0)
    sp = SpectrumModel(epsilon0=0.0, epsilon1=0.0, excited_levels=(lev,))
    env = Envelope("constant")
    pair = PulsePair(amp0=10.0, amp1=10.0, envelope0=env, envelope1=env,
                     omega0=1900.0, omega1=1900.0, duration=duration)
    cs = derive_couplings(sp, pair)
    settings = IntegratorSettings(save_points=2)
    t0 = propagate_rwa(cs, pair, StateVector.qubit(1.0, 0.0, 1), settings)
    t1 = propagate_rwa(cs, pair, StateVector.qubit(0.0, 1.0, 1), settings)
    return sp, t0, t1


def test_transfer_matrix_columns_are_final_amplitudes():
    sp, t0, t1 = _weak_drive_trajectories()
    m = qubit_transfer_matrix(t0, t1)
    assert m[0, 0] == t0.final_amplitudes[0]
    assert m[1, 0] == t0.final_amplitudes[1]
    assert m[0, 1] == t1.final_amplitudes[0]
    assert m[1, 1] == t1.final_amplitudes[1]


def test_transfer_matrix_attaches_free_phases():
    sp, t0, t1 = _weak_drive_trajectories()
    bare = qubit_transfer_matrix(t0, t1)
    lab = qubit_transfer_matrix(t0, t1, spectrum=sp)
    t_end = t0.times[-1]
    free = np.diag([
        cmath.exp(-1j * sp.epsilon0 * t_end / HBAR),
        cmath.exp(-1j * sp.epsilon1 * t_end / HBAR),
    ])
    assert np.allclose(lab, free @ bare, atol=1e-15)


def test_transfer_matrix_rejects_mismatched_windows():
    _, t0, _ = _weak_drive_trajectories(duration=0.5)
    _, _, t1 = _weak_drive_trajectories(duration=0.6)
    with pytest.raises(ValueError, match="different times"):
        qubit_transfer_matrix(t0, t1)


# ---------------------------------------------------------------------
# transfer scheduling
# ---------------------------------------------------------------------


def _base_envelope():
    return Envelope("gaussian", center=10.0, width=2.0)


def test_counterintuitive_delays_the_occupied_pulse():
    sch = schedule_stirap("counterintuitive", _base_envelope(), 4.0, 20.0)
    assert sch.envelope0.center == pytest.approx(12.0)
    assert sch.envelope1.center == pytest.approx(8.0)


def test_intuitive_is_the_mirror_image():
    sch = schedule_stirap("intuitive", _base_envelope(), 4.0, 20.0)
    assert sch.envelope0.center == pytest.approx(8.0)
    assert sch.envelope1.center == pytest.approx(12.0)


def test_quoted_angle_limits_without_sums():
    counter = schedule_stirap("counterintuitive", _base_envelope(), 4.0, 20.0)
    assert counter.theta_start == pytest.approx(math.pi)
    assert counter.theta_end == 0.0
    assert counter.omega_tilde is None
    assert counter.residual_phase_plus is None
    intuit = schedule_stirap("intuitive", _base_envelope(), 4.0, 20.0)
    assert intuit.theta_start == 0.0
    assert intuit.theta_end == pytest.approx(math.pi)


def test_angle_limits_flip_for_negative_shifts():
    # with red detunings all sums are negative, which mirrors the
    # mixing angle: the counterintuitive sweep runs 0 -> pi instead
    sch = schedule_stirap("counterintuitive", _base_envelope(), 4.0, 20.0,
                          ham=SYMMETRIC)
    assert sch.theta_start < 1e-3
    assert abs(sch.theta_end - math.pi) < 1e-3
    assert sch.omega_tilde > 0
    assert sch.residual_phase_plus >= 0
    assert sch.residual_phase_minus >= 0


def test_overlap_is_peak_envelope_product():
    sch = schedule_stirap("counterintuitive", _base_envelope(), 4.0, 20.0)
    # both gaussians sit one width from the midpoint: (e^{-1/2})^2
    assert sch.overlap == pytest.approx(math.exp(-1.0), rel=1e-6)


def test_separated_pulses_are_refused():
    narrow = Envelope("gaussian", center=15.0, width=0.5)
    with pytest.raises(ValueError, match="barely overlap"):
        schedule_stirap("counterintuitive", narrow, 25.0, 30.0)


def test_beat_residual_tracks_the_inversion_condition():
    # an odd half-turn of the qubit beat is the clean inversion point
    delta = math.pi * HBAR / 20.0
    good = schedule_stirap("counterintuitive", _base_envelope(), 4.0, 20.0,
                           delta_qubit=delta)
    bad = schedule_stirap("counterintuitive", _base_envelope(), 4.0, 20.0,
                          delta_qubit=2 * delta)
    assert good.residual_beat < 1e-12
    assert bad.residual_beat == pytest.approx(math.pi)


@pytest.mark.parametrize(
    "ordering, delay, duration, match",
    [
        ("sequential", 4.0, 20.0, "unknown ordering"),
        ("counterintuitive", -1.0, 20.0, "delay"),
        ("counterintuitive", 4.0, 0.0, "duration"),
    ],
)
def test_schedule_argument_validation(ordering, delay, duration, match):
    with pytest.raises(ValueError, match=match):
        schedule_stirap(ordering, _base_envelope(), delay, duration)


# ---------------------------------------------------------------------
# polarization leakage
# ---------------------------------------------------------------------


def _leakage_setup(omega0):
    lev = ExcitedLevel(energy=2005.0, dipole_to_0=2.0, dipole_to_1=2.0)
    sp = SpectrumModel(epsilon0=0.0, epsilon1=0.1, excited_levels=(lev,))
    env = Envelope("constant")
    pair = PulsePair(amp0=50.0, amp1=50.0, envelope0=env, envelope1=env,
                     omega0=omega0, omega1=omega0 - 0.1, duration=10.0,
                     gamma_y0=0.2, gamma_z1=0.1)
    regime = classify_regime(derive_couplings(sp, pair))
    return pair, regime


def test_off_resonant_leakage_is_suppressed():
    pair, regime = _leakage_setup(omega0=1905.0)
    assert regime.all_off_resonant
    est = polarization_leakage(pair, regime)
    assert est.regime_class == "off-resonant"
    assert est.gamma_sq == pytest.approx(0.04)
    # lambda/delta = 5/100: misalignment only acts through the manifold
    assert est.suppression == pytest.approx(0.0025)
    assert est.leakage == pytest.approx(1e-4)
    assert est.success_weight == pytest.approx(0.9999)


def test_resonant_leakage_is_first_order():
    pair, regime = _leakage_setup(omega0=2005.0)
    assert not regime.all_off_resonant
    est = polarization_leakage(pair, regime)
    assert est.regime_class == "resonant"
    assert est.suppression is None
    assert est.leakage == pytest.approx(0.04)
