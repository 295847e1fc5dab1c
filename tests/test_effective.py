"""Reduced two-level model: sums, dressed-frame evolution, closed-form gates."""

import cmath
import math

import numpy as np
import pytest

from ddsim import (
    EffectiveEvolution,
    EffectiveHamiltonian,
    Envelope,
    ExcitedLevel,
    IntegratorSettings,
    PulsePair,
    SpectrumModel,
    StateVector,
    apply,
    derive_couplings,
    diagonal_evolution_check,
    effective_hamiltonian,
    evolution_matrix,
    propagate_rwa,
)
from ddsim.effective import GateMatrix
from ddsim.units import HBAR


def _couplings(dipoles, detunings, delta_qubit=5.0, amp=20.0, omega0=2000.0):
    levels = tuple(
        ExcitedLevel(energy=omega0 - dk, dipole_to_0=d0, dipole_to_1=d1)
        for (d0, d1), dk in zip(dipoles, detunings)
    )
    sp = SpectrumModel(epsilon0=0.0, epsilon1=delta_qubit, excited_levels=levels)
    env = Envelope("constant")
    pp = PulsePair(amp0=amp, amp1=amp, envelope0=env, envelope1=env,
                   omega0=omega0, omega1=omega0 - delta_qubit, duration=4.0)
    return derive_couplings(sp, pp), sp, pp


FLAT = Envelope("constant")


# ---------------------------------------------------------------- sums

def test_sums_single_level():
    # lam0 = lam1 = 10 ueV over delta = -100 ueV
    cs, _, _ = _couplings([(2.0, 2.0)], [-100.0], amp=100.0)
    ham = effective_hamiltonian(cs)
    assert ham.Lambda0 == pytest.approx(-1.0)
    assert ham.Lambda1 == pytest.approx(-1.0)
    assert ham.Lambda2 == pytest.approx(-1.0)
    assert ham.rabi == pytest.approx(1.0)
    assert ham.mixing_angle == pytest.approx(0.5 * math.pi)


def test_sums_two_levels():
    # lam0 = (3, 4), lam1 = (2, 5) over (-50, -80), summed by hand
    cs, _, _ = _couplings([(3.0, 2.0), (4.0, 5.0)], [-50.0, -80.0], amp=20.0)
    ham = effective_hamiltonian(cs)
    assert ham.Lambda0 == pytest.approx(-0.38, rel=1e-12)
    assert ham.Lambda1 == pytest.approx(-0.3925, rel=1e-12)
    assert ham.Lambda2 == pytest.approx(-0.37, rel=1e-12)
    assert ham.rabi == pytest.approx(0.3700527833971797, rel=1e-12)
    assert ham.mixing_angle == pytest.approx(1.553906041249692, rel=1e-12)


def test_lambda2_carries_drive_phase_difference():
    cs, _, _ = _couplings([(2.0, 2.0)], [-100.0], amp=100.0)
    ham = effective_hamiltonian(cs, phi0=0.4, phi1=0.1)
    assert abs(ham.Lambda2) == pytest.approx(1.0)
    assert cmath.phase(ham.Lambda2) == pytest.approx(0.3 - math.pi, abs=1e-12)


def test_resonant_level_rejected():
    cs, _, _ = _couplings([(2.0, 2.0)], [0.0])
    with pytest.raises(ValueError, match="delta_k"):
        effective_hamiltonian(cs)


def test_rescaled_and_scaled_sums():
    ham = EffectiveHamiltonian(-1.0, -0.5, complex(-0.6))
    r = ham.rescaled(2.0)
    assert r.Lambda0 == -1.0
    assert r.Lambda1 == pytest.approx(-2.0)
    assert r.Lambda2 == pytest.approx(-1.2)
    s = ham.scaled(3.0)
    assert s.Lambda0 == pytest.approx(-3.0)
    assert s.Lambda1 == pytest.approx(-1.5)
    assert s.Lambda2 == pytest.approx(-1.8)


# ---------------------------------------------------------------- evolution

def test_constant_envelope_evolution():
    ham = EffectiveHamiltonian(-1.0, -1.0, complex(-1.0))
    ev = EffectiveEvolution(ham, FLAT, FLAT, 0.0, 2.0)
    assert ev.theta(0.3) == pytest.approx(0.5 * math.pi)
    assert ev.omega(1.0) == pytest.approx(1.0)
    assert ev.omega_integral(2.0) == pytest.approx(2.0 / HBAR, rel=1e-10)
    assert ev.phi_lambda(2.0) == pytest.approx(-2.0 / HBAR, rel=1e-10)
    assert ev.E_plus(0.5) - ev.E_minus(0.5) == pytest.approx(2.0)
    assert ev.E_plus(0.5) + ev.E_minus(0.5) == pytest.approx(-2.0)


def test_window_must_be_ordered():
    ham = EffectiveHamiltonian(-1.0, -1.0, complex(-1.0))
    with pytest.raises(ValueError, match="window"):
        EffectiveEvolution(ham, FLAT, FLAT, 2.0, 2.0)


def test_theta_follows_delayed_envelopes():
    # late pulse on the occupied transition sweeps the mixing angle
    # from 0 to pi across the window
    ham = EffectiveHamiltonian(-1.0, -1.0, complex(-1.0))
    f0 = Envelope("gaussian", center=2.4, width=0.5)
    f1 = Envelope("gaussian", center=1.6, width=0.5)
    ev = EffectiveEvolution(ham, f0, f1, 0.0, 4.0)
    assert ev.theta(0.0) < 0.05
    assert ev.theta(4.0) > math.pi - 0.05
    assert ev.theta(2.0) == pytest.approx(0.5 * math.pi, abs=1e-9)
    grid_theta = np.array([ev.theta(t) for t in np.linspace(0.0, 4.0, 101)])
    assert np.all(np.diff(grid_theta) > -1e-9)


def test_theta_holds_across_dead_stretch():
    # both envelopes vanish before, between and after two disjoint
    # pulses; with negative sums pulse 0 alone gives pi, pulse 1 alone 0
    ham = EffectiveHamiltonian(-1.0, -0.5, complex(-0.6))
    f0 = Envelope("sin2", center=2.0, width=2.0)
    f1 = Envelope("sin2", center=6.0, width=2.0)
    ev = EffectiveEvolution(ham, f0, f1, 0.0, 8.0)
    for t in (0.0, 0.5, 3.5, 4.0, 4.5):
        assert ev.theta(t) == pytest.approx(math.pi, abs=1e-12)
    for t in (7.5, 8.0):
        assert ev.theta(t) == pytest.approx(0.0, abs=1e-12)
    # the grid hold equals a forward fill, backfilled before the first pulse
    x = 0.5 * (ham.Lambda0 * f0(ev.grid) ** 2 - ham.Lambda1 * f1(ev.grid) ** 2)
    y = abs(ham.Lambda2) * f0(ev.grid) * f1(ev.grid)
    held, last = [], None
    for xi, yi in zip(x, y):
        if xi != 0.0 or yi != 0.0:
            last = math.atan2(yi, xi)
        held.append(last)
    first = next(v for v in held if v is not None)
    assert [first if v is None else v for v in held] == list(ev._grid_theta)


_DEAD_EDGE_CASES = {
    # window edges of a sin2 pair that spans the whole window
    "sin2-edges": (Envelope("sin2", center=2.0, width=4.0), Envelope("sin2", center=2.0, width=4.0), 4.0),
    # the two disjoint pulses of test_theta_holds_across_dead_stretch
    "dead-stretch": (Envelope("sin2", center=2.0, width=2.0), Envelope("sin2", center=6.0, width=2.0), 8.0),
    # shifted pair with dead ends wider than the largest inward nudge: the grid hold decides
    "shifted": (Envelope("sin2", center=5.0, width=4.0).shifted(0.5),
                Envelope("sin2", center=5.0, width=4.0).shifted(-0.5), 8.0),
}


@pytest.mark.parametrize("case", sorted(_DEAD_EDGE_CASES))
def test_theta_on_time_array_matches_pointwise(case):
    f0, f1, t1 = _DEAD_EDGE_CASES[case]
    ev = EffectiveEvolution(EffectiveHamiltonian(-1.0, -0.5, complex(-0.6)), f0, f1, 0.0, t1)
    times = np.linspace(0.0, t1, 801)
    pointwise = np.array([ev.theta(t) for t in times])
    assert np.max(np.abs(ev.theta(times) - pointwise)) <= 1e-15
    assert ev.theta(times.reshape(3, 267)).shape == (3, 267)
    if case == "shifted":
        assert ev.theta(1.0) == ev._grid_theta[250]


def test_evolution_matrix_on_time_array_matches_per_time_calls():
    f0, f1, t1 = _DEAD_EDGE_CASES["shifted"]
    cs, sp, _ = _couplings([(2.0, 2.0)], [-100.0], amp=20.0)
    ev = EffectiveEvolution(effective_hamiltonian(cs), f0, f1, 0.0, t1)
    times = np.linspace(0.0, t1, 41)
    with pytest.warns(UserWarning, match="adiabatic"):
        gm = evolution_matrix(ev, sp, 0.0, times)
        single = [evolution_matrix(ev, sp, 0.0, t) for t in times]
    for field in ("u00", "u01", "u10", "u11", "global_phase"):
        per_time = np.array([getattr(g, field) for g in single])
        assert np.max(np.abs(getattr(gm, field) - per_time)) <= 1e-15, field
    m = gm.matrix
    assert m.shape == (41, 2, 2)
    assert np.allclose(m.conj().swapaxes(-1, -2) @ m, np.eye(2), atol=1e-12)
    out = apply(gm, np.array([0.6, 0.8j]))
    assert out.shape == (41, 2)
    assert np.allclose(out, [apply(g, np.array([0.6, 0.8j])) for g in single], rtol=0, atol=1e-15)


def test_theta_dot_is_doubled_rate():
    # the diagnostic rate is intentionally twice |dTheta/dt| (its
    # threshold absorbs the factor), so compare against 2x the slope
    ham = EffectiveHamiltonian(-1.0, -1.0, complex(-1.0))
    f0 = Envelope("gaussian", center=2.4, width=0.5)
    f1 = Envelope("gaussian", center=1.6, width=0.5)
    ev = EffectiveEvolution(ham, f0, f1, 0.0, 4.0)
    h = 1e-6
    for t in (1.3, 1.9, 2.0, 2.6):
        fd = abs(ev.theta(t + h) - ev.theta(t - h)) / (2 * h)
        assert ev.theta_dot(t) == pytest.approx(2.0 * fd, rel=1e-4, abs=1e-7)


def test_omega_integral_is_additive():
    ham = EffectiveHamiltonian(-0.5, -0.8, complex(-0.4))
    f0 = Envelope("sin2", center=2.0, width=4.0)
    ev = EffectiveEvolution(ham, f0, f0, 0.0, 4.0)
    total = ev.omega_integral(4.0)
    assert ev.omega_integral(1.5) + (total - ev.omega_integral(1.5)) == pytest.approx(total)
    mid = EffectiveEvolution(ham, f0, f0, 0.0, 4.0).omega_integral(2.0)
    assert 0.0 < mid < total


def test_adiabaticity_check_passes_frozen_and_flags_fast():
    ham = EffectiveHamiltonian(-1.0, -1.0, complex(-1.0))
    ev = EffectiveEvolution(ham, FLAT, FLAT, 0.0, 30.0)
    report = diagonal_evolution_check(ev)
    assert report.passed
    assert report.max_ratio == 0.0

    weak = EffectiveHamiltonian(-0.01, -0.01, complex(-0.01))
    fast0 = Envelope("gaussian", center=2.4, width=0.4)
    fast1 = Envelope("gaussian", center=1.6, width=0.4)
    ev2 = EffectiveEvolution(weak, fast0, fast1, 0.0, 4.0)
    report = diagonal_evolution_check(ev2)
    assert not report.passed
    assert report.max_ratio > report.threshold


# ---------------------------------------------------------------- gate matrix

def test_gate_matrix_structure_enforced():
    with pytest.raises(ValueError, match="unitary"):
        GateMatrix(u00=0.5, u01=0.5, u10=-0.5, u11=0.5, global_phase=1.0,
                   delta_qubit=0.0, t0=0.0, t=1.0)
    with pytest.raises(ValueError, match="su"):
        GateMatrix(u00=1.0, u01=0.0, u10=0.0, u11=-1.0, global_phase=1.0,
                   delta_qubit=0.0, t0=0.0, t=1.0)


def test_constant_envelope_matrix_closed_form():
    # symmetric sums rotate the qubit as cos/sin of the accumulated phase
    ham = EffectiveHamiltonian(-1.0, -1.0, complex(-1.0))
    ev = EffectiveEvolution(ham, FLAT, FLAT, 0.0, 1.2)
    gm = evolution_matrix(ev, epsilon0=0.0, delta_qubit=0.0)
    w = 1.2 / HBAR
    assert gm.u00 == pytest.approx(math.cos(w), rel=1e-9)
    # arg(Lambda2) = pi flips the sign of the off-diagonal entry
    assert gm.u01 == pytest.approx(1j * math.sin(w), rel=1e-9)
    core = gm.core
    assert np.allclose(core.conj().T @ core, np.eye(2), atol=1e-12)


def test_matrix_includes_beat_and_free_phases():
    ham = EffectiveHamiltonian(-1.0, -1.0, complex(-1.0))
    ev = EffectiveEvolution(ham, FLAT, FLAT, 0.0, 2.0)
    gm = evolution_matrix(ev, t0=0.5, t=1.5, epsilon0=3.0, delta_qubit=5.0)
    dp0 = cmath.exp(1j * 5.0 * 0.5 / HBAR)
    dp1 = cmath.exp(-1j * 5.0 * 1.5 / HBAR)
    m = gm.matrix
    inter = gm.global_phase * gm.core
    assert m[0, 0] == pytest.approx(inter[0, 0])
    assert m[0, 1] == pytest.approx(inter[0, 1] * dp0)
    assert m[1, 0] == pytest.approx(inter[1, 0] * dp1)
    assert m[1, 1] == pytest.approx(inter[1, 1] * dp1 * dp0)
    # global phase carries the ground energy over the interval
    expected = cmath.exp(-1j * (3.0 * 1.0 / HBAR + ev.phi_lambda(1.5) - ev.phi_lambda(0.5)))
    assert gm.global_phase == pytest.approx(expected)


def test_matrix_reads_energies_from_spectrum():
    cs, sp, _ = _couplings([(2.0, 2.0)], [-100.0], amp=20.0)
    ham = effective_hamiltonian(cs)
    ev = EffectiveEvolution(ham, FLAT, FLAT, 0.0, 1.0)
    with_sp = evolution_matrix(ev, sp)
    direct = evolution_matrix(ev, epsilon0=sp.epsilon0, delta_qubit=sp.delta)
    assert np.allclose(with_sp.matrix, direct.matrix)
    with pytest.raises(ValueError, match="epsilon0"):
        evolution_matrix(ev)


def test_matrix_time_bounds():
    ham = EffectiveHamiltonian(-1.0, -1.0, complex(-1.0))
    ev = EffectiveEvolution(ham, FLAT, FLAT, 0.0, 1.0)
    with pytest.raises(ValueError, match="window"):
        evolution_matrix(ev, t0=0.0, t=2.0, epsilon0=0.0, delta_qubit=0.0)
    with pytest.raises(ValueError, match="window"):
        evolution_matrix(ev, t0=0.0, t=np.array([0.0, 0.5, 1.5]), epsilon0=0.0, delta_qubit=0.0)


def test_nonadiabatic_evolution_warns():
    weak = EffectiveHamiltonian(-0.01, -0.01, complex(-0.01))
    f0 = Envelope("gaussian", center=2.4, width=0.4)
    f1 = Envelope("gaussian", center=1.6, width=0.4)
    ev = EffectiveEvolution(weak, f0, f1, 0.0, 4.0)
    with pytest.warns(UserWarning, match="adiabatic"):
        gm = evolution_matrix(ev, epsilon0=0.0, delta_qubit=0.0)
    assert not gm.adiabatic


def test_apply_preserves_norm():
    ham = EffectiveHamiltonian(-1.0, -0.7, complex(-0.5))
    ev = EffectiveEvolution(ham, FLAT, FLAT, 0.0, 1.0)
    gm = evolution_matrix(ev, epsilon0=2.0, delta_qubit=5.0)
    vec = np.array([0.6, 0.8j])
    out = apply(gm, vec)
    assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out, gm.matrix @ vec)


# ---------------------------------------------------------------- against ODE

def test_matrix_tracks_propagation_at_weak_drive():
    # constant far detuned drive, ratio 0.02: the closed form and the
    # integrated dynamics should agree to a few parts in 1e4
    cs, sp, pp = _couplings([(2.0, 2.0)], [-100.0], amp=20.0, delta_qubit=2000.0,
                            omega0=4400.0)
    ham = effective_hamiltonian(cs)
    ev = EffectiveEvolution(ham, pp.envelope0, pp.envelope1, 0.0, pp.duration)
    traj = propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 1),
                         IntegratorSettings(save_points=9))
    worst = 0.0
    for j, t in enumerate(traj.times[1:], start=1):
        gm = evolution_matrix(ev, sp, 0.0, float(t))
        model = np.abs(gm.matrix @ np.array([1.0, 0.0])) ** 2
        seen = traj.populations[j, :2]
        worst = max(worst, float(np.max(np.abs(model - seen))))
    assert worst < 5 * 0.02**2
