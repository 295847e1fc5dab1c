"""Propagation tiers against closed-form dynamics and each other."""

import math

import numpy as np
import pytest

from ddsim import (
    Envelope,
    ExcitedLevel,
    IntegratorSettings,
    PropagationError,
    PulsePair,
    SpectrumModel,
    StateVector,
    Trajectory,
    check_adiabatic_elimination,
    derive_couplings,
    propagate_averaged,
    propagate_bare,
    propagate_rwa,
)
from ddsim.units import HBAR


def _single_level(detuning, d0=2.0, d1=2.0, delta_qubit=0.0, omega_exc=2000.0):
    """Spectrum plus carrier with pulse 0 detuned by `detuning` from the level."""
    energy = delta_qubit + omega_exc
    lev = ExcitedLevel(energy=energy, dipole_to_0=d0, dipole_to_1=d1)
    sp = SpectrumModel(epsilon0=0.0, epsilon1=delta_qubit, excited_levels=(lev,))
    return sp, energy + detuning


def _flat_pair(sp, omega0, amp, duration, **kwargs):
    env = Envelope("constant")
    return PulsePair(amp0=amp, amp1=amp, envelope0=env, envelope1=env,
                     omega0=omega0, omega1=omega0 - sp.delta,
                     duration=duration, **kwargs)


# ---------------------------------------------------------------- state

def test_qubit_state_constructor():
    psi = StateVector.qubit(1.0, 0.0, n_excited=3)
    assert psi.amplitudes.shape == (5,)
    assert psi.populations[0] == 1.0
    assert psi.frame == "rwa"


def test_state_must_be_normalized():
    with pytest.raises(ValueError, match="normalized"):
        StateVector(np.array([1.0, 1.0]))


def test_state_frame_names():
    with pytest.raises(ValueError, match="frame"):
        StateVector(np.array([1.0, 0.0]), frame="lab")


@pytest.mark.parametrize("kwargs", [
    dict(method="euler"),
    dict(rtol=0.0),
    dict(max_step=-1.0),
    dict(save_points=1),
    dict(norm_tol=0.0),
])
def test_integrator_settings_validation(kwargs):
    with pytest.raises(ValueError):
        IntegratorSettings(**kwargs)


# ---------------------------------------------------------------- oracles

def test_resonant_bright_state_transfer():
    # With both carriers on resonance and all couplings equal the
    # dynamics closes on (c0+c1)/sqrt(2) and the level; starting from
    # |0> the population lands fully on |1> at t = pi*hbar/(2*sqrt(2)*lam).
    sp, om0 = _single_level(0.0, d0=3.0, d1=3.0)
    t_star = 0.4873931121671399  # lam = 1.5 ueV at a 10 V/cm drive
    pp = _flat_pair(sp, om0, amp=10.0, duration=t_star)
    cs = derive_couplings(sp, pp)
    traj = propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 1))
    p = traj.populations[-1]
    assert p[1] == pytest.approx(1.0, abs=1e-8)
    assert p[0] < 1e-8
    assert p[2] < 1e-8


def test_off_resonant_pi_transfer():
    # Raman exchange under a far detuned drive: both carriers coincide
    # at zero splitting, so the two-photon coupling is (2*lam)^2/delta
    # and a pi rotation takes t = pi*hbar/(2*coupling).
    sp, om0 = _single_level(-100.0, d0=2.0, d1=2.0)
    t_pi = 6.461980775943754
    pp = _flat_pair(sp, om0, amp=20.0, duration=t_pi)
    cs = derive_couplings(sp, pp)
    traj = propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 1))
    assert traj.populations[-1][1] == pytest.approx(1.0, abs=5e-3)
    assert np.max(traj.manifold_population) < 4 * (4.0 / 100.0) ** 2


def test_rwa_matches_bare_at_weak_coupling():
    sp, om0 = _single_level(-100.0, d0=2.0, d1=2.0)
    pp = _flat_pair(sp, om0, amp=20.0, duration=1.0)
    cs = derive_couplings(sp, pp)
    settings = IntegratorSettings(save_points=41)
    rwa = propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 1), settings)
    bare = propagate_bare(sp, pp, StateVector.qubit(1.0, 0.0, 1, frame="bare"), settings)
    # counter-rotating corrections enter at order detuning/carrier (~5%
    # of the transferred population here), so sub-percent agreement on
    # absolute populations is the honest expectation
    assert np.max(np.abs(rwa.populations - bare.populations)) < 5e-3


def test_averaged_matches_rwa_for_slow_envelopes():
    lev = ExcitedLevel(energy=4500.0, dipole_to_0=2.0, dipole_to_1=2.0)
    sp = SpectrumModel(epsilon0=0.0, epsilon1=2000.0, excited_levels=(lev,))
    env = Envelope("sin2", center=1.0, width=2.0)
    pp = PulsePair(amp0=20.0, amp1=20.0, envelope0=env, envelope1=env,
                   omega0=4400.0, omega1=2400.0, duration=2.0)
    cs = derive_couplings(sp, pp)
    settings = IntegratorSettings(save_points=81)
    rwa = propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 1), settings)
    avg = propagate_averaged(cs, pp, StateVector.qubit(1.0, 0.0, 1, frame="averaged"),
                             settings)
    assert np.max(np.abs(rwa.populations[:, :2] - avg.populations[:, :2])) < 2e-2


def test_rk4_agrees_with_adaptive():
    sp, om0 = _single_level(-100.0, d0=2.0, d1=2.0)
    pp = _flat_pair(sp, om0, amp=20.0, duration=2.0)
    cs = derive_couplings(sp, pp)
    psi = StateVector.qubit(1.0, 0.0, 1)
    a = propagate_rwa(cs, pp, psi, IntegratorSettings(save_points=21))
    b = propagate_rwa(cs, pp, psi, IntegratorSettings(method="rk4", save_points=21))
    assert np.max(np.abs(a.populations - b.populations)) < 1e-6


def test_save_grid_spans_window():
    sp, om0 = _single_level(-100.0)
    pp = _flat_pair(sp, om0, amp=10.0, duration=3.0)
    cs = derive_couplings(sp, pp)
    traj = propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 1),
                         IntegratorSettings(save_points=31))
    assert np.allclose(traj.times, np.linspace(0.0, 3.0, 31))
    assert traj.norm_drift < 1e-6


def test_norm_blowup_is_reported():
    sp, om0 = _single_level(-100.0)
    pp = _flat_pair(sp, om0, amp=50.0, duration=4.0)
    cs = derive_couplings(sp, pp)
    wild = IntegratorSettings(method="rk4", max_step=1.0, save_points=5)
    with pytest.raises(PropagationError, match="norm"):
        propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 1), wild)


def test_frame_mismatch_rejected():
    sp, om0 = _single_level(-100.0)
    pp = _flat_pair(sp, om0, amp=10.0, duration=1.0)
    cs = derive_couplings(sp, pp)
    with pytest.raises(ValueError, match="frame"):
        propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 1, frame="bare"))
    with pytest.raises(ValueError, match="frame"):
        propagate_bare(sp, pp, StateVector.qubit(1.0, 0.0, 1))


def test_dimension_mismatch_rejected():
    sp, om0 = _single_level(-100.0)
    pp = _flat_pair(sp, om0, amp=10.0, duration=1.0)
    cs = derive_couplings(sp, pp)
    with pytest.raises(ValueError, match="amplitudes"):
        propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 4))


# ---------------------------------------------------------------- elimination

def test_elimination_valid_when_detuning_dominates():
    sp, om0 = _single_level(-100.0)
    env = Envelope("sin2", center=1.0, width=2.0)
    pp = PulsePair(amp0=50.0, amp1=50.0, envelope0=env, envelope1=env,
                   omega0=om0, omega1=om0, duration=2.0)
    cs = derive_couplings(sp, pp)
    traj = propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 1))
    report = check_adiabatic_elimination(traj)
    assert report.valid
    # at zero splitting both beat channels add coherently, so the
    # occupied fraction follows the doubled coupling 2*lam/delta = 0.1
    assert 0.5 * 0.1**2 < report.peak_manifold_population < 1.2 * 0.1**2


def test_elimination_invalid_when_drive_is_strong():
    sp, om0 = _single_level(-100.0)
    env = Envelope("sin2", center=1.0, width=2.0)
    pp = PulsePair(amp0=500.0, amp1=500.0, envelope0=env, envelope1=env,
                   omega0=om0, omega1=om0, duration=2.0)
    cs = derive_couplings(sp, pp)
    traj = propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 1))
    report = check_adiabatic_elimination(traj)
    assert not report.valid
    assert report.peak_residual > report.threshold


def test_elimination_requires_metadata():
    traj = Trajectory(times=np.array([0.0, 1.0]),
                      amplitudes=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                      frame="rwa")
    with pytest.raises(ValueError, match="coupling"):
        check_adiabatic_elimination(traj)


# ---------------------------------------------------------------- trajectory

def _toy_trajectory(n=5):
    times = np.linspace(0.0, 4.0, n)
    amps = np.zeros((n, 3), dtype=complex)
    amps[:, 0] = np.cos(times)
    amps[:, 1] = 1j * np.sin(times)
    return Trajectory(times=times, amplitudes=amps, frame="rwa")


def test_trajectory_properties():
    traj = _toy_trajectory()
    assert traj.norms == pytest.approx(np.ones(5))
    assert traj.norm_drift < 1e-12
    assert np.all(traj.manifold_population == 0.0)
    assert traj.final_state.frame == "rwa"


def test_trajectory_grid_must_increase():
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(times=np.array([0.0, 0.0]),
                   amplitudes=np.zeros((2, 3), dtype=complex), frame="rwa")
