"""Propagation tiers against closed-form dynamics and each other."""

import cmath
import dataclasses
import functools
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings as hypothesis_settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import ddsim.dynamics
from ddsim import (
    CouplingSet,
    Envelope,
    ExcitedLevel,
    GateSpec,
    IntegratorSettings,
    PropagationError,
    PulsePair,
    SpectrumConfig,
    SpectrumModel,
    StateVector,
    Trajectory,
    build_spectrum,
    check_adiabatic_elimination,
    derive_couplings,
    effective_hamiltonian,
    enforce_two_photon_resonance,
    propagate_averaged,
    propagate_bare,
    propagate_rwa,
    qubit_transfer_matrix,
    synthesize_gate,
)
from ddsim.units import DIPOLE_FIELD_TO_UEV, HBAR


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
    dict(tol=0.0),
    dict(tol=-1.0),
    dict(tol=math.nan),
    dict(save_points=1),
    dict(save_points=0),
    dict(save_points=2.5),
    dict(save_points=math.nan),
    dict(save_points=math.inf),
])
def test_integrator_settings_validation(kwargs):
    with pytest.raises(ValueError):
        IntegratorSettings(**kwargs)


def test_integral_save_points_are_taken_as_an_int():
    settings = IntegratorSettings(save_points=5.0)
    assert settings == IntegratorSettings(save_points=5) and type(settings.save_points) is int


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


@pytest.mark.parametrize("duration, warns", [(21.0, False), (22.0, True)])
def test_bare_warns_past_1e4_carrier_periods(duration, warns, monkeypatch, caplog, recwarn):
    # both carriers sit at 1900 ueV and turn in 2.1767 ps, so 1e4 periods take 21.767 ns
    sp, om0 = _single_level(-100.0)
    pp = _flat_pair(sp, om0, amp=20.0, duration=duration)
    monkeypatch.setattr(ddsim.dynamics, "_propagate", lambda *args, **kwargs: None)
    with caplog.at_level(logging.INFO, logger="ddsim.dynamics"):
        propagate_bare(sp, pp, StateVector.qubit(1.0, 0.0, 1, frame="bare"))
    periods = duration * om0 / (2.0 * math.pi * HBAR)
    assert caplog.records[-1].getMessage() == f"bare propagation: {periods:.0f} periods of the faster carrier"
    messages = [str(w.message) for w in recwarn]
    assert len(messages) == warns
    assert all(m.startswith("bare propagation spans about 1.0e+04 carrier periods") for m in messages)


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


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_averaged_is_rwa_without_crossed_couplings(shift):
    # at Delta = 0 and mu0 = mu1 = 0 the rwa equations are the averaged ones, built by one function: the qubit
    # amplitudes are bit-identical, and the manifold ones differ by the c-frame phase alone.  With shift 0 the
    # pulses share one envelope, and both tiers take the one-envelope basis; with shift 0.5 both take the alpha path
    cs, pp, psi = _shaped_draw(7, 3, 1, "sin2", shift, 0.4)
    cs = dataclasses.replace(cs, mu0=np.zeros(3), mu1=np.zeros(3), delta_qubit=0.0)
    settings = IntegratorSettings(save_points=5)
    rwa = propagate_rwa(cs, pp, psi, settings)
    avg = propagate_averaged(cs, pp, StateVector(psi.amplitudes, frame="averaged"), settings)
    assert np.array_equal(rwa.amplitudes[:, :2], avg.amplitudes[:, :2])
    b_frame = rwa.amplitudes[:, 2:] * np.exp(1j * np.outer(rwa.times, cs.delta / HBAR))
    assert np.max(np.abs(b_frame - avg.amplitudes[:, 2:])) <= 1e-15


def test_averaged_warns_of_fast_switching_at_the_caller():
    # a sin2 pulse of 1 ns switches within 10 beat periods (P = 0.138 ns): the warning names this file
    sp, om0 = _single_level(-100.0, delta_qubit=30.0)
    env = Envelope("sin2", center=0.5, width=1.0)
    pp = dataclasses.replace(_flat_pair(sp, om0, amp=20.0, duration=1.0), envelope0=env, envelope1=env)
    with pytest.warns(UserWarning, match="envelope switching time is short against the beat period") as record:
        propagate_averaged(derive_couplings(sp, pp), pp, StateVector.qubit(1.0, 0.0, 1, frame="averaged"),
                           IntegratorSettings(save_points=5))
    assert [w.filename for w in record] == [__file__]


def test_save_grid_spans_window():
    sp, om0 = _single_level(-100.0)
    pp = _flat_pair(sp, om0, amp=10.0, duration=3.0)
    cs = derive_couplings(sp, pp)
    traj = propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 1),
                         IntegratorSettings(save_points=31))
    assert np.allclose(traj.times, np.linspace(0.0, 3.0, 31))
    assert traj.norm_drift < 1e-6


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
def test_norm_blowup_is_reported(monkeypatch):
    # every tier is unitary by construction, so what breaks a run is a non-finite input: here a NaN
    # dipole, which makes the couplings and the bound on the step's rate NaN
    lev = ExcitedLevel(energy=1930.0, dipole_to_0=2.0, dipole_to_1=2.0)
    object.__setattr__(lev, "dipole_to_0", math.nan)  # past ExcitedLevel's own check, as a frozen dataclass allows
    sp = SpectrumModel(epsilon0=0.0, epsilon1=30.0, excited_levels=(lev,))
    flat = _flat_pair(sp, 1830.0, amp=20.0, duration=1.0)
    sin2 = Envelope("sin2", center=0.5, width=1.0)
    settings = IntegratorSettings(save_points=5)
    for pp in (flat, dataclasses.replace(flat, envelope0=sin2, envelope1=sin2)):  # the first takes the Floquet matrix
        cs = derive_couplings(sp, pp)
        for tier, propagate, model in [("rwa", propagate_rwa, cs), ("averaged", propagate_averaged, cs),
                                       ("bare", propagate_bare, sp)]:
            with pytest.raises(PropagationError):
                propagate(model, pp, StateVector.qubit(1.0, 0.0, 1, frame=tier), settings)


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


@pytest.mark.parametrize("periods", [10])
def test_folded_norm_blowup_is_reported(periods, caplog, monkeypatch):
    # constant envelopes at Delta != 0 whose couplings are so strong against the beat that the Floquet matrix would
    # need more than _FLOQUET_MAX_HARMONICS harmonics (||H1|| / |beat| = 10) take Magnus steps over the window, and
    # Magnus keeps the norm, so an unresolved step shows in the estimate: with no halving allowed, its first estimate
    # stays above the tolerance (the rounding floor, about 1e-12), and no eigendecomposition is taken
    monkeypatch.setattr(ddsim.dynamics, "_MAGNUS_MAX_HALVINGS", 0)
    monkeypatch.setattr(np.linalg, "eigh", mock.Mock(side_effect=AssertionError("eigh called")))
    sp, om0 = _single_level(-100.0, delta_qubit=30.0)
    period = 2.0 * math.pi * HBAR / 30.0
    pp = _flat_pair(sp, om0, amp=3000.0, duration=periods * period)
    cs = derive_couplings(sp, pp)
    tight = IntegratorSettings(tol=1.01e-14, save_points=5)
    errors = []
    with caplog.at_level(logging.INFO, logger="ddsim.dynamics"):
        for _ in range(2):  # a failed run keeps nothing, so the repeat integrates and fails the same way
            with pytest.raises(PropagationError, match="Magnus error estimate .* exceeds its tolerance") as info:
                propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 1), tight)
            errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert not caplog.records


# ---------------------------------------------------------------- constant envelopes with a beat (Floquet)


def _flushed(env, t):
    """env(t), 0 below 1e-100: where a gaussian tail underflows, DOP853's error norm of an all-zero
    right-hand side divides 0 by 0 (scipy RuntimeWarning)."""
    f = env(t)
    return f if f >= 1e-100 else 0.0


def _reference_segments(rhs, pp, y0, times):
    """DOP853 at rtol 1e-12, atol 1e-14 and a step of switching_time / 8 from y0 at 0, the values on times;
    each stretch between envelope breakpoints (kinks and sin2 support edges) is its own solve_ivp call."""
    env0, env1 = pp.envelope0, pp.envelope1
    kinks = sorted({k for k in env0.breakpoints + env1.breakpoints if 0.0 < k < times[-1]})
    out, y, done = [], y0, 0
    for a, b in zip([0.0] + kinks, kinks + [times[-1]]):
        stop = np.searchsorted(times, b)
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", t_eval=np.append(times[done:stop], b),
                        rtol=1e-12, atol=1e-14, max_step=pp.switching_time / 8.0)
        assert sol.success
        out.append(sol.y[:, :-1].T)
        y, done = sol.y[:, -1], stop
    return np.vstack(out + [y])


def _c_frame_reference(cs, pp, y0, times, tier="rwa"):
    """DOP853 at rtol 1e-12 and a step of switching_time / 8 on the rwa equations in the c frame, one column
    per initial state.

    <0|H|k> = (lambda0 f0 e^{i phi0} + mu1 f1 e^{i phi1} e^{-i Delta t}) e^{i delta_k t} and
    <1|H|k> = (mu0 f0 e^{i phi0} e^{+i Delta t} + lambda1 f1 e^{i phi1}) e^{i delta_k t}, over hbar,
    with the envelopes f0 and f1.  The averaged tier drops the mu terms and is taken in the
    frame b_k = c_k e^{i delta_k t}, where <k|H|k> = -delta_k.  Each stretch between envelope
    breakpoints (kinks and sin2 support edges) is its own solve_ivp call.
    """
    averaged = tier == "averaged"
    wd, wq = cs.delta / HBAR, cs.delta_qubit / HBAR
    e0, e1 = np.exp(1j * pp.phi0) / HBAR, np.exp(1j * pp.phi1) / HBAR
    mu0, mu1 = (0.0 * cs.mu0, 0.0 * cs.mu1) if averaged else (cs.mu0, cs.mu1)
    # plain Python scalars: the reference runs for up to ~1e6 rhs calls
    levels = list(zip(wd.tolist(), (cs.lambda0 * e0).tolist(), (mu1 * e1).tolist(),
                      (mu0 * e0).tolist(), (cs.lambda1 * e1).tolist()))
    env0, env1 = pp.envelope0, pp.envelope1
    constant = env0.shape == env1.shape == "constant"
    dim, cols = y0.shape

    def rhs(t, y):
        v = y.tolist()  # row-major (dim, cols)
        f0, f1 = (1.0, 1.0) if constant else (_flushed(env0, t), _flushed(env1, t))
        beat = cmath.exp(1j * wq * t)
        dy = [0j] * (dim * cols)
        for k, (w, lam0, mu1, mu0, lam1) in enumerate(levels):
            ph = 1.0 if averaged else cmath.exp(1j * w * t)
            g0 = (lam0 * f0 + mu1 * f1 / beat) * ph
            g1 = (mu0 * f0 * beat + lam1 * f1) * ph
            row = (2 + k) * cols
            for j in range(cols):
                dy[j] += g0 * v[row + j]
                dy[cols + j] += g1 * v[row + j]
                dy[row + j] = g0.conjugate() * v[j] + g1.conjugate() * v[cols + j]
                if averaged:
                    dy[row + j] -= w * v[row + j]
        return -1j * np.array(dy)

    return _reference_segments(rhs, pp, y0.astype(complex).ravel(), times).reshape(len(times), dim, cols)


def _bare_reference(sp, pp, y0, times):
    """DOP853 as in _c_frame_reference on the bare equations in the c frame, for one initial state.

    <0|H|k> = s(t) d0_k e^{-i (E_k - eps0) t / hbar} and <1|H|k> = s(t) d1_k e^{-i (E_k - eps1) t / hbar},
    over hbar, with the instantaneous field s(t) = amp0 f0 cos(omega0 t + phi0) + amp1 f1 cos(omega1 t + phi1).
    """
    w0, w1 = pp.omega0 / HBAR, pp.omega1 / HBAR
    levels = list(zip(((sp.manifold_energies - sp.epsilon0) / HBAR).tolist(),
                      ((sp.manifold_energies - sp.epsilon1) / HBAR).tolist(),
                      (sp.dipoles_to_0 * DIPOLE_FIELD_TO_UEV / HBAR).tolist(),
                      (sp.dipoles_to_1 * DIPOLE_FIELD_TO_UEV / HBAR).tolist()))
    env0, env1 = pp.envelope0, pp.envelope1

    def rhs(t, y):
        v = y.tolist()
        s = (pp.amp0 * _flushed(env0, t) * math.cos(w0 * t + pp.phi0)
             + pp.amp1 * _flushed(env1, t) * math.cos(w1 * t + pp.phi1))
        dy = [0j] * len(v)
        for k, (w0k, w1k, d0, d1) in enumerate(levels):
            g0, g1 = s * d0 * cmath.exp(-1j * w0k * t), s * d1 * cmath.exp(-1j * w1k * t)
            dy[0] += g0 * v[2 + k]
            dy[1] += g1 * v[2 + k]
            dy[2 + k] = g0.conjugate() * v[0] + g1.conjugate() * v[1]
        return -1j * np.array(dy)

    return _reference_segments(rhs, pp, np.asarray(y0, dtype=complex), times)


def _fold_draw(seed, n, sign, periods):
    """Constant-envelope couplings at Delta != 0 over `periods` beat periods."""
    rng = np.random.default_rng(seed)
    dq = sign * float(rng.uniform(40.0, 120.0))
    cs = CouplingSet(lambda0=rng.uniform(2.0, 10.0, n), lambda1=rng.uniform(2.0, 10.0, n),
                     mu0=rng.uniform(0.0, 10.0, n), mu1=rng.uniform(0.0, 10.0, n),
                     delta=-rng.uniform(0.2, 0.6, n) * abs(dq), delta_qubit=dq)
    period = 2.0 * math.pi * HBAR / abs(dq)
    env = Envelope("constant")
    pp = PulsePair(amp0=1.0, amp1=1.0, envelope0=env, envelope1=env, omega0=5000.0,
                   omega1=5000.0 - dq, duration=periods * period,
                   phi0=float(rng.uniform(0.0, 2.0 * math.pi)), phi1=float(rng.uniform(0.0, 2.0 * math.pi)))
    qubit = rng.normal(size=2) + 1j * rng.normal(size=2)
    qubit /= np.linalg.norm(qubit)
    return cs, pp, StateVector.qubit(qubit[0], qubit[1], n), period


# (n, sign of Delta, window in beat periods, save points): saved times fall inside the first
# period and, for integer windows, on period boundaries
FOLD_DRAWS = [
    (1, +1, 2.0, 2),
    (2, -1, 2.5, 7),
    (3, +1, 7.3, 201),
    (4, -1, 16.0, 2),
    (1, -1, 31.7, 7),
    (2, +1, 64.0, 201),
    (3, -1, 100.5, 2),
    (4, +1, 150.0, 7),
    (2, -1, 255.2, 201),
    (4, +1, 400.0, 7),
    (1, -1, 399.6, 201),
]


@functools.lru_cache(maxsize=None)
def _fold_case(case):
    """FOLD_DRAWS[case]: its couplings, pulses, state, settings, and _c_frame_reference on its saved times (kept, as
    two tests hold the same runs to it)."""
    n, sign, periods, save_points = FOLD_DRAWS[case]
    cs, pp, psi, _ = _fold_draw(case, n, sign, periods)
    times = np.linspace(0.0, pp.duration, save_points)
    return cs, pp, psi, IntegratorSettings(save_points=save_points), _c_frame_reference(cs, pp, psi.amplitudes[:, None],
                                                                                      times)[:, :, 0]


@pytest.mark.parametrize("case", range(len(FOLD_DRAWS)))
def test_fold_matches_c_frame_reference(case, caplog):
    cs, pp, psi, settings, ref = _fold_case(case)
    with caplog.at_level(logging.INFO, logger="ddsim.dynamics"):
        traj = propagate_rwa(cs, pp, psi, settings)
    assert "rwa propagation: Floquet matrix over harmonics" in caplog.text
    assert np.max(np.abs(traj.amplitudes - ref)) <= 1e-8


def test_floquet_matrix_without_a_real_form_matches_the_reference():
    # complex dipoles d1_k whose phase arg(d1_k / d0_k) differs between the levels leave no diagonal phases that make
    # the Floquet matrix real, so it is decomposed as a complex Hermitian one
    cs, pp, psi, _ = _fold_draw(2, 3, -1, 5.5)
    loop = np.exp(1j * np.array([0.0, 0.4, 1.1]))
    cs = dataclasses.replace(cs, lambda1=cs.lambda1 * loop, mu0=cs.mu0 * loop)
    ddsim.dynamics._floquet.cache_clear()
    with mock.patch.object(ddsim.dynamics, "_real_form", wraps=ddsim.dynamics._real_form) as real_form:
        traj = propagate_rwa(cs, pp, psi, IntegratorSettings(save_points=7))
    real_form.assert_called_once()
    assert np.iscomplexobj(ddsim.dynamics._real_form(*real_form.call_args.args)[2])
    ref = _c_frame_reference(cs, pp, psi.amplitudes[:, None], traj.times)[:, :, 0]
    assert np.max(np.abs(traj.amplitudes - ref)) <= IntegratorSettings().tol


@pytest.mark.parametrize("case", range(4))
def test_fold_is_as_accurate_as_the_direct_path(case, monkeypatch):
    # at default settings, on windows short enough for the direct path to be cheap
    cs, pp, psi, settings, ref = _fold_case(case)
    folded = propagate_rwa(cs, pp, psi, settings)
    # as a run past _FLOQUET_MAX_HARMONICS does, the same run takes Magnus steps over the window
    monkeypatch.setattr(ddsim.dynamics, "_floquet_states", lambda *args: None)
    direct = propagate_rwa(cs, pp, psi, settings)
    err_folded = np.max(np.abs(folded.amplitudes - ref))
    err_direct = np.max(np.abs(direct.amplitudes - ref))
    assert err_folded <= 2.0 * err_direct + 1e-11


def _criterion_4_gate(level_energy, epsilon1, omega0, d1, amp_ref, spec):
    """Synthesize and build the pulses as acceptance criterion 4 does."""
    sp = SpectrumModel(epsilon0=0.0, epsilon1=epsilon1,
                       excited_levels=(ExcitedLevel(energy=level_energy, dipole_to_0=2.0, dipole_to_1=d1),))
    om0, om1 = enforce_two_photon_resonance(sp, omega0)
    env = Envelope("constant")
    ref = PulsePair(amp0=amp_ref, amp1=amp_ref, envelope0=env, envelope1=env,
                    omega0=om0, omega1=om1, duration=1.0)
    sol = synthesize_gate(spec, effective_hamiltonian(derive_couplings(sp, ref), 0.0, 0.0), sp.delta)
    s, x = sol.amplitude_scale, sol.amplitude_ratio
    pp = PulsePair(amp0=s * amp_ref, amp1=s * x * amp_ref, envelope0=env, envelope1=env,
                   omega0=om0, omega1=om1, duration=sol.duration, phi0=sol.phase_offset)
    return derive_couplings(sp, pp), pp


_CRITERION_4_GATES = {
    "NOT": (2015.0, 15.0, 1915.0, 2.0, 50.0, GateSpec(target="NOT", l=15)),
    "PHASE": (2005.0, 5.0, 1905.0, 0.2, 50.0, GateSpec(target="PHASE", l=10)),
    "HADAMARD": (6500.0, 3000.0, 6400.0, 2.0, 50.0 / (1.0 + math.sqrt(2.0)), GateSpec(target="HADAMARD", l=5119,
                                                                                    l_max=8192)),
}


@pytest.mark.parametrize("args", _CRITERION_4_GATES.values(), ids=_CRITERION_4_GATES.keys())
def test_criterion_4_gates_fold_to_reference(args):
    runs, ref = _criterion_4_runs(args)
    realized = np.column_stack([run.final_amplitudes for run in runs])
    assert np.max(np.abs(realized - ref)) <= 1e-9
    assert np.allclose(qubit_transfer_matrix(*runs), ref[:2])


@functools.lru_cache(maxsize=None)
def _criterion_4_runs(args):
    """The runs of criterion 4's gate of args from |0> and from |1>, and _c_frame_reference's columns at the window
    end (kept, as two tests hold the same runs to it)."""
    cs, pp = _criterion_4_gate(*args)
    settings = IntegratorSettings(save_points=2)
    runs = [propagate_rwa(cs, pp, StateVector.qubit(*qubit, 1), settings) for qubit in ((1, 0), (0, 1))]
    return runs, _c_frame_reference(cs, pp, np.eye(3, 2), runs[0].times)[-1]


# the default tol holds on every run whose rwa equations beat: the FOLD_DRAWS cases and criterion 4's NOT and
# HADAMARD gates, each against _c_frame_reference
@pytest.mark.parametrize("case", [*range(len(FOLD_DRAWS)), "NOT", "HADAMARD"])
def test_every_beat_run_is_within_the_default_tol(case):
    if isinstance(case, int):
        cs, pp, psi, settings, ref = _fold_case(case)
        error = np.max(np.abs(propagate_rwa(cs, pp, psi, settings).amplitudes - ref))
    else:
        runs, ref = _criterion_4_runs(_CRITERION_4_GATES[case])
        error = np.max(np.abs(np.column_stack([run.final_amplitudes for run in runs]) - ref))
    assert error <= IntegratorSettings().tol


@pytest.mark.parametrize("kind, periods, expect", [
    # constant envelopes with a beat, whatever the window: one eigendecomposition of the Floquet matrix
    pytest.param("constant", 3.5, "rwa propagation: Floquet matrix over harmonics -7..7, dimension 45, at 201 saved times",
                 id="constant-3.5-floquet"),
    ("sin2", 3.5, "magnus over"),
    # rwa at Delta = 0 with one envelope: the crossed couplings carry no beat, and a constant generator takes one
    # eigendecomposition
    pytest.param("zero", 3.5, "rwa propagation: one eigendecomposition of the constant generator at 201 saved times, "
                 "error estimate ", id="zero-3.5-one eigendecomposition"),
    # pulse 1 off: turning qubit level 1 at the beat leaves one envelope, constant or shaped
    pytest.param("off", 3.5, "rwa propagation: one eigendecomposition of the constant generator at 201 saved times, "
                 "error estimate ", id="off-3.5-one eigendecomposition"),
    pytest.param("off sin2", 3.5, "rwa propagation: magnus (one envelope) over",
                 id="off sin2-3.5-magnus (one envelope)"),
    pytest.param("constant", 1.5, "rwa propagation: Floquet matrix over harmonics -7..7, dimension 45, at 201 saved times",
                 id="constant-1.5-floquet"),
    pytest.param("whole", 3.0, "rwa propagation: Floquet matrix over harmonics -7..7, dimension 45, at 2 saved times",
                 id="whole-3.0-floquet"),
])
def test_each_run_logs_its_path(kind, periods, expect, caplog, monkeypatch):
    dq = 0.0 if kind == "zero" else 30.0
    sp, om0 = _single_level(-100.0, delta_qubit=dq)
    duration = periods * (2.0 * math.pi * HBAR / 30.0)  # l P as synthesize_gate builds it: saved offsets 0 and P
    if kind.endswith("sin2"):
        env = Envelope("sin2", center=0.5 * duration, width=duration)
        pp = PulsePair(amp0=20.0, amp1=20.0, envelope0=env, envelope1=env,
                       omega0=om0, omega1=om0 - sp.delta, duration=duration)
    else:
        pp = _flat_pair(sp, om0, amp=20.0, duration=duration)
    if kind.startswith("off"):
        pp = dataclasses.replace(pp, amp1=0.0)
    settings = IntegratorSettings(save_points=2 if kind == "whole" else 201)
    with caplog.at_level(logging.INFO, logger="ddsim.dynamics"):
        for _ in range(2):
            propagate_rwa(derive_couplings(sp, pp), pp, StateVector.qubit(1.0, 0.0, 1), settings)
    lines = [r.getMessage() for r in caplog.records if r.name == "ddsim.dynamics"]
    assert len(lines) == 2
    assert lines[0].startswith("rwa propagation: ")
    assert expect in lines[0]
    # an identical run logs the same line, whether or not it is served a kept decomposition
    assert lines[1] == lines[0]


# ---------------------------------------------------------------- kept decomposition


def _count_decompositions(monkeypatch):
    """Record the dimension of every np.linalg.eigh call, from an empty _floquet cache."""
    ddsim.dynamics._floquet.cache_clear()
    dims = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        dims.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return dims


def _memo_case(delta_qubit=30.0, periods=3.5, **pair):
    sp, om0 = _single_level(-100.0, delta_qubit=delta_qubit)
    pp = _flat_pair(sp, om0, amp=20.0, duration=periods * (2.0 * math.pi * HBAR / 30.0))
    pp = dataclasses.replace(pp, **pair)
    return derive_couplings(sp, pp), pp


def test_second_basis_state_is_bit_identical_to_a_cold_run(monkeypatch):
    # the run from |0> decomposes and the run from |1> is served its decomposition; with the kept one cleared, the
    # run from |1> decomposes afresh, to the same bits: constant pulses with a beat (the Floquet matrix), and with
    # pulse 1 off (a constant generator, as in a PHASE gate)
    dims = _count_decompositions(monkeypatch)
    ddsim.dynamics._constant_eigh.cache_clear()
    fold_cs, pp, _, _ = _fold_draw(5, 2, +1, 12.5)
    settings = IntegratorSettings(save_points=7)
    one = StateVector.qubit(0.0, 1.0, 2)
    for cs, kept in ((fold_cs, ddsim.dynamics._floquet), (_pulse_off(fold_cs, 1), ddsim.dynamics._constant_eigh)):
        dims.clear()
        propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 2), settings)
        warm = propagate_rwa(cs, pp, one, settings)
        assert len(dims) == 1
        kept.cache_clear()
        cold = propagate_rwa(cs, pp, one, settings)
        assert len(dims) == 2
        assert np.array_equal(warm.times, cold.times)
        assert np.array_equal(warm.amplitudes, cold.amplitudes)


# six save points instead of five change only the saved times, which the decomposition does not depend on
@pytest.mark.parametrize("change, value", [
    ("phi0", 0.3), ("amp1", 21.0), ("delta_qubit", 31.0), ("tol", 1e-9), ("save_points", 6),
])
def test_any_changed_input_integrates_again(change, value, monkeypatch):
    cs, pp = _memo_case()
    settings = IntegratorSettings(save_points=5)
    psi = StateVector.qubit(1.0, 0.0, 1)
    new_cs, new_pp, new_settings = cs, pp, settings
    if change in ("phi0", "amp1", "delta_qubit"):
        new_cs, new_pp = _memo_case(**{change: value})
    else:
        new_settings = dataclasses.replace(settings, **{change: value})
    ddsim.dynamics._floquet.cache_clear()
    cold = propagate_rwa(new_cs, new_pp, psi, new_settings)
    dims = _count_decompositions(monkeypatch)
    propagate_rwa(cs, pp, psi, settings)
    warm = propagate_rwa(new_cs, new_pp, psi, new_settings)
    assert len(dims) == (1 if change == "save_points" else 2)
    assert np.array_equal(warm.amplitudes, cold.amplitudes)


def test_windows_of_whole_periods_share_one_integration(monkeypatch):
    # windows of l P, built as synthesize_gate builds them, differ only in their saved times: one decomposition
    # serves them all
    dims = _count_decompositions(monkeypatch)
    settings = IntegratorSettings(save_points=2)
    for periods in (3, 7, 40, 63, 121, 126, 237, 242, 247, 252):
        cs, pp = _memo_case(periods=periods)
        propagate_rwa(cs, pp, StateVector.qubit(0.0, 1.0, 1), settings)
    assert dims == [45]


def test_returned_amplitudes_do_not_reach_the_memo(monkeypatch):
    cs, pp = _memo_case()
    psi = StateVector.qubit(1.0, 0.0, 1)
    dims = _count_decompositions(monkeypatch)
    first = propagate_rwa(cs, pp, psi)
    expected = first.amplitudes.copy()
    first.amplitudes[:] = 0.0
    second = propagate_rwa(cs, pp, psi)
    assert len(dims) == 1
    assert np.array_equal(second.amplitudes, expected)
    assert not np.shares_memory(first.amplitudes, second.amplitudes)


@hypothesis_settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), sign=st.sampled_from([-1, 1]),
       periods=st.floats(2.0, 20.0))
def test_folded_runs_are_linear_in_the_initial_state(seed, n, sign, periods):
    cs, pp, psi, _ = _fold_draw(seed, n, sign, periods)
    settings = IntegratorSettings(save_points=7)
    zero = propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, n), settings)
    one = propagate_rwa(cs, pp, StateVector.qubit(0.0, 1.0, n), settings)
    mixed = propagate_rwa(cs, pp, psi, settings)
    alpha, beta = psi.amplitudes[:2]
    assert np.max(np.abs(mixed.amplitudes - (alpha * zero.amplitudes + beta * one.amplitudes))) <= 1e-12


def _floquet_draw(seed, n, sign, ratio, periods):
    """Constant-envelope couplings at Delta != 0, each up to ratio * |Delta|, over `periods` beat periods."""
    rng = np.random.default_rng(seed)
    dq = sign * float(rng.uniform(40.0, 120.0))
    cs = CouplingSet(*(rng.uniform(0.1, 1.0, (4, n)) * ratio * abs(dq)), delta=-rng.uniform(0.2, 0.6, n) * abs(dq),
                     delta_qubit=dq)
    env = Envelope("constant")
    pp = PulsePair(amp0=1.0, amp1=1.0, envelope0=env, envelope1=env, omega0=5000.0, omega1=5000.0 - dq,
                   duration=periods * 2.0 * math.pi * HBAR / abs(dq), phi0=float(rng.uniform(0.0, 2.0 * math.pi)),
                   phi1=float(rng.uniform(0.0, 2.0 * math.pi)))
    qubit = rng.normal(size=2) + 1j * rng.normal(size=2)
    return cs, pp, StateVector.qubit(*(qubit / np.linalg.norm(qubit)), n)


@hypothesis_settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), sign=st.sampled_from([-1, 1]), ratio=st.floats(0.01, 2.0),
       periods=st.floats(0.5, 10.0), save_points=st.integers(2, 201), tol=st.sampled_from([1.01e-10, 1e-8, 1e-6]))
def test_floquet_error_is_within_its_logged_estimate(seed, n, sign, ratio, periods, save_points, tol):
    # couplings up to 2 |Delta| against a DOP853 reference: every saved state is within the logged estimate (the
    # edge weight and the decomposition's rounding) plus 1e-11, the reference's own floor (over 150 draws of this
    # kind it read at most 2.3e-12 past the estimate); the looser tolerances take fewer harmonics, so the edge
    # weight is what bounds their error
    cs, pp, psi = _floquet_draw(seed, n, sign, ratio, periods)
    with mock.patch.object(ddsim.dynamics.logger, "info") as info:
        traj = propagate_rwa(cs, pp, psi, IntegratorSettings(tol=tol, save_points=save_points))
    [(args, _)] = info.call_args_list
    match = re.fullmatch(r"rwa propagation: Floquet matrix over harmonics .*, error estimate (\S+) \(tolerance \S+\)",
                         args[0] % args[1:])
    assert match
    ref = _c_frame_reference(cs, pp, psi.amplitudes[:, None], traj.times)[:, :, 0]
    assert np.max(np.abs(traj.amplitudes - ref)) <= float(match[1]) + 1e-11


# ---------------------------------------------------------------- shared generator

@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("propagator", [False, True])
def test_magnus_step_takes_states_and_propagators(n, propagator):
    # one Magnus step of a constant star-coupled generator is exp(-i h H), for a state and for a propagator
    rng = np.random.default_rng([n, propagator])
    dim = 2 + n
    g0, g1 = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    diag = np.concatenate(([0.0, 0.0], rng.normal(size=n)))
    frame = ddsim.dynamics._BFrame(lambda t: np.ones((1, len(t))), np.array([[g0, g1]]), diag, 1.0)
    y = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if not propagator:
        y = y[:, 0].copy()
    h = 0.3
    out = ddsim.dynamics._magnus_pass(frame, y, np.array([0.0, h]), np.array([1]))
    ham = np.zeros((dim, dim), dtype=complex)
    ham[0, 2:], ham[1, 2:] = g0, g1
    ham[2:, 0], ham[2:, 1] = np.conj(g0), np.conj(g1)
    ham += np.diag(diag)
    assert np.array_equal(out[0], y)
    assert np.max(np.abs(out[1] - expm(-1j * h * ham) @ y)) <= 1e-14


def _real_form(a):
    """Stacked complex matrices with each entry z as the real block [[Re z, -Im z], [Im z, Re z]]."""
    count, dim, _ = a.shape
    r = np.empty((count, dim, 2, dim, 2))
    r[:, :, 0, :, 0] = r[:, :, 1, :, 1] = a.real
    r[:, :, 1, :, 0] = a.imag
    r[:, :, 0, :, 1] = -a.imag
    return r.reshape(count, 2 * dim, 2 * dim)


@pytest.mark.parametrize("dim", range(3, 13))
@pytest.mark.parametrize("squarings", [0, 1, 4])
def test_taylor_exponential_matches_expm_and_is_orthogonal(dim, squarings):
    # anti-Hermitian stacks whose real forms reach a largest 1-norm of 0.9, 1.5 or 10 times _TAYLOR_NORM,
    # which take 0, 1 and 4 squarings
    rng = np.random.default_rng([dim, squarings])
    count = 16
    a = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    a = a - np.conj(np.swapaxes(a, 1, 2))
    real = _real_form(a)
    scale = {0: 0.9, 1: 1.5, 4: 10.0}[squarings] * ddsim.dynamics._TAYLOR_NORM / np.max(np.sum(np.abs(real), axis=2))
    a, real = a * scale, real * scale
    powers = np.empty((5, count, 2 * dim, 2 * dim))
    powers[0], powers[1] = np.eye(2 * dim), real
    r = ddsim.dynamics._expm(powers, np.empty((4, count, 2 * dim, 2 * dim)))
    assert np.max(np.abs(np.swapaxes(r, 1, 2) @ r - np.eye(2 * dim))) <= 1e-14
    # the exponential of a real form is the real form of the exponential, and reads back as complex
    exact = np.array([expm(x) for x in a])
    assert np.max(np.abs(r - _real_form(exact))) <= 1e-14
    assert np.max(np.abs(r[:, 0::2, 0::2] + 1j * r[:, 1::2, 0::2] - exact)) <= 1e-14


def _first_pass_failure(monkeypatch, bad, tier, shape, poison):
    """Run the tier on one level with frames whose scalars (poison "scalars") or first star (poison "stars") are
    bad in every pass; it must fail in its first pass, whose y0 and frame are returned."""
    magnus_pass, states = ddsim.dynamics._magnus_pass, []

    def poisoned(frame, y0, knots, counts):
        states.append((y0, frame))
        assert (len(frame.stars) == 1) == (tier in ("averaged", "bare"))
        if poison == "scalars":
            bad_frame = dataclasses.replace(frame, scalars=lambda t: np.full_like(frame.scalars(t), bad))
        else:
            stars = np.array(frame.stars, dtype=complex)
            stars[0, 0, 0] = bad
            bad_frame = dataclasses.replace(frame, stars=stars)
        return magnus_pass(bad_frame, y0, knots, counts)

    monkeypatch.setattr(ddsim.dynamics, "_magnus_pass", poisoned)
    # constant rwa runs with a beat take Magnus steps where their Floquet matrix would exceed _FLOQUET_MAX_HARMONICS
    monkeypatch.setattr(ddsim.dynamics, "_floquet_states", lambda *args: None)
    whole = shape == "whole periods"
    sp, om0 = _single_level(-300.0 if whole else -100.0, delta_qubit=30.0)
    pp = _flat_pair(sp, om0, amp=20.0, duration=3.0 * (2.0 * math.pi * HBAR / 30.0) if whole else 1.0)
    if shape == "sin2":
        env = Envelope(shape, center=0.5, width=1.0)
        pp = dataclasses.replace(pp, envelope0=env, envelope1=env)
    propagate = {"rwa": propagate_rwa, "averaged": propagate_averaged, "bare": propagate_bare}[tier]
    model = sp if tier == "bare" else derive_couplings(sp, pp)
    settings = IntegratorSettings(save_points=2 if whole else 5)
    with pytest.raises(PropagationError, match="are the couplings finite"):
        propagate(model, pp, StateVector.qubit(1.0, 0.0, 1, frame=tier), settings)
    [first] = states
    return first


_FIRST_PASS_CASES = [("rwa", "constant"), ("rwa", "sin2"), ("averaged", "sin2"), ("bare", "sin2"),
                     ("rwa", "whole periods")]


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("tier, shape", _FIRST_PASS_CASES)
def test_non_finite_coupling_fails_in_the_first_magnus_pass(monkeypatch, bad, tier, shape):
    # the Taylor exponential raises nothing on a NaN, so without the norm check a NaN estimate would
    # run every halving before failing; the constant rwa runs, here past the Floquet cap, take the alpha path over
    # the window.  The averaged and bare runs have one term, and their passes read the scalars only as the basis
    # weights.  The averaged pulse is centred in the window over 5 save points, so its passes integrate the first
    # half's propagators and mirror them: the first pass also takes the identity
    y0, frame = _first_pass_failure(monkeypatch, bad, tier, shape, "scalars")
    assert y0.ndim == (2 if tier == "averaged" else 1)
    assert (frame.beat is not None) == (tier == "rwa" and shape != "sin2")


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("tier, shape", _FIRST_PASS_CASES)
def test_non_finite_star_fails_in_the_first_magnus_pass(monkeypatch, bad, tier, shape):
    # the same runs with a bad entry in a star instead: the terms are built from the stars on the first pass, and
    # both the alpha_j and the one-envelope basis carry it
    y0, frame = _first_pass_failure(monkeypatch, bad, tier, shape, "stars")
    assert y0.ndim == (2 if tier == "averaged" else 1)
    assert (frame.beat is not None) == (tier == "rwa" and shape != "sin2")


# ---------------------------------------------------------------- step bound

def _late_pulse_error(tier, shape, window, center, size, n=1, ramp=0.25):
    """Largest amplitude error of a default run against DOP853 at rtol 1e-12, atol 1e-14 and a step of
    switching_time / 8.

    The drive is strong and detuned (Delta = 20 ueV, omega_exc = 100 ueV, omega0 = 90 ueV,
    2000 V/cm) and its envelopes are zero until a narrow pulse of width `size` at `center`,
    a sigma for the gaussian and the support for sin2 and trapezoid (ramps of ramp * size).
    The reference is _bare_reference for the bare tier and _c_frame_reference for the others.
    """
    sp = build_spectrum(SpectrumConfig(delta=20.0, omega_exc=100.0, n_levels=n))
    if shape == "gaussian":
        env = Envelope(shape, center=center, width=size)
    else:
        env = Envelope(shape, center=center, width=size, ramp=ramp * size)
    pp = PulsePair(amp0=2000.0, amp1=2000.0, envelope0=env, envelope1=env,
                   omega0=90.0, omega1=90.0 - sp.delta, duration=window)
    psi = StateVector.qubit(1.0, 0.0, n, frame=tier)
    if tier == "bare":
        run = propagate_bare(sp, pp, psi)
        return np.max(np.abs(run.amplitudes - _bare_reference(sp, pp, psi.amplitudes, run.times)))
    cs = derive_couplings(sp, pp)
    run = (propagate_rwa if tier == "rwa" else propagate_averaged)(cs, pp, psi)
    ref = _c_frame_reference(cs, pp, psi.amplitudes[:, None], run.times, tier)
    return np.max(np.abs(run.amplitudes - ref[:, :, 0]))


# across the first 7 ns, where the envelopes vanish, the rwa and averaged steps used to grow
# until they stepped over the pulse; the bare tier resolves its carrier, so a short window
# keeps it fast
@pytest.mark.filterwarnings("ignore:envelope switching time is short")
@pytest.mark.parametrize("tier", ["rwa", "averaged", "bare"])
@pytest.mark.parametrize("shape, size", [("gaussian", 0.05), ("sin2", 0.3), ("trapezoid", 0.4)])
def test_late_narrow_pulse_is_not_stepped_over(tier, shape, size):
    window = 1.5 if tier == "bare" else 8.0
    assert _late_pulse_error(tier, shape, window, window - 0.4, size) <= 1e-8


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
@hypothesis_settings(max_examples=6)
@given(tier=st.sampled_from(["rwa", "averaged", "bare"]), shape=st.sampled_from(["gaussian", "sin2", "trapezoid"]),
       n=st.integers(1, 3), window=st.floats(2.0, 4.0), late=st.floats(0.5, 1.0), size=st.floats(0.3, 0.6),
       ramp=st.floats(0.1, 0.5))
def test_late_narrow_pulses_match_a_tight_reference(tier, shape, n, window, late, size, ramp):
    if tier == "bare":
        window /= 3.0
    if shape == "gaussian":
        size /= 8.0  # a sigma
    reach = 6.5 * size if shape == "gaussian" else 0.5 * size  # the envelope is below 1e-9 beyond it
    center = reach + late * (window - 2.0 * reach)
    assert _late_pulse_error(tier, shape, window, center, size, n, ramp) <= 1e-8


# ---------------------------------------------------------------- kinks


def test_integrate_stops_at_kinks_on_and_between_saved_times():
    # H = g f(t) (|0><2| + |2><0|) under a trapezoid commutes with itself, so from |0>
    # c0 = cos(g F(t)) and c2 = -i sin(g F(t)), with F = 0, 0, 0.2, 0.4, 0.4 on the grid; the kinks
    # 0.25 and 0.75 are saved times, 0.35 and 0.65 fall between them, and each comes twice
    env = Envelope("trapezoid", center=0.5, width=0.5, ramp=0.1)
    g = 2.0
    frame = ddsim.dynamics._BFrame(lambda t: env(t)[None], np.array([[[g], [0.0]]]), np.zeros(3), g)
    grid = np.linspace(0.0, 1.0, 5)
    ys, _ = ddsim.dynamics._magnus(frame, np.array([1.0, 0.0, 0.0], dtype=complex), grid, env.kinks + env.kinks,
                                   1.01e-13)
    phase = g * np.array([0.0, 0.0, 0.2, 0.4, 0.4])
    assert np.max(np.abs(ys - np.column_stack([np.cos(phase), 0.0 * phase, -1j * np.sin(phase)]))) <= 1e-12


def test_bare_trapezoid_converges_across_its_ramp_kinks():
    # a step across a ramp end, where dH/dt jumps, loses the order of the step; steps that end there
    # keep a default run within 1e-10 of the reference
    sp = build_spectrum(SpectrumConfig(delta=20.0, omega_exc=100.0, n_levels=2))
    env = Envelope("trapezoid", center=0.8801, width=0.375, ramp=0.038)
    pp = PulsePair(amp0=2000.0, amp1=2000.0, envelope0=env, envelope1=env,
                   omega0=90.0, omega1=90.0 - sp.delta, duration=1.759)
    psi = StateVector.qubit(1.0, 0.0, 2, frame="bare")
    run = propagate_bare(sp, pp, psi)
    assert np.max(np.abs(run.amplitudes - _bare_reference(sp, pp, psi.amplitudes, run.times))) <= 1e-10


def test_bare_run_logs_its_carrier_periods_and_magnus_facts(caplog):
    sp, om0 = _single_level(-100.0)
    pp = _flat_pair(sp, om0, amp=20.0, duration=0.1)
    with caplog.at_level(logging.INFO, logger="ddsim.dynamics"):
        propagate_bare(sp, pp, StateVector.qubit(1.0, 0.0, 1, frame="bare"), IntegratorSettings(save_points=5))
    periods, facts = [r.getMessage() for r in caplog.records if r.name == "ddsim.dynamics"]
    assert periods == f"bare propagation: {0.1 * om0 / (2.0 * math.pi * HBAR):.0f} periods of the faster carrier"
    match = re.fullmatch(r"bare propagation: magnus \(one envelope\) over (\d+) steps, (\d+) halvings, "
                         r"error estimate (\S+) \(tolerance (\S+)\)", facts)
    assert match and float(match[3]) <= float(match[4])


# ---------------------------------------------------------------- magnus


def _shaped_draw(seed, n, sign, shape, shift, window, tier="rwa"):
    """Random couplings at Delta != 0 under two shaped pulses, pulse 1 displaced by 0.3 * shift * window."""
    rng = np.random.default_rng(seed)
    dq = sign * float(rng.uniform(40.0, 120.0))
    cs = CouplingSet(lambda0=rng.uniform(2.0, 10.0, n), lambda1=rng.uniform(2.0, 10.0, n),
                     mu0=rng.uniform(0.0, 10.0, n), mu1=rng.uniform(0.0, 10.0, n),
                     delta=-rng.uniform(50.0, 150.0, n), delta_qubit=dq)
    support = 0.5 * window  # the sin2 and trapezoid width, 13 sigma for the gaussian
    size = support / 13.0 if shape == "gaussian" else support
    env0 = Envelope(shape, center=0.5 * window - 0.15 * shift * window, width=size, ramp=0.2 * support)
    pp = PulsePair(amp0=1.0, amp1=1.0, envelope0=env0, envelope1=env0.shifted(0.3 * shift * window),
                   omega0=5000.0, omega1=5000.0 - dq, duration=window,
                   phi0=float(rng.uniform(0.0, 2.0 * math.pi)), phi1=float(rng.uniform(0.0, 2.0 * math.pi)))
    qubit = rng.normal(size=2) + 1j * rng.normal(size=2)
    qubit /= np.linalg.norm(qubit)
    return cs, pp, StateVector.qubit(qubit[0], qubit[1], n, frame=tier)


def _magnus_run(cs, pp, psi, settings=None):
    """The trajectory of a run, its (steps, halvings, error estimate, tolerance) and the engine's propagator over
    the window.  A constant generator, and constant envelopes with a beat, take one eigendecomposition: no steps or
    halvings, and the tolerance is the larger of tol and its estimate, as _propagate logs them."""
    magnus, eigh_states, calls = ddsim.dynamics._magnus, ddsim.dynamics._eigh_states, []
    floquet_states = ddsim.dynamics._floquet_states
    tol = (settings or IntegratorSettings()).tol

    def recorded(frame, y0, *args, **kwargs):
        ys, info = magnus(frame, y0, *args, **kwargs)
        calls.append((info[:4], lambda: magnus(frame, np.eye(len(y0), dtype=complex), *args, **kwargs)[0][-1]))
        return ys, info

    def recorder(states):
        def recorded(frame, y0, *args):
            solved = states(frame, y0, *args)
            if solved is not None:
                columns = np.eye(len(y0), dtype=complex)
                calls.append(((0, 0, solved[1], max(tol, solved[1])),
                              lambda: np.column_stack([states(frame, column, *args)[0][-1] for column in columns])))
            return solved

        return recorded

    propagate = propagate_rwa if psi.frame == "rwa" else propagate_averaged
    with mock.patch.object(ddsim.dynamics, "_magnus", recorded), \
            mock.patch.object(ddsim.dynamics, "_eigh_states", recorder(eigh_states)), \
            mock.patch.object(ddsim.dynamics, "_floquet_states", recorder(floquet_states)):
        traj = propagate(cs, pp, psi, settings)
    [(info, propagator)] = calls
    return traj, info, propagator


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
@hypothesis_settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), tier=st.sampled_from(["rwa", "averaged"]), n=st.integers(1, 5),
       sign=st.sampled_from([-1, 1]), shape=st.sampled_from(["sin2", "gaussian", "trapezoid", "constant"]),
       shift=st.floats(-1.0, 1.0), window=st.floats(0.2, 0.5))
def test_magnus_matches_dop853_within_its_estimate_and_is_unitary(seed, tier, n, sign, shape, shift, window):
    # constant rwa runs take the Floquet matrix, whose propagator is read column by column
    cs, pp, psi = _shaped_draw(seed, n, sign, shape, shift, window, tier)
    traj, (_, _, estimate, tol), propagator = _magnus_run(cs, pp, psi, IntegratorSettings(save_points=5))
    assert estimate <= tol
    if tier == "averaged" and shape == "constant":
        # the b-frame generator is constant, so expm of it is exact, independent of either integrator
        ham = np.diag(np.concatenate(([0.0, 0.0], -cs.delta))).astype(complex)
        ham[0, 2:] = cs.lambda0 * np.exp(1j * pp.phi0)
        ham[1, 2:] = cs.lambda1 * np.exp(1j * pp.phi1)
        ham[2:, :2] = np.conj(ham[:2, 2:]).T
        ref = np.array([expm(-1j * t / HBAR * ham) @ psi.amplitudes for t in traj.times])
    else:
        ref = _c_frame_reference(cs, pp, psi.amplitudes[:, None], traj.times, tier)[:, :, 0]
    assert np.max(np.abs(traj.amplitudes - ref)) <= max(10.0 * estimate, 1e-12)
    u = propagator()
    assert np.max(np.abs(u.conj().T @ u - np.eye(n + 2))) <= 1e-12


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
@pytest.mark.parametrize("tier", ["rwa", "averaged"])
def test_magnus_run_logs_its_steps_halvings_and_estimate(tier, caplog):
    # pulse 1 is displaced by 0.3 * shift * window: an averaged run whose pulses share one envelope says so, and
    # as that envelope is centred in the window over 5 save points, it says that its second half came by time
    # reversal and how many steps it integrated
    for shift in (0.5, 0.0):
        cs, pp, psi = _shaped_draw(3, 2, -1, "sin2", shift, 0.4, tier)
        mirrored = tier == "averaged" and shift == 0.0
        method = "magnus (one envelope)" if mirrored else "magnus"
        lines = []
        for tol in (1.01e-10, 1.1e-12):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="ddsim.dynamics"):
                _, facts, _ = _magnus_run(cs, pp, psi, IntegratorSettings(tol=tol, save_points=5))
            [line] = [r.getMessage() for r in caplog.records if r.name == "ddsim.dynamics"]
            match = re.fullmatch(rf"{tier} propagation: {re.escape(method)} over (\d+) steps, (\d+) halvings, "
                                 r"error estimate (\S+) \(tolerance (\S+)\)"
                                 r"(?:; second half by time reversal, (\d+) steps integrated)?", line)
            assert match
            steps, halvings, estimate, tol = int(match[1]), int(match[2]), float(match[3]), float(match[4])
            assert (steps, halvings) == facts[:2]
            assert match[5] == (str(steps // 2) if mirrored else None)
            assert estimate == pytest.approx(facts[2], rel=1e-2) and estimate <= tol
            lines.append((steps, halvings, tol))
        # a tighter tolerance halves the step more often
        assert lines[1][2] < lines[0][2]
        assert lines[1][1] > lines[0][1] and lines[1][0] > lines[0][0]


def _tier_frame(tier, model, pp):
    """The _BFrame that the tier's propagator integrates for model (couplings, or the spectrum for bare) and pp."""
    frames = []
    propagate = {"rwa": propagate_rwa, "averaged": propagate_averaged, "bare": propagate_bare}[tier]
    n = model.n_excited if tier == "bare" else model.n_levels
    with mock.patch.object(ddsim.dynamics, "_propagate", lambda frame, *args, **kwargs: frames.append(frame)):
        propagate(model, pp, StateVector.qubit(1.0, 0.0, n, frame=tier))
    [frame] = frames
    return frame


def _two_halves(frame):
    """frame's generator with its one term split into two equal halves (stars / 2 twice, the scalar repeated):
    the same generator in two terms, which _magnus_pass takes by the alpha path."""
    def scalars(t):
        return np.repeat(frame.scalars(t), 2, axis=0)

    return dataclasses.replace(frame, scalars=scalars, stars=np.concatenate((frame.stars, frame.stars)) / 2.0)


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
@hypothesis_settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), tier=st.sampled_from(["averaged", "rwa"]),
       n=st.sampled_from([1, 2, 3, 4, 5, 10]), sign=st.sampled_from([-1, 1]),
       shape=st.sampled_from(["sin2", "gaussian", "trapezoid", "constant"]), window=st.floats(0.2, 0.5),
       off=st.sampled_from([None, 0, 1]))
def test_one_envelope_pass_matches_the_alpha_path(seed, tier, n, sign, shape, window, off):
    # an averaged run whose pulses share one envelope forms each Omega from a fixed basis, and so does an rwa run
    # at Delta = 0, whose crossed couplings carry no beat, or one with a pulse off at Delta != 0, whose frame turns
    # a qubit level at the beat; the same generator in two equal terms takes the alpha_j from its couplings and its
    # whole diagonal.  sign flips the qubit splitting and every detuning
    cs, pp, psi = _shaped_draw(seed, n, sign, shape, 0.0, window, tier)
    keep = tier == "averaged" or off is not None
    cs = dataclasses.replace(cs, delta=sign * cs.delta, delta_qubit=cs.delta_qubit if keep else 0.0)
    if off is not None:
        cs = _pulse_off(cs, off)
    frame = _tier_frame(tier, cs, pp)
    t = np.linspace(0.0, window, 7)
    assert len(frame.stars) == 1 and np.array_equal(frame.scalars(t), pp.envelope0(t)[None])
    alpha_frame = _two_halves(frame)
    # the first pass of a run: saved times and steps of a tenth of the period of the rate
    knots = np.linspace(0.0, window, 5)
    h = min(0.2 * math.pi / frame.rate, pp.switching_time)
    counts = np.maximum(np.ceil(np.diff(knots) / h), 1.0).astype(int)
    dim = n + 2
    for y0 in (psi.amplitudes, np.eye(dim, dtype=complex)):
        one = ddsim.dynamics._magnus_pass(frame, y0, knots, counts)
        assert np.max(np.abs(one - ddsim.dynamics._magnus_pass(alpha_frame, y0, knots, counts))) <= 1e-13
    for j, column in enumerate(np.eye(dim, dtype=complex)):
        assert np.max(np.abs(one[:, :, j] - ddsim.dynamics._magnus_pass(frame, column, knots, counts))) <= 1e-13


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
def test_nan_coupling_vector_fails_in_the_first_one_envelope_pass(monkeypatch):
    # the basis is built from the couplings on the first pass; a NaN in it reaches that pass's norm check
    magnus_pass, states = ddsim.dynamics._magnus_pass, []

    def counted(frame, y0, *args):
        states.append(y0)
        return magnus_pass(frame, y0, *args)

    monkeypatch.setattr(ddsim.dynamics, "_magnus_pass", counted)
    cs, pp, psi = _shaped_draw(5, 3, 1, "sin2", 0.0, 0.4, "averaged")
    cs = dataclasses.replace(cs, lambda0=np.array([1.0, math.nan, 2.0]))
    with pytest.raises(PropagationError, match="are the couplings finite"):
        propagate_averaged(cs, pp, psi, IntegratorSettings(save_points=5))
    assert len(states) == 1


# ---------------------------------------------------------------- terms


def _envelope_in(shape, window, shift):
    """A shaped pulse of support half the window (13 sigma for the gaussian), centred 0.15 * shift * window past
    the middle of the window."""
    support = 0.5 * window
    return Envelope(shape, center=(0.5 + 0.15 * shift) * window,
                    width=support / 13.0 if shape == "gaussian" else support, ramp=0.2 * support)


def _tier_draw(seed, tier, n, sign, shape0, shape1, off, window):
    """A random run of the tier under two pulses of shapes shape0 and shape1 (shape1 "same": one shared envelope),
    pulse `off` (0 or 1, or None) off: its model (spectrum or couplings), pulses, a random state, the diagonal its
    frame must have, and the
    unrotated couplings couplings(t) -> (G0, G1), shape (N, n), on the c-frame qubit levels.  The rwa and
    averaged draws flip the sign of Delta and of every detuning with sign; the bare draw puts the carriers above
    the manifold (sign 1) or below it."""
    rng = np.random.default_rng(seed)
    env0 = _envelope_in(shape0, window, 0.0)
    env1 = env0 if shape1 == "same" else _envelope_in(shape1, window, 1.0)
    if tier == "bare":
        dq = float(rng.uniform(5.0, 40.0))
        energies = np.sort(rng.uniform(100.0, 140.0, n)) + dq
        levels = tuple(ExcitedLevel(energy=e, dipole_to_0=a, dipole_to_1=b)
                       for e, a, b in zip(energies, *rng.uniform(0.5, 2.0, (2, n))))
        model = SpectrumModel(epsilon0=0.0, epsilon1=dq, excited_levels=levels)
        om0 = float(np.mean(energies)) + sign * float(rng.uniform(10.0, 30.0))
        amps = rng.uniform(200.0, 2000.0, 2)
        if off is not None:
            amps[off] = 0.0
        pp = PulsePair(amp0=amps[0], amp1=amps[1], envelope0=env0, envelope1=env1, omega0=om0, omega1=om0 - dq,
                       duration=window, phi0=float(rng.uniform(0.0, 2.0 * math.pi)),
                       phi1=float(rng.uniform(0.0, 2.0 * math.pi)))
        d0, d1 = (model.dipoles_to_0 * DIPOLE_FIELD_TO_UEV / HBAR, model.dipoles_to_1 * DIPOLE_FIELD_TO_UEV / HBAR)
        w0, w1, wq = pp.omega0 / HBAR, pp.omega1 / HBAR, dq / HBAR

        def couplings(t):
            s = (pp.amp0 * env0(t) * np.cos(w0 * t + pp.phi0) + pp.amp1 * env1(t) * np.cos(w1 * t + pp.phi1))[:, None]
            return s * d0, s * d1 * np.exp(1j * wq * t)[:, None]

        psi = StateVector.qubit(*_random_qubit(rng), n, frame="bare")
        return model, pp, psi, np.concatenate(([0.0, wq], energies / HBAR)), couplings
    cs, pp, psi = _shaped_draw(seed, n, sign, shape0, 0.0, window, tier)
    pp = dataclasses.replace(pp, envelope0=env0, envelope1=env1)
    cs = dataclasses.replace(cs, delta=sign * cs.delta)
    if off is not None:
        cs = _pulse_off(cs, off)
    wq = cs.delta_qubit / HBAR
    lam0, mu0 = (a * np.exp(1j * pp.phi0) / HBAR for a in (cs.lambda0, cs.mu0))
    lam1, mu1 = (a * np.exp(1j * pp.phi1) / HBAR for a in (cs.lambda1, cs.mu1))
    if tier == "averaged":
        mu0, mu1, wq = 0.0 * mu0, 0.0 * mu1, 0.0

    def couplings(t):
        f0, f1 = env0(t)[:, None], env1(t)[:, None]
        beat = np.exp(1j * wq * t)[:, None]
        return lam0 * f0 + mu1 * f1 * np.conj(beat), mu0 * f0 * beat + lam1 * f1

    qubit = [0.0, 0.0]
    if off is not None and tier == "rwa":
        qubit[off] = (2 * off - 1) * wq
    return cs, pp, psi, np.concatenate((qubit, -cs.delta / HBAR)), couplings


def _random_qubit(rng):
    qubit = rng.normal(size=2) + 1j * rng.normal(size=2)
    return qubit / np.linalg.norm(qubit)


def _complex_magnus(diag, couplings, y0, knots, counts):
    """States at every knot by complex sixth-order Magnus steps with scipy's expm, H(t) explicit at the Gauss
    nodes: H = diag(diag) plus the star of the couplings turned into the frame, g_q = G_q e^{-i diag_q t}.
    alpha_1 = -i h H_2, alpha_2 = -i h sqrt(15)/3 (H_3 - H_1), alpha_3 = -i h 10/3 (H_3 - 2 H_2 + H_1), and
    Omega = alpha_1 + alpha_3 / 12 + [-20 alpha_1 - alpha_3 + C_1, alpha_2 + C_2] / 240 with C_1 = [alpha_1, alpha_2]
    and C_2 = -[alpha_1, 2 alpha_3 + C_1] / 60 (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009))."""
    def comm(x, y):
        return x @ y - y @ x

    gauss = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15.0) / 10.0)
    dim = len(diag)
    y, out = y0, [y0]
    for start, end, count in zip(knots[:-1], knots[1:], counts):
        h = (end - start) / count
        t = (start + (np.arange(count)[:, None] + gauss) * h).ravel()
        g0, g1 = couplings(t)
        turn = np.exp(-1j * np.outer(t, diag[:2]))
        ham = np.zeros((len(t), dim, dim), dtype=complex)
        ham[:, 0, 2:], ham[:, 1, 2:] = g0 * turn[:, :1], g1 * turn[:, 1:]
        ham[:, 2:, :2] = np.conj(np.swapaxes(ham[:, :2, 2:], 1, 2))
        ham += np.diag(diag)
        h1, h2, h3 = np.swapaxes(ham.reshape(count, 3, dim, dim), 0, 1)
        a1, a2, a3 = -1j * h * h2, -1j * h * math.sqrt(15.0) / 3.0 * (h3 - h1), -1j * h * 10.0 / 3.0 * (h3 - 2.0 * h2 + h1)
        c1 = comm(a1, a2)
        omega = a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + c1, a2 - comm(a1, 2.0 * a3 + c1) / 60.0) / 240.0
        for u in expm(omega):
            y = u @ y
        out.append(y)
    return np.array(out)


_SHAPES = ["constant", "sin2", "gaussian", "trapezoid"]


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
@hypothesis_settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), tier=st.sampled_from(["rwa", "averaged", "bare"]), n=st.integers(1, 5),
       sign=st.sampled_from([-1, 1]), shape0=st.sampled_from(_SHAPES), shape1=st.sampled_from(["same"] + _SHAPES),
       off=st.sampled_from([None, 0, 1]), saves=st.sampled_from([2, 3, 5]), window=st.floats(0.01, 0.25))
@example(seed=3, tier="rwa", n=3, sign=1, shape0="constant", shape1="same", off=None, saves=2, window=0.25)
@example(seed=4, tier="rwa", n=2, sign=-1, shape0="constant", shape1="same", off=None, saves=2, window=0.2)
def test_every_tier_frame_matches_a_complex_magnus_reference(seed, tier, n, sign, shape0, shape1, off, saves,
                                                              window):
    # each tier writes H(t)/hbar = D + sum_a u_a(t) V_a, and _magnus_pass forms the Omegas from that form: the
    # alpha_j as one product of node-difference weights and the real-form terms (the explicit examples: constant
    # pulses with a beat over more than one chunk of 64 steps), or, for one term, the one-envelope basis, whose
    # generator in two equal terms takes the alpha path too.  The same Magnus-6 steps in complex arithmetic from
    # the couplings at the Gauss nodes, written out here, agree with each to rounding
    if tier == "bare":
        window /= 10.0
    model, pp, psi, diag, couplings = _tier_draw(seed, tier, n, sign, shape0, shape1, off, window)
    frame = _tier_frame(tier, model, pp)
    assert np.allclose(frame.diag, diag, rtol=1e-15, atol=0.0)
    knots = np.linspace(0.0, window, saves)
    h = min(0.2 * math.pi / frame.rate, pp.switching_time)
    counts = np.maximum(np.ceil(np.diff(knots) / h), 1.0).astype(int)
    ours = ddsim.dynamics._magnus_pass(frame, psi.amplitudes, knots, counts)
    ref = _complex_magnus(frame.diag, couplings, psi.amplitudes, knots, counts)
    assert np.max(np.abs(ours - ref)) <= 1e-13
    if len(frame.stars) == 1:
        alpha = ddsim.dynamics._magnus_pass(_two_halves(frame), psi.amplitudes, knots, counts)
        assert np.max(np.abs(alpha - ref)) <= 1e-13


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
@hypothesis_settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), sign=st.sampled_from([-1, 1]),
       shape0=st.sampled_from(_SHAPES), shape1=st.sampled_from(["same"] + _SHAPES), off=st.sampled_from([None, 0, 1]),
       window=st.floats(0.001, 0.012))
def test_bare_one_envelope_pass_matches_the_alpha_path(seed, n, sign, shape0, shape1, off, window):
    # the bare tier turns qubit level 1 at the splitting, so its generator is -i (D + s(t) V) with the
    # instantaneous field s(t), whatever its two envelopes: one term, and the one-envelope basis.  The same
    # generator in two equal terms takes the alpha_j from its scalars and its terms
    sp, pp, psi, _, _ = _tier_draw(seed, "bare", n, sign, shape0, shape1, off, window)
    frame = _tier_frame("bare", sp, pp)
    assert len(frame.stars) == 1 and frame.mirror is None
    alpha_frame = _two_halves(frame)
    knots = np.linspace(0.0, window, 5)
    counts = np.maximum(np.ceil(np.diff(knots) / (0.2 * math.pi / frame.rate)), 1.0).astype(int)
    for y0 in (psi.amplitudes, np.eye(n + 2, dtype=complex)):
        one = ddsim.dynamics._magnus_pass(frame, y0, knots, counts)
        assert np.max(np.abs(one - ddsim.dynamics._magnus_pass(alpha_frame, y0, knots, counts))) <= 1e-13


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
@hypothesis_settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), sign=st.sampled_from([-1, 1]),
       shape0=st.sampled_from(_SHAPES), shape1=st.sampled_from(["same"] + _SHAPES), window=st.floats(0.005, 0.03))
def test_bare_runs_are_linear_in_the_initial_state(seed, n, sign, shape0, shape1, window):
    # the run from alpha |0> + beta |1> is alpha times the run from |0> plus beta times the run from |1>, through
    # the whole engine and the c-frame turn-back.  Each run halves its own steps, so at the default tol two runs can
    # stop at different steps, up to about 1e-10 apart; at tol 1e-13 each is within about that of the exact run
    sp, pp, psi, _, _ = _tier_draw(seed, "bare", n, sign, shape0, shape1, None, window)
    settings = IntegratorSettings(tol=1e-13, save_points=7)
    zero = propagate_bare(sp, pp, StateVector.qubit(1.0, 0.0, n, frame="bare"), settings)
    one = propagate_bare(sp, pp, StateVector.qubit(0.0, 1.0, n, frame="bare"), settings)
    mixed = propagate_bare(sp, pp, psi, settings)
    alpha, beta = psi.amplitudes[:2]
    assert np.max(np.abs(mixed.amplitudes - (alpha * zero.amplitudes + beta * one.amplitudes))) <= 1e-12


def _beat_draw(seed, n, sign, drive, detuning):
    """Constant-envelope couplings at Delta != 0 whose detunings, of either sign, reach detuning * |Delta|, each
    coupling up to drive * |delta_k|, and their rwa _BFrame."""
    rng = np.random.default_rng(seed)
    dq = sign * float(rng.uniform(5.0, 60.0))
    reach = rng.uniform(0.1, 1.0, n)
    reach[0] = 1.0
    delta = rng.choice([-1.0, 1.0], n) * reach * detuning * abs(dq)
    scale = drive * np.abs(delta)
    cs = CouplingSet(*(rng.uniform(0.1, 1.0, (4, n)) * scale), delta=delta, delta_qubit=dq)
    env = Envelope("constant")
    pp = PulsePair(amp0=1.0, amp1=1.0, envelope0=env, envelope1=env, omega0=5000.0, omega1=5000.0 - dq,
                   duration=1.0, phi0=float(rng.uniform(0.0, 2.0 * math.pi)),
                   phi1=float(rng.uniform(0.0, 2.0 * math.pi)))
    return cs, _tier_frame("rwa", cs, pp)


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
def test_only_constant_envelope_rwa_frames_carry_the_beat():
    # the scalars of constant envelopes with a beat depend on t only through the beat phase, so the frame carries
    # the beat, from which _floquet builds its matrix; either sign of Delta
    for seed, sign in ((11, 1), (12, -1)):
        cs, frame = _beat_draw(seed, 3, sign, 0.3, 10.0)
        assert frame.beat == cs.delta_qubit / HBAR
    # shaped rwa, rwa at Delta = 0, bare and averaged runs have no beat
    sp, om0 = _single_level(-300.0, delta_qubit=30.0)
    sin2 = Envelope("sin2", center=1.0, width=2.0)
    flat = _flat_pair(sp, om0, amp=20.0, duration=2.0)
    shaped = dataclasses.replace(flat, envelope0=sin2, envelope1=sin2)
    still, still_om0 = _single_level(-300.0)
    for tier, model, pulses in (("rwa", sp, shaped), ("rwa", still, _flat_pair(still, still_om0, 20.0, 2.0)),
                                ("bare", sp, shaped), ("averaged", sp, flat), ("averaged", sp, shaped)):
        model = model if tier == "bare" else derive_couplings(model, pulses)
        assert _tier_frame(tier, model, pulses).beat is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("tier", ["rwa", "averaged"])
@pytest.mark.parametrize("shape", ["constant", "sin2"])
def test_non_finite_coupling_set_fails_without_warnings(bad, tier, shape):
    # the couplings are multiplied by the drive phases before any pass; an inf there made numpy warn
    # (inf * 0 in the complex product) before the first pass could report it
    sp, om0 = _single_level(-100.0, delta_qubit=30.0)
    pp = _flat_pair(sp, om0, amp=20.0, duration=1.0, phi0=0.3, phi1=-0.2)
    if shape != "constant":
        env = Envelope(shape, center=0.5, width=1.0)
        pp = dataclasses.replace(pp, envelope0=env, envelope1=env)
    cs = dataclasses.replace(derive_couplings(sp, pp), lambda0=np.array([bad]))
    propagate = {"rwa": propagate_rwa, "averaged": propagate_averaged}[tier]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "envelope switching time is short")
        with pytest.raises(PropagationError, match="are the couplings finite"):
            propagate(cs, pp, StateVector.qubit(1.0, 0.0, 1, frame=tier), IntegratorSettings(save_points=5))


def _readme_example():
    """README's library example: 3 levels under two sin2 pulses over 1 ns, from |0> in the rwa tier."""
    sp = build_spectrum(SpectrumConfig(n_levels=3, shape="uniform", omega_exc=2000.0, spacing=20.0,
                                       delta=5.0, dipole0=2.0, dipole1=2.0))
    om0, om1 = enforce_two_photon_resonance(sp, 1905.0)
    env = Envelope("sin2", center=0.5, width=1.0)
    pp = PulsePair(amp0=20.0, amp1=20.0, envelope0=env, envelope1=env, omega0=om0, omega1=om1, duration=1.0)
    return derive_couplings(sp, pp), pp, StateVector.qubit(1.0, 0.0, 3)


def test_magnus_estimate_above_tolerance_at_the_halving_cap_raises(monkeypatch):
    # the first comparison, 375 against 750 steps, estimates 1.5e-12 against a tolerance of 1.7e-13
    cs, pp, psi = _readme_example()
    settings = IntegratorSettings(tol=1.01e-14, save_points=2)
    with pytest.warns(UserWarning, match="rounding floor"):
        assert _magnus_run(cs, pp, psi, settings)[1][1] == 1
    monkeypatch.setattr(ddsim.dynamics, "_MAGNUS_MAX_HALVINGS", 0)
    with pytest.raises(PropagationError, match="Magnus error estimate .* exceeds its tolerance"):
        propagate_rwa(cs, pp, psi, settings)


@pytest.mark.parametrize("tol", [1.01e-10, 1.01e-14])
def test_acceptance_under_the_rounding_floor_warns(tol, recwarn):
    # at the defaults the run stops at 750 steps with an estimate of 1.5e-12; at the tight settings
    # it stops after 1 halving at 1500 steps, its estimate 2.3e-14 above the requested 1.01e-14 but
    # under the floor eps * 1500 = 3.3e-13
    cs, pp, psi = _readme_example()
    _, (steps, halvings, estimate, floor), _ = _magnus_run(cs, pp, psi, IntegratorSettings(tol=tol, save_points=2))
    messages = [str(w.message) for w in recwarn]
    if tol == 1.01e-10:
        assert (steps, halvings) == (750, 0) and not messages
        return
    assert (steps, halvings) == (1500, 1) and tol < estimate <= floor
    assert messages == [f"Magnus error estimate {estimate:.3e} exceeds the requested tol = 1.010e-14; "
                        f"accepted under the rounding floor eps * 1500 steps = {floor:.3e}"]
    # the warning names the caller of propagate_rwa, _magnus_run in this file
    assert [w.filename for w in recwarn] == [__file__]


class _SolveIvpCalled(Exception):
    pass


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
def test_no_tier_calls_solve_ivp(monkeypatch):
    def refuse(*args, **kwargs):
        raise _SolveIvpCalled

    monkeypatch.setattr(ddsim.dynamics, "solve_ivp", refuse)
    period = 2.0 * math.pi * HBAR / 30.0
    sin2 = Envelope("sin2", center=1.75 * period, width=3.5 * period)
    runs = [  # (tier, Delta, window in beat periods, envelope)
        ("rwa", 30.0, 3.5, None),  # the Floquet matrix
        ("rwa", 0.0, 3.5, None),
        ("rwa", 30.0, 1.5, None),
        ("averaged", 30.0, 3.5, None),
        ("rwa", 30.0, 3.5, sin2),
        ("averaged", 30.0, 3.5, sin2),
        ("bare", 30.0, 3.5, sin2),
    ]
    for tier, dq, periods, env in runs:
        sp, om0 = _single_level(-100.0, delta_qubit=dq)
        pp = _flat_pair(sp, om0, amp=20.0, duration=periods * period)
        if env is not None:
            pp = dataclasses.replace(pp, envelope0=env, envelope1=env)
        psi = StateVector.qubit(1.0, 0.0, 1, frame=tier)
        if tier == "bare":
            propagate_bare(sp, pp, psi)
        else:
            (propagate_rwa if tier == "rwa" else propagate_averaged)(derive_couplings(sp, pp), pp, psi)


# the runs of test_no_tier_calls_solve_ivp, a gaussian square integral and README's minimal config through cli.main,
# in an interpreter where every scipy import raises
_NO_SCIPY_SCRIPT = r"""
import math, pathlib, re, sys
sys.modules["scipy"] = None
import ddsim.dynamics
from ddsim import (Envelope, ExcitedLevel, PulsePair, SpectrumModel, StateVector, derive_couplings,
                   propagate_averaged, propagate_bare, propagate_rwa)
from ddsim.cli import main
from ddsim.units import HBAR

readme, out = map(pathlib.Path, sys.argv[1:])
period = 2.0 * math.pi * HBAR / 30.0
sin2 = Envelope("sin2", center=1.75 * period, width=3.5 * period)
for tier, dq, periods, env in [("rwa", 30.0, 3.5, None), ("rwa", 0.0, 3.5, None), ("rwa", 30.0, 1.5, None),
                               ("averaged", 30.0, 3.5, None), ("rwa", 30.0, 3.5, sin2),
                               ("averaged", 30.0, 3.5, sin2), ("bare", 30.0, 3.5, sin2)]:
    lev = ExcitedLevel(energy=dq + 2000.0, dipole_to_0=2.0, dipole_to_1=2.0)
    sp = SpectrumModel(epsilon0=0.0, epsilon1=dq, excited_levels=(lev,))
    env = env or Envelope("constant")
    pp = PulsePair(amp0=20.0, amp1=20.0, envelope0=env, envelope1=env, omega0=dq + 1900.0, omega1=1900.0,
                   duration=periods * period)
    psi = StateVector.qubit(1.0, 0.0, 1, frame=tier)
    if tier == "bare":
        propagate_bare(sp, pp, psi)
    else:
        (propagate_rwa if tier == "rwa" else propagate_averaged)(derive_couplings(sp, pp), pp, psi)
assert Envelope("gaussian", center=1.0, width=0.2).square_integral(1.1) > 0.0
block = re.search(r"A minimal propagation config:\s*```json\n(.*?)```", readme.read_text(), re.S).group(1)
(out / "minimal.json").write_text(block)
assert main(["validate", str(out / "minimal.json")]) == 0
assert main(["run", str(out / "minimal.json"), "--out", str(out / "run")]) == 0
try:
    ddsim.dynamics.solve_ivp
except ImportError:
    pass
else:
    raise AssertionError("ddsim.dynamics binds solve_ivp at import")
loaded = sorted(name for name, module in sys.modules.items() if module is not None and name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_every_tier_and_the_cli_run_without_scipy(tmp_path):
    src = Path(ddsim.dynamics.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    readme = Path(__file__).resolve().parents[1] / "README.md"
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(readme), str(tmp_path)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "minimal_trajectory.csv").stat().st_size > 0


def test_solve_ivp_is_read_lazily_from_scipy():
    # no tier calls it; the benchmark harness still reads the name
    assert ddsim.dynamics.solve_ivp is solve_ivp
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ddsim.dynamics.no_such_name
    assert not hasattr(ddsim.dynamics, "_no_such_name")


# ---------------------------------------------------------------- time reversal


def _mirror_draw(seed, n, sign, shape, tier, save_points, window=0.4, on_saves=True):
    """Couplings of real dipoles of either sign under two pulses of random phases that share one envelope centred
    in the window, and a random qubit state: the averaged tier at Delta = sign * (40..120) ueV or the rwa tier at
    Delta = 0, and detunings of the sign `sign`.  Pulse 1 is at most 0.6 of pulse 0, so that in the rwa tier the
    sums lambda0 + mu1 and mu0 + lambda1 of both pulses cannot cancel (where they do, to rounding, the phases S
    differ between levels beyond 16 ulps and the run is not mirrored).  A trapezoid's ramp ends fall on saved
    times (on_saves) or between them."""
    rng = np.random.default_rng(seed)
    d0, d1 = rng.choice([-1.0, 1.0], (2, n)) * rng.uniform(0.5, 2.0, (2, n))
    a0 = float(rng.uniform(1.0, 5.0))
    a1 = a0 * float(rng.uniform(0.1, 0.6))
    dq = 0.0 if tier == "rwa" else sign * float(rng.uniform(40.0, 120.0))
    cs = CouplingSet(lambda0=d0 * a0, lambda1=d1 * a1, mu0=d1 * a0, mu1=d0 * a1,
                     delta=sign * rng.uniform(50.0, 150.0, n), delta_qubit=dq)
    width = window * float(rng.uniform(0.5, 0.95))
    ramp = width * float(rng.uniform(0.1, 0.5))
    if shape == "trapezoid" and on_saves:
        gap = window / (save_points - 1)
        half = max(1, round(0.5 * width / gap))
        width, ramp = 2.0 * half * gap, min(half, max(1, round(ramp / gap))) * gap
    env = Envelope(shape, center=0.5 * window, width=window / 13.0 if shape == "gaussian" else width, ramp=ramp)
    pp = PulsePair(amp0=1.0, amp1=1.0, envelope0=env, envelope1=env, omega0=5000.0, omega1=5000.0 - dq,
                   duration=window, phi0=float(rng.uniform(0.0, 2.0 * math.pi)),
                   phi1=float(rng.uniform(0.0, 2.0 * math.pi)))
    qubit = rng.normal(size=2) + 1j * rng.normal(size=2)
    qubit /= np.linalg.norm(qubit)
    return cs, pp, StateVector.qubit(qubit[0], qubit[1], n, frame=tier)


def _engine_run(frame, psi, pp, save_points):
    """_magnus as _propagate calls it: b-frame amplitudes on the saved times, the Magnus facts and the knots of
    every _mirror_pass call."""
    knots, mirror_pass = [], ddsim.dynamics._mirror_pass

    def spied(frame, y0, k, counts):
        knots.append(k)
        return mirror_pass(frame, y0, k, counts)

    grid = np.linspace(0.0, pp.duration, save_points)
    breaks = pp.envelope0.breakpoints + pp.envelope1.breakpoints
    with mock.patch.object(ddsim.dynamics, "_mirror_pass", spied):
        ys, facts = ddsim.dynamics._magnus(frame, psi, grid, breaks, 1.01e-10, pp.switching_time)
    return ys, facts, knots


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
@hypothesis_settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), tier=st.sampled_from(["averaged", "rwa"]), n=st.integers(1, 5),
       sign=st.sampled_from([-1, 1]), shape=st.sampled_from(["sin2", "gaussian", "trapezoid"]),
       on_saves=st.booleans(), half=st.integers(1, 200), window=st.floats(0.2, 0.5))
def test_mirrored_pass_matches_the_direct_pass(seed, tier, n, sign, shape, on_saves, half, window):
    # one shaped envelope centred in the window (a constant one takes no steps and never mirrors), no
    # beat, and couplings that one diagonal phase change makes real: over an
    # odd number of saved times each pass integrates the first half and takes the second by time reversal.  The
    # same frame without its mirror phases integrates the whole window, to the same states within eps per step,
    # with the same steps, halvings and estimate
    save_points = 2 * half + 1
    cs, pp, psi = _mirror_draw(seed, n, sign, shape, tier, save_points, window, on_saves)
    frame = ddsim.dynamics._rwa_frame(cs, pp, crossed=tier == "rwa")
    assert frame.beat is None and frame.mirror is not None
    ys, facts, knots = _engine_run(frame, psi.amplitudes, pp, save_points)
    steps, halvings = facts[:2]
    assert len(knots) == halvings + 2 and facts[5] == steps // 2
    direct, direct_facts, none = _engine_run(dataclasses.replace(frame, mirror=None), psi.amplitudes, pp,
                                             save_points)
    assert not none and direct_facts[:2] == (steps, halvings) and direct_facts[5] == steps
    floor = np.finfo(float).eps * steps
    assert np.max(np.abs(ys - direct)) <= floor
    assert abs(facts[2] - direct_facts[2]) <= floor


@pytest.mark.parametrize("window", [0.53, 1.71, 2.73])
def test_breakpoints_ulps_from_saved_times_are_those_times(window):
    # a centred trapezoid of width 0.9 T and ramps of 0.2 T over 401 saved times: each ramp end falls 1 or 2 ulps
    # from a saved time (at T = 0.53 one of them exactly on it), which would leave gaps of a few ulps, and knots
    # that no longer mirror.  Snapped onto the saved times, no gap is shorter than 4 ulps, the run is mirrored,
    # and its states match the direct pass over the unsnapped knots to rounding
    cs, pp, psi = _mirror_draw(11, 3, -1, "sin2", "averaged", 401, window)
    env = Envelope("trapezoid", center=0.5 * window, width=0.9 * window, ramp=0.2 * window)
    pp = dataclasses.replace(pp, envelope0=env, envelope1=env)
    grid = np.linspace(0.0, window, 401)
    off = np.array([np.min(np.abs(grid - kink)) for kink in env.kinks]) / np.spacing(window)
    assert np.all(off <= 2.0) and np.count_nonzero(off) >= 3
    frame = ddsim.dynamics._rwa_frame(cs, pp, crossed=False)
    ys, facts, knots = _engine_run(frame, psi.amplitudes, pp, 401)
    assert knots and np.array_equal(knots[0], grid)
    unsnapped = np.union1d(grid, env.kinks)
    assert np.min(np.diff(unsnapped)) <= 4.0 * np.spacing(window)
    direct, direct_facts = ddsim.dynamics._magnus(dataclasses.replace(frame, mirror=None), psi.amplitudes, unsnapped,
                                                  (), 1.01e-10, env.switching_time)
    assert direct_facts[0] > facts[0]  # each gap of a few ulps took steps of its own
    assert np.max(np.abs(ys - direct[np.searchsorted(unsnapped, grid)])) <= np.finfo(float).eps * facts[0]


def _reversal_case(case, n):
    """(couplings, pulses, state, save points) of a one-envelope-like run that must not be mirrored."""
    tier = "rwa" if case in ("beat", "fold") else "averaged"
    cs, pp, psi = _mirror_draw(7, n, 1, "constant" if case == "fold" else "sin2", tier, 5)
    if case == "off-centre":
        env = dataclasses.replace(pp.envelope0, center=pp.envelope0.center + 0.01 * pp.duration)
        pp = dataclasses.replace(pp, envelope0=env, envelope1=env)
    elif case == "two envelopes":
        pp = dataclasses.replace(pp, envelope1=dataclasses.replace(pp.envelope0, width=0.9 * pp.envelope0.width))
    elif case == "loop phase":
        # complex dipoles d1_k whose phase arg(d1_k / d0_k) differs between the levels
        loop = np.exp(1j * np.linspace(0.0, 1.0, n))
        cs = dataclasses.replace(cs, lambda1=cs.lambda1 * loop, mu0=cs.mu0 * loop)
    elif case in ("beat", "fold"):
        cs = dataclasses.replace(cs, delta_qubit=60.0)
        pp = dataclasses.replace(pp, omega1=pp.omega0 - 60.0)
    return cs, pp, psi, 4 if case == "even saves" else 5


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
@pytest.mark.parametrize("case", ["off-centre", "two envelopes", "loop phase", "even saves", "beat", "fold"])
def test_runs_that_do_not_mirror_keep_the_direct_pass(case, monkeypatch):
    # each of these breaks one condition of the mirror: a shifted or second envelope, a loop phase, an even
    # number of saved times (no middle knot), a beat, or constant envelopes with a beat, which take the Floquet matrix
    cs, pp, psi, save_points = _reversal_case(case, 3)
    crossed = psi.frame == "rwa"
    frame = ddsim.dynamics._rwa_frame(cs, pp, crossed=crossed)
    assert (frame.mirror is not None) == (case == "even saves") and (frame.beat is not None) == (case == "fold")
    propagate = propagate_rwa if crossed else propagate_averaged
    rwa_frame, runs = ddsim.dynamics._rwa_frame, []

    def stripped(*args, **kwargs):
        return dataclasses.replace(rwa_frame(*args, **kwargs), mirror=None)

    for keep in (True, False):
        with mock.patch.object(ddsim.dynamics, "_rwa_frame", rwa_frame if keep else stripped), \
                mock.patch.object(ddsim.dynamics, "_mirror_pass") as mirror_pass:
            runs.append(propagate(cs, pp, psi, IntegratorSettings(save_points=save_points)).amplitudes)
        mirror_pass.assert_not_called()
    assert np.array_equal(runs[0], runs[1])


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
@hypothesis_settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(["averaged mirrored", "averaged shaped", "rwa shaped",
                                                             "rwa at zero", "rwa floquet"]),
       n=st.integers(1, 5), sign=st.sampled_from([-1, 1]), shape=st.sampled_from(["sin2", "gaussian", "trapezoid"]),
       chi0=st.floats(0.0, 2.0 * math.pi), chi1=st.floats(0.0, 2.0 * math.pi))
def test_drive_phases_rotate_the_qubit_basis(seed, case, n, sign, shape, chi0, chi1):
    # a phase chi_q added to pulse q multiplies <q|H|k> by e^{i chi_q}, so H' = W H W^dagger with
    # W = diag(e^{i chi0}, e^{i chi1}, 1, ...), and the run from psi0 is W times the run from W^dagger psi0 at the
    # old phases.  In the rwa tier pulse 0 also drives 1 <-> k (mu0) and pulse 1 drives 0 <-> k (mu1), so
    # chi0 = chi1 there.  Mirrored runs (one centred envelope) and direct ones (two envelopes, a beat, the Floquet matrix)
    # alike
    tier = case.split()[0]
    if tier == "rwa":
        chi1 = chi0
    if case in ("averaged mirrored", "rwa at zero"):
        cs, pp, psi = _mirror_draw(seed, n, sign, shape, tier, 5)
    elif case == "rwa floquet":  # a gate window: constant pulses over 7 beat periods, saved at its two ends
        cs, pp, psi = _shaped_draw(seed, n, sign, "constant", 0.0, 0.5, tier)
        pp = dataclasses.replace(pp, duration=7.0 * 2.0 * math.pi * HBAR / abs(cs.delta_qubit))
    else:
        cs, pp, psi = _shaped_draw(seed, n, sign, shape, 0.5, 0.4, tier)
    w = np.ones(n + 2, dtype=complex)
    w[:2] = np.exp(1j * np.array([chi0, chi1]))
    turned = dataclasses.replace(pp, phi0=pp.phi0 + chi0, phi1=pp.phi1 + chi1)
    propagate = propagate_rwa if tier == "rwa" else propagate_averaged
    settings = IntegratorSettings(save_points=2 if case == "rwa floquet" else 5)
    with mock.patch.object(ddsim.dynamics, "_mirror_pass", wraps=ddsim.dynamics._mirror_pass) as mirror_pass:
        base = propagate(cs, pp, StateVector(np.conj(w) * psi.amplitudes, tier), settings)
        run = propagate(cs, turned, psi, settings)
    assert mirror_pass.called == (case in ("averaged mirrored", "rwa at zero"))
    assert np.max(np.abs(run.amplitudes - w * base.amplitudes)) <= 1e-12


# ---------------------------------------------------------------- one pulse off, constant generators


def _pulse_off(cs, off):
    """cs with the couplings of pulse `off` (0 or 1) all zero, as an amplitude of 0 leaves them."""
    if off == 0:
        return dataclasses.replace(cs, lambda0=0.0 * cs.lambda0, mu0=0.0 * cs.mu0)
    return dataclasses.replace(cs, lambda1=0.0 * cs.lambda1, mu1=0.0 * cs.mu1)


def _unrotated_frame(cs, pp):
    """The rwa _BFrame of cs and pp with the beat left on the crossed couplings, in six terms: the alpha path
    in the frame b_k = c_k e^{i delta_k t}, whose qubit levels are those of the c frame.  Pulse 1 puts mu1 f1 on
    <0|H|k> at e^{-i wq t}, and pulse 0 mu0 f0 on <1|H|k> at e^{+i wq t}: the real and imaginary parts of each
    are a term of its own."""
    wd, wq = cs.delta / HBAR, cs.delta_qubit / HBAR
    lam0, mu0 = (a * np.exp(1j * pp.phi0) / HBAR for a in (cs.lambda0, cs.mu0))
    lam1, mu1 = (a * np.exp(1j * pp.phi1) / HBAR for a in (cs.lambda1, cs.mu1))
    zero = 0.0 * lam0
    stars = np.array([[lam0, zero], [zero, lam1], [mu1, zero], [-1j * mu1, zero], [zero, mu0], [zero, 1j * mu0]])

    def scalars(t):
        f0, f1 = pp.envelope0(t), pp.envelope1(t)
        c, s = np.cos(wq * t), np.sin(wq * t)
        return np.array([f0, f1, f1 * c, f1 * s, f0 * c, f0 * s])

    g_max = np.hypot(np.abs(lam0) + np.abs(mu1), np.abs(mu0) + np.abs(lam1))
    rate = np.max(np.abs(wd)) + abs(wq) + np.linalg.norm(g_max)
    return ddsim.dynamics._BFrame(scalars, stars, np.concatenate(([0.0, 0.0], -wd)), rate, c_frame=True)


@pytest.mark.filterwarnings("ignore:envelope switching time is short")
@pytest.mark.filterwarnings("ignore:Magnus error estimate .* accepted under the rounding floor")  # the reference's
@hypothesis_settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), sign=st.sampled_from([-1, 1]), off=st.sampled_from([0, 1]),
       shape=st.sampled_from(["constant", "sin2", "gaussian", "trapezoid"]), shift=st.sampled_from([0.0, 0.5]),
       save_points=st.sampled_from([2, 5, 201]), window=st.floats(0.2, 0.5))
def test_single_pulse_runs_match_the_unrotated_alpha_path(seed, n, sign, off, shape, shift, save_points, window):
    # with one pulse off the rwa frame turns the qubit level that the other pulse's crossed coupling reaches at the
    # beat (level 1 at +Delta / hbar where pulse 1 is off, level 0 at -Delta / hbar where pulse 0 is off), which
    # leaves one envelope: a constant one takes one eigendecomposition, a shaped one the one-envelope basis.
    # The same couplings with the beat left on them, six terms on the alpha path at tol 1e-13, are the reference
    cs, pp, psi = _shaped_draw(seed, n, sign, shape, shift, window)
    cs = _pulse_off(cs, off)
    frame = _tier_frame("rwa", cs, pp)
    assert len(frame.stars) == 1 and frame.beat is None
    t = np.linspace(0.0, window, 7)
    assert np.array_equal(frame.scalars(t), (pp.envelope1 if off == 0 else pp.envelope0)(t)[None])
    qubit = [0.0, 0.0]
    qubit[off] = (2 * off - 1) * cs.delta_qubit / HBAR
    assert np.array_equal(frame.diag, np.concatenate((qubit, -cs.delta / HBAR)))
    traj, (_, _, estimate, _), _ = _magnus_run(cs, pp, psi, IntegratorSettings(save_points=save_points))
    ref = ddsim.dynamics._propagate(_unrotated_frame(cs, pp), psi, "rwa", pp,
                                    IntegratorSettings(tol=1e-13, save_points=save_points))
    assert np.max(np.abs(traj.amplitudes - ref.amplitudes)) <= max(10.0 * estimate, 1e-12)


def _constant_draw(seed, case, n, sign, window, real=np.float64):
    """Constant pulses and a random qubit state for a constant generator: rwa with pulse 0 or pulse 1 off, the
    averaged tier, or rwa at Delta = 0; and the b-frame generator H / hbar and diagonal that give the reference
    c(t) = e^{i diag t} e^{-i H t} c(0) (the averaged tier keeps b(t) = e^{-i H t} b(0)), built from the couplings
    in the floating type real."""
    tier = "averaged" if case == "averaged" else "rwa"
    cs, pp, psi = _shaped_draw(seed, n, sign, "constant", 0.0, window, tier)
    if case == "rwa at zero":
        cs = dataclasses.replace(cs, delta_qubit=0.0)
    elif case != "averaged":
        cs = _pulse_off(cs, int(case.split()[1]))
    e0, e1 = np.exp(1j * real(pp.phi0)), np.exp(1j * real(pp.phi1))
    lam0, lam1, mu0, mu1, delta = (np.asarray(getattr(cs, name), dtype=real)
                                   for name in ("lambda0", "lambda1", "mu0", "mu1", "delta"))
    ham = np.zeros((n + 2, n + 2), dtype=e0.dtype)
    diag = np.concatenate(([0.0, 0.0], -delta)) / real(HBAR)
    if case == "averaged":
        ham[0, 2:], ham[1, 2:] = lam0 * e0, lam1 * e1
    else:
        ham[0, 2:], ham[1, 2:] = lam0 * e0 + mu1 * e1, mu0 * e0 + lam1 * e1
        # the crossed coupling left carries e^{-+i Delta t / hbar}: b_1 = c_1 e^{-i Delta t / hbar} where pulse 1
        # is off, b_0 = c_0 e^{+i Delta t / hbar} where pulse 0 is off
        diag[:2] = {"rwa at zero": (0.0, 0.0), "pulse 0 off": (-1.0, 0.0), "pulse 1 off": (0.0, 1.0)}[case]
        diag[:2] *= real(cs.delta_qubit) / real(HBAR)
    ham = ham / real(HBAR)
    ham[2:, :2] = np.conj(ham[:2, 2:]).T
    ham += np.diag(diag)
    return cs, pp, psi, ham, diag if tier == "rwa" else 0.0 * diag


def _eigh_run(ham, diag, psi, times):
    """e^{i diag t} e^{-i ham t} psi at each time, by the eigenvectors of ham."""
    w, v = np.linalg.eigh(ham)
    b = (v * np.exp(-1j * np.outer(times, w))[:, None, :]) @ (np.conj(v).T @ psi)
    return b * np.exp(1j * np.outer(times, diag))


def _expm_run(ham, diag, psi, times):
    """e^{i diag t} e^{-i ham t} psi at each time, by scipy's expm (scaling and squaring of a Pade approximant)."""
    return (expm(-1j * times[:, None, None] * ham) @ psi) * np.exp(1j * np.outer(times, diag))


def _extended_run(ham, diag, psi, times):
    """e^{i diag t} e^{-i ham t} psi at each of the evenly spaced times, in extended precision (ham and diag of
    np.longdouble type): e^{-i ham h} over the spacing h by a Taylor series, scaled and squared, applied time after
    time, and each time's distance from j h (a few ulps) taken to first order."""
    step = np.longdouble(times[-1]) / (len(times) - 1)
    x = -1j * step * ham
    squarings = max(0, math.ceil(math.log2(4.0 * float(np.max(np.sum(np.abs(x), axis=1))))))
    x = x / np.longdouble(2.0) ** squarings  # 1-norm at most 1/4: the terms past the 25th are below extended eps
    prop = term = np.eye(len(ham), dtype=x.dtype)
    for k in range(1, 26):
        term = term @ x / k
        prop = prop + term
    for _ in range(squarings):
        prop = prop @ prop
    y = psi.astype(x.dtype)
    out = np.empty((len(times), len(psi)), dtype=x.dtype)
    for j, t in enumerate(times):
        shift = np.longdouble(t) - j * step
        out[j] = (y - 1j * shift * (ham @ y)) * np.exp(1j * diag * np.longdouble(t))
        y = prop @ y
    return out


@hypothesis_settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(["pulse 0 off", "pulse 1 off", "averaged", "rwa at zero"]),
       n=st.integers(1, 10), sign=st.sampled_from([-1, 1]), save_points=st.sampled_from([2, 3, 201, 1001, 2001]),
       window=st.floats(0.2, 2.0))
def test_constant_generators_match_expm_at_every_saved_time(seed, case, n, sign, save_points, window):
    # a constant generator takes one eigendecomposition for all saved times and no steps; scipy's expm of
    # the generator built from the couplings is the independent reference
    cs, pp, psi, ham, diag = _constant_draw(seed, case, n, sign, window)
    propagate = propagate_averaged if case == "averaged" else propagate_rwa
    with mock.patch.object(ddsim.dynamics.logger, "info") as info:
        traj = propagate(cs, pp, psi, IntegratorSettings(save_points=save_points))
    [(args, _)] = info.call_args_list
    line = args[0] % args[1:]
    tier = "averaged" if case == "averaged" else "rwa"
    match = re.fullmatch(rf"{tier} propagation: one eigendecomposition of the constant generator at {save_points} "
                         r"saved times, error estimate (\S+) \(tolerance 1\.0e-10\)", line)
    assert match
    # the estimate is read from the decomposition of the frame's generator: ||W^dagger W - I|| plus the window times
    # the components |c| = |W^dagger psi0| weighing each eigenvalue's residual ||H w - lambda w|| and the rounding
    # eps (|lambda| + max |diag|) of lambda t and of the c-frame phases
    frame = ddsim.dynamics._rwa_frame(cs, pp, crossed=case != "averaged")
    gen = np.diag(frame.diag).astype(complex)
    gen[:2, 2:] = frame.scalars(np.zeros(1))[0, 0] * frame.stars[0]
    gen[2:, :2] = np.conj(gen[:2, 2:]).T
    lam, w = np.linalg.eigh(gen)
    drift = (np.linalg.norm(gen @ w - w * lam, axis=0)
             + np.finfo(float).eps * (np.abs(lam) + np.max(np.abs(frame.diag))))
    expected = np.linalg.norm(np.conj(w).T @ w - np.eye(n + 2)) + window * np.abs(np.conj(w).T @ psi.amplitudes) @ drift
    assert float(match[1]) == pytest.approx(expected, rel=1e-2)
    assert np.max(np.abs(traj.amplitudes - _expm_run(ham, diag, psi.amplitudes, traj.times))) <= 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="the reference needs an extended long double")
@hypothesis_settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(["pulse 0 off", "pulse 1 off", "averaged", "rwa at zero"]),
       n=st.integers(1, 10), sign=st.sampled_from([-1, 1]), save_points=st.integers(2, 2001),
       window=st.floats(0.2, 100.0))
def test_constant_generator_error_is_within_its_logged_estimate(seed, case, n, sign, save_points, window):
    # against the same couplings propagated in extended precision, every saved state of a constant run is within
    # the estimate it logs, over the whole window; a run whose estimate exceeds tol warns
    cs, pp, psi, _, _ = _constant_draw(seed, case, n, sign, window)
    _, _, _, ham, diag = _constant_draw(seed, case, n, sign, window, np.longdouble)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj, (steps, halvings, estimate, _), _ = _magnus_run(cs, pp, psi, IntegratorSettings(save_points=save_points))
    assert (steps, halvings) == (0, 0)
    assert [str(w.message).split(";")[0] for w in caught] == (
        [f"Eigendecomposition error estimate {estimate:.3e} exceeds the requested tol = 1.010e-10"]
        if estimate > 1.01e-10 else [])
    assert np.max(np.abs(traj.amplitudes - _extended_run(ham, diag, psi.amplitudes, traj.times))) <= estimate


@pytest.mark.parametrize("args", [
    (2005.0, 5.0, 1905.0, 0.2, 50.0, GateSpec(target="PHASE", l=10)),
    (2005.0, 5.0, 1905.0, 0.2, 50.0, GateSpec(target="PHASE", l=3)),
    (2300.0, 300.0, 2150.0, 0.15, 50.0, GateSpec(target="PHASE", l=300)),
], ids=["criterion 4", "l=3", "l=300"])
def test_single_pulse_phase_gates_match_eigh(args):
    # PHASE switches the second pulse off, so the gate check's two runs have a constant generator: one
    # eigendecomposition each, which matches that of the generator built from the couplings, and scipy's expm
    cs, pp = _criterion_4_gate(*args)
    assert pp.amp1 == 0.0
    settings = IntegratorSettings(save_points=2)
    runs = [propagate_rwa(cs, pp, StateVector.qubit(1, 0, 1), settings),
            propagate_rwa(cs, pp, StateVector.qubit(0, 1, 1), settings)]
    e0 = np.exp(1j * pp.phi0)
    ham = np.diag([0.0, cs.delta_qubit, -cs.delta[0]]).astype(complex) / HBAR
    ham[0, 2], ham[1, 2] = cs.lambda0[0] * e0 / HBAR, cs.mu0[0] * e0 / HBAR
    ham[2, :2] = np.conj(ham[:2, 2])
    realized = np.column_stack([run.final_amplitudes for run in runs])
    for reference in (_eigh_run, _expm_run):
        ref = [reference(ham, np.diag(ham).real, column, runs[0].times)[-1] for column in np.eye(3)[:2]]
        assert np.max(np.abs(realized - np.column_stack(ref))) <= 1e-12


_CONSTANT_CASES = ["pulse 0 off", "pulse 1 off", "averaged", "rwa at zero"]


@pytest.mark.parametrize("case", ["PHASE gate"] + _CONSTANT_CASES)
def test_constant_generators_take_no_magnus_pass(case, monkeypatch):
    # a constant generator takes one eigendecomposition per run, from its diagonal and star: no Magnus pass, no
    # exponential of a real form, and no real-form terms
    eigh_states, frames = ddsim.dynamics._eigh_states, []

    def recorded(frame, *args):
        frames.append(frame)
        return eigh_states(frame, *args)

    monkeypatch.setattr(ddsim.dynamics, "_eigh_states", recorded)
    for name in ("_magnus", "_magnus_pass", "_mirror_pass", "_one_envelope_basis", "_expm"):
        monkeypatch.setattr(ddsim.dynamics, name, mock.Mock(side_effect=AssertionError(f"{name} called")))
    if case == "PHASE gate":  # both basis states of criterion 4's PHASE check
        cs, pp = _criterion_4_gate(2005.0, 5.0, 1905.0, 0.2, 50.0, GateSpec(target="PHASE", l=10))
        for qubit in ((1, 0), (0, 1)):
            propagate_rwa(cs, pp, StateVector.qubit(*qubit, 1), IntegratorSettings(save_points=2))
    else:
        cs, pp, psi, _, _ = _constant_draw(3, case, 4, 1, 0.5)
        propagate = propagate_averaged if case == "averaged" else propagate_rwa
        propagate(cs, pp, psi, IntegratorSettings(save_points=5))
    assert len(frames) == (2 if case == "PHASE gate" else 1)
    assert all(frame.constant and "terms" not in frame.__dict__ for frame in frames)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("case", _CONSTANT_CASES)
def test_non_finite_coupling_fails_the_first_constant_exponential(case, bad, monkeypatch):
    # a constant generator's finiteness is checked before its eigendecomposition, so a bad coupling fails there,
    # before any exponential, and without a RuntimeWarning on the way
    monkeypatch.setattr(np.linalg, "eigh", mock.Mock(side_effect=AssertionError("eigh called")))
    cs, pp, psi, _, _ = _constant_draw(5, case, 3, 1, 0.5)
    name = "lambda1" if case == "pulse 0 off" else "lambda0"  # a coupling of a pulse that is on
    couplings = getattr(cs, name).copy()
    couplings[1] = bad
    cs = dataclasses.replace(cs, **{name: couplings})
    propagate = propagate_averaged if case == "averaged" else propagate_rwa
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagationError, match="are the couplings finite"):
            propagate(cs, pp, psi, IntegratorSettings(save_points=5))


# ---------------------------------------------------------------- elimination

def test_elimination_valid_when_detuning_dominates():
    sp, om0 = _single_level(-100.0)
    env = Envelope("sin2", center=1.0, width=2.0)
    pp = PulsePair(amp0=50.0, amp1=50.0, envelope0=env, envelope1=env,
                   omega0=om0, omega1=om0, duration=2.0)
    cs = derive_couplings(sp, pp)
    traj = propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 1))
    report = check_adiabatic_elimination(traj, cs, pp)
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
    report = check_adiabatic_elimination(traj, cs, pp)
    assert not report.valid
    assert report.peak_residual > report.threshold


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
    assert np.array_equal(traj.final_amplitudes, traj.amplitudes[-1])


def test_trajectory_grid_must_increase():
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(times=np.array([0.0, 0.0]),
                   amplitudes=np.zeros((2, 3), dtype=complex), frame="rwa")
