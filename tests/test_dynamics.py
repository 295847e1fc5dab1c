"""Propagation tiers against closed-form dynamics and each other."""

import cmath
import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import ddsim.dynamics
from ddsim import (
    CouplingSet,
    Envelope,
    ExcitedLevel,
    GateSpec,
    IntegratorSettings,
    PropagationError,
    PulsePair,
    SpectrumModel,
    StateVector,
    Trajectory,
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


@pytest.mark.parametrize("periods", [10, 20000])
def test_folded_norm_blowup_is_reported(periods, caplog):
    # constant envelopes at Delta != 0 fold; one rk4 step per beat period cannot resolve it,
    # and over 20000 periods the powers overflow until the drift reads NaN
    sp, om0 = _single_level(-100.0, delta_qubit=30.0)
    period = 2.0 * math.pi * HBAR / 30.0
    pp = _flat_pair(sp, om0, amp=50.0, duration=periods * period)
    cs = derive_couplings(sp, pp)
    coarse = IntegratorSettings(method="rk4", max_step=period, save_points=5)
    errors = []
    with caplog.at_level(logging.INFO, logger="ddsim.dynamics"), np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):  # the repeat takes the kept one-period propagator and fails the same way
            with pytest.raises(PropagationError, match="norm") as info:
                propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 1), coarse)
            errors.append(str(info.value))
    assert "folded" in caplog.text
    assert "reused" in caplog.records[-1].getMessage()
    assert errors[0] == errors[1]


# ---------------------------------------------------------------- folding


def _c_frame_reference(cs, pp, y0, times):
    """DOP853 at rtol 1e-12 on the rwa equations in the c frame, one column per initial state.

    <0|H|k> = (lambda0 e^{i phi0} + mu1 e^{i phi1} e^{-i Delta t}) e^{i delta_k t} and
    <1|H|k> = (mu0 e^{i phi0} e^{+i Delta t} + lambda1 e^{i phi1}) e^{i delta_k t}, over hbar.
    """
    wd, wq = cs.delta / HBAR, cs.delta_qubit / HBAR
    e0, e1 = np.exp(1j * pp.phi0) / HBAR, np.exp(1j * pp.phi1) / HBAR
    # plain Python scalars: the reference runs for up to ~1e6 rhs calls
    levels = list(zip(wd.tolist(), (cs.lambda0 * e0).tolist(), (cs.mu1 * e1).tolist(),
                      (cs.mu0 * e0).tolist(), (cs.lambda1 * e1).tolist()))
    dim, cols = y0.shape

    def rhs(t, y):
        v = y.tolist()  # row-major (dim, cols)
        beat = cmath.exp(1j * wq * t)
        dy = [0j] * (dim * cols)
        for k, (w, lam0, mu1, mu0, lam1) in enumerate(levels):
            ph = cmath.exp(1j * w * t)
            g0 = (lam0 + mu1 / beat) * ph
            g1 = (mu0 * beat + lam1) * ph
            row = (2 + k) * cols
            for j in range(cols):
                dy[j] += g0 * v[row + j]
                dy[cols + j] += g1 * v[row + j]
                dy[row + j] = g0.conjugate() * v[j] + g1.conjugate() * v[cols + j]
        return -1j * np.array(dy)

    sol = solve_ivp(rhs, (0.0, times[-1]), y0.astype(complex).ravel(), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y.T.reshape(len(times), dim, cols)


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


# (n, sign of Delta, window in beat periods, save points, method): saved times fall inside
# the first period and, for integer windows, on period boundaries
FOLD_DRAWS = [
    (1, +1, 2.0, 2, "adaptive"),
    (2, -1, 2.5, 7, "rk4"),
    (3, +1, 7.3, 201, "adaptive"),
    (4, -1, 16.0, 2, "rk4"),
    (1, -1, 31.7, 7, "adaptive"),
    (2, +1, 64.0, 201, "rk4"),
    (3, -1, 100.5, 2, "adaptive"),
    (4, +1, 150.0, 7, "rk4"),
    (2, -1, 255.2, 201, "adaptive"),
    (4, +1, 400.0, 7, "adaptive"),
    (1, -1, 399.6, 201, "rk4"),
]


@pytest.mark.parametrize("case", range(len(FOLD_DRAWS)))
def test_fold_matches_c_frame_reference(case, caplog):
    n, sign, periods, save_points, method = FOLD_DRAWS[case]
    cs, pp, psi, period = _fold_draw(case, n, sign, periods)
    # rk4 has no tolerance; its step is set fine enough for the 1e-8 bar
    settings = IntegratorSettings(method=method, save_points=save_points,
                                  max_step=period / 1000.0 if method == "rk4" else None)
    with caplog.at_level(logging.INFO, logger="ddsim.dynamics"):
        traj = propagate_rwa(cs, pp, psi, settings)
    assert "folded" in caplog.text
    ref = _c_frame_reference(cs, pp, psi.amplitudes[:, None], traj.times)[:, :, 0]
    assert np.max(np.abs(traj.amplitudes - ref)) <= 1e-8


@pytest.mark.parametrize("case, method", [(0, "adaptive"), (1, "rk4"), (2, "rk4"), (3, "adaptive")])
def test_fold_is_as_accurate_as_the_direct_path(case, method, monkeypatch):
    # at default settings, on windows short enough for the direct path to be cheap
    n, sign, periods, save_points, _ = FOLD_DRAWS[case]
    cs, pp, psi, _ = _fold_draw(case, n, sign, periods)
    settings = IntegratorSettings(method=method, save_points=save_points)
    folded = propagate_rwa(cs, pp, psi, settings)
    monkeypatch.setattr(ddsim.dynamics, "averaging_period", lambda delta_qubit: math.inf)
    direct = propagate_rwa(cs, pp, psi, settings)
    ref = _c_frame_reference(cs, pp, psi.amplitudes[:, None], folded.times)[:, :, 0]
    err_folded = np.max(np.abs(folded.amplitudes - ref))
    err_direct = np.max(np.abs(direct.amplitudes - ref))
    assert err_folded <= 2.0 * err_direct + 1e-11


@pytest.mark.parametrize("case", [3, 7])
def test_default_rk4_step_resolves_the_crossed_couplings(case):
    # |delta_k| reaches 0.6 |Delta| here, so the crossed couplings turn at up to 1.6 |Delta|;
    # a step sized on max(|delta_k|, |Delta|) alone loses the norm on both draws
    n, sign, periods, save_points, _ = FOLD_DRAWS[case]
    cs, pp, psi, _ = _fold_draw(case, n, sign, periods)
    traj = propagate_rwa(cs, pp, psi, IntegratorSettings(method="rk4", save_points=save_points))
    ref = _c_frame_reference(cs, pp, psi.amplitudes[:, None], traj.times)[:, :, 0]
    assert np.max(np.abs(traj.amplitudes - ref)) <= 2e-6


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


@pytest.mark.parametrize("args", [
    (2015.0, 15.0, 1915.0, 2.0, 50.0, GateSpec(target="NOT", l=15)),
    (2005.0, 5.0, 1905.0, 0.2, 50.0, GateSpec(target="PHASE", l=10)),
    (6500.0, 3000.0, 6400.0, 2.0, 50.0 / (1.0 + math.sqrt(2.0)), GateSpec(target="HADAMARD", l=5119, l_max=8192)),
], ids=["NOT", "PHASE", "HADAMARD"])
def test_criterion_4_gates_fold_to_reference(args):
    cs, pp = _criterion_4_gate(*args)
    settings = IntegratorSettings(save_points=2)
    runs = [propagate_rwa(cs, pp, StateVector.qubit(1, 0, 1), settings),
            propagate_rwa(cs, pp, StateVector.qubit(0, 1, 1), settings)]
    ref = _c_frame_reference(cs, pp, np.eye(3, 2), runs[0].times)[-1]
    realized = np.column_stack([run.final_amplitudes for run in runs])
    assert np.max(np.abs(realized - ref)) <= 1e-9
    assert np.allclose(qubit_transfer_matrix(*runs), ref[:2])


@pytest.mark.parametrize("kind, periods, expect", [
    ("constant", 3.5, "folded over 3.5 beat periods of P = "),
    ("sin2", 3.5, "direct (sin2/sin2 envelopes)"),
    ("zero", 3.5, "direct (Delta = 0)"),
    ("constant", 1.5, "shorter than 2 beat periods"),
])
def test_each_run_logs_its_path(kind, periods, expect, caplog, monkeypatch):
    monkeypatch.setattr(ddsim.dynamics, "_one_period_memo", None)
    dq = 0.0 if kind == "zero" else 30.0
    sp, om0 = _single_level(-100.0, delta_qubit=dq)
    duration = periods * 2.0 * math.pi * HBAR / 30.0
    if kind == "sin2":
        env = Envelope("sin2", center=0.5 * duration, width=duration)
        pp = PulsePair(amp0=20.0, amp1=20.0, envelope0=env, envelope1=env,
                       omega0=om0, omega1=om0 - sp.delta, duration=duration)
    else:
        pp = _flat_pair(sp, om0, amp=20.0, duration=duration)
    with caplog.at_level(logging.INFO, logger="ddsim.dynamics"):
        for _ in range(2):
            propagate_rwa(derive_couplings(sp, pp), pp, StateVector.qubit(1.0, 0.0, 1))
    lines = [r.getMessage() for r in caplog.records if r.name == "ddsim.dynamics"]
    assert len(lines) == 2
    assert lines[0].startswith("rwa propagation: ")
    assert expect in lines[0]
    # an identical fold takes the kept one-period propagator and says so
    reused = " (one-period propagator reused)" if "folded" in expect else ""
    assert lines[1] == lines[0] + reused


# ---------------------------------------------------------------- one-period memo


def _count_integrations(monkeypatch):
    """Start from an empty memo and record the grid of every _integrate call."""
    grids = []
    integrate = ddsim.dynamics._integrate

    def counted(rhs, y0, grid, *args):
        grids.append(grid)
        return integrate(rhs, y0, grid, *args)

    monkeypatch.setattr(ddsim.dynamics, "_integrate", counted)
    monkeypatch.setattr(ddsim.dynamics, "_one_period_memo", None)
    return grids


def _memo_case(delta_qubit=30.0, periods=3.5, **pair):
    sp, om0 = _single_level(-100.0, delta_qubit=delta_qubit)
    pp = _flat_pair(sp, om0, amp=20.0, duration=periods * (2.0 * math.pi * HBAR / 30.0))
    pp = dataclasses.replace(pp, **pair)
    return derive_couplings(sp, pp), pp


@pytest.mark.parametrize("method", ["adaptive", "rk4"])
def test_second_basis_state_is_bit_identical_to_a_cold_run(method, monkeypatch):
    cs, pp, _, _ = _fold_draw(5, 2, +1, 12.5)
    settings = IntegratorSettings(method=method, save_points=7)
    one = StateVector.qubit(0.0, 1.0, 2)
    monkeypatch.setattr(ddsim.dynamics, "_one_period_memo", None)
    cold = propagate_rwa(cs, pp, one, settings)
    grids = _count_integrations(monkeypatch)
    propagate_rwa(cs, pp, StateVector.qubit(1.0, 0.0, 2), settings)
    warm = propagate_rwa(cs, pp, one, settings)
    assert len(grids) == 1
    assert np.array_equal(warm.times, cold.times)
    assert np.array_equal(warm.amplitudes, cold.amplitudes)


# six save points instead of five move the offsets inside the period
@pytest.mark.parametrize("change, value", [
    ("phi0", 0.3), ("amp1", 21.0), ("delta_qubit", 31.0), ("rtol", 1e-9), ("atol", 1e-11),
    ("max_step", 0.01), ("method", "rk4"), ("save_points", 6),
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
    monkeypatch.setattr(ddsim.dynamics, "_one_period_memo", None)
    cold = propagate_rwa(new_cs, new_pp, psi, new_settings)
    grids = _count_integrations(monkeypatch)
    propagate_rwa(cs, pp, psi, settings)
    warm = propagate_rwa(new_cs, new_pp, psi, new_settings)
    assert len(grids) == 2
    assert np.array_equal(warm.amplitudes, cold.amplitudes)


def test_windows_of_whole_periods_share_one_integration(monkeypatch):
    # two save points of a window of l P, built as synthesize_gate builds it, sit at offsets 0
    # and P; at a few l (63 and 121 here) l P / P rounds below l and the memo misses
    grids = _count_integrations(monkeypatch)
    settings = IntegratorSettings(save_points=2)
    for periods in (3, 7, 40):
        cs, pp = _memo_case(periods=periods)
        propagate_rwa(cs, pp, StateVector.qubit(0.0, 1.0, 1), settings)
    assert len(grids) == 1


def test_returned_amplitudes_do_not_reach_the_memo(monkeypatch):
    cs, pp = _memo_case()
    psi = StateVector.qubit(1.0, 0.0, 1)
    grids = _count_integrations(monkeypatch)
    first = propagate_rwa(cs, pp, psi)
    expected = first.amplitudes.copy()
    first.amplitudes[:] = 0.0
    second = propagate_rwa(cs, pp, psi)
    assert len(grids) == 1
    assert np.array_equal(second.amplitudes, expected)
    assert not np.shares_memory(first.amplitudes, second.amplitudes)


@hypothesis_settings(derandomize=True, database=None, max_examples=25, deadline=None)
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


# ---------------------------------------------------------------- shared rhs

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("with_diag", [False, True])
def test_star_rhs_takes_states_and_propagators(n, with_diag):
    rng = np.random.default_rng([n, with_diag])
    dim = 2 + n
    s = float(rng.uniform(-3.0, 3.0))
    g0, g1 = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    diag = rng.normal(size=n) if with_diag else None
    rhs = ddsim.dynamics._star_rhs(lambda t: (s, g0, g1), diag)
    y = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    block = rhs(0.3, y)
    # the manifold rows are elementwise and bit-equal; the qubit rows are BLAS dot products,
    # summed in another order for a vector than for a matrix
    for j in range(dim):
        column = rhs(0.3, y[:, j].copy())
        assert np.array_equal(column[2:], block[2:, j])
        assert np.max(np.abs(column[:2] - block[:2, j])) <= 1e-14
    h = np.zeros((dim, dim), dtype=complex)
    h[0, 2:], h[1, 2:] = g0, g1
    h[2:, 0], h[2:, 1] = np.conj(g0), np.conj(g1)
    if with_diag:
        h[2:, 2:] = np.diag(diag)
    assert np.max(np.abs(block - (-1j * s * h) @ y)) <= 1e-14


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
