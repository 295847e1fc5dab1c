"""Reduced two-level model: sums, dressed-frame evolution, closed-form gates."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

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
from ddsim import effective
from ddsim.config import build_pulse_pair, build_spectrum_model
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


def test_rescaled_sums():
    ham = EffectiveHamiltonian(-1.0, -0.5, complex(-0.6))
    r = ham.rescaled(2.0)
    assert r.Lambda0 == -1.0
    assert r.Lambda1 == pytest.approx(-2.0)
    assert r.Lambda2 == pytest.approx(-1.2)


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
    x = 0.5 * (ham.Lambda0 * f0(ev._grid.times) ** 2 - ham.Lambda1 * f1(ev._grid.times) ** 2)
    y = abs(ham.Lambda2) * f0(ev._grid.times) * f1(ev._grid.times)
    held, last = [], None
    for xi, yi in zip(x, y):
        if xi != 0.0 or yi != 0.0:
            last = math.atan2(yi, xi)
        held.append(last)
    first = next(v for v in held if v is not None)
    assert [first if v is None else v for v in held] == list(ev._grid.theta)


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
        assert ev.theta(1.0) == ev._grid.theta[250]


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


@pytest.mark.parametrize("env", [
    Envelope("sin2", center=2.0, width=4.0),
    Envelope("gaussian", center=2.0, width=0.5),
    Envelope("trapezoid", center=2.0, width=3.0, ramp=0.7),
    Envelope("constant"),
], ids=lambda env: env.shape)
def test_theta_dot_of_one_shared_envelope_is_exactly_zero(env):
    # Theta is constant under one shared envelope; the ratio-of-derivatives form read round-off there,
    # up to 0.9 rad/ns at a sin2 support edge, where f is 1.5e-32
    ev = EffectiveEvolution(EffectiveHamiltonian(-100.0, -80.0, complex(90.0)), env, env, 0.0, 4.0)
    # both window ends, the support edges of sin2 and trapezoid, their ramp ends, and the gaussian's flanks
    edges = [0.0, 0.5, 1.2, 1.9, 2.0, 2.8, 3.5, 4.0]
    for t in edges:
        out = ev.theta_dot(t)
        assert type(out) is float and out == 0.0
    times = np.array([edges, np.linspace(0.0, 4.0, 8)])
    out = ev.theta_dot(times)
    assert out.shape == times.shape and not np.any(out)


def test_omega_integral_is_additive():
    ham = EffectiveHamiltonian(-0.5, -0.8, complex(-0.4))
    f0 = Envelope("sin2", center=2.0, width=4.0)
    ev = EffectiveEvolution(ham, f0, f0, 0.0, 4.0)
    total = ev.omega_integral(4.0)
    assert ev.omega_integral(1.5) + (total - ev.omega_integral(1.5)) == pytest.approx(total)
    mid = EffectiveEvolution(ham, f0, f0, 0.0, 4.0).omega_integral(2.0)
    assert 0.0 < mid < total


# ---------------------------------------------------------------- cumulative quadrature

_QUAD_HAM = EffectiveHamiltonian(-8.0, -6.5, complex(-5.0, 3.0))

_QUAD_CASES = {
    "sin2": (Envelope("sin2", center=2.0, width=4.0), Envelope("sin2", center=2.0, width=4.0), 4.0),
    "gaussian": (Envelope("gaussian", center=2.4, width=0.5), Envelope("gaussian", center=1.6, width=0.5), 4.0),
    "constant": (FLAT, FLAT, 3.0),
    "shifted": _DEAD_EDGE_CASES["shifted"],
    "mixed": (Envelope("gaussian", center=1.8, width=0.5), Envelope("trapezoid", center=2.2, width=3.0, ramp=0.6), 4.0),
}


def _quad_reference(ev, field, end):
    """Adaptive quadrature of one dressed field over [ev.t0, end], over hbar, told the kinks."""
    points = [k for k in ev.f0.kinks + ev.f1.kinks if ev.t0 < k < end] or None
    value, _ = quad(lambda s: getattr(ev._at(s), field), ev.t0, end, points=points,
                    limit=400, epsabs=1e-13, epsrel=1e-12)
    return value / HBAR


def test_gauss_legendre_table_is_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(effective._GL_X, nodes)
    assert np.array_equal(effective._GL_W, weights)


@pytest.mark.parametrize("case", sorted(_QUAD_CASES))
def test_cumulative_rule_matches_adaptive_quad(case):
    f0, f1, t1 = _QUAD_CASES[case]
    ev = EffectiveEvolution(_QUAD_HAM, f0, f1, 0.0, t1)
    times = np.linspace(0.0, t1, 1001)
    for method, field in ((ev.omega_integral, "omega"), (ev.phi_lambda, "mean")):
        got = method(times)[::40]
        want = [_quad_reference(ev, field, end) for end in times[::40]]
        assert np.max(np.abs(got - want)) <= 1e-10, field


def test_cumulative_rule_resolves_a_kink_between_knots():
    # without a two-photon sum Omega = |Lambda_0 f0^2 - Lambda_1 f1^2| / 2 has a
    # kink where the shifted pulses cross; equal panels alone were 1.2e-6 off
    f0, f1 = Envelope("sin2", center=4.5, width=4.0), Envelope("sin2", center=5.5, width=4.0)
    ev = EffectiveEvolution(EffectiveHamiltonian(-10.0, -7.0, 0j), f0, f1, 0.0, 10.0)
    crossing = brentq(lambda s: float(ev._at(s).x), 4.0, 6.0)
    value, _ = quad(lambda s: ev._at(s).omega, 0.0, 10.0, points=[2.5, 3.5, crossing, 6.5, 7.5],
                    limit=400, epsabs=1e-13, epsrel=1e-12)
    assert abs(ev.omega_integral(10.0) - value / HBAR) <= 1e-12
    assert abs(ev.omega_integral(np.linspace(0.0, 10.0, 1001))[-1] - value / HBAR) <= 1e-12


def _narrow_pulse(t0, length, width):
    """Two overlapping gaussians of `width` in the middle of [t0, t0 + length], and
    their Omega integral by adaptive quadrature told where the pulse sits."""
    centre = t0 + 0.5 * length
    f0, f1 = Envelope("gaussian", center=centre, width=width), Envelope("gaussian", center=centre + 0.5 * width, width=width)
    ev = EffectiveEvolution(_QUAD_HAM, f0, f1, t0, t0 + length)
    value, _ = quad(lambda s: ev._at(s).omega, t0, t0 + length, points=[centre - 10 * width, centre, centre + 10 * width],
                    limit=400, epsabs=1e-13, epsrel=1e-12)
    return ev, value / HBAR


def _count_nodes(monkeypatch, budget):
    """Count the times the integrand is evaluated on; fail once they pass `budget`."""
    seen = [0]

    def counted(ham, f0, f1):
        seen[0] += np.size(f0)
        assert seen[0] <= budget, "integrand evaluated on too many times"
        return dressed(ham, f0, f1)

    dressed = effective._dressed
    monkeypatch.setattr(effective, "_dressed", counted)
    return seen


@pytest.mark.parametrize("t0, length", [(100.0, 10.0), (0.0, 100.0)])
def test_narrow_pulse_halving_stops_at_the_rounding_floor(monkeypatch, t0, length):
    # a pulse 1/1000 and 1/10000 of the window wide: rounding the node times
    # moves each piece's rule by more than its share of 1e-12, at every depth,
    # and without the floor the failing pieces doubled level by level
    ev, want = _narrow_pulse(t0, length, 0.01)
    seen = _count_nodes(monkeypatch, 100_000)
    assert abs(ev.omega_integral(t0 + length) - want) <= 1e-12
    assert abs(ev.omega_integral(np.linspace(t0, t0 + length, 1001))[-1] - want) <= 1e-12
    assert seen[0] <= 50_000


def test_halving_is_bounded_without_the_rounding_floor(monkeypatch):
    # the split cap alone ends a pass whose pieces all fail on rounding noise
    ev, want = _narrow_pulse(0.0, 100.0, 0.01)
    monkeypatch.setattr(effective, "_ROUNDING", 0.0)
    seen = _count_nodes(monkeypatch, 5_000_000)
    assert abs(ev.omega_integral(np.linspace(0.0, 100.0, 1001))[-1] - want) <= 1e-12
    assert seen[0] > 100_000  # the cap, not the floor, ended the pass


def test_accumulated_takes_unsorted_duplicated_and_scalar_times():
    f0, f1, t1 = _QUAD_CASES["shifted"]
    ev = EffectiveEvolution(_QUAD_HAM, f0, f1, 0.0, t1)
    request = np.array([6.5, 1.0, 6.5, 0.0, 3.25, 1.0])
    ordered = np.unique(request)
    # the same knots give the same values, in the requested order and shape
    assert np.array_equal(ev.omega_integral(request), ev.omega_integral(ordered)[np.searchsorted(ordered, request)])
    assert ev.phi_lambda(request.reshape(2, 3)).shape == (2, 3)
    assert ev.omega_integral(0.0) == 0.0
    scalar = ev.phi_lambda(3.25)
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(ev.phi_lambda(request)[4], rel=0, abs=1e-12)
    assert ev.omega_integral(np.array([])).shape == (0,)
    for outside in (-0.5, t1 + 0.5, math.nan):
        with pytest.raises(ValueError, match="window"):
            ev.omega_integral(np.array([1.0, outside]))


def _flat_top_twins(t1):
    """Two unequal trapezoids that are exactly 1 on all of [0, t1], with their ramps outside:
    equal to FLAT there, but not one shared envelope, so integrated by quadrature."""
    return tuple(Envelope("trapezoid", center=0.5 * t1, width=3.0 * t1, ramp=r * t1) for r in (0.5, 0.25))


@pytest.mark.parametrize("periods", [3, 17, 100, 320])
def test_constant_envelopes_integrate_in_closed_form(monkeypatch, periods):
    # a flat-top gate window of `periods` beat periods, with the sums scaled
    # so that the dressed phase is 4 rad, of the size synthesize_gate reaches
    delta_qubit = 20.0
    t1 = periods * 2.0 * math.pi * HBAR / delta_qubit
    ham = EffectiveHamiltonian(-8.0, -6.5, complex(-5.0, 3.0))
    scale = 4.0 * HBAR / (ham.rabi * t1)
    ham = EffectiveHamiltonian(scale * ham.Lambda0, scale * ham.Lambda1, scale * ham.Lambda2)
    ev = EffectiveEvolution(ham, FLAT, FLAT, 0.0, t1)
    times = np.linspace(0.0, t1, 41)
    om, phi = (effective._cumulative_integrals(lambda s, f=field: getattr(ev._at(s), f), times,
                                               t1 / effective._PANELS_PER_WINDOW) / HBAR for field in ("omega", "mean"))
    twin = EffectiveEvolution(ham, *_flat_top_twins(t1), 0.0, t1)
    assert np.array_equal(twin.omega_integral(times), om)
    assert np.max(np.abs(twin.phi_lambda(times) - phi)) <= 1e-13  # a closed form for every pair
    quadrature = evolution_matrix(twin, None, 0.25 * t1, times[10:], epsilon0=3.0, delta_qubit=delta_qubit).matrix

    def no_quadrature(*args):
        raise AssertionError("constant envelopes took a quadrature pass")

    monkeypatch.setattr(effective, "_cumulative_integrals", no_quadrature)
    assert np.max(np.abs(ev.omega_integral(times) - om)) <= 1e-13
    assert np.max(np.abs(ev.phi_lambda(times) - phi)) <= 1e-13
    for i in (0, 17, 40):
        assert isinstance(ev.omega_integral(times[i]), float)
        assert abs(ev.omega_integral(times[i]) - om[i]) <= 1e-13
        assert abs(ev.phi_lambda(times[i]) - phi[i]) <= 1e-13
    matrix = evolution_matrix(ev, None, 0.25 * t1, times[10:], epsilon0=3.0, delta_qubit=delta_qubit).matrix
    assert np.max(np.abs(matrix - quadrature)) <= 1e-13
    for outside in (-0.5, t1 + 0.5, math.nan):
        for method in (ev.omega_integral, ev.phi_lambda):
            with pytest.raises(ValueError, match="window"):
                method(outside)
            with pytest.raises(ValueError, match="window"):
                method(np.array([0.5 * t1, outside]))
    with pytest.raises(ValueError, match="window"):
        evolution_matrix(ev, None, 0.0, t1 + 0.5, epsilon0=0.0, delta_qubit=delta_qubit)


_ONE_CALL_CASES = {
    # two unequal sin2 pulses, since one shared envelope takes the closed form
    "sin2": (Envelope("sin2", center=2.0, width=4.0), Envelope("sin2", center=2.0, width=3.6), 4.0),
    "gaussian": _QUAD_CASES["gaussian"],
    "trapezoid": (Envelope("trapezoid", center=2.2, width=3.0, ramp=0.7),
                  Envelope("trapezoid", center=1.8, width=3.0, ramp=0.5), 4.0),
}


@pytest.mark.filterwarnings("ignore:mixing angle is not adiabatic")
@pytest.mark.parametrize("case", [*sorted(_ONE_CALL_CASES), "narrow"])
def test_matrix_reads_both_phases_from_one_accumulated_call(monkeypatch, case):
    if case == "narrow":
        # a pulse 3/10000 of a late window wide, with a kink in Omega where the pulses cross
        f0, f1 = Envelope("gaussian", center=1005.0, width=0.003), Envelope("gaussian", center=1005.0015, width=0.003)
        ev = EffectiveEvolution(EffectiveHamiltonian(-10.0, -7.0, 0j), f0, f1, 1000.0, 1010.0)
    else:
        f0, f1, t1 = _ONE_CALL_CASES[case]
        ev = EffectiveEvolution(_QUAD_HAM, f0, f1, 0.0, t1)
    times = np.linspace(ev.t0, ev.t1, 41)
    calls = []
    accumulated = EffectiveEvolution._accumulated

    def spy(self, t):
        out = accumulated(self, t)
        calls.append((t, out))
        return out

    monkeypatch.setattr(EffectiveEvolution, "_accumulated", spy)
    start = ev.t0 + 0.25 * (ev.t1 - ev.t0)
    evolution_matrix(ev, None, start, times[times >= start], epsilon0=0.0, delta_qubit=5.0)
    monkeypatch.undo()
    assert len(calls) == 2  # one for the end times, one for the start
    for t, (om, phi) in calls:
        assert np.array_equal(om, ev.omega_integral(t))
        assert np.array_equal(phi, ev.phi_lambda(t))


@pytest.mark.filterwarnings("ignore:mixing angle is not adiabatic")
def test_matrix_from_a_later_start_matches_a_window_starting_there():
    f0, f1, t1 = _QUAD_CASES["gaussian"]
    cs, sp, _ = _couplings([(2.0, 2.0)], [-100.0], amp=20.0)
    ham = effective_hamiltonian(cs)
    times = np.linspace(1.5, t1, 41)
    full = evolution_matrix(EffectiveEvolution(ham, f0, f1, 0.0, t1), sp, 1.5, times)
    late = evolution_matrix(EffectiveEvolution(ham, f0, f1, 1.5, t1), sp, 1.5, times)
    assert np.max(np.abs(full.matrix - late.matrix)) <= 1e-12


# An effective run with trapezoid pulses whose integrals adaptive quad
# over [0, t], not told the ramp kinks, got 4.7e-7 wrong
# (TRAPEZOID_EFFECTIVE in bench/tests/test_bench.py, copied so the test
# suite stands alone).
_TRAPEZOID_EFFECTIVE = {
    "mode": "effective",
    "spectrum": {"n_levels": 5, "shape": "uniform", "delta": 11.576052656888564, "omega_exc": 1844.6938240802585,
                 "spacing": 19.18010182358241, "dipole0": 1.9954390501932604, "dipole1": 2.0576876254213032,
                 "jitter": 0.06401505106623301, "seed": 285927460},
    "pulses": {"amp0": 111.53545318890248, "amp1": 89.61311352878884, "omega0": 1738.7143836483287,
               "phi0": 6.2103386666055655, "phi1": 2.1857121604704495, "duration": 4.31468183155562,
               "envelope0": {"shape": "trapezoid", "ramp": 0.9440424406264916},
               "envelope1": {"shape": "trapezoid", "ramp": 0.9440424406264916}},
}


def test_trapezoid_integrals_split_at_the_ramp_kinks():
    sp = build_spectrum_model(_TRAPEZOID_EFFECTIVE)
    pp = build_pulse_pair(_TRAPEZOID_EFFECTIVE, sp)
    ham = effective_hamiltonian(derive_couplings(sp, pp), pp.phi0, pp.phi1)
    ev = EffectiveEvolution(ham, pp.envelope0, pp.envelope1, 0.0, pp.duration)
    assert len(set(pp.envelope0.kinks + pp.envelope1.kinks)) == 4
    times = np.linspace(0.0, pp.duration, 801)
    for method, field in ((ev.omega_integral, "omega"), (ev.phi_lambda, "mean")):
        got = method(times)[::100]
        want = [_quad_reference(ev, field, end) for end in times[::100]]
        assert np.max(np.abs(got - want)) <= 1e-9, field
        assert abs(method(pp.duration) - want[-1]) <= 1e-9, field


@st.composite
def _envelope_draws(draw):
    """An envelope pair inside a window [t0, t0 + length], each pulse of a shape of its own."""
    t0, length = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.5, 10.0))
    envelopes = []
    for _ in range(2):
        shape = draw(st.sampled_from(["gaussian", "sin2", "trapezoid", "constant"]))
        center = t0 + length * draw(st.floats(0.2, 0.8))
        if shape == "gaussian":
            envelopes.append(Envelope("gaussian", center=center, width=length * draw(st.floats(0.05, 0.2))))
        elif shape == "constant":
            envelopes.append(FLAT)
        else:
            width = length * draw(st.floats(0.1, 0.6))
            envelopes.append(Envelope(shape, center=center, width=width, ramp=width * draw(st.floats(0.05, 0.5))))
    return (*envelopes, t0, t0 + length)


@settings(max_examples=100)
@given(draw=_envelope_draws(), request=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30), data=st.data())
def test_accumulated_value_does_not_depend_on_the_other_times(draw, request, data):
    f0, f1, t0, t1 = draw
    ev = EffectiveEvolution(EffectiveHamiltonian(-1.0, -0.7, complex(-0.6, 0.3)), f0, f1, t0, t1)
    times = np.clip(t0 + (t1 - t0) * np.array(request), t0, t1)
    subset = np.array(sorted(data.draw(st.sets(st.sampled_from(range(times.size)), min_size=1))))
    for method in (ev.omega_integral, ev.phi_lambda):
        shared = method(times)
        assert np.max(np.abs(method(times[subset]) - shared[subset])) <= 1e-12
        # the integral over [a, b] is the difference of the accumulated values
        a, b = np.min(times[subset]), np.max(times[subset])
        between = getattr(EffectiveEvolution(ev.ham, f0, f1, a, b), method.__name__)(b) if a < b else 0.0
        assert abs(method(b) - method(a) - between) <= 1e-12


@settings(max_examples=100)
@given(draw=_envelope_draws(), ends=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_mean_phase_of_any_pair_matches_adaptive_quad(draw, ends):
    f0, f1, t0, t1 = draw
    ham = EffectiveHamiltonian(-1.0, -0.7, complex(-0.6, 0.3))
    ev = EffectiveEvolution(ham, f0, f1, t0, t1)
    scale = max(abs(ham.Lambda0), abs(ham.Lambda1)) * (t1 - t0) / HBAR
    for end in np.clip(t0 + (t1 - t0) * np.array(ends), t0, t1):
        points = [b for b in f0.breakpoints + f1.breakpoints if t0 < b < end] or None
        want, _ = quad(lambda s: ev._at(s).mean, t0, end, points=points, limit=400, epsabs=1e-13, epsrel=1e-12)
        assert abs(ev.phi_lambda(end) - want / HBAR) <= 1e-12 * scale


@pytest.mark.filterwarnings("ignore:mixing angle is not adiabatic")
def test_two_envelope_pass_integrates_omega_alone(monkeypatch):
    f0, f1, t1 = _QUAD_CASES["mixed"]
    ev = EffectiveEvolution(_QUAD_HAM, f0, f1, 0.0, t1)
    passes = []
    cumulative = effective._cumulative_integrals

    def spy(integrand, knots, cap):
        passes.append(np.array_equal(integrand(knots), ev._at(knots).omega))
        return cumulative(integrand, knots, cap)

    monkeypatch.setattr(effective, "_cumulative_integrals", spy)
    evolution_matrix(ev, None, 1.0, np.linspace(1.0, t1, 9), epsilon0=0.0, delta_qubit=5.0)
    assert passes == [True, True]  # one pass of Omega per end of the matrix, none of the mean shift


def test_mean_phase_of_two_envelopes_takes_no_quadrature(monkeypatch):
    # phi_lambda is the closed form alone: the values that _accumulated pairs with the Omega quadrature
    f0, f1, t1 = _QUAD_CASES["mixed"]
    assert f0 != f1
    ev = EffectiveEvolution(_QUAD_HAM, f0, f1, 0.0, t1)
    times = np.linspace(0.0, t1, 9)
    want = ev._accumulated(times)[1]

    def refused(*args):
        raise AssertionError("phi_lambda ran the Omega quadrature")

    monkeypatch.setattr(effective, "_cumulative_integrals", refused)
    assert np.array_equal(ev.phi_lambda(times), want)
    assert ev.phi_lambda(float(times[4])) == want[4]


@st.composite
def _shared_envelope_draws(draw):
    """One envelope of any shape, shared by both pulses, a window that may start or end inside the pulse,
    sums of either sign with a complex two-photon sum, and times in the window that include both ends."""
    shape = draw(st.sampled_from(["gaussian", "sin2", "trapezoid", "constant"]))
    center, width = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.3, 4.0))
    if shape == "gaussian":
        env, support = Envelope("gaussian", center=center, width=width), 4.0 * width
    elif shape == "constant":
        env, support = FLAT, width
    else:
        env, support = Envelope(shape, center=center, width=width, ramp=width * draw(st.floats(0.05, 0.5))), width
    t0 = center + support * draw(st.floats(-0.8, 0.4))
    t1 = t0 + support * draw(st.floats(0.05, 1.6))
    ham = EffectiveHamiltonian(draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0)),
                               complex(draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))))
    inside = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    times = np.concatenate(([t0, t1], np.clip(t0 + (t1 - t0) * np.array(inside), t0, t1)))
    return EffectiveEvolution(ham, env, env, t0, t1), times


@settings(max_examples=200)
@given(draw=_shared_envelope_draws())
def test_shared_envelope_closed_form_matches_the_quadrature(draw):
    ev, times = draw
    assert ev.shared
    # the pass _accumulated takes of Omega for two envelopes, over the same knots, here one per field
    kinks = [k for k in ev.f0.kinks if ev.t0 < k < np.max(times)]
    knots = np.unique(np.concatenate(([ev.t0], times, kinks)))
    at = np.searchsorted(knots, times)
    peak = effective._dressed(ev.ham, 1.0, 1.0)
    for method, field in ((ev.omega_integral, "omega"), (ev.phi_lambda, "mean")):
        row = effective._cumulative_integrals(lambda s: getattr(ev._at(s), field), knots,
                                              (ev.t1 - ev.t0) / effective._PANELS_PER_WINDOW)
        scale = max(abs(float(getattr(peak, field))) * (ev.t1 - ev.t0) / HBAR, 1e-300)
        want = row[at] / HBAR
        assert np.max(np.abs(method(times) - want)) <= 1e-13 * scale, field
        for i in (0, 1, len(times) - 1):  # t0, t1 and a drawn time, as scalars
            got = method(float(times[i]))
            assert isinstance(got, float)
            assert abs(got - want[i]) <= 1e-13 * scale, field


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


def test_grid_is_built_only_where_it_is_read():
    ham = EffectiveHamiltonian(-1.0, -0.7, complex(-0.6))
    flat = EffectiveEvolution(ham, FLAT, FLAT, 0.0, 2.0)
    assert evolution_matrix(flat, epsilon0=0.0, delta_qubit=5.0).adiabatic
    assert "_grid" not in flat.__dict__
    # one shared envelope: theta_dot is 0 analytically, so the check reads no grid
    f0 = Envelope("gaussian", center=2.0, width=0.5)
    shared = EffectiveEvolution(ham, f0, f0, 0.5, 4.0)
    shared.theta(np.array([1.0, 2.0]))
    shared.omega_integral(4.0)
    assert (shared.check.max_ratio, shared.check.time_of_max) == (0.0, 0.5)
    assert evolution_matrix(shared, epsilon0=0.0, delta_qubit=5.0).adiabatic
    assert "_grid" not in shared.__dict__
    # two envelopes: the check reads the grid, and only the check
    ham = EffectiveHamiltonian(-100.0, -80.0, complex(-90.0))
    f0, f1 = Envelope("gaussian", center=4.5, width=0.5), Envelope("gaussian", center=5.5, width=0.5)
    shaped = EffectiveEvolution(ham, f0, f1, 0.0, 10.0)
    shaped.theta(np.array([1.0, 2.0]))
    shaped.omega_integral(10.0)
    assert "_grid" not in shaped.__dict__
    assert shaped.check.passed
    assert "_grid" in shaped.__dict__


def test_theta_at_a_dead_time_resolved_by_the_nudges_builds_no_grid():
    # a shared sin2 vanishes at both window edges; the first inward nudge resolves each
    f0 = Envelope("sin2", center=2.0, width=4.0)
    ev = EffectiveEvolution(EffectiveHamiltonian(-1.0, -0.7, complex(-0.6)), f0, f0, 0.0, 4.0)
    inside = ev.theta(2.0)
    assert ev.theta(0.0) == pytest.approx(inside, abs=1e-15)
    assert np.max(np.abs(ev.theta(np.array([0.0, 1.0, 4.0])) - inside)) <= 1e-15
    assert "_grid" not in ev.__dict__


def test_adiabaticity_check_ignores_envelope_tails():
    # delayed gaussians in a wide window: Omega is round-off near the
    # edges, where theta_dot / Omega says nothing about the pulses
    ham = EffectiveHamiltonian(-100.0, -80.0, complex(-90.0))
    f0 = Envelope("gaussian", center=4.5, width=0.5)
    f1 = Envelope("gaussian", center=5.5, width=0.5)
    report = diagonal_evolution_check(EffectiveEvolution(ham, f0, f1, 0.0, 10.0))
    assert report.passed
    assert report.max_ratio == pytest.approx(0.0895, abs=5e-5)
    assert 3.0 < report.time_of_max < 7.0


# ---------------------------------------------------------------- gate matrix

def test_gate_matrix_structure_enforced():
    with pytest.raises(ValueError, match="unitary"):
        GateMatrix(u00=0.5, u01=0.5, global_phase=1.0, delta_qubit=0.0, t0=0.0, t=1.0)
    gm = GateMatrix(u00=0.6j, u01=0.8, global_phase=1.0, delta_qubit=0.0, t0=0.0, t=1.0)
    assert np.array_equal(gm.core, [[0.6j, 0.8], [-0.8, -0.6j]])


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
    with pytest.raises(ValueError, match="window"):
        evolution_matrix(ev, t0=-0.5, t=0.5, epsilon0=0.0, delta_qubit=0.0)
    with pytest.raises(ValueError, match="precede"):
        evolution_matrix(ev, t0=0.5, t=np.array([0.6, 0.2]), epsilon0=0.0, delta_qubit=0.0)


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
