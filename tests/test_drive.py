"""Pulse envelopes, coupling derivation, and regime classification."""

import math

import numpy as np
import pytest
from scipy.special import erf

from ddsim import (
    Envelope,
    ExcitedLevel,
    PulsePair,
    SpectrumModel,
    averaging_period,
    classify_regime,
    derive_couplings,
    enforce_two_photon_resonance,
    slow_switching_ok,
)
from ddsim.drive import CouplingSet


def _spectrum(levels, delta=5.0):
    return SpectrumModel(epsilon0=0.0, epsilon1=delta, excited_levels=levels)


def _pair(omega0, delta_qubit, amp0=10.0, amp1=10.0, duration=4.0, **kwargs):
    env = Envelope("constant")
    return PulsePair(amp0=amp0, amp1=amp1, envelope0=env, envelope1=env,
                     omega0=omega0, omega1=omega0 - delta_qubit,
                     duration=duration, **kwargs)


# ---------------------------------------------------------------- envelopes

def test_constant_envelope_is_unit_everywhere():
    env = Envelope("constant")
    assert env(0.0) == 1.0
    assert np.all(env(np.linspace(-5, 50, 7)) == 1.0)


def test_gaussian_envelope_peak_and_width():
    env = Envelope("gaussian", center=3.0, width=0.5)
    assert env(3.0) == 1.0
    assert env(3.5) == pytest.approx(0.6065306597126334, rel=1e-12)
    assert env(2.5) == pytest.approx(0.6065306597126334, rel=1e-12)


def test_sin2_envelope_support_and_peak():
    env = Envelope("sin2", center=2.0, width=4.0)
    assert env(2.0) == 1.0
    assert env(0.0) == 0.0
    assert env(4.0) < 1e-30
    assert env(-0.3) == 0.0
    assert env(4.7) == 0.0
    # sin^2 of a quarter phase
    assert env(1.0) == pytest.approx(0.5, abs=1e-12)


def test_trapezoid_envelope_profile():
    env = Envelope("trapezoid", center=5.0, width=8.0, ramp=2.0)
    assert env(1.0) == 0.0
    assert env(2.0) == pytest.approx(0.5)
    assert env(3.0) == 1.0
    assert env(7.0) == 1.0
    assert env(8.0) == pytest.approx(0.5)
    assert env(9.0) == 0.0


def test_envelope_derivative_matches_finite_difference(rng):
    envs = [
        Envelope("gaussian", center=2.0, width=0.7),
        Envelope("sin2", center=2.0, width=3.0),
        Envelope("constant"),
    ]
    h = 1e-6
    for env in envs:
        for t in rng.uniform(0.8, 3.2, size=8):
            fd = (env(t + h) - env(t - h)) / (2 * h)
            assert env.derivative(t) == pytest.approx(fd, abs=1e-6)


def test_trapezoid_derivative_on_ramp():
    env = Envelope("trapezoid", center=5.0, width=8.0, ramp=2.0)
    assert env.derivative(2.0) == pytest.approx(0.5)
    assert env.derivative(5.0) == 0.0
    assert env.derivative(8.0) == pytest.approx(-0.5)


_SQUARE_CASES = [
    Envelope("constant"),
    Envelope("gaussian", center=1.3, width=0.4),
    Envelope("sin2", center=1.0, width=2.5),
    Envelope("trapezoid", center=1.5, width=2.0, ramp=0.6),
    Envelope("trapezoid", center=1.5, width=2.0, ramp=1.0),  # ramps that meet: no flat top
]


@pytest.mark.parametrize("env", _SQUARE_CASES, ids=lambda env: f"{env.shape}-{env.ramp}")
def test_square_integral_matches_gauss_legendre_on_fine_panels(env):
    # windows that start before, end inside, and lie wholly inside the pulse
    nodes, weights = np.polynomial.legendre.leggauss(8)
    for a, b in ((-1.5, 4.5), (-0.5, 1.2), (0.9, 1.7), (2.2, 4.0)):
        edges = np.unique(np.concatenate((np.linspace(a, b, 2001), [k for k in env.breakpoints if a < k < b])))
        lo, hi = edges[:-1], edges[1:]
        half = 0.5 * (hi - lo)
        values = env((lo + half)[:, None] + half[:, None] * nodes) ** 2
        want = float(np.sum(half * (values @ weights)))
        got = env.square_integral(b) - env.square_integral(a)
        assert abs(got - want) <= 1e-14 * max(1.0, b - a), (a, b)
    times = np.linspace(-1.5, 4.5, 7)
    assert np.array_equal(env.square_integral(times), [env.square_integral(t) for t in times])
    assert isinstance(env.square_integral(0.5), float)
    if env.shape == "constant":  # so that differences are exactly t - t0
        assert np.array_equal(env.square_integral(times), times)


@pytest.mark.parametrize("center, width", [(1.3, 0.4), (0.0, 1.0), (-2.0, 3e-3), (40.0, 7.5)])
def test_gaussian_square_integral_matches_scipy_erf(center, width):
    # math.erf, taken elementwise, against scipy's erf over +-8 widths
    env = Envelope("gaussian", center=center, width=width)
    scale = 0.5 * math.sqrt(math.pi) * width
    times = center + width * np.linspace(-8.0, 8.0, 200_001)
    got = env.square_integral(times)
    assert got.dtype == np.float64 and got.shape == times.shape
    assert np.max(np.abs(got - scale * erf((times - center) / width))) <= 4.0 * np.spacing(scale)
    assert env.square_integral(times[:1203].reshape(401, 3)).shape == (401, 3)
    assert isinstance(env.square_integral(center + 0.3 * width), float)
    assert env.square_integral(math.inf) == scale and env.square_integral(-math.inf) == -scale


def test_envelope_shift_moves_center():
    env = Envelope("gaussian", center=1.0, width=0.5)
    moved = env.shifted(2.5)
    assert moved.center == 3.5
    assert moved(3.5) == 1.0
    assert env.shifted(0.0)(1.0) == 1.0


def test_switching_time_scales():
    assert math.isinf(Envelope("constant").switching_time)
    assert Envelope("gaussian", width=0.5).switching_time == 0.5
    assert Envelope("sin2", width=4.0, center=2.0).switching_time == 2.0
    assert Envelope("trapezoid", width=8.0, ramp=1.5, center=4.0).switching_time == 1.5


def test_kinks_follow_the_shape_and_its_shift():
    assert Envelope("constant").kinks == ()
    assert Envelope("gaussian", width=0.5).kinks == ()
    assert Envelope("sin2", width=4.0, center=2.0).kinks == ()
    trapezoid = Envelope("trapezoid", width=8.0, ramp=1.5, center=4.0)
    assert trapezoid.kinks == (0.0, 1.5, 6.5, 8.0)
    assert trapezoid.shifted(1.0).kinks == (1.0, 2.5, 7.5, 9.0)


@pytest.mark.parametrize("kwargs", [
    dict(shape="square"),
    dict(shape="gaussian", width=0.0),
    dict(shape="sin2", width=-1.0),
    dict(shape="trapezoid", width=4.0, ramp=0.0),
    dict(shape="trapezoid", width=4.0, ramp=3.0),
])
def test_envelope_validation(kwargs):
    with pytest.raises(ValueError):
        Envelope(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("shape, field", [
    (shape, field)
    for shape in ("gaussian", "sin2", "trapezoid", "constant")
    for field in ("center", "width", "ramp")
])
def test_envelope_rejects_non_finite_parameters(shape, field, value):
    # `width <= 0` and `ramp <= 0` let NaN through, and center was never checked
    base = dict(center=2.0, width=4.0, ramp=1.0)
    with pytest.raises(ValueError, match=field):
        Envelope(shape, **{**base, field: value})


# ---------------------------------------------------------------- pulse pair

def test_pulse_pair_rejects_envelope_alive_at_window_edge():
    wide = Envelope("gaussian", center=2.0, width=3.0)
    with pytest.raises(ValueError, match="vanish"):
        PulsePair(amp0=1.0, amp1=1.0, envelope0=wide, envelope1=wide,
                  omega0=2000.0, omega1=1995.0, duration=4.0)


def test_pulse_pair_accepts_contained_envelope():
    narrow = Envelope("sin2", center=2.0, width=4.0)
    pp = PulsePair(amp0=1.0, amp1=1.0, envelope0=narrow, envelope1=narrow,
                   omega0=2000.0, omega1=1995.0, duration=4.0)
    assert pp.switching_time == 2.0


def test_pulse_pair_polarization_bounds():
    with pytest.raises(ValueError, match="gamma_y0"):
        _pair(2000.0, 5.0, gamma_y0=0.31)
    pp = _pair(2000.0, 5.0, gamma_y0=0.1, gamma_z1=-0.2)
    assert pp.gamma_sq_max == pytest.approx(0.04)


@pytest.mark.parametrize("kwargs", [
    dict(amp0=-1.0),
    dict(omega0=0.0),
    dict(duration=0.0),
    dict(duration=math.inf),  # unchecked, the rwa tier's fold never ended: floor(inf / period) cast to a negative int
    dict(duration=math.nan),
])
def test_pulse_pair_validation(kwargs):
    base = dict(amp0=1.0, amp1=1.0, envelope0=Envelope("constant"),
                envelope1=Envelope("constant"), omega0=2000.0, omega1=1995.0,
                duration=4.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        PulsePair(**base)


_NON_FINITE = pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
_PAIR_FIELDS = ("amp0", "amp1", "omega0", "omega1", "duration", "phi0", "phi1",
                "gamma_y0", "gamma_z0", "gamma_y1", "gamma_z1")


@_NON_FINITE
@pytest.mark.parametrize("field", _PAIR_FIELDS)
def test_pulse_pair_rejects_non_finite_fields(field, value):
    # each check is written so that NaN fails it: `amp < 0` or `abs(gamma) > 0.3` let NaN through
    base = dict(amp0=1.0, amp1=1.0, envelope0=Envelope("constant"),
                envelope1=Envelope("constant"), omega0=2000.0, omega1=1995.0,
                duration=4.0)
    with pytest.raises(ValueError, match=field):
        PulsePair(**{**base, field: value})


def test_pulse_pair_edge_check_rejects_a_nan_envelope():
    env = Envelope("gaussian", center=2.0, width=0.2)
    object.__setattr__(env, "center", math.nan)  # past Envelope's own check, as a frozen dataclass allows
    with pytest.raises(ValueError, match="envelope0 does not vanish"):
        PulsePair(amp0=1.0, amp1=1.0, envelope0=env, envelope1=Envelope("constant"),
                  omega0=2000.0, omega1=1995.0, duration=4.0)


@_NON_FINITE
@pytest.mark.parametrize("field", ["epsilon0", "epsilon1"])
def test_derive_couplings_rejects_a_non_finite_splitting(field, value):
    # a NaN splitting made the resonance mismatch NaN, which `abs(mismatch) > tol` let through, and an
    # infinite one made the tolerance infinite; SpectrumModel itself refuses the other infinities
    with pytest.raises(ValueError):
        sp = SpectrumModel(**{"epsilon0": 0.0, "epsilon1": 5.0, field: value},
                           excited_levels=(ExcitedLevel(2005.0, 1.0, 1.0),))
        derive_couplings(sp, _pair(1905.0, 5.0))


@_NON_FINITE
@pytest.mark.parametrize("field", ["energy", "dipole_to_0", "dipole_to_1", "epsilon0", "epsilon1"])
def test_derive_couplings_gets_no_spectrum_with_a_non_finite_field(field, value):
    # a NaN energy gave detunings [nan] and a NaN dipole lambda0 [nan+nanj], and nothing raised; the spectrum now
    # refuses each, naming the field, before the couplings are derived
    level = {"energy": 2005.0, "dipole_to_0": 1.0, "dipole_to_1": 1.0}
    qubit = {"epsilon0": 0.0, "epsilon1": 5.0}
    (level if field in level else qubit)[field] = value
    with pytest.raises(ValueError, match=field):
        derive_couplings(SpectrumModel(**qubit, excited_levels=(ExcitedLevel(**level),)), _pair(1905.0, 5.0))


@_NON_FINITE
def test_two_photon_lock_rejects_non_finite_carriers(value):
    sp = _spectrum((ExcitedLevel(2005.0, 1.0, 1.0),), delta=5.0)
    with pytest.raises(ValueError, match="omega0"):
        enforce_two_photon_resonance(sp, value)


def test_two_photon_lock_rejects_a_nan_splitting():
    sp = SpectrumModel(epsilon0=0.0, epsilon1=5.0, excited_levels=(ExcitedLevel(2005.0, 1.0, 1.0),))
    object.__setattr__(sp, "epsilon1", math.nan)  # past SpectrumModel's own check, as a frozen dataclass allows
    with pytest.raises(ValueError, match="omega1"):
        enforce_two_photon_resonance(sp, 1905.0)


def test_two_photon_lock():
    sp = _spectrum((ExcitedLevel(2005.0, 1.0, 1.0),), delta=5.0)
    om0, om1 = enforce_two_photon_resonance(sp, 1905.0)
    assert om0 == 1905.0
    assert om1 == 1900.0


# ---------------------------------------------------------------- couplings

def test_coupling_magnitude_from_dipole_and_field():
    # d = 3 e*nm against a 10 V/cm peak is 1.5 ueV after the half from
    # splitting the cosine into its rotating parts
    sp = _spectrum((ExcitedLevel(2005.0, 3.0, 2.0),), delta=5.0)
    pp = _pair(1905.0, 5.0, amp0=10.0, amp1=20.0)
    cs = derive_couplings(sp, pp)
    assert cs.lambda0[0] == pytest.approx(1.5)
    assert cs.lambda1[0] == pytest.approx(2.0 * 20.0 / 2 * 0.1)
    assert cs.mu0[0] == pytest.approx(2.0 * 10.0 / 2 * 0.1)
    assert cs.mu1[0] == pytest.approx(3.0 * 20.0 / 2 * 0.1)
    assert cs.delta[0] == pytest.approx(1905.0 - 2005.0)
    assert cs.delta_qubit == 5.0


def test_detuning_list_shared_between_pulses():
    levels = (ExcitedLevel(2005.0, 1.0, 1.0), ExcitedLevel(2035.0, 1.0, 1.0))
    sp = _spectrum(levels, delta=5.0)
    om0, om1 = enforce_two_photon_resonance(sp, 1905.0)
    pp = _pair(om0, 5.0)
    cs = derive_couplings(sp, pp)
    # pulse 1 against the 1->k transition lands on the same detunings
    assert np.allclose(cs.delta, [om1 - (2005.0 - 5.0), om1 - (2035.0 - 5.0)])
    assert np.allclose(cs.delta, [-100.0, -130.0])


def test_max_lambda_over_delta():
    sp = _spectrum((ExcitedLevel(2005.0, 2.0, 2.0), ExcitedLevel(2105.0, 2.0, 2.0)),
                   delta=5.0)
    pp = _pair(1905.0, 5.0, amp0=50.0, amp1=50.0)
    cs = derive_couplings(sp, pp)
    # strongest ratio comes from the closer level: 5 ueV over 100 ueV
    assert cs.max_lambda_over_delta == pytest.approx(0.05)


def test_coupling_set_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        CouplingSet(lambda0=np.ones(2), lambda1=np.ones(2), mu0=np.ones(2),
                    mu1=np.ones(1), delta=np.array([-100.0, -130.0]),
                    delta_qubit=5.0)


# ---------------------------------------------------------------- regimes

def _coupling_set(lam, dk, dq):
    arr = np.array([lam], dtype=complex)
    return CouplingSet(lambda0=arr, lambda1=arr, mu0=arr, mu1=arr,
                       delta=np.array([dk], dtype=float), delta_qubit=dq)


def test_regime_labels():
    assert classify_regime(_coupling_set(100.0, 1.0, 1.0)).labels == ("resonant-symmetric",)
    assert classify_regime(_coupling_set(10.0, 1.0, 1000.0)).labels == ("resonant-asymmetric",)
    assert classify_regime(_coupling_set(10.0, 1000.0, 1.0)).labels == ("off-resonant-symmetric",)
    assert classify_regime(_coupling_set(1.0, 100.0, 100.0)).labels == ("off-resonant-asymmetric",)
    assert classify_regime(_coupling_set(1.0, 3.0, 3.0)).labels == ("unclassified",)


def test_regime_boundary_is_inclusive():
    # a factor of exactly ten counts as dominance
    report = classify_regime(_coupling_set(1.0, 10.0, 10.0))
    assert report.labels == ("off-resonant-asymmetric",)


def test_regime_report_helpers():
    report = classify_regime(_coupling_set(1.0, 100.0, 100.0))
    assert report.all_off_resonant
    assert report.uniform_label == "off-resonant-asymmetric"
    assert report.ratio_detuning_coupling[0] == pytest.approx(100.0)

    mixed = CouplingSet(lambda0=np.array([1.0, 100.0], dtype=complex),
                        lambda1=np.array([1.0, 100.0], dtype=complex),
                        mu0=np.array([1.0, 100.0], dtype=complex),
                        mu1=np.array([1.0, 100.0], dtype=complex),
                        delta=np.array([100.0, 1.0]), delta_qubit=100.0)
    assert classify_regime(mixed).uniform_label == "mixed"


# ---------------------------------------------------------------- averaging

def test_averaging_period_value():
    assert averaging_period(5.0) == pytest.approx(0.8271335393208006, rel=1e-12)
    assert math.isinf(averaging_period(0.0))


def test_slow_switching_check():
    sp_delta = 5.0
    flat = _pair(2000.0, sp_delta)
    assert slow_switching_ok(flat, sp_delta)

    fast = PulsePair(amp0=1.0, amp1=1.0,
                     envelope0=Envelope("sin2", center=0.5, width=1.0),
                     envelope1=Envelope("sin2", center=0.5, width=1.0),
                     omega0=2000.0, omega1=1995.0, duration=1.0)
    assert not slow_switching_ok(fast, sp_delta)
