"""Structure models: explicit spectra, generated spectra, hierarchy checks."""

import math

import numpy as np
import pytest

from ddsim import (
    ExcitedLevel,
    SpectrumConfig,
    SpectrumModel,
    build_spectrum,
    validate_hierarchy,
)


def _single(energy=2005.0, d0=2.0, d1=2.0, delta=5.0):
    lev = ExcitedLevel(energy=energy, dipole_to_0=d0, dipole_to_1=d1)
    return SpectrumModel(epsilon0=0.0, epsilon1=delta, excited_levels=(lev,))


def test_derived_gaps():
    levels = (
        ExcitedLevel(energy=2005.0, dipole_to_0=1.0, dipole_to_1=2.0),
        ExcitedLevel(energy=2045.0, dipole_to_0=0.5, dipole_to_1=-1.0),
    )
    model = SpectrumModel(epsilon0=1.0, epsilon1=6.0, excited_levels=levels)
    assert model.delta == 5.0
    assert model.omega_exc == 2005.0 - 6.0
    assert model.max_manifold_split == 40.0
    assert model.n_excited == 2
    assert np.array_equal(model.manifold_energies, [2005.0, 2045.0])
    assert np.array_equal(model.dipoles_to_0, [1.0, 0.5])
    assert np.array_equal(model.dipoles_to_1, [2.0, -1.0])


def test_inverted_qubit_rejected():
    lev = ExcitedLevel(energy=2000.0, dipole_to_0=1.0, dipole_to_1=1.0)
    with pytest.raises(ValueError, match="below"):
        SpectrumModel(epsilon0=5.0, epsilon1=0.0, excited_levels=(lev,))


def test_empty_manifold_rejected():
    with pytest.raises(ValueError, match="at least one"):
        SpectrumModel(epsilon0=0.0, epsilon1=5.0, excited_levels=())


def test_manifold_below_qubit_rejected():
    lev = ExcitedLevel(energy=3.0, dipole_to_0=1.0, dipole_to_1=1.0)
    with pytest.raises(ValueError, match="above"):
        SpectrumModel(epsilon0=0.0, epsilon1=5.0, excited_levels=(lev,))


def test_dark_level_rejected():
    with pytest.raises(ValueError, match="dipole"):
        ExcitedLevel(energy=2000.0, dipole_to_0=0.0, dipole_to_1=0.0)


_NON_FINITE = pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])


@_NON_FINITE
@pytest.mark.parametrize("field", ["energy", "dipole_to_0", "dipole_to_1"])
def test_excited_level_rejects_non_finite_fields(field, value):
    # each check is written so that NaN fails it: `abs(dipole) == 0` or `b < a` let NaN through
    with pytest.raises(ValueError, match=field):
        ExcitedLevel(**{"energy": 2005.0, "dipole_to_0": 1.0, "dipole_to_1": 1.0, field: value})


@pytest.mark.parametrize("field", ["dipole_to_0", "dipole_to_1"])
def test_excited_level_rejects_a_complex_dipole_with_a_nan_part(field):
    with pytest.raises(ValueError, match=field):
        ExcitedLevel(**{"energy": 2005.0, "dipole_to_0": 1.0, "dipole_to_1": 1.0, field: complex(1.0, math.nan)})


@_NON_FINITE
@pytest.mark.parametrize("field", ["epsilon0", "epsilon1"])
def test_spectrum_rejects_non_finite_epsilons(field, value):
    lev = ExcitedLevel(energy=2005.0, dipole_to_0=1.0, dipole_to_1=1.0)
    with pytest.raises(ValueError, match=field):
        SpectrumModel(**{"epsilon0": 0.0, "epsilon1": 5.0, field: value}, excited_levels=(lev,))


@pytest.mark.parametrize("energies, message", [((2005.0,), "above"), ((2005.0, 2045.0), "sorted")])
def test_spectrum_rejects_a_nan_level_energy_past_its_own_check(energies, message):
    # a frozen dataclass lets a caller set a NaN energy after ExcitedLevel's check; the gap and ordering
    # comparisons are written so that NaN fails them
    levels = [ExcitedLevel(energy=e, dipole_to_0=1.0, dipole_to_1=1.0) for e in energies]
    object.__setattr__(levels[-1], "energy", math.nan)
    with pytest.raises(ValueError, match=message):
        SpectrumModel(epsilon0=0.0, epsilon1=5.0, excited_levels=tuple(levels))


def test_hierarchy_report_wide_gap():
    report = validate_hierarchy(_single())
    assert report.gap_exceeds_delta
    assert report.gap_exceeds_manifold_split
    assert report.passed


def test_hierarchy_report_flags_narrow_gap():
    levels = (
        ExcitedLevel(energy=2010.0, dipole_to_0=1.0, dipole_to_1=1.0),
        ExcitedLevel(energy=4100.0, dipole_to_0=1.0, dipole_to_1=1.0),
    )
    model = SpectrumModel(epsilon0=0.0, epsilon1=5.0, excited_levels=levels)
    report = validate_hierarchy(model)
    assert report.gap_exceeds_delta
    assert not report.gap_exceeds_manifold_split
    assert not report.passed


def test_build_single_level():
    cfg = SpectrumConfig(delta=5.0, omega_exc=2000.0, shape="single",
                         dipole0=1.5, dipole1=-0.5)
    model = build_spectrum(cfg)
    assert model.n_excited == 1
    assert model.delta == 5.0
    assert model.omega_exc == 2000.0
    assert model.excited_levels[0].dipole_to_0 == 1.5
    assert model.excited_levels[0].dipole_to_1 == -0.5


def test_build_uniform_ladder():
    cfg = SpectrumConfig(delta=5.0, omega_exc=2000.0, n_levels=4, shape="uniform",
                         spacing=25.0)
    model = build_spectrum(cfg)
    gaps = np.diff(model.manifold_energies)
    assert np.allclose(gaps, 25.0)
    assert model.omega_exc == 2000.0


def test_build_doublet_flips_partner_dipole():
    cfg = SpectrumConfig(delta=5.0, omega_exc=2000.0, n_levels=4, shape="doublet",
                         spacing=30.0, doublet_split=2.0, dipole0=1.0, dipole1=0.7)
    model = build_spectrum(cfg)
    offsets = model.manifold_energies - model.manifold_energies[0]
    assert np.allclose(offsets, [0.0, 2.0, 30.0, 32.0])
    d1 = model.dipoles_to_1
    assert d1[0] == pytest.approx(0.7)
    assert d1[1] == pytest.approx(-0.7)
    assert d1[2] == pytest.approx(0.7)
    assert d1[3] == pytest.approx(-0.7)


def test_jittered_build_is_deterministic():
    cfg = SpectrumConfig(delta=5.0, omega_exc=2000.0, n_levels=5, shape="uniform",
                         spacing=20.0, jitter=0.2, seed=7)
    a = build_spectrum(cfg)
    b = build_spectrum(cfg)
    assert np.array_equal(a.manifold_energies, b.manifold_energies)

    other = build_spectrum(SpectrumConfig(delta=5.0, omega_exc=2000.0, n_levels=5,
                                          shape="uniform", spacing=20.0, jitter=0.2,
                                          seed=8))
    assert not np.array_equal(a.manifold_energies, other.manifold_energies)


def test_jitter_keeps_lowest_level_pinned():
    cfg = SpectrumConfig(delta=5.0, omega_exc=2000.0, n_levels=6, shape="uniform",
                         spacing=20.0, jitter=0.3, seed=3)
    model = build_spectrum(cfg)
    assert model.omega_exc == pytest.approx(2000.0, abs=1e-12)


def test_build_rejects_gap_below_splitting():
    with pytest.raises(ValueError, match="exceed"):
        build_spectrum(SpectrumConfig(delta=50.0, omega_exc=40.0))


def test_build_rejects_manifold_wider_than_gap():
    cfg = SpectrumConfig(delta=5.0, omega_exc=100.0, n_levels=5, spacing=30.0)
    with pytest.raises(ValueError, match="hierarchy"):
        build_spectrum(cfg)


@pytest.mark.parametrize("kwargs, match", [
    (dict(delta=-1.0, omega_exc=2000.0), "delta"),
    (dict(delta=5.0, omega_exc=0.0), "omega_exc"),
    (dict(delta=5.0, omega_exc=2000.0, n_levels=0), "n_levels"),
    (dict(delta=5.0, omega_exc=2000.0, shape="comb"), "shape"),
    (dict(delta=5.0, omega_exc=2000.0, shape="single", n_levels=2), "single"),
    (dict(delta=5.0, omega_exc=2000.0, n_levels=3, spacing=0.0), "spacing"),
    (dict(delta=5.0, omega_exc=2000.0, jitter=1.0), "jitter"),
    (dict(delta=5.0, omega_exc=2000.0, dipole0=0.0, dipole1=0.0), "dipole"),
])
def test_config_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SpectrumConfig(**kwargs)
