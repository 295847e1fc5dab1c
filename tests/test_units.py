import math

from ddsim import units


def test_hbar_in_uev_ns():
    assert units.HBAR == 0.6582119569


def test_dipole_field_product_scale():
    # 1 e*nm against 1 V/cm is 0.1 ueV
    assert units.DIPOLE_FIELD_TO_UEV == 0.1


def test_rad_per_sec_constant():
    assert math.isclose(units.UEV_TO_RAD_PER_SEC, 1519267447.9961274, rel_tol=1e-15)
