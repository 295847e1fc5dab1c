"""Unit conventions used throughout the package.

Energies are expressed in microelectronvolts (ueV) and times in
nanoseconds (ns).  Dynamics are integrated with hbar = 1, so any energy
is converted to an angular frequency in rad/ns by dividing by HBAR
below.  Dipole matrix elements are carried in e*nm and peak field
amplitudes in V/cm; their product converts to an interaction energy via
DIPOLE_FIELD_TO_UEV.
"""

# hbar in ueV * ns.
HBAR = 0.6582119569

# 1 e*nm * 1 V/cm = 1e-9 m * 100 V/m * e = 1e-7 eV = 0.1 ueV.
DIPOLE_FIELD_TO_UEV = 0.1

# 1 ueV expressed as an angular frequency in rad/s (1 ueV / hbar).
UEV_TO_RAD_PER_SEC = 1.0e9 / HBAR
