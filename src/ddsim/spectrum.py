"""Level structure of the singly-ionized double-donor system.

The electron is shared between two donors.  The computational states
|0> and |1> are the two lowest localized orbitals with energies eps0
and eps1 split by delta = eps1 - eps0 (a static detuning, e.g. from an
applied bias).  High above them sits a manifold of delocalized
"transport" states that both qubit states couple to optically; those
are what a Raman pulse pair virtually populates.

The optical gap omega_exc (lowest manifold level measured from eps1)
has to dominate both the qubit splitting and the spread of the
manifold, otherwise a single carrier frequency cannot address the whole
manifold in a rotating frame.  `validate_hierarchy` checks exactly
that; `build_spectrum` refuses to generate structures that violate it.

Direct construction of `SpectrumModel` is deliberately permissive about
the two gap inequalities so that diagnostic code can build a bad
structure and watch `validate_hierarchy` flag it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

SHAPES = ("single", "uniform", "doublet")


@dataclass(frozen=True)
class ExcitedLevel:
    """One transport level: its energy and the two optical dipoles.

    Dipoles are matrix elements <0|x|k> and <1|x|k> projected on the
    field polarization axis, in e*nm.  They may be complex.
    """

    energy: float
    dipole_to_0: complex
    dipole_to_1: complex

    def __post_init__(self):
        for name in ("energy", "dipole_to_0", "dipole_to_1"):
            if not cmath.isfinite(getattr(self, name)):  # also rejects NaN
                raise ValueError(f"excited level {name} must be finite, got {getattr(self, name)!r}")
        if abs(self.dipole_to_0) == 0.0 and abs(self.dipole_to_1) == 0.0:
            raise ValueError("excited level carries no dipole coupling to either qubit state")


@dataclass(frozen=True)
class SpectrumModel:
    """Qubit pair plus its excited manifold.  Energies in ueV."""

    epsilon0: float
    epsilon1: float
    excited_levels: tuple[ExcitedLevel, ...]

    def __post_init__(self):
        # each comparison is written so that NaN fails it
        for name in ("epsilon0", "epsilon1"):
            if not abs(getattr(self, name)) < float("inf"):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.epsilon0 <= self.epsilon1:
            raise ValueError(f"epsilon1={self.epsilon1} below epsilon0={self.epsilon0}")
        if len(self.excited_levels) == 0:
            raise ValueError("at least one excited level is required")
        energies = [lev.energy for lev in self.excited_levels]
        if not all(a <= b for a, b in zip(energies, energies[1:])):
            raise ValueError("excited levels must be sorted by energy (ascending)")
        if not energies[0] > self.epsilon1:
            raise ValueError(
                f"lowest excited level {energies[0]} does not lie above epsilon1={self.epsilon1}"
            )

    # -- derived views ------------------------------------------------

    @property
    def delta(self) -> float:
        """Qubit splitting eps1 - eps0 (>= 0)."""
        return self.epsilon1 - self.epsilon0

    @property
    def omega_exc(self) -> float:
        """Gap from eps1 up to the bottom of the manifold."""
        return self.excited_levels[0].energy - self.epsilon1

    @property
    def manifold_energies(self) -> np.ndarray:
        return np.array([lev.energy for lev in self.excited_levels], dtype=float)

    @property
    def dipoles_to_0(self) -> np.ndarray:
        return np.array([lev.dipole_to_0 for lev in self.excited_levels], dtype=complex)

    @property
    def dipoles_to_1(self) -> np.ndarray:
        return np.array([lev.dipole_to_1 for lev in self.excited_levels], dtype=complex)

    @property
    def max_manifold_split(self) -> float:
        """Largest |eps_m - eps_n| inside the manifold (0 for one level)."""
        e = self.manifold_energies
        return float(e.max() - e.min())

    @property
    def n_excited(self) -> int:
        return len(self.excited_levels)


@dataclass(frozen=True)
class HierarchyReport:
    """Outcome of the gap-hierarchy check on a spectrum."""

    delta: float
    omega_exc: float
    max_manifold_split: float
    gap_exceeds_delta: bool
    gap_exceeds_manifold_split: bool

    @property
    def passed(self) -> bool:
        return self.gap_exceeds_delta and self.gap_exceeds_manifold_split


def validate_hierarchy(model: SpectrumModel) -> HierarchyReport:
    """Check omega_exc > delta and omega_exc > max manifold splitting."""
    return HierarchyReport(
        delta=model.delta,
        omega_exc=model.omega_exc,
        max_manifold_split=model.max_manifold_split,
        gap_exceeds_delta=model.omega_exc > model.delta,
        gap_exceeds_manifold_split=model.omega_exc > model.max_manifold_split,
    )


@dataclass(frozen=True)
class SpectrumConfig:
    """Recipe for a synthetic spectrum.

    shape:
        "single"  - one excited level (n_levels must be 1)
        "uniform" - ladder with constant spacing
        "doublet" - ladder of close pairs; pair centers spaced by
                    `spacing`, partners split by `doublet_split`.  The
                    second member of each pair carries a sign-flipped
                    dipole to |1> (symmetric/antisymmetric character).
    jitter:
        relative random perturbation of the inter-level gaps, seeded;
        the lowest level stays pinned so omega_exc is exact.
    """

    delta: float
    omega_exc: float
    n_levels: int = 1
    shape: str = "uniform"
    spacing: float = 20.0
    doublet_split: float = 1.0
    dipole0: float = 1.0
    dipole1: float = 1.0
    epsilon0: float = 0.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.omega_exc <= 0:
            raise ValueError("omega_exc must be > 0")
        if self.n_levels < 1:
            raise ValueError("n_levels must be >= 1")
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}, expected one of {SHAPES}")
        if self.shape == "single" and self.n_levels != 1:
            raise ValueError("shape 'single' requires n_levels == 1")
        if self.n_levels > 1 and self.spacing <= 0:
            raise ValueError("spacing must be > 0")
        if self.shape == "doublet" and self.doublet_split <= 0:
            raise ValueError("doublet_split must be > 0")
        if abs(self.dipole0) <= 0 and abs(self.dipole1) <= 0:
            raise ValueError("dipole magnitudes must not both vanish")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")


def _level_offsets(config: SpectrumConfig) -> np.ndarray:
    """Offsets of the manifold levels above its bottom edge."""
    n = config.n_levels
    if config.shape == "single":
        return np.zeros(1)
    if config.shape == "uniform":
        return config.spacing * np.arange(n, dtype=float)
    # doublet: pair j sits at j*spacing and j*spacing + doublet_split
    pair = np.arange(n, dtype=float) // 2
    member = np.arange(n, dtype=float) % 2
    return pair * config.spacing + member * config.doublet_split


def build_spectrum(config: SpectrumConfig) -> SpectrumModel:
    """Generate a SpectrumModel from a config, deterministically.

    The same config (including seed) always yields a bit-identical
    model.  Raises ValueError when the requested geometry violates the
    gap hierarchy (omega_exc <= delta, or a manifold wider than
    omega_exc).
    """
    if config.omega_exc <= config.delta:
        raise ValueError(
            f"omega_exc={config.omega_exc} must exceed the qubit splitting delta={config.delta}"
        )

    offsets = _level_offsets(config)
    if config.jitter > 0 and config.n_levels > 1:
        rng = np.random.default_rng(config.seed)
        gaps = np.diff(offsets)
        gaps = gaps * (1.0 + config.jitter * rng.uniform(-1.0, 1.0, size=gaps.shape))
        offsets = np.concatenate([[0.0], np.cumsum(gaps)])

    epsilon1 = config.epsilon0 + config.delta
    base = epsilon1 + config.omega_exc  # lowest manifold level, exact by construction

    levels = []
    for i, off in enumerate(offsets):
        d1 = complex(config.dipole1)
        if config.shape == "doublet" and i % 2 == 1:
            d1 = -d1  # antisymmetric partner couples to |1> with opposite sign
        levels.append(
            ExcitedLevel(
                energy=base + float(off),
                dipole_to_0=complex(config.dipole0),
                dipole_to_1=d1,
            )
        )

    model = SpectrumModel(
        epsilon0=config.epsilon0,
        epsilon1=epsilon1,
        excited_levels=tuple(levels),
    )
    report = validate_hierarchy(model)
    if not report.passed:
        raise ValueError(
            "generated manifold violates the gap hierarchy: "
            f"omega_exc={report.omega_exc}, delta={report.delta}, "
            f"max split={report.max_manifold_split}"
        )
    return model
