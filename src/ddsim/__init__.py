"""Optical single-qubit control of a double-donor charge qubit.

A singly-ionized donor pair holds one electron whose two lowest
states form the qubit.  Two phase-locked optical pulses, detuned from
an excited transport manifold, drive the qubit through two-photon
transitions.  This package models that control chain in layers:

- `spectrum`: the level structure and its validity hierarchy
- `drive`: pulse pairs, rotating-frame couplings, regime tests
- `dynamics`: numerical propagation in three model tiers
- `effective`: the adiabatically eliminated two-level closed form
- `gates`: pulse synthesis for target gates and transfer schedules
- `cli`: configuration-driven runs (`ddsim run ...`)

Energies are in microelectronvolts, times in nanoseconds, fields in
volts per centimeter, dipoles in electron-nanometers.
"""

from .units import DIPOLE_FIELD_TO_UEV, HBAR, UEV_TO_RAD_PER_SEC, to_angular
from .spectrum import (
    ExcitedLevel,
    HierarchyReport,
    SpectrumConfig,
    SpectrumModel,
    build_spectrum,
    validate_hierarchy,
)
from .drive import (
    DOMINANCE_RATIO,
    REGIME_LABELS,
    CouplingSet,
    Envelope,
    PulsePair,
    RegimeReport,
    averaging_period,
    classify_regime,
    derive_couplings,
    enforce_two_photon_resonance,
    slow_switching_ok,
)
from .dynamics import (
    FRAMES,
    EliminationReport,
    IntegratorSettings,
    PropagationError,
    StateVector,
    Trajectory,
    check_adiabatic_elimination,
    propagate_averaged,
    propagate_bare,
    propagate_rwa,
)
from .effective import (
    AdiabaticityReport,
    EffectiveEvolution,
    EffectiveHamiltonian,
    GateMatrix,
    apply,
    diagonal_evolution_check,
    effective_hamiltonian,
    evolution_matrix,
)
from .gates import (
    HADAMARD,
    ORDERINGS,
    PAULI_X,
    PAULI_Z,
    TARGETS,
    GateSolution,
    GateSpec,
    GateSynthesisError,
    LeakageEstimate,
    StirapSchedule,
    gate_fidelity,
    polarization_leakage,
    qubit_transfer_matrix,
    schedule_stirap,
    synthesize_gate,
)
from .config import ConfigError, load_config, validate_config

__version__ = "0.1.0"

__all__ = [
    "HBAR",
    "DIPOLE_FIELD_TO_UEV",
    "UEV_TO_RAD_PER_SEC",
    "to_angular",
    "ExcitedLevel",
    "SpectrumModel",
    "SpectrumConfig",
    "HierarchyReport",
    "build_spectrum",
    "validate_hierarchy",
    "Envelope",
    "PulsePair",
    "CouplingSet",
    "RegimeReport",
    "DOMINANCE_RATIO",
    "REGIME_LABELS",
    "enforce_two_photon_resonance",
    "derive_couplings",
    "classify_regime",
    "averaging_period",
    "slow_switching_ok",
    "FRAMES",
    "StateVector",
    "IntegratorSettings",
    "Trajectory",
    "PropagationError",
    "EliminationReport",
    "propagate_rwa",
    "propagate_averaged",
    "propagate_bare",
    "check_adiabatic_elimination",
    "EffectiveHamiltonian",
    "EffectiveEvolution",
    "AdiabaticityReport",
    "GateMatrix",
    "effective_hamiltonian",
    "diagonal_evolution_check",
    "evolution_matrix",
    "apply",
    "TARGETS",
    "ORDERINGS",
    "PAULI_X",
    "PAULI_Z",
    "HADAMARD",
    "GateSpec",
    "GateSolution",
    "GateSynthesisError",
    "StirapSchedule",
    "LeakageEstimate",
    "synthesize_gate",
    "gate_fidelity",
    "qubit_transfer_matrix",
    "schedule_stirap",
    "polarization_leakage",
    "ConfigError",
    "load_config",
    "validate_config",
    "__version__",
]
