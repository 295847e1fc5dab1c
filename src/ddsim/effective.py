"""Analytic two-level reduction of the Raman-driven system.

When every manifold level is far detuned, the manifold follows the
qubit quasistatically and can be eliminated.  What remains is a 2x2
Hamiltonian for (c_0, c_1) built from three detuning-weighted dipole
sums (ueV):

    Lambda_0 = sum_k |lambda_0k|^2 / delta_k      (light shift of |0>)
    Lambda_1 = sum_k |lambda_1k|^2 / delta_k      (light shift of |1>)
    Lambda_2 = e^{i(phi0-phi1)} sum_k lambda_0k lambda_1k^* / delta_k
                                                  (two-photon coupling)

with the envelopes riding on top: the instantaneous matrix is

    [[Lambda_0 f0^2,        Lambda_2 f0 f1],
     [Lambda_2^* f0 f1,     Lambda_1 f1^2 ]].

Diagonalizing at each instant gives dressed states split by 2*Omega,
mixed by the angle Theta with tan(Theta) = 2|Lambda_2(t)| /
(Lambda_0(t) - Lambda_1(t)).  If Theta varies slowly against the
dressed splitting, each dressed amplitude just accumulates phase, and
the qubit propagator has a closed form assembled from Theta at the two
endpoints, the integrated splitting, and the integrated mean shift.
`evolution_matrix` builds exactly that, including the free phases of
the lab frame and the beat factors at the qubit splitting, so the
result maps lab-frame qubit amplitudes at t0 to lab-frame amplitudes
at t.  Every time argument may be a scalar or an array of times; array
arguments give arrays of the same shape.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np
from scipy.integrate import quad

from .drive import CouplingSet, Envelope
from .spectrum import SpectrumModel
from .units import HBAR

_QUAD_LIMIT = 400
_GRID_POINTS = 2001  # held-Theta and adiabaticity grid over the window
_ACTIVE_FRACTION = 1e-3  # adiabaticity is read where Omega exceeds this fraction of its peak


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """The three detuning-weighted sums, at peak envelopes (ueV)."""

    Lambda0: float
    Lambda1: float
    Lambda2: complex

    @property
    def rabi(self) -> float:
        """Dressed half-splitting Omega at peak envelopes, ueV."""
        return float(_dressed(self, 1.0, 1.0).omega)

    @property
    def mixing_angle(self) -> float:
        """Constant-envelope mixing angle Theta_0 in [0, pi]."""
        d = _dressed(self, 1.0, 1.0)
        return math.atan2(d.y, d.x)

    def rescaled(self, ratio: float) -> "EffectiveHamiltonian":
        """Sums after scaling the second pulse amplitude by `ratio`.

        Lambda_1 goes with the square of the field, Lambda_2 linearly.
        """
        return EffectiveHamiltonian(self.Lambda0, ratio**2 * self.Lambda1, ratio * self.Lambda2)


class _Dressed(NamedTuple):
    """Dressed-state closed forms at one or more instants (ueV; omega_sq ueV^2)."""

    mean: np.ndarray  # mean light shift
    omega: np.ndarray  # half-splitting Omega
    omega_sq: np.ndarray  # Omega**2 before the square root
    x: np.ndarray  # Theta = atan2(y, x)
    y: np.ndarray


def _dressed(ham: EffectiveHamiltonian, f0, f1) -> _Dressed:
    """Evaluate the closed forms at envelope values f0, f1 (scalars or arrays).

    Every effective-model quantity is read from here.  The operation
    order is part of the contract: outputs are written at full precision.
    """
    f0 = np.asarray(f0)
    f1 = np.asarray(f1)
    l0 = ham.Lambda0 * f0**2
    l1 = ham.Lambda1 * f1**2
    y = abs(ham.Lambda2) * f0 * f1
    omega_sq = 0.25 * (l0 - l1) ** 2 + y**2
    return _Dressed(0.5 * (l0 + l1), np.sqrt(omega_sq), omega_sq, 0.5 * (l0 - l1), y)


def _plain(value):
    return float(value) if np.ndim(value) == 0 else value


def effective_hamiltonian(couplings: CouplingSet, phi0: float = 0.0, phi1: float = 0.0) -> EffectiveHamiltonian:
    """Build the detuning-weighted sums from a coupling set.

    Every manifold level must be off resonance (delta_k != 0); a
    resonant level has no quasistatic response and the reduction does
    not exist.
    """
    delta = couplings.delta
    if np.any(delta == 0.0):
        raise ValueError("effective model undefined: some delta_k is exactly zero")
    lam0 = couplings.lambda0
    lam1 = couplings.lambda1
    l0 = float(np.sum(np.abs(lam0) ** 2 / delta))
    l1 = float(np.sum(np.abs(lam1) ** 2 / delta))
    l2 = complex(cmath.exp(1j * (phi0 - phi1)) * np.sum(lam0 * np.conj(lam1) / delta))

    if np.all(delta > 0) or np.all(delta < 0):
        # single-sign detunings make the sums a Gram family: the cross
        # sum is Cauchy-Schwarz bounded by the diagonal ones
        bound = math.sqrt(max(l0 * l1, 0.0))
        if abs(l2) > bound * (1.0 + 1e-9) + 1e-300:
            raise RuntimeError(
                f"inconsistent sums: |Lambda2|={abs(l2)} exceeds sqrt(Lambda0*Lambda1)={bound}"
            )
    return EffectiveHamiltonian(l0, l1, l2)


class EffectiveEvolution:
    """Time-dependent dressed-frame quantities over a pulse window.

    Wraps an EffectiveHamiltonian and the two pulse envelopes (`Envelope`,
    whose derivatives feed `theta_dot`) on [t0, t1].  Pointwise methods
    evaluate the closed forms; the integrated splitting omega_integral
    and mean shift phi_lambda run one adaptive quadrature per requested
    time.  Every method takes a time or an array of times and returns a
    float or an array of the same shape.

    Where both envelopes vanish the mixing angle is defined by its limit
    along the window (evaluated just inside); across stretches where
    both vanish Theta holds its last defined value.
    """

    def __init__(self, ham: EffectiveHamiltonian, f0: Envelope, f1: Envelope, t0: float, t1: float):
        if t1 <= t0:
            raise ValueError("window must have t1 > t0")
        self.ham = ham
        self.f0 = f0
        self.f1 = f1
        self.t0 = float(t0)
        self.t1 = float(t1)

        self.grid = np.linspace(self.t0, self.t1, _GRID_POINTS)
        d = _dressed(ham, f0(self.grid), f1(self.grid))
        self._grid_omega = d.omega
        defined = (d.x != 0.0) | (d.y != 0.0)
        if np.any(defined):
            # hold the last defined value across gaps, the first one before it
            last = np.maximum.accumulate(np.where(defined, np.arange(_GRID_POINTS), -1))
            last[last < 0] = np.argmax(defined)
            self._grid_theta = np.arctan2(d.y, d.x)[last]
        else:
            self._grid_theta = np.zeros(_GRID_POINTS)

    # -- pointwise closed forms ----------------------------------------

    def _at(self, t) -> _Dressed:
        return _dressed(self.ham, self.f0(t), self.f1(t))

    def omega(self, t):
        """Dressed half-splitting Omega(t), ueV."""
        return _plain(self._at(t).omega)

    def E_plus(self, t):
        d = self._at(t)
        return _plain(d.mean + d.omega)

    def E_minus(self, t):
        d = self._at(t)
        return _plain(d.mean - d.omega)

    def theta(self, t):
        """Mixing angle Theta(t) in [0, pi], limit-valued at dead times."""
        t = np.asarray(t, dtype=float)
        d = self._at(t)
        out = np.arctan2(d.y, d.x, out=np.empty(t.shape))
        dead = np.flatnonzero((d.x == 0.0) & (d.y == 0.0))  # entries still undecided
        if dead.size:
            flat = t.ravel()
            out = out.ravel()
            # at a dead time, nudge inward to pick up the limiting envelope ratio
            inward = np.where(flat <= 0.5 * (self.t0 + self.t1), 1.0, -1.0) * (self.t1 - self.t0)
            for mag in (1e-12, 1e-9, 1e-6, 1e-3):
                d = self._at(flat[dead] + mag * inward[dead])
                defined = (d.x != 0.0) | (d.y != 0.0)
                out[dead[defined]] = np.arctan2(d.y, d.x)[defined]
                dead = dead[~defined]
                if not dead.size:
                    break
            # fully dead neighborhood: hold the nearest grid value, the lower one on a tie
            i = np.clip(np.searchsorted(self.grid, flat[dead]), 1, _GRID_POINTS - 1)
            i -= np.abs(flat[dead] - self.grid[i - 1]) <= np.abs(self.grid[i] - flat[dead])
            out[dead] = self._grid_theta[i]
        return _plain(out.reshape(t.shape))

    def theta_dot(self, t):
        """Mixing-angle rate used for the adiabaticity diagnostic, rad/ns.

        Evaluates the ratio-of-derivatives expression
        |dGap * |L2| - d|L2| * Gap| / (Gap^2/4 + |L2|^2) with
        Gap = Lambda_0 f0^2 - Lambda_1 f1^2 and L2 = Lambda_2 f0 f1.
        This is intentionally the conservative (doubled) form; the
        adiabaticity threshold absorbs the factor.
        """
        f0, f1 = self.f0(t), self.f1(t)
        df0, df1 = self.f0.derivative(t), self.f1.derivative(t)
        d = _dressed(self.ham, f0, f1)
        gap = 2.0 * d.x  # exactly Lambda_0 f0^2 - Lambda_1 f1^2
        dgap = 2.0 * (self.ham.Lambda0 * f0 * df0 - self.ham.Lambda1 * f1 * df1)
        dl2m = abs(self.ham.Lambda2) * (df0 * f1 + f0 * df1)
        num = np.abs(dgap * d.y - dl2m * gap)
        den = d.omega_sq
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(den > 0.0, num / np.where(den > 0, den, 1.0), 0.0)
        return _plain(out)

    # -- integrated quantities -----------------------------------------

    def _accumulated(self, field: str, t):
        """Integral over hbar on [t0, t] of one `_Dressed` field, rad."""
        t = np.asarray(t, dtype=float)
        values = [
            quad(
                lambda s: getattr(self._at(s), field), self.t0, end,
                limit=_QUAD_LIMIT, epsabs=1e-13, epsrel=1e-12,
            )[0] / HBAR
            for end in t.ravel().tolist()
        ]
        return values[0] if t.ndim == 0 else np.reshape(values, t.shape)

    def omega_integral(self, t):
        """Accumulated dressed phase integral of Omega/hbar on [t0, t], rad."""
        return self._accumulated("omega", t)

    def phi_lambda(self, t):
        """Accumulated mean light-shift phase on [t0, t], rad."""
        return self._accumulated("mean", t)

    @functools.cached_property
    def check(self) -> "AdiabaticityReport":
        """`diagonal_evolution_check` of this evolution, computed once."""
        return diagonal_evolution_check(self)


@dataclass(frozen=True)
class AdiabaticityReport:
    """Peak of theta_dot * hbar / (2 Omega) where the pulses act."""

    threshold: ClassVar[float] = 0.1

    max_ratio: float
    time_of_max: float

    @property
    def passed(self) -> bool:
        return self.max_ratio <= self.threshold


def diagonal_evolution_check(evolution: EffectiveEvolution) -> AdiabaticityReport:
    """Test whether the mixing angle moves slowly against the splitting.

    Only grid points where Omega exceeds _ACTIVE_FRACTION (1e-3) of its
    peak count: in envelope tails Omega is round-off.  With Omega zero
    everywhere the ratio is 0.
    """
    om = evolution._grid_omega
    active = np.flatnonzero(om > _ACTIVE_FRACTION * np.max(om))
    if not active.size:
        return AdiabaticityReport(max_ratio=0.0, time_of_max=evolution.t0)
    ratio = evolution.theta_dot(evolution.grid)[active] * HBAR / (2.0 * om[active])
    i = int(np.argmax(ratio))
    return AdiabaticityReport(max_ratio=float(ratio[i]), time_of_max=float(evolution.grid[active[i]]))


def _block(a, b, c, d) -> np.ndarray:
    """2x2 matrices [[a, b], [c, d]] over the shape of the entries."""
    m = np.empty(np.shape(a) + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, b, c, d
    return m


@dataclass(frozen=True)
class GateMatrix:
    """Closed-form qubit propagator between two times.

    The inner block [[u00, u01], [u10, u11]] is the special-unitary
    part, stored as its first row (u10 = -u01*, u11 = u00*);
    `global_phase` carries the free evolution of |0> together with the
    mean light shift, and the full `matrix` additionally includes the
    beat factors at the qubit splitting that convert between the two
    interaction pictures at t0 and t.  `matrix` maps lab-frame qubit
    amplitudes at t0 to lab-frame amplitudes at t.  For an array of end
    times `t`, the u-fields and `global_phase` are arrays like `t`, and
    `core` and `matrix` have shape t.shape + (2, 2).
    """

    u00: complex | np.ndarray
    u01: complex | np.ndarray
    global_phase: complex | np.ndarray
    delta_qubit: float
    t0: float
    t: float | np.ndarray
    adiabatic: bool = True

    def __post_init__(self):
        norm = np.abs(self.u00) ** 2 + np.abs(self.u01) ** 2
        if np.count_nonzero(np.abs(norm - 1.0) > 1e-9):
            raise ValueError(f"inner block not unitary: |u00|^2+|u01|^2 = {norm}")

    u10 = property(lambda self: -np.conj(self.u01))
    u11 = property(lambda self: np.conj(self.u00))

    @property
    def core(self) -> np.ndarray:
        """The su(2) block alone, no phases."""
        return _block(self.u00, self.u01, self.u10, self.u11)

    @property
    def matrix(self) -> np.ndarray:
        """Full lab-frame propagator including the beat factors."""
        dp0 = np.exp(1j * (self.delta_qubit * self.t0 / HBAR))
        dp1 = np.exp(-1j * (self.delta_qubit * self.t / HBAR))
        m = _block(self.u00, self.u01 * dp0, self.u10 * dp1, self.u11 * dp1 * dp0)
        return np.asarray(self.global_phase)[..., None, None] * m


def evolution_matrix(
    evolution: EffectiveEvolution,
    spectrum: SpectrumModel | None = None,
    t0: float | None = None,
    t=None,
    *,
    epsilon0: float | None = None,
    delta_qubit: float | None = None,
) -> GateMatrix:
    """Assemble the closed-form propagator between t0 and t.

    The qubit energies enter only through the ground energy (a global
    phase) and the splitting (the beat factors); they are read from the
    spectrum when one is given, otherwise epsilon0 and delta_qubit must
    be supplied directly.  Runs the adiabaticity diagnostic first; a
    failing check produces a warning and is recorded on the result,
    since the closed form assumes frozen dressed states.  An array of
    end times `t` gives one propagator per entry (see GateMatrix).
    """
    if spectrum is not None:
        epsilon0 = spectrum.epsilon0
        delta_qubit = spectrum.delta
    elif epsilon0 is None or delta_qubit is None:
        raise ValueError("without a spectrum both epsilon0 and delta_qubit are required")
    if t0 is None:
        t0 = evolution.t0
    times = np.asarray(evolution.t1 if t is None else t, dtype=float)
    if not evolution.t0 <= t0 or np.count_nonzero(~((t0 <= times) & (times <= evolution.t1))):
        raise ValueError("requested times fall outside the evolution window")
    t = _plain(times)

    report = evolution.check
    if not report.passed:
        warnings.warn(
            f"mixing angle is not adiabatic (max ratio {report.max_ratio:.3g} at "
            f"t={report.time_of_max:.3g} ns); the closed-form propagator may be inaccurate",
            stacklevel=2,
        )

    th0 = evolution.theta(t0)
    th1 = evolution.theta(t)
    om = evolution.omega_integral(t) - evolution.omega_integral(t0)
    phi = evolution.phi_lambda(t) - evolution.phi_lambda(t0)
    arg2 = cmath.phase(evolution.ham.Lambda2) if evolution.ham.Lambda2 != 0 else 0.0

    c1, s1 = np.cos(0.5 * th1), np.sin(0.5 * th1)
    c0, s0 = math.cos(0.5 * th0), math.sin(0.5 * th0)
    em, ep = np.exp(-1j * om), np.exp(1j * om)
    u00 = em * c1 * c0 + ep * s1 * s0
    u01 = cmath.exp(1j * arg2) * (em * c1 * s0 - ep * s1 * c0)
    phase = np.exp(-1j * (epsilon0 * (t - t0) / HBAR + phi))

    return GateMatrix(
        u00=u00,
        u01=u01,
        global_phase=phase,
        delta_qubit=delta_qubit,
        t0=t0,
        t=t,
        adiabatic=report.passed,
    )


def apply(gate: GateMatrix, state) -> np.ndarray:
    """Apply the full propagator to normalized qubit amplitudes; shape gate.t.shape + (2,)."""
    vec = np.asarray(state, dtype=complex)
    if vec.shape != (2,):
        raise ValueError("state must be a 2-vector of qubit amplitudes")
    norm = float(np.sum(np.abs(vec) ** 2))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"input state not normalized: sum |c|^2 = {norm}")
    return gate.matrix @ vec
