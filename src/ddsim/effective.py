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

from .drive import CouplingSet, Envelope
from .spectrum import SpectrumModel
from .units import HBAR

# The 8-point Gauss-Legendre rule on [-1, 1] of the cumulative integrals, as
# numpy.polynomial.legendre.leggauss(8) gives it.  Written out because computing
# it takes a LAPACK call, whose first use adds about 0.8 MB to a run's peak memory.
_GL_X = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
                  0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
                  0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])
# no integration panel is longer than window / _PANELS_PER_WINDOW, so that the
# error estimate of a panel cannot miss a narrow pulse between its nodes
_PANELS_PER_WINDOW = 400
# panels are halved until their error estimates, summed over a pass, stay
# within max(_EPSABS ueV ns, _EPSREL * integral of |integrand|), or within the
# rounding floor of the piece (see _cumulative_integrals), at most
# _MAX_BISECTIONS times; a level where more than _MAX_SPLIT pieces still fail
# ends the halving, so that no integrand can make a pass unbounded
_EPSABS = 1e-13
_EPSREL = 1e-12
_ROUNDING = 10.0 * np.finfo(float).eps
_MAX_BISECTIONS = 40
_MAX_SPLIT = 4096
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

    Every pointwise effective-model quantity is read from here.  The
    operation order is part of the contract: outputs are written at full
    precision.
    """
    f0 = np.asarray(f0)
    f1 = np.asarray(f1)
    l0 = ham.Lambda0 * f0**2
    l1 = ham.Lambda1 * f1**2
    y = abs(ham.Lambda2) * f0 * f1
    omega_sq = 0.25 * (l0 - l1) ** 2 + y**2
    return _Dressed(0.5 * (l0 + l1), np.sqrt(omega_sq), omega_sq, 0.5 * (l0 - l1), y)


class _Grid(NamedTuple):
    """The held-Theta and adiabaticity grid of an EffectiveEvolution."""

    times: np.ndarray
    omega: np.ndarray
    theta: np.ndarray  # held across stretches where both envelopes vanish


def _plain(value):
    return float(value) if np.ndim(value) == 0 else value


def _gauss(integrand, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """8-point Gauss-Legendre integral of `integrand` over each panel [lo, hi]."""
    half = 0.5 * (hi - lo)
    mid = lo + half
    return half * (integrand(mid[:, None] + half[:, None] * _GL_X) @ _GL_W)


def _cumulative_integrals(integrand, knots: np.ndarray, cap: float) -> np.ndarray:
    """Integrals of `integrand` from knots[0] to each of the sorted, unique
    knots, shape knots.shape.  `integrand` takes an array of times and
    returns an array of that shape.

    Every gap between knots is cut into equal panels no longer than
    `cap`.  A panel's integral is the 8-point Gauss-Legendre rule on its
    two halves.  Where that differs from the rule on the whole panel by
    more than the panel's share, by length, of max(_EPSABS, _EPSREL *
    integral of |integrand|), both halves are split again, all such
    panels at once.  So an integrand that is smooth inside each gap
    costs three rules per panel, and a kink or near-kink inside a gap
    (such as Omega where the two envelopes cross while both are small)
    is resolved where it sits.  The panel integrals are then summed
    cumulatively.

    A piece is also done once the difference is within its rounding
    floor: the node times carry an error of about eps * |t|, which moves
    the rule by eps * |t| times the variation of the integrand over the
    piece (estimated from the mean values of its two halves), and the
    integrand values carry their own eps.  Without the floor a pulse
    much narrower than a late window fails the tolerance on every piece
    it touches, at every depth.  At most _MAX_BISECTIONS levels are
    taken, and a level where more than _MAX_SPLIT pieces fail ends the
    halving.
    """
    if knots.size == 1:
        return np.zeros(1)
    gaps = np.diff(knots)
    per_gap = np.maximum(np.ceil(gaps / cap), 1.0).astype(int)
    first = np.repeat(np.cumsum(per_gap) - per_gap, per_gap)  # each panel's gap starts at panel `first`
    frac = (np.arange(first.size) - first) / np.repeat(per_gap, per_gap)
    edges = np.append(np.repeat(knots[:-1], per_gap) + frac * np.repeat(gaps, per_gap), knots[-1])

    lo, hi = edges[:-1], edges[1:]
    owner = np.arange(lo.size)  # the panel each piece belongs to
    whole = _gauss(integrand, lo, hi)
    density = max(_EPSABS, _EPSREL * np.sum(np.abs(whole))) / (knots[-1] - knots[0])
    integrals = np.zeros(lo.size)
    for depth in range(_MAX_BISECTIONS + 1):
        mid = 0.5 * (lo + hi)
        left, right = _gauss(integrand, lo, mid), _gauss(integrand, mid, hi)
        halves = left + right
        variation = 4.0 * np.abs(right - left) / (hi - lo)  # |f'| (hi - lo) from the halves' means
        floor = _ROUNDING * (np.maximum(np.abs(lo), np.abs(hi)) * variation + np.abs(left) + np.abs(right))
        failed = np.abs(halves - whole) > np.maximum(density * (hi - lo), floor)
        if depth == _MAX_BISECTIONS or np.count_nonzero(failed) > _MAX_SPLIT:
            failed[:] = False
        integrals += np.bincount(owner[~failed], halves[~failed], integrals.size)
        if not failed.any():
            break
        lo, hi = np.concatenate((lo[failed], mid[failed])), np.concatenate((mid[failed], hi[failed]))
        owner = np.tile(owner[failed], 2)
        whole = np.concatenate((left[failed], right[failed]))
    sums = np.cumsum(np.concatenate(([0.0], integrals)))
    return sums[np.concatenate(([0], np.cumsum(per_gap)))]


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
    evaluate the closed forms.  The integrated mean shift phi_lambda is
    a closed form for every pulse pair, since the mean shift is linear
    in f0^2 and f1^2 (`Envelope.square_integral`).  When both pulses
    share one envelope f (f0 == f1, or both constant; `shared`), the
    integrated splitting omega_integral is one too, the peak value times
    the integral of f^2 over hbar (for constant envelopes exactly
    value * (t - t0) / hbar).  Otherwise Omega alone is integrated, by
    one pass of composite Gauss-Legendre quadrature over panels that end
    on every requested time and every envelope kink (`Envelope.kinks`)
    and are halved where the rule's error estimate asks for it,
    accumulated with a cumulative sum.  Every method takes a time or an
    array of times, all inside the window, and returns a float or an
    array of the same shape.

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
        # one shared envelope f: Theta is constant and every other dressed quantity is its peak value times f^2
        self.shared = f0 == f1 or f0.shape == f1.shape == "constant"

    @functools.cached_property
    def _grid(self) -> _Grid:
        """Omega and the held Theta on _GRID_POINTS times over the window, built on first use."""
        times = np.linspace(self.t0, self.t1, _GRID_POINTS)
        d = self._at(times)
        defined = (d.x != 0.0) | (d.y != 0.0)
        theta = np.zeros(_GRID_POINTS)
        if np.any(defined):
            # hold the last defined value across gaps, the first one before it
            last = np.maximum.accumulate(np.where(defined, np.arange(_GRID_POINTS), -1))
            last[last < 0] = np.argmax(defined)
            theta = np.arctan2(d.y, d.x)[last]
        return _Grid(times, d.omega, theta)

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
            if dead.size:
                # fully dead neighborhood: hold the nearest grid value, the lower one on a tie
                grid = self._grid
                i = np.clip(np.searchsorted(grid.times, flat[dead]), 1, _GRID_POINTS - 1)
                i -= np.abs(flat[dead] - grid.times[i - 1]) <= np.abs(grid.times[i] - flat[dead])
                out[dead] = grid.theta[i]
        return _plain(out.reshape(t.shape))

    def theta_dot(self, t):
        """Mixing-angle rate used for the adiabaticity diagnostic, rad/ns.

        Evaluates the ratio-of-derivatives expression
        |dGap * |L2| - d|L2| * Gap| / (Gap^2/4 + |L2|^2) with
        Gap = Lambda_0 f0^2 - Lambda_1 f1^2 and L2 = Lambda_2 f0 f1.
        This is intentionally the conservative (doubled) form; the
        adiabaticity threshold absorbs the factor.  With one shared
        envelope (`shared`) Theta is constant, and the rate is exactly 0:
        a float for a time, zeros of its shape for an array.
        """
        if self.shared:
            return _plain(np.zeros(np.shape(t)))
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

    def _light_shift(self, t) -> tuple:
        """t as an array, the integral of f0^2 on [t0, t], ns, and the mean light-shift phase on [t0, t], rad:
        the closed forms of `_accumulated`."""
        t = np.asarray(t, dtype=float)
        if np.count_nonzero(~((self.t0 <= t) & (t <= self.t1))):
            raise ValueError("requested times fall outside the evolution window")
        rise0 = self.f0.square_integral(t) - self.f0.square_integral(self.t0)
        rise1 = rise0 if self.shared else self.f1.square_integral(t) - self.f1.square_integral(self.t0)
        return t, rise0, _plain((self.ham.Lambda0 * rise0 + self.ham.Lambda1 * rise1) / (2.0 * HBAR))

    def _accumulated(self, t) -> tuple:
        """The dressed phase and the mean light-shift phase on [t0, t], rad:
        the integrals over hbar of Omega and of the mean shift.

        The mean shift (Lambda_0 f0^2 + Lambda_1 f1^2) / 2 integrates to
        (Lambda_0 (F0(t) - F0(t0)) + Lambda_1 (F1(t) - F1(t0))) / (2 hbar),
        with F the antiderivative `Envelope.square_integral` (F(t) = t for
        a constant envelope), taken once when `shared`.  With one shared
        envelope Omega is its peak value times f^2, and its integral the
        closed form rabi * (F(t) - F(t0)) / hbar.  Otherwise Omega comes
        from one cumulative pass over the knots t0, every requested time
        and every envelope kink between t0 and the last of them.
        """
        t, rise0, phi = self._light_shift(t)
        if self.shared:
            return _plain(self.ham.rabi * rise0 / HBAR), phi
        span = np.max(t, initial=self.t0)
        kinks = [k for k in self.f0.kinks + self.f1.kinks if self.t0 < k < span]
        knots = np.unique(np.concatenate(([self.t0], t.ravel(), kinks)))
        sums = _cumulative_integrals(lambda s: self._at(s).omega, knots, (self.t1 - self.t0) / _PANELS_PER_WINDOW)
        return _plain(sums[np.searchsorted(knots, t)] / HBAR), phi

    def omega_integral(self, t):
        """Accumulated dressed phase integral of Omega/hbar on [t0, t], rad."""
        return self._accumulated(t)[0]

    def phi_lambda(self, t):
        """Accumulated mean light-shift phase on [t0, t], rad: a closed form, without the Omega quadrature."""
        return self._light_shift(t)[2]

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
    everywhere the ratio is 0.  With one shared envelope (constant
    included) Theta is constant and theta_dot is 0 analytically, so the
    report is a ratio of 0.0 at t0, without building the grid.
    """
    if evolution.shared:
        return AdiabaticityReport(max_ratio=0.0, time_of_max=evolution.t0)
    grid = evolution._grid
    om = grid.omega
    active = np.flatnonzero(om > _ACTIVE_FRACTION * np.max(om))
    if not active.size:
        return AdiabaticityReport(max_ratio=0.0, time_of_max=evolution.t0)
    ratio = evolution.theta_dot(grid.times)[active] * HBAR / (2.0 * om[active])
    i = int(np.argmax(ratio))
    return AdiabaticityReport(max_ratio=float(ratio[i]), time_of_max=float(grid.times[active[i]]))


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
    if np.count_nonzero(times < t0):  # the window bounds are checked where the integrals are taken
        raise ValueError("requested times precede t0")
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
    om, phi = evolution._accumulated(t)
    om_start, phi_start = evolution._accumulated(t0)
    om, phi = om - om_start, phi - phi_start
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
