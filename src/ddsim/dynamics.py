"""Time propagation of the driven qubit-plus-manifold system.

Three tiers of the same physical problem, all expressed in the
interaction picture of the static spectrum (amplitudes c_n with the
free phases e^{-i eps_n t / hbar} factored out):

propagate_bare
    Keeps the full optical carriers, cos(omega t + phi), including
    counter-rotating terms.  Exact but expensive: the integrator has to
    resolve the optical period, so runtime grows like omega0 * T.

propagate_rwa
    Drops the counter-rotating terms only.  Each manifold level k is
    coupled to |0> and |1> through its detuning phase e^{i delta_k t},
    and the crossed couplings (pulse 0 on the 1<->k transition and
    pulse 1 on 0<->k) ride on an extra beat factor e^{+-i Delta t} at
    the qubit splitting.  This is the workhorse "exact" tier.

    With both envelopes constant and Delta != 0 the equations repeat
    themselves every beat period P = 2 pi hbar / |Delta| in the frame
    b_k = c_k e^{i delta_k t} (Floquet; Shirley, Phys. Rev. 138, B979
    (1965)).  A window of at least 2 P is then folded: the propagator
    is integrated over one period with the configured method and
    tolerances, and the saved states are assembled from it and its
    powers, so the cost no longer grows with the number of periods.
    The last one-period propagator is kept, so a run with equal
    couplings, phases, settings and save offsets (the other basis state
    of a gate check) skips the integration.  Shaped envelopes, Delta = 0
    and shorter windows are integrated directly.  Each call logs (INFO)
    which path it took and why.

propagate_averaged
    Additionally drops the crossed couplings, which average out when
    the envelopes change slowly compared to the beat period
    2 pi hbar / Delta.  Uses the shifted manifold variables
    b_k = c_k e^{i delta_k t}, which makes the system autonomous up to
    the envelopes; fast and the direct counterpart of the analytic
    effective model.

All three are the same star-coupled equation: each manifold level k
couples only to |0> and |1>, so H(t)/hbar = s(t) M(t) with
<0|M|k> = g0_k(t), <1|M|k> = g1_k(t) and an optional constant manifold
diagonal <k|M|k>.  A tier supplies only its couplings (s, g0, g1) at t
(s is 1 except in the bare tier, where it is the instantaneous field)
and the averaged tier its diagonal -delta_k / hbar; one right-hand side
(_star_rhs) computes dy/dt for all of them, for a single state or for a
propagator whose columns are states.

Norms are monitored, never renormalized: drift beyond the configured
bound raises PropagationError instead of silently hiding an integrator
problem.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, replace
from typing import ClassVar, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .drive import CouplingSet, PulsePair, averaging_period, slow_switching_ok
from .spectrum import SpectrumModel
from .units import DIPOLE_FIELD_TO_UEV, HBAR

logger = logging.getLogger(__name__)

FRAMES = ("bare", "rwa", "averaged")
METHODS = ("adaptive", "rk4")

# steps per fastest oscillation period, for fixed-step integration and
# for the carrier-resolution clamp of the bare tier
_STEPS_PER_PERIOD = 50.0


class PropagationError(RuntimeError):
    """Integration failed or produced an untrustworthy result."""


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes (c_0, c_1, c_k...) in a named frame."""

    amplitudes: np.ndarray
    frame: str = "rwa"

    def __post_init__(self):
        if self.frame not in FRAMES:
            raise ValueError(f"unknown frame {self.frame!r}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or len(amps) < 2:
            raise ValueError("state needs at least the two qubit amplitudes")
        norm = np.sum(np.abs(amps) ** 2)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: sum |c|^2 = {norm}")

    @classmethod
    def qubit(cls, alpha: complex, beta: complex, n_excited: int, frame: str = "rwa") -> "StateVector":
        """State with qubit amplitudes (alpha, beta) and empty manifold."""
        amps = np.zeros(2 + n_excited, dtype=complex)
        amps[0] = alpha
        amps[1] = beta
        return cls(amps, frame)

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class IntegratorSettings:
    """Numerical controls for the propagators.

    method "adaptive" uses an 8th-order adaptive Runge-Kutta scheme;
    "rk4" is a fixed-step classic RK4 fallback whose step defaults to
    resolving the fastest phase in the problem with 50 points per
    period.  In the bare tier that is the faster carrier.  In the rwa
    and averaged tiers it is the faster of the largest Rabi scale lambda
    and the fastest coupling phase: max_k |delta_k| + |Delta| in the rwa
    tier, where the crossed couplings turn at delta_k -+ Delta, and
    max_k |delta_k| in the averaged tier.  max_step is in ns and bounds
    either method.
    """

    method: str = "adaptive"
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: Optional[float] = None
    save_points: int = 201
    norm_tol: float = 1e-6

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError("max_step must be > 0")
        if self.save_points < 2:
            raise ValueError("save_points must be >= 2")
        if self.norm_tol <= 0:
            raise ValueError("norm_tol must be > 0")


@dataclass
class Trajectory:
    """Saved time grid and amplitudes from one propagation run."""

    times: np.ndarray
    amplitudes: np.ndarray  # shape (n_times, dim), complex
    frame: str

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if self.amplitudes.shape[0] != len(self.times):
            raise ValueError("amplitude rows must match the time grid")

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @property
    def norms(self) -> np.ndarray:
        return np.sum(self.populations, axis=1)

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - 1.0)))

    @property
    def manifold_population(self) -> np.ndarray:
        """Total population outside the qubit subspace, per saved time."""
        return np.sum(self.populations[:, 2:], axis=1)

    @property
    def final_amplitudes(self) -> np.ndarray:
        return self.amplitudes[-1]


# ---------------------------------------------------------------------
# propagation engine
# ---------------------------------------------------------------------


def _star_rhs(star, diag=None):
    """dy/dt = -i H(t) y / hbar for the star-coupled equations of every tier.

    H(t)/hbar = s M(t) in rad/ns, where star(t) returns (s, g0, g1) with
    real s, <0|M|k> = g0_k and <1|M|k> = g1_k; diag, if given, is the
    constant manifold diagonal <k|M|k>.  y is one state of shape (dim,)
    or a propagator of shape (dim, dim) whose columns are states.
    """
    def rhs(t, y):
        s, g0, g1 = star(t)
        ck = y[2:]
        dy = np.empty_like(y)
        dy[0] = -1j * s * np.dot(g0, ck)
        dy[1] = -1j * s * np.dot(g1, ck)
        dk = np.multiply.outer(np.conj(g0), y[0])
        if diag is not None:
            dk = (diag * ck.T).T + dk
        dy[2:] = -1j * s * (dk + np.multiply.outer(np.conj(g1), y[1]))
        return dy

    return rhs


def _run_rk4(rhs, y0, grid, step):
    out = np.empty((len(grid), len(y0)), dtype=complex)
    y = np.array(y0, dtype=complex)
    out[0] = y
    for j in range(len(grid) - 1):
        t0, t1 = grid[j], grid[j + 1]
        n = max(1, int(math.ceil((t1 - t0) / step)))
        h = (t1 - t0) / n
        if h <= 0 or t0 + h == t0:
            raise PropagationError(f"step size underflow near t={t0}")
        t = t0
        for _ in range(n):
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        out[j + 1] = y
    return out


def _integrate(rhs, y0, grid, settings, max_step, step):
    """Values of dy/dt = rhs(t, y) on grid, from y0 at grid[0], with the configured method."""
    if settings.method == "adaptive":
        sol = solve_ivp(
            rhs,
            (grid[0], grid[-1]),
            y0,
            method="DOP853",
            t_eval=grid,
            rtol=settings.rtol,
            atol=settings.atol,
            max_step=max_step if max_step is not None else np.inf,
        )
        if not sol.success:
            raise PropagationError(f"adaptive integrator failed: {sol.message}")
        return sol.y.T.copy()
    return _run_rk4(rhs, y0, grid, max_step or step)


# (key, read-only propagators U(taus)) of the last one-period integration in _fold
_one_period_memo = None


def _fold(rhs, psi0, grid, period, phases, integrate, key):
    """Amplitudes on grid from the propagator of one period (Floquet).

    rhs(t, y), applied to y of shape (dim, dim), must describe a system
    that repeats itself after `period` in the frame b_k = c_k e^{i phases_k t}:
    with D(t) = diag(1, 1, e^{-i phases t}), H(t + P) = D(P) H(t) D(P)^dag.
    The propagator U(tau) is integrated once over [0, P], and a saved time
    t = m P + tau takes c(t) = D(m P) U(tau) F^m psi0 with F = D(P)^dag U(P),
    the powers built by binary powering between save points.  F is not
    unitarized, so the norm check still sees its error, amplified by m.

    key must fix rhs and integrate (coefficients and settings).  With the
    offsets tau, which end at P, it names the integration; the last one is
    kept and reused when a call names it again.  The phases enter only
    the assembly.
    """
    global _one_period_memo
    dim = len(psi0)
    periods = np.floor(grid / period)
    offsets = np.clip(grid - periods * period, 0.0, period)
    taus = np.unique(np.append(offsets, period))

    key += (taus.tobytes(),)
    memo = _one_period_memo
    reused = memo is not None and memo[0] == key
    # only the rwa tier folds
    logger.info("rwa propagation: folded over %.6g beat periods of P = %.6g ns%s", grid[-1] / period, period,
                " (one-period propagator reused)" if reused else "")
    if reused:
        props = memo[1]
    else:
        def block(t, y):
            return rhs(t, y.reshape(dim, dim)).ravel()

        props = integrate(block, np.eye(dim, dtype=complex).ravel(), taus).reshape(-1, dim, dim)
        props.flags.writeable = False
        _one_period_memo = (key, props)
    one_period = props[-1].copy()
    one_period[2:] *= np.exp(1j * period * phases)[:, None]
    squares = [one_period]  # F^(2^i)
    state, done = psi0, 0
    out = np.empty((len(grid), dim), dtype=complex)
    for j, (m, idx) in enumerate(zip(periods.astype(int), np.searchsorted(taus, offsets))):
        todo, bit = m - done, 0
        while todo:
            if bit == len(squares):
                squares.append(squares[-1] @ squares[-1])
            if todo & 1:
                state = squares[bit] @ state
            todo, bit = todo >> 1, bit + 1
        done = m
        out[j] = props[idx] @ state
    out[:, 2:] *= np.exp(-1j * np.outer(periods * period, phases))
    return out


def _propagate(star, psi0, frame, n_excited, pulses, settings, rate, diag=None, period=None, phases=None,
               key=()):
    """Integrate the star-coupled equations (see _star_rhs) from psi0 over [0, pulses.duration].

    rate is the fastest angular frequency in the tier, rad/ns.  The
    fixed rk4 step defaults to resolving it with _STEPS_PER_PERIOD
    points per period.  With a period, the one-period propagator is
    integrated instead and the run is folded (see _fold); key is then a
    tuple of the values (bytes or floats) that fix star and diag.
    """
    settings = settings or IntegratorSettings()
    if psi0.frame != frame:
        raise ValueError(f"initial state is in frame {psi0.frame!r}, expected {frame!r}")
    if len(psi0.amplitudes) != 2 + n_excited:
        raise ValueError(
            f"state has {len(psi0.amplitudes)} amplitudes, structure needs {2 + n_excited}"
        )

    step = 2.0 * math.pi / (_STEPS_PER_PERIOD * rate) if rate > 0 else pulses.duration / 100.0

    def integrate(f, y0, grid):
        return _integrate(f, y0, grid, settings, settings.max_step, step)

    rhs = _star_rhs(star, diag)
    grid = np.linspace(0.0, pulses.duration, settings.save_points)
    if period is None:
        ys = integrate(rhs, psi0.amplitudes, grid)
    else:
        key += (settings.method, settings.rtol, settings.atol, settings.max_step, step)
        ys = _fold(rhs, psi0.amplitudes, grid, period, phases, integrate, key)

    traj = Trajectory(grid, ys, frame)
    drift = traj.norm_drift
    if not drift <= settings.norm_tol:  # also catches a NaN drift
        raise PropagationError(
            f"{frame} propagation lost norm: max |sum|c|^2 - 1| = {drift:.3e} "
            f"exceeds {settings.norm_tol:.1e}; tighten tolerances or reduce the step"
        )
    return traj


# ---------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------


def propagate_rwa(
    couplings: CouplingSet,
    pulses: PulsePair,
    psi0: StateVector,
    settings: IntegratorSettings | None = None,
) -> Trajectory:
    """Integrate the rotating-wave equations over [0, duration].

    The couplings must have been derived from the same pulse pair (the
    detuning list and the crossed couplings are trusted as given).
    Constant envelopes with Delta != 0 over at least two beat periods
    are folded: see the module docstring.
    """
    wd = couplings.delta / HBAR           # detuning phases, rad/ns
    wq = couplings.delta_qubit / HBAR     # beat phase, rad/ns
    lam0 = couplings.lambda0 * np.exp(1j * pulses.phi0) / HBAR
    lam1 = couplings.lambda1 * np.exp(1j * pulses.phi1) / HBAR
    mu0 = couplings.mu0 * np.exp(1j * pulses.phi0) / HBAR
    mu1 = couplings.mu1 * np.exp(1j * pulses.phi1) / HBAR
    env0, env1 = pulses.envelope0, pulses.envelope1

    period = averaging_period(couplings.delta_qubit)
    if env0.shape != "constant" or env1.shape != "constant":
        reason = f"{env0.shape}/{env1.shape} envelopes"
    elif wq == 0.0:
        reason = "Delta = 0"
    elif pulses.duration < 2.0 * period:
        reason = f"window {pulses.duration:.6g} ns is shorter than 2 beat periods of {period:.6g} ns"
    else:
        reason = None

    def star(t):
        f0 = env0(t)
        f1 = env1(t)
        phase_k = np.exp(1j * wd * t)
        beat = np.exp(1j * wq * t)
        return 1.0, (lam0 * f0 + mu1 * f1 / beat) * phase_k, (mu0 * f0 * beat + lam1 * f1) * phase_k

    # the crossed couplings turn at delta_k -+ Delta
    rate = max(
        float(np.max(np.abs(couplings.delta), initial=0.0)) + abs(couplings.delta_qubit),
        float(np.max(couplings.lambda_scale, initial=0.0)),
    ) / HBAR
    n = couplings.n_levels
    if reason is not None:
        logger.info("rwa propagation: direct (%s)", reason)
        return _propagate(star, psi0, "rwa", n, pulses, settings, rate)
    # the envelopes are 1, so these fix star
    key = tuple(a.tobytes() for a in (lam0, lam1, mu0, mu1, wd)) + (wq,)
    return _propagate(star, psi0, "rwa", n, pulses, settings, rate, period=period, phases=wd, key=key)


def propagate_averaged(
    couplings: CouplingSet,
    pulses: PulsePair,
    psi0: StateVector,
    settings: IntegratorSettings | None = None,
) -> Trajectory:
    """Integrate the beat-averaged equations in the b_k variables.

    Valid when the envelopes switch slowly compared to the beat period
    2 pi hbar / Delta; a violation is reported as a warning, not an
    error, since the comparison against the rwa tier is itself a useful
    diagnostic.
    """
    if not slow_switching_ok(pulses, couplings.delta_qubit):
        warnings.warn(
            "envelope switching time is short against the beat period; "
            "the averaged tier may deviate from the rwa tier",
            stacklevel=2,
        )

    lam0 = couplings.lambda0 * np.exp(1j * pulses.phi0) / HBAR
    lam1 = couplings.lambda1 * np.exp(1j * pulses.phi1) / HBAR
    env0, env1 = pulses.envelope0, pulses.envelope1

    def star(t):
        return 1.0, lam0 * env0(t), lam1 * env1(t)

    rate = max(
        float(np.max(np.abs(couplings.delta), initial=0.0)),
        float(np.max(couplings.lambda_scale, initial=0.0)),
    ) / HBAR
    return _propagate(star, psi0, "averaged", couplings.n_levels, pulses, settings, rate,
                      diag=-couplings.delta / HBAR)


def propagate_bare(
    spectrum: SpectrumModel,
    pulses: PulsePair,
    psi0: StateVector,
    settings: IntegratorSettings | None = None,
) -> Trajectory:
    """Integrate with the full carriers, no rotating-wave approximation.

    The step is clamped to resolve the fastest carrier with 50 points
    per period, whatever the caller asked for, so runtime is
    proportional to omega0 * duration.
    """
    w0 = pulses.omega0 / HBAR
    w1 = pulses.omega1 / HBAR
    w0k = (spectrum.manifold_energies - spectrum.epsilon0) / HBAR
    w1k = (spectrum.manifold_energies - spectrum.epsilon1) / HBAR
    d0 = spectrum.dipoles_to_0 * DIPOLE_FIELD_TO_UEV / HBAR
    d1 = spectrum.dipoles_to_1 * DIPOLE_FIELD_TO_UEV / HBAR
    amp0, amp1 = pulses.amp0, pulses.amp1
    phi0, phi1 = pulses.phi0, pulses.phi1
    env0, env1 = pulses.envelope0, pulses.envelope1

    def star(t):  # s is the instantaneous field, V/cm
        e_field = amp0 * env0(t) * math.cos(w0 * t + phi0) + amp1 * env1(t) * math.cos(w1 * t + phi1)
        return e_field, d0 * np.exp(-1j * w0k * t), d1 * np.exp(-1j * w1k * t)

    # the carrier-resolving step bounds either method, whatever the settings ask for
    settings = settings or IntegratorSettings()
    max_step = min(settings.max_step or math.inf, 2.0 * math.pi / (_STEPS_PER_PERIOD * max(w0, w1)))
    settings = replace(settings, max_step=max_step)
    n_steps_est = pulses.duration / max_step
    logger.info("bare propagation: ~%.0f carrier-resolving steps", n_steps_est)
    if n_steps_est > 5e5:
        warnings.warn(
            f"bare propagation needs about {n_steps_est:.1e} steps "
            "(runtime grows with omega0 * duration); consider the rwa tier",
            stacklevel=2,
        )
    return _propagate(star, psi0, "bare", spectrum.n_excited, pulses, settings, max(w0, w1))


# ---------------------------------------------------------------------
# adiabatic elimination diagnostic
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class EliminationReport:
    """How well the manifold amplitudes track their quasistatic value.

    peak_residual is the max over saved times t_j and levels k of
    |b_k(t_j) - b_k^qs(t_j)|, where b_k^qs is the instantaneous
    quasistatic solution (couplings * qubit amplitudes / detuning).
    The elimination is declared invalid when it exceeds the threshold.
    """

    threshold: ClassVar[float] = 0.1

    peak_residual: float
    peak_manifold_population: float

    @property
    def valid(self) -> bool:
        return self.peak_residual <= self.threshold


def check_adiabatic_elimination(
    trajectory: Trajectory,
    couplings: CouplingSet,
    pulses: PulsePair,
) -> EliminationReport:
    """Compare manifold amplitudes against their quasistatic estimate, under the propagated drive."""
    if trajectory.frame not in ("rwa", "averaged"):
        raise ValueError("elimination check needs an rwa or averaged trajectory")
    if np.any(couplings.delta == 0.0):
        raise ValueError("quasistatic estimate undefined: some delta_k is zero")

    t = trajectory.times
    c0 = trajectory.amplitudes[:, 0]
    c1 = trajectory.amplitudes[:, 1]
    ck = trajectory.amplitudes[:, 2:]

    if trajectory.frame == "rwa":
        bk = ck * np.exp(1j * np.outer(t, couplings.delta / HBAR))
    else:
        bk = ck

    f0 = np.asarray(pulses.envelope0(t))[:, None]
    f1 = np.asarray(pulses.envelope1(t))[:, None]
    lam0c = np.conj(couplings.lambda0 * np.exp(1j * pulses.phi0))[None, :]
    lam1c = np.conj(couplings.lambda1 * np.exp(1j * pulses.phi1))[None, :]
    bqs = (lam0c * f0 * c0[:, None] + lam1c * f1 * c1[:, None]) / couplings.delta[None, :]

    return EliminationReport(
        peak_residual=float(np.max(np.abs(bk - bqs))),
        peak_manifold_population=float(np.max(np.sum(np.abs(ck) ** 2, axis=1))),
    )
