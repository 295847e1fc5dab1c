"""Single-qubit gate synthesis on top of the effective model.

With equal constant envelopes the closed-form propagator depends on
three knobs: the mixing angle Theta_0 (set by the structure and the
amplitude ratio of the two pulses), the accumulated dressed phase
Omega~ = Omega * T / hbar (set by overall amplitude and duration), and
the phase of the two-photon sum (set by the pulse phase difference).
Every target unitary, named or custom, fixes all three; for example

    NOT:       Theta_0 = pi/2,  Omega~ = pi/2 + pi k
    PHASE:     Theta_0 = 0/pi (second pulse off), Omega~ = pi/2 + pi k
    HADAMARD:  Theta_0 = pi/4,  Omega~ = pi/2 + pi k

with the two-photon phase aligned to zero.  A split qubit also needs a
duration commensurate with the beat period (T * Delta = 2 pi l) so the
beat factors drop out.  `synthesize_gate` solves for the
pulse-1 amplitude ratio that reaches Theta_0, then searches the (k, l)
branch lattice for the shortest admissible duration, absorbing the
leftover into a common amplitude rescale kept inside a configurable
window around the reference amplitudes.

Population inversion by envelope ordering (STIRAP) is scheduled here
too: two time-shifted copies of one envelope sweep the mixing angle
across the window, and the inversion phase conditions are reported as
residuals rather than enforced, since adiabatic transfer of a basis
state does not depend on them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .drive import Envelope, PulsePair, RegimeReport
from .effective import (
    EffectiveEvolution,
    EffectiveHamiltonian,
    GateMatrix,
    evolution_matrix,
)
from .spectrum import SpectrumModel
from .units import HBAR

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)

_NAMED = {"NOT": PAULI_X, "PHASE": PAULI_Z, "HADAMARD": HADAMARD}
TARGETS = (*_NAMED, "CUSTOM")


class GateSynthesisError(ValueError):
    """No admissible pulse parameters for the requested gate."""


@dataclass(frozen=True)
class GateSpec:
    """What to synthesize and how far to search.

    k and l may be pinned to specific branch integers; left as None
    they are searched (k counts extra half-turns of dressed phase, l
    counts beat periods in the duration).  allow_rescale permits
    changing the pulse-1/pulse-0 amplitude ratio to reach the target
    mixing angle; scale_bounds is the admissible window for the common
    amplitude factor squared.
    """

    target: str
    custom_unitary: Optional[np.ndarray] = None
    k: Optional[int] = None
    l: Optional[int] = None
    k_max: int = 64
    l_max: int = 64
    allow_rescale: bool = True
    scale_bounds: tuple[float, float] = (0.25, 4.0)

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}, expected one of {TARGETS}")
        if self.target == "CUSTOM":
            if self.custom_unitary is None:
                raise ValueError("CUSTOM target needs custom_unitary")
            u = np.asarray(self.custom_unitary, dtype=complex)
            if u.shape != (2, 2):
                raise ValueError("custom_unitary must be 2x2")
            dev = np.max(np.abs(u.conj().T @ u - np.eye(2)))
            if dev > 1e-12:
                raise ValueError(f"custom_unitary is not unitary (deviation {dev:.2e})")
            object.__setattr__(self, "custom_unitary", u)
        if self.k is not None and self.k < 0:
            raise ValueError(f"pinned k must be >= 0, got {self.k}")
        if self.l is not None and self.l < 1:
            raise ValueError(f"pinned l must be >= 1, got {self.l}")
        if self.k_max < 0 or self.l_max < 1:
            raise ValueError("branch bounds must be k_max >= 0, l_max >= 1")
        lo, hi = self.scale_bounds
        if not (0 < lo <= hi):
            raise ValueError("scale_bounds must satisfy 0 < lo <= hi")

    def target_matrix(self) -> np.ndarray:
        return _NAMED.get(self.target, self.custom_unitary)


@dataclass(frozen=True)
class GateSolution:
    """Synthesized pulse parameters for one gate.

    amplitude_ratio multiplies the pulse-1 amplitude (relative to the
    reference the sums were computed at); amplitude_scale multiplies
    both amplitudes.  phase_offset is the required shift of phi0-phi1.
    """

    target: str
    duration: float
    theta0: float
    omega_tilde: float
    amplitude_ratio: float
    amplitude_scale: float
    phase_offset: float
    k: int
    l: int
    n: int
    delta_t_residual: float
    predicted_fidelity: float

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "duration_ns": self.duration,
            "theta0_rad": self.theta0,
            "omega_tilde_rad": self.omega_tilde,
            "amplitude_ratio": self.amplitude_ratio,
            "amplitude_scale": self.amplitude_scale,
            "phase_offset_rad": self.phase_offset,
            "k": self.k,
            "l": self.l,
            "n": self.n,
            "delta_t_residual_rad": self.delta_t_residual,
            "predicted_fidelity": self.predicted_fidelity,
        }


def _ratio_for_angle(ham: EffectiveHamiltonian, theta: float) -> float:
    """Pulse-1 amplitude ratio x >= 0 that sets a mixing angle off the poles.

    Solves Lambda1 x^2 + 2 |Lambda2| cot(theta) x - Lambda0 = 0 (from
    requiring tan of the rescaled angle to hit the target), picking the
    smallest positive root.
    """
    s = math.sin(theta)
    c = math.cos(theta)
    a = ham.Lambda1
    b = 2.0 * abs(ham.Lambda2) * c / s
    cc = -ham.Lambda0
    if a == 0.0:
        if b == 0.0:
            raise GateSynthesisError("degenerate sums: cannot set the mixing angle")
        roots = [-cc / b]
    else:
        disc = b * b - 4.0 * a * cc
        if disc < 0:
            raise GateSynthesisError(f"target mixing angle {theta:.4f} rad unreachable (no real ratio)")
        sq = math.sqrt(disc)
        roots = [(-b - sq) / (2 * a), (-b + sq) / (2 * a)]
    pos = sorted(r for r in roots if r > 1e-12)
    if not pos:
        raise GateSynthesisError(
            f"target mixing angle {theta:.4f} rad needs a negative amplitude ratio; "
            "unreachable for this structure"
        )
    return pos[0]


def _decompose_unitary(u: np.ndarray) -> tuple[float, float, float]:
    """Split a 2x2 unitary into (omega_tilde in [0,pi], theta0, arg target).

    The constant-angle propagator core is
        [[cos W - i cos(T0) sin W,   -i e^{iA} sin(T0) sin W],
         [-i e^{-iA} sin(T0) sin W,  cos W + i cos(T0) sin W]]
    up to a global phase; this inverts that map.
    """
    det = complex(np.linalg.det(u))
    su = u / cmath.sqrt(det)
    a = complex(su[0, 0])
    b = complex(su[0, 1])
    re_a = max(-1.0, min(1.0, a.real))
    w = math.acos(re_a)
    sw = math.sin(w)
    if sw < 1e-12:
        if abs(b) > 1e-9:
            raise GateSynthesisError("inconsistent unitary: no rotation but nonzero transfer")
        return w, 0.0, 0.0
    cos_t0 = max(-1.0, min(1.0, -a.imag / sw))
    sin_t0 = abs(b) / sw
    theta0 = math.atan2(sin_t0, cos_t0)
    arg_target = cmath.phase(b) + 0.5 * math.pi if abs(b) > 0 else 0.0
    return w, theta0, arg_target


def synthesize_gate(
    spec: GateSpec,
    ham: EffectiveHamiltonian,
    delta_qubit: float,
) -> GateSolution:
    """Find pulse parameters realizing the target gate.

    Assumes equal constant envelopes over [0, T].  Returns the
    smallest-duration solution whose common amplitude rescale stays
    inside spec.scale_bounds.  The reported predicted_fidelity is
    computed honestly by feeding the solution back through the
    closed-form propagator.
    """
    if not (math.isfinite(delta_qubit) and delta_qubit >= 0.0):
        raise GateSynthesisError(
            f"qubit splitting Delta = {delta_qubit} ueV must be finite and >= 0 "
            "(epsilon1 >= epsilon0); the beat period 2 pi hbar / Delta sets every duration"
        )
    w_base, theta_target, arg_target = _decompose_unitary(spec.target_matrix())
    n = 0
    diagonal = abs(math.sin(theta_target)) < 1e-12
    if diagonal:
        # diagonal target: Theta sits at a pole (Lambda0's with the second pulse off, the
        # sums' at a unit ratio with Lambda2 = 0); core(pi, pi - W) = -core(0, W) reaches the other
        pole = 0.0 if ham.Lambda0 > 0 else math.pi
        if not spec.allow_rescale and ham.Lambda2 == 0:
            pole = ham.mixing_angle
        if abs(pole - theta_target) > 0.5 * math.pi:
            theta_target, w_base, n = pole, math.pi - w_base, 1
    elif ham.Lambda2 == 0:
        raise GateSynthesisError(
            f"{spec.target} needs a nonzero two-photon sum Lambda2; this structure gives none"
        )

    # -- amplitude ratio for the mixing angle --------------------------
    if spec.allow_rescale:
        ratio = 0.0 if diagonal else _ratio_for_angle(ham, theta_target)
    else:
        ratio = 1.0
        got = ham.mixing_angle
        if abs(got - theta_target) > 1e-9:
            msg = (
                f"mixing angle is {got:.4f} rad but target needs {theta_target:.4f} rad "
                "and rescaling is disallowed"
            )
            if abs(theta_target - 0.5 * math.pi) < 1e-9:
                msg += "; complete transfer requires equal light shifts (Lambda0 = Lambda1)"
            raise GateSynthesisError(msg)

    ham_ratio = ham.rescaled(ratio)
    omega_ref = ham_ratio.rabi
    if omega_ref <= 0:
        raise GateSynthesisError("dressed splitting vanishes after rescaling; no phase can accumulate")

    arg_now = cmath.phase(ham_ratio.Lambda2) if ham_ratio.Lambda2 != 0 else 0.0
    phase_offset = math.remainder(arg_target - arg_now, 2.0 * math.pi)

    # -- branch search for duration and common scale -------------------
    lo, hi = spec.scale_bounds
    k_lo = spec.k if spec.k is not None else 0
    k_hi = spec.k if spec.k is not None else spec.k_max
    if w_base + math.pi * k_lo == 0.0:
        # W = 0 (the identity up to a phase) needs no dressed phase: zero duration at Delta = 0,
        # zero amplitude otherwise; the next branch, W = pi, gives the same gate
        if spec.k is not None:
            raise GateSynthesisError(
                f"k = {spec.k} leaves {spec.target} no dressed phase to accumulate "
                "(zero-length window); pin k >= 1 or leave k free"
            )
        k_lo = 1
        if k_lo > k_hi:
            raise GateSynthesisError(
                f"{spec.target} needs k >= 1 for a window of positive length, but k_max = {spec.k_max}"
            )

    def admissible_k(t_dur: float):
        """Best k in range whose amplitude rescale stays in bounds.

        s2 is linear in k, so the best is the k of the bounds' interval nearest
        the ideal k (s2 = 1); its neighbours absorb round-off at the edges.
        """
        best = None
        if spec.k is not None:
            cands = {spec.k}
        else:
            phase_at_unit_scale = omega_ref * t_dur / HBAR
            ideal = (phase_at_unit_scale - w_base) / math.pi
            k_min = max(k_lo, math.ceil((lo * phase_at_unit_scale - w_base) / math.pi))
            k_max = min(k_hi, math.floor((hi * phase_at_unit_scale - w_base) / math.pi))
            near = min(max(ideal, k_min), k_max)
            cands = {k for k in range(math.floor(near) - 1, math.ceil(near) + 2) if k_lo <= k <= k_hi}
        for k in sorted(cands):
            w_target = w_base + math.pi * k
            s2 = w_target * HBAR / (omega_ref * t_dur)
            if spec.k is None and not (lo <= s2 <= hi):
                continue
            score = abs(math.log(s2))
            if best is None or score < best[0]:
                best = (score, k, s2, w_target)
        return best

    if delta_qubit == 0.0:
        k = k_lo
        w_target = w_base + math.pi * k
        duration = w_target * HBAR / omega_ref
        s2 = 1.0
        l = 0
        residual = 0.0
    else:
        beat_t = 2.0 * math.pi * HBAR / delta_qubit
        l_values = [spec.l] if spec.l is not None else range(1, spec.l_max + 1)
        found = None
        for l_try in l_values:
            t_dur = l_try * beat_t
            best = admissible_k(t_dur)
            if best is not None:
                found = (l_try, t_dur) + best[1:]
                break
        if found is None:
            searched = f"l = {spec.l}" if spec.l is not None else f"l <= {spec.l_max}"
            raise GateSynthesisError(
                "no duration satisfies both the dressed-phase and beat-period conditions "
                f"within k <= {spec.k_max}, {searched} and scale bounds {spec.scale_bounds}; "
                "widen the bounds"
            )
        l, duration, k, s2, w_target = found
        residual = abs(duration * delta_qubit / HBAR - 2.0 * math.pi * l)

    # -- honest feedback check -----------------------------------------
    final = EffectiveHamiltonian(
        s2 * ham_ratio.Lambda0,
        s2 * ham_ratio.Lambda1,
        s2 * ham_ratio.Lambda2 * cmath.exp(1j * phase_offset),
    )
    env = Envelope("constant")
    ev = EffectiveEvolution(final, env, env, 0.0, duration)
    gate = evolution_matrix(ev, None, 0.0, duration, epsilon0=0.0, delta_qubit=delta_qubit)
    fidelity = gate_fidelity(gate, spec.target_matrix())

    return GateSolution(
        target=spec.target,
        duration=duration,
        theta0=theta_target,
        omega_tilde=w_target,
        amplitude_ratio=ratio,
        amplitude_scale=math.sqrt(s2),
        phase_offset=phase_offset,
        k=k,
        l=l,
        n=n,
        delta_t_residual=residual,
        predicted_fidelity=fidelity,
    )


def gate_fidelity(achieved, target, unitarity_tol: float = 1e-9) -> float:
    """Phase-insensitive overlap |tr(target^dag U)| / 2.

    `achieved` may be a GateMatrix (its full lab-frame matrix is used)
    or a plain 2x2 array.  Both operators must be unitary within
    unitarity_tol; matrices assembled from propagated basis states leak
    a little population and need a loosened tolerance.
    """
    u = achieved.matrix if isinstance(achieved, GateMatrix) else np.asarray(achieved, dtype=complex)
    v = np.asarray(target, dtype=complex)
    for name, mat in (("achieved", u), ("target", v)):
        if mat.shape != (2, 2):
            raise ValueError(f"{name} matrix must be 2x2")
        dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(2))))
        if dev > unitarity_tol:
            raise ValueError(f"{name} matrix is not unitary within {unitarity_tol:.1e} (deviation {dev:.2e})")
    return float(abs(np.trace(v.conj().T @ u)) / 2.0)


def qubit_transfer_matrix(traj_from_zero, traj_from_one, spectrum: SpectrumModel | None = None) -> np.ndarray:
    """Assemble the realized qubit map from two basis-state propagations.

    Columns are the final qubit amplitudes of runs started in |0> and
    |1>.  With a spectrum the free phases are attached so the result is
    comparable to the lab-frame closed form (window starting at t=0);
    without it the interaction-picture map is returned.  The matrix is
    generally subunitary by whatever population was left in the
    manifold.
    """
    if traj_from_zero.frame != traj_from_one.frame:
        raise ValueError("trajectories come from different frames")
    t_end = traj_from_zero.times[-1]
    if abs(t_end - traj_from_one.times[-1]) > 1e-12:
        raise ValueError("trajectories end at different times")
    m = np.array(
        [
            [traj_from_zero.final_amplitudes[0], traj_from_one.final_amplitudes[0]],
            [traj_from_zero.final_amplitudes[1], traj_from_one.final_amplitudes[1]],
        ],
        dtype=complex,
    )
    if spectrum is not None:
        free = np.diag(
            [
                cmath.exp(-1j * spectrum.epsilon0 * t_end / HBAR),
                cmath.exp(-1j * spectrum.epsilon1 * t_end / HBAR),
            ]
        )
        m = free @ m
    return m


# ---------------------------------------------------------------------
# STIRAP scheduling
# ---------------------------------------------------------------------

ORDERINGS = ("counterintuitive", "intuitive")


@dataclass(frozen=True)
class StirapSchedule:
    """Two time-shifted envelopes and the transfer bookkeeping.

    theta_start/theta_end are the limiting mixing angles implied by the
    envelope ordering (computed from the actual light-shift signs when
    sums are provided, otherwise quoted for positive sums).  The
    residuals measure how far the schedule sits from the inversion
    phase conditions; clean population transfer of a basis state does
    not require them to vanish.
    """

    ordering: str
    envelope0: Envelope
    envelope1: Envelope
    delay: float
    duration: float
    theta_start: float
    theta_end: float
    overlap: float
    omega_tilde: Optional[float] = None
    residual_phase_plus: Optional[float] = None
    residual_phase_minus: Optional[float] = None
    residual_beat: Optional[float] = None


def _dist_to_multiple(x: float, period: float, offset: float = 0.0) -> float:
    """Distance from x to the nearest offset + n*period."""
    return abs(math.remainder(x - offset, period))


def schedule_stirap(
    ordering: str,
    envelope: Envelope,
    delay: float,
    duration: float,
    ham: EffectiveHamiltonian | None = None,
    delta_qubit: float = 0.0,
) -> StirapSchedule:
    """Build a two-pulse transfer schedule from one base envelope.

    Counterintuitive ordering puts the pulse driving the occupied
    |0> <-> manifold transition second (envelope0 delayed, envelope1
    advanced); intuitive ordering is the mirror image.  The two shifted
    envelopes must still overlap appreciably, otherwise no two-photon
    coupling ever develops and the schedule is refused.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}, expected one of {ORDERINGS}")
    if delay < 0:
        raise ValueError("delay must be >= 0")
    if duration <= 0:
        raise ValueError("duration must be > 0")

    sign = +1.0 if ordering == "counterintuitive" else -1.0
    env0 = envelope.shifted(+0.5 * sign * delay)
    env1 = envelope.shifted(-0.5 * sign * delay)

    grid = np.linspace(0.0, duration, 2001)
    overlap = float(np.max(np.asarray(env0(grid)) * np.asarray(env1(grid))))
    if overlap < 1e-9:
        raise ValueError(
            f"shifted envelopes barely overlap (max f0*f1 = {overlap:.2e}); "
            "reduce the delay or widen the pulses"
        )

    if ham is not None:
        ev = EffectiveEvolution(ham, env0, env1, 0.0, duration)
        theta_start = ev.theta(0.0)
        theta_end = ev.theta(duration)
        om = ev.omega_integral(duration)
        arg2 = cmath.phase(ham.Lambda2) if ham.Lambda2 != 0 else 0.0
        res_plus = _dist_to_multiple(arg2 + om, math.pi)
        res_minus = _dist_to_multiple(arg2 - om, math.pi)
    else:
        # positive-sum convention: the occupied-late ordering starts fully mixed
        theta_start = math.pi if ordering == "counterintuitive" else 0.0
        theta_end = 0.0 if ordering == "counterintuitive" else math.pi
        om = None
        res_plus = res_minus = None

    res_beat = None
    if delta_qubit != 0.0:
        res_beat = _dist_to_multiple(duration * delta_qubit / HBAR, 2.0 * math.pi, offset=math.pi)

    return StirapSchedule(
        ordering=ordering,
        envelope0=env0,
        envelope1=env1,
        delay=delay,
        duration=duration,
        theta_start=theta_start,
        theta_end=theta_end,
        overlap=overlap,
        omega_tilde=om,
        residual_phase_plus=res_plus,
        residual_phase_minus=res_minus,
        residual_beat=res_beat,
    )


# ---------------------------------------------------------------------
# polarization leakage
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class LeakageEstimate:
    """Success-probability weight from polarization misalignment.

    In a resonant regime a misaligned field component drives unwanted
    transitions directly, costing ~gamma^2 of success probability.  In
    an off-resonant regime the same component only acts through the
    detuned manifold, suppressed by max_k |lambda_k/delta_k|^2.
    """

    regime_class: str
    gamma_sq: float
    suppression: Optional[float]
    leakage: float

    @property
    def success_weight(self) -> float:
        return 1.0 - self.leakage


def polarization_leakage(pulses: PulsePair, regime: RegimeReport) -> LeakageEstimate:
    """Estimate the success-probability cost of polarization errors."""
    gamma_sq = pulses.gamma_sq_max
    if regime.all_off_resonant:
        finite = regime.ratio_detuning_coupling[np.isfinite(regime.ratio_detuning_coupling)]
        finite = finite[finite > 0]
        if len(finite) == 0:
            suppression = 0.0
        else:
            suppression = float(np.max(1.0 / finite**2))
        return LeakageEstimate(
            regime_class="off-resonant",
            gamma_sq=gamma_sq,
            suppression=suppression,
            leakage=gamma_sq * suppression,
        )
    return LeakageEstimate(
        regime_class="resonant",
        gamma_sq=gamma_sq,
        suppression=None,
        leakage=gamma_sq,
    )
