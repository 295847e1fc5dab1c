"""Two-color Raman drive: envelopes, pulse parameters, couplings.

The control field is a pair of phase-locked pulses at carriers omega0
and omega1 (energy units, ueV) addressing the |0> -> manifold and
|1> -> manifold transitions.  Locking the difference of the carriers to
the qubit splitting, omega0 - omega1 = delta, puts every manifold level
on two-photon resonance simultaneously: the detuning delta_k of level k
is the same seen from |0> (via pulse 0) and from |1> (via pulse 1).
That shared detuning list is what `derive_couplings` produces, together
with the direct couplings

    lambda_0k = d_0k E_0 / 2,   lambda_1k = d_1k E_1 / 2,

and the crossed ones (pulse 0 acting on the 1<->k transition and vice
versa)

    mu_0k = d_1k E_0 / 2,       mu_1k = d_0k E_1 / 2,

all converted to ueV with the e*nm * V/cm = 0.1 ueV rule.

`classify_regime` sorts each manifold level into the four standard
coupling hierarchies (resonant/off-resonant, symmetric/asymmetric in
the qubit splitting) using a fixed dominance ratio: "a much less than
b" means rho*a <= b with rho = 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import SpectrumModel
from .units import DIPOLE_FIELD_TO_UEV, HBAR

DOMINANCE_RATIO = 10.0

_EDGE_TOL = 1e-9
_ERF = np.frompyfunc(math.erf, 1, 1)  # math.erf elementwise; its values are Python floats

SHAPES = ("gaussian", "sin2", "trapezoid", "constant")


@dataclass(frozen=True)
class Envelope:
    """Dimensionless pulse envelope, 0 <= f(t) <= 1.

    shape "gaussian":  exp(-(t-center)^2 / (2 width^2)), width = sigma
    shape "sin2":      sin^2 ramp up and down over a window of length
                       `width` centered on `center`
    shape "trapezoid": linear ramps of length `ramp` at both ends of a
                       base window of length `width` centered on `center`
    shape "constant":  1 everywhere (explicit flat-top mode)
    """

    shape: str
    center: float = 0.0
    width: float = 0.0
    ramp: float = 0.0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown envelope shape {self.shape!r}")
        if self.shape != "constant" and self.width <= 0:
            raise ValueError(f"{self.shape} envelope needs width > 0")
        if self.shape == "trapezoid":
            if self.ramp <= 0:
                raise ValueError("trapezoid envelope needs ramp > 0")
            if 2 * self.ramp > self.width:
                raise ValueError("trapezoid ramps overlap (2*ramp > width)")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.shape == "constant":
            out = np.ones_like(t)
        elif self.shape == "gaussian":
            out = np.exp(-((t - self.center) ** 2) / (2.0 * self.width**2))
        elif self.shape == "sin2":
            lo = self.center - 0.5 * self.width
            x = (t - lo) / self.width
            out = np.where((x >= 0.0) & (x <= 1.0), np.sin(np.pi * np.clip(x, 0.0, 1.0)) ** 2, 0.0)
        else:  # trapezoid
            lo = self.center - 0.5 * self.width
            hi = self.center + 0.5 * self.width
            up = (t - lo) / self.ramp
            down = (hi - t) / self.ramp
            out = np.clip(np.minimum(np.minimum(up, down), 1.0), 0.0, 1.0)
        if out.ndim == 0:
            return float(out)
        return out

    def derivative(self, t):
        """df/dt, same piecewise conventions as __call__."""
        t = np.asarray(t, dtype=float)
        if self.shape == "constant":
            out = np.zeros_like(t)
        elif self.shape == "gaussian":
            out = np.exp(-((t - self.center) ** 2) / (2.0 * self.width**2)) * (
                -(t - self.center) / self.width**2
            )
        elif self.shape == "sin2":
            lo = self.center - 0.5 * self.width
            x = (t - lo) / self.width
            inside = (x >= 0.0) & (x <= 1.0)
            out = np.where(inside, np.pi / self.width * np.sin(2.0 * np.pi * np.clip(x, 0.0, 1.0)), 0.0)
        else:  # trapezoid: +-1/ramp on the ramps, 0 on the flat top and outside
            lo = self.center - 0.5 * self.width
            hi = self.center + 0.5 * self.width
            rising = (t >= lo) & (t < lo + self.ramp)
            falling = (t > hi - self.ramp) & (t <= hi)
            out = np.where(rising, 1.0 / self.ramp, 0.0) + np.where(falling, -1.0 / self.ramp, 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def square_integral(self, t):
        """An antiderivative F of f^2, ns: F(t) - F(t0) is the integral of f^2 over [t0, t].

        Closed forms, same piecewise conventions as __call__: t itself for
        the constant shape, so that differences are exactly t - t0; an erf
        for the gaussian; for sin2 and trapezoid, polynomials in the
        position within the pulse, clipped to its support.
        """
        t = np.asarray(t, dtype=float)
        if self.shape == "constant":
            out = t
        elif self.shape == "gaussian":
            erf = np.asarray(_ERF((t - self.center) / self.width), dtype=float)
            out = (0.5 * math.sqrt(math.pi) * self.width) * erf
        elif self.shape == "sin2":
            # sin^4(pi x) = 3/8 - cos(2 pi x) / 2 + cos(4 pi x) / 8
            x = np.clip((t - (self.center - 0.5 * self.width)) / self.width, 0.0, 1.0)
            out = self.width * (0.375 * x - np.sin(2.0 * np.pi * x) / (4.0 * np.pi)
                                + np.sin(4.0 * np.pi * x) / (32.0 * np.pi))
        else:  # trapezoid: cubics on the ramps, linear on the flat top
            lo = self.center - 0.5 * self.width
            hi = self.center + 0.5 * self.width
            up = np.clip((t - lo) / self.ramp, 0.0, 1.0)
            down = np.clip((hi - t) / self.ramp, 0.0, 1.0)
            flat = np.clip(t, lo + self.ramp, hi - self.ramp) - (lo + self.ramp)
            out = self.ramp / 3.0 * (up**3 + (1.0 - down**3)) + flat
        if out.ndim == 0:
            return float(out)
        return out

    @property
    def switching_time(self) -> float:
        """Characteristic turn-on time scale, ns (inf for flat-top)."""
        if self.shape == "constant":
            return math.inf
        if self.shape == "gaussian":
            return self.width
        if self.shape == "sin2":
            return 0.5 * self.width
        return self.ramp

    @property
    def kinks(self) -> tuple[float, ...]:
        """Times where the derivative of the envelope jumps, ns: the four
        trapezoid ramp ends.  The other shapes have none (at the sin2
        support edges f and f' are continuous; only f'' jumps)."""
        if self.shape != "trapezoid":
            return ()
        lo = self.center - 0.5 * self.width
        hi = self.center + 0.5 * self.width
        return (lo, lo + self.ramp, hi - self.ramp, hi)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Times where the envelope is not smooth, ns: the kinks and the sin2
        support edges, where f'' jumps.  A fixed-order rule that steps across
        one of them loses its order there."""
        if self.shape == "sin2":
            lo = self.center - 0.5 * self.width
            return (lo, lo + self.width)
        return self.kinks

    def shifted(self, dt: float) -> "Envelope":
        """Copy of this envelope displaced by dt in time."""
        if self.shape == "constant":
            return self
        return Envelope(self.shape, self.center + dt, self.width, self.ramp)


@dataclass(frozen=True)
class PulsePair:
    """Parameters of the two pulses over the window [0, duration].

    Amplitudes in V/cm, carriers in ueV, phases in rad.  gamma_* are
    small polarization misalignment angles (field tilted off the x axis
    toward y/z), bounded by 0.3 rad.  Envelopes of any shape other than
    "constant" must vanish (<= 1e-9) at both window edges.
    """

    amp0: float
    amp1: float
    envelope0: Envelope
    envelope1: Envelope
    omega0: float
    omega1: float
    duration: float
    phi0: float = 0.0
    phi1: float = 0.0
    gamma_y0: float = 0.0
    gamma_z0: float = 0.0
    gamma_y1: float = 0.0
    gamma_z1: float = 0.0

    def __post_init__(self):
        if self.amp0 < 0 or self.amp1 < 0:
            raise ValueError("peak amplitudes must be >= 0")
        if self.omega0 <= 0 or self.omega1 <= 0:
            raise ValueError("carrier energies must be > 0")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be finite and > 0, got {self.duration}")
        for name in ("gamma_y0", "gamma_z0", "gamma_y1", "gamma_z1"):
            if abs(getattr(self, name)) > 0.3:
                raise ValueError(f"|{name}| exceeds 0.3 rad")
        for tag, env in (("envelope0", self.envelope0), ("envelope1", self.envelope1)):
            if env.shape == "constant":
                continue
            for edge in (0.0, self.duration):
                val = env(edge)
                if val > _EDGE_TOL:
                    raise ValueError(
                        f"{tag} does not vanish at t={edge} (f={val:.3e}); "
                        "widen the window or use the constant shape explicitly"
                    )

    @property
    def switching_time(self) -> float:
        return min(self.envelope0.switching_time, self.envelope1.switching_time)

    @property
    def gamma_sq_max(self) -> float:
        """Largest squared polarization misalignment over both pulses."""
        return max(
            self.gamma_y0**2,
            self.gamma_z0**2,
            self.gamma_y1**2,
            self.gamma_z1**2,
        )


@dataclass(frozen=True)
class CouplingSet:
    """Rotating-frame couplings and the shared detuning list, ueV.

    delta[k] is the detuning of pulse 0 from the 0->k transition; the
    two-photon condition makes it identical to the detuning of pulse 1
    from the 1->k transition, so a single list serves both.
    """

    lambda0: np.ndarray
    lambda1: np.ndarray
    mu0: np.ndarray
    mu1: np.ndarray
    delta: np.ndarray
    delta_qubit: float

    def __post_init__(self):
        n = len(self.delta)
        for name in ("lambda0", "lambda1", "mu0", "mu1"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length does not match delta list")

    @property
    def n_levels(self) -> int:
        return len(self.delta)

    @property
    def lambda_scale(self) -> np.ndarray:
        """Per-level coupling magnitude max(|lambda0|, |lambda1|)."""
        return np.maximum(np.abs(self.lambda0), np.abs(self.lambda1))

    @property
    def max_lambda_over_delta(self) -> float:
        """max_k |lambda_k / delta_k|, the adiabatic-elimination ratio."""
        with np.errstate(divide="ignore"):
            r = np.where(np.abs(self.delta) > 0, self.lambda_scale / np.abs(self.delta), np.inf)
        return float(np.max(r)) if len(r) else 0.0


def enforce_two_photon_resonance(spectrum: SpectrumModel, omega0: float) -> tuple[float, float]:
    """Return (omega0, omega1) with omega1 locked to omega0 - delta."""
    if omega0 <= 0:
        raise ValueError("omega0 must be > 0")
    omega1 = omega0 - spectrum.delta
    if omega1 <= 0:
        raise ValueError(
            f"two-photon resonance would need omega1 = {omega1} <= 0 "
            f"(omega0={omega0}, qubit splitting={spectrum.delta})"
        )
    return omega0, omega1


def derive_couplings(spectrum: SpectrumModel, pulses: PulsePair) -> CouplingSet:
    """Build the rotating-frame coupling set for a spectrum and drive.

    Requires the pulse carriers to satisfy two-photon resonance against
    the spectrum (omega0 - omega1 equal to the qubit splitting).
    """
    mismatch = (pulses.omega0 - pulses.omega1) - spectrum.delta
    if abs(mismatch) > 1e-9 * max(1.0, abs(spectrum.delta)):
        raise ValueError(
            f"carriers violate two-photon resonance by {mismatch} ueV; "
            "use enforce_two_photon_resonance to derive omega1"
        )
    half0 = 0.5 * pulses.amp0 * DIPOLE_FIELD_TO_UEV
    half1 = 0.5 * pulses.amp1 * DIPOLE_FIELD_TO_UEV
    d0 = spectrum.dipoles_to_0
    d1 = spectrum.dipoles_to_1
    delta = pulses.omega0 - (spectrum.manifold_energies - spectrum.epsilon0)
    return CouplingSet(
        lambda0=d0 * half0,
        lambda1=d1 * half1,
        mu0=d1 * half0,
        mu1=d0 * half1,
        delta=delta,
        delta_qubit=spectrum.delta,
    )


@dataclass(frozen=True)
class RegimeReport:
    """Per-level coupling-hierarchy classification."""

    labels: tuple[str, ...]
    ratio_detuning_coupling: np.ndarray   # |delta_k| / |lambda_k|

    @property
    def all_off_resonant(self) -> bool:
        return all(lab.startswith("off-resonant") for lab in self.labels)

    @property
    def uniform_label(self) -> str:
        """The common label when all levels agree, else 'mixed'."""
        return self.labels[0] if len(set(self.labels)) == 1 else "mixed"


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return math.inf if num > 0 else 0.0
    return num / den


def classify_regime(couplings: CouplingSet) -> RegimeReport:
    """Label each manifold level by its coupling hierarchy.

    "a << b" is taken as rho*a <= b with rho = DOMINANCE_RATIO.  Levels
    whose scales satisfy none of the four orderings come back
    "unclassified".
    """
    rho = DOMINANCE_RATIO
    dq = abs(couplings.delta_qubit)
    labels = []
    r_dc = []
    for k in range(couplings.n_levels):
        dk = abs(float(couplings.delta[k]))
        lmin = min(abs(couplings.lambda0[k]), abs(couplings.lambda1[k]))
        lmax = max(abs(couplings.lambda0[k]), abs(couplings.lambda1[k]))

        if rho * max(dk, dq) <= lmin:
            lab = "resonant-symmetric"
        elif rho * dk <= lmin and rho * lmax <= dq:
            lab = "resonant-asymmetric"
        elif rho * dq <= lmin and rho * lmax <= dk:
            lab = "off-resonant-symmetric"
        elif rho * lmax <= min(dk, dq):
            lab = "off-resonant-asymmetric"
        else:
            lab = "unclassified"
        labels.append(lab)
        r_dc.append(_ratio(dk, lmax))

    return RegimeReport(labels=tuple(labels), ratio_detuning_coupling=np.array(r_dc))


def averaging_period(delta_qubit: float) -> float:
    """Period 2*pi*hbar/Delta of the cross-coupling beat, ns (inf at 0)."""
    if delta_qubit == 0:
        return math.inf
    return 2.0 * math.pi * HBAR / abs(delta_qubit)


def slow_switching_ok(pulses: PulsePair, delta_qubit: float) -> bool:
    """True when envelopes switch slowly against the beat period.

    The coarse-grained model drops terms oscillating at the qubit
    splitting; that is justified when the envelope switching time spans
    at least 10 beat periods.
    """
    period = averaging_period(delta_qubit)
    if math.isinf(period):
        return True
    return pulses.switching_time >= 10.0 * period

