"""Independent reference solutions for the benchmark's correctness checks.

Nothing here imports ddsim.  Every quantity is rebuilt from the plain
parameters the generator writes (energies in ueV, times in ns, fields in
V/cm, dipoles in e*nm) and from the equations stated in the package
docstrings:

* interaction-picture amplitudes c_n with the free phases
  e^{-i eps_n t / hbar} factored out;
* dipole coupling d E(t) with 1 e*nm * 1 V/cm = 0.1 ueV;
* rwa: pulse p keeps only its co-rotating half, so the 0<->k element is
  (lambda_0k f0 e^{i phi0} + mu_1k f1 e^{i phi1} e^{-i Delta t}) e^{i delta_k t}
  and the 1<->k element
  (mu_0k f0 e^{i phi0} e^{+i Delta t} + lambda_1k f1 e^{i phi1}) e^{i delta_k t};
* averaged: crossed couplings dropped, manifold in b_k = c_k e^{i delta_k t};
* bare: full field E(t) = sum_p A_p f_p cos(omega_p t + phi_p) against the
  transition phases e^{-i (E_k - eps_n) t / hbar};
* effective model: adiabatic elimination of the manifold gives the 2x2
  Hamiltonian [[L0 f0^2, L2 f0 f1], [L2* f0 f1, L1 f1^2]]; with a frozen
  mixing angle its propagator is the dressed-state sum
  sum_pm |pm(t)><pm(t0)| exp(-i (phi_mean +- Omega~)).

Propagation uses DOP853 at rtol 1e-12.  The model's two integrals use
composite Gauss-Legendre quadrature split at every envelope kink.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp

HBAR = 0.6582119569  # ueV ns
FIELD = 0.1  # ueV per (e*nm * V/cm)
RTOL = 1e-12
ATOL = 1e-14

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


# ---------------------------------------------------------------------
# plain-parameter physics
# ---------------------------------------------------------------------


def manifold(spec: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energies and dipoles (to |0>, to |1>) of the excited levels.

    Follows the documented recipe: ladder offsets above the lowest level
    (uniform spacing, or doublet pairs whose second member flips the
    sign of its dipole to |1>), seeded relative jitter of the gaps, the
    lowest level pinned at eps1 + omega_exc.
    """
    n = spec["n_levels"]
    shape = spec.get("shape", "uniform")
    idx = np.arange(n, dtype=float)
    if shape == "single":
        offsets = np.zeros(1)
    elif shape == "uniform":
        offsets = spec.get("spacing", 20.0) * idx
    else:
        offsets = (idx // 2) * spec.get("spacing", 20.0) + (idx % 2) * spec.get("doublet_split", 1.0)
    jitter = spec.get("jitter", 0.0)
    if jitter > 0 and n > 1:
        rng = np.random.default_rng(spec.get("seed", 0))
        gaps = np.diff(offsets)
        gaps = gaps * (1.0 + jitter * rng.uniform(-1.0, 1.0, size=gaps.shape))
        offsets = np.concatenate([[0.0], np.cumsum(gaps)])
    eps0 = spec.get("epsilon0", 0.0)
    eps1 = eps0 + spec["delta"]
    energies = eps1 + spec["omega_exc"] + offsets
    d0 = np.full(n, float(spec.get("dipole0", 1.0)))
    d1 = np.full(n, float(spec.get("dipole1", 1.0)))
    if shape == "doublet":
        d1[1::2] *= -1.0
    return energies, d0, d1


class Envelope:
    """Dimensionless envelope with its kink positions (plain recipe)."""

    def __init__(self, block: dict | None, duration: float):
        block = block or {"shape": "constant"}
        self.shape = block["shape"]
        self.center = block.get("center", 0.5 * duration)
        if self.shape == "gaussian":
            self.width = block["width"]
        else:
            self.width = block.get("width", duration)
        self.ramp = block.get("ramp", 0.25 * self.width)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.shape == "constant":
            return np.ones_like(t)
        if self.shape == "gaussian":
            return np.exp(-((t - self.center) ** 2) / (2.0 * self.width**2))
        lo = self.center - 0.5 * self.width
        if self.shape == "sin2":
            x = (t - lo) / self.width
            return np.where((x >= 0.0) & (x <= 1.0), np.sin(np.pi * x) ** 2, 0.0)
        hi = lo + self.width
        return np.clip(np.minimum(np.minimum((t - lo) / self.ramp, (hi - t) / self.ramp), 1.0), 0.0, 1.0)

    def kinks(self) -> list[float]:
        lo = self.center - 0.5 * self.width
        if self.shape == "sin2":
            return [lo, lo + self.width]
        if self.shape == "trapezoid":
            return [lo, lo + self.ramp, lo + self.width - self.ramp, lo + self.width]
        return []


class System:
    """One manifold plus pulse pair, in plain arrays."""

    def __init__(self, energies, d0, d1, delta_q: float, pulses: dict, eps0: float = 0.0):
        self.energies = np.asarray(energies, dtype=float)
        self.d0 = np.asarray(d0, dtype=float)
        self.d1 = np.asarray(d1, dtype=float)
        self.eps0 = eps0
        self.delta_q = float(delta_q)
        self.eps1 = eps0 + self.delta_q
        self.n = len(self.energies)
        self.duration = float(pulses["duration"])
        self.amp0 = float(pulses["amp0"])
        self.amp1 = float(pulses["amp1"])
        self.omega0 = float(pulses["omega0"])
        self.omega1 = self.omega0 - self.delta_q
        self.phi0 = float(pulses.get("phi0", 0.0))
        self.phi1 = float(pulses.get("phi1", 0.0))
        self.env0 = Envelope(pulses.get("envelope0"), self.duration)
        self.env1 = Envelope(pulses.get("envelope1"), self.duration)
        self.det = self.omega0 - (self.energies - self.eps0)  # delta_k, ueV
        self.lam0 = 0.5 * FIELD * self.amp0 * self.d0
        self.lam1 = 0.5 * FIELD * self.amp1 * self.d1
        self.mu0 = 0.5 * FIELD * self.amp0 * self.d1
        self.mu1 = 0.5 * FIELD * self.amp1 * self.d0

    @classmethod
    def from_config(cls, spectrum: dict, pulses: dict) -> "System":
        energies, d0, d1 = manifold(spectrum)
        return cls(energies, d0, d1, spectrum["delta"], pulses, spectrum.get("epsilon0", 0.0))

    # -- exact tiers -----------------------------------------------------

    def _rhs(self, tier: str):
        hb = HBAR
        w = self.det / hb
        wq = self.delta_q / hb
        l0 = self.lam0 * cmath.exp(1j * self.phi0) / hb
        l1 = self.lam1 * cmath.exp(1j * self.phi1) / hb
        m0 = self.mu0 * cmath.exp(1j * self.phi0) / hb
        m1 = self.mu1 * cmath.exp(1j * self.phi1) / hb
        e0, e1 = self.env0, self.env1
        n = self.n
        h = np.zeros((2 + n, 2 + n), dtype=complex)

        if tier == "rwa":
            def rhs(t, y):
                f0, f1 = float(e0(t)), float(e1(t))
                ph = np.exp(1j * w * t)
                bq = cmath.exp(1j * wq * t)
                h[0, 2:] = (l0 * f0 + m1 * f1 / bq) * ph
                h[1, 2:] = (m0 * f0 * bq + l1 * f1) * ph
                h[2:, 0] = h[0, 2:].conj()
                h[2:, 1] = h[1, 2:].conj()
                return -1j * (h @ y)
        elif tier == "averaged":
            h[np.arange(2, 2 + n), np.arange(2, 2 + n)] = -w
            def rhs(t, y):
                f0, f1 = float(e0(t)), float(e1(t))
                h[0, 2:] = l0 * f0
                h[1, 2:] = l1 * f1
                h[2:, 0] = h[0, 2:].conj()
                h[2:, 1] = h[1, 2:].conj()
                return -1j * (h @ y)
        else:
            w0k = (self.energies - self.eps0) / hb
            w1k = (self.energies - self.eps1) / hb
            c0 = FIELD * self.d0 / hb
            c1 = FIELD * self.d1 / hb
            wc0, wc1 = self.omega0 / hb, self.omega1 / hb
            a0, a1, p0, p1 = self.amp0, self.amp1, self.phi0, self.phi1
            def rhs(t, y):
                field = a0 * float(e0(t)) * math.cos(wc0 * t + p0) + a1 * float(e1(t)) * math.cos(wc1 * t + p1)
                h[0, 2:] = field * c0 * np.exp(-1j * w0k * t)
                h[1, 2:] = field * c1 * np.exp(-1j * w1k * t)
                h[2:, 0] = h[0, 2:].conj()
                h[2:, 1] = h[1, 2:].conj()
                return -1j * (h @ y)
        return rhs

    def propagate(self, tier: str, psi0, times) -> np.ndarray:
        """Amplitudes at `times` from one or more initial qubit states.

        psi0 has shape (2,) or (m, 2); all m states share one DOP853 run.
        Returns shape (len(times), 2 + n) or (len(times), m, 2 + n).
        """
        psi0 = np.asarray(psi0, dtype=complex)
        states = psi0.reshape(-1, 2)
        m = len(states)
        y0 = np.zeros((2 + self.n, m), dtype=complex)
        y0[:2] = states.T
        rhs = self._rhs(tier)
        shape = y0.shape
        times = np.asarray(times, dtype=float)
        sol = solve_ivp(lambda t, y: rhs(t, y.reshape(shape)).ravel(), (0.0, times[-1]), y0.ravel(),
                        method="DOP853", t_eval=times, rtol=RTOL, atol=ATOL)
        if not sol.success:
            raise RuntimeError(f"reference propagation failed: {sol.message}")
        out = sol.y.T.reshape(len(times), 2 + self.n, m).transpose(0, 2, 1)
        return out[:, 0] if psi0.ndim == 1 else out

    # -- effective model ---------------------------------------------------

    def sums(self) -> tuple[float, float, complex]:
        """Light shifts L0, L1 and two-photon sum L2, ueV."""
        l0 = float(np.sum(self.lam0**2 / self.det))
        l1 = float(np.sum(self.lam1**2 / self.det))
        l2 = cmath.exp(1j * (self.phi0 - self.phi1)) * complex(np.sum(self.lam0 * self.lam1 / self.det))
        return l0, l1, l2

    def _split_mean(self, t):
        l0, l1, l2 = self.sums()
        f0, f1 = self.env0(t), self.env1(t)
        gap = l0 * f0**2 - l1 * f1**2
        omega = np.sqrt(0.25 * gap**2 + (abs(l2) * f0 * f1) ** 2)
        return omega, 0.5 * (l0 * f0**2 + l1 * f1**2)

    def theta(self, t):
        """Mixing angle; where both envelopes vanish, the identical-shape
        limit atan2(|L2| a0 a1, (L0 a0^2 - L1 a1^2) / 2) with a_p = 1."""
        l0, l1, l2 = self.sums()
        f0, f1 = self.env0(t), self.env1(t)
        dead = (f0 == 0.0) & (f1 == 0.0)
        f0 = np.where(dead, 1.0, f0)
        f1 = np.where(dead, 1.0, f1)
        return np.arctan2(abs(l2) * f0 * f1, 0.5 * (l0 * f0**2 - l1 * f1**2))

    def integrals(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Omega~(t) = int_0^t Omega/hbar and phi(t) = int_0^t mean/hbar."""
        times = np.asarray(times, dtype=float)
        knots = {0.0, *map(float, times)}
        knots |= {k for env in (self.env0, self.env1) for k in env.kinks() if 0.0 < k < times[-1]}
        knots = sorted(knots)
        # subdivide so no panel is longer than 1/400 of the window
        cap = times[-1] / 400.0
        edges = [0.0]
        for lo, hi in zip(knots[:-1], knots[1:]):
            edges.extend(np.linspace(lo, hi, max(1, math.ceil((hi - lo) / cap)) + 1)[1:].tolist())
        edges = np.array(edges)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
        om, mean = self._split_mean(nodes)
        om_cum = np.concatenate([[0.0], np.cumsum(half * (om @ _GL_W))]) / HBAR
        mean_cum = np.concatenate([[0.0], np.cumsum(half * (mean @ _GL_W))]) / HBAR
        pos = np.searchsorted(edges, times)
        return om_cum[pos], mean_cum[pos]

    def model_parts(self, times):
        """su(2) entries u00, u01 and the global phase from t0 = 0 to each time."""
        times = np.asarray(times, dtype=float)
        om, ph = self.integrals(times)
        th0 = float(self.theta(0.0))
        th = self.theta(times)
        _, _, l2 = self.sums()
        alpha = cmath.phase(l2) if l2 != 0 else 0.0
        c0, s0 = math.cos(0.5 * th0), math.sin(0.5 * th0)
        c1, s1 = np.cos(0.5 * th), np.sin(0.5 * th)
        em, ep = np.exp(-1j * om), np.exp(1j * om)
        u00 = em * c1 * c0 + ep * s1 * s0
        u01 = cmath.exp(1j * alpha) * (em * c1 * s0 - ep * s1 * c0)
        glob = np.exp(-1j * (self.eps0 * times / HBAR + ph))
        return u00, u01, glob

    def model_matrices(self, times) -> np.ndarray:
        """Lab-frame closed-form propagators from t0 = 0 to each time."""
        times = np.asarray(times, dtype=float)
        u00, u01, glob = self.model_parts(times)
        beat = np.exp(-1j * self.delta_q * times / HBAR)
        out = np.empty((len(times), 2, 2), dtype=complex)
        out[:, 0, 0] = glob * u00
        out[:, 0, 1] = glob * u01
        out[:, 1, 0] = glob * -np.conj(u01) * beat
        out[:, 1, 1] = glob * np.conj(u00) * beat
        return out


# ---------------------------------------------------------------------
# gate synthesis (criterion-4 rules, from the gates docstring)
# ---------------------------------------------------------------------

TARGETS = {
    "NOT": np.array([[0, 1], [1, 0]], dtype=complex),
    "PHASE": np.array([[1, 0], [0, -1]], dtype=complex),
    "HADAMARD": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
}


def synthesize(target: str, sums, delta_q: float, l: int, bounds=(0.25, 4.0), k_max: int = 64):
    """Pulse-1 ratio, amplitude scale, phase offset, k and duration.

    Mixing angle pi/2 (NOT), pi/4 (HADAMARD) or 0/pi with the second pulse
    off (PHASE); dressed phase Omega~ = pi/2 + pi k; duration l beat
    periods; k is the branch whose common scale factor squared lies
    closest to 1 (in log) inside `bounds`.  Returns None when no branch
    is admissible.
    """
    l0, l1, l2 = sums
    if target == "PHASE":
        theta = 0.0 if l0 > 0 else math.pi
        ratio = 0.0
    else:
        theta = 0.5 * math.pi if target == "NOT" else 0.25 * math.pi
        b = 2.0 * abs(l2) * math.cos(theta) / math.sin(theta)
        disc = b * b + 4.0 * l1 * l0
        if l1 == 0.0 or disc < 0.0:
            return None
        roots = [(-b - math.sqrt(disc)) / (2 * l1), (-b + math.sqrt(disc)) / (2 * l1)]
        pos = sorted(x for x in roots if x > 1e-12)
        if not pos:
            return None
        ratio = pos[0]
    rabi = math.sqrt(0.25 * (l0 - ratio**2 * l1) ** 2 + (ratio * abs(l2)) ** 2)
    duration = l * 2.0 * math.pi * HBAR / delta_q
    best = None
    for k in range(k_max + 1):
        s2 = (0.5 * math.pi + math.pi * k) * HBAR / (rabi * duration)
        if bounds[0] <= s2 <= bounds[1] and (best is None or abs(math.log(s2)) < abs(math.log(best[1]))):
            best = (k, s2)
    if best is None:
        return None
    arg_now = cmath.phase(ratio * l2) if ratio * l2 != 0 else 0.0
    return {
        "ratio": ratio,
        "scale": math.sqrt(best[1]),
        "phase_offset": math.remainder(-arg_now, 2.0 * math.pi),
        "k": best[0],
        "duration": duration,
    }


def fidelity(m: np.ndarray, target: np.ndarray) -> float:
    return float(abs(np.trace(target.conj().T @ m)) / 2.0)
