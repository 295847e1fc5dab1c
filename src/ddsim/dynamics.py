"""Time propagation of the driven qubit-plus-manifold system.

Three tiers of the same physical problem, all expressed in the
interaction picture of the static spectrum (amplitudes c_n with the
free phases e^{-i eps_n t / hbar} factored out):

propagate_bare
    Keeps the full optical carriers, cos(omega t + phi), including
    counter-rotating terms.  Exact but expensive: the steps have to
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
    is integrated over one period with the configured tolerance, and
    the saved states are assembled from it and its powers, so the cost
    no longer grows with the number of periods.  The logged error
    estimate is that of the one period: over m periods the error of a
    saved state can grow up to m-fold.
    The last one-period propagator is kept, so a run with equal
    couplings, phases, tolerance and save offsets (the other basis state
    of a gate check) skips the integration.  Delta = 0, shorter windows
    and shaped envelopes are integrated directly.  Folded or not, a pass
    may form its Omegas from a fixed basis (see below): the beat basis
    with both envelopes constant and Delta != 0 (a fold's one period, as
    in a gate check), the one-envelope basis at Delta = 0 with one shared
    envelope.  Each call logs (INFO) which path it took.

propagate_averaged
    The rwa tier without the crossed couplings and their beat, which
    average out when the envelopes change slowly compared to the beat
    period 2 pi hbar / Delta.  Its amplitudes stay in the shifted
    manifold variables b_k = c_k e^{i delta_k t}, which make the system
    autonomous up to the envelopes; fast and the direct counterpart of
    the analytic effective model.

All three are the same star-coupled equation, and one engine integrates
them.  Each manifold level k couples only to |0> and |1>, so in a frame
b_k = c_k e^{-i w_k t} with constant w_k, H(t)/hbar has
<0|H|k> = g0_k(t), <1|H|k> = g1_k(t) and the constant manifold
diagonal <k|H|k> = w_k.  A tier supplies only its couplings at t and
that diagonal (a _BFrame):

- bare: w_k = (E_k - eps0) / hbar, g0 = s(t) d0 and
  g1 = s(t) d1 e^{i Delta t / hbar}, with s(t) the instantaneous field;
- rwa: w_k = -delta_k / hbar, with the crossed couplings on the beat;
- averaged: the same with the crossed couplings mu0 = mu1 = 0 and the
  beat Delta = 0; one builder (_rwa_frame) serves both tiers.

Every tier takes sixth-order Magnus steps (_magnus; Blanes, Casas, Oteo
& Ros, Phys. Rep. 470, 151 (2009)), their length bounded by the shortest
envelope switching time, and no step crossing an envelope breakpoint.
The steps run in real arithmetic (_magnus_pass): each complex entry a
becomes the block [[Re a, -Im a], [Im a, Re a]], so the anti-Hermitian
generator of dim d becomes a real antisymmetric matrix of dim 2d, and
its exponential is a degree-16 Taylor polynomial by Paterson-Stockmeyer
(Paterson & Stockmeyer, SIAM J. Comput. 2, 60 (1973)), scaled and
squared where the 1-norm exceeds 0.8 (_expm).  A chunk of steps forms
its Omegas in one of two ways: as one product of per-step weights,
computed once per pass, and a fixed basis, with no commutator per step;
or from the couplings at the Gauss nodes (the alpha path).  _rwa_frame
picks the basis:

- one envelope: without a beat (the averaged tier, or rwa at Delta = 0)
  and with envelope0 == envelope1 (constant included), the generator is
  -i (diag + f(t) V) with a constant star V, so every step's Omega is a
  combination of ten fixed matrices whose weights are fixed combinations
  of fifteen monomials in the step and the envelope at its nodes.  The
  ten matrices, with the constant weights folded in, are built once per
  run (_one_envelope_basis), and the run logs "magnus (one envelope)".
- beat: with both envelopes constant and Delta != 0 (rwa) the couplings
  depend on t only through theta = Delta t / hbar, so at a fixed step the
  sixth-order Omega is a trigonometric polynomial in theta, of degree 3:
  each entry sums paths of at most five hops between the qubit and the
  manifold, only the crossed couplings carry e^{+-i theta}, and the hops
  alternate, so they reach at most e^{+-3 i theta}.  A pass of one step
  width and more than _MAGNUS_CHUNK steps (fewer do not repay the seven
  samples) takes Omega at seven phases once, its real Fourier
  coefficients by a discrete Fourier transform, and the manifold
  diagonal as an eighth matrix (_beat_basis), weighted by
  [1, cos n theta, sin n theta, 1] at the steps' starts; the run logs
  "magnus (beat Fourier basis)".

Every other pass (bare, shaped runs with a beat or with two envelopes,
and beat passes of several step widths or at most _MAGNUS_CHUNK steps)
takes the alpha path.  Where the generator is constant (both envelopes
constant in the averaged tier, or in the rwa tier at Delta = 0) every
step is exact to rounding.  Each step is orthogonal to rounding (the
Taylor remainder is below eps), so a norm check cannot see the step
error: each run is repeated at half the step, and the step halved until
the step-doubling error estimate is at most tol (or the rounding floor
eps * steps, with a warning when the floor accepts what tol would not),
else PropagationError.  A NaN or infinite coupling fails the
exponential's norm check in the first pass.

Norms are still checked, never renormalized: a drift of sum |c|^2 from 1
beyond _NORM_TOL raises PropagationError.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np
# no tier calls solve_ivp; bench/tracing.py (FUNCTIONS, by getattr) and bench/baseline.py read this name
from scipy.integrate import solve_ivp  # noqa: F401

from .drive import CouplingSet, PulsePair, averaging_period, slow_switching_ok
from .spectrum import SpectrumModel
from .units import DIPOLE_FIELD_TO_UEV, HBAR

logger = logging.getLogger(__name__)

FRAMES = ("bare", "rwa", "averaged")
_NORM_TOL = 1e-6  # largest drift of sum |c|^2 from 1 that a run may show


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

    Every tier takes Magnus steps no longer than the shortest envelope
    switching time, halved until their step-doubling error estimate is
    at most tol (the amplitudes have norm 1); a folded rwa run estimates
    the error of one beat period.
    """

    tol: float = 1.01e-10
    save_points: int = 201

    def __post_init__(self):
        if not self.tol > 0:  # also rejects NaN
            raise ValueError("tol must be > 0")
        if not float(self.save_points).is_integer():  # also rejects NaN and inf
            raise ValueError(f"save_points must be an integer, got {self.save_points!r}")
        if self.save_points < 2:
            raise ValueError("save_points must be >= 2")
        object.__setattr__(self, "save_points", int(self.save_points))


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


# the three Gauss-Legendre nodes on [0, 1]
_GAUSS3 = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15.0) / 10.0)
_MAGNUS_STEPS_PER_PERIOD = 10  # first step: this many per period of the norm bound on H
_MAGNUS_CHUNK = 64  # steps per array pass; 256 raised the peak memory of a sweep by about 3 MB
_MAGNUS_MAX_HALVINGS = 5  # halvings after the first h against h/2 comparison
# the sixth-order Magnus step of three Gauss nodes (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)) takes
# alpha_j = -i h G_j on the qubit-manifold block, with the G_j from the couplings g_l at the nodes by these rows
# (G_1 = g_2, G_2 = sqrt(15)/3 (g_3 - g_1), G_3 = 10/3 (g_3 - 2 g_2 + g_1)); alpha_1 adds -i h diag on the manifold
# diagonal, which drops out of the node differences
_ALPHA_NODES = np.array([[0.0, 1.0, 0.0],
                         [-math.sqrt(15.0) / 3.0, 0.0, math.sqrt(15.0) / 3.0],
                         [10.0 / 3.0, -20.0 / 3.0, 10.0 / 3.0]])
# with (F1, F2, F3) = _ALPHA_NODES @ f the one-envelope alpha_j are a1 = h (P + F1 Q), a2 = h F2 Q and
# a3 = h F3 Q (see _one_envelope_basis), and _magnus_pass's Omega = a1 + a3 / 12 + [X, Y] with
# X = -(h / 12) P - h (20 F1 + F3) / 240 Q + h^2 F2 / 240 K and
# Y = h F2 Q - h^2 F3 / 30 K - h^3 F2 / 60 [P, K] - h^3 F1 F2 / 60 [Q, K].  Expanded, Omega's weight on each of the
# ten matrices P, Q, K, [P, K], [P, [P, K]], [P, [Q, K]], [Q, K], [Q, [Q, K]], [K, [P, K]] and [K, [Q, K]] (the
# columns) is a sum of fifteen monomials (the rows) times constants.  Each monomial feeds one matrix: the rows
# h, h F1, h F3, h^2 F2, h^3 F3, h^4 F2, h^4 F1 F2, h^4 F2 F3, h^3 F1 F3, h^3 F3^2, h^3 F2^2, h^4 F1^2 F2,
# h^4 F1 F2 F3, h^5 F2^2 and h^5 F1 F2^2 weigh these columns by these constants
_ONE_ENVELOPE_WEIGHTS = np.zeros((15, 10))
_ONE_ENVELOPE_WEIGHTS[np.arange(15), [0, 1, 1, 2, 3, 4, 5, 5, 6, 6, 6, 7, 7, 8, 9]] = [
    1.0, 1.0, 1.0 / 12.0, -1.0 / 12.0, 1.0 / 360.0, 1.0 / 720.0, 1.0 / 360.0, 1.0 / 14400.0, 1.0 / 360.0,
    1.0 / 7200.0, -1.0 / 240.0, 1.0 / 720.0, 1.0 / 14400.0, -1.0 / 14400.0, -1.0 / 14400.0]
_TAYLOR_NORM = 0.8  # largest 1-norm of a Taylor exponential: its degree-16 remainder, about 0.8^17 / 17!, is below eps
# exp(x) to degree 16 is B_0 + x^4 (B_1 + x^4 (B_2 + x^4 B_3)), with B_i = sum_{j=0..3} x^j / (4 i + j)! and B_3 also
# holding x^4 / 16! (Paterson & Stockmeyer, SIAM J. Comput. 2, 60 (1973)); row i holds B_i's coefficients of 1, x,
# x^2, x^3 and x^4
_TAYLOR_BLOCKS = np.array([[1.0 / math.factorial(4 * i + j) for j in range(4)] + [0.0] for i in range(4)])
_TAYLOR_BLOCKS[3, 4] = 1.0 / math.factorial(16)


@dataclass(frozen=True)
class _BFrame:
    """A tier's star-coupled equations in its frame b_k = c_k e^{-i diag_k t}.

    couplings(t) takes a time array of shape (N,) and returns g0, g1 of
    shape (N, n), <0|H|k> / hbar and <1|H|k> / hbar; diag is the constant
    manifold diagonal <k|H|k> / hbar; rate bounds the norm of H/hbar,
    rad/ns.  With c_frame the saved amplitudes are taken back to the c
    frame.  At most one fixed basis applies, as _rwa_frame picks it.
    Where both couplings follow one envelope, g_q = f(t) v_q (no beat and
    envelope0 == envelope1), envelope is f and basis is
    _one_envelope_basis(diag, v0, v1); _magnus_pass then forms each Omega
    from them and never calls couplings.  Where the couplings depend on t
    only through the beat phase beat * t, rad (an rwa run with both
    envelopes constant and Delta != 0, beat = Delta / hbar), beat is set,
    and a pass of one step width and more than _MAGNUS_CHUNK steps forms
    each Omega from _beat_basis.  Every other pass takes the alpha_j from
    couplings (see _magnus_pass).
    """

    couplings: Callable
    diag: np.ndarray
    rate: float
    c_frame: bool = False
    envelope: Callable | None = None
    basis: np.ndarray | None = None
    beat: float | None = None


def _one_envelope_basis(diag, v0, v1):
    """The fifteen real-form matrices, flattened to shape (15, (2 dim)^2), whose combinations are every Magnus
    Omega of the generator -i (D + f(t) V) with one envelope f, weighted by _one_envelope_monomials.

    D is diag on the manifold and V the star <0|V|k> = v0_k, <1|V|k> = v1_k.  With P = -i D, Q = -i V and
    K = [P, Q], Omega is a combination of the ten matrices P, Q, K, [P, K], [P, [P, K]], [P, [Q, K]], [Q, K],
    [Q, [Q, K]], [K, [P, K]] and [K, [Q, K]] ([Q, [P, K]] = [P, [Q, K]] by Jacobi), whose weights are
    _ONE_ENVELOPE_WEIGHTS' combinations of the monomials; the returned matrices are those combinations.
    """
    dim = 2 + len(diag)
    m = 2 * dim
    gen = np.zeros((2, dim, dim), dtype=complex)
    gen[0, 2:, 2:] = np.diag(-1j * np.asarray(diag))
    gen[1, :2, 2:] = -1j * np.array([v0, v1])
    gen[1, 2:, :2] = -np.conj(gen[1, :2, 2:]).T
    words = np.empty((10, m, m))
    real = words[:2].reshape(2, dim, 2, dim, 2)
    real[:, :, 0, :, 0] = real[:, :, 1, :, 1] = gen.real
    real[:, :, 1, :, 0] = gen.imag
    real[:, :, 0, :, 1] = -gen.imag
    p, q, k, pk, ppk, pqk, qk, qqk, kpk, kqk = words[:, None]  # stacks of one
    scratch = np.empty((1, m, m))
    for x, y, out in ((p, q, k), (p, k, pk), (q, k, qk), (p, pk, ppk), (p, qk, pqk), (q, qk, qqk), (k, pk, kpk),
                      (k, qk, kqk)):
        _commutator(x, y, out, scratch)
    return _ONE_ENVELOPE_WEIGHTS @ words.reshape(10, -1)


def _one_envelope_monomials(h, f):
    """Per-step weights, shape (N, 15), of _one_envelope_basis in Omega, from the step widths h, shape (N,), and
    the envelope at the Gauss nodes f, shape (3, N): the monomials of _ONE_ENVELOPE_WEIGHTS' rows."""
    f1, f2, f3 = _ALPHA_NODES @ f
    h2 = h * h
    h3, h4 = h2 * h, h2 * h2
    h3f3, h4f2, h3f22 = h3 * f3, h4 * f2, h3 * (f2 * f2)
    h4f1f2, h5f22 = h4f2 * f1, h3f22 * h2
    return np.stack((h, h * f1, h * f3, h2 * f2, h3f3, h4f2, h4f1f2, h4f2 * f3, h3f3 * f1, h3f3 * f3, h3f22,
                     h4f1f2 * f1, h4f1f2 * f3, h5f22, h5f22 * f1), axis=1)


def _commutator(x, y, out, scratch):
    """[x, y] of stacked real antisymmetric matrices into out: xy - yx, where yx = (xy)^T."""
    np.matmul(x, y, out=scratch)
    np.subtract(scratch, np.swapaxes(scratch, 1, 2), out=out)


def _alpha_work(c, dim, scratch):
    """_alpha_omega's work arrays for c steps: the alpha_j in real form, zero but for what each call writes, its
    views, and scratch, three contiguous arrays of shape (c, 2 dim, 2 dim)."""
    # the alpha_j in real form, seen as complex pairs of columns: row (l, Re or Im) holds conj(a_lj) and
    # i conj(a_lj) at column j.  Each call writes the qubit-manifold blocks and alpha_1's manifold diagonal; the
    # other entries stay 0
    alpha = np.zeros((3, c, dim, 2, 2 * dim))
    pairs = alpha.view(complex)
    upper, lower = pairs[:, :, :2, :, 2:], np.swapaxes(pairs[:, :, 2:, :, :2], 2, 4)
    # alpha_1's entries (k, Re; k) and (k, Im; k) for k >= 2, stride apart from k to k + 1
    flat, stride = pairs[0].reshape(c, -1), 2 * dim + 1
    diag, diag_im = flat[:, 2 * stride:: stride], flat[:, 2 * stride + dim:: stride]
    return alpha, upper, lower, diag, diag_im, scratch


def _alpha_omega(frame, nodes, h, work, omega):
    """The sixth-order Omegas of c steps of widths h, shape (c,), from frame.couplings at their Gauss nodes,
    shape (3, c), into omega, shape (c, m, m); work is _alpha_work's for c steps, and its scratch is spent."""
    alpha, upper, lower, diag, diag_im, (scratch, c1, arg) = work
    c, dim, m = len(h), alpha.shape[2], alpha.shape[-1]
    g0, g1 = frame.couplings(nodes.ravel())
    g = np.stack((g0, g1), axis=1).astype(complex, copy=False).reshape(3, -1).view(float)
    # conj(a_qk) = i conj(h G_qk) and, as a_kq = -conj(a_qk), conj(a_kq) = i h G_qk; conj(a_kk) = i h diag_k
    hg = (_ALPHA_NODES @ g).view(complex).reshape(3, c, 2, dim - 2) * h[:, None, None]
    hgc = np.conj(hg)
    np.multiply(hgc, 1j, out=upper[:, :, :, 0])
    np.negative(hgc, out=upper[:, :, :, 1])
    np.multiply(hg, 1j, out=lower[:, :, :, 0])
    np.negative(hg, out=lower[:, :, :, 1])
    hd = h[:, None] * frame.diag
    np.multiply(hd, 1j, out=diag)
    np.negative(hd, out=diag_im)
    # Omega = a1 + a3 / 12 + [-20 a1 - a3 + c1, a2 + c2] / 240, c1 = [a1, a2], c2 = -[a1, 2 a3 + c1] / 60
    a1, a2, a3 = alpha.reshape(3, c, m, m)
    _commutator(a1, a2, c1, scratch)
    np.add(c1, a3, out=arg)
    arg += a3
    arg *= -1.0 / 60.0
    _commutator(a1, arg, arg, scratch)
    arg += a2
    np.multiply(a1, -20.0, out=scratch)
    c1 += scratch
    c1 -= a3
    c1 *= 1.0 / 240.0
    _commutator(c1, arg, omega, scratch)
    np.multiply(a3, 1.0 / 12.0, out=scratch)
    scratch += a1
    omega += scratch


def _takes_beat_basis(frame, knots, counts, steps):
    """Whether _magnus_pass takes the Omegas of its counts[j] steps over [knots[j], knots[j + 1]], steps in all,
    from _beat_basis: frame has a beat, there are more than _MAGNUS_CHUNK steps (the seven samples cost about one
    chunk of the alpha path), and every step has one width."""
    if frame.beat is None or steps <= _MAGNUS_CHUNK:
        return False
    widths = np.diff(knots) / counts
    return bool(np.all(widths == widths[0]))


def _beat_weights(theta):
    """Rows [1, cos theta, sin theta, cos 2 theta, sin 2 theta, cos 3 theta, sin 3 theta, 1], shape
    (len(theta), 8): each row weighs _beat_basis in the Omega of the step that starts at beat phase theta."""
    out = np.ones((len(theta), 8))
    n_theta = np.multiply.outer(theta, np.arange(1.0, 4.0))
    out[:, 1:7:2] = np.cos(n_theta)
    out[:, 2:7:2] = np.sin(n_theta)
    return out


def _beat_basis(frame, h, dim):
    """The eight real-form matrices, flattened to shape (8, (2 dim)^2), whose combination by _beat_weights(beat t)
    is the Omega of a step of width h from t, for a frame with a beat.

    Omega is a trigonometric polynomial of degree 3 in theta = beat * t.  Each of its entries is a sum over paths
    of at most five hops between the qubit and the manifold (its deepest term nests five alpha_j, and the
    manifold diagonal does not change the degree).  Only the crossed couplings carry the beat, e^{-i theta} on
    <0|H|k> and e^{+i theta} on <1|H|k> (conjugated on the way back), and the hops alternate between the qubit
    and the manifold, so five of them reach at most e^{+-3 i theta}.  So the alpha path's Omega at the seven
    phases theta_s = 2 pi s / 7 gives its real Fourier coefficients exactly, to rounding: the mean, and
    (2 / 7) sum_s cos(n theta_s) Omega_s and (2 / 7) sum_s sin(n theta_s) Omega_s for n = 1, 2, 3.  The
    manifold diagonal h diag is taken out of the samples (exactly, as the rest of those entries is smaller) and
    is the eighth matrix, of weight 1, so each step adds it whole, as the alpha path does: in the mean its
    rounding, up to half an ulp, would repeat on every step.
    """
    m = 2 * dim
    theta = 2.0 * math.pi / 7.0 * np.arange(7)
    widths = np.full(7, h)
    samples = np.zeros((8, m, m))
    _alpha_omega(frame, theta / frame.beat + _GAUSS3[:, None] * widths, widths,
                 _alpha_work(7, dim, np.empty((3, 7, m, m))), samples[:7])
    samples = samples.reshape(8, -1)
    # the real-form manifold diagonal h diag: entries (2k, 2k + 1) and, negated, (2k + 1, 2k) for each level k >= 2
    up, down = samples[:, 4 * m + 5:: 2 * m + 2], samples[:, 5 * m + 4:: 2 * m + 2]
    hd = h * frame.diag
    up[:7] -= hd
    down[:7] += hd
    up[7], down[7] = hd, -hd
    dft = _beat_weights(theta)[:, :7].T * (np.array([1.0] + [2.0] * 6) / 7.0)[:, None]
    samples[:7] = dft @ samples[:7]
    return samples


def _expm(powers, blocks):
    """exp of the stacked real antisymmetric matrices x in powers[1], shape (N, m, m); returns a view of powers.

    A Taylor polynomial of degree 16 in six stacked products (see
    _TAYLOR_BLOCKS).  Where the stack's largest 1-norm exceeds
    _TAYLOR_NORM, x is scaled by 2^-s below it and the result squared s
    times.  The result is orthogonal to rounding: the Taylor remainder is
    below eps.  A non-finite x raises PropagationError.  powers, of shape
    (5, N, m, m) with the identity in powers[0], and blocks, of shape
    (4, N, m, m), are contiguous work arrays.
    """
    _, x, x2, x3, x4 = powers
    m = x.shape[-1]
    np.abs(x, out=x2)
    norm = float(np.max(x2.reshape(-1, m) @ np.ones(m)))  # largest row sum, equal to the largest column sum
    squarings = 0
    if not norm <= _TAYLOR_NORM:
        if not math.isfinite(norm):
            raise PropagationError("Magnus step failed (non-finite generator); are the couplings finite?")
        squarings = math.ceil(math.log2(norm / _TAYLOR_NORM))
        x *= 0.5 ** squarings
    np.matmul(x, x, out=x2)
    np.matmul(x2, x, out=x3)
    np.matmul(x2, x2, out=x4)
    np.matmul(_TAYLOR_BLOCKS, powers.reshape(5, -1), out=blocks.reshape(4, -1))
    # x, x^2 and x^3 are spent: the Horner steps alternate between their arrays
    np.matmul(x4, blocks[3], out=x)
    x += blocks[2]
    np.matmul(x4, x, out=x2)
    x2 += blocks[1]
    np.matmul(x4, x2, out=x)
    x += blocks[0]
    p, q = x, x2
    for _ in range(squarings):
        np.matmul(p, p, out=q)
        p, q = q, p
    return p


def _magnus_pass(frame, y0, knots, counts):
    """States at every knot, from y0 at knots[0], by counts[j] equal Magnus steps over [knots[j], knots[j + 1]].

    Each step takes exp(Omega) with the sixth-order Omega of three Gauss
    points (see _ALPHA_NODES), _MAGNUS_CHUNK steps at a time, in real
    arithmetic and without LAPACK: each complex entry a becomes the block
    [[Re a, -Im a], [Im a, Re a]], so the anti-Hermitian alpha_j of dim d
    become real antisymmetric matrices of dim 2d.  For those, yx = (xy)^T,
    so each commutator takes one stacked product, and exp(Omega) is
    _expm's Taylor polynomial, orthogonal to rounding.  A chunk's Omegas
    are either one product of its rows of the pass's per-step weights and
    a basis, equal to the alpha_j's Omega to rounding (one envelope:
    _one_envelope_monomials of the widths and the envelope at the nodes,
    and frame.basis; a beat, where _takes_beat_basis: _beat_weights at the
    steps' starts and _beat_basis), or _alpha_omega's from the couplings
    at the nodes (the alpha path, which alone allocates its work array).
    The state (or propagator) is advanced with the rows (Re, Im) of each
    amplitude and taken back to complex once, at the end.  A non-finite
    generator raises PropagationError in the first chunk.
    """
    dim = len(y0)
    m = 2 * dim
    widths = np.diff(knots) / counts
    ends = np.cumsum(counts)  # steps done at the end of each gap

    def span(first, stop):  # the gap of each of the steps first..stop - 1, and the step's index within it
        step = np.arange(first, stop)
        gap = np.searchsorted(ends, step, side="right")
        return gap, step - ends[gap] + counts[gap]

    def nodes(gap, local):  # their Gauss nodes, shape (3, c)
        return knots[gap] + (local + _GAUSS3[:, None]) * widths[gap]

    y = np.stack((y0.real, y0.imag), axis=1).reshape((m,) + y0.shape[1:])
    out = np.empty((len(knots),) + y.shape)
    out[0] = y
    c = 0
    # a non-finite generator is reported by _expm's norm check, not by warnings on the way
    with np.errstate(invalid="ignore", over="ignore"):
        weights = None
        if frame.basis is not None:
            gap, local = span(0, ends[-1])
            basis = frame.basis
            weights = _one_envelope_monomials(widths[gap], frame.envelope(nodes(gap, local).ravel()).reshape(3, -1))
        elif _takes_beat_basis(frame, knots, counts, ends[-1]):
            gap, local = span(0, ends[-1])
            basis = _beat_basis(frame, widths[0], dim)
            weights = _beat_weights(frame.beat * (knots[gap] + local * widths[0]))
        for first in range(0, ends[-1], _MAGNUS_CHUNK):
            gap, local = span(first, min(first + _MAGNUS_CHUNK, ends[-1]))
            if len(gap) != c:  # the first chunk and a shorter last one allocate; the others reuse
                c = len(gap)
                powers, blocks = np.empty((5, c, m, m)), np.empty((4, c, m, m))
                powers[0] = np.eye(m)
                omega = powers[1]  # where _expm takes its argument
                if weights is None:
                    work = _alpha_work(c, dim, blocks[:3])  # the scratch is spent before _expm needs blocks
            if weights is None:
                _alpha_omega(frame, nodes(gap, local), widths[gap], work, omega)
            else:
                np.matmul(weights[first:first + c], basis, out=omega.reshape(c, -1))
            props = _expm(powers, blocks)
            for prop, j, last in zip(props, gap.tolist(), (local + 1 == counts[gap]).tolist()):
                y = prop.dot(y)
                if last:  # the step ends gap j
                    out[j + 1] = y
    return out[:, 0::2] + 1j * out[:, 1::2]


def _magnus(frame, y0, grid, breaks, tol, cap=math.inf):
    """Amplitudes on grid by Magnus-6 steps, and (steps, halvings, error estimate, tolerance, path).

    Steps are equal within each gap between saved times and envelope
    breakpoints (breaks), no longer than cap (ns) and first about
    1/_MAGNUS_STEPS_PER_PERIOD of the period 2 pi / frame.rate.  y0
    is one state of shape (dim,) or a propagator of shape (dim, dim).  Each run
    is repeated at half the step; the estimate of the finer run's error
    is max |y_h - y_{h/2}| / 63 (sixth order), and while it exceeds
    tol (the state has norm 1), or the rounding floor eps * steps,
    the step is halved again, at most _MAGNUS_MAX_HALVINGS times.  Where
    the generator is constant the node differences vanish and every step
    is exact.  path names how the accepted pass formed its Omegas:
    "magnus", "magnus (one envelope)" or "magnus (beat Fourier basis)".
    """
    knots = np.union1d(grid, [b for b in breaks if grid[0] < b < grid[-1]])
    period = 2.0 * math.pi / frame.rate if frame.rate > 0 else math.inf
    h = min(period / _MAGNUS_STEPS_PER_PERIOD, cap)
    counts = np.maximum(np.ceil(np.diff(knots) / h), 1.0).astype(int)  # h is inf at a rate of 0 or NaN
    coarse = _magnus_pass(frame, y0, knots, counts)
    for halvings in range(_MAGNUS_MAX_HALVINGS + 1):
        counts = 2 * counts
        fine = _magnus_pass(frame, y0, knots, counts)
        estimate = float(np.max(np.abs(fine - coarse))) / 63.0
        steps = int(counts.sum())
        accept = max(tol, np.finfo(float).eps * steps)
        if estimate <= accept:
            path = ("magnus (one envelope)" if frame.basis is not None
                    else "magnus (beat Fourier basis)" if _takes_beat_basis(frame, knots, counts, steps)
                    else "magnus")
            return fine[np.searchsorted(knots, grid)], (steps, halvings, estimate, accept, path)
        coarse = fine
    raise PropagationError(
        f"Magnus error estimate {estimate:.3e} exceeds its tolerance {accept:.1e} after "
        f"{_MAGNUS_MAX_HALVINGS} halvings of the step ({steps} steps); loosen tol"
    )


# (key, read-only propagators U(taus), their Magnus facts) of the last one-period integration in _fold
_one_period_memo = None


def _fold(frame, psi0, grid, period, tol, key):
    """b-frame amplitudes on grid from the propagator of one period (Floquet), its Magnus facts, and
    whether the kept propagator served.

    frame (a _BFrame) must repeat itself after `period`: H_b(t + P) = H_b(t).
    The propagators U(tau) over [0, tau] are integrated once by _magnus to tol, and
    a saved time t = m P + tau takes b(t) = U(tau) F^m psi0 with F = U(P),
    the powers built by binary powering between save points.  The facts
    (steps, halvings, error estimate, tolerance, path) are those of the one
    period: the error of b(t) can grow up to m-fold over m periods.

    key must fix frame (its couplings).  With tol and the offsets tau,
    which end at P, it names the integration; the last one is kept and
    reused when a call names it again.
    """
    global _one_period_memo
    dim = len(psi0)
    periods = np.floor(grid / period)
    offsets = np.clip(grid - periods * period, 0.0, period)
    # l P / P can round either side of l: an offset a few ulp short of P starts the next period, and one a few
    # ulp past 0 is 0
    slack = 4.0 * np.spacing(grid)
    wrap = offsets >= period - slack
    periods[wrap] += 1.0
    offsets[wrap | (offsets <= slack)] = 0.0
    taus = np.unique(np.append(offsets, period))

    key += (tol, taus.tobytes())
    memo = _one_period_memo
    reused = memo is not None and memo[0] == key
    if reused:
        props, facts = memo[1], memo[2]
    else:
        props, facts = _magnus(frame, np.eye(dim, dtype=complex), taus, (), tol)
        props.flags.writeable = False
        _one_period_memo = (key, props, facts)
    squares = [props[-1]]  # F^(2^i)
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
    return out, facts, reused


def _propagate(model, psi0, frame, n_excited, pulses, settings, period=None, key=()):
    """Integrate the star-coupled equations of a tier from psi0 over [0, pulses.duration].

    model is the tier's b-frame form (a _BFrame), which Magnus steps
    integrate (see _magnus); with a period, the one-period propagator is
    integrated instead and the run is folded (see _fold), and key is a
    tuple of the values (bytes or floats) that fix the frame's couplings.
    """
    settings = settings or IntegratorSettings()
    if psi0.frame != frame:
        raise ValueError(f"initial state is in frame {psi0.frame!r}, expected {frame!r}")
    if len(psi0.amplitudes) != 2 + n_excited:
        raise ValueError(
            f"state has {len(psi0.amplitudes)} amplitudes, structure needs {2 + n_excited}"
        )

    grid = np.linspace(0.0, pulses.duration, settings.save_points)
    if period is None:
        breaks = pulses.envelope0.breakpoints + pulses.envelope1.breakpoints
        # Magnus steps are equal across a save interval, so where the envelopes vanish nothing else would keep
        # them from stepping over a pulse; the shortest switching time bounds them
        ys, facts = _magnus(model, psi0.amplitudes, grid, breaks, settings.tol, pulses.switching_time)
        reused = False
    else:
        ys, facts, reused = _fold(model, psi0.amplitudes, grid, period, settings.tol, key)
    steps, halvings, estimate, floor, method = facts
    if period is not None:
        method = f"folded over {grid[-1] / period:.6g} beat periods of P = {period:.6g} ns, one period by {method}"
    logger.info("%s propagation: %s over %d steps, %d halvings, error estimate %.2e (tolerance %.1e)%s",
                frame, method, steps, halvings, estimate, floor, " (one-period propagator reused)" if reused else "")
    if estimate > settings.tol:
        warnings.warn(
            f"Magnus error estimate {estimate:.3e} exceeds the requested tol = "
            f"{settings.tol:.3e}; accepted under the rounding floor eps * {steps} steps "
            f"= {floor:.3e}",
            stacklevel=3,
        )
    if model.c_frame:
        ys[:, 2:] *= np.exp(1j * np.outer(grid, model.diag))

    traj = Trajectory(grid, ys, frame)
    drift = traj.norm_drift
    if not drift <= _NORM_TOL:  # also catches a NaN drift
        raise PropagationError(
            f"{frame} propagation lost norm: max |sum|c|^2 - 1| = {drift:.3e} exceeds {_NORM_TOL:.1e}"
        )
    return traj


# ---------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------


def _rwa_frame(couplings, pulses, crossed):
    """The _BFrame of the rwa tier (crossed) or of the averaged tier, and the period and memo key of its fold, or
    None and () where the run is not folded.

    The averaged tier is the rwa tier with mu0 = mu1 = 0, the beat 0 and b-frame amplitudes.  The frame picks the
    Omega form (see the module docstring): one envelope, the couplings being f(t) (lambda0 + mu1) and
    f(t) (mu0 + lambda1); the beat, folded over at least two beat periods; else the alpha path.
    """
    wd = couplings.delta / HBAR                            # detuning phases, rad/ns
    wq = couplings.delta_qubit / HBAR if crossed else 0.0  # beat phase, rad/ns
    env0, env1 = pulses.envelope0, pulses.envelope1
    # a non-finite coupling is reported by the first pass, not by warnings here
    with np.errstate(invalid="ignore", over="ignore"):
        phase0, phase1 = np.exp(1j * pulses.phi0), np.exp(1j * pulses.phi1)
        lam0 = couplings.lambda0 * phase0 / HBAR
        lam1 = couplings.lambda1 * phase1 / HBAR
        mu0, mu1 = ((couplings.mu0 * phase0 / HBAR, couplings.mu1 * phase1 / HBAR) if crossed
                    else (np.zeros_like(lam0), np.zeros_like(lam1)))
        g_max = np.hypot(np.abs(lam0) + np.abs(mu1), np.abs(mu0) + np.abs(lam1))
        rate = np.max(np.abs(wd), initial=0.0) + abs(wq) + np.linalg.norm(g_max)
        one_envelope = wq == 0.0 and env0 == env1
        basis = _one_envelope_basis(-wd, lam0 + mu1, mu0 + lam1) if one_envelope else None

    def b_couplings(t):
        f0 = env0(t)[:, None]
        f1 = env1(t)[:, None]
        if not crossed:  # mu0 = mu1 = 0: adding them would cost about 5% of an alpha-path step
            return lam0 * f0, lam1 * f1
        beat = np.exp(1j * wq * t)[:, None]
        return lam0 * f0 + mu1 * f1 / beat, mu0 * f0 * beat + lam1 * f1

    beating = env0.shape == env1.shape == "constant" and wq != 0.0  # the couplings depend on t only through wq t
    frame = _BFrame(b_couplings, -wd, rate, c_frame=crossed, envelope=env0 if one_envelope else None, basis=basis,
                    beat=wq if beating else None)
    period = averaging_period(couplings.delta_qubit)
    if beating and pulses.duration >= 2.0 * period:
        # the envelopes are 1, so these fix the couplings
        return frame, period, tuple(a.tobytes() for a in (lam0, lam1, mu0, mu1, wd)) + (wq,)
    return frame, None, ()


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
    frame, period, key = _rwa_frame(couplings, pulses, crossed=True)
    return _propagate(frame, psi0, "rwa", couplings.n_levels, pulses, settings, period, key)


def propagate_averaged(
    couplings: CouplingSet,
    pulses: PulsePair,
    psi0: StateVector,
    settings: IntegratorSettings | None = None,
) -> Trajectory:
    """Integrate the beat-averaged equations in the b_k variables: the rwa tier without the crossed couplings.

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
    frame, _, _ = _rwa_frame(couplings, pulses, crossed=False)
    return _propagate(frame, psi0, "averaged", couplings.n_levels, pulses, settings)


def propagate_bare(
    spectrum: SpectrumModel,
    pulses: PulsePair,
    psi0: StateVector,
    settings: IntegratorSettings | None = None,
) -> Trajectory:
    """Integrate with the full carriers, no rotating-wave approximation.

    Magnus steps in the frame b_k = c_k e^{-i (E_k - eps0) t / hbar}
    resolve the carriers, so runtime grows with omega0 * duration.
    """
    w0 = pulses.omega0 / HBAR
    w1 = pulses.omega1 / HBAR
    w0k = (spectrum.manifold_energies - spectrum.epsilon0) / HBAR
    wq = spectrum.delta / HBAR
    d0 = spectrum.dipoles_to_0 * DIPOLE_FIELD_TO_UEV / HBAR
    d1 = spectrum.dipoles_to_1 * DIPOLE_FIELD_TO_UEV / HBAR
    amp0, amp1 = pulses.amp0, pulses.amp1
    phi0, phi1 = pulses.phi0, pulses.phi1
    env0, env1 = pulses.envelope0, pulses.envelope1

    def b_couplings(t):
        # the instantaneous field, V/cm
        s = (amp0 * env0(t) * np.cos(w0 * t + phi0) + amp1 * env1(t) * np.cos(w1 * t + phi1))[:, None]
        return s * d0, s * d1 * np.exp(1j * wq * t)[:, None]

    rate = (np.max(np.abs(w0k)) + abs(wq) + max(abs(w0), abs(w1))
            + (amp0 + amp1) * np.linalg.norm(np.hypot(np.abs(d0), np.abs(d1))))
    periods = pulses.duration * max(w0, w1) / (2.0 * math.pi)
    logger.info("bare propagation: %.0f periods of the faster carrier", periods)
    if periods > 1e4:
        warnings.warn(
            f"bare propagation spans about {periods:.1e} carrier periods "
            "(runtime grows with omega0 * duration); consider the rwa tier",
            stacklevel=2,
        )
    frame = _BFrame(b_couplings, w0k, rate, c_frame=True)
    return _propagate(frame, psi0, "bare", spectrum.n_excited, pulses, settings)


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
