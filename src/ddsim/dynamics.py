"""Time propagation of the driven qubit-plus-manifold system.

Three tiers of the same physical problem, all expressed in the interaction picture of the static spectrum
(amplitudes c_n with the free phases e^{-i eps_n t / hbar} factored out):

propagate_bare
    Keeps the full optical carriers, cos(omega t + phi), including counter-rotating terms.  Exact but expensive:
    the steps have to resolve the optical period, so runtime grows like omega0 * T.

propagate_rwa
    Drops the counter-rotating terms only.  Each manifold level k is coupled to |0> and |1> through its detuning
    phase e^{i delta_k t}, and the crossed couplings (pulse 0 on the 1<->k transition and pulse 1 on 0<->k) ride on
    an extra beat factor e^{+-i Delta t} at the qubit splitting.  This is the workhorse "exact" tier.

    With both pulses on, both envelopes constant and Delta != 0 the equations repeat every beat period, and over any
    window one eigendecomposition of their Floquet matrix gives every saved state (see below).

    With one pulse off (all its couplings 0, as at amplitude 0; the paper's phase gate switches the second pulse
    off) the remaining crossed coupling carries the beat alone: mu0 e^{+i Delta t} on <1|H|k> where pulse 1 is off,
    mu1 e^{-i Delta t} on <0|H|k> where pulse 0 is off.  Turning that qubit level at the beat, b_1 = c_1 e^{-i
    Delta t / hbar} (or b_0 = c_0 e^{+i Delta t / hbar}), takes the beat off and puts +Delta / hbar (or -Delta /
    hbar) on its diagonal, so the run has one envelope, the other pulse's, at any Delta: a single-pulse frame.  A
    constant generator (a single constant pulse, or one constant envelope at Delta = 0) takes no steps: one
    eigendecomposition gives every saved state (see below). Other runs at Delta = 0 and shaped envelopes are
    integrated directly.  Each call logs (INFO) which path it took.

propagate_averaged
    The rwa tier without the crossed couplings and their beat, which average out when the envelopes change slowly
    compared to the beat period 2 pi hbar / Delta.  Its amplitudes stay in the shifted manifold variables b_k = c_k
    e^{i delta_k t}, which make the system autonomous up to the envelopes; fast and the direct counterpart of the
    analytic effective model.

All three are the same star-coupled equation, and one engine integrates them.  Each manifold level k couples only
to |0> and |1>, so in a frame b_j = c_j e^{-i w_j t} with constant w_j a tier writes its generator in terms (a
_BFrame): H(t)/hbar = D + sum_a u_a(t) V_a, with D the constant diagonal <j|H|j> = w_j, a few real scalar functions
u_a, and constant stars V_a (<0|V_a|k> and <1|V_a|k>):

- bare: w_k = (E_k - eps0) / hbar and w_1 = Delta / hbar, qubit level 1 turned at the splitting, which takes e^{i
  Delta t / hbar} off g1; one term, the instantaneous field s(t) on the dipole star (d0, d1);
- rwa: w_k = -delta_k / hbar; each pulse's direct couplings ride on its envelope, its crossed ones on its envelope
  times cos and sin of the beat Delta t / hbar (a shared envelope sums the pulses' terms); with one pulse off, one
  term and a turned qubit level (see above);
- averaged: the same with the crossed couplings mu0 = mu1 = 0 and the beat Delta = 0; one builder (_rwa_frame)
  serves both tiers.

Every tier takes sixth-order Magnus steps (_magnus; Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)), their
length bounded by the shortest envelope switching time, and no step crossing an envelope breakpoint (one within 4
ulps of the window end from a saved time is that saved time). The steps run in real arithmetic (_magnus_pass): each
complex entry a becomes the block [[Re a, -Im a], [Im a, Re a]], so the anti-Hermitian generator of dim d becomes a
real antisymmetric matrix of dim 2d, and its exponential is a degree-16 Taylor polynomial by Paterson-Stockmeyer
(Paterson & Stockmeyer, SIAM J. Comput. 2, 60 (1973)), scaled and squared where the 1-norm exceeds 0.8 (_expm).
The terms -i D and -i V_a are built in real form once per frame, on its first pass, and a chunk of steps forms its
Omegas in one of two ways:

- alpha path, the reference: the alpha_j of every step are one product of the node-difference weights h
  _ALPHA_NODES @ u and the terms, and Omega takes their commutators (_alpha_omega).  Every frame of two or more
  terms takes it (shaped rwa runs with a beat, constant ones past the Floquet matrix's cap, runs with two
  envelopes) and logs "magnus".
- one envelope: a frame of one term, -i (D + f(t) V), has every step's Omega a combination of ten fixed matrices
  whose weights are fixed combinations of fifteen monomials in the step and f at its nodes.  The ten matrices, with
  the constant weights folded in, are built once per frame (_one_envelope_basis), and the run logs "magnus (one
  envelope)". The bare tier always has one term; the rwa and averaged tiers where envelope0 == envelope1 (constant
  included) without a beat (the averaged tier, or rwa at Delta = 0), or with one pulse off. Where f is a shaped
  envelope centred in the window [0, T], f(T - t) = f(t), and a diagonal phase change S makes V real (each row of V
  one complex factor times real dipoles), H(T - t) = K H(t) K^-1 for the antiunitary K = S conj, so U(T - a, T - b)
  = K U(a, b) K^-1.  The three-node Gauss step is time-symmetric too, so on steps that mirror about T / 2 (an odd
  number of saved times) each pass integrates the propagators U_j of the first half only and takes psi(T - t_j) = S
  conj(U_j) U_mid^T S* U_mid psi0 (_mirror_pass): half the exponentials, the same states to rounding, and the same
  steps, halvings and estimate.  Such a run's log line adds "; second half by time reversal, N steps integrated".
  An even number of saved times, an off-centre envelope, complex dipoles whose phase differs between levels and the
  bare tier's field integrate the whole window; a constant f takes no steps (see below).

Where the generator is constant (one envelope, and it constant: a single constant pulse in either tier, both
envelopes constant in the averaged tier, or in the rwa tier at Delta = 0) no step is taken: one eigendecomposition
H/hbar = W Lambda W^dagger gives every saved state as W e^{-i Lambda t} W^dagger psi0 (_eigh_states; the
eigenvector method for normal matrices of Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  Each computed eigenvalue lies
within its residual ||H w - lambda w|| of an exact one, so the estimate is ||W^dagger W - I|| plus the window T
times that residual and the rounding eps |lambda| of the phases, weighted by psi0's components (_eigen_rounding).
The log reads "one eigendecomposition of the constant generator at N saved times".

Constant envelopes with a beat w = Delta / hbar (both pulses on) have H_b(t)/hbar = H0 + H1 e^{i w t} + h.c., and
Shirley's matrix K_mn = H_{m-n} + m w delta_mn over the harmonics -N..N (Phys. Rev. 138, B979 (1965)), made real by
diagonal phases and a phase per harmonic where it can be, gives every saved state from one eigendecomposition
(_floquet).  N grows until the edge weight, the amplitude harmonics +-N can hold, is at most tol; with the rounding
above it is the estimate.  Past _FLOQUET_MAX_HARMONICS the run takes Magnus steps.  The log reads "Floquet matrix
over harmonics -N..N, dimension M, at N saved times".

Each step is orthogonal to rounding (the Taylor remainder is below eps), so a norm check cannot see the step error:
each run is repeated at half the step, and the step halved until the step-doubling error estimate is at most tol
(or the rounding floor eps * steps, with a warning when the floor accepts what tol would not), else
PropagationError.  A NaN or infinite coupling fails the exponential's norm check in the first pass (a constant
generator's and a Floquet matrix's check comes before their eigendecomposition).  The last eigendecomposition of
each kind is kept for the next run with equal couplings (the other basis state of a gate check), to the same bits.

Norms are still checked, never renormalized: a drift of sum |c|^2 from 1 beyond _NORM_TOL raises PropagationError.
"""

from __future__ import annotations

import ctypes
import glob
import logging
import math
import os
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, ClassVar

import numpy as np

from .drive import CouplingSet, PulsePair, slow_switching_ok
from .spectrum import SpectrumModel
from .units import DIPOLE_FIELD_TO_UEV, HBAR

logger = logging.getLogger(__name__)

FRAMES = ("bare", "rwa", "averaged")
_NORM_TOL = 1e-6  # largest drift of sum |c|^2 from 1 that a run may show


def __getattr__(name):
    # No tier calls solve_ivp.  bench/tracing.py (FUNCTIONS, by getattr) and bench/baseline.py still read this name,
    # so it imports scipy only when read; ROADMAP item 1b's engine-neutral harness deletes it.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    Every tier takes Magnus steps no longer than the shortest envelope switching time, halved until their
    step-doubling error estimate is at most tol (the amplitudes have norm 1).  A constant generator (a single
    constant pulse, or one constant envelope without a beat: the averaged tier, or rwa at Delta = 0) takes one
    eigendecomposition and no steps, and so do constant envelopes with a beat in the rwa tier, whose Floquet matrix
    takes as many harmonics as bring its edge weight to tol.  Their estimate, read from the decomposition, warns
    where it exceeds tol.
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
_MAGNUS_CHUNK = 64  # steps per array pass (Omegas and exponentials); 256 raised a sweep's peak memory by about 3 MB
_MAGNUS_MAX_HALVINGS = 5  # halvings after the first h against h/2 comparison
# largest N of a Floquet matrix over the harmonics -N..N (dimension (2 + n)(2 N + 1)): its real eigh takes about 25 ms
# at n = 5, as long as 5-15 beat periods of Magnus steps at g / Delta of 1-2; a run that needs more takes Magnus steps
_FLOQUET_MAX_HARMONICS = 32
# the sixth-order Magnus step of three Gauss nodes (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)) takes
# alpha_j = -i h G_j on the qubit-manifold block, with the G_j from the couplings g_l at the nodes by these rows
# (G_1 = g_2, G_2 = sqrt(15)/3 (g_3 - g_1), G_3 = 10/3 (g_3 - 2 g_2 + g_1)); alpha_1 adds -i h diag on the
# diagonal, which drops out of the node differences
_ALPHA_NODES = np.array([[0.0, 1.0, 0.0],
                         [-math.sqrt(15.0) / 3.0, 0.0, math.sqrt(15.0) / 3.0],
                         [10.0 / 3.0, -20.0 / 3.0, 10.0 / 3.0]])
# Omega = a1 + a3 / 12 + [-20 a1 - a3 + c1, a2 + c2] / 240 with c1 = [a1, a2] and c2 = -[a1, 2 a3 + c1] / 60 takes
# the alpha_j in these rows' combinations: a1, a2, -a3 / 30, (-20 a1 - a3) / 240 and a1 + a3 / 12
_OMEGA_ALPHAS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0 / 30.0], [-1.0 / 12.0, 0.0, -1.0 / 240.0],
                          [1.0, 0.0, 1.0 / 12.0]])
_OMEGA_NODES = _OMEGA_ALPHAS @ _ALPHA_NODES
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
    """A tier's star-coupled equations in its frame b_j = c_j e^{-i diag_j t}, as terms.

    H(t)/hbar = D + sum_a u_a(t) V_a.  scalars(t) takes a time array of shape (N,) and returns the real u_a, shape
    (A, N); stars, shape (A, 2, n), holds the constant stars, <0|V_a|k> = stars[a, 0, k] and <1|V_a|k> = stars[a,
    1, k]; D is diag, shape (2 + n,), the constant <j|H|j> / hbar of every level, whose qubit entries are 0 but in
    a frame that turns a qubit level (the bare tier, or one pulse off; see _rwa_frame); rate bounds the norm of
    H/hbar, rad/ns.  With c_frame the saved amplitudes are taken back to the c frame.  terms, -i D and the -i V_a
    in real form, are built on the first pass that needs them, whose errstate keeps a non-finite coupling from
    warning there.

    A frame of one term forms its Omegas from _one_envelope_basis(terms) (one_envelope); every other frame takes
    the alpha path (see _alpha_omega).  beat, rad/ns, is set where the u_a depend on t only through the beat phase
    beat * t (an rwa run with both envelopes constant and Delta != 0, beat = Delta / hbar): its terms come in
    triples (1, cos, sin) of beat * t, one per pulse group, from which _floquet builds its Floquet matrix. constant
    marks a constant generator (one term, and its u constant), which _propagate takes by one eigendecomposition
    (_eigh_states). mirror, the phases S of _mirror_phases, is set where H(T - t) = K H(t) K^-1 over the window [0,
    T] with K = S conj: one shaped envelope centred on T / 2, and couplings that a diagonal phase change makes real
    (see _mirror_pass).
    """

    scalars: Callable
    stars: np.ndarray
    diag: np.ndarray
    rate: float
    c_frame: bool = False
    beat: float | None = None
    mirror: np.ndarray | None = None
    constant: bool = False

    @cached_property
    def terms(self) -> np.ndarray:
        """-i D and the -i V_a in real form, flattened to shape (1 + A, (2 dim)^2)."""
        dim = len(self.diag)
        gen = np.zeros((1 + len(self.stars), dim, dim), dtype=complex)
        gen[0] = np.diag(-1j * self.diag)
        gen[1:, :2, 2:] = -1j * self.stars
        gen[1:, 2:, :2] = -np.conj(np.swapaxes(gen[1:, :2, 2:], 1, 2))
        real = np.empty((len(gen), dim, 2, dim, 2))
        real[:, :, 0, :, 0] = real[:, :, 1, :, 1] = gen.real
        real[:, :, 1, :, 0] = gen.imag
        real[:, :, 0, :, 1] = -gen.imag
        return real.reshape(len(gen), -1)

    @cached_property
    def one_envelope(self) -> np.ndarray:
        """_one_envelope_basis of the frame's one term."""
        return _one_envelope_basis(self.terms)


def _one_envelope_basis(terms):
    """The fifteen real-form matrices, flattened to shape (15, (2 dim)^2), whose combinations are every Magnus
    Omega of the generator -i (D + f(t) V) with one envelope f, weighted by _one_envelope_monomials.

    terms holds P = -i D and Q = -i V in real form, flattened (_BFrame.terms).  With K = [P, Q], Omega is a
    combination of the ten matrices P, Q, K, [P, K], [P, [P, K]], [P, [Q, K]], [Q, K], [Q, [Q, K]], [K, [P, K]]
    and [K, [Q, K]] ([Q, [P, K]] = [P, [Q, K]] by Jacobi), whose weights are _ONE_ENVELOPE_WEIGHTS' combinations
    of the monomials; the returned matrices are those combinations.
    """
    m = math.isqrt(terms.shape[1])
    words = np.empty((10, m, m))
    words[:2] = terms.reshape(2, m, m)
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


def _alpha_omega(frame, nodes, h, work, scratch, omega):
    """The sixth-order Omegas of c steps of widths h, shape (c,), from frame's scalars at their Gauss nodes,
    shape (3, c), and its terms, into omega, shape (c, m, m).  work, shape (5, c, m, m), and scratch, three arrays
    of shape (c, m, m), are work arrays."""
    scratch, c1, arg = scratch
    c = len(h)
    terms = frame.terms
    u = frame.scalars(nodes.ravel()).reshape(-1, 3, c)
    # the alpha_j are sum_a (h _ALPHA_NODES @ u_a)_j T_a over the terms T_a, D's u being 1, which the node differences
    # drop, so D's alpha_j weights are (h, 0, 0); one product takes the _OMEGA_ALPHAS combinations of them
    weights = np.empty((5, c, len(terms)))
    weights[:, :, 0] = _OMEGA_ALPHAS[:, :1] * h
    weights[:, :, 1:] = (_OMEGA_NODES @ u).transpose(1, 2, 0) * h[:, None]
    np.matmul(weights.reshape(5 * c, -1), terms, out=work.reshape(5 * c, -1))
    a1, a2, a3_30, outer, tail = work
    _commutator(a1, a2, c1, scratch)
    np.multiply(c1, -1.0 / 60.0, out=arg)
    arg += a3_30
    _commutator(a1, arg, arg, scratch)
    arg += a2
    c1 *= 1.0 / 240.0
    c1 += outer
    _commutator(c1, arg, omega, scratch)
    omega += tail


def _expm(powers, blocks):
    """exp of the stacked real antisymmetric matrices x in powers[1], shape (N, m, m); returns a view of powers.

    A Taylor polynomial of degree 16 in six stacked products (see _TAYLOR_BLOCKS).  Where the stack's largest
    1-norm exceeds _TAYLOR_NORM, x is scaled by 2^-s below it and the result squared s times.  The result is
    orthogonal to rounding: the Taylor remainder is below eps.  A non-finite x raises PropagationError.  powers, of
    shape (5, N, m, m) with the identity in powers[0], and blocks, of shape (4, N, m, m), are contiguous work
    arrays.
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

    Each step takes exp(Omega) with the sixth-order Omega of three Gauss points (see _ALPHA_NODES), _MAGNUS_CHUNK
    steps at a time, in real arithmetic and without LAPACK (which only the eigendecompositions call):
    each complex entry a becomes the block [[Re a, -Im a], [Im a, Re a]], so the anti-Hermitian alpha_j of dim d
    become real antisymmetric matrices of dim 2d.  For those, yx = (xy)^T, so each commutator takes one stacked
    product, and exp(Omega) is _expm's Taylor polynomial, orthogonal to rounding.  A frame of one term forms a
    chunk's Omegas as one product of its rows of the pass's _one_envelope_monomials (of the widths and the envelope
    at the nodes) and frame.one_envelope, equal to the alpha_j's Omega to rounding; any other frame takes
    _alpha_omega's from the scalars at the nodes and the terms (the alpha path, which alone allocates its work
    array). The state (or propagator) is advanced with the rows (Re, Im) of each amplitude and taken back to
    complex once, at the end.  A non-finite generator raises PropagationError in the first chunk.
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
        if len(frame.stars) == 1:
            gap, local = span(0, ends[-1])
            basis = frame.one_envelope
            weights = _one_envelope_monomials(widths[gap], frame.scalars(nodes(gap, local).ravel()).reshape(3, -1))
        for first in range(0, ends[-1], _MAGNUS_CHUNK):
            gap, local = span(first, min(first + _MAGNUS_CHUNK, ends[-1]))
            if len(gap) != c:  # the first chunk and a shorter last one allocate; the others reuse
                c = len(gap)
                powers, blocks = np.empty((5, c, m, m)), np.empty((4, c, m, m))
                powers[0] = np.eye(m)
                omega = powers[1]  # where _expm takes its argument
                if weights is None:
                    work = np.empty((5, c, m, m))
            if weights is None:  # blocks are scratch until _expm needs them
                _alpha_omega(frame, nodes(gap, local), widths[gap], work, blocks[:3], omega)
            else:
                np.matmul(weights[first:first + c], basis, out=omega.reshape(c, -1))
            props = _expm(powers, blocks)
            for prop, j, last in zip(props, gap.tolist(), (local + 1 == counts[gap]).tolist()):
                y = prop.dot(y)
                if last:  # the step ends gap j
                    out[j + 1] = y
    return out[:, 0::2] + 1j * out[:, 1::2]


def _mirror_phases(v0, v1):
    """The diagonal S, shape (2 + n,), with S conj(V) S* = V for the star <0|V|k> = v0_k, <1|V|k> = v1_k, or None.

    S_0 = 1, S_k = e^{-2 i arg v0_k} and S_1 = e^{2 i (arg v1_k - arg v0_k)}, which must agree across the levels k
    within 16 ulps (dipoles of one phase give a few; a loop phase arg(v1_k / v0_k) that differs between levels,
    as complex dipoles can give, does not agree).  A coupling that is zero or not finite leaves S undefined.
    """
    r0, r1 = np.abs(v0), np.abs(v1)
    if not (np.all((0.0 < r0) & (r0 < math.inf)) and np.all((0.0 < r1) & (r1 < math.inf))):  # also rejects NaN
        return None
    u0, u1 = v0 / r0, v1 / r1
    loop = (u1 * np.conj(u0)) ** 2
    if np.max(np.abs(loop - loop[0])) > 16.0 * np.finfo(float).eps:
        return None
    return np.concatenate(([1.0, loop[0]], np.conj(u0) ** 2))


def _is_mirror_grid(knots, counts):
    """Whether the steps of counts[j] over [knots[j], knots[j + 1]] mirror about the middle knot of the window
    [0, knots[-1]]: an odd number of knots, each knots[i] + knots[-1 - i] within 4 ulps of knots[-1], and counts
    that read the same in reverse."""
    window = knots[-1]
    return bool(len(knots) % 2 == 1 and np.array_equal(counts, counts[::-1])
                and np.all(np.abs(knots + knots[::-1] - window) <= 4.0 * np.spacing(window)))


def _mirror_pass(frame, psi0, knots, counts):
    """_magnus_pass's states at every knot, from the propagators of the first half of a mirror grid.

    With H(T - t) = K H(t) K^-1 for the antiunitary K = S conj (S = frame.mirror), U(T - a, T - b) =
    K U(a, b) K^-1, and the three-node Gauss Magnus step is time-symmetric, so on a mirror grid (_is_mirror_grid)
    the steps of the second half are those of the first half under K.  With U_j = U(t_j, 0) for j up to the
    middle knot, psi(t_j) = U_j psi0 and psi(T - t_j) = K U_j U_mid^-1 K U_mid psi0
    = S (conj(U_j) U_mid^T (S* U_mid psi0)): the same states as _magnus_pass's to rounding, for half its steps.
    """
    mid = len(knots) // 2
    props = _magnus_pass(frame, np.eye(len(psi0), dtype=complex), knots[:mid + 1], counts[:mid])
    first = props @ psi0
    w = props[mid].T @ (np.conj(frame.mirror) * first[mid])
    return np.concatenate((first, frame.mirror * (np.conj(props[-2::-1]) @ w)))


def _step_doubling(run, counts, tol):
    """(fine, steps, halvings, error estimate, tolerance) of the passes run(counts), states at every knot.

    Each pass is repeated at twice the counts; the estimate of the finer pass's error is max |y_h - y_{h/2}| / 63
    (sixth order), and while it exceeds tol (the state has norm 1) and the floor eps * steps, the steps are halved
    again, at most _MAGNUS_MAX_HALVINGS times, else PropagationError.
    """
    eps = np.finfo(float).eps
    coarse = run(counts)
    for halvings in range(_MAGNUS_MAX_HALVINGS + 1):
        counts = 2 * counts
        fine = run(counts)
        estimate = float(np.max(np.abs(fine - coarse))) / 63.0
        steps = int(counts.sum())
        accept = max(tol, eps * steps)
        if estimate <= accept:
            return fine, steps, halvings, estimate, accept
        coarse = fine
    raise PropagationError(
        f"Magnus error estimate {estimate:.3e} exceeds its tolerance {accept:.1e} after "
        f"{_MAGNUS_MAX_HALVINGS} halvings of the step ({steps} steps); loosen tol"
    )


def _star_matrix(diag, star):
    """diag(diag) plus the star <0|V|k> = star[0, k], <1|V|k> = star[1, k] and its conjugate, as a complex matrix."""
    ham = np.diag(diag).astype(complex)
    ham[:2, 2:] = star
    ham[2:, :2] = np.conj(star).T
    return ham


def _eigen_rounding(ham, lam, w, diag):
    """(||W^dagger W - I||, and per eigenvalue the rate at which a phase may drift: its residual ||ham w - lambda w||,
    within which an exact eigenvalue lies, plus eps (|lambda| + max |diag|) for rounding lambda t and the c-frame
    phases diag t) of the eigendecomposition ham = W Lambda W^dagger of a frame with diagonal diag."""
    drift = np.linalg.norm(ham @ w - w * lam, axis=0) + np.finfo(float).eps * (np.abs(lam) + np.max(np.abs(diag)))
    return float(np.linalg.norm(np.conj(w).T @ w - np.eye(len(lam)))), drift


@lru_cache(maxsize=1)
def _constant_eigh(diag, star):
    """(Lambda, W, _eigen_rounding) of H/hbar = diag(diag) + star, as bytes so that the last is kept for the other
    basis state of a gate check; a non-finite coupling raises PropagationError before the decomposition."""
    diag = np.frombuffer(diag)
    ham = _star_matrix(diag, np.frombuffer(star, dtype=complex).reshape(2, -1))
    if not np.all(np.isfinite(ham)):
        raise PropagationError("constant generator is not finite; are the couplings finite?")
    lam, w = np.linalg.eigh(ham)
    return (lam, w, *_eigen_rounding(ham, lam, w, diag))


def _eigh_states(frame, psi0, grid):
    """b-frame amplitudes on grid of a constant generator (frame.constant), psi(t) = W e^{-i Lambda t} W^dagger psi0
    (_constant_eigh), their estimate, ||W^dagger W - I|| plus the window T times sum_lambda |c_lambda| drift_lambda
    over c = W^dagger psi0, and their log text."""
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite coupling is reported there, not by warnings
        star = frame.scalars(grid[:1])[0, 0] * frame.stars[0]
    lam, w, offset, drift = _constant_eigh(frame.diag.tobytes(), star.tobytes())
    coeffs = np.conj(w).T @ psi0
    ys = (np.exp(-1j * np.outer(grid, lam)) * coeffs) @ w.T
    return (ys, offset + grid[-1] * float(np.abs(coeffs) @ drift),
            f"one eigendecomposition of the constant generator at {len(grid)} saved times")


def _real_form(h0, h1):
    """(S, b, S* H0 S, b* S* H1 S), real, with diagonal phases S_j = e^{i alpha_j} and a harmonic phase b = e^{i beta},
    or (1, 1, H0, H1) where no such phases exist (complex dipoles whose phase differs between levels).  With
    <0|H0|k> = a_k, <1|H0|k> = b_k, <1|H1|k> = c_k, <k|H1|0> = e_k and alpha_0 = 0, the entries are real where
    alpha_k = -arg a_k = alpha_1 - arg b_k = alpha_1 + beta - arg c_k = arg e_k - beta (mod pi): alpha_1 and beta
    follow from the largest products b_k a_k*, e_k a_k and c_k b_k*, each alpha_k from its largest coupling, and
    they are kept where no imaginary part exceeds 16 ulps of the largest entry."""
    a, b, c, e = h0[0, 2:], h0[1, 2:], h1[1, 2:], h1[2:, 0]

    def unit(z):  # the phase of the largest entry, 1 if all vanish
        z = z.flat[np.argmax(np.abs(z))]
        return z / abs(z) if z else 1.0

    turn, beta = unit(b * np.conj(a)), unit(np.concatenate((e * a, c * np.conj(b))))
    options = np.array([np.conj(a), turn * np.conj(b), turn * beta * np.conj(c), e * np.conj(beta)])
    phases = np.concatenate(([1.0, turn], [unit(z) for z in options.T]))
    r0, r1 = np.conj(phases)[:, None] * h0 * phases, np.conj(beta * phases)[:, None] * h1 * phases
    if max(np.max(np.abs(r0.imag)), np.max(np.abs(r1.imag))) > 16.0 * np.finfo(float).eps * max(
            np.max(np.abs(r0)), np.max(np.abs(r1))):
        return np.ones(len(h0)), 1.0, h0, h1
    return phases, beta, r0.real, r1.real


@lru_cache(maxsize=1)
def _blas_thread_setter():
    """openblas_set_num_threads_local (it returns the previous count) of the OpenBLAS in numpy's wheel, else a no-op."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        with suppress(OSError, AttributeError):
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
            setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
            return setter
    return lambda count: count


@contextmanager
def _one_blas_thread():
    """Keep OpenBLAS to the calling thread within the block: for a Floquet matrix (dim 40-100) a second thread on a
    2-core machine spun the other core (process CPU 2-4x wall time) and at times stalled the eigh by 50-130 ms."""
    setter = _blas_thread_setter()
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)


@lru_cache(maxsize=1)
def _floquet(diag, stars, beat, tol):
    """Shirley's matrix of a beating frame, decomposed, or None where it needs more than _FLOQUET_MAX_HARMONICS.

    diag and stars are the frame's arrays as bytes, so that the last result is kept for the other basis state of a
    gate check.  The stars come in triples (1, cos, sin) of beat t, so H_b(t)/hbar = H0 + H1 e^{i beat t} + h.c. with
    H1 = (V_cos - i V_sin) / 2, and K_mn = H_{m-n} + m beat delta_mn over the harmonics -N..N, in its real form
    (_real_form), is decomposed as W Lambda W^dagger.  The first N is the least with x^N / N! <= tol,
    x = ||H1|| / |beat| (beating runs at g / Delta up to 0.33, over 3 to 5119 beat periods, had edge weights of
    (c x)^N / N!, c <= 0.96); while the edge weight max_{n = +-N} sum_lambda ||W_n,lambda|| ||W_0,lambda||, a bound
    on the amplitude harmonic n can hold, exceeds tol, N grows by 4 (each decomposition logs at DEBUG).  Returns
    (N, S, b, Lambda, W, W_0^dagger S*, edge weight, ||W^dagger W - I||, weights): per eigenvalue its drift
    (_eigen_rounding) summed over the harmonics n with weights ||W_n,lambda||, plus eps |n beat| for rounding
    n beat t.  A non-finite coupling raises PropagationError before any eigh.
    """
    diag = np.frombuffer(diag)
    d = len(diag)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite coupling is reported below, not by warnings
        direct, cos, sin = np.frombuffer(stars, dtype=complex).reshape(-1, 3, 2, d - 2).sum(axis=0)
        h0, h1 = _star_matrix(diag, direct), (_star_matrix(0.0 * diag, cos) - 1j * _star_matrix(0.0 * diag, sin)) / 2.0
    if not (np.all(np.isfinite(h0)) and np.all(np.isfinite(h1))):
        raise PropagationError("Floquet matrix is not finite; are the couplings finite?")
    phases, turn, h0, h1 = _real_form(h0, h1)
    ratio, harmonics, term = np.linalg.norm(h1, 2) / abs(beat), 0, 1.0
    while term > tol:
        harmonics += 1
        term *= ratio / harmonics
    while harmonics <= _FLOQUET_MAX_HARMONICS:
        count, index = 2 * harmonics + 1, np.arange(2 * harmonics + 1)
        k = np.zeros((count, d, count, d), dtype=h0.dtype)
        k[index, :, index, :] = h0
        k[index[1:], :, index[:-1], :] = h1
        k[index[:-1], :, index[1:], :] = np.conj(h1).T
        k = k.reshape(count * d, -1)
        k[np.diag_indices(count * d)] += np.repeat((index - harmonics) * beat, d)
        lam, w = np.linalg.eigh(k)
        blocks = np.linalg.norm(w.reshape(count, d, -1), axis=1)  # ||W_n,lambda||
        edge = float(max(blocks[0] @ blocks[harmonics], blocks[-1] @ blocks[harmonics]))
        logger.debug("Floquet matrix over harmonics -%d..%d: edge weight %.2e", harmonics, harmonics, edge)
        if edge <= tol:
            offset, drift = _eigen_rounding(k, lam, w, diag)
            weights = blocks.sum(axis=0) * drift + np.finfo(float).eps * abs(beat) * (np.abs(index - harmonics) @ blocks)
            head = np.conj(w[harmonics * d:(harmonics + 1) * d].T * phases)  # W_0^dagger S*, as every array here
            return harmonics, phases, turn, lam, w, head, edge, offset, weights  # only ever read
        harmonics += 4
    return None


def _floquet_states(frame, psi0, grid, tol):
    """b-frame amplitudes on grid of a beating frame, psi(t) = S sum_n b^n e^{i n beat t} W_n e^{-i Lambda t}
    W_0^dagger S* psi0 (_floquet), their estimate, the edge weight plus ||W^dagger W - I|| plus T sum_lambda
    |c_lambda| weights_lambda over c = W_0^dagger S* psi0, and their log text; None past _FLOQUET_MAX_HARMONICS."""
    with _one_blas_thread():
        solved = _floquet(frame.diag.tobytes(), frame.stars.tobytes(), frame.beat, tol)
        if solved is None:
            return None
        harmonics, phases, turn, lam, w, head, edge, offset, weights = solved
        coeffs = head @ psi0
        x = np.exp(-1j * np.outer(grid, lam)) * coeffs
        full = (x.real @ w.T + 1j * (x.imag @ w.T)).reshape(len(grid), 2 * harmonics + 1, -1)  # two real products
    n = np.arange(-harmonics, harmonics + 1)
    ys = phases * (np.exp(1j * np.outer(frame.beat * grid, n))[:, None, :] * turn ** n @ full)[:, 0]
    return (ys, edge + offset + grid[-1] * float(np.abs(coeffs) @ weights),
            f"Floquet matrix over harmonics -{harmonics}..{harmonics}, dimension {len(lam)}, at {len(grid)} saved times")


def _magnus(frame, y0, grid, breaks, tol, cap=math.inf):
    """Amplitudes on grid by Magnus-6 steps, and (steps, halvings, error estimate, tolerance, path, integrated).

    Steps are equal within each gap between saved times and envelope breakpoints (breaks; one within 4 ulps of the
    window end from a saved time is that time), no longer than cap (ns) and first about 1/_MAGNUS_STEPS_PER_PERIOD
    of the period 2 pi / frame.rate.  y0 is one state of shape (dim,) or a propagator of shape (dim, dim).  Each
    run is repeated at half the step until the step-doubling estimate is at most tol (_step_doubling).  path names
    how the passes formed their Omegas: "magnus (one envelope)" for a frame of one term, else "magnus" (the alpha
    path).

    A state y0 under a frame with mirror phases, on knots and steps that mirror about the middle of the window
    (_is_mirror_grid: an odd number of saved times, breakpoints placed symmetrically), integrates each pass over
    the first half only and takes the second half by time reversal (_mirror_pass): the same states to rounding, the
    same steps, halvings and estimate.  integrated counts the steps of the accepted pass that were integrated,
    steps // 2 there and steps otherwise; every other run (a propagator, an even number of saved times, an
    off-centre grid) takes _magnus_pass over the whole window.
    """
    inner = np.array([b for b in breaks if grid[0] < b < grid[-1]], dtype=float)
    if inner.size:
        # a breakpoint a few ulps from a saved time would leave a gap of a few ulps, a Magnus step of every pass;
        # its rounding is that of the window, so near 0 it can be many ulps of the saved time away
        near = grid[np.argmin(np.abs(inner[:, None] - grid), axis=1)]
        inner = np.where(np.abs(inner - near) <= 4.0 * np.spacing(grid[-1]), near, inner)
    knots = np.union1d(grid, inner)
    period = 2.0 * math.pi / frame.rate if frame.rate > 0 else math.inf
    h = min(period / _MAGNUS_STEPS_PER_PERIOD, cap)
    counts = np.maximum(np.ceil(np.diff(knots) / h), 1.0).astype(int)  # h is inf at a rate of 0 or NaN
    mirrored = frame.mirror is not None and y0.ndim == 1 and _is_mirror_grid(knots, counts)
    run = _mirror_pass if mirrored else _magnus_pass
    fine, steps, *facts = _step_doubling(lambda counts: run(frame, y0, knots, counts), counts, tol)
    path = "magnus (one envelope)" if len(frame.stars) == 1 else "magnus"
    return fine[np.searchsorted(knots, grid)], (steps, *facts, path, steps // 2 if mirrored else steps)


def _propagate(model, psi0, frame, pulses, settings):
    """Integrate the star-coupled equations of a tier, in its b-frame form model (a _BFrame), from psi0 over
    [0, pulses.duration]: by one eigendecomposition where the generator is constant (_eigh_states) or beats
    (_floquet_states, unless past _FLOQUET_MAX_HARMONICS), else by Magnus steps (_magnus)."""
    settings = settings or IntegratorSettings()
    if psi0.frame != frame:
        raise ValueError(f"initial state is in frame {psi0.frame!r}, expected {frame!r}")
    if len(psi0.amplitudes) != len(model.diag):
        raise ValueError(f"state has {len(psi0.amplitudes)} amplitudes, structure needs {len(model.diag)}")
    grid = np.linspace(0.0, pulses.duration, settings.save_points)
    note = ""
    solved = (_eigh_states(model, psi0.amplitudes, grid) if model.constant
              else model.beat is not None and _floquet_states(model, psi0.amplitudes, grid, settings.tol))
    if solved:
        ys, estimate, path = solved
        floor, kind, bound = max(settings.tol, estimate), "Eigendecomposition", "||H W - W Lambda|| T"
    else:
        breaks = pulses.envelope0.breakpoints + pulses.envelope1.breakpoints
        # Magnus steps are equal across a save interval, so where the envelopes vanish nothing else would keep
        # them from stepping over a pulse; the shortest switching time bounds them
        ys, facts = _magnus(model, psi0.amplitudes, grid, breaks, settings.tol, pulses.switching_time)
        steps, halvings, estimate, floor, method, integrated = facts
        if integrated < steps:
            note = f"; second half by time reversal, {integrated} steps integrated"
        path = f"{method} over {steps} steps, {halvings} halvings"
        kind, bound = "Magnus", f"eps * {steps} steps"
    logger.info("%s propagation: %s, error estimate %.2e (tolerance %.1e)%s", frame, path, estimate, floor, note)
    if estimate > settings.tol:
        warnings.warn(
            f"{kind} error estimate {estimate:.3e} exceeds the requested tol = "
            f"{settings.tol:.3e}; accepted under the rounding floor {bound} = {floor:.3e}",
            stacklevel=3,
        )
    if model.c_frame:  # c_j = b_j e^{i diag_j t}, the qubit levels' factors 1 but in a frame that turns one
        ys *= np.exp(1j * np.outer(grid, model.diag))

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
    """The _BFrame of the rwa tier (crossed) or of the averaged tier.

    The averaged tier is the rwa tier with mu0 = mu1 = 0, the beat 0 and b-frame amplitudes.  Pulse 0 puts
    lambda0 f0(t) on <0|H|k> and mu0 f0(t) e^{i theta} on <1|H|k>, pulse 1 lambda1 f1(t) on <1|H|k> and
    mu1 f1(t) e^{-i theta} on <0|H|k>, theta = wq t, so with e^{+-i theta} = cos theta +- i sin theta each pulse has
    three terms (f, f cos theta, f sin theta), one without a beat, and envelope0 == envelope1 sums the pulses'.
    One term, f(t) (lambda0 + mu1) and f(t) (mu0 + lambda1), serves without a beat where envelope0 == envelope1,
    and at any beat where one pulse's couplings are all 0: f is then the other pulse's envelope, and qubit level 1
    (pulse 1 off) or 0 (pulse 0 off) is turned at the beat, +wq or -wq on its diagonal, which takes the beat off
    the one crossed coupling left.  One shaped envelope centred in the window also takes the mirror phases of
    those couplings (_mirror_phases); a constant one takes no steps (see _propagate).  A beat with
    both envelopes constant sets the frame's beat, which takes the Floquet matrix over any window (_floquet).
    """
    wd = couplings.delta / HBAR                            # detuning phases, rad/ns
    wq = couplings.delta_qubit / HBAR if crossed else 0.0  # beat phase, rad/ns
    env0, env1 = pulses.envelope0, pulses.envelope1
    # a non-finite coupling is reported by the first pass, not by warnings here
    with np.errstate(invalid="ignore", over="ignore"):
        phase0, phase1 = np.exp(1j * pulses.phi0), np.exp(1j * pulses.phi1)
        lam0 = couplings.lambda0 * phase0 / HBAR
        lam1 = couplings.lambda1 * phase1 / HBAR
        zero = np.zeros_like(lam0)
        mu0, mu1 = ((couplings.mu0 * phase0 / HBAR, couplings.mu1 * phase1 / HBAR) if crossed
                    else (zero, np.zeros_like(lam1)))
        g_max = np.hypot(np.abs(lam0) + np.abs(mu1), np.abs(mu0) + np.abs(lam1))
        rate = np.max(np.abs(wd), initial=0.0) + abs(wq) + np.linalg.norm(g_max)
        # a pulse whose couplings are all 0 (amplitude 0) leaves the other's envelope alone, and turning the qubit
        # level that the remaining crossed coupling reaches at the beat takes the beat off it: level 1 at +wq
        # where pulse 1 is off, level 0 at -wq where pulse 0 is off
        off1 = not (np.any(lam1) or np.any(mu1))
        off0 = not (off1 or np.any(lam0) or np.any(mu0))
        qubit = (0.0, wq) if off1 else (-wq, 0.0) if off0 else (0.0, 0.0)
        if off1 or off0 or (wq == 0.0 and env0 == env1):
            envelopes, stars = (env1 if off0 else env0,), np.array([[lam0 + mu1, mu0 + lam1]])
        elif wq == 0.0:
            envelopes, stars = (env0, env1), np.array([[lam0, mu0], [mu1, lam1]])
        else:  # each pulse's terms on f, f cos theta and f sin theta
            pulse0 = np.array([[lam0, zero], [zero, mu0], [zero, 1j * mu0]])
            pulse1 = np.array([[zero, lam1], [mu1, zero], [-1j * mu1, zero]])
            envelopes, stars = (((env0,), pulse0 + pulse1) if env0 == env1
                                else ((env0, env1), np.concatenate((pulse0, pulse1))))
        one_term = len(stars) == 1
        constant = one_term and envelopes[0].shape == "constant"
        # f(T - t) = f(t): the envelope is centred in the window; a constant one takes no steps and never mirrors
        centred = (one_term and not constant
                   and abs(envelopes[0].center - 0.5 * pulses.duration) <= 1e-12 * pulses.duration)
        mirror = _mirror_phases(*stars[0]) if centred else None
    turning = wq != 0.0 and not one_term  # the scalars carry the beat

    def scalars(t):
        f = np.array([env(t) for env in envelopes])
        if not turning:
            return f
        theta = wq * t
        return (f[:, None] * np.array([np.ones_like(t), np.cos(theta), np.sin(theta)])).reshape(-1, len(t))

    # the scalars depend on t only through wq t
    beating = turning and env0.shape == env1.shape == "constant"
    return _BFrame(scalars, stars, np.concatenate((qubit, -wd)), rate, c_frame=crossed,
                   beat=wq if beating else None, mirror=mirror, constant=constant)


def propagate_rwa(
    couplings: CouplingSet,
    pulses: PulsePair,
    psi0: StateVector,
    settings: IntegratorSettings | None = None,
) -> Trajectory:
    """Integrate the rotating-wave equations over [0, duration].

    The couplings must have been derived from the same pulse pair (the
    detuning list and the crossed couplings are trusted as given).
    Constant envelopes with Delta != 0, over any window, take one
    eigendecomposition of their Floquet matrix ("Floquet matrix over
    harmonics -N..N"), kept for the next run with equal couplings and
    tol.  With one pulse off (all its couplings 0) the run takes a
    single-pulse frame with one envelope; a constant generator (a single
    constant pulse, or constant envelopes at Delta = 0) takes one
    eigendecomposition: see the module docstring.
    """
    return _propagate(_rwa_frame(couplings, pulses, crossed=True), psi0, "rwa", pulses, settings)


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
    diagnostic.  Shared envelopes, or one pulse off, take the
    one-envelope basis; where that envelope is constant the generator is
    constant and the run takes one eigendecomposition: see the module
    docstring.
    """
    if not slow_switching_ok(pulses, couplings.delta_qubit):
        warnings.warn(
            "envelope switching time is short against the beat period; "
            "the averaged tier may deviate from the rwa tier",
            stacklevel=2,
        )
    return _propagate(_rwa_frame(couplings, pulses, crossed=False), psi0, "averaged", pulses, settings)


def propagate_bare(
    spectrum: SpectrumModel,
    pulses: PulsePair,
    psi0: StateVector,
    settings: IntegratorSettings | None = None,
) -> Trajectory:
    """Integrate with the full carriers, no rotating-wave approximation.

    Magnus steps in the frame b_k = c_k e^{-i (E_k - eps0) t / hbar},
    b_1 = c_1 e^{-i Delta t / hbar}, resolve the carriers, so runtime grows
    with omega0 * duration.  There the generator is
    -i (D + s(t) V) with the instantaneous field s(t) and the dipole star
    V, for any pair of envelopes: one term, which takes the one-envelope
    basis.
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

    def field(t):  # the instantaneous field, V/cm, the one scalar
        return (amp0 * env0(t) * np.cos(w0 * t + phi0) + amp1 * env1(t) * np.cos(w1 * t + phi1))[None]

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
    frame = _BFrame(field, np.array([[d0, d1]]), np.concatenate(([0.0, wq], w0k)), rate, c_frame=True)
    return _propagate(frame, psi0, "bare", pulses, settings)


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
