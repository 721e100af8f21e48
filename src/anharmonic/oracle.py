"""Exact Fock-space benchmark for the anharmonic oscillator.

A coherent state is represented on a Poisson-centred window of Fock
indices and evolved spectrally: the Hamiltonian is diagonal with
eigenvalue n^2 on |n>, so evolution multiplies each amplitude by
exp(-i n^2 t).  Ladder moments and quadrature cumulants follow from
banded sums over the window.

Numerical constraints that shape this module:

* Window amplitudes are built from log-weight *increments* accumulated
  away from the Poisson mode (one log-gamma call anchors the mode), which
  keeps the n-dependence of the weights accurate to ~1e-13 even at
  N = 10^6; a direct log-gamma per index would lose ~1e-9.
* Evolution phases are exp(-i (n^2 - n0^2) t) about the Poisson mode n0,
  with the integer n^2 - n0^2 formed exactly and t reduced mod 2 pi, so
  their rounding scales with N times the window width, not with N^2.
* Factorial ratios in ladder sums are short falling factorials evaluated
  as sums of at most four logs; no factorial is ever formed directly.
* Cumulants are evaluated in the frame shifted by the mean quadrature.
  Third and fourth cumulants are exactly shift invariant, and the shifted
  moments are O(1), so the evaluation avoids the catastrophic cancellation
  of raw moments (which reach O(N^2) at large N).

A small dense-matrix brute force provides an independent cross-check of
the windowed computation at low particle number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .moments import CumulantReport, MomentVector, QuadratureSpec

_BINOM = [[math.comb(k, j) for j in range(k + 1)] for k in range(5)]

#: Window growth: half-width starts at this many Poisson sigmas and doubles.
_INITIAL_HALFWIDTH_SIGMAS = 8.0

#: Default cap on window length ("memory budget").
_MAX_WINDOW = 4_000_000


class WindowOverflow(RuntimeError):
    """The Fock window needed to capture the state exceeds the budget."""


class CutoffInsufficient(ValueError):
    """Dense brute force: the truncated basis loses too much norm."""


def _real_dot(x: np.ndarray, y: np.ndarray) -> float:
    """Re <x, y> of two contiguous complex vectors, on one thread.

    ``np.vdot`` hands long vectors to the BLAS, whose summation order (and
    so the last bits of the result) depends on its thread count; einsum over
    the interleaved real and imaginary parts sums in a fixed order.
    """
    return float(np.einsum("i,i->", x.view(np.float64), y.view(np.float64)))


@dataclass(frozen=True)
class OracleState:
    """Windowed Fock amplitudes of the evolving coherent state."""

    n_min: int
    n_max: int
    amplitudes: np.ndarray          # current amplitudes c_n, n in [n_min, n_max]
    initial_amplitudes: np.ndarray  # t = 0 amplitudes (normalised)
    n_particles: float
    alpha0: complex
    t: float
    raw_mass: float                 # window mass before normalisation

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1, dtype=np.int64)

    @property
    def norm_squared(self) -> float:
        return _real_dot(self.amplitudes, self.amplitudes)


def _relative_log_weights(n_lo: int, n_hi: int, mode: int, n_particles: float) -> np.ndarray:
    """log of Poisson weights w_n relative to the mode, for n in [n_lo, n_hi].

    Built by cumulative sums of log(N) - log(n) steps away from the mode, so
    the n-dependence carries only the rounding of small partial sums.
    """
    log_n = math.log(n_particles)
    out = np.empty(n_hi - n_lo + 1, dtype=np.float64)
    out[mode - n_lo] = 0.0
    if n_hi > mode:
        up = log_n - np.log(np.arange(mode + 1, n_hi + 1, dtype=np.float64))
        out[mode - n_lo + 1 :] = np.cumsum(up)
    if mode > n_lo:
        down = np.log(np.arange(mode, n_lo, -1, dtype=np.float64)) - log_n
        out[mode - n_lo - 1 :: -1] = np.cumsum(down)
    return out


def init_coherent(
    alpha0: complex,
    mass_tolerance: float = 1e-12,
    max_window: int = _MAX_WINDOW,
) -> OracleState:
    """Windowed coherent state |alpha0> with captured mass >= 1 - tolerance.

    The half-width starts at 8 sqrt(N) and doubles until two conditions
    hold, both measured against a doubled probe window: the Poisson mass
    outside the window is below the tolerance, and the weight at a
    truncating edge times N^2 is below it as well.  The second condition
    protects fourth-order quadrature moments: cutting the number expansion
    at weight w_edge breaks the ladder cancellation in (X - <X>) psi at the
    boundary rows and feeds ~ N^2 w_edge into <(X - <X>)^4>, which would
    swamp the small cumulants of near-coherent states.
    """
    alpha0 = complex(alpha0)
    n_particles = abs(alpha0) ** 2
    if n_particles <= 0:
        raise ValueError("coherent amplitude must be nonzero")
    if not (0.0 < mass_tolerance <= 1e-6):
        raise ValueError("mass tolerance must lie in (0, 1e-6]")

    sigma = math.sqrt(n_particles)
    mode = max(0, int(n_particles))
    moment_weight = max(1.0, n_particles) ** 2
    k = _INITIAL_HALFWIDTH_SIGMAS
    while True:
        n_lo = max(0, math.floor(n_particles - k * sigma))
        n_hi = math.ceil(n_particles + k * sigma)
        if n_hi - n_lo + 1 > max_window:
            raise WindowOverflow(
                f"window of {n_hi - n_lo + 1} indices exceeds budget {max_window}"
            )
        probe_lo = max(0, math.floor(n_particles - 2 * k * sigma))
        probe_hi = math.ceil(n_particles + 2 * k * sigma)
        rel = _relative_log_weights(probe_lo, probe_hi, mode, n_particles)
        weights = np.exp(rel)
        total = weights.sum()
        inside = weights[n_lo - probe_lo : n_hi - probe_lo + 1].sum()
        edge = weights[n_hi - probe_lo]
        if n_lo > 0:
            edge = max(edge, weights[n_lo - probe_lo])
        if (
            1.0 - inside / total <= mass_tolerance
            and (edge / total) * moment_weight <= mass_tolerance
        ):
            break
        k *= 2.0

    rel_window = rel[n_lo - probe_lo : n_hi - probe_lo + 1]
    anchor = (
        -0.5 * n_particles
        + mode * math.log(abs(alpha0))
        - 0.5 * math.lgamma(mode + 1)
    )
    log_abs = anchor + 0.5 * rel_window
    nn = np.arange(n_lo, n_hi + 1, dtype=np.float64)
    phase = np.exp(1j * math.atan2(alpha0.imag, alpha0.real) * nn)
    c = np.exp(log_abs) * phase
    raw_mass = _real_dot(c, c)
    c = c / math.sqrt(raw_mass)
    return OracleState(
        n_min=n_lo,
        n_max=n_hi,
        amplitudes=c,
        initial_amplitudes=c,
        n_particles=n_particles,
        alpha0=alpha0,
        t=0.0,
        raw_mass=raw_mass,
    )


def evolve(state: OracleState, t: float) -> OracleState:
    """State at absolute time t: c_n(t) = c_n(0) exp(-i n^2 t).

    The phase is taken relative to the Poisson mode n0, dropping the global
    factor exp(-i n0^2 t) that no moment sees.  Its exponent
    (n - n0)(n + n0) is formed exactly in int64, and since it is an integer,
    t is reduced mod 2 pi first.  Formed as n^2 t in double precision
    instead, the phase would be off by ~1e-8 rad at N = 1e7 and tau = 10,
    enough to miss k3 and k4 by 1e-4 relative.  Phases are always applied
    to the stored t = 0 amplitudes, so repeated calls do not accumulate
    rounding.
    """
    n0 = int(state.n_particles)
    nn = state.indices
    t_turn = math.fmod(t, 2.0 * math.pi)
    phases = np.exp(-1j * ((nn - n0) * (nn + n0)).astype(np.float64) * t_turn)
    return replace(state, amplitudes=state.initial_amplitudes * phases, t=float(t))


def _log_falling_factorial(nn: np.ndarray, r: int) -> np.ndarray:
    """log of n (n-1) ... (n-r+1) as a short sum of logs."""
    out = np.zeros_like(nn, dtype=np.float64)
    for j in range(r):
        out += np.log(nn - j)
    return out


def ladder_moment(state: OracleState, p: int, q: int) -> complex:
    """Normally ordered ladder moment <adag^p a^q> on the window."""
    if p < 0 or q < 0 or p + q > 4:
        raise ValueError("ladder moments are supported for 0 <= p + q <= 4")
    if p == 0 and q == 0:
        return complex(state.norm_squared)
    lo = max(state.n_min, q, state.n_min + q - p)
    hi = min(state.n_max, state.n_max + q - p)
    if lo > hi:
        return 0.0 + 0.0j
    nn = np.arange(lo, hi + 1, dtype=np.float64)
    log_ratio = _log_falling_factorial(nn, q) + _log_falling_factorial(nn - q + p, p)
    factor = np.exp(0.5 * log_ratio)
    c = state.amplitudes
    bra = c[lo - q + p - state.n_min : hi - q + p - state.n_min + 1]
    ket = c[lo - state.n_min : hi - state.n_min + 1]
    return complex(np.sum(np.conj(bra) * ket * factor))


def quadrature_moments(state: OracleState, spec: QuadratureSpec) -> MomentVector:
    """True moments <X^k> assembled from normally ordered ladder moments.

    X = exp(-i theta) a + exp(i theta) adag; the phase is absorbed into the
    ladder operators and the normally ordered averages are promoted with
    the constants {1; 3; 6, 3}.
    """
    theta = spec.theta
    raw = np.zeros(5, dtype=np.complex128)
    for k in range(1, 5):
        total = 0.0 + 0.0j
        for j in range(k + 1):
            total += (
                _BINOM[k][j]
                * np.exp(1j * theta * (k - 2 * j))
                * ladder_moment(state, k - j, j)
            )
        raw[k] = total
    m1 = raw[1]
    m2 = raw[2] + 1.0
    m3 = raw[3] + 3.0 * raw[1]
    m4 = raw[4] + 6.0 * raw[2] + 3.0
    return MomentVector(m1.real, m2.real, m3.real, m4.real)


def _apply_centred_quadrature(
    v: np.ndarray, idx: np.ndarray, theta: float, mu: float
) -> np.ndarray:
    """(X - mu) applied to a padded Fock vector."""
    out = -mu * v
    roots = np.sqrt(idx[1:].astype(np.float64))
    out[:-1] += np.exp(-1j * theta) * roots * v[1:]
    out[1:] += np.exp(1j * theta) * roots * v[:-1]
    return out


def oracle_cumulants(state: OracleState, spec: QuadratureSpec) -> CumulantReport:
    """Exact quadrature cumulants, evaluated in the mean-shifted frame.

    k3 and k4 are invariant under X -> X - mu, and the shifted moments stay
    O(1), so the near-cancellation of large raw moments never enters.
    Agrees with the raw-moment assembly of :func:`quadrature_moments`
    wherever the latter is well conditioned.
    """
    theta = spec.theta
    mean_a = ladder_moment(state, 0, 1)
    mu = 2.0 * (np.exp(-1j * theta) * mean_a).real

    pad_lo = min(2, state.n_min)
    pad_hi = 2
    idx = np.arange(state.n_min - pad_lo, state.n_max + pad_hi + 1, dtype=np.int64)
    v = np.zeros(idx.shape[0], dtype=np.complex128)
    v[pad_lo : pad_lo + state.amplitudes.shape[0]] = state.amplitudes

    w1 = _apply_centred_quadrature(v, idx, theta, mu)
    w2 = _apply_centred_quadrature(w1, idx, theta, mu)
    m1 = _real_dot(v, w1)
    m2 = _real_dot(w1, w1)
    m3 = _real_dot(w1, w2)
    m4 = _real_dot(w2, w2)

    k3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    k4 = m4 + 2.0 * m1**4 - 3.0 * m2**2 - 4.0 * m1 * k3
    return CumulantReport(k3, k4, 0.0, 0.0, 0, 0)


@dataclass(frozen=True)
class DenseOperatorSpace:
    """Dense ladder matrices on a cutoff Fock space (verification oracle)."""

    cutoff: int
    a: np.ndarray
    adag: np.ndarray

    @classmethod
    def build(cls, cutoff: int) -> "DenseOperatorSpace":
        a = np.zeros((cutoff, cutoff), dtype=np.complex128)
        for n in range(1, cutoff):
            a[n - 1, n] = math.sqrt(n)
        return cls(cutoff=cutoff, a=a, adag=a.conj().T)


def coherent_vector(alpha0: complex, cutoff: int) -> np.ndarray:
    """Truncated coherent amplitudes exp(-N/2) alpha0^n / sqrt(n!)."""
    alpha0 = complex(alpha0)
    n_particles = abs(alpha0) ** 2
    c = np.zeros(cutoff, dtype=np.complex128)
    if alpha0 == 0:
        c[0] = 1.0
        return c
    log_mod = math.log(abs(alpha0))
    arg = math.atan2(alpha0.imag, alpha0.real)
    for n in range(cutoff):
        log_abs = -0.5 * n_particles + n * log_mod - 0.5 * math.lgamma(n + 1)
        c[n] = math.exp(log_abs) * complex(math.cos(n * arg), math.sin(n * arg))
    return c


def dense_brute_force(
    alpha0: complex, cutoff: int, t: float, spec: QuadratureSpec
) -> MomentVector:
    """Moments via dense matrices: independent check of the windowed oracle.

    The Hamiltonian is diagonal (eigenvalue n^2), so evolution is a phase
    per basis state; quadrature moments come from explicit matrix powers.
    """
    if cutoff > 200:
        raise ValueError("dense brute force is limited to cutoff <= 200")
    if abs(alpha0) ** 2 > cutoff / 3:
        raise ValueError("coherent amplitude too large for this cutoff")
    psi0 = coherent_vector(alpha0, cutoff)
    norm_loss = abs(1.0 - float(np.vdot(psi0, psi0).real))
    if norm_loss > 1e-10:
        raise CutoffInsufficient(f"truncated norm loss {norm_loss:.3e} > 1e-10")

    nn = np.arange(cutoff, dtype=np.float64)
    psi = psi0 * np.exp(-1j * nn * nn * t)

    space = DenseOperatorSpace.build(cutoff)
    x = np.exp(-1j * spec.theta) * space.a + np.exp(1j * spec.theta) * space.adag
    x2 = x @ x
    x3 = x2 @ x
    x4 = x2 @ x2
    moments = [float(np.vdot(psi, op @ psi).real) for op in (x, x2, x3, x4)]
    return MomentVector(*moments)
