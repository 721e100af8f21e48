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
  of raw moments (which reach O(N^2) at large N).  Only the cumulant
  formula :func:`~anharmonic.moments.k3_k4` is shared with the ensembles.

Every state evolved from one :func:`init_coherent` shares one workspace
with it: the window's invariant arrays (the phase exponents, the ladder
roots, the <a> factors), built once and only read afterwards, and one
scratch (two padded window vectors and a one-block temporary) for callers
that bring none.  :func:`cumulant_series` splits the output times over the
run's workers; each worker owns one scratch, evolves every one of its
output times straight into it and takes the cumulants there, so the loop
neither recomputes window data nor allocates a window-sized array.  The
workspace's own scratch serves the first worker, so :func:`oracle_cumulants`
on states without a scratch of their own must not run from several threads
at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import run_tasks, worker_count
from .moments import CumulantReport, QuadratureSpec, k3_k4

#: Window growth: half-width starts at this many Poisson sigmas and doubles.
_INITIAL_HALFWIDTH_SIGMAS = 8.0

#: Default cap on window length ("memory budget").
_MAX_WINDOW = 4_000_000

#: Elements per block of the ladder products in :func:`_centred_quadrature`
#: (256 KiB of complex128), the length of a scratch's temporary.
_BLOCK = 16_384


class WindowOverflow(RuntimeError):
    """The Fock window needed to capture the state exceeds the budget."""


def _real_dot(x: np.ndarray, y: np.ndarray) -> float:
    """Re <x, y> of two contiguous complex vectors, on one thread.

    ``np.vdot`` hands long vectors to the BLAS, whose summation order (and
    so the last bits of the result) depends on its thread count; einsum over
    the interleaved real and imaginary parts sums in a fixed order.
    """
    return float(np.einsum("i,i->", x.view(np.float64), y.view(np.float64)))


class _Workspace:
    """Window invariants, shared read-only by one window's states.

    The padded window adds up to two zero rows below (fewer near n = 0) and
    two above; ``roots`` holds sqrt(n) for the padded indices after the
    first, and ``factor01`` the <a> factors for n in [n_min + 1, n_max],
    formed as exp(0.5 log n) like :func:`ladder_moment`'s, whose bits
    sqrt(n) would not reproduce.  ``scratch`` serves callers that bring no
    scratch of their own.
    """

    def __init__(self, n_min: int, n_max: int, n0: int) -> None:
        nn = np.arange(n_min, n_max + 1, dtype=np.int64)
        self.exponent = ((nn - n0) * (nn + n0)).astype(np.float64)
        self.factor01 = np.exp(0.5 * np.log(nn[1:].astype(np.float64)))
        self.pad_lo = min(2, n_min)
        idx = np.arange(n_min - self.pad_lo, n_max + 3, dtype=np.int64)
        self.roots = np.sqrt(idx[1:].astype(np.float64))
        self.scratch = _Scratch(self)


class _Scratch:
    """One worker's vectors: ``v`` and ``w1`` span the padded window, and
    ``tmp`` holds one block of ladder products.

    ``amplitudes`` is the window's interior of ``v``, where :func:`evolve`
    writes a state evolved into this scratch.
    """

    def __init__(self, work: _Workspace) -> None:
        padded = work.roots.shape[0] + 1
        self.v = np.zeros(padded, dtype=np.complex128)
        self.w1 = np.empty_like(self.v)
        self.tmp = np.empty(min(_BLOCK, padded - 1), dtype=np.complex128)
        self.amplitudes = self.v[work.pad_lo : work.pad_lo + work.exponent.shape[0]]


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
    _work: _Workspace = field(repr=False, compare=False)
    _scratch: _Scratch | None = field(default=None, repr=False, compare=False)

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
    # the probe arrays go before the workspace is built, so the two never coexist
    del rel, weights, rel_window, log_abs, nn, phase
    return OracleState(
        n_min=n_lo,
        n_max=n_hi,
        amplitudes=c,
        initial_amplitudes=c,
        n_particles=n_particles,
        alpha0=alpha0,
        t=0.0,
        raw_mass=raw_mass,
        _work=_Workspace(n_lo, n_hi, mode),
    )


def evolve(state: OracleState, t: float, scratch: _Scratch | None = None) -> OracleState:
    """State at absolute time t: c_n(t) = c_n(0) exp(-i n^2 t).

    The phase is taken relative to the Poisson mode n0, dropping the global
    factor exp(-i n0^2 t) that no moment sees.  Its exponent
    (n - n0)(n + n0) is formed exactly in int64, and since it is an integer,
    t is reduced mod 2 pi first.  Formed as n^2 t in double precision
    instead, the phase would be off by ~1e-8 rad at N = 1e7 and tau = 10,
    enough to miss k3 and k4 by 1e-4 relative.  Phases are always applied
    to the stored t = 0 amplitudes, so repeated calls do not accumulate
    rounding.

    Without ``scratch`` the amplitudes are a new array.  With it they are
    written into ``scratch.amplitudes``, and the state is only valid until
    the next evolve into that scratch or its own :func:`oracle_cumulants`,
    which both overwrite them.
    """
    t_turn = math.fmod(t, 2.0 * math.pi)
    dest = None if scratch is None else scratch.amplitudes
    out = np.multiply(-1j, state._work.exponent, out=dest)
    out *= t_turn
    np.exp(out, out=out)
    np.multiply(state.initial_amplitudes, out, out=out)
    return replace(state, amplitudes=out, t=float(t), _scratch=scratch)


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


def _centred_quadrature(
    src: np.ndarray, out: np.ndarray, roots: np.ndarray, tmp: np.ndarray, theta: float, mu: float
) -> None:
    """out = (X - mu) src on the padded window; ``tmp`` is overwritten.

    The ladder products run one ``tmp``-sized block at a time.  Every
    element is still formed by the same operations in the same order (the
    lowering term is added to all of ``out`` before the raising term), so
    the blocks leave the bits unchanged.
    """
    np.multiply(-mu, src, out=out)
    n, size = roots.shape[0], tmp.shape[0]
    for phase, lo_src, lo_out in ((np.exp(-1j * theta), 1, 0), (np.exp(1j * theta), 0, 1)):
        for lo in range(0, n, size):
            hi = min(lo + size, n)
            t = tmp[: hi - lo]
            np.multiply(phase, roots[lo:hi], out=t)
            t *= src[lo + lo_src : hi + lo_src]
            out[lo + lo_out : hi + lo_out] += t


def oracle_cumulants(state: OracleState, spec: QuadratureSpec) -> CumulantReport:
    """Exact quadrature cumulants, evaluated in the mean-shifted frame.

    k3 and k4 are invariant under X -> X - mu, and the shifted moments stay
    O(1), so the near-cancellation of large raw moments never enters.  The
    work runs in the state's scratch, or the workspace's when the state
    has none (its amplitudes are copied in first): v holds the amplitudes
    between zero pads, the <a> products go in w1, then w1 = (X - mu) v and
    w2 = (X - mu) w1, with w2 written over v once <v, w1> is taken.
    """
    theta = spec.theta
    work = state._work
    scratch = state._scratch
    if scratch is None:
        scratch = work.scratch
        scratch.amplitudes[...] = state.amplitudes
    v, w1, c = scratch.v, scratch.w1, scratch.amplitudes
    m = c.shape[0]
    lo = work.pad_lo
    v[:lo] = 0.0
    v[lo + m :] = 0.0

    prod = w1[: m - 1]
    np.conjugate(c[:-1], out=prod)
    prod *= c[1:]
    prod *= work.factor01
    mean_a = complex(np.sum(prod))
    mu = 2.0 * (np.exp(-1j * theta) * mean_a).real

    _centred_quadrature(v, w1, work.roots, scratch.tmp, theta, mu)
    m1 = _real_dot(v, w1)
    _centred_quadrature(w1, v, work.roots, scratch.tmp, theta, mu)
    m2 = _real_dot(w1, w1)
    m3 = _real_dot(w1, v)
    m4 = _real_dot(v, v)

    k3, k4 = k3_k4(m1, m2, m3, m4)
    return CumulantReport(k3, k4, 0.0, 0.0, 0, 0)


def cumulant_series(
    state0: OracleState, times, specs, threads: int | None = None
) -> list[CumulantReport]:
    """Exact cumulants of state0 evolved to each absolute time, one spec each.

    The times are dealt round-robin to ``engine.worker_count(threads,
    len(times))`` workers, each evolving its times into its own scratch
    (the first takes the workspace's), so nothing window-sized is allocated
    per output.  Every output is computed by the same operations on any
    worker, so the reports do not depend on ``threads``.
    """
    if len(times) != len(specs):
        raise ValueError(f"{len(times)} times but {len(specs)} quadrature specs")
    n_workers = worker_count(threads, len(times))
    reports: list[CumulantReport | None] = [None] * len(times)
    # allocated on the calling thread: from a worker thread's own malloc
    # arena a second scratch added ~2 MB more peak RSS at N = 1e7 (glibc)
    work = state0._work
    scratches = [work.scratch] + [_Scratch(work) for _ in range(n_workers - 1)]

    def run_worker(w: int) -> None:
        for k in range(w, len(times), n_workers):
            reports[k] = oracle_cumulants(evolve(state0, times[k], scratches[w]), specs[k])

    run_tasks(run_worker, range(n_workers), threads)
    return reports
