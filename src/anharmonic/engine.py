"""Trajectory integration for the anharmonic (Kerr) oscillator.

Two integrators are provided:

* :func:`exact_wigner_flow`, the exact truncated-Wigner flow of the
  anharmonic drift (the modulus is conserved, so the flow is a pure phase
  rotation, which it yields as the phasor exp(-i theta) 2 alpha(t)), and
* :class:`MidpointStep`, the one semi-implicit Stratonovich midpoint rule
  on the doubled positive-P phase space, written for the Kerr oscillator's
  constant coefficients and vectorised over paths.  Its implicit equation
  has one complex unknown per path, the product of the two midpoint
  components, which the step takes from a first-order guess and one
  correction; the update is a Cayley form.  It takes unit increments;
  sqrt(dt) is folded into its noise coefficients.

Ensembles are split into batches (the statistical unit used for error
bars), held as one array of batch edges (:func:`batch_edges`), and batches
are grouped into fixed chunks that serve as units of parallel work, all run
on one thread pool.  Each chunk owns one random stream, keyed by the master
seed and the chunk's first trajectory, and every reduction runs in a
deterministic order.  The chunk partition depends only on the run
configuration, so results are bit-identical for a fixed master seed at any
worker count; a path's draws depend on the chunk it falls in.

Both chunk kernels reduce their outputs through one function, which forms
the powers (x - c)^k (k = 1..4) of each output's quadrature x about its
mean-field centre c (:func:`quadrature_centres`) in one reused ``(4, m)``
block and sums them per batch straight into the chunk's batches of the
run's one :class:`~anharmonic.moments.MomentAccumulator`; the draws do not
depend on theta.  A truncated-Wigner chunk passes each output's phasors
exp(-i theta) 2 alpha(t), whose real part is x, read in one pass per
path.  A positive-P chunk keeps every output's ``(2, m)`` state
until it ends, because a path that diverges later is excluded retroactively
from every earlier output: the states are reduced at the end, with the
escaped paths' power columns zeroed.  Its unit Wiener increments are
two-point: +-1 with equal chance, one raw bit of the chunk's stream each.
Only cumulants, which are weak quantities, are estimated, and these
increments suffice for weak order 1 (Kloeden & Platen 1992, sections
14.1-14.2).  They are drawn step-major into one bounded buffer per chunk.
Each kernel returns its alive mask, from which the driver writes the
chunk's surviving and diverged path counts once, since a path's survival
holds for the whole run.

The ensembles take a :class:`TimeGrid`, which carries each output's time
and quadrature phase, not a run configuration; the config checks a
positive-P grid's start and spacing with the stepper's own
:meth:`TimeGrid.steps_between`.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .moments import POSITIVE_P, WIGNER, MomentAccumulator, bulk_monomials
from .sampling import sample_wigner_coherent, stream_for_trajectory

#: Escape radius for divergence flagging, in units of sqrt(N).
ESCAPE_RADIUS_FACTOR = 1e3

#: Target number of trajectories per unit of parallel work.  A chunk is a
#: fixed consecutive group of batches, so the partition depends only on the
#: run configuration, never on the worker count.
_CHUNK_TARGET = 8192

#: Byte cap on a positive-P chunk's noise buffer, which holds every path's
#: +-1 increments, as float64, for a block of steps.  Memory does not grow
#: with steps per gap, and a block (8 steps at 8192 paths) stays in a 2 MiB
#: L2 cache while it is stepped through.  The draws do not depend on it,
#: since each step takes whole raw words of the stream.
_NOISE_BLOCK_BYTES = 2**20

#: exact_wigner_flow's outputs per anchor, and the most gap rotations it keeps.
_ANCHOR_EVERY, _ROTATIONS_KEPT = 64, 4


class ExcessiveDivergence(RuntimeError):
    """More than the allowed fraction of paths diverged."""


@dataclass(frozen=True)
class TimeGrid:
    """Output times in scaled units tau = N * t, each with its quadrature
    phase theta, plus the integrator step dtau (or None), which only positive-P reads."""

    n_particles: float
    taus: tuple[float, ...]
    thetas: tuple[float, ...]
    dtau: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.n_particles) and self.n_particles > 0):
            raise ValueError("particle number must be positive and finite")
        if self.dtau is not None and not (math.isfinite(self.dtau) and self.dtau > 0):
            raise ValueError("dtau must be positive and finite")
        prev = 0.0
        for tau in self.taus:
            if not math.isfinite(tau):
                raise ValueError("tau values must be finite")
            if tau < 0:
                raise ValueError("tau values must be nonnegative")
            if tau < prev:
                raise ValueError("tau values must be nondecreasing")
            prev = tau
        if not math.isfinite(float(prev) / float(self.n_particles)):
            raise ValueError(f"last time tau / N = {prev:g} / {self.n_particles:g} is not finite")
        if len(self.thetas) != len(self.taus):
            raise ValueError(f"{len(self.thetas)} phases for {len(self.taus)} output times")
        if not all(math.isfinite(theta) for theta in self.thetas):
            raise ValueError("theta values must be finite")

    def steps_between(self) -> list[int]:
        """Integrator steps from one output to the next (first from tau=0).

        Only step-based integrators need them; raises ValueError when dtau
        is None or does not divide an output gap.
        """
        if self.dtau is None:
            raise ValueError("this grid has no integrator step dtau")
        counts = []
        prev = 0.0
        for tau in self.taus:
            gap = tau - prev
            n = int(round(gap / self.dtau))
            if abs(n * self.dtau - gap) > 1e-9 * max(1.0, n):
                raise ValueError(f"step {self.dtau} does not divide the output gap {gap}")
            counts.append(n)
            prev = tau
        return counts

    @property
    def dt(self) -> float:
        """Integrator step in unscaled time."""
        return self.dtau / self.n_particles

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(tau / self.n_particles for tau in self.taus)


# ----------------------------------------------------------------------
# vectorised ensemble core


def batch_edges(n_paths: int, n_batches: int) -> np.ndarray:
    """Balanced contiguous batches: batch b holds paths edges[b] .. edges[b+1] - 1.

    Raises ValueError unless 1 <= n_batches <= n_paths, so no batch is empty.
    """
    if not 1 <= n_batches <= n_paths:
        raise ValueError(f"need 1 <= batches <= paths, got {n_batches} batches of {n_paths} paths")
    q, r = divmod(n_paths, n_batches)
    b = np.arange(n_batches + 1)
    return b * q + np.minimum(b, r)


def _chunk_batch_groups(edges: np.ndarray) -> list[tuple[int, int]]:
    """Group consecutive batches into fixed work chunks (config-determined):
    as many whole batches as fit in _CHUNK_TARGET paths, and at least one."""
    groups = []
    start = 0
    while start < len(edges) - 1:
        end = max(start + 1, int(np.searchsorted(edges, edges[start] + _CHUNK_TARGET, side="right")) - 1)
        groups.append((start, end))
        start = end
    return groups


def quadrature_centres(alpha0: complex, grid: TimeGrid) -> np.ndarray:
    """Each output's centre: 2 |alpha0| cos(arg alpha0 - (2 |alpha0|^2 - 1) t - theta),
    the quadrature of the path from alpha0, which exact_wigner_flow and
    bulk_monomials give to rounding, or 0 where the rate overflows."""
    a = np.complex128(alpha0)
    with np.errstate(over="ignore", invalid="ignore"):
        omega = 2.0 * (a.real**2 + a.imag**2) - 1.0
        phase = np.angle(a) - np.array(grid.times) * omega
        centres = np.cos(phase - np.array(grid.thetas)) * (2.0 * np.abs(a))
    return np.where(np.isfinite(centres), centres, 0.0)


def _batch_power_sums(pairs, thetas, centres, edges, out, dead=()) -> None:
    """Sum the quadrature powers of each output's amplitudes per batch into ``out``.

    ``pairs`` yields one pair (a, b) per output, in the form
    bulk_monomials takes (b is None for a Wigner phasor), at its phase in ``thetas``
    and centre in ``centres``; the chunk's batches are the runs between its
    consecutive ``edges``.  Each output's powers are formed in one reused
    block, its ``dead`` path columns zeroed, and summed straight into its
    row of ``out``, shape (n_out, n_batches, 4).  Each run of equal-size
    batches is summed by one ``np.sum`` over a reshaped view, which adds the
    same elements in the same pairwise order as summing each batch slice on
    its own, so the sums are bit-identical.
    """
    runs = [(size, len(list(run))) for size, run in itertools.groupby(np.diff(edges))]
    block = None
    for sums, theta, centre, pair in zip(out, thetas, centres, pairs):
        block = bulk_monomials(theta, *pair, centre, out=block)
        if len(dead):
            block[:, dead] = 0.0
        lo = j = 0
        for size, n in runs:
            sums[j : j + n] = block[:, lo : lo + n * size].reshape(-1, n, size).sum(axis=-1).T
            lo += n * size
            j += n


#: Stratonovich positive-P coefficients of H = (a^dag a)^2, which a test pins
#: to the symbolic derivation: drift (-2i a* a^2, 2i a*^2 a) and noise
#: (sqrt(-2i) a, sqrt(2i) a*), a = alpha1, a* = alpha2*.  The roots are formed
#: as the derivation forms them: their real part is 1.0000000000000002, not 1.
KERR_DRIFT = (-2j, 2j)
KERR_NOISE = ((-2j) ** 0.5, (2j) ** 0.5)


class MidpointStep:
    """The semi-implicit Stratonovich midpoint step, in place on (2, m).

    ``step(y, xi)`` solves  mid = y + (dt/2) A(mid) + (1/2) B(mid) sqrt(dt) xi
    with the unit increments ``xi`` (shape (2, m)) and sets y <- 2 mid - y.
    The state is the doubled phase space (alpha1, alpha2*); the drift is
    (c0 a* a^2, c1 a*^2 a) and the noise (n0 a, n1 a*), with the c_j and n_j
    of :data:`KERR_DRIFT` and :data:`KERR_NOISE` (c1 = -c0).

    Each entry has its own component as a factor, so the equation reads
    mid_j = y_j / (1 - u_j), with u_j = k_j aa + w_j, the half-step drift
    coefficient k_j = (dt/2) c_j, the noise term w_j = (n_j sqrt(dt) / 2) xi_j
    and aa = mid_0 mid_1.  The one unknown per path is aa, which solves
    aa = P / ((1 - u_0)(1 - u_1)) with P = y_0 y_1.  The step starts from the
    first-order guess aa = P (1 + w_0 + w_1), whose drift part
    (k_0 + k_1) P vanishes, takes one correction
    aa <- P / ((1 - u_0)(1 - u_1)), and sets
    y <- y (1 + u) / (1 - u), the Cayley form of 2 mid - y.  Without noise,
    from alpha2* = conj(alpha1), aa is real and u imaginary, so |alpha| is
    kept exactly.  Where the guess puts some 1 - u_j at zero the correction
    divides by zero and the state comes out non-finite.

    The factors 2 and 4 are folded into the coefficients: the step carries
    b = 4 aa and h_j = (1 - u_j) / 2 = x_j - (k_j / 8) b, with
    x_j = (1 - w_j) / 2, so that b = P / (h_0 h_1) and y <- y / h - y.  Built
    once per chunk, with its buffers.
    """

    def __init__(self, dt: float, m: int):
        if dt <= 0:
            raise ValueError("dt must be positive")
        # k_j / 8 and -n_j sqrt(dt) / 4, one (2, 1) column each to broadcast
        # over paths
        self._drift = np.array([[dt / 16 * c] for c in KERR_DRIFT])
        self._noise = np.array([[-math.sqrt(dt) / 4 * c] for c in KERR_NOISE])
        self._x, self._h, self._t = np.empty((3, 2, m), dtype=np.complex128)
        self._b = np.empty(m, dtype=np.complex128)

    def __call__(self, y: np.ndarray, xi: np.ndarray) -> None:
        x, h, t, b = self._x, self._h, self._t, self._b
        p, q = t
        np.multiply(self._noise, xi, out=x)
        x += 0.5
        np.multiply(y[0], y[1], out=p)
        # b = 4 P (1 + w_0 + w_1), as 1 + w_0 + w_1 = 3 - 2 (x_0 + x_1)
        np.add(x[0], x[1], out=b)
        b *= -8.0
        b += 12.0
        b *= p
        np.multiply(self._drift, b, out=h)
        np.subtract(x, h, out=h)
        # the correction b = P / (h_0 h_1), then h at the corrected b
        np.multiply(h[0], h[1], out=q)
        np.divide(p, q, out=b)
        np.multiply(self._drift, b, out=h)
        np.subtract(x, h, out=h)
        np.divide(y, h, out=t)
        np.subtract(t, y, out=y)


def exact_wigner_flow(init: np.ndarray, times, thetas):
    """Yield exp(-i theta) 2 alpha(t), the exact truncated-Wigner flow of
    ``init`` at each time turned to its phase in ``thetas``, a new array each.

    The drift conserves |alpha|: alpha(t) = alpha(0) exp(-i omega t), with
    omega = 2 |alpha(0)|^2 - 1.  Every 64th output, from the first, is
    exp(-i omega t) 2 alpha(0) exp(-i theta) (no exponential at t = 0; theta
    never joins omega t), each other the one before times its step's
    rotation exp(-i (omega dt + dtheta)), the last 4 kept.  A step within
    2^-27 of the first for every path takes the first's rotation times
    1 - i (omega (dt - dt0) + dtheta - dtheta0), exact to rounding (the
    dropped square is below 2^-54); any other its own exponential.
    On tau in [0, 10], theta = 2 tau, 10001 outputs, x stays within 21 eps 2 |alpha(0)|.
    """
    omega = 2.0 * (init.real**2 + init.imag**2) - 1.0
    peak, first = np.max(np.abs(omega)), None

    @functools.lru_cache(_ROTATIONS_KEPT)
    def rotation(gap, turn):
        nonlocal first
        if first is None or abs(gap - first[0]) * peak + abs(turn - first[1]) > 2.0**-27:
            r = np.exp(-1j * (gap * omega + turn))
            first = first or (gap, turn, r)
            return r
        return first[2] * (1.0 - 1j * (omega * (gap - first[0]) + (turn - first[1])))

    for k, (t, theta) in enumerate(zip(times, thetas)):
        if k % _ANCHOR_EVERY == 0:
            z = (np.exp(-1j * (t * omega)) * init if t else init) * (2.0 * cmath.exp(-1j * theta))
        else:
            z = z * rotation(t - prev, theta - prev_theta)
        prev, prev_theta = t, theta
        yield z


def _positive_p_chunk(
    alpha0: complex,
    grid: TimeGrid,
    centres: np.ndarray,
    seed: int,
    edges: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Integrate the paths edges[0] .. edges[-1] - 1 and sum their batches'
    powers into ``out``; return the (m,) alive mask.

    A path escapes once either component's modulus exceeds
    ESCAPE_RADIUS_FACTOR sqrt(N), with N = |alpha0|^2 (1 for the vacuum), or
    is not finite, and stays escaped.  Diverged trajectories are left out of
    the sums at every output time, earlier ones included, so every output's
    (2, m) state is kept until the chunk ends; the escaped paths' power
    columns are then zeroed, whatever their states hold.
    """
    m = int(edges[-1] - edges[0])
    steps = grid.steps_between()
    n_out = len(grid.taus)

    y = np.empty((2, m), dtype=np.complex128)
    # a coherent state is a delta distribution here: a deterministic start
    y[0], y[1] = alpha0, np.conj(alpha0)
    stream = stream_for_trajectory(seed, int(edges[0]))
    alive = np.ones(m, dtype=bool)
    step = MidpointStep(grid.dt, m)
    radius = np.empty((2, m), dtype=np.float64)
    inside = np.empty((2, m), dtype=bool)
    # nan and inf radii fail the comparison, also at an infinite escape radius
    limit = min(ESCAPE_RADIUS_FACTOR * (abs(alpha0) or 1.0), sys.float_info.max)

    states = np.empty((n_out, 2, m), dtype=np.complex128)

    # The stream fills the step-major +-1 increments block by block, which
    # replays the values a single whole-gap draw would give.
    block = max(1, min(max(steps, default=0), _NOISE_BLOCK_BYTES // (2 * 8 * m)))
    draws = np.empty((block, 2, m), dtype=np.float64)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k_out, n_steps in enumerate(steps):
            for k_block in range(0, n_steps, block):
                nb = min(block, n_steps - k_block)
                stream.signs(draws[:nb])
                for xi in draws[:nb]:
                    step(y, xi)
                    # escapes and non-finite values end a path for the run
                    np.abs(y, out=radius)
                    np.less_equal(radius, limit, out=inside)
                    alive &= inside[0]
                    alive &= inside[1]
            states[k_out] = y
        # escaped states may be non-finite, as are their powers until zeroed
        dead = np.flatnonzero(~alive)
        _batch_power_sums(states, grid.thetas, centres, edges, out, dead)
    return alive


def _truncated_wigner_chunk(
    alpha0: complex,
    grid: TimeGrid,
    centres: np.ndarray,
    seed: int,
    edges: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Exact-flow chunk: sum the batches' powers of the paths
    edges[0] .. edges[-1] - 1 into ``out``; every path stays alive."""
    m = int(edges[-1] - edges[0])
    init = sample_wigner_coherent(alpha0, stream_for_trajectory(seed, int(edges[0])), m)
    phasors = ((z, None) for z in exact_wigner_flow(init, grid.times, grid.thetas))
    _batch_power_sums(phasors, grid.thetas, centres, edges, out)
    return np.ones(m, dtype=bool)


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(threads: int | None, n_tasks: int) -> int:
    """Workers for n_tasks independent tasks: ``threads`` (default: the CPUs
    available), capped at the CPUs available and at n_tasks.

    The ensembles resolve ``--threads`` here; the oracle runs on one thread.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cpus = _available_cpus()
    return min(cpus if threads is None else threads, cpus, n_tasks)


def _run_chunked(representation: str, kernel, alpha0: complex, grid: TimeGrid,
                 n_paths: int, n_batches: int, seed: int, threads: int | None) -> MomentAccumulator:
    """Run ``kernel`` over the fixed chunks of whole batches into one accumulator.

    The batches are cut at ``batch_edges(n_paths, n_batches)``.  For the
    batches b_lo .. b_hi - 1 the kernel is called as
    ``kernel(alpha0, grid, centres, seed, edges[b_lo:b_hi + 1], out)``: it
    integrates their paths, sums their powers about each output's centre
    into ``out = acc.batch_sums[:, b_lo:b_hi]`` and returns their alive
    mask.  Each kernel sums every batch pairwise over a fixed trajectory
    order, and each chunk writes only its own batches, so the result is
    independent of scheduling.
    """
    edges = batch_edges(n_paths, n_batches)
    groups = _chunk_batch_groups(edges)
    centres = quadrature_centres(alpha0, grid)
    acc = MomentAccumulator(representation, len(centres), n_batches)
    acc.centres[:] = centres

    def work(group):
        b_lo, b_hi = group
        chunk = edges[b_lo : b_hi + 1]
        alive = kernel(alpha0, grid, centres, seed, chunk, acc.batch_sums[:, b_lo:b_hi])
        counts = np.add.reduceat(alive, chunk[:-1] - chunk[0])
        acc.batch_counts[b_lo:b_hi] = counts
        acc.batch_diverged[b_lo:b_hi] = np.diff(chunk) - counts

    with ThreadPoolExecutor(max_workers=worker_count(threads, len(groups))) as pool:
        list(pool.map(work, groups))
    return acc


def run_truncated_wigner(
    alpha0: complex,
    grid: TimeGrid,
    n_paths: int,
    n_batches: int,
    seed: int = 0,
    threads: int | None = None,
) -> MomentAccumulator:
    """Truncated-Wigner ensemble for the anharmonic oscillator (exact stepper),
    at each output time and phase of ``grid``."""
    return _run_chunked(WIGNER, _truncated_wigner_chunk, alpha0, grid, n_paths, n_batches, seed, threads)


def run_positive_p(
    alpha0: complex,
    grid: TimeGrid,
    n_paths: int,
    n_batches: int,
    seed: int = 0,
    threads: int | None = None,
    divergence_threshold: float = 1e-3,
) -> MomentAccumulator:
    """Positive-P ensemble under the anharmonic-oscillator Stratonovich model,
    at each output time and phase of ``grid``.

    Raises :class:`ExcessiveDivergence` when more than
    ``divergence_threshold`` of the paths leave the escape radius
    ESCAPE_RADIUS_FACTOR |alpha0| anywhere in the reported window: once a
    nontrivial fraction of the ensemble is excluded, the surviving average
    no longer estimates the true moments.
    """
    acc = _run_chunked(POSITIVE_P, _positive_p_chunk, alpha0, grid, n_paths, n_batches, seed, threads)
    n_div = acc.n_diverged
    if n_div > divergence_threshold * n_paths:
        raise ExcessiveDivergence(
            f"{n_div} of {n_paths} paths diverged "
            f"(threshold {divergence_threshold:.2%})"
        )
    return acc
