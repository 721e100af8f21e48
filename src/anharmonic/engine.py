"""Trajectory integration for the anharmonic (Kerr) oscillator.

Two integrators are provided:

* :func:`exact_wigner_flow`, the exact truncated-Wigner flow of the
  anharmonic drift (the modulus is conserved, so the flow is a pure phase
  rotation), and
* :class:`MidpointStep`, the one semi-implicit Stratonovich midpoint rule
  on the doubled positive-P phase space, written for the Kerr model's four
  terms and vectorised over paths.  Its implicit equation has one complex
  unknown per path, the product of the two midpoint components, which the
  step takes from a first-order guess and one correction; the update is a
  Cayley form.  It takes unit increments; sqrt(dt) is folded into its noise
  coefficients.

Ensembles are split into batches (the statistical unit used for error
bars) and batches are grouped into fixed chunks that serve as units of
parallel work.  Each chunk owns one random stream, keyed by the master
seed and the chunk's first trajectory, and every reduction runs in a
deterministic order.  The chunk partition depends only on the run
configuration, so results are bit-identical for a fixed master seed at any
worker count; a path's draws depend on the chunk it falls in.

Both chunk kernels reduce their outputs through one function, which forms
each output's monomials in one reused ``(n_monomials, m)`` block and sums
them per batch at once.  A truncated-Wigner chunk passes each output's
amplitudes as they are formed.  A positive-P chunk keeps every output's
``(2, m)`` state until it ends, because a path that diverges later is
excluded retroactively from every earlier output: the escaped paths'
columns are zeroed once, and the states are then reduced.  Its unit
Wiener increments are two-point: +-1 with equal chance, one raw bit of the
chunk's stream each.  Only cumulants, which are weak quantities, are
estimated, and these increments suffice for weak order 1 (Kloeden & Platen
1992, sections 14.1-14.2).  They are drawn step-major into one bounded
buffer per chunk.  A run returns one
:class:`~anharmonic.moments.MomentAccumulator`: each chunk writes its
batches' sums for every output into it, and its surviving and diverged
path counts once, since a path's survival holds for the whole run.

The ensembles take a :class:`TimeGrid`, not a run configuration; the
config checks a positive-P grid's start and spacing with the stepper's
own :meth:`TimeGrid.steps_between`.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import symbolic
from .moments import MONOMIALS, POSITIVE_P, WIGNER, MomentAccumulator, bulk_monomials
from .sampling import stream_for_trajectory, wigner_initial
from .symbolic import DriftDiffusionModel

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


class ExcessiveDivergence(RuntimeError):
    """More than the allowed fraction of paths diverged."""


@dataclass(frozen=True)
class TimeGrid:
    """Output times in scaled units tau = N * t, plus the integrator step."""

    n_particles: float
    taus: tuple[float, ...]
    dtau: float

    def __post_init__(self):
        if not (math.isfinite(self.n_particles) and self.n_particles > 0):
            raise ValueError("particle number must be positive and finite")
        if not (math.isfinite(self.dtau) and self.dtau > 0):
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

    def steps_between(self) -> list[int]:
        """Integrator steps from one output to the next (first from tau=0).

        Only step-based integrators need them; raises ValueError when dtau
        does not divide an output gap.
        """
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


def batch_slices(n_paths: int, n_batches: int) -> list[tuple[int, int]]:
    """Balanced contiguous batch index ranges."""
    q, r = divmod(n_paths, n_batches)
    slices = []
    lo = 0
    for b in range(n_batches):
        hi = lo + q + (1 if b < r else 0)
        slices.append((lo, hi))
        lo = hi
    return slices


def _chunk_batch_groups(slices: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Group consecutive batches into fixed work chunks (config-determined)."""
    groups = []
    start = 0
    while start < len(slices):
        end = start
        size = 0
        while end < len(slices) and (size == 0 or size + (slices[end][1] - slices[end][0]) <= _CHUNK_TARGET):
            size += slices[end][1] - slices[end][0]
            end += 1
        groups.append((start, end))
        start = end
    return groups


def _batch_monomial_sums(pairs, n_out: int, bounds: list[tuple[int, int]]) -> np.ndarray:
    """Per-batch monomial sums of each output's amplitude pair.

    ``pairs`` yields one ``(abar, a)`` pair of (m,) arrays per output, and
    ``bounds`` holds the chunk's contiguous (lo, hi) batch offsets.  Each
    output's monomials are formed in one reused (n_monomials, m) block and
    summed straight into its row of the returned (n_out, n_batches,
    n_monomials) array.  Each run of equal-size batches is summed by one
    ``np.sum`` over a reshaped view, which adds the same elements in the
    same pairwise order as summing each batch slice on its own, so the sums
    are bit-identical.
    """
    sizes = itertools.groupby(bounds, key=lambda b: b[1] - b[0])
    runs = [(size, len(list(run))) for size, run in sizes]
    block = np.empty((len(MONOMIALS), bounds[-1][1]), dtype=np.complex128)
    sums = np.empty((n_out, len(bounds), len(MONOMIALS)), dtype=np.complex128)
    for out, (abar, a) in zip(sums, pairs):
        bulk_monomials(abar, a, out=block)
        lo = j = 0
        for size, n in runs:
            out[j : j + n] = block[:, lo : lo + n * size].reshape(-1, n, size).sum(axis=-1).T
            lo += n * size
            j += n
    return sums


#: Term shape of the Stratonovich positive-P Kerr model, one set of (p, q)
#: exponents of a*^p a^q per entry: the two drift entries, then the two noise
#: entries.  a is alpha1 (y[0]) and a* is alpha2* (y[1]).
_KERR_TERMS = ({(1, 2)}, {(2, 1)}, {(0, 1)}, {(1, 0)})


class MidpointStep:
    """The semi-implicit Stratonovich midpoint step, in place on (2, m).

    ``step(y, xi)`` solves  mid = y + (dt/2) A(mid) + (1/2) B(mid) sqrt(dt) xi
    with the unit increments ``xi`` (shape (2, m)) and sets y <- 2 mid - y.
    The state is the doubled phase space (alpha1, alpha2*).  Only the Kerr
    shape is stepped: drift (c0 a* a^2, c1 a*^2 a) and noise (n0 a, n1 a*),
    with the four coefficients read from ``model``.

    Each entry has its own component as a factor, so the equation reads
    mid_j = y_j / (1 - u_j), with u_j = k_j aa + w_j, the half-step drift
    coefficient k_j = (dt/2) c_j, the noise term w_j = (n_j sqrt(dt) / 2) xi_j
    and aa = mid_0 mid_1.  The one unknown per path is aa, which solves
    aa = P / ((1 - u_0)(1 - u_1)) with P = y_0 y_1.  The step starts from the
    first-order guess aa = P (1 + (k_0 + k_1) P + w_0 + w_1), takes one
    correction aa <- P / ((1 - u_0)(1 - u_1)), and sets
    y <- y (1 + u) / (1 - u), the Cayley form of 2 mid - y.  Without noise,
    from alpha2* = conj(alpha1), aa is real and u imaginary, so |alpha| is
    kept exactly.  Where the guess puts some 1 - u_j at zero the correction
    divides by zero and the state comes out non-finite.

    The factors 2 and 4 are folded into the coefficients: the step carries
    b = 4 aa and h_j = (1 - u_j) / 2 = x_j - (k_j / 8) b, with
    x_j = (1 - w_j) / 2, so that b = P / (h_0 h_1) and y <- y / h - y.  Built
    once per chunk, with its buffers.
    """

    def __init__(self, model: DriftDiffusionModel, dt: float, m: int):
        if model.convention != "stratonovich":
            raise ValueError("midpoint stepper expects a Stratonovich model")
        if tuple(set(poly.terms) for poly in model.drift + model.noise) != _KERR_TERMS:
            raise ValueError("midpoint stepper expects the two-component Kerr model with noise")
        if dt <= 0:
            raise ValueError("dt must be positive")
        # k_j / 8 and -n_j sqrt(dt) / 4, one (2, 1) column each to broadcast
        # over paths
        self._drift, self._noise = (
            np.array([list(poly.scaled(scale).terms.values()) for poly in polys])
            for polys, scale in ((model.drift, dt / 16), (model.noise, -math.sqrt(dt) / 4))
        )
        # the guess's 4 (k_0 + k_1), zero for a Hermitian Kerr term
        self._drift_sum = complex(32.0 * self._drift.sum())
        self._x, self._h, self._t = np.empty((3, 2, m), dtype=np.complex128)
        self._b = np.empty(m, dtype=np.complex128)

    def __call__(self, y: np.ndarray, xi: np.ndarray) -> None:
        x, h, t, b = self._x, self._h, self._t, self._b
        p, q = t
        np.multiply(self._noise, xi, out=x)
        x += 0.5
        np.multiply(y[0], y[1], out=p)
        # b = 4 P (1 + (k_0 + k_1) P + w_0 + w_1), as 1 + w_0 + w_1 = 3 - 2 (x_0 + x_1)
        np.add(x[0], x[1], out=b)
        b *= -8.0
        b += 12.0
        if self._drift_sum:
            np.multiply(p, self._drift_sum, out=q)
            b += q
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


def exact_wigner_flow(init: np.ndarray, times):
    """Yield the exact truncated-Wigner anharmonic flow of ``init`` at each time.

    The drift d(alpha)/dt = -i (2 |alpha|^2 - 1) alpha conserves |alpha|, so
    alpha(t) = alpha(0) exp(-i (2 |alpha(0)|^2 - 1) t).  Every output is
    rotated from the initial amplitudes, so rounding does not build up from
    one output to the next.
    """
    omega = 2.0 * (init.real**2 + init.imag**2) - 1.0
    for t in times:
        yield init * np.exp(-1j * omega * t)


def _positive_p_chunk(
    model: DriftDiffusionModel,
    alpha0: complex,
    grid: TimeGrid,
    seed: int,
    traj_lo: int,
    traj_hi: int,
    escape_radius: float,
    bounds: list[tuple[int, int]],
):
    """Integrate one chunk of trajectories; return per-batch monomial sums.

    Returns (sums[(n_out, n_batches, n_monomials)], alive[(m,)]).  Diverged
    trajectories are left out of the sums at every output time, earlier
    ones included, so every output's (2, m) state is kept until the chunk
    ends; the escaped paths' columns are then zeroed, and their monomials
    add nothing to the sums.
    """
    m = traj_hi - traj_lo
    steps = grid.steps_between()
    n_out = len(grid.taus)

    y = np.empty((2, m), dtype=np.complex128)
    # a coherent state is a delta distribution here: a deterministic start
    y[0], y[1] = alpha0, np.conj(alpha0)
    stream = stream_for_trajectory(seed, traj_lo)
    alive = np.ones(m, dtype=bool)
    step = MidpointStep(model, grid.dt, m)
    radius = np.empty((2, m), dtype=np.float64)
    inside = np.empty((2, m), dtype=bool)
    bad = np.empty(m, dtype=bool)
    # nan and inf radii fail the comparison, also at an infinite escape radius
    limit = min(escape_radius, sys.float_info.max)

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
                    # flag escapes and non-finite values, freeze those paths
                    np.abs(y, out=radius)
                    np.less_equal(radius, limit, out=inside)
                    np.logical_and(inside[0], inside[1], out=bad)
                    np.logical_not(bad, out=bad)
                    bad &= alive
                    if bad.any():
                        y[:, bad] = 0.0
                        alive &= ~bad
            states[k_out] = y

    states[:, :, ~alive] = 0.0
    return _batch_monomial_sums(((abar, a) for a, abar in states), n_out, bounds), alive


def _truncated_wigner_chunk(
    alpha0: complex,
    grid: TimeGrid,
    seed: int,
    traj_lo: int,
    traj_hi: int,
    bounds: list[tuple[int, int]],
):
    """Exact-flow chunk: per-output batch sums for the anharmonic drift."""
    m = traj_hi - traj_lo
    init = wigner_initial(alpha0, seed, traj_lo, traj_hi)

    pairs = ((alpha_t.conj(), alpha_t) for alpha_t in exact_wigner_flow(init, grid.times))
    return _batch_monomial_sums(pairs, len(grid.taus), bounds), np.ones(m, dtype=bool)


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


def run_tasks(fn, tasks, threads: int | None) -> list:
    """[fn(task) for task in tasks] on worker_count(threads, len(tasks)) threads."""
    tasks = list(tasks)
    n_workers = worker_count(threads, len(tasks))
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def _run_chunked(
    representation: str,
    n_paths: int,
    n_batches: int,
    n_outputs: int,
    chunk_fn,
    threads: int | None,
) -> MomentAccumulator:
    """Run chunk_fn over fixed trajectory ranges and merge its batch sums.

    ``chunk_fn(t_lo, t_hi, bounds)`` integrates paths [t_lo, t_hi), whose
    batches are ``bounds`` (offsets from t_lo), and returns per-batch sums
    of shape (n_outputs, n_batches_in_chunk, n_monomials) together with the
    chunk's alive mask.  Each kernel sums every batch pairwise over a fixed
    trajectory order, and each chunk writes its own disjoint batch slice of
    the one accumulator, so the result is independent of scheduling.
    """
    slices = batch_slices(n_paths, n_batches)
    groups = _chunk_batch_groups(slices)
    acc = MomentAccumulator(representation, n_outputs, n_batches)

    def work(group):
        b_lo, b_hi = group
        t_lo = slices[b_lo][0]
        bounds = [(lo - t_lo, hi - t_lo) for lo, hi in slices[b_lo:b_hi]]
        sums, alive = chunk_fn(t_lo, slices[b_hi - 1][1], bounds)
        counts = np.array([alive[lo:hi].sum() for lo, hi in bounds], dtype=np.int64)
        sizes = np.array([hi - lo for lo, hi in bounds])
        acc.batch_sums[:, b_lo:b_hi] = sums
        acc.batch_counts[b_lo:b_hi] = counts
        acc.batch_diverged[b_lo:b_hi] = sizes - counts

    run_tasks(work, groups, threads)
    return acc


def run_truncated_wigner(
    alpha0: complex,
    grid: TimeGrid,
    n_paths: int,
    n_batches: int,
    seed: int = 0,
    threads: int | None = None,
) -> MomentAccumulator:
    """Truncated-Wigner ensemble for the anharmonic oscillator (exact stepper)."""

    def chunk(t_lo, t_hi, bounds):
        return _truncated_wigner_chunk(alpha0, grid, seed, t_lo, t_hi, bounds)

    return _run_chunked(WIGNER, n_paths, n_batches, len(grid.taus), chunk, threads)


def run_positive_p(
    alpha0: complex,
    grid: TimeGrid,
    n_paths: int,
    n_batches: int,
    seed: int = 0,
    threads: int | None = None,
    divergence_threshold: float = 1e-3,
    escape_radius: float | None = None,
) -> MomentAccumulator:
    """Positive-P ensemble under the anharmonic-oscillator Stratonovich model.

    Raises :class:`ExcessiveDivergence` when more than
    ``divergence_threshold`` of the paths leave the escape radius anywhere
    in the reported window: once a nontrivial fraction of the ensemble is
    excluded, the surviving average no longer estimates the true moments.
    """
    model = symbolic.ito_to_stratonovich(
        symbolic.derive_positive_p_model(symbolic.kerr_hamiltonian())
    )
    if escape_radius is None:
        n = abs(alpha0) ** 2
        escape_radius = ESCAPE_RADIUS_FACTOR * math.sqrt(n if n > 0 else 1.0)

    def chunk(t_lo, t_hi, bounds):
        return _positive_p_chunk(model, alpha0, grid, seed, t_lo, t_hi, escape_radius, bounds)

    acc = _run_chunked(POSITIVE_P, n_paths, n_batches, len(grid.taus), chunk, threads)
    n_div = acc.n_diverged
    if n_div > divergence_threshold * n_paths:
        raise ExcessiveDivergence(
            f"{n_div} of {n_paths} paths diverged "
            f"(threshold {divergence_threshold:.2%})"
        )
    return acc

