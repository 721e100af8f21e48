"""Trajectory integration for the anharmonic (Kerr) oscillator.

Both ensembles have an exact flow:

* :func:`exact_wigner_flow`, the truncated-Wigner flow of the anharmonic
  drift (the modulus is conserved, so the flow is a pure phase rotation,
  which it yields as the phasor exp(-i theta) 2 alpha(t)), and
* :func:`positive_p_pairs`, the positive-P Stratonovich equations on the
  doubled phase space solved in log variables.  With the Kerr oscillator's
  constant coefficients the drifts of ln alpha1 and ln alpha2* cancel, so
  n = alpha1 alpha2* moves by one exact factor exp(sqrt(dt) (n0 xi1 + n1 xi2))
  per step, and each output takes alpha1 = alpha0 exp(c0 I + n0 W1) and
  alpha2* = conj(alpha0) exp(c1 I + n1 W2), with I = int n ds by the
  trapezoid rule on the steps and W the Wiener paths.  The unit increments
  xi are +-1 with equal chance, one raw bit of the chunk's stream each,
  which suffices for weak order 1 (Kloeden & Platen 1992, sections
  14.1-14.2): only cumulants, which are weak quantities, are estimated.

Ensembles are split into batches (the statistical unit used for error
bars), held as one array of batch edges (:func:`batch_edges`), and batches
are grouped into fixed chunks that serve as units of parallel work, all run
on one thread pool.  Each chunk owns one random stream, keyed by the master
seed and the chunk's first trajectory, and every reduction runs in a
deterministic order.  The chunk partition depends only on the run
configuration, so results are bit-identical for a fixed master seed at any
worker count; a path's draws depend on the chunk it falls in.

Every chunk has one shape: its stream's raw bits or normals feed the
ensemble's flow, which yields each output's quadrature x at the output's
phase theta, and one function sums the powers (x - c)^k (k = 1..4) about
its mean-field centre c (:func:`quadrature_centres`), formed in one reused
``(4, m)`` block, per batch into the run's one
:class:`~anharmonic.moments.MomentAccumulator`; the draws do not depend on
theta.  No path is ever excluded, so every batch keeps all its paths.

The ensembles take a :class:`TimeGrid`, which carries each output's time
and quadrature phase, not a run configuration; the config checks a
positive-P grid's start and spacing with the flow's own
:meth:`TimeGrid.steps_between`.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .moments import POSITIVE_P, WIGNER, MomentAccumulator, bulk_monomials
from .sampling import sample_wigner_coherent, stream_for_trajectory

#: Target number of trajectories per unit of parallel work.  A chunk is a
#: fixed consecutive group of batches, so the partition depends only on the
#: run configuration, never on the worker count.
_CHUNK_TARGET = 8192

#: Byte cap on a positive-P chunk's block of step factors, one complex128
#: per path and step.  Memory does not grow with steps per gap, and a block
#: (8 steps at 8192 paths) stays in a 2 MiB L2 cache while it is stepped
#: through.  The draws do not depend on it, since each step takes whole raw
#: words of the stream.
_NOISE_BLOCK_BYTES = 2**20

#: exact_wigner_flow's outputs per anchor, and the most gap rotations it keeps.
_ANCHOR_EVERY, _ROTATIONS_KEPT = 64, 4


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
    the quadrature of the path from alpha0, which both flows yield to
    rounding on a noise-free path, or 0 where the rate overflows."""
    a = np.complex128(alpha0)
    with np.errstate(over="ignore", invalid="ignore"):
        omega = 2.0 * (a.real**2 + a.imag**2) - 1.0
        phase = np.angle(a) - np.array(grid.times) * omega
        centres = np.cos(phase - np.array(grid.thetas)) * (2.0 * np.abs(a))
    return np.where(np.isfinite(centres), centres, 0.0)


def _batch_power_sums(xs, centres, edges, out) -> None:
    """Sum the powers of each output's quadrature per batch into ``out``.

    ``xs`` yields each output's quadrature, taken about its centre in
    ``centres``; the chunk's batches are the runs between its consecutive
    ``edges``.  Each output's powers are formed in one reused block and
    summed straight into its row of ``out``, shape (n_out, n_batches, 4).
    Each run of equal-size batches is summed by one ``np.sum`` over a
    reshaped view, which adds the same elements in the same pairwise order
    as summing each batch slice on its own, so the sums are bit-identical.
    """
    runs = [(size, len(list(run))) for size, run in itertools.groupby(np.diff(edges))]
    block = None
    for sums, centre, x in zip(out, centres, xs):
        block = bulk_monomials(centre, x, out=block)
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


def positive_p_pairs(alpha0: complex, grid: TimeGrid, stream, m: int):
    """Yield each output's pair (alpha1, alpha2*) of m paths, as one new (2, m)
    array, from the coherent start (alpha0, conj(alpha0)), driven by ``stream.bits``.

    A step's bits (b1, b2) of a path, in RandomStream.bits rows of (2, m),
    pick its factor exp(sqrt(dt) (n0 xi1 + n1 xi2)) of n, xi = 2 b - 1, as
    entry 2 b1 + b2 of a table.  After K steps with ones_j bits b_j set,
    I = dt (n_1 + ... + n_K + (n_0 - n_K) / 2) and W_j = sqrt(dt) (2 ones_j - K),
    which give exactly the start at t = 0.  An overflow leaves non-finite
    values, which the estimates refuse.
    """
    steps = grid.steps_between()
    start = np.array([[alpha0], [np.conj(alpha0)]], dtype=np.complex128)
    n_start = start[0, 0] * start[1, 0]
    root_dt = math.sqrt(grid.dt)
    sign = np.array([-1.0, 1.0])
    table = np.exp(root_dt * (KERR_NOISE[0] * sign[:, None] + KERR_NOISE[1] * sign)).ravel()
    drift = np.array(KERR_DRIFT)[:, None]
    noise = root_dt * np.array(KERR_NOISE)[:, None]

    n = np.full(m, n_start)
    total = np.zeros(m, dtype=np.complex128)
    ones = np.zeros((2, m), dtype=np.int64)
    block = max(1, min(max(steps, default=0), _NOISE_BLOCK_BYTES // (16 * m)))
    index = np.empty((block, m), dtype=np.uint8)
    factors = np.empty((block, m), dtype=np.complex128)
    for n_steps, k in zip(steps, itertools.accumulate(steps)):
        for k_block in range(0, n_steps, block):
            nb = min(block, n_steps - k_block)
            bits = stream.bits(nb, 2 * m).reshape(nb, 2, m)
            ones += bits.sum(axis=0, dtype=np.int32)
            np.multiply(bits[:, 0], 2, out=index[:nb])
            index[:nb] += bits[:, 1]
            # every index lies in the table, so clipping (the fast mode) changes none
            np.take(table, index[:nb], out=factors[:nb], mode="clip")
            for factor in factors[:nb]:
                n *= factor
                total += n
        integral = grid.dt * (total + 0.5 * (n_start - n))
        yield start * np.exp(drift * integral + noise * (2 * ones - k))


def positive_p_flow(alpha0: complex, grid: TimeGrid, stream, m: int):
    """Yield each output's quadrature e^{-i theta} alpha1 + e^{i theta} alpha2* at its
    phase theta, formed in place in the pair's array from :func:`positive_p_pairs`."""
    for theta, alpha in zip(grid.thetas, positive_p_pairs(alpha0, grid, stream, m)):
        u = complex(math.cos(theta), -math.sin(theta))
        alpha *= [[u], [u.conjugate()]]
        alpha[0] += alpha[1]
        yield alpha[0]


def _wigner_flow(alpha0: complex, grid: TimeGrid, stream, m: int):
    """Each output's quadrature x = Re(exp(-i theta) 2 alpha) of m paths from ``stream``."""
    init = sample_wigner_coherent(alpha0, stream, m)
    return (z.real for z in exact_wigner_flow(init, grid.times, grid.thetas))


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


def _run_chunked(representation: str, flow, alpha0: complex, grid: TimeGrid,
                 n_paths: int, n_batches: int, seed: int, threads: int | None) -> MomentAccumulator:
    """Run ``flow`` over the fixed chunks of whole batches into one accumulator.

    The batches are cut at ``batch_edges(n_paths, n_batches)``.  For the
    batches b_lo .. b_hi - 1, spanning paths edges[b_lo] .. edges[b_hi] - 1,
    ``flow(alpha0, grid, stream, m)`` yields each output's quadrature of
    their m paths, from the stream keyed by the seed and edges[b_lo], and
    its powers about the output's centre are summed into
    ``acc.batch_sums[:, b_lo:b_hi]``.  Each batch is summed pairwise over a
    fixed trajectory order, and each chunk writes only its own batches, so
    the result is independent of scheduling.  Overflows are left to the
    estimates, which refuse non-finite values.
    """
    edges = batch_edges(n_paths, n_batches)
    groups = _chunk_batch_groups(edges)
    centres = quadrature_centres(alpha0, grid)
    acc = MomentAccumulator(representation, len(centres), n_batches)
    acc.centres[:] = centres
    acc.batch_counts[:] = np.diff(edges)

    def work(group):
        b_lo, b_hi = group
        chunk = edges[b_lo : b_hi + 1]
        stream = stream_for_trajectory(seed, int(chunk[0]))
        with np.errstate(over="ignore", invalid="ignore"):
            xs = flow(alpha0, grid, stream, int(chunk[-1] - chunk[0]))
            _batch_power_sums(xs, centres, chunk, acc.batch_sums[:, b_lo:b_hi])

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
    return _run_chunked(WIGNER, _wigner_flow, alpha0, grid, n_paths, n_batches, seed, threads)


def run_positive_p(
    alpha0: complex,
    grid: TimeGrid,
    n_paths: int,
    n_batches: int,
    seed: int = 0,
    threads: int | None = None,
) -> MomentAccumulator:
    """Positive-P ensemble under the anharmonic-oscillator Stratonovich model
    (:func:`positive_p_flow`), at each output time and phase of ``grid``."""
    return _run_chunked(POSITIVE_P, positive_p_flow, alpha0, grid, n_paths, n_batches, seed, threads)
