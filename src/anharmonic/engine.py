"""Trajectory integration for the phase-space models.

Two steppers are provided:

* an exact rotation update for the truncated-Wigner anharmonic drift
  (the modulus is conserved, so the flow is a pure phase rotation), and
* a semi-implicit Stratonovich midpoint rule for models with
  multiplicative noise, using a fixed number of fixed-point iterations
  with the noise increment held fixed across iterations.

Ensembles are split into batches (the statistical unit used for error
bars) and batches are grouped into fixed chunks that serve as units of
parallel work.  Each trajectory owns its own random stream and every
reduction runs in a deterministic order, so results are bit-identical
for a fixed master seed at any worker count.

Chunk kernels reduce each output to per-batch monomial sums as soon as
its monomials are formed, so a truncated-Wigner chunk holds one
``(n_monomials, m)`` block whatever the number of outputs.  Positive-P
chunks keep every output's block until the end, because a path that
diverges later is excluded retroactively from every earlier output.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import symbolic
from .moments import MONOMIALS, MomentAccumulator, bulk_monomials
from .sampling import (
    POSITIVE_P,
    WIGNER,
    InitialStateSpec,
    RandomStream,
    sample_positive_p_coherent,
    stream_for_trajectory,
    wigner_initial,
)
from .symbolic import DriftDiffusionModel, PhasePolynomial, evaluate

#: Escape radius for divergence flagging, in units of sqrt(N).
ESCAPE_RADIUS_FACTOR = 1e3

#: Fixed-point iterations of the semi-implicit midpoint rule.
MIDPOINT_ITERATIONS = 4

#: Target number of trajectories per unit of parallel work.  A chunk is a
#: fixed consecutive group of batches, so the partition depends only on the
#: run configuration, never on the worker count.
_CHUNK_TARGET = 8192

#: Byte cap on each of a positive-P chunk's two noise buffers (draws in path
#: order, scaled increments in step order).  An output gap is drawn in blocks
#: of at most this many bytes, so memory does not grow with steps per gap:
#: 256 steps per block at 8192 paths.
_NOISE_BLOCK_BYTES = 32 * 2**20


class DivergedTrajectory(RuntimeError):
    """A trajectory left the escape radius or became non-finite."""


class ExcessiveDivergence(RuntimeError):
    """More than the allowed fraction of paths diverged."""


@dataclass(frozen=True)
class PhaseState:
    """One trajectory's phase-space point: (alpha,) or (alpha1, alpha2*)."""

    components: tuple[complex, ...]
    t: float = 0.0

    def __post_init__(self):
        for c in self.components:
            c = complex(c)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("phase-space components must be finite")


@dataclass(frozen=True)
class TimeGrid:
    """Output times in scaled units tau = N * t, plus the integrator step."""

    n_particles: float
    taus: tuple[float, ...]
    dtau: float

    def __post_init__(self):
        if self.n_particles <= 0:
            raise ValueError("particle number must be positive")
        if self.dtau <= 0:
            raise ValueError("dtau must be positive")
        prev = 0.0
        for tau in self.taus:
            if tau < 0:
                raise ValueError("tau values must be nonnegative")
            if tau < prev:
                raise ValueError("tau values must be nondecreasing")
            prev = tau
        for gap, steps in zip(self._gaps(), self.steps_between()):
            if abs(steps * self.dtau - gap) > 1e-9 * max(1.0, steps):
                raise ValueError(
                    f"dtau={self.dtau} does not divide the output gap {gap}"
                )

    def _gaps(self) -> list[float]:
        prev = 0.0
        gaps = []
        for tau in self.taus:
            gaps.append(tau - prev)
            prev = tau
        return gaps

    def steps_between(self) -> list[int]:
        """Integrator steps from one output to the next (first from tau=0)."""
        return [int(round(gap / self.dtau)) for gap in self._gaps()]

    @property
    def dt(self) -> float:
        """Integrator step in unscaled time."""
        return self.dtau / self.n_particles

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(tau / self.n_particles for tau in self.taus)


@dataclass(frozen=True)
class NoiseIncrement:
    """Real Gaussian draws scaled into Wiener increments over one step.

    ``dw[j] = sqrt(dt) * w[j]`` drives noise channel j.  The equivalent
    complex increments ``xi_dt = (1 + i) * dw`` satisfy
    ``<(xi_dt)^2> = 2i dt`` channel-diagonally by construction.
    """

    w: np.ndarray
    dt: float

    @property
    def dw(self) -> np.ndarray:
        return math.sqrt(self.dt) * np.asarray(self.w)

    @property
    def xi_dt(self) -> np.ndarray:
        return (1.0 + 1.0j) * self.dw

    @classmethod
    def from_increments(cls, dw, dt: float) -> "NoiseIncrement":
        return cls(np.asarray(dw, dtype=float) / math.sqrt(dt), dt)


def build_noise(stream: RandomStream, model: DriftDiffusionModel, dt: float) -> NoiseIncrement:
    """Draw one step's noise: independent standard normals per channel."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return NoiseIncrement(stream.normals(len(model.noise)), dt)


def step_tw_exact(state: PhaseState, dt: float) -> PhaseState:
    """Exact anharmonic truncated-Wigner update alpha *= exp(-i(2|a|^2-1)dt).

    The update is applied in polar form, which keeps the modulus drift at
    the random-walk rounding level (~1e-13 over 1e6 steps) instead of the
    correlated drift a repeated phase-factor multiplication would build up.
    """
    if len(state.components) != 1:
        raise ValueError("exact Wigner stepper expects a single component")
    a = complex(state.components[0])
    r = abs(a)
    rate = 2.0 * r * r - 1.0
    phi = math.atan2(a.imag, a.real) - rate * dt
    return PhaseState((complex(r * math.cos(phi), r * math.sin(phi)),), state.t + dt)


def step_stratonovich_midpoint(
    state: PhaseState,
    model: DriftDiffusionModel,
    dt: float,
    noise: NoiseIncrement | None = None,
    escape_radius: float | None = None,
) -> PhaseState:
    """Semi-implicit midpoint update for a Stratonovich model.

    The midpoint value is obtained by fixed-point iteration (fixed count,
    :data:`MIDPOINT_ITERATIONS`); drift and noise amplitudes are evaluated
    at the midpoint with the same noise increment reused across iterations.
    Single-component states integrate the first drift entry with the
    starred symbol bound to the complex conjugate.
    """
    if model.convention != "stratonovich":
        raise ValueError("midpoint stepper expects a Stratonovich model")
    if dt <= 0:
        raise ValueError("dt must be positive")
    y = tuple(complex(c) for c in state.components)
    doubled = len(y) == 2
    if not doubled and model.noise:
        raise ValueError("single-component stepping supports drift-only models")
    dw = noise.dw if noise is not None else np.zeros(max(len(model.noise), 1))

    mid = y
    for _ in range(MIDPOINT_ITERATIONS):
        if doubled:
            a, b = mid
        else:
            a, b = mid[0], mid[0].conjugate()
        new_mid = []
        for j in range(len(y)):
            incr = evaluate(model.drift[j], a, b) * dt
            if model.noise:
                incr += evaluate(model.noise[j], a, b) * dw[j]
            new_mid.append(y[j] + 0.5 * incr)
        mid = tuple(new_mid)
    final = tuple(2.0 * m - y0 for m, y0 in zip(mid, y))

    for c in final:
        ok = math.isfinite(c.real) and math.isfinite(c.imag)
        if ok and escape_radius is not None:
            ok = abs(c) <= escape_radius
        if not ok:
            raise DivergedTrajectory(
                f"component {c!r} left the integration domain at t={state.t + dt}"
            )
    return PhaseState(final, state.t + dt)


def integrate_path(
    model: DriftDiffusionModel,
    y0: tuple[complex, ...],
    dt: float,
    n_steps: int,
    dw: np.ndarray | None = None,
    escape_radius: float | None = None,
) -> PhaseState:
    """Step a single trajectory with externally supplied Wiener increments.

    ``dw`` has shape (n_steps, n_noise); coarse-grained reruns of the same
    Brownian path are obtained by summing consecutive rows.
    """
    state = PhaseState(tuple(y0))
    for k in range(n_steps):
        noise = None
        if dw is not None:
            noise = NoiseIncrement.from_increments(dw[k], dt)
        state = step_stratonovich_midpoint(state, model, dt, noise, escape_radius)
    return state


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


def _reduce_batches(block: np.ndarray, bounds: list[tuple[int, int]], out: np.ndarray) -> np.ndarray:
    """Write per-batch sums of the last axis of ``block`` into ``out``.

    ``block`` has shape (..., n_monomials, m) and ``bounds`` holds contiguous
    (lo, hi) path offsets; ``out`` has shape (..., n_batches, n_monomials).
    Each run of equal-size batches is summed by one ``np.sum`` over a
    reshaped view, which adds the same elements in the same pairwise order
    as summing each batch slice on its own, so the sums are bit-identical.
    """
    j = 0
    for size, run in itertools.groupby(bounds, key=lambda b: b[1] - b[0]):
        n = len(list(run))
        lo = bounds[j][0]
        sums = block[..., lo : lo + n * size].reshape(block.shape[:-1] + (n, size)).sum(axis=-1)
        out[..., j : j + n, :] = np.swapaxes(sums, -1, -2)
        j += n
    return out


def _term_list(poly: PhasePolynomial):
    return [(p, q, complex(c)) for (p, q), c in sorted(poly.terms.items())]


class _PolyEval:
    """Vectorised evaluation of a few sparse polynomials on shared buffers."""

    def __init__(self, polys: list[PhasePolynomial], m: int):
        self.term_lists = [_term_list(p) for p in polys]
        self.max_p = max((p for tl in self.term_lists for p, _, _ in tl), default=0)
        self.max_q = max((q for tl in self.term_lists for _, q, _ in tl), default=0)
        self.spow = [None] * (self.max_p + 1)
        self.upow = [None] * (self.max_q + 1)
        for j in range(2, self.max_p + 1):
            self.spow[j] = np.empty(m, dtype=np.complex128)
        for j in range(2, self.max_q + 1):
            self.upow[j] = np.empty(m, dtype=np.complex128)
        self.tmp = np.empty(m, dtype=np.complex128)

    def bind(self, star: np.ndarray, unstar: np.ndarray):
        if self.max_p >= 1:
            self.spow[1] = star
        if self.max_q >= 1:
            self.upow[1] = unstar
        for j in range(2, self.max_p + 1):
            np.multiply(self.spow[j - 1], star, out=self.spow[j])
        for j in range(2, self.max_q + 1):
            np.multiply(self.upow[j - 1], unstar, out=self.upow[j])

    def eval_into(self, index: int, out: np.ndarray):
        terms = self.term_lists[index]
        if len(terms) == 1:
            p, q, c = terms[0]
            if p and q:
                np.multiply(self.spow[p], self.upow[q], out=out)
            elif p:
                np.copyto(out, self.spow[p])
            elif q:
                np.copyto(out, self.upow[q])
            else:
                out.fill(1.0)
            out *= c
            return
        out.fill(0.0)
        for p, q, c in terms:
            if p and q:
                np.multiply(self.spow[p], self.upow[q], out=self.tmp)
            elif p:
                np.copyto(self.tmp, self.spow[p])
            elif q:
                np.copyto(self.tmp, self.upow[q])
            else:
                self.tmp.fill(1.0)
            self.tmp *= c
            out += self.tmp


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
    ones included, so the whole (n_out, n_monomials, m) block is kept until
    the chunk ends.
    """
    m = traj_hi - traj_lo
    dt = grid.dt
    sqrt_dt = math.sqrt(dt)
    steps = grid.steps_between()
    n_out = len(grid.taus)

    a0, b0 = sample_positive_p_coherent(InitialStateSpec(alpha0, POSITIVE_P))
    a = np.full(m, a0, dtype=np.complex128)
    b = np.full(m, b0, dtype=np.complex128)
    streams = [stream_for_trajectory(seed, i) for i in range(traj_lo, traj_hi)]
    alive = np.ones(m, dtype=bool)

    # The half-step prefactors are folded into the polynomial coefficients:
    # the midpoint map is  mid = y + (dt/2) A(mid) + (1/2) B(mid) dW.
    ev = _PolyEval(
        [poly.scaled(0.5 * dt) for poly in model.drift]
        + [poly.scaled(0.5) for poly in model.noise],
        m,
    )
    d1 = np.empty(m, dtype=np.complex128)
    d2 = np.empty(m, dtype=np.complex128)
    g1 = np.empty(m, dtype=np.complex128)
    g2 = np.empty(m, dtype=np.complex128)
    am = np.empty(m, dtype=np.complex128)
    bm = np.empty(m, dtype=np.complex128)
    radius = np.empty(m, dtype=np.float64)
    bad = np.empty(m, dtype=bool)
    bad2 = np.empty(m, dtype=bool)

    out = np.empty((n_out, len(MONOMIALS), m), dtype=np.complex128)

    # Each stream is drawn in consecutive pieces, which replays the values a
    # single whole-gap draw would give.
    block = max(1, min(max(steps, default=0), _NOISE_BLOCK_BYTES // (2 * 8 * m)))
    draws = np.empty((m, block, 2), dtype=np.float64)
    noise = np.empty((block, 2, m), dtype=np.float64)

    with np.errstate(over="ignore", invalid="ignore"):
        for k_out, n_steps in enumerate(steps):
            for k_block in range(0, n_steps, block):
                nb = min(block, n_steps - k_block)
                for i, stream in enumerate(streams):
                    draws[i, :nb] = stream.normals(2 * nb).reshape(nb, 2)
                np.multiply(draws[:, :nb].transpose(1, 2, 0), sqrt_dt, out=noise[:nb])
                for k in range(nb):
                    dw1 = noise[k, 0]
                    dw2 = noise[k, 1]
                    np.copyto(am, a)
                    np.copyto(bm, b)
                    for _ in range(MIDPOINT_ITERATIONS):
                        ev.bind(bm, am)
                        ev.eval_into(0, d1)
                        ev.eval_into(1, d2)
                        ev.eval_into(2, g1)
                        ev.eval_into(3, g2)
                        g1 *= dw1
                        d1 += g1
                        np.add(a, d1, out=am)
                        g2 *= dw2
                        d2 += g2
                        np.add(b, d2, out=bm)
                    am *= 2.0
                    np.subtract(am, a, out=a)
                    bm *= 2.0
                    np.subtract(bm, b, out=b)
                    # flag escapes and non-finite values, freeze those rows
                    np.abs(a, out=radius)
                    np.greater(radius, escape_radius, out=bad)
                    np.abs(b, out=radius)
                    np.greater(radius, escape_radius, out=bad2)
                    bad |= bad2
                    np.isfinite(a, out=bad2)
                    bad |= ~bad2
                    np.isfinite(b, out=bad2)
                    bad |= ~bad2
                    bad &= alive
                    if bad.any():
                        a[bad] = 0.0
                        b[bad] = 0.0
                        alive &= ~bad
            bulk_monomials(b, a, out=out[k_out])

    out[:, :, ~alive] = 0.0
    sums = np.empty((n_out, len(bounds), len(MONOMIALS)), dtype=np.complex128)
    return _reduce_batches(out, bounds, sums), alive


def _truncated_wigner_chunk(
    alpha0: complex,
    grid: TimeGrid,
    seed: int,
    traj_lo: int,
    traj_hi: int,
    bounds: list[tuple[int, int]],
):
    """Exact-stepper chunk: per-output batch sums for the anharmonic drift."""
    m = traj_hi - traj_lo
    init = wigner_initial(InitialStateSpec(alpha0, WIGNER), seed, traj_lo, traj_hi)
    omega = 2.0 * (init.real**2 + init.imag**2) - 1.0

    block = np.empty((len(MONOMIALS), m), dtype=np.complex128)
    sums = np.empty((len(grid.taus), len(bounds), len(MONOMIALS)), dtype=np.complex128)
    for k, t in enumerate(grid.times):
        alpha_t = init * np.exp(-1j * omega * t)
        bulk_monomials(alpha_t.conj(), alpha_t, out=block)
        _reduce_batches(block, bounds, sums[k])
    return sums, np.ones(m, dtype=bool)


def _wigner_drift_chunk(
    model: DriftDiffusionModel,
    alpha0: complex,
    times: tuple[float, ...],
    dt: float,
    seed: int,
    traj_lo: int,
    traj_hi: int,
    bounds: list[tuple[int, int]],
):
    """Generic drift-only Wigner chunk using the deterministic midpoint rule."""
    m = traj_hi - traj_lo
    a = wigner_initial(InitialStateSpec(alpha0, WIGNER), seed, traj_lo, traj_hi)

    ev = _PolyEval([model.drift[0]], m)
    d1 = np.empty(m, dtype=np.complex128)
    am = np.empty(m, dtype=np.complex128)
    star = np.empty(m, dtype=np.complex128)

    block = np.empty((len(MONOMIALS), m), dtype=np.complex128)
    sums = np.empty((len(times), len(bounds), len(MONOMIALS)), dtype=np.complex128)
    prev = 0.0
    for k_out, t in enumerate(times):
        n_steps = int(round((t - prev) / dt))
        if abs(n_steps * dt - (t - prev)) > 1e-9 * max(1.0, n_steps):
            raise ValueError("dt does not divide the output spacing")
        prev = t
        for _ in range(n_steps):
            np.copyto(am, a)
            for _ in range(MIDPOINT_ITERATIONS):
                np.conjugate(am, out=star)
                ev.bind(star, am)
                ev.eval_into(0, d1)
                d1 *= 0.5 * dt
                np.add(a, d1, out=am)
            am *= 2.0
            np.subtract(am, a, out=a)
        bulk_monomials(a.conj(), a, out=block)
        _reduce_batches(block, bounds, sums[k_out])
    return sums, np.ones(m, dtype=bool)


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunked(
    representation: str,
    n_paths: int,
    n_batches: int,
    n_outputs: int,
    chunk_fn,
    threads: int | None,
) -> list[MomentAccumulator]:
    """Run chunk_fn over fixed trajectory ranges and merge its batch sums.

    ``chunk_fn(t_lo, t_hi, bounds)`` integrates paths [t_lo, t_hi), whose
    batches are ``bounds`` (offsets from t_lo), and returns per-batch sums
    of shape (n_outputs, n_batches_in_chunk, n_monomials) together with the
    chunk's alive mask.  Each kernel sums every batch pairwise over a fixed
    trajectory order; the final merge assigns disjoint batch slices in
    index order, so the result is independent of scheduling.
    """
    slices = batch_slices(n_paths, n_batches)
    groups = _chunk_batch_groups(slices)
    accs = [MomentAccumulator(representation, n_batches) for _ in range(n_outputs)]

    def work(group):
        b_lo, b_hi = group
        t_lo = slices[b_lo][0]
        bounds = [(lo - t_lo, hi - t_lo) for lo, hi in slices[b_lo:b_hi]]
        sums, alive = chunk_fn(t_lo, slices[b_hi - 1][1], bounds)
        counts = np.array([alive[lo:hi].sum() for lo, hi in bounds], dtype=np.int64)
        sizes = np.array([hi - lo for lo, hi in bounds])
        return b_lo, b_hi, sums, counts, sizes - counts

    n_workers = threads if threads else _available_cpus()
    if n_workers > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(work, groups))
    else:
        results = [work(g) for g in groups]

    for b_lo, b_hi, sums, counts, dead in results:
        for k in range(n_outputs):
            accs[k].batch_sums[b_lo:b_hi] = sums[k]
            accs[k].batch_counts[b_lo:b_hi] = counts
            accs[k].batch_diverged[b_lo:b_hi] = dead
    return accs


def run_truncated_wigner(
    alpha0: complex,
    grid: TimeGrid,
    n_paths: int,
    n_batches: int,
    seed: int = 0,
    threads: int | None = None,
) -> list[MomentAccumulator]:
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
    model: DriftDiffusionModel | None = None,
) -> list[MomentAccumulator]:
    """Positive-P ensemble under the anharmonic-oscillator Stratonovich model.

    Raises :class:`ExcessiveDivergence` when more than
    ``divergence_threshold`` of the paths leave the escape radius anywhere
    in the reported window: once a nontrivial fraction of the ensemble is
    excluded, the surviving average no longer estimates the true moments.
    """
    if model is None:
        model = symbolic.ito_to_stratonovich(
            symbolic.derive_positive_p_model(symbolic.kerr_hamiltonian())
        )
    if model.convention != "stratonovich":
        raise ValueError("positive-P ensemble expects a Stratonovich model")
    if escape_radius is None:
        n = abs(alpha0) ** 2
        escape_radius = ESCAPE_RADIUS_FACTOR * math.sqrt(n if n > 0 else 1.0)

    def chunk(t_lo, t_hi, bounds):
        return _positive_p_chunk(model, alpha0, grid, seed, t_lo, t_hi, escape_radius, bounds)

    accs = _run_chunked(POSITIVE_P, n_paths, n_batches, len(grid.taus), chunk, threads)
    n_div = accs[-1].n_diverged
    if n_div > divergence_threshold * n_paths:
        raise ExcessiveDivergence(
            f"{n_div} of {n_paths} paths diverged "
            f"(threshold {divergence_threshold:.2%})"
        )
    return accs


def run_wigner_drift(
    model: DriftDiffusionModel,
    alpha0: complex,
    times: tuple[float, ...],
    dt: float,
    n_paths: int,
    n_batches: int,
    seed: int = 0,
    threads: int | None = None,
) -> list[MomentAccumulator]:
    """Wigner ensemble under an arbitrary drift-only model (generic midpoint)."""
    if model.noise:
        raise ValueError("generic Wigner path handles drift-only models")

    def chunk(t_lo, t_hi, bounds):
        return _wigner_drift_chunk(model, alpha0, times, dt, seed, t_lo, t_hi, bounds)

    return _run_chunked(WIGNER, n_paths, n_batches, len(times), chunk, threads)


def evolve_ensemble(config, threads: int | None = None) -> list[MomentAccumulator]:
    """Run the configured stochastic method over its output grid.

    Returns one accumulator per output time.  The Fock-space reference is
    not an ensemble method and is dispatched separately by the CLI.
    """
    grid = TimeGrid(config.n_particles, config.taus, config.dtau)
    alpha0 = math.sqrt(config.n_particles)
    if config.method == "TW":
        return run_truncated_wigner(
            alpha0, grid, config.n_paths, config.batches, config.seed, threads
        )
    if config.method == "PositiveP":
        return run_positive_p(
            alpha0,
            grid,
            config.n_paths,
            config.batches,
            config.seed,
            threads,
            divergence_threshold=config.divergence_threshold,
        )
    raise ValueError(f"method {config.method!r} is not a trajectory ensemble")
