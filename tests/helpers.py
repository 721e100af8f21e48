"""Shared test utilities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from anharmonic.engine import MidpointStep
from anharmonic.moments import (
    MIN_BATCHES,
    MONOMIAL_INDEX,
    MONOMIALS,
    POSITIVE_P,
    CumulantReport,
    InsufficientBatches,
    OrderingViolation,
    QuadratureSpec,
    k3_k4,
    promote_normal_order,
    quadrature_powers,
)
from anharmonic.symbolic import CREATE, DESTROY, OperatorWord, PhasePolynomial


def random_hermitian_polynomial(rng: np.random.Generator, max_degree: int = 4) -> PhasePolynomial:
    """Random Hermitian phase-space symbol of total degree <= max_degree."""
    terms: dict[tuple[int, int], complex] = {}
    pairs = [(p, q) for p in range(max_degree + 1) for q in range(max_degree + 1) if p + q <= max_degree]
    for p, q in pairs:
        if (q, p) in terms:
            continue
        if rng.random() < 0.4:
            continue
        c = complex(rng.normal(), rng.normal())
        if p == q:
            c = complex(c.real, 0.0)
        terms[(p, q)] = c
        terms[(q, p)] = c.conjugate()
    if not terms:
        terms[(1, 1)] = 1.0
    return PhasePolynomial(terms)


def poly_equal(a: PhasePolynomial, b: PhasePolynomial, tol: float = 1e-12) -> bool:
    """Every coefficient of a and b agrees within tol (a missing term is zero)."""
    keys = set(a.terms) | set(b.terms)
    return all(abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) <= tol for k in keys)


def conjugate_map(poly: PhasePolynomial) -> PhasePolynomial:
    """Swap exponents and conjugate coefficients (a <-> a*, i -> -i)."""
    return PhasePolynomial({(q, p): complex(c).conjugate() for (p, q), c in poly.terms.items()})


def dagger(word: OperatorWord) -> OperatorWord:
    """Hermitian adjoint of a ladder-operator word."""
    swapped = tuple(CREATE if f == DESTROY else DESTROY for f in reversed(word.factors))
    return OperatorWord(swapped, complex(word.coefficient).conjugate())


def stacked_monomials(abar: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Reference monomial block: every power from a row of ones, products stacked."""
    ps = [np.ones_like(abar)]
    qs = [np.ones_like(a)]
    for _ in range(4):
        ps.append(ps[-1] * abar)
        qs.append(qs[-1] * a)
    return np.stack([ps[p] * qs[q] for (p, q) in MONOMIALS])


def chunk_philox(seed: int, traj_lo: int) -> np.random.Generator:
    """Reference chunk stream: a Philox keyed (seed mod 2**64, traj_lo), built directly."""
    return np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, traj_lo], dtype=np.uint64)))


def chunk_stream_wigner_initial(amplitude, seed: int, traj_lo: int, traj_hi: int) -> np.ndarray:
    """Reference Wigner start: row i takes the chunk stream's normals 2i and 2i + 1."""
    w = chunk_philox(seed, traj_lo).standard_normal((traj_hi - traj_lo, 2))
    return complex(amplitude) + 0.5 * (w[:, 0] + 1j * w[:, 1])


def chunk_signs(seed: int, traj_lo: int, n_steps: int, m: int) -> np.ndarray:
    """Reference positive-P increments, shape (n_steps, 2, m), from the chunk stream.

    Step k's 2m signs, in C order of (2, m), are the bits of its own
    ceil(2m / 64) raw words, lowest bit first, read with integer shifts: a
    set bit gives +1, and the high bits left in a step's last word go unused.
    """
    width = 2 * m
    words = -(-width // 64)
    raw = [int(w) for w in chunk_philox(seed, traj_lo).bit_generator.random_raw(n_steps * words)]
    signs = [
        [1.0 if (raw[k * words + i // 64] >> (i % 64)) & 1 else -1.0 for i in range(width)]
        for k in range(n_steps)
    ]
    return np.array(signs).reshape(n_steps, 2, m)


def per_slice_batch_sums(block: np.ndarray, bounds) -> np.ndarray:
    """Reference reduction: each batch slice of the last axis summed on its own.

    ``block`` has shape (..., n_monomials, m); the result has shape
    (..., n_batches, n_monomials).
    """
    return np.stack([block[..., lo:hi].sum(axis=-1) for lo, hi in bounds], axis=-2)


def full_block_kernel(kernel):
    """Reference chunk kernel that reduces the whole monomial block at the end.

    ``kernel`` is an engine chunk kernel whose last argument is the chunk's
    batch bounds.  Run with one path per batch, it returns every path's
    monomials, which are laid out as the full (n_out, n_monomials, m) block
    and then summed per batch slice.
    """

    def chunk(*args):
        *head, bounds = args
        singles, alive = kernel(*head, [(i, i + 1) for i in range(bounds[-1][1])])
        block = np.ascontiguousarray(singles.transpose(0, 2, 1))
        return per_slice_batch_sums(block, bounds), alive

    return chunk


def evaluate(poly: PhasePolynomial, a: complex, a_star: complex | None = None) -> complex:
    """Evaluate at a point; a* defaults to the complex conjugate of a."""
    if a_star is None:
        a_star = complex(a).conjugate()
    total = 0.0 + 0.0j
    for (p, q), c in poly.terms.items():
        total += c * (a_star**p) * (a**q)
    return total


def kerr_step_coefficients(model, dt: float, dw_scale: float = 1.0):
    """Half-step drift and noise coefficients of the Kerr model, read by evaluation.

    Each entry of the model is one monomial with its own component as a
    factor, so its value at a = a* = 1 is its coefficient.  Returns
    ((dt/2) c_0, (dt/2) c_1) and (n_0 dw_scale / 2, n_1 dw_scale / 2).
    """
    drift = tuple(0.5 * dt * evaluate(poly, 1.0, 1.0) for poly in model.drift)
    noise = tuple(0.5 * dw_scale * evaluate(poly, 1.0, 1.0) for poly in model.noise)
    return drift, noise


def scalar_midpoint_path(model, y0, dt: float, n_steps: int, dw) -> tuple[complex, complex]:
    """Scalar twin of the kernel's midpoint step, for one path.

    ``y0`` is (alpha1, alpha2*); ``dw`` holds one row of two Wiener
    increments per step.  With k_j and w_j = n_j dw_j / 2 from
    :func:`kerr_step_coefficients` and u_j = k_j aa + w_j, the step guesses
    aa = P (1 + (k_0 + k_1) P + w_0 + w_1) from P = y_0 y_1, corrects it
    once to P / ((1 - u_0)(1 - u_1)) and sets y_j <- y_j (1 + u_j) / (1 - u_j),
    in plain complex arithmetic, without the kernel's folded factors.
    """
    k, n = kerr_step_coefficients(model, dt)
    y = tuple(complex(c) for c in y0)
    for row in dw[:n_steps]:
        w = tuple(n_j * dw_j for n_j, dw_j in zip(n, row))
        p = y[0] * y[1]
        aa = p * (1.0 + (k[0] + k[1]) * p + w[0] + w[1])
        aa = p / ((1.0 - k[0] * aa - w[0]) * (1.0 - k[1] * aa - w[1]))
        u = tuple(k_j * aa + w_j for k_j, w_j in zip(k, w))
        y = tuple(y_j * (1.0 + u_j) / (1.0 - u_j) for y_j, u_j in zip(y, u))
    return y


#: Fixed-point iterations of the converged reference step.
CONVERGED_ITERATIONS = 40


class ConvergedMidpointStep:
    """Reference midpoint step: the plain fixed-point loop, run to convergence.

    A drop-in for ``engine.MidpointStep`` (same constructor and call, unit
    increments ``xi``).  From mid = y it iterates
    mid_j <- y_j + (k_j mid_0 mid_1 + w_j) mid_j, with the increments held
    fixed, :data:`CONVERGED_ITERATIONS` times, then sets y <- 2 mid - y.
    Each iteration gains about |u| in relative accuracy, so at the step sizes
    the ensembles use it solves the midpoint equation to rounding.
    """

    def __init__(self, model, dt: float, m: int):
        drift, noise = kerr_step_coefficients(model, dt, math.sqrt(dt))
        self._drift = np.array(drift)[:, None]
        self._noise = np.array(noise)[:, None]
        self._mid = np.empty((2, m), dtype=np.complex128)

    def __call__(self, y: np.ndarray, xi: np.ndarray) -> None:
        mid = self._mid
        kick = self._noise * xi
        np.copyto(mid, y)
        for _ in range(CONVERGED_ITERATIONS):
            mid[...] = y + (self._drift * (mid[0] * mid[1]) + kick) * mid
        np.subtract(2.0 * mid, y, out=y)


def midpoint_path(model, y0, dt, n_steps, dw=None):
    """Step the kernel n_steps times on the state y0, shape (2, m).

    ``dw`` holds the Wiener increments, shape (n_steps, 2, m), which the
    kernel takes as unit normals dw / sqrt(dt); without it every increment
    is zero.
    """
    y = np.array(y0, dtype=np.complex128)
    step = MidpointStep(model, dt, y.shape[1])
    zero = np.zeros(y.shape)
    for k in range(n_steps):
        step(y, zero if dw is None else dw[k] / math.sqrt(dt))
    return y


def frozen_brownian_paths(rng, n_paths, n_coarse, dt):
    """Increments of the same Brownian paths at steps dt, dt/2 and dt/4.

    Each path draws its (4 n_coarse, 2) fine increments in turn; every
    array has shape (n_steps, 2, n_paths), the layout the kernel steps.
    """
    fine = np.stack([rng.standard_normal((4 * n_coarse, 2)) for _ in range(n_paths)])
    fine *= math.sqrt(dt / 4)
    mid = fine.reshape(n_paths, 2 * n_coarse, 2, 2).sum(axis=2)
    coarse = mid.reshape(n_paths, n_coarse, 2, 2).sum(axis=2)
    return tuple(np.ascontiguousarray(x.transpose(1, 2, 0)) for x in (coarse, mid, fine))


def fill_batches(acc, sums, counts, diverged=0):
    """Set the first len(counts) batches of ``acc`` at every output: monomial
    sums (shape (n, n_monomials), or one such block per output), path and
    divergence counts."""
    n = len(counts)
    acc.batch_sums[:, :n] = sums
    acc.batch_counts[:n] = counts
    acc.batch_diverged[:n] = diverged
    return acc


def per_output_batch_error(acc, k: int, spec: QuadratureSpec) -> CumulantReport:
    """Reference estimator for output ``k`` on its own.

    Output k's batch means are formed as one (n_batches, n_monomials)
    array, and every check and reduction runs on that output alone, with
    the arithmetic of a one-output estimator.
    """
    if acc.n_batches < MIN_BATCHES:
        raise InsufficientBatches(f"{acc.n_batches} batches < required {MIN_BATCHES}")
    mask = acc.batch_counts > 0
    means = acc.batch_sums[k][mask] / acc.batch_counts[mask][:, None]
    n_eff = means.shape[0]
    if n_eff < MIN_BATCHES:
        raise InsufficientBatches(
            f"only {n_eff} batches retained surviving paths (< {MIN_BATCHES})"
        )

    def true_moments(monomial_means):
        powers = quadrature_powers(
            lambda p, q: monomial_means[..., MONOMIAL_INDEX[(p, q)]], spec.theta
        )
        if acc.representation == POSITIVE_P:
            powers = promote_normal_order(*powers)
        out = np.empty(monomial_means.shape[:-1] + (4,), dtype=np.complex128)
        for i, column in enumerate(powers):
            out[..., i] = column
        return out

    assembled = true_moments(means)
    if acc.representation == POSITIVE_P:
        pooled = true_moments(acc.batch_sums[k].sum(axis=0) / acc.batch_counts.sum())
        sigma = np.imag(assembled).std(axis=0, ddof=1) / math.sqrt(n_eff)
        scale = np.maximum(np.abs(pooled), 1.0)
        bad = np.abs(np.imag(pooled)) > 5.0 * sigma + 1e-10 * scale
        if bad.any():
            i = int(np.argmax(bad))
            raise OrderingViolation(
                f"imaginary residue of <X^{i + 1}> is {np.imag(pooled)[i]:.3e}, "
                f"beyond 5 sigma ({sigma[i]:.3e}); ensemble looks biased"
            )
    real = np.real(assembled)
    for label, values in (
        ("<X^2> - <X>^2", real[:, 1] - real[:, 0] ** 2),
        ("<X^4> - <X^2>^2", real[:, 3] - real[:, 1] ** 2),
    ):
        mean = values.mean()
        sigma = values.std(ddof=1) / math.sqrt(n_eff)
        if mean < -(5.0 * sigma + 1e-9 * max(1.0, abs(mean))):
            raise OrderingViolation(
                f"moment bound {label} = {mean:.3e} < 0 beyond 5 sigma ({sigma:.3e})"
            )
    k3, k4 = k3_k4(*(real[..., i] for i in range(4)))
    root_b = math.sqrt(n_eff)
    return CumulantReport(
        float(k3.mean()),
        float(k4.mean()),
        float(k3.std(ddof=1) / root_b),
        float(k4.std(ddof=1) / root_b),
        acc.n_paths,
        acc.n_diverged,
    )


def per_output_batch_errors(acc, specs) -> list[CumulantReport]:
    """Reference reports, output by output; the first failing output raises."""
    return [per_output_batch_error(acc, k, spec) for k, spec in enumerate(specs)]


# ----------------------------------------------------------------------
# dense Fock-space reference for the oracle


class CutoffInsufficient(ValueError):
    """Dense brute force: the truncated basis loses too much norm."""


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
) -> np.ndarray:
    """<X^k> (k = 1..4) via dense matrices: independent check of the oracle.

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
    return np.array([np.vdot(psi, op @ psi).real for op in (x, x2, x3, x4)])


def dense_cumulant_atol(n_particles: float) -> float:
    """Rounding floor of k3, k4 formed from dense_brute_force moments in
    double precision: 32 units of eps (2 sqrt(N))^4, the size of the
    moments that cancel."""
    return 32.0 * np.finfo(np.float64).eps * (4.0 * n_particles) ** 2
