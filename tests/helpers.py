"""Shared test utilities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from anharmonic.engine import MIDPOINT_ITERATIONS, MidpointStep
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
from anharmonic.oracle import _real_dot
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


def scalar_midpoint_path(model, y0, dt: float, n_steps: int, dw) -> tuple[complex, complex]:
    """Reference midpoint rule for one path, in scalar complex arithmetic.

    ``y0`` is (alpha1, alpha2*); ``dw`` holds one row of two Wiener
    increments per step.
    """
    y = tuple(complex(c) for c in y0)
    for k in range(n_steps):
        mid = y
        for _ in range(MIDPOINT_ITERATIONS):
            a, b = mid
            mid = tuple(
                y[j] + 0.5 * (evaluate(model.drift[j], a, b) * dt
                              + evaluate(model.noise[j], a, b) * dw[k][j])
                for j in range(2)
            )
        y = tuple(2.0 * m - y_j for m, y_j in zip(mid, y))
    return y


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


def _log_falling_factorial(nn: np.ndarray, r: int) -> np.ndarray:
    """log of n (n-1) ... (n-r+1) as a short sum of logs."""
    out = np.zeros_like(nn, dtype=np.float64)
    for j in range(r):
        out += np.log(nn - j)
    return out


def ladder_moment(state, p: int, q: int) -> complex:
    """Normally ordered ladder moment <adag^p a^q> of an oracle state, on its window.

    Factorial ratios are short falling factorials evaluated as sums of at
    most four logs; no factorial is formed directly.
    """
    if p < 0 or q < 0 or p + q > 4:
        raise ValueError("ladder moments are supported for 0 <= p + q <= 4")
    if p == 0 and q == 0:
        return complex(_real_dot(state.amplitudes, state.amplitudes))
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


def oracle_raw_moments(state, spec) -> np.ndarray:
    """<X^k> (k = 1..4) of an oracle state, assembled from its raw ladder moments."""
    raw = quadrature_powers(lambda p, q: ladder_moment(state, p, q), spec.theta)
    return np.real(promote_normal_order(*raw))


def reference_evolved_amplitudes(state, t: float) -> np.ndarray:
    """Reference oracle evolution: the phases formed afresh from the indices."""
    n0 = int(state.n_particles)
    nn = np.arange(state.n_min, state.n_max + 1, dtype=np.int64)
    t_turn = math.fmod(t, 2.0 * math.pi)
    phases = np.exp(-1j * ((nn - n0) * (nn + n0)).astype(np.float64) * t_turn)
    return state.initial_amplitudes * phases


def _reference_centred_quadrature(
    v: np.ndarray, idx: np.ndarray, theta: float, mu: float
) -> np.ndarray:
    """(X - mu) applied to a padded Fock vector, in fresh arrays."""
    out = -mu * v
    roots = np.sqrt(idx[1:].astype(np.float64))
    out[:-1] += np.exp(-1j * theta) * roots * v[1:]
    out[1:] += np.exp(1j * theta) * roots * v[:-1]
    return out


def reference_oracle_cumulants(state, spec: QuadratureSpec) -> CumulantReport:
    """Reference oracle cumulants: <a> from ladder_moment, every vector fresh."""
    theta = spec.theta
    mean_a = ladder_moment(state, 0, 1)
    mu = 2.0 * (np.exp(-1j * theta) * mean_a).real

    pad_lo = min(2, state.n_min)
    pad_hi = 2
    idx = np.arange(state.n_min - pad_lo, state.n_max + pad_hi + 1, dtype=np.int64)
    v = np.zeros(idx.shape[0], dtype=np.complex128)
    v[pad_lo : pad_lo + state.amplitudes.shape[0]] = state.amplitudes

    w1 = _reference_centred_quadrature(v, idx, theta, mu)
    w2 = _reference_centred_quadrature(w1, idx, theta, mu)
    m1 = _real_dot(v, w1)
    m2 = _real_dot(w1, w1)
    m3 = _real_dot(w1, w2)
    m4 = _real_dot(w2, w2)

    k3, k4 = k3_k4(m1, m2, m3, m4)
    return CumulantReport(k3, k4, 0.0, 0.0, 0, 0)


# ----------------------------------------------------------------------
# dense Fock-space reference for the windowed oracle


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
    """<X^k> (k = 1..4) via dense matrices: independent check of the windowed oracle.

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
