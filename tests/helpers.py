"""Shared test utilities."""

from __future__ import annotations

import math

import numpy as np

from anharmonic.engine import MIDPOINT_ITERATIONS, MidpointStep
from anharmonic.moments import MONOMIALS
from anharmonic.sampling import sample_wigner_coherent, stream_for_trajectory
from anharmonic.symbolic import PhasePolynomial, evaluate


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
    return a.allclose(b, tol)


def stacked_monomials(abar: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Reference monomial block: every power from a row of ones, products stacked."""
    ps = [np.ones_like(abar)]
    qs = [np.ones_like(a)]
    for _ in range(4):
        ps.append(ps[-1] * abar)
        qs.append(qs[-1] * a)
    return np.stack([ps[p] * qs[q] for (p, q) in MONOMIALS])


def per_path_wigner_initial(spec, seed: int, traj_lo: int, traj_hi: int) -> np.ndarray:
    """Reference Wigner start: one freshly keyed stream per path."""
    return np.array(
        [sample_wigner_coherent(spec, stream_for_trajectory(seed, i)) for i in range(traj_lo, traj_hi)],
        dtype=np.complex128,
    )


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


def scalar_midpoint_path(model, y0, dt: float, n_steps: int, dw=None) -> tuple[complex, ...]:
    """Reference midpoint rule for one path, in scalar complex arithmetic.

    ``y0`` is (alpha1, alpha2*), or (alpha,) with the starred symbol bound to
    the conjugate; ``dw`` holds one row of Wiener increments per step.
    """
    y = tuple(complex(c) for c in y0)
    for k in range(n_steps):
        mid = y
        for _ in range(MIDPOINT_ITERATIONS):
            a, b = mid if len(y) == 2 else (mid[0], mid[0].conjugate())
            new_mid = []
            for j in range(len(y)):
                incr = evaluate(model.drift[j], a, b) * dt
                if dw is not None:
                    incr += evaluate(model.noise[j], a, b) * dw[k][j]
                new_mid.append(y[j] + 0.5 * incr)
            mid = tuple(new_mid)
        y = tuple(2.0 * m - y_j for m, y_j in zip(mid, y))
    return y


def midpoint_path(model, y0, dt, n_steps, dw=None):
    """Step the kernel n_steps times on the state y0, shape (n_components, m).

    ``dw`` has shape (n_steps, 2, m).
    """
    y = np.array(y0, dtype=np.complex128)
    step = MidpointStep(model, dt, y.shape[1])
    for k in range(n_steps):
        step(y, None if dw is None else dw[k])
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
