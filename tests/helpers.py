"""Shared test utilities."""

from __future__ import annotations

import numpy as np

from anharmonic.moments import MONOMIALS
from anharmonic.sampling import sample_wigner_coherent, stream_for_trajectory
from anharmonic.symbolic import PhasePolynomial


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
