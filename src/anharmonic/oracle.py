"""Exact quadrature cumulants of the anharmonic oscillator, in closed form.

For H = (a^dag a)^2 and a coherent start alpha, with N = |alpha|^2, the
normally ordered ladder moments at time t are

    <a^dag^p a^q>_t = conj(alpha)^p alpha^q exp(-i (q^2 - p^2) t) exp(N (exp(-2i (q - p) t) - 1)).

Those with p + q <= 4 give the normally ordered moments of the quadrature
X = exp(-i theta) a + exp(i theta) a^dag, which
:func:`~anharmonic.moments.promote_normal_order` turns into operator moments
and :func:`~anharmonic.moments.k3_k4` into the cumulants.  The moments reach
(2 sqrt(N))^4 = 16 N^2 while k3 and k4 are O(1) or smaller, so the sums run
in mpmath at 20 + ceil(2 log10(16 N^2)) significant digits, which keeps the
cumulants exact to double precision at every N.

mpmath is imported when the first state is built, so ensemble runs do not
pay for its import.  Each state carries a private mpmath context, so the
working precision never touches mpmath's global one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .moments import CumulantReport, QuadratureSpec, k3_k4, promote_normal_order


@dataclass(frozen=True)
class OracleState:
    """The coherent state alpha0 evolved to time t."""

    alpha0: complex
    t: float
    _ctx: object = field(repr=False, compare=False)  # mpmath context at the working precision

    # kept because perfbench/tracing.py reads it: an empty Fock window
    n_min, n_max = 0, -1


def init_coherent(alpha0: complex) -> OracleState:
    """The coherent state |alpha0> at t = 0."""
    alpha0 = complex(alpha0)
    if alpha0 == 0:
        raise ValueError("coherent amplitude must be nonzero")
    import mpmath

    ctx = mpmath.MPContext()
    # 2 log10(16 N^2) from log10 |alpha0|, so that N^2 is never formed as a float
    log_moments = math.log10(16.0) + 4.0 * math.log10(abs(alpha0))
    ctx.dps = 20 + max(0, math.ceil(2.0 * log_moments))
    return OracleState(alpha0, 0.0, ctx)


def evolve(state: OracleState, t: float) -> OracleState:
    """The state at absolute time t."""
    return replace(state, t=float(t))


def _ladder_moments(state: OracleState) -> dict:
    """<a^dag^p a^q> for p + q <= 4, keyed by (p, q), as mpmath numbers."""
    ctx = state._ctx
    alpha = ctx.mpc(state.alpha0)
    n = alpha.real**2 + alpha.imag**2
    t = ctx.mpf(state.t)
    # exp(N (exp(-2i s t) - 1)) for s = q - p >= 0; -s gives the conjugate
    decay = [ctx.exp(n * ctx.expm1(ctx.mpc(0, -2 * s) * t)) for s in range(5)]
    moments = {}
    for p in range(5):
        for q in range(5 - p):
            s = q - p
            factor = decay[s] if s >= 0 else ctx.conj(decay[-s])
            phase = ctx.expj(-(q * q - p * p) * t)
            moments[p, q] = ctx.conj(alpha) ** p * alpha**q * phase * factor
    return moments


def _quadrature_moments(state: OracleState, theta: float) -> tuple:
    """Operator moments <X^k> (k = 1..4) at phase theta, as mpmath numbers.

    The expansion is that of :func:`~anharmonic.moments.quadrature_powers`,
    whose double-precision phases would cost moments of size 16 N^2 their
    accuracy.
    """
    ctx = state._ctx
    ladder = _ladder_moments(state)
    theta = ctx.mpf(theta)
    normal = [
        ctx.re(ctx.fsum(
            math.comb(k, j) * ctx.expj((k - 2 * j) * theta) * ladder[k - j, j]
            for j in range(k + 1)
        ))
        for k in range(1, 5)
    ]
    return promote_normal_order(*normal)


def oracle_cumulants(state: OracleState, spec: QuadratureSpec) -> CumulantReport:
    """Exact k3 and k4 of the quadrature at spec.theta."""
    k3, k4 = k3_k4(*_quadrature_moments(state, spec.theta))
    return CumulantReport(float(k3), float(k4), 0.0, 0.0, 0, 0)


def cumulant_series(state0: OracleState, times, specs) -> list[CumulantReport]:
    """Exact cumulants of state0 evolved to each absolute time, one spec each."""
    if len(times) != len(specs):
        raise ValueError(f"{len(times)} times but {len(specs)} quadrature specs")
    return [oracle_cumulants(evolve(state0, t), spec) for t, spec in zip(times, specs)]
