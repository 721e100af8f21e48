"""Exact quadrature cumulants of the anharmonic oscillator, in closed form.

For H = (a^dag a)^2 and a coherent start alpha, with N = |alpha|^2, the
normally ordered ladder moments at time t are

    <a^dag^p a^q>_t = conj(alpha)^p alpha^q exp(-i (q^2 - p^2) t) exp(N (exp(-2i (q - p) t) - 1)).

Those with p + q = k sum to the normally ordered moment <:X^k:> of the
quadrature X = exp(-i theta) a + exp(i theta) a^dag, and
:func:`~anharmonic.moments.k3_k4` turns <:X^k:>, k = 1..4, into the
cumulants: the {1; 3; 6, 3} promotion to operator moments adds an
independent unit Gaussian, which leaves k3 and k4 unchanged.  Every phase of
a row is an integer power of w = exp(-i t) or g = exp(i (arg alpha - theta)),
so a row costs six transcendental calls (w, g and exp(N (w^(2s) - 1)) for
s = 1..4) and a few dozen mpmath products.

The moments reach (2 sqrt(N))^4 = 16 N^2 while k3 and k4 are O(1) or
smaller, so the sums run in mpmath at dps = 20 + ceil(2 log10(16 N^2))
significant digits.  Rounding leaves k3 and k4 an absolute error of a few
units of 10^-dps max(1, 16 N^2): far below double precision of any
cumulant that is not near zero, and visible only where the exact value
vanishes, as at t = 0.

mpmath is imported when the first state is built, so ensemble runs do not
pay for its import.  Each state carries a private mpmath context, so the
working precision never touches mpmath's global one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .moments import CumulantReport, k3_k4


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


def _quadrature_moments(state: OracleState, theta: float) -> tuple:
    """Normally ordered moments <:X^k:> (k = 1..4) at phase theta, as mpmath numbers.

    <:X^k:> is the sum over j of C(k, j) exp(i (k - 2j) theta) <a^dag^(k-j) a^j>.
    With s = 2j - k its term is C(k, j) |alpha|^k (g w^k)^s exp(N (w^(2s) - 1)).
    The terms at s and -s are conjugates, so the sum is the s = 0 term,
    C(k, k/2) N^(k/2), plus twice the real part of the s > 0 half.  The
    phases stay in mpmath: double-precision phases would cost moments of
    size 16 N^2 their accuracy.
    """
    ctx = state._ctx
    alpha = ctx.mpc(state.alpha0)
    r = abs(alpha)
    n = r * r
    w = [ctx.mpf(1), ctx.expj(-ctx.mpf(state.t))]  # w[m] = exp(-i m t), m = 0..8
    for _ in range(7):
        w.append(w[-1] * w[1])
    g = alpha / r * ctx.expj(-ctx.mpf(theta))
    decay = {s: ctx.exp(n * (w[2 * s] - 1)) for s in range(1, 5)}
    normal = []
    for k in range(1, 5):
        z = g * w[k]
        half = ctx.fsum(math.comb(k, (k + s) // 2) * z**s * decay[s] for s in range(k, 0, -2))
        centre = math.comb(k, k // 2) * n ** (k // 2) if k % 2 == 0 else 0
        normal.append(r**k * (2 * half.real) + centre)
    return tuple(normal)


def oracle_cumulants(state: OracleState, theta: float) -> CumulantReport:
    """Exact k3 and k4 of the quadrature at phase theta."""
    k3, k4 = k3_k4(*_quadrature_moments(state, theta))
    return CumulantReport(float(k3), float(k4), 0.0, 0.0, 0, 0)


def cumulant_series(state0: OracleState, grid) -> list[CumulantReport]:
    """Exact cumulants of state0 at each output of the
    :class:`~anharmonic.engine.TimeGrid` ``grid``: evolved to its absolute
    time t = tau / N, at its phase."""
    return [oracle_cumulants(evolve(state0, t), theta) for t, theta in zip(grid.times, grid.thetas)]
