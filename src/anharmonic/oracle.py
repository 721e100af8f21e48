"""Exact quadrature cumulants of the anharmonic oscillator, in closed form.

For H = (a^dag a)^2 and a coherent start alpha, with N = |alpha|^2, the
normally ordered ladder moments at time t are

    <a^dag^p a^q>_t = conj(alpha)^p alpha^q exp(-i (q^2 - p^2) t) exp(N (exp(-2i (q - p) t) - 1)).

Those with p + q = k sum to the normally ordered moment <:X^k:> of the
quadrature X = exp(-i theta) a + exp(i theta) a^dag, and
:func:`~anharmonic.moments.k3_k4` turns <:X^k:>, k = 1..4, into the
cumulants: the {1; 3; 6, 3} promotion to operator moments adds an
independent unit Gaussian, which leaves k3 and k4 unchanged.  Every phase of
a row is an integer power of w = exp(-i t) or u = exp(-i theta), so a row
takes six transcendental values from mpmath: w, u and the decays
exp(N (w^(2s) - 1)), s = 1..4.

Only those six are rounded, each to the nearest integer at scale 2^P, with
P = 16 guard bits over the binary precision of dps = 20 +
ceil(2 log10(16 N^2)) digits (a small decay at a finer scale, so that it
keeps P significant bits, and one too small to reach a double cumulant is
0).  The rest is exact integer arithmetic: the double alpha0 is
(A + iB) 2^e exactly, N = (A^2 + B^2) 2^(2e), every product of the rounded
values is kept whole, the moments share one homogeneous scale (<:X^k:> is an
integer times 2^(k (e - L))), and k3_k4 combines them without rounding.  One
rounding to the nearest double ends a row.  So k3 and k4 carry an absolute
error of a few units of 2^-P max(1, 16 N^2), far below double precision of
any cumulant that is not near zero, and they are exact wherever the rounded
inputs are: both vanish at t = 0 and theta = 0, and k3 does wherever every
decay is 0.

mpmath is imported when the first state is built, so ensemble runs do not
pay for its import.  Its global working precision is never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .moments import k3_k4

#: Bits of the fixed-point scale beyond the context's binary precision.
GUARD_BITS = 16


class _Exact(NamedTuple):
    """Per-state constants of the integer evaluation."""

    bits: int  # P: the transcendental values are integers at scale 2^P or finer
    e: int  # alpha0 = (A + iB) 2^e
    n: int  # N = n 2^(2e), n = A^2 + B^2
    cut: int  # a decay below exp(-cut) cannot reach a double cumulant, and is 0
    terms: tuple  # (k, s, 2 C(k, (k+s)/2) n^((k-s)/2) (A + iB)^s, ((k+1) s + 1) P), s > 0
    centres: tuple  # C(k, k/2) n^(k/2), k = 1..4 (0 for odd k)


@dataclass(frozen=True)
class OracleState:
    """The coherent state alpha0 evolved to time t."""

    alpha0: complex
    t: float
    _exact: _Exact = field(repr=False, compare=False)

    # kept because perfbench/tracing.py reads it: an empty Fock window
    n_min, n_max = 0, -1


def _dyadic(x: float) -> tuple[int, int]:
    """(m, e) with x = m 2^e exactly."""
    mantissa, exponent = math.frexp(x)
    return int(mantissa * 2**53), exponent - 53


def init_coherent(alpha0: complex) -> OracleState:
    """The coherent state |alpha0> at t = 0."""
    alpha0 = complex(alpha0)
    if alpha0 == 0:
        raise ValueError("coherent amplitude must be nonzero")
    from mpmath import libmp

    # 2 log10(16 N^2) from log10 |alpha0|, so that N^2 is never formed as a float
    log_moments = math.log10(16.0) + 4.0 * math.log10(abs(alpha0))
    dps = 20 + max(0, math.ceil(2.0 * log_moments))

    parts = _dyadic(alpha0.real), _dyadic(alpha0.imag)
    e = min(exponent for m, exponent in parts if m)
    a = tuple(m << (exponent - e) if m else 0 for m, exponent in parts)
    n = a[0] ** 2 + a[1] ** 2
    bits = libmp.dps_to_prec(dps) + GUARD_BITS
    # a term is at most 12 max(1, N)^2 |D|, and k3_k4 amplifies it by less
    # than 2^10 max(1, 16 N^2)^2: below exp(-cut) it moves no double cumulant
    cut = 1100 + 2 * max(0, (16 * n * n).bit_length() + 4 * e)
    a_powers = [(1, 0)]
    for _ in range(4):
        a_powers.append(_cmul(a_powers[-1], a))
    terms = []
    for k in range(1, 5):
        for s in range(k, 0, -2):
            c = 2 * math.comb(k, (k + s) // 2) * n ** ((k - s) // 2)
            re, im = a_powers[s]
            terms.append((k, s, (c * re, c * im), ((k + 1) * s + 1) * bits))
    centres = tuple(0 if k % 2 else math.comb(k, k // 2) * n ** (k // 2) for k in range(1, 5))
    return OracleState(alpha0, 0.0, _Exact(bits, e, n, cut, tuple(terms), centres))


def evolve(state: OracleState, t: float) -> OracleState:
    """The state at absolute time t."""
    return replace(state, t=float(t))


def _cmul(x: tuple, y: tuple) -> tuple:
    """The product of two complex integers (re, im)."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _fixed(x: tuple, bits: int) -> int:
    """The mpmath number x (a raw mpf) times 2^bits, rounded to the nearest integer."""
    sign, man, exp, bc = x
    shift = exp + bits
    if shift >= 0:
        value = man << shift
    elif bc + shift < 0:  # |x| 2^bits < 1/2
        return 0
    else:
        value = (man + (1 << (-shift - 1))) >> -shift
    return -value if sign else value


def _moment_ints(state: OracleState, theta: float) -> tuple:
    """((M_1, ..., M_4), L) with <:X^k:> = M_k 2^(k (e - L)) at phase theta.

    <:X^k:> is the sum over j of C(k, j) exp(i (k - 2j) theta) <a^dag^(k-j) a^j>.
    With s = 2j - k its term is C(k, j) N^((k-s)/2) alpha^s (D_s u^s) w^(k s),
    D_s = exp(N (w^(2s) - 1)).  The terms at s and -s are conjugates, so the
    sum is the s = 0 term, C(k, k/2) N^(k/2), plus twice the real part of
    the s > 0 half.  w and u are integers at scale 2^P, and D_s at 2^(P + g_s),
    g_s >= 0 so that a small decay keeps P significant bits.  Every product
    is kept whole: the term (k, s) is an integer at scale
    2^(((k + 1) s + 1) P + g_s), shifted up to its moment's 2^(k L).
    """
    from mpmath import libmp

    exact = state._exact
    bits = exact.bits

    def unit_phase(angle: float) -> tuple:  # exp(i angle) at scale 2^P
        return tuple(_fixed(v, bits) for v in libmp.mpf_cos_sin(libmp.from_float(angle), bits, "n"))

    w = {1: unit_phase(-state.t)}  # w[m] = W^m at scale 2^(m P)
    for m, i in ((2, 1), (3, 1), (4, 2), (6, 3), (8, 4), (9, 1), (16, 8)):
        w[m] = _cmul(w[m - i], w[i])
    u = unit_phase(-theta)
    u_power = (1, 0)
    decay = [None]  # (D_s u^s at scale 2^((s + 1) P + g_s), g_s)
    for s in range(1, 5):
        u_power = _cmul(u_power, u)
        # N (w^(2s) - 1) = (re + i im) 2^exp, exactly
        x = w[2 * s]
        exp = 2 * exact.e - 2 * s * bits
        re, im = exact.n * (x[0] - (1 << 2 * s * bits)), exact.n * x[1]
        if re < 0 and ((-re) >> -exp if exp < 0 else (-re) << exp) >= exact.cut:
            decay.append(((0, 0), 0))
            continue
        z = libmp.mpc_exp((libmp.from_man_exp(re, exp), libmp.from_man_exp(im, exp)), bits, "n")
        g = max(0, max(-v[2] - v[3] for v in z if v[1]))
        decay.append((_cmul((_fixed(z[0], bits + g), _fixed(z[1], bits + g)), u_power), g))
    # the smallest L with k L at or above the scale of every term of <:X^k:>
    unit = max(-(-(scale + decay[s][1]) // k) for k, s, _, scale in exact.terms)
    moments = [c << k * unit for k, c in enumerate(exact.centres, start=1)]
    for k, s, coefficient, scale in exact.terms:
        (y, g), x = decay[s], w[k * s]
        y = _cmul(coefficient, y)
        moments[k - 1] += (y[0] * x[0] - y[1] * x[1]) << (k * unit - scale - g)
    return moments, unit


def _ldexp(m: int, exp: int) -> float:
    """m 2^exp rounded to the nearest double, +-inf beyond the largest."""
    try:
        return float(m << exp) if exp >= 0 else m / (1 << -exp)
    except OverflowError:
        return math.inf if m > 0 else -math.inf


def oracle_cumulants(state: OracleState, theta: float) -> tuple[float, float]:
    """Exact (k3, k4) of the quadrature at phase theta."""
    moments, unit = _moment_ints(state, theta)
    k3, k4 = k3_k4(*moments)
    scale = state._exact.e - unit
    return _ldexp(k3, 3 * scale), _ldexp(k4, 4 * scale)


def cumulant_series(state0: OracleState, grid) -> list[tuple[float, float]]:
    """Exact (k3, k4) of state0 at each output of the
    :class:`~anharmonic.engine.TimeGrid` ``grid``: evolved to its absolute
    time t = tau / N, at its phase."""
    return [oracle_cumulants(evolve(state0, t), theta) for t, theta in zip(grid.times, grid.thetas)]
