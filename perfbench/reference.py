"""Exact quadrature cumulants of the Kerr oscillator, from its closed form.

For H = (a^dag a)^2 and a real coherent amplitude alpha = sqrt(N), the
normally ordered ladder moments are

    <a^dag^p a^q>_t = N^((p+q)/2) exp(-i (q^2 - p^2) t) exp(N (exp(-2i (q-p) t) - 1)).

They are combined into the normally ordered moments of the quadrature
X = exp(-i theta) a + exp(i theta) a^dag, promoted to operator moments with
the constants {1; 3; 6, 3}, and k3, k4 are formed from those raw moments.
Everything runs in mpmath at DIGITS significant digits, so the cancellation
of moments as large as (2 sqrt(N))^4 costs nothing at double precision.

Nothing here imports the program under test.
"""

from __future__ import annotations

import math

import mpmath

DIGITS = 60


def ladder_moment(n, t, p: int, q: int):
    """Closed-form <a^dag^p a^q> at time t for the coherent start alpha = sqrt(n)."""
    n = mpmath.mpf(n)
    t = mpmath.mpf(t)
    return (
        mpmath.power(n, mpmath.mpf(p + q) / 2)
        * mpmath.expj(-(q * q - p * p) * t)
        * mpmath.exp(n * mpmath.expm1(mpmath.mpc(0, -2 * (q - p)) * t))
    )


def cumulants_from_ladder(ladder, theta) -> tuple:
    """(k3, k4) from a ladder-moment function ladder(p, q), in mpmath."""
    theta = mpmath.mpf(theta)
    raw = [None]
    for k in range(1, 5):
        total = mpmath.mpc(0)
        for j in range(k + 1):
            total += math.comb(k, j) * mpmath.expj(theta * (k - 2 * j)) * ladder(k - j, j)
        raw.append(mpmath.re(total))
    m1 = raw[1]
    m2 = raw[2] + 1
    m3 = raw[3] + 3 * raw[1]
    m4 = raw[4] + 6 * raw[2] + 3
    k3 = m3 - 3 * m1 * m2 + 2 * m1**3
    k4 = m4 + 2 * m1**4 - 3 * m2**2 - 4 * m1 * k3
    return k3, k4


def exact_cumulants(n: float, tau: float, theta: float) -> tuple[float, float]:
    """Exact (k3, k4) at scaled time tau = N t and quadrature phase theta."""
    with mpmath.workdps(DIGITS):
        t = mpmath.mpf(tau) / mpmath.mpf(n)
        k3, k4 = cumulants_from_ladder(lambda p, q: ladder_moment(n, t, p, q), theta)
        return float(k3), float(k4)


# ----------------------------------------------------------------------
# self-test against a direct Fock-basis sum


def _fock_state(n, t, cutoff: int) -> list:
    """Amplitudes exp(-n/2) alpha^k / sqrt(k!) exp(-i k^2 t), k < cutoff."""
    alpha = mpmath.sqrt(n)
    return [
        mpmath.exp(-n / 2) * alpha**k / mpmath.sqrt(mpmath.factorial(k)) * mpmath.expj(-k * k * t)
        for k in range(cutoff)
    ]


def _fock_ladder(c: list, p: int, q: int):
    """<a^dag^p a^q> = sum_k conj(c_{k-q+p}) c_k sqrt(k! (k-q+p)!) / (k-q)!."""
    total = mpmath.mpc(0)
    for k in range(q, len(c)):
        m = k - q + p
        if m >= len(c):
            break
        weight = mpmath.sqrt(mpmath.factorial(k) * mpmath.factorial(m)) / mpmath.factorial(k - q)
        total += mpmath.conj(c[m]) * c[k] * weight
    return total


def _fock_cumulants(c: list, theta) -> tuple:
    """(k3, k4) by applying X to the Fock vector: an independent route that
    forms operator moments directly, without the {1; 3; 6, 3} promotion."""
    ph = mpmath.expj(theta)

    def apply_x(v):
        out = [mpmath.mpc(0)] * (len(v) + 1)
        for k, amp in enumerate(v):
            if k:
                out[k - 1] += mpmath.conj(ph) * mpmath.sqrt(k) * amp
            out[k + 1] += ph * mpmath.sqrt(k + 1) * amp
        return out

    v = list(c)
    w1 = apply_x(v)
    w2 = apply_x(w1)

    def dot(x, y):
        return mpmath.re(mpmath.fsum(mpmath.conj(a) * b for a, b in zip(x, y)))

    m1, m2 = dot(v, w1), dot(w1, w1)
    m3, m4 = dot(w1, w2), dot(w2, w2)
    k3 = m3 - 3 * m1 * m2 + 2 * m1**3
    k4 = m4 + 2 * m1**4 - 3 * m2**2 - 4 * m1 * k3
    return k3, k4


def self_test(particle_numbers) -> list[str]:
    """Check the closed form; return a list of failure messages (empty = pass).

    * ladder moments and cumulants against a direct Fock-basis sum at N <= 10;
    * k3 = k4 = 0 at tau = 0 for every particle number given.
    """
    failures = []
    with mpmath.workdps(DIGITS):
        tol = mpmath.mpf(10) ** (-(DIGITS - 15))
        for n in (mpmath.mpf(2.5), mpmath.mpf(10)):
            cutoff = int(n + 20 * mpmath.sqrt(n) + 30)
            for tau in (0.37, 1.9, 6.5):
                t = mpmath.mpf(tau) / n
                c = _fock_state(n, t, cutoff)
                for p in range(5):
                    for q in range(5 - p):
                        want = _fock_ladder(c, p, q)
                        got = ladder_moment(n, t, p, q)
                        if abs(got - want) > tol * max(1, abs(want)):
                            failures.append(f"ladder <{p},{q}> N={n} tau={tau}: {got} vs {want}")
                for theta in (2 * tau, 0.8):
                    got = cumulants_from_ladder(lambda p, q: ladder_moment(n, t, p, q), theta)
                    want = _fock_cumulants(c, theta)
                    for name, g, w in zip(("k3", "k4"), got, want):
                        if abs(g - w) > tol * max(1, abs(w)):
                            failures.append(f"{name} N={n} tau={tau} theta={theta}: {g} vs {w}")
    for n in particle_numbers:
        for theta in (0.0, 1.3):
            k3, k4 = exact_cumulants(n, 0.0, theta)
            if abs(k3) > 1e-30 or abs(k4) > 1e-30:
                failures.append(f"tau=0 N={n} theta={theta}: k3={k3} k4={k4}, expected 0")
    return failures
