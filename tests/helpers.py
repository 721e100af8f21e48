"""Shared test utilities."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np

from anharmonic import oracle
from anharmonic.engine import KERR_DRIFT, KERR_NOISE, TimeGrid
from anharmonic.moments import (
    MIN_BATCHES,
    POSITIVE_P,
    InsufficientBatches,
    OrderingViolation,
    bulk_monomials,
    k3_k4,
    promote_normal_order,
)
from anharmonic.symbolic import (
    CREATE,
    DESTROY,
    OperatorWord,
    PhasePolynomial,
    derive_positive_p_model,
    ito_to_stratonovich,
    kerr_hamiltonian,
)


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


def complex_terms(poly: PhasePolynomial) -> dict[tuple[int, int], complex]:
    """The coefficients of poly as complex numbers, each part rounded to a float."""
    return {k: complex(re, im) for k, (re, im) in poly.coefficients.items()}


def poly_close(a: PhasePolynomial, b: PhasePolynomial, tol: float = 1e-12) -> bool:
    """Every coefficient of a and b, as a float, agrees within tol (a missing
    term is zero): for symbols built from the float noise roots."""
    a, b = complex_terms(a), complex_terms(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in set(a) | set(b))


def conjugate_map(poly: PhasePolynomial) -> PhasePolynomial:
    """Swap exponents and conjugate coefficients (a <-> a*, i -> -i), exactly."""
    return PhasePolynomial({(q, p): (re, -im) for (p, q), (re, im) in poly.coefficients.items()})


def dagger(word: OperatorWord) -> OperatorWord:
    """Hermitian adjoint of a ladder-operator word."""
    swapped = tuple(CREATE if f == DESTROY else DESTROY for f in reversed(word.factors))
    return OperatorWord(swapped, complex(word.coefficient).conjugate())


def stacked_powers(theta: float, a: np.ndarray, abar: np.ndarray | None = None,
                   centre: float = 0.0) -> np.ndarray:
    """Reference power block: y = e^{-i theta} a + e^{i theta} abar - centre
    and its powers, stacked.

    Without ``abar``, x = 2 (cos theta Re a + sin theta Im a), the Wigner
    quadrature in Cartesian form.  y^2 and y^3 are running products and
    y^4 = (y^2)^2.
    """
    c, s = math.cos(theta), math.sin(theta)
    if abar is None:
        x = 2.0 * (c * a.real + s * a.imag)
    else:
        x = a * complex(c, -s) + abar * complex(c, s)
    return _stack_powers(x - centre)


def _stack_powers(x: np.ndarray) -> np.ndarray:
    x2 = x * x
    return np.stack([x, x2, x2 * x, x2 * x2])


def wigner_phasor(a, theta: float = 0.0) -> tuple[np.ndarray, None]:
    """Wigner amplitudes in the form bulk_monomials takes at phase theta: the
    phasor exp(-i theta) 2 a, and no second array."""
    return 2.0 * cmath.exp(-1j * theta) * np.asarray(a, dtype=np.complex128), None


#: Outputs from one anchor of exact_wigner_flow to the next, as the tests pin it.
ANCHOR_EVERY = 64

#: Rounding allowance of a truncated-Wigner quadrature x = Re(e^{-i theta} z)
#: against its exact value, in units of eps (1 + phase) |x|^k per power k,
#: with |x| <= 2 |alpha| and phase the rounding_phase of the output.  The
#: flow rounds omega t, which the rotation turns into an absolute error of
#: about eps |omega t| 2 |alpha|, theta is rounded likewise, each rotation
#: product since the output's anchor adds about eps 2 |alpha|, and a power k
#: multiplies the error by k |x|^(k - 1).
FLOW_ROUNDING_EPS = 4.0


def rounding_phase(omega, t: float, theta: float, k_out: int):
    """|omega t| + |theta| + j for output k_out of a flow, j = k_out mod
    ANCHOR_EVERY the rotation products since its anchor."""
    return np.abs(omega * t) + abs(theta) + k_out % ANCHOR_EVERY


def quadrature_rounding_bound(phase, modulus) -> np.ndarray:
    """Per-path bound on a Wigner quadrature's rounding for each power, shape (4, m):
    k FLOW_ROUNDING_EPS eps (1 + phase) modulus^k."""
    k = np.arange(1, 5)[:, None]
    eps = np.finfo(np.float64).eps
    return k * FLOW_ROUNDING_EPS * eps * (1.0 + np.abs(phase)) * modulus**k


def grid_at(n_particles: float, taus, dtau: float) -> TimeGrid:
    """A TimeGrid in the rotating frame: each output at theta = 2 tau."""
    taus = tuple(taus)
    return TimeGrid(n_particles, taus, tuple(2.0 * tau for tau in taus), dtau)


def at_phase(grid: TimeGrid, theta: float) -> TimeGrid:
    """``grid`` with every output at the phase ``theta``."""
    return replace(grid, thetas=(theta,) * len(grid.taus))


def quadrature_sums(acc) -> tuple[np.ndarray, np.ndarray]:
    """Per-batch sums of x and x^2 about zero, each of shape (n_out, n_batches),
    un-shifted from the accumulator's sums of y = x - c and y^2 about its
    centres c: sum x = sum y + n c and sum x^2 = sum y^2 + 2 c sum y + n c^2."""
    c, n = acc.centres[:, None], acc.batch_counts
    y, y2 = acc.batch_sums[..., 0], acc.batch_sums[..., 1]
    return y + n * c, y2 + 2.0 * c * y + n * c * c


def ladder_sums(run):
    """Per-batch sums of a, abar and abar a at every output, from two runs at one seed.

    ``run(theta)`` runs an ensemble with every output at quadrature phase
    theta.  With x0 and x1 the quadratures at theta = 0 and pi/2, the
    identities x0 + i x1 = 2 a, x0 - i x1 = 2 abar and x0^2 + x1^2 = 4 abar a
    hold path by path, and so for the batch sums, which quadrature_sums
    takes back from each run's centres.  Returns the sums, keyed by the
    exponents (p, q) of abar^p a^q, each of shape (n_out, n_batches), and
    the accumulator of the theta = 0 run.
    """
    acc = run(0.0)
    (x0, x0_2), (x1, x1_2) = quadrature_sums(acc), quadrature_sums(run(math.pi / 2))
    sums = {
        (0, 1): (x0 + 1j * x1) / 2,
        (1, 0): (x0 - 1j * x1) / 2,
        (1, 1): (x0_2 + x1_2) / 4,
    }
    return sums, acc


def chunk_philox(seed: int, traj_lo: int) -> np.random.Generator:
    """Reference chunk stream: a Philox keyed (seed mod 2**64, traj_lo), built directly."""
    return np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, traj_lo], dtype=np.uint64)))


def reference_wigner_coherent(amplitude, gen: np.random.Generator, n: int) -> np.ndarray:
    """Reference Wigner start of n paths: row i takes normals 2i and 2i + 1 of
    ``gen`` (a chunk_philox) as its real and imaginary vacuum noise, halved."""
    w = gen.standard_normal((n, 2))
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


def per_slice_batch_sums(block: np.ndarray, edges) -> np.ndarray:
    """Reference reduction: each batch slice of the last axis summed on its own.

    ``block`` has shape (..., n_powers, m); batch b is the slice
    edges[b] - edges[0] .. edges[b+1] - edges[0] - 1 of its last axis.  The
    result has shape (..., n_batches, n_powers).
    """
    offsets = [int(e - edges[0]) for e in edges]
    return np.stack([block[..., lo:hi].sum(axis=-1) for lo, hi in zip(offsets, offsets[1:])], axis=-2)


def full_block_power_sums(pairs, thetas, centres, edges, out) -> None:
    """Reference for engine._batch_power_sums that reduces the whole power block at the end.

    Every output's powers, from the pairs of ``pairs`` at its phase and
    centre, are laid out as the full (n_out, n_powers, m) block and then
    summed per batch slice into ``out``.
    """
    block = np.stack([bulk_monomials(theta, *pair, centre)
                      for theta, centre, pair in zip(thetas, centres, pairs)])
    out[...] = per_slice_batch_sums(block, edges)


def batch_slices(n_paths: int, n_batches: int) -> list[tuple[int, int]]:
    """Reference batch split: balanced contiguous (lo, hi) path ranges, the
    first n_paths mod n_batches of them one path longer."""
    q, r = divmod(n_paths, n_batches)
    slices = []
    lo = 0
    for b in range(n_batches):
        hi = lo + q + (1 if b < r else 0)
        slices.append((lo, hi))
        lo = hi
    return slices


def greedy_chunk_groups(slices: list[tuple[int, int]], target: int) -> list[tuple[int, int]]:
    """Reference chunk partition, batch by batch: each chunk takes as many
    whole batches of ``slices`` as fit in ``target`` paths, and at least one."""
    groups = []
    start = 0
    while start < len(slices):
        end = start
        size = 0
        while end < len(slices) and (size == 0 or size + (slices[end][1] - slices[end][0]) <= target):
            size += slices[end][1] - slices[end][0]
            end += 1
        groups.append((start, end))
        start = end
    return groups


def evaluate(poly: PhasePolynomial, a: complex, a_star: complex | None = None) -> complex:
    """Evaluate at a point; a* defaults to the complex conjugate of a."""
    if a_star is None:
        a_star = complex(a).conjugate()
    total = 0.0 + 0.0j
    for (p, q), c in complex_terms(poly).items():
        total += c * (a_star**p) * (a**q)
    return total


def kerr_positive_p_model():
    """The Stratonovich positive-P model of H = (a^dag a)^2, derived symbolically."""
    return ito_to_stratonovich(derive_positive_p_model(kerr_hamiltonian()))


def scalar_log_path(model, alpha0: complex, dt: float, xi) -> tuple[complex, complex]:
    """Scalar twin of engine.positive_p_flow for one path: (alpha1, alpha2*)
    after one step per row (xi1, xi2) of ``xi``, in plain complex arithmetic.

    The drift coefficients c_j and noise coefficients n_j come from the
    model by evaluation: each entry is one monomial with its own component
    as a factor, so its value at a = a* = 1 is its coefficient.  Each step
    multiplies n by exp(sqrt(dt) (n0 xi1 + n1 xi2)) and adds the trapezoid
    dt (n_before + n_after) / 2 to I; then alpha1 = alpha0 exp(c0 I + n0 W1)
    and alpha2* = conj(alpha0) exp(c1 I + n1 W2), with W_j = sqrt(dt) sum xi_j.
    """
    (c0, c1), (n0, n1) = ([evaluate(poly, 1.0, 1.0) for poly in polys]
                          for polys in (model.drift, model.noise))
    root_dt = math.sqrt(dt)
    n = alpha0 * complex(alpha0).conjugate()
    integral, w1, w2 = 0.0, 0.0, 0.0
    for x1, x2 in xi:
        after = n * cmath.exp(root_dt * (n0 * x1 + n1 * x2))
        integral += 0.5 * dt * (n + after)
        n, w1, w2 = after, w1 + root_dt * x1, w2 + root_dt * x2
    return (alpha0 * cmath.exp(c0 * integral + n0 * w1),
            complex(alpha0).conjugate() * cmath.exp(c1 * integral + n1 * w2))


class ZeroStream:
    """A stand-in for a chunk's RandomStream whose increments are all zero:
    the positive-P flow without noise."""

    def signs(self, out):
        out[...] = 0
        return out


class FrozenSigns:
    """A stand-in for a chunk's RandomStream that hands out the given
    increments, shape (steps, 2, m), in order, block by block."""

    def __init__(self, signs):
        self.rows = np.asarray(signs, dtype=np.int8)
        self.used = 0

    def signs(self, out):
        out[...] = self.rows[self.used:self.used + len(out)]
        self.used += len(out)
        return out


def linear_path_solution(model, alpha0: complex, dt: float, signs) -> np.ndarray:
    """alpha1 of each path after one step per row of ``signs``, shape
    (steps, 2, m): the exact solution of the Stratonovich equation driven by
    the piecewise-linear noise path through W_j = sqrt(dt) (xi_j summed), at
    40 digits.

    On a step with increments (xi1, xi2), ln n moves linearly by
    mu = sqrt(dt) (n0 xi1 + n1 xi2) (the drifts c0 + c1 cancel), so the
    step adds n dt (exp(mu) - 1) / mu to the drift integral I exactly.
    """
    (c0, _), (n0, n1) = ([mpmath.mpc(evaluate(poly, 1.0, 1.0)) for poly in polys]
                         for polys in (model.drift, model.noise))
    out = []
    with mpmath.workdps(40):
        root_dt = mpmath.sqrt(dt)
        for path in np.moveaxis(np.asarray(signs), 2, 0):
            a0 = mpmath.mpc(complex(alpha0))
            n, integral, w1 = a0 * mpmath.conj(a0), mpmath.mpc(0), mpmath.mpf(0)
            for x1, x2 in path:
                mu = root_dt * (n0 * int(x1) + n1 * int(x2))
                integral += n * dt * (mpmath.expm1(mu) / mu if mu else 1)
                n, w1 = n * mpmath.exp(mu), w1 + root_dt * int(x1)
            out.append(complex(a0 * mpmath.exp(c0 * integral + n0 * w1)))
    return np.array(out)


def closed_form_flow(alpha0: complex, grid: TimeGrid, stream, m: int):
    """Twin of engine.positive_p_flow that solves each step's recursion in
    closed form: n after k steps is n_0 exp(sqrt(dt) (n0 S1 + n1 S2)), with
    S_j the running sum of xi_j, instead of a running product of factors.

    Each gap's increments are drawn in one block.
    """
    start = np.array([[alpha0], [np.conj(alpha0)]], dtype=np.complex128)
    n_start = start[0, 0] * start[1, 0]
    root_dt = math.sqrt(grid.dt)
    noise = root_dt * np.array(KERR_NOISE)[:, None]
    walk = np.zeros((2, m))
    total = np.zeros(m, dtype=np.complex128)
    for n_steps in grid.steps_between():
        xi = stream.signs(np.empty((n_steps, 2, m), dtype=np.int8))
        walks = walk + np.cumsum(xi, axis=0)
        total += (n_start * np.exp((noise * walks).sum(axis=1))).sum(axis=0)
        walk = walks[-1] if n_steps else walk
        n_now = n_start * np.exp((noise * walk).sum(axis=0))
        integral = grid.dt * (total + 0.5 * (n_start - n_now))
        alpha = start * np.exp(np.array(KERR_DRIFT)[:, None] * integral + noise * walk)
        yield alpha[0], alpha[1]


def fill_batches(acc, sums, counts):
    """Set the first len(counts) batches of ``acc`` at every output: power
    sums (shape (n, N_POWERS), or one such block per output) and path counts."""
    n = len(counts)
    acc.batch_sums[:, :n] = sums
    acc.batch_counts[:n] = counts
    return acc


def leave_one_out_report(acc, k: int) -> tuple[float, float, float, float]:
    """Reference estimator for output ``k`` on its own, batch by batch:
    (k3, sigma3, k4, sigma4).

    From the (B, N_POWERS) sums of the batches, it forms
    the pooled estimates (the imaginary part of each <Y^k> for positive-P,
    the two moment bounds, k3 and k4), and then, in a loop over the batches,
    the same estimates from the sums of all the other batches, summed
    afresh.  Each sigma is sqrt((B - 1)/B sum_b (k_(b) - mean)^2) over the
    loop's estimates.  The checks run in batch_error's order and raise its
    messages.
    """
    n_eff = acc.n_batches
    if n_eff < MIN_BATCHES:
        raise InsufficientBatches(f"only {n_eff} batches (< {MIN_BATCHES})")
    sums, counts = acc.batch_sums[k], acc.batch_counts

    def moments(power_sums, n):
        m = power_sums / n
        return np.array(promote_normal_order(*m)) if acc.representation == POSITIVE_P else m

    def estimates(m):
        r = m.real
        return np.array([*m.imag, r[1] - r[0] ** 2, r[3] - r[1] ** 2, *k3_k4(*r)])

    pooled = moments(sums.sum(axis=0), counts.sum())
    value = estimates(pooled)
    others = np.array([
        estimates(moments(np.delete(sums, b, axis=0).sum(axis=0), counts.sum() - counts[b]))
        for b in range(n_eff)
    ])
    sigma = np.sqrt((n_eff - 1) / n_eff * ((others - others.mean(axis=0)) ** 2).sum(axis=0))
    if acc.representation == POSITIVE_P:
        for i in range(4):
            scale = max(abs(pooled[i]), abs(acc.centres[k]) ** (i + 1), 1.0)
            if abs(value[i]) > 5.0 * sigma[i] + 1e-10 * scale:
                raise OrderingViolation(
                    f"imaginary residue of <(X-c)^{i + 1}> is {value[i]:.3e}, "
                    f"beyond 5 sigma ({sigma[i]:.3e}); ensemble looks biased"
                )
    for i, label in ((4, "<X^2> - <X>^2"), (5, "<(X-c)^4> - <(X-c)^2>^2")):
        if value[i] < -(5.0 * sigma[i] + 1e-9 * max(1.0, abs(value[i]))):
            raise OrderingViolation(
                f"moment bound {label} = {value[i]:.3e} < 0 beyond 5 sigma ({sigma[i]:.3e})"
            )
    return float(value[6]), float(sigma[6]), float(value[7]), float(sigma[7])


def leave_one_out_reports(acc) -> tuple[np.ndarray, ...]:
    """Reference (k3, sigma3, k4, sigma4) arrays, as batch_error returns
    them, output by output; the first failing output raises."""
    per_output = [leave_one_out_report(acc, k) for k in range(len(acc.centres))]
    return tuple(np.array(column) for column in zip(*per_output))


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
    alpha0: complex, cutoff: int, t: float, theta: float
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
    x = np.exp(-1j * theta) * space.a + np.exp(1j * theta) * space.adag
    x2 = x @ x
    x3 = x2 @ x
    x4 = x2 @ x2
    return np.array([np.vdot(psi, op @ psi).real for op in (x, x2, x3, x4)])


def dense_cumulant_atol(n_particles: float) -> float:
    """Rounding floor of k3, k4 formed from dense_brute_force moments in
    double precision: 32 units of eps (2 sqrt(N))^4, the size of the
    moments that cancel."""
    return 32.0 * np.finfo(np.float64).eps * (4.0 * n_particles) ** 2


def working_context(state) -> mpmath.MPContext:
    """A private mpmath context at the oracle state's working precision, the
    binary precision its fixed-point scale holds beyond the guard bits."""
    ctx = mpmath.MPContext()
    ctx.prec = state._exact.bits - oracle.GUARD_BITS
    return ctx


def quadrature_moments(state, theta: float, ctx=None) -> tuple:
    """The oracle's normally ordered moments <:X^k:> (k = 1..4) at phase theta,
    as mpmath numbers at the state's working precision (or ctx's)."""
    ctx = working_context(state) if ctx is None else ctx
    moments, unit = oracle._moment_ints(state, theta)
    scale = state._exact.e - unit
    return tuple(ctx.ldexp(ctx.mpf(m), k * scale) for k, m in enumerate(moments, start=1))


def closed_form_ladder_moments(state, ctx=None) -> dict:
    """<a^dag^p a^q> for p + q <= 4, keyed by (p, q), at the state's working
    precision (or ctx's).

    Each moment from its own closed form,
    conj(alpha)^p alpha^q exp(-i (q^2 - p^2) t) exp(N (exp(-2i (q - p) t) - 1)),
    with its own phase and decay: the oracle's evaluation before it formed
    every phase as a power of exp(-i t).
    """
    ctx = working_context(state) if ctx is None else ctx
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


def binomial_sum_cumulants(state, theta: float, ctx=None) -> tuple[float, float]:
    """Reference k3, k4: the binomial sum over closed_form_ladder_moments with
    one phase exp(i (k - 2j) theta) per term, promoted with {1; 3; 6, 3}, at
    the state's working precision (or ctx's)."""
    ctx = working_context(state) if ctx is None else ctx
    ladder = closed_form_ladder_moments(state, ctx)
    theta = ctx.mpf(theta)
    normal = [
        ctx.re(ctx.fsum(
            math.comb(k, j) * ctx.expj((k - 2 * j) * theta) * ladder[k - j, j]
            for j in range(k + 1)
        ))
        for k in range(1, 5)
    ]
    k3, k4 = k3_k4(*promote_normal_order(*normal))
    return float(k3), float(k4)


def ladder_from_quadrature(state) -> dict:
    """<a^dag^p a^q> for p + q <= 4, keyed by (p, q), rebuilt from the oracle's
    normally ordered quadrature moments.

    <:X^k:>(theta) = sum_j C(k, j) exp(i (k - 2j) theta) <a^dag^(k-j) a^j> has
    the k + 1 frequencies k - 2j in [-k, k], so a discrete Fourier transform
    over 2k + 1 equally spaced phases (in mpmath) separates them.  The
    order-0 moment is the norm, 1.
    """
    ctx = working_context(state)
    moments = {(0, 0): ctx.mpf(1)}
    for k in range(1, 5):
        size = 2 * k + 1
        phases = [2 * ctx.pi * m / size for m in range(size)]
        values = [quadrature_moments(state, phase, ctx)[k - 1] for phase in phases]
        for j in range(k + 1):
            coefficient = ctx.fsum(
                value * ctx.expj(-(k - 2 * j) * phase) for value, phase in zip(values, phases)
            ) / size
            moments[k - j, j] = coefficient / math.comb(k, j)
    return moments


def oracle_precision_floor(state) -> float:
    """Absolute rounding floor of the oracle's k3 and k4: one unit of its
    working precision, 10^-dps, times its largest moment, 16 N^2 (or 1)."""
    log_moment = max(0.0, math.log10(16.0) + 4.0 * math.log10(abs(state.alpha0)))
    return 10.0 ** (log_moment - working_context(state).dps)


# ----------------------------------------------------------------------
# truncated Wigner at infinitely many paths, in closed form

def tw_limit_digits(n: float) -> int:
    """Working digits of the truncated-Wigner limit at N particles: 60, or
    20 + ceil(2 log10(16 N^2)) where that is more.  The quadrature moments
    reach 16 N^2 while k4 falls as 1/N (7.5e-22 at N = 1e25, tau = 1), so the
    digits must grow with N; at a fixed 60 digits k4 came out as 3.5e-10
    there."""
    return max(60, 20 + math.ceil(2 * (math.log10(16.0) + 2 * math.log10(max(n, 1.0)))))


def tw_limit_moment(n, tau, p: int, q: int):
    """<conj(alpha)^p alpha^q> of truncated Wigner at scaled time tau, over
    infinitely many paths, for the coherent start beta = sqrt(n).

    The start is a complex Gaussian about beta with <|d alpha|^2> = 1/2, and
    each path turns at its own rate: alpha(t) = alpha0 exp(-i (2 |alpha0|^2 - 1) t).
    With s = q - p and a = 2 + 2 i s t, the Gaussian average is

        e^{i s t} (2/a) exp(4 N/a - 2 N) sum_k k! C(p, k) C(q, k) a^-k (2 beta/a)^(p+q-2k)

    (Polkovnikov, Ann. Phys. 325, 1790 (2010)).  The exponent is written
    -2 i s tau / (1 + i s tau / N), which stays bounded in N.
    """
    n, tau = mpmath.mpf(n), mpmath.mpf(tau)
    s = q - p
    t = tau / n
    a = 2 + 2j * s * t
    beta = mpmath.sqrt(n)
    total = mpmath.fsum(
        math.factorial(k) * math.comb(p, k) * math.comb(q, k)
        * a**-k * (2 * beta / a) ** (p + q - 2 * k)
        for k in range(min(p, q) + 1)
    )
    exponent = -2j * s * tau / (1 + 1j * s * tau / n)
    return mpmath.expj(s * t) * (2 / a) * mpmath.exp(exponent) * total


def tw_limit_cumulants(n: float, tau: float, theta: float,
                       digits: int | None = None) -> tuple[float, float]:
    """k3, k4 of truncated Wigner over infinitely many paths, at ``digits``
    working digits (default tw_limit_digits(n)).

    Wigner averages are symmetrically ordered, so the quadrature moments
    <X^k> = sum_j C(k, j) exp(i (k - 2j) theta) <conj(alpha)^(k-j) alpha^j> need
    no promotion.
    """
    with mpmath.workdps(digits or tw_limit_digits(n)):
        theta = mpmath.mpf(theta)
        moments = [
            mpmath.re(mpmath.fsum(
                math.comb(k, j) * mpmath.expj((k - 2 * j) * theta)
                * tw_limit_moment(n, tau, k - j, j)
                for j in range(k + 1)
            ))
            for k in range(1, 5)
        ]
        k3, k4 = k3_k4(*moments)
        return float(k3), float(k4)


def tw_flow_cumulants_by_quadrature(n: float, tau: float, theta: float):
    """k3, k4 of the exact truncated-Wigner flow averaged over its Gaussian
    start by 2-D Gauss-Hermite quadrature (160 nodes a side), in double
    precision: x^k of each node's quadrature x = 2 Re(exp(-i theta) alpha(t)),
    averaged directly."""
    u, weight = np.polynomial.hermite_e.hermegauss(160)
    weight = weight / weight.sum()
    # d alpha = (u + i v) / 2 with u, v unit normals: <|d alpha|^2> = 1/2
    alpha0 = math.sqrt(n) + (u[:, None] + 1j * u[None, :]) / 2
    w2 = weight[:, None] * weight[None, :]
    t = tau / n
    alpha = alpha0 * np.exp(-1j * (2 * np.abs(alpha0) ** 2 - 1) * t)
    x = 2 * (np.exp(-1j * theta) * alpha).real
    return k3_k4(*(float((w2 * x**k).sum()) for k in range(1, 5)))
