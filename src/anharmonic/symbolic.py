"""Operator algebra and phase-space equation-of-motion derivations.

A single-mode polynomial Hamiltonian is normal ordered into a phase-space
symbol H(a, a*), from which two stochastic trajectory models are derived:

* a truncated-Wigner drift model (third- and higher-order derivative terms
  of the underlying evolution equation are dropped but recorded), and
* a positive-P drift/diffusion model on the doubled phase space, in Ito
  form with an exact Stratonovich conversion.

Polynomials are stored as sparse maps from exponent pairs ``(p, q)`` to
complex coefficients, meaning ``c * a*^p a^q``.  The starred and unstarred
symbols are treated as formally independent variables throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Symbol names used by `differentiate` and `evaluate`.
VAR_A = "a"
VAR_A_STAR = "a*"

# Ladder-operator tags for OperatorWord factors.
CREATE = "create"
DESTROY = "destroy"

#: Coefficient-wise tolerance under which two symbols are considered equal.
#: Derivations only involve small integers, so this is effectively exact.
COEFF_TOL = 1e-12


class DerivationError(ValueError):
    """A Hamiltonian cannot be mapped to the requested trajectory model."""


@dataclass(frozen=True)
class OperatorWord:
    """A product of ladder operators with a scalar prefactor.

    ``factors`` is ordered left to right; an empty tuple is the identity.
    """

    factors: tuple[str, ...]
    coefficient: complex = 1.0

    def __post_init__(self):
        for f in self.factors:
            if f not in (CREATE, DESTROY):
                raise ValueError(f"unknown ladder tag {f!r}")
        c = complex(self.coefficient)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("operator coefficient must be finite")


class PhasePolynomial:
    """Sparse polynomial ``sum_pq c[p,q] a*^p a^q`` with complex coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, int], complex] = {}
        for (p, q), c in (terms or {}).items():
            c = complex(c)
            if c != 0:
                clean[(int(p), int(q))] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "PhasePolynomial":
        return cls()

    @classmethod
    def monomial(cls, p: int, q: int, coeff: complex = 1.0) -> "PhasePolynomial":
        return cls({(p, q): coeff})

    def is_zero(self, tol: float = COEFF_TOL) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def max_star_power(self) -> int:
        return max((p for (p, _) in self.terms), default=0)

    def max_plain_power(self) -> int:
        return max((q for (_, q) in self.terms), default=0)

    def __add__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return PhasePolynomial(out)

    def __sub__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        return self + other.scaled(-1.0)

    def scaled(self, factor: complex) -> "PhasePolynomial":
        return PhasePolynomial({k: factor * c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, PhasePolynomial):
            out: dict[tuple[int, int], complex] = {}
            for (p1, q1), c1 in self.terms.items():
                for (p2, q2), c2 in other.terms.items():
                    k = (p1 + p2, q1 + q2)
                    out[k] = out.get(k, 0.0) + c1 * c2
            return PhasePolynomial(out)
        return self.scaled(other)

    __rmul__ = __mul__

    def chop(self, tol: float = COEFF_TOL) -> "PhasePolynomial":
        """Drop coefficients below the symbolic-equality tolerance, and snap
        real/imaginary parts that are tolerance-level artefacts to zero."""
        out = {}
        for k, c in self.terms.items():
            if abs(c) <= tol:
                continue
            re = 0.0 if abs(c.real) <= tol else c.real
            im = 0.0 if abs(c.imag) <= tol else c.imag
            out[k] = complex(re, im)
        return PhasePolynomial(out)

    def __eq__(self, other):
        if not isinstance(other, PhasePolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"PhasePolynomial({render_polynomial(self)!r})"


def normal_order(words) -> PhasePolynomial:
    """Rewrite a sum of ladder-operator words into normal-ordered symbol form.

    Uses the commutator rule: multiplying a normal-ordered term a*^p a^q by
    a creation operator on the right gives a*^(p+1) a^q + q a*^p a^(q-1).
    Hermitian input yields a Hermitian symbol.
    """
    total: dict[tuple[int, int], complex] = {}
    for word in words:
        acc: dict[tuple[int, int], complex] = {(0, 0): complex(word.coefficient)}
        for factor in word.factors:
            nxt: dict[tuple[int, int], complex] = {}
            for (p, q), c in acc.items():
                if factor == DESTROY:
                    k = (p, q + 1)
                    nxt[k] = nxt.get(k, 0.0) + c
                else:
                    k = (p + 1, q)
                    nxt[k] = nxt.get(k, 0.0) + c
                    if q:
                        k2 = (p, q - 1)
                        nxt[k2] = nxt.get(k2, 0.0) + q * c
            acc = nxt
        for k, c in acc.items():
            total[k] = total.get(k, 0.0) + c
    return PhasePolynomial(total)


def differentiate(poly: PhasePolynomial, variable: str, order: int = 1) -> PhasePolynomial:
    """Formal partial derivative, treating a and a* as independent."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if variable not in (VAR_A, VAR_A_STAR):
        raise ValueError(f"unknown variable {variable!r}")
    out = poly
    for _ in range(order):
        terms: dict[tuple[int, int], complex] = {}
        for (p, q), c in out.terms.items():
            if variable == VAR_A:
                if q:
                    terms[(p, q - 1)] = terms.get((p, q - 1), 0.0) + q * c
            else:
                if p:
                    terms[(p - 1, q)] = terms.get((p - 1, q), 0.0) + p * c
        out = PhasePolynomial(terms)
    return out


def evaluate(poly: PhasePolynomial, a: complex, a_star: complex | None = None) -> complex:
    """Evaluate at a point; a* defaults to the complex conjugate of a."""
    if a_star is None:
        a_star = complex(a).conjugate()
    total = 0.0 + 0.0j
    for (p, q), c in poly.terms.items():
        total += c * (a_star**p) * (a**q)
    return total


def is_hermitian(poly: PhasePolynomial, tol: float = COEFF_TOL) -> bool:
    keys = set(poly.terms)
    keys |= {(q, p) for (p, q) in keys}
    return all(
        abs(poly.terms.get((p, q), 0.0) - complex(poly.terms.get((q, p), 0.0)).conjugate())
        <= tol
        for (p, q) in keys
    )


@dataclass(frozen=True)
class DiscardedTerm:
    """A dropped derivative term: (d/da)^order_a (d/da*)^order_a_star acting
    on coefficient * W in the evolution equation for W."""

    order_a: int
    order_a_star: int
    coefficient: PhasePolynomial

    @property
    def total_order(self) -> int:
        return self.order_a + self.order_a_star


@dataclass(frozen=True)
class DriftDiffusionModel:
    """Drift vector and per-variable noise amplitudes over phase variables.

    ``variables[0]`` is the unstarred symbol and ``variables[1]`` the starred
    one; every polynomial entry is expressed in those two symbols.  Noise
    amplitudes multiply one independent real Wiener increment each;
    an empty ``noise`` tuple means purely deterministic drift.
    """

    variables: tuple[str, str]
    drift: tuple[PhasePolynomial, PhasePolynomial]
    noise: tuple[PhasePolynomial, ...] = ()
    convention: str = "ito"
    discarded: tuple[DiscardedTerm, ...] = field(default=())

    def __post_init__(self):
        if len(self.variables) != 2 or len(self.drift) != 2:
            raise ValueError("model requires exactly two phase variables")
        if self.noise and len(self.noise) != 2:
            raise ValueError("noise amplitudes must come one per variable")
        if self.convention not in ("ito", "stratonovich"):
            raise ValueError(f"unknown calculus convention {self.convention!r}")


def _own_symbol(index: int) -> str:
    return VAR_A if index == 0 else VAR_A_STAR


def derive_wigner_model(hamiltonian: PhasePolynomial) -> DriftDiffusionModel:
    """Truncated-Wigner drift equations for a normal-ordered Hamiltonian.

    The drift for the unstarred variable is
    ``-i sum_w (-1/2)^w / w! * d^(2w+1) H / (da*^(w+1) da^w)`` and its
    starred partner is the conjugate-mapped expression.  All derivative
    terms of total order >= 3 in the distribution equation (only odd
    orders occur) are collected into ``discarded`` rather than simulated.
    """
    if not is_hermitian(hamiltonian):
        raise DerivationError("Hamiltonian symbol must be Hermitian")
    p_max = hamiltonian.max_star_power()
    q_max = hamiltonian.max_plain_power()

    drift_a = PhasePolynomial.zero()
    drift_as = PhasePolynomial.zero()
    for w in range(0, max(p_max, q_max) + 1):
        weight = (-0.5) ** w / math.factorial(w)
        term_a = differentiate(differentiate(hamiltonian, VAR_A_STAR, w + 1), VAR_A, w)
        term_as = differentiate(differentiate(hamiltonian, VAR_A_STAR, w), VAR_A, w + 1)
        drift_a = drift_a + term_a.scaled(-1j * weight)
        drift_as = drift_as + term_as.scaled(1j * weight)

    discarded = []
    for u in range(0, p_max + 1):          # power of d/da in the operator
        for v in range(0, q_max + 1):      # power of d/da*
            if u + v < 3 or (u + v) % 2 == 0:
                continue
            coeff = PhasePolynomial.zero()
            for w in range(0, max(p_max, q_max) + 1):
                if u + w > p_max or v + w > q_max:
                    break
                h_term = differentiate(
                    differentiate(hamiltonian, VAR_A_STAR, u + w), VAR_A, v + w
                )
                coeff = coeff + h_term.scaled((-0.5) ** w / math.factorial(w))
            bracket = (-1.0) ** u - (-1.0) ** v
            prefactor = -1j * (0.5 ** (u + v)) * bracket / (
                math.factorial(u) * math.factorial(v)
            )
            coeff = coeff.scaled(prefactor)
            if not coeff.is_zero(tol=0.0):
                discarded.append(DiscardedTerm(u, v, coeff))

    return DriftDiffusionModel(
        variables=("alpha", "alpha*"),
        drift=(drift_a, drift_as),
        noise=(),
        convention="stratonovich",
        discarded=tuple(discarded),
    )


def _monomial_sqrt(poly: PhasePolynomial) -> PhasePolynomial:
    """Principal square root of ``c * a*^p a^q`` with even p, q.

    The constant factor takes the principal branch; the polynomial part is
    halved exponent-wise so that the amplitude stays single valued along
    trajectories (no branch-cut crossing, unlike a pointwise root).
    """
    if poly.is_zero(tol=0.0):
        return PhasePolynomial.zero()
    if len(poly.terms) != 1:
        raise DerivationError(
            "diffusion term is not a single monomial; noise amplitude "
            "cannot be written as constant * a*^j a^k"
        )
    ((p, q), c), = poly.terms.items()
    if p % 2 or q % 2:
        raise DerivationError(
            f"diffusion monomial a*^{p} a^{q} has odd exponents; "
            "no polynomial square root exists"
        )
    root = complex(c) ** 0.5
    return PhasePolynomial.monomial(p // 2, q // 2, root)


def derive_positive_p_model(hamiltonian: PhasePolynomial) -> DriftDiffusionModel:
    """Exact Ito trajectory model on the doubled phase space.

    Valid whenever the distribution evolution closes at second derivative
    order, i.e. all pure third-or-higher derivatives of H vanish; otherwise
    the Hamiltonian is rejected.  Drift is ``(-i dH/da*, +i dH/da)`` and the
    squared noise amplitudes are ``(-i d2H/da*^2, +i d2H/da^2)``, each driven
    by an independent real Wiener increment.
    """
    if not is_hermitian(hamiltonian):
        raise DerivationError("Hamiltonian symbol must be Hermitian")
    top = max(hamiltonian.max_star_power(), hamiltonian.max_plain_power())
    for order in range(3, top + 1):
        for var, label in ((VAR_A_STAR, "a*"), (VAR_A, "a")):
            leftover = differentiate(hamiltonian, var, order)
            if not leftover.is_zero(tol=0.0):
                raise DerivationError(
                    f"order-{order} derivative in {label} is nonzero "
                    f"({render_polynomial(leftover)}); the distribution "
                    "equation does not truncate at diffusion order"
                )

    drift1 = differentiate(hamiltonian, VAR_A_STAR, 1).scaled(-1j)
    drift2 = differentiate(hamiltonian, VAR_A, 1).scaled(1j)
    noise1 = _monomial_sqrt(differentiate(hamiltonian, VAR_A_STAR, 2).scaled(-1j))
    noise2 = _monomial_sqrt(differentiate(hamiltonian, VAR_A, 2).scaled(1j))

    return DriftDiffusionModel(
        variables=("alpha1", "alpha2*"),
        drift=(drift1, drift2),
        noise=(noise1, noise2),
        convention="ito",
    )


def ito_to_stratonovich(model: DriftDiffusionModel) -> DriftDiffusionModel:
    """Convert an Ito model with diagonal noise to Stratonovich form.

    Each drift entry gains ``-(1/2) * B_j * dB_j/dx_j`` where ``B_j`` is the
    noise amplitude attached to variable ``x_j``.
    """
    if model.convention != "ito":
        raise ValueError("model is not in Ito form")
    if not model.noise:
        return DriftDiffusionModel(
            model.variables, model.drift, (), "stratonovich", model.discarded
        )
    new_drift = []
    for j, (a_j, b_j) in enumerate(zip(model.drift, model.noise)):
        correction = (b_j * differentiate(b_j, _own_symbol(j), 1)).scaled(-0.5)
        new_drift.append((a_j + correction).chop())
    return DriftDiffusionModel(
        model.variables, tuple(new_drift), model.noise, "stratonovich", model.discarded
    )


def drift_divergence(model: DriftDiffusionModel) -> PhasePolynomial:
    """Sum of each drift entry differentiated by its own variable.

    A vanishing divergence means the deterministic flow preserves
    phase-space volume, and with it the purity functional of the
    distribution it transports.
    """
    return differentiate(model.drift[0], VAR_A, 1) + differentiate(
        model.drift[1], VAR_A_STAR, 1
    )


def format_complex(z: complex) -> str:
    z = complex(z)
    re = z.real + 0.0  # normalise -0.0
    im = z.imag + 0.0
    return f"{re:.6g}{im:+.6g}i"


def render_polynomial(poly: PhasePolynomial) -> str:
    """Canonical text form: terms sorted by (p+q, p), `coeff * a*^p a^q`."""
    if not poly.terms:
        return "0"
    parts = []
    for (p, q) in sorted(poly.terms, key=lambda k: (k[0] + k[1], k[0])):
        parts.append(f"{format_complex(poly.terms[(p, q)])} * a*^{p} a^{q}")
    return " + ".join(parts)


def render_model(model: DriftDiffusionModel) -> list[str]:
    lines = []
    for name, poly in zip(model.variables, model.drift):
        lines.append(f"d({name})/dt = {render_polynomial(poly)}")
    for name, poly in zip(model.variables, model.noise):
        if not poly.is_zero(tol=0.0):
            lines.append(f"noise on {name}: {render_polynomial(poly)}")
    for term in model.discarded:
        lines.append(
            f"discarded: d^{term.total_order}"
            f"/d(alpha)^{term.order_a} d(alpha*)^{term.order_a_star}"
            f" [{render_polynomial(term.coefficient)}]"
        )
    return lines


def kerr_hamiltonian() -> PhasePolynomial:
    """Normal-ordered symbol of the anharmonic oscillator (n-hat squared)."""
    word = OperatorWord((CREATE, DESTROY, CREATE, DESTROY))
    return normal_order([word])


def parse_hamiltonian(text: str) -> list[OperatorWord]:
    """Parse `ad`/`a` product terms joined by `+`, e.g. ``ad a ad a``.

    Each term may start with an integer coefficient: ``2 ad a + ad ad a a``.
    """
    words = []
    for chunk in text.split("+"):
        tokens = chunk.split()
        if not tokens:
            raise ValueError("empty term in Hamiltonian expression")
        coeff = 1.0
        if tokens[0] not in ("ad", "a"):
            try:
                coeff = float(int(tokens[0]))
            except ValueError:
                raise ValueError(f"bad token {tokens[0]!r}: expected integer, 'ad' or 'a'")
            tokens = tokens[1:]
        factors = []
        for tok in tokens:
            if tok == "ad":
                factors.append(CREATE)
            elif tok == "a":
                factors.append(DESTROY)
            else:
                raise ValueError(f"bad token {tok!r}: expected 'ad' or 'a'")
        words.append(OperatorWord(tuple(factors), coeff))
    return words


def parse_phase_polynomial(text: str) -> PhasePolynomial:
    """Parse the same token grammar directly as a phase-space polynomial.

    Here the symbols commute: ``ad`` contributes a power of a* and ``a`` a
    power of a, e.g. ``a`` is the monomial alpha and ``2 ad a`` is 2 a* a.
    """
    out = PhasePolynomial.zero()
    for word in parse_hamiltonian(text):
        p = sum(1 for f in word.factors if f == CREATE)
        q = len(word.factors) - p
        out = out + PhasePolynomial.monomial(p, q, word.coefficient)
    return out
