"""Operator algebra and phase-space equation-of-motion derivations.

A single-mode polynomial Hamiltonian is normal ordered into a phase-space
symbol H(a, a*).  Both stochastic trajectory models follow one rule: the
drift is the flow ``(-i dS/da*, +i dS/da)`` of a symbol S.

* Truncated Wigner flows the Wigner symbol H_W, formed once from H; the
  third- and higher-order derivative terms of the underlying evolution
  equation, derivatives of H_W, are dropped but recorded.
* Positive-P flows H itself on the doubled phase space, in Ito form with
  an exact Stratonovich conversion; its squared noise amplitudes are the
  second-order flow of H.

Polynomials are stored as sparse maps from exponent pairs ``(p, q)`` to
complex coefficients, meaning ``c * a*^p a^q``.  The starred and unstarred
symbols are treated as formally independent variables throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Symbol names of the two variables `differentiate` takes.
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


class PhasePolynomial:
    """Sparse polynomial ``sum_pq c[p,q] a*^p a^q`` with finite complex
    coefficients, so that no derivation can carry an inf or a nan."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, int], complex] = {}
        for (p, q), c in (terms or {}).items():
            c = complex(c)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"symbol coefficient {format_complex(c)} is not finite")
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

    Multiplies each word through from the left in the symbol algebra, with
    S a = a S and the commutator rule S a^dag = a* S + dS/da.  Hermitian
    input yields a Hermitian symbol.
    """
    a, a_star = PhasePolynomial.monomial(0, 1), PhasePolynomial.monomial(1, 0)
    total = PhasePolynomial.zero()
    for word in words:
        s = PhasePolynomial.monomial(0, 0, word.coefficient)
        for factor in word.factors:
            if factor == DESTROY:
                s = s * a
            else:
                s = s * a_star + differentiate(s, VAR_A)
        total = total + s
    return total


def differentiate(poly: PhasePolynomial, variable: str, order: int = 1) -> PhasePolynomial:
    """Formal partial derivative, treating a and a* as independent:
    ``d^k/da*^k a*^p a^q = p!/(p-k)! a*^(p-k) a^q``, and likewise in a."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if variable not in (VAR_A, VAR_A_STAR):
        raise ValueError(f"unknown variable {variable!r}")
    star = variable == VAR_A_STAR
    terms = {}
    for (p, q), c in poly.terms.items():
        power = p if star else q
        if power >= order:
            key = (p - order, q) if star else (p, q - order)
            terms[key] = math.perm(power, order) * c
    return PhasePolynomial(terms)


def _flow(symbol: PhasePolynomial, order: int = 1) -> tuple[PhasePolynomial, PhasePolynomial]:
    """Hamiltonian flow of a symbol: ``(-i d^k S/da*^k, +i d^k S/da^k)``."""
    return (
        differentiate(symbol, VAR_A_STAR, order).scaled(-1j),
        differentiate(symbol, VAR_A, order).scaled(1j),
    )


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


def derive_wigner_model(hamiltonian: PhasePolynomial) -> DriftDiffusionModel:
    """Truncated-Wigner drift equations for a normal-ordered Hamiltonian.

    The drift is the flow of the Wigner symbol
    ``H_W = sum_w (-1/2)^w / w! d^(2w) H / (da*^w da^w)``.  Every derivative
    term of total order u + v >= 3 in the distribution equation (only odd
    orders occur) has coefficient
    ``-i (1/2)^(u+v) ((-1)^u - (-1)^v) / (u! v!) d^(u+v) H_W / (da*^u da^v)``
    and is collected into ``discarded`` rather than simulated.
    """
    if not is_hermitian(hamiltonian):
        raise DerivationError("Hamiltonian symbol must be Hermitian")
    p_max = hamiltonian.max_star_power()
    q_max = hamiltonian.max_plain_power()
    wigner_symbol = PhasePolynomial.zero()
    for w in range(min(p_max, q_max) + 1):
        h_term = differentiate(differentiate(hamiltonian, VAR_A_STAR, w), VAR_A, w)
        wigner_symbol = wigner_symbol + h_term.scaled((-0.5) ** w / math.factorial(w))

    discarded = []
    for u in range(0, p_max + 1):          # power of d/da in the operator
        for v in range(0, q_max + 1):      # power of d/da*
            if u + v < 3 or (u + v) % 2 == 0:
                continue
            prefactor = -1j * 0.5 ** (u + v) * ((-1.0) ** u - (-1.0) ** v)
            prefactor /= math.factorial(u) * math.factorial(v)
            h_term = differentiate(differentiate(wigner_symbol, VAR_A_STAR, u), VAR_A, v)
            coeff = h_term.scaled(prefactor)
            if not coeff.is_zero(tol=0.0):
                discarded.append(DiscardedTerm(u, v, coeff))

    return DriftDiffusionModel(
        variables=("alpha", "alpha*"),
        drift=_flow(wigner_symbol),
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
    order, i.e. the third derivatives of H in a* and in a vanish (every
    higher one then vanishes too); otherwise the Hamiltonian is rejected.
    The drift is the flow of H itself, ``(-i dH/da*, +i dH/da)``, and the
    squared noise amplitudes are its second-order flow
    ``(-i d2H/da*^2, +i d2H/da^2)``, each driven by an independent real
    Wiener increment.
    """
    if not is_hermitian(hamiltonian):
        raise DerivationError("Hamiltonian symbol must be Hermitian")
    for var, label in ((VAR_A_STAR, "a*"), (VAR_A, "a")):
        leftover = differentiate(hamiltonian, var, 3)
        if not leftover.is_zero(tol=0.0):
            raise DerivationError(
                f"order-3 derivative in {label} is nonzero "
                f"({render_polynomial(leftover)}); the distribution "
                "equation does not truncate at diffusion order"
            )
    return DriftDiffusionModel(
        variables=("alpha1", "alpha2*"),
        drift=_flow(hamiltonian),
        noise=tuple(_monomial_sqrt(s) for s in _flow(hamiltonian, 2)),
        convention="ito",
    )


def ito_to_stratonovich(model: DriftDiffusionModel) -> DriftDiffusionModel:
    """Convert an Ito model with diagonal noise to Stratonovich form.

    Each drift entry gains ``-(1/2) * B_j * dB_j/dx_j`` where ``B_j`` is the
    noise amplitude attached to variable ``x_j``.
    """
    if model.convention != "ito":
        raise ValueError("model is not in Ito form")
    drift = model.drift
    if model.noise:
        drift = tuple(
            (a_j + (b_j * differentiate(b_j, var, 1)).scaled(-0.5)).chop()
            for a_j, b_j, var in zip(model.drift, model.noise, (VAR_A, VAR_A_STAR))
        )
    return DriftDiffusionModel(
        model.variables, drift, model.noise, "stratonovich", model.discarded
    )


def drift_divergence(model: DriftDiffusionModel) -> PhasePolynomial:
    """Sum of each drift entry differentiated by its own variable.

    A vanishing divergence means the deterministic flow preserves
    phase-space volume, and with it the purity functional of the
    distribution it transports.
    """
    return differentiate(model.drift[0], VAR_A) + differentiate(model.drift[1], VAR_A_STAR)


def format_complex(z: complex) -> str:
    z = complex(z)
    re = z.real + 0.0  # normalise -0.0
    im = z.imag + 0.0
    return f"{re:.6g}{im:+.6g}i"


def render_polynomial(poly: PhasePolynomial) -> str:
    """Canonical text form: terms sorted by (p+q, p), `coeff * a*^p a^q`."""
    terms = sorted(poly.terms.items(), key=lambda term: (sum(term[0]), term[0][0]))
    return " + ".join(f"{format_complex(c)} * a*^{p} a^{q}" for (p, q), c in terms) or "0"


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


_LADDER_TOKENS = {"ad": CREATE, "a": DESTROY}
#: Largest coefficient magnitude a Hamiltonian term may carry, so that the
#: float coefficient is the integer given.
MAX_COEFFICIENT = 2**53


def parse_hamiltonian(text: str) -> list[OperatorWord]:
    """Parse `ad`/`a` product terms joined by `+`, e.g. ``ad a ad a``.

    Each term may start with an integer coefficient: ``2 ad a + ad ad a a``.
    Its magnitude may not exceed 2^53, so that it is exact as a float.
    """
    words = []
    for chunk in text.split("+"):
        tokens = chunk.split()
        if not tokens:
            raise ValueError("empty term in Hamiltonian expression")
        coeff = 1.0
        if tokens[0] not in _LADDER_TOKENS:
            try:
                coeff = int(tokens[0])
            except ValueError:
                coeff = None
            if coeff is None or abs(coeff) > MAX_COEFFICIENT:
                raise ValueError(f"bad token {tokens[0]!r}: expected integer of magnitude "
                                 f"at most 2^53, 'ad' or 'a'")
            coeff = float(coeff)
            tokens = tokens[1:]
        for tok in tokens:
            if tok not in _LADDER_TOKENS:
                raise ValueError(f"bad token {tok!r}: expected 'ad' or 'a'")
        words.append(OperatorWord(tuple(_LADDER_TOKENS[tok] for tok in tokens), coeff))
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
