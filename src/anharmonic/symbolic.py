"""Operator algebra and phase-space equation-of-motion derivations.

A single-mode polynomial Hamiltonian is read from text straight into its
normal-ordered phase-space symbol H(a, a*).  Both stochastic trajectory
models follow one rule: the drift is the flow ``(-i dS/da*, +i dS/da)`` of
a symbol S.

* Truncated Wigner flows the Wigner symbol H_W, formed once from H; the
  third- and higher-order derivative terms of the underlying evolution
  equation, derivatives of H_W, are dropped but recorded.
* Positive-P flows H itself on the doubled phase space, in Ito form with
  an exact Stratonovich conversion; its squared noise amplitudes are the
  second-order flow of H.

Polynomials are sparse maps from exponent pairs ``(p, q)`` to exact
Gaussian-rational coefficients, pairs ``(re, im)`` of fractions meaning
``(re + i im) * a*^p a^q``, a and a* formally independent.  Every derivation
is exact at any coefficient size; only a noise amplitude's root is a float.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

from .oracle import _cmul


class DerivationError(ValueError):
    """A Hamiltonian cannot be mapped to the requested trajectory model."""


def _gaussian(c) -> tuple[Fraction, Fraction]:
    """A number, or an (re, im) pair as it is, as an exact pair (re, im)."""
    if isinstance(c, tuple):
        return c
    if isinstance(c, Rational):
        return Fraction(c), Fraction(0)
    c = complex(c)
    try:
        return Fraction(c.real), Fraction(c.imag)
    except (OverflowError, ValueError):
        raise ValueError(f"symbol coefficient {_render_coefficient(c.real, c.imag)} "
                         "is not finite") from None


class PhasePolynomial:
    """Sparse polynomial ``sum_pq c[p,q] a*^p a^q`` with exact coefficients, so
    that no derivation rounds, overflows or carries an inf or a nan."""

    __slots__ = ("coefficients",)

    def __init__(self, terms=None):
        exact = ((k, _gaussian(c)) for k, c in (terms or {}).items())
        self.coefficients = {(int(p), int(q)): c for (p, q), c in exact if any(c)}

    @classmethod
    def monomial(cls, p: int, q: int, coeff: complex = 1) -> "PhasePolynomial":
        return cls({(p, q): coeff})

    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        return _collect([*self.coefficients.items(), *other.coefficients.items()])

    def scaled(self, factor: complex) -> "PhasePolynomial":
        factor = _gaussian(factor)
        return PhasePolynomial({k: _cmul(factor, c) for k, c in self.coefficients.items()})

    def __mul__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        return _collect(
            ((p1 + p2, q1 + q2), _cmul(c1, c2))
            for (p1, q1), c1 in self.coefficients.items()
            for (p2, q2), c2 in other.coefficients.items()
        )

    def __eq__(self, other):
        if not isinstance(other, PhasePolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(frozenset(self.coefficients.items()))

    def __repr__(self):
        return f"PhasePolynomial({render_polynomial(self)!r})"


def _collect(items) -> PhasePolynomial:
    """The sum of ``(key, (re, im))`` items, those of one key added."""
    out = {}
    for k, (re, im) in items:
        re0, im0 = out.get(k, (0, 0))
        out[k] = (re0 + re, im0 + im)
    return PhasePolynomial(out)


def differentiate(poly: PhasePolynomial, u: int = 0, v: int = 0) -> PhasePolynomial:
    """Formal partial derivative d^u/da*^u d^v/da^v, treating a and a* as
    independent: ``a*^p a^q -> p!/(p-u)! q!/(q-v)! a*^(p-u) a^(q-v)``."""
    if u < 0 or v < 0:
        raise ValueError("derivative order must be nonnegative")
    return PhasePolynomial({
        (p - u, q - v): _cmul((math.perm(p, u) * math.perm(q, v), 0), c)
        for (p, q), c in poly.coefficients.items() if p >= u and q >= v
    })


def _flow(symbol: PhasePolynomial, order: int = 1) -> tuple[PhasePolynomial, PhasePolynomial]:
    """Hamiltonian flow of a symbol: ``(-i d^k S/da*^k, +i d^k S/da^k)``."""
    return (
        differentiate(symbol, order).scaled(-1j),
        differentiate(symbol, 0, order).scaled(1j),
    )


def is_hermitian(poly: PhasePolynomial) -> bool:
    return poly.coefficients == {(q, p): (re, -im) for (p, q), (re, im) in poly.coefficients.items()}


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
    """Drift vector and per-variable squared noise amplitudes over phase variables.

    ``variables[0]`` is the unstarred symbol and ``variables[1]`` the starred
    one; every polynomial entry is expressed in those two symbols.  The noise
    amplitude B_j, the monomial root of ``diffusion[j]``, multiplies one real
    Wiener increment; an empty ``diffusion`` means purely deterministic drift.
    """

    variables: tuple[str, str]
    drift: tuple[PhasePolynomial, PhasePolynomial]
    diffusion: tuple[PhasePolynomial, ...] = ()
    convention: str = "ito"
    discarded: tuple[DiscardedTerm, ...] = field(default=())

    def __post_init__(self):
        if len(self.variables) != 2 or len(self.drift) != 2:
            raise ValueError("model requires exactly two phase variables")
        if self.diffusion and len(self.diffusion) != 2:
            raise ValueError("noise amplitudes must come one per variable")
        if self.convention not in ("ito", "stratonovich"):
            raise ValueError(f"unknown calculus convention {self.convention!r}")
        for d in self.diffusion:
            _root_exponents(d)  # a DerivationError unless every amplitude exists

    @property
    def noise(self) -> tuple[PhasePolynomial, ...]:
        """The noise amplitudes B_j, each with a float coefficient: a
        DerivationError where D_j's coefficient is beyond the float range."""
        return tuple(_monomial_sqrt(d) for d in self.diffusion)


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
    p_max = max((p for p, _ in hamiltonian.coefficients), default=0)
    q_max = max((q for _, q in hamiltonian.coefficients), default=0)
    wigner_symbol = PhasePolynomial()
    for w in range(min(p_max, q_max) + 1):
        h_term = differentiate(hamiltonian, w, w)
        wigner_symbol = wigner_symbol + h_term.scaled(Fraction(-1, 2) ** w / math.factorial(w))

    discarded = []
    for u in range(0, p_max + 1):          # power of d/da in the operator
        for v in range(0, q_max + 1):      # power of d/da*
            if u + v < 3 or (u + v) % 2 == 0:
                continue
            prefactor = Fraction((-1) ** v - (-1) ** u,
                                 2 ** (u + v) * math.factorial(u) * math.factorial(v))
            coeff = differentiate(wigner_symbol, u, v).scaled((0, prefactor))
            if not coeff.is_zero():
                discarded.append(DiscardedTerm(u, v, coeff))

    return DriftDiffusionModel(
        variables=("alpha", "alpha*"),
        drift=_flow(wigner_symbol),
        convention="stratonovich",
        discarded=tuple(discarded),
    )


def _root_exponents(poly: PhasePolynomial) -> tuple[int, int]:
    """Exponents (p/2, q/2) of the root of ``c * a*^p a^q`` with even p, q, or
    (0, 0) of zero; a DerivationError for every other polynomial."""
    if poly.is_zero():
        return 0, 0
    if len(poly.coefficients) != 1:
        raise DerivationError(
            "diffusion term is not a single monomial; noise amplitude "
            "cannot be written as constant * a*^j a^k"
        )
    (p, q), = poly.coefficients
    if p % 2 or q % 2:
        raise DerivationError(
            f"diffusion monomial a*^{p} a^{q} has odd exponents; "
            "no polynomial square root exists"
        )
    return p // 2, q // 2


def _monomial_sqrt(poly: PhasePolynomial) -> PhasePolynomial:
    """Principal square root of ``c * a*^p a^q`` with even p, q.

    The constant factor takes the principal branch, in floats; the polynomial
    part is halved exponent-wise so that the amplitude stays single valued
    along trajectories (no branch-cut crossing, unlike a pointwise root).
    """
    p, q = _root_exponents(poly)
    try:
        c = complex(*poly.coefficients.get((2 * p, 2 * q), (0, 0)))
    except OverflowError:  # no float holds the coefficient
        raise DerivationError(f"diffusion term {render_polynomial(poly)} exceeds the float range") from None
    return PhasePolynomial.monomial(p, q, c**0.5)


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
    for (u, v), label in (((3, 0), "a*"), ((0, 3), "a")):
        leftover = differentiate(hamiltonian, u, v)
        if not leftover.is_zero():
            raise DerivationError(
                f"order-3 derivative in {label} is nonzero "
                f"({render_polynomial(leftover)}); the distribution "
                "equation does not truncate at diffusion order"
            )
    return DriftDiffusionModel(
        variables=("alpha1", "alpha2*"),
        drift=_flow(hamiltonian),
        diffusion=_flow(hamiltonian, 2),
        convention="ito",
    )


def ito_to_stratonovich(model: DriftDiffusionModel) -> DriftDiffusionModel:
    """Convert an Ito model with diagonal noise to Stratonovich form.

    Each drift entry gains ``-(1/2) B_j dB_j/dx_j``, where ``B_j`` is the noise
    amplitude attached to variable ``x_j``: exactly ``-(1/4) dD_j/dx_j``.
    """
    if model.convention != "ito":
        raise ValueError("model is not in Ito form")
    drift = model.drift
    if model.diffusion:
        drift = tuple(
            a_j + differentiate(d_j, *orders).scaled(Fraction(-1, 4))
            for a_j, d_j, orders in zip(model.drift, model.diffusion, ((0, 1), (1, 0)))
        )
    return DriftDiffusionModel(model.variables, drift, model.diffusion, "stratonovich", model.discarded)


def drift_divergence(model: DriftDiffusionModel) -> PhasePolynomial:
    """Sum of each drift entry differentiated by its own variable.

    A vanishing divergence means the deterministic flow preserves
    phase-space volume, and with it the purity functional of the
    distribution it transports.
    """
    return differentiate(model.drift[0], 0, 1) + differentiate(model.drift[1], 1)


def _format_part(x, spec: str) -> str:
    """x as a float formats it, and beyond the float range at as many digits."""
    try:
        return format(float(x) + 0.0, spec)  # + 0.0 normalises -0.0
    except OverflowError:  # a fraction: 1e+399, not an error
        context = decimal.Context(prec=6)
        return format(context.divide(x.numerator, x.denominator).normalize(context), spec)


def _render_coefficient(re, im) -> str:
    return f"{_format_part(re, '.6g')}{_format_part(im, '+.6g')}i"


def render_polynomial(poly: PhasePolynomial) -> str:
    """Canonical text form: terms sorted by (p+q, p), `coeff * a*^p a^q`."""
    terms = sorted(poly.coefficients.items(), key=lambda term: (sum(term[0]), term[0][0]))
    return " + ".join(f"{_render_coefficient(*c)} * a*^{p} a^{q}" for (p, q), c in terms) or "0"


def render_model(model: DriftDiffusionModel) -> list[str]:
    lines = []
    for name, poly in zip(model.variables, model.drift):
        lines.append(f"d({name})/dt = {render_polynomial(poly)}")
    for name, poly in zip(model.variables, model.noise):
        if not poly.is_zero():
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
    return parse_hamiltonian("ad a ad a")


_A, _A_STAR = PhasePolynomial.monomial(0, 1), PhasePolynomial.monomial(1, 0)


def _parse(text: str, create, source: str) -> PhasePolynomial:
    """The sum of the `+`-joined terms of ``text``, each an optional integer
    coefficient of any size and then `ad`/`a` tokens, read left to right into
    a symbol S: `a` takes S to S a, `ad` to ``create(S)``.  Errors name the
    text as ``source``."""
    steps = {"a": lambda s: s * _A, "ad": create}
    total = PhasePolynomial()
    for chunk in text.split("+"):
        tokens = chunk.split()
        if not tokens:
            raise ValueError(f"empty term in {source}")
        coeff = 1
        if tokens[0] not in steps:
            try:
                coeff = int(tokens[0])
            except ValueError:
                raise ValueError(f"bad token {tokens[0]!r} in {source}: expected integer, 'ad' or 'a'") from None
            tokens = tokens[1:]
        s = PhasePolynomial.monomial(0, 0, coeff)
        for tok in tokens:
            if tok not in steps:
                raise ValueError(f"bad token {tok!r} in {source}: expected 'ad' or 'a'")
            s = steps[tok](s)
        total = total + s
    return total


def parse_hamiltonian(text: str) -> PhasePolynomial:
    """The normal-ordered symbol of `ad`/`a` product terms joined by `+`,
    e.g. ``ad a ad a`` or ``2 ad a + ad ad a a``, by S a = a S and the
    commutator rule S a^dag = a* S + dS/da.  A Hermitian sum of terms
    yields a Hermitian symbol."""
    return _parse(text, lambda s: s * _A_STAR + differentiate(s, 0, 1), "Hamiltonian expression")


def parse_phase_polynomial(text: str) -> PhasePolynomial:
    """The same terms with the symbols commuting: ``ad`` contributes a power
    of a* and ``a`` a power of a, e.g. ``a`` is the monomial alpha and
    ``2 ad a`` is 2 a* a."""
    return _parse(text, lambda s: s * _A_STAR, "phase-polynomial expression")
