import numpy as np
import pytest

from anharmonic import symbolic as sy
from anharmonic.symbolic import (
    CREATE,
    DESTROY,
    VAR_A,
    VAR_A_STAR,
    DerivationError,
    DriftDiffusionModel,
    OperatorWord,
    PhasePolynomial,
)
from helpers import conjugate_map, dagger, evaluate, poly_equal, random_hermitian_polynomial


def P(terms):
    return PhasePolynomial(terms)


class TestNormalOrder:
    def test_number_squared(self):
        # adag a adag a -> adag^2 a^2 + adag a, the single commutation case
        word = OperatorWord((CREATE, DESTROY, CREATE, DESTROY))
        assert sy.normal_order([word]) == P({(2, 2): 1, (1, 1): 1})

    def test_already_normal_ordered(self):
        word = OperatorWord((CREATE, DESTROY))
        assert sy.normal_order([word]) == P({(1, 1): 1})

    def test_defining_commutator(self):
        word = OperatorWord((DESTROY, CREATE))
        assert sy.normal_order([word]) == P({(1, 1): 1, (0, 0): 1})

    def test_idempotent_on_normal_ordered_words(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p, q = rng.integers(0, 4, size=2)
            coeff = complex(rng.normal(), rng.normal())
            word = OperatorWord((CREATE,) * int(p) + (DESTROY,) * int(q), coeff)
            assert sy.normal_order([word]) == P({(int(p), int(q)): coeff})

    def test_hermitian_input_gives_hermitian_symbol(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            factors = tuple(rng.choice([CREATE, DESTROY], size=n))
            coeff = complex(rng.normal(), rng.normal())
            word = OperatorWord(factors, coeff)
            sym = sy.normal_order([word, dagger(word)])
            assert sy.is_hermitian(sym)

    def test_empty_word_is_identity(self):
        assert sy.normal_order([OperatorWord((), 3.0)]) == P({(0, 0): 3.0})


class TestDifferentiate:
    def test_power_rule_star(self):
        poly = P({(2, 2): 1, (1, 1): 1})
        assert sy.differentiate(poly, VAR_A_STAR) == P({(1, 2): 2, (0, 1): 1})

    def test_order_zero_is_identity(self):
        poly = P({(2, 2): 1, (1, 1): 1})
        assert sy.differentiate(poly, VAR_A, 0) == poly

    def test_second_derivative(self):
        assert sy.differentiate(P({(2, 2): 1}), VAR_A_STAR, 2) == P({(0, 2): 2})

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            sy.differentiate(P({(1, 1): 1}), VAR_A, -1)


class TestEvaluate:
    def test_number_monomial(self):
        assert evaluate(P({(1, 1): 1}), 2.0) == pytest.approx(4.0)

    def test_zero_polynomial(self):
        assert evaluate(PhasePolynomial.zero(), 1.7 + 0.3j) == 0

    def test_wigner_drift_at_unity(self):
        drift = sy.derive_wigner_model(sy.kerr_hamiltonian()).drift[0]
        assert evaluate(drift, 1.0) == pytest.approx(-1j)

    def test_independent_starred_value(self):
        assert evaluate(P({(1, 0): 1}), 0.0, a_star=2.0 + 1j) == 2.0 + 1j


class TestPositivePModel:
    def test_anharmonic_drift_and_noise_squared(self):
        h = P({(2, 2): 1, (1, 1): 1})
        model = sy.derive_positive_p_model(h)
        assert model.convention == "ito"
        assert poly_equal(model.drift[0], P({(1, 2): -2j, (0, 1): -1j}))
        assert poly_equal(model.drift[1], P({(2, 1): 2j, (1, 0): 1j}))
        noise_sq = model.noise[0] * model.noise[0]
        assert poly_equal(noise_sq, P({(0, 2): -2j}))
        noise_sq2 = model.noise[1] * model.noise[1]
        assert poly_equal(noise_sq2, P({(2, 0): 2j}))

    def test_harmonic_is_noise_free_rotation(self):
        model = sy.derive_positive_p_model(P({(1, 1): 1}))
        assert poly_equal(model.drift[0], P({(0, 1): -1j}))
        assert model.noise[0].is_zero()
        assert model.noise[1].is_zero()

    def test_pure_quartic(self):
        model = sy.derive_positive_p_model(P({(2, 2): 1}))
        assert poly_equal(model.drift[0], P({(1, 2): -2j}))
        assert poly_equal(model.noise[0] * model.noise[0], P({(0, 2): -2j}))

    def test_rejects_sextic(self):
        with pytest.raises(DerivationError, match="order-3"):
            sy.derive_positive_p_model(P({(3, 3): 1.0}))

    def test_rejects_non_hermitian(self):
        with pytest.raises(DerivationError, match="Hermitian"):
            sy.derive_positive_p_model(P({(2, 0): 1.0}))


class TestItoToStratonovich:
    def test_anharmonic_correction_cancels_linear_term(self):
        model = sy.derive_positive_p_model(sy.kerr_hamiltonian())
        strat = sy.ito_to_stratonovich(model)
        assert strat.convention == "stratonovich"
        assert poly_equal(strat.drift[0], P({(1, 2): -2j}))
        assert poly_equal(strat.drift[1], P({(2, 1): 2j}))

    def test_zero_noise_leaves_drift(self):
        drift = (P({(0, 1): -1j}), P({(1, 0): 1j}))
        model = DriftDiffusionModel(("alpha1", "alpha2*"), drift, (), "ito")
        strat = sy.ito_to_stratonovich(model)
        assert strat.drift == drift

    def test_constant_noise_in_own_variable_leaves_drift(self):
        drift = (P({(0, 1): -1j}), P({(1, 0): 1j}))
        noise = (P({(1, 0): 0.5}), P({(0, 1): 0.5}))  # each independent of its own variable
        model = DriftDiffusionModel(("alpha1", "alpha2*"), drift, noise, "ito")
        strat = sy.ito_to_stratonovich(model)
        assert poly_equal(strat.drift[0], drift[0])
        assert poly_equal(strat.drift[1], drift[1])


class TestWignerModel:
    def test_anharmonic_drift(self):
        model = sy.derive_wigner_model(sy.kerr_hamiltonian())
        assert poly_equal(model.drift[0], P({(1, 2): -2j, (0, 1): 1j}))
        assert model.noise == ()

    def test_anharmonic_discarded_terms(self):
        model = sy.derive_wigner_model(sy.kerr_hamiltonian())
        assert len(model.discarded) == 2
        by_order = {(t.order_a, t.order_a_star): t.coefficient for t in model.discarded}
        # both third-order, coefficients proportional to a/2 and a*/2
        assert poly_equal(by_order[(2, 1)], P({(0, 1): -0.5j}))
        assert poly_equal(by_order[(1, 2)], P({(1, 0): 0.5j}))
        assert all(t.total_order == 3 for t in model.discarded)

    def test_harmonic_has_no_discarded_terms(self):
        model = sy.derive_wigner_model(P({(1, 1): 1}))
        assert poly_equal(model.drift[0], P({(0, 1): -1j}))
        assert model.discarded == ()

    def test_discarded_orders_odd_and_at_least_three(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            model = sy.derive_wigner_model(random_hermitian_polynomial(rng))
            for term in model.discarded:
                assert term.total_order >= 3
                assert term.total_order % 2 == 1

    def test_drift_entries_conjugation_related(self):
        # swapping exponents and conjugating coefficients turns the unstarred
        # drift into the starred one (the -i prefactor flips under conjugation)
        rng = np.random.default_rng(6)
        for _ in range(30):
            model = sy.derive_wigner_model(random_hermitian_polynomial(rng))
            assert poly_equal(model.drift[1], conjugate_map(model.drift[0]))


class TestDriftDivergence:
    def test_cubic_drift_pair_is_divergence_free(self):
        model = DriftDiffusionModel(
            ("alpha", "alpha*"),
            (P({(1, 2): -1j}), P({(2, 1): 1j})),
        )
        assert sy.drift_divergence(model).is_zero()

    def test_anharmonic_wigner_drift_divergence_free(self):
        # d/da of -i(2 a* a^2 - a) is -i(4 a* a - 1); the starred entry
        # contributes +i(4 a* a - 1); the sum cancels exactly
        model = sy.derive_wigner_model(sy.kerr_hamiltonian())
        assert sy.drift_divergence(model).is_zero()

    def test_damping_like_drift_violates(self):
        model = DriftDiffusionModel(
            ("alpha", "alpha*"),
            (P({(0, 1): 1.0}), PhasePolynomial.zero()),
        )
        assert sy.drift_divergence(model) == P({(0, 0): 1.0})

    def test_random_hermitian_hamiltonians_preserve_volume(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            model = sy.derive_wigner_model(random_hermitian_polynomial(rng))
            assert sy.drift_divergence(model).is_zero()


class TestRendering:
    def test_sorted_term_order_and_format(self):
        poly = P({(1, 2): -2j, (0, 1): 1j})
        assert sy.render_polynomial(poly) == "0+1i * a*^0 a^1 + 0-2i * a*^1 a^2"

    def test_zero_renders_as_zero(self):
        assert sy.render_polynomial(PhasePolynomial.zero()) == "0"

    def test_six_significant_digits(self):
        poly = P({(0, 0): 1.23456789 - 2.34567891j})
        assert sy.render_polynomial(poly) == "1.23457-2.34568i * a*^0 a^0"


class TestParsing:
    def test_kerr_tokens(self):
        words = sy.parse_hamiltonian("ad a ad a")
        assert sy.normal_order(words) == sy.kerr_hamiltonian()

    def test_coefficients_and_sums(self):
        words = sy.parse_hamiltonian("2 ad a + ad ad a a")
        assert sy.normal_order(words) == P({(1, 1): 2.0, (2, 2): 1.0})

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError, match="bad token"):
            sy.parse_hamiltonian("ad b")

    def test_phase_polynomial_tokens(self):
        assert sy.parse_phase_polynomial("a") == P({(0, 1): 1.0})
        assert sy.parse_phase_polynomial("2 ad a") == P({(1, 1): 2.0})
