import math

import numpy as np
import pytest

from anharmonic import moments as mo
from anharmonic.moments import (
    MONOMIAL_INDEX,
    MONOMIALS,
    InsufficientBatches,
    MomentAccumulator,
    MomentVector,
    QuadratureSpec,
    batch_error,
    bulk_monomials,
    cumulants,
    quadrature_moments_positive_p,
    quadrature_moments_wigner,
)
from anharmonic.sampling import POSITIVE_P, WIGNER
from helpers import stacked_monomials


def wigner_acc_from_samples(samples, n_batches=10):
    acc = MomentAccumulator(WIGNER, n_batches)
    parts = np.array_split(np.asarray(samples), n_batches)
    for b, part in enumerate(parts):
        acc.add_monomials(b, bulk_monomials(part.conj(), part).sum(axis=1), len(part))
    return acc


def positive_p_acc_from_samples(a1, a2s, n_batches=10):
    acc = MomentAccumulator(POSITIVE_P, n_batches)
    a1_parts = np.array_split(np.asarray(a1), n_batches)
    a2_parts = np.array_split(np.asarray(a2s), n_batches)
    for b, (pa, pb) in enumerate(zip(a1_parts, a2_parts)):
        acc.add_monomials(b, bulk_monomials(pb, pa).sum(axis=1), len(pa))
    return acc


class TestAccumulate:
    """One path's monomials from bulk_monomials, added into batch_sums."""

    def test_single_wigner_path(self):
        acc = MomentAccumulator(WIGNER, 2)
        a = np.array([2.0 + 0.0j])
        acc.add_monomials(0, bulk_monomials(a.conj(), a)[:, 0], 1)
        assert acc.batch_sums[0, MONOMIAL_INDEX[(1, 1)]] == pytest.approx(4.0)
        assert acc.batch_counts[0] == 1
        assert not acc.batch_sums[1].any()

    def test_positive_p_monomial_definition(self):
        acc = MomentAccumulator(POSITIVE_P, 1)
        a, abar = np.array([2.0 + 1.0j]), np.array([3.0 - 0.5j])
        acc.add_monomials(0, bulk_monomials(abar, a)[:, 0], 1)
        expected = (3.0 - 0.5j) * (2.0 + 1.0j)
        assert acc.batch_sums[0, MONOMIAL_INDEX[(1, 1)]] == pytest.approx(expected)
        assert acc.batch_sums[0, MONOMIAL_INDEX[(2, 1)]] == pytest.approx(expected * (3.0 - 0.5j))


class TestWignerQuadrature:
    def test_vacuum_second_and_fourth_moments(self):
        rng = np.random.default_rng(1)
        n = 200_000
        zeta = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        acc = wigner_acc_from_samples(zeta)
        mv = quadrature_moments_wigner(acc, QuadratureSpec(0.7))
        # quadrature of the vacuum: variance 1, Gaussian fourth moment 3
        assert abs(mv.m2 - 1.0) < 4 * math.sqrt(2.0 / n)
        assert abs(mv.m4 - 3.0) < 4 * math.sqrt(96.0 / n)

    def test_coherent_mean_is_twice_amplitude(self):
        rng = np.random.default_rng(2)
        n = 200_000
        a0 = 3.0
        samples = a0 + 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        acc = wigner_acc_from_samples(samples)
        mv = quadrature_moments_wigner(acc, QuadratureSpec(0.0))
        assert abs(mv.m1 - 2 * a0) < 4 / math.sqrt(n)


class TestPositivePQuadrature:
    def test_vacuum_assembly_constants_exact(self):
        acc = positive_p_acc_from_samples(np.zeros(100), np.zeros(100))
        mv = quadrature_moments_positive_p(acc, QuadratureSpec(0.3))
        assert mv.m2 == pytest.approx(1.0, abs=1e-14)
        assert mv.m4 == pytest.approx(3.0, abs=1e-14)

    def test_coherent_deterministic_mean(self):
        a0 = 1.7
        acc = positive_p_acc_from_samples(np.full(50, a0), np.full(50, a0))
        mv = quadrature_moments_positive_p(acc, QuadratureSpec(0.0))
        assert mv.m1 == pytest.approx(2 * a0, abs=1e-12)

    def test_assembly_matches_dense_operator_computation(self):
        # the {1; 3; 6, 3} promotion must agree with explicit matrix powers
        # on a cutoff Fock space for deterministic coherent ensembles
        from anharmonic.oracle import dense_brute_force

        rng = np.random.default_rng(3)
        for _ in range(5):
            a0 = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            theta = rng.uniform(0, 2 * math.pi)
            acc = positive_p_acc_from_samples(
                np.full(10, a0), np.full(10, np.conj(a0))
            )
            mv = quadrature_moments_positive_p(acc, QuadratureSpec(theta))
            dense = dense_brute_force(a0, 20, 0.0, QuadratureSpec(theta))
            for got, want in zip(mv.as_array(), dense.as_array()):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


class TestCumulants:
    def test_gaussian_moments_have_zero_cumulants(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            mu = rng.normal()
            s = rng.uniform(0.1, 4.0)
            mv = MomentVector(
                mu,
                mu**2 + s,
                mu**3 + 3 * mu * s,
                mu**4 + 6 * mu**2 * s + 3 * s**2,
            )
            rep = cumulants(mv)
            assert rep.kappa3 == pytest.approx(0.0, abs=1e-9 * max(1, abs(mu) ** 3))
            assert rep.kappa4 == pytest.approx(0.0, abs=1e-9 * max(1, abs(mu) ** 4))

    def test_vacuum_moments(self):
        rep = cumulants(MomentVector(0.0, 1.0, 0.0, 3.0))
        assert rep.kappa3 == 0.0
        assert rep.kappa4 == 0.0

    def test_direct_substitution(self):
        rep = cumulants(MomentVector(0.0, 1.0, 2.0, 3.0))
        assert rep.kappa3 == pytest.approx(2.0)
        assert rep.kappa4 == pytest.approx(0.0)

    def test_shift_equivariance(self):
        # k3, k4 from moments of x + c equal those from moments of x
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(500) ** 3  # skewed variable
            c = rng.uniform(-2, 2)
            mom = lambda y: MomentVector(*[np.mean(y**k) for k in range(1, 5)])
            r0 = cumulants(mom(x))
            r1 = cumulants(mom(x + c))
            scale = max(1.0, abs(r0.kappa4))
            assert abs(r0.kappa3 - r1.kappa3) < 1e-9 * scale
            assert abs(r0.kappa4 - r1.kappa4) < 1e-9 * scale


class TestEstimateConsistencyChecks:
    def test_imaginary_residue_raises(self):
        # a systematically complex ensemble mean signals a biased or
        # boundary-corrupted positive-P distribution
        rng = np.random.default_rng(10)
        n = 2000
        a1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a2s = np.conj(a1) + 0.5j  # broken conjugacy in the mean
        acc = positive_p_acc_from_samples(a1, a2s, n_batches=20)
        with pytest.raises(mo.OrderingViolation, match="imaginary residue"):
            quadrature_moments_positive_p(acc, QuadratureSpec(0.0))

    def test_clean_ensemble_passes_residue_check(self):
        rng = np.random.default_rng(11)
        n = 2000
        a1 = 1.0 + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        acc = positive_p_acc_from_samples(a1, np.conj(a1), n_batches=20)
        mv = quadrature_moments_positive_p(acc, QuadratureSpec(0.4))
        assert np.all(np.isfinite(mv.as_array()))

    def test_variance_bound_violation_raises(self):
        # force <X^2> < <X>^2 by writing inconsistent sums directly
        acc = MomentAccumulator(WIGNER, 10)
        for b in range(10):
            row = np.zeros(len(mo.MONOMIALS), dtype=np.complex128)
            row[MONOMIAL_INDEX[(0, 1)]] = 2.0   # <a> = 2 -> <X> = 4
            row[MONOMIAL_INDEX[(1, 0)]] = 2.0
            row[MONOMIAL_INDEX[(1, 1)]] = 0.1   # far too small for |<a>|^2
            acc.add_monomials(b, row, 1)
        with pytest.raises(mo.OrderingViolation, match="moment bound"):
            batch_error(acc, QuadratureSpec(0.0))


class TestBulkMonomials:
    def _paths(self):
        rng = np.random.default_rng(21)
        a = rng.normal(30.0, 3.0, 257) + 1j * rng.normal(-4.0, 3.0, 257)
        abar = a.conj() * (1.0 + 1e-3 * rng.normal(size=257))
        return abar, a

    def test_matches_stacked_reference_bit_for_bit(self):
        abar, a = self._paths()
        assert np.array_equal(bulk_monomials(abar, a), stacked_monomials(abar, a))

    def test_out_buffer_view_equals_fresh_result(self):
        abar, a = self._paths()
        block = np.full((3, len(MONOMIALS), len(a)), np.nan, dtype=np.complex128)
        got = bulk_monomials(abar, a, out=block[1])
        assert np.shares_memory(got, block[1])
        assert np.array_equal(block[1], bulk_monomials(abar, a))
        assert np.isnan(block[0]).all() and np.isnan(block[2]).all()


class TestBatchError:
    def test_identical_batches_zero_sigma(self):
        acc = MomentAccumulator(WIGNER, 10)
        row = bulk_monomials(np.array([2.0 - 1.0j]).conj(), np.array([2.0 - 1.0j]))[:, 0]
        for b in range(10):
            acc.add_monomials(b, row, 1)
        rep = batch_error(acc, QuadratureSpec(0.0))
        assert rep.sigma3 == 0.0
        assert rep.sigma4 == 0.0

    def test_insufficient_batches_rejected(self):
        acc = MomentAccumulator(WIGNER, 5)
        with pytest.raises(InsufficientBatches):
            batch_error(acc, QuadratureSpec(0.0))

    def test_sigma_scales_with_path_count(self):
        # doubling the number of i.i.d. paths shrinks sigma(k3) by ~sqrt(2)
        rng = np.random.default_rng(6)

        def sigma_for(n):
            xs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            acc = wigner_acc_from_samples(xs, n_batches=50)
            return batch_error(acc, QuadratureSpec(0.0)).sigma3

        ratios = [sigma_for(20_000) / sigma_for(40_000) for _ in range(5)]
        assert 1.15 < np.mean(ratios) < 1.75

    def test_report_counts(self):
        acc = MomentAccumulator(WIGNER, 10)
        rng = np.random.default_rng(7)
        xs = rng.standard_normal(100) + 0j
        parts = np.array_split(xs, 10)
        for b, part in enumerate(parts):
            acc.add_monomials(b, bulk_monomials(part.conj(), part).sum(axis=1), len(part), diverged=1)
        rep = batch_error(acc, QuadratureSpec(0.0))
        assert rep.n_paths == 100
        assert rep.n_diverged == 10


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            mo.CsvRow(0.0, 0.0, 1.25e-3, 4e-5, -2.0, 0.125, 1000, 0, "tw"),
            mo.CsvRow(0.5, 1.0, -1.0 / 3.0, 2e-2, 0.77, 3e-2, 1000, 2, "positive_p"),
        ]
        path = tmp_path / "out.csv"
        mo.write_rows(path, rows)
        assert mo.read_rows(path) == rows

    def test_header_bit_exact(self, tmp_path):
        path = tmp_path / "out.csv"
        mo.write_rows(path, [])
        assert path.read_text().splitlines()[0] == (
            "tau,theta,k3,k3_sigma,k4,k4_sigma,n_paths,n_diverged,method"
        )

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ValueError):
            mo.read_rows(path)
