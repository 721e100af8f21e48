import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from anharmonic import moments as mo
from anharmonic.moments import (
    N_POWERS,
    POSITIVE_P,
    WIGNER,
    InsufficientBatches,
    MomentAccumulator,
    batch_error,
    bulk_monomials,
    k3_k4,
    promote_normal_order,
)
from anharmonic.engine import (
    TimeGrid,
    exact_wigner_flow,
    positive_p_flow,
    positive_p_pairs,
    run_positive_p,
    run_truncated_wigner,
)
from anharmonic.sampling import stream_for_trajectory
from helpers import (
    dense_brute_force,
    fill_batches,
    grid_at,
    leave_one_out_report,
    leave_one_out_reports,
    pair_quadrature,
    quadrature_rounding_bound,
    stacked_powers,
    wigner_quadrature,
)


def acc_from_samples(representation, a, abar=None, theta=0.0, n_batches=10):
    """Accumulator over consecutive batches of paths with amplitudes (a, abar)
    (abar None for Wigner amplitudes), through their quadratures at phase
    theta as the flows yield them."""
    amps = np.array_split(np.asarray(a), n_batches)
    if abar is None:
        xs = [wigner_quadrature(am, theta) for am in amps]
    else:
        xs = [pair_quadrature(theta, am, ab) for am, ab in zip(amps, np.array_split(abar, n_batches))]
    return fill_batches(
        MomentAccumulator(representation, 1, n_batches),
        [bulk_monomials(0.0, x).sum(axis=1) for x in xs],
        [len(am) for am in amps],
    )


def wigner_acc_from_samples(samples, theta=0.0, n_batches=10):
    return acc_from_samples(WIGNER, samples, theta=theta, n_batches=n_batches)


def positive_p_acc_from_samples(a1, a2s, theta=0.0, n_batches=10):
    return acc_from_samples(POSITIVE_P, a1, a2s, theta, n_batches)


def true_moments(acc):
    """Pooled <X^k> (k = 1..4) of output 0 through the assembly batch_error runs."""
    pooled = acc.batch_sums[0].sum(axis=0) / acc.batch_counts.sum()
    if acc.representation == POSITIVE_P:
        pooled = promote_normal_order(*pooled)
    return np.real(np.array(pooled))


class TestAccumulate:
    """One path's powers from bulk_monomials, added into batch_sums."""

    def test_single_wigner_path(self):
        # x = 2 Re(a) = 4 at theta = 0
        a = np.array([2.0 + 0.5j])
        acc = fill_batches(MomentAccumulator(WIGNER, 1, 2), bulk_monomials(0.0, wigner_quadrature(a)).T, [1])
        assert acc.batch_sums[0, 0] == pytest.approx([4.0, 16.0, 64.0, 256.0])
        assert acc.batch_counts[0] == 1
        assert not acc.batch_sums[0, 1].any()

    def test_positive_p_monomial_definition(self):
        # x = e^{-i theta} a + e^{i theta} abar, with abar independent of a
        a, abar, theta = 2.0 + 1.0j, 3.0 - 0.5j, 0.7
        acc = fill_batches(
            MomentAccumulator(POSITIVE_P, 1, 1), bulk_monomials(0.0, pair_quadrature(theta, [a], [abar])).T, [1]
        )
        x = cmath.exp(-1j * theta) * a + cmath.exp(1j * theta) * abar
        assert acc.batch_sums[0, 0] == pytest.approx([x, x**2, x**3, x**4])


class TestWignerQuadrature:
    def test_vacuum_second_and_fourth_moments(self):
        rng = np.random.default_rng(1)
        n = 200_000
        zeta = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        acc = wigner_acc_from_samples(zeta, 0.7)
        m1, m2, m3, m4 = true_moments(acc)
        # quadrature of the vacuum: variance 1, Gaussian fourth moment 3
        assert abs(m2 - 1.0) < 4 * math.sqrt(2.0 / n)
        assert abs(m4 - 3.0) < 4 * math.sqrt(96.0 / n)

    def test_coherent_mean_is_twice_amplitude(self):
        rng = np.random.default_rng(2)
        n = 200_000
        a0 = 3.0
        samples = a0 + 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        acc = wigner_acc_from_samples(samples)
        assert abs(true_moments(acc)[0] - 2 * a0) < 4 / math.sqrt(n)


class TestPositivePQuadrature:
    def test_vacuum_assembly_constants_exact(self):
        acc = positive_p_acc_from_samples(np.zeros(100), np.zeros(100), 0.3)
        m1, m2, m3, m4 = true_moments(acc)
        assert m2 == pytest.approx(1.0, abs=1e-14)
        assert m4 == pytest.approx(3.0, abs=1e-14)

    def test_coherent_deterministic_mean(self):
        a0 = 1.7
        acc = positive_p_acc_from_samples(np.full(50, a0), np.full(50, a0))
        assert true_moments(acc)[0] == pytest.approx(2 * a0, abs=1e-12)

    def test_assembly_matches_dense_operator_computation(self):
        # the {1; 3; 6, 3} promotion must agree with explicit matrix powers
        # on a cutoff Fock space for deterministic coherent ensembles
        rng = np.random.default_rng(3)
        for _ in range(5):
            a0 = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            theta = rng.uniform(0, 2 * math.pi)
            acc = positive_p_acc_from_samples(np.full(10, a0), np.full(10, np.conj(a0)), theta)
            dense = dense_brute_force(a0, 20, 0.0, theta)
            for got, want in zip(true_moments(acc), dense):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


class TestCumulants:
    """k3_k4, the cumulant formula of batch_error and the oracle."""

    def test_gaussian_moments_have_zero_cumulants(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            mu = rng.normal()
            s = rng.uniform(0.1, 4.0)
            k3, k4 = k3_k4(
                mu,
                mu**2 + s,
                mu**3 + 3 * mu * s,
                mu**4 + 6 * mu**2 * s + 3 * s**2,
            )
            assert k3 == pytest.approx(0.0, abs=1e-9 * max(1, abs(mu) ** 3))
            assert k4 == pytest.approx(0.0, abs=1e-9 * max(1, abs(mu) ** 4))

    def test_vacuum_moments(self):
        assert k3_k4(0.0, 1.0, 0.0, 3.0) == (0.0, 0.0)

    def test_direct_substitution(self):
        k3, k4 = k3_k4(0.0, 1.0, 2.0, 3.0)
        assert k3 == pytest.approx(2.0)
        assert k4 == pytest.approx(0.0)

    def test_float_arrays_agree_with_the_exact_integer_evaluation(self):
        # moments as float arrays, and the same values as Python integers at
        # scale 2^(k L), L = 1074, where every float64 is a whole number: the
        # integers give the cumulants exactly, and each float cumulant lies
        # within 8 eps of the sum of its terms' magnitudes of them
        rng = np.random.default_rng(7)
        m1 = rng.normal(0.0, 30.0, 500)
        m2 = m1 * m1 + rng.uniform(0.1, 10.0, 500)
        m3 = m1 * m2 + rng.normal(0.0, 100.0, 500)
        m4 = m2 * m2 + rng.uniform(0.0, 1e4, 500)
        k3, k4 = k3_k4(m1, m2, m3, m4)
        eps, scale = np.finfo(np.float64).eps, 1074
        for i in range(500):
            exact = k3_k4(*(int(Fraction(float(m[i])) * 2 ** (k * scale))
                            for k, m in enumerate((m1, m2, m3, m4), start=1)))
            size3 = abs(m3[i]) + 3 * abs(m1[i] * m2[i]) + 2 * abs(m1[i]) ** 3
            size4 = abs(m4[i]) + 2 * m1[i] ** 4 + 3 * m2[i] ** 2 + 4 * abs(m1[i]) * size3
            for got, want, k, size in ((k3[i], exact[0], 3, size3), (k4[i], exact[1], 4, size4)):
                assert isinstance(want, int)
                assert abs(Fraction(float(got)) - Fraction(want, 2 ** (k * scale))) <= 8 * eps * size, i

    def test_shift_equivariance(self):
        # k3, k4 from moments of x + c equal those from moments of x
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(500) ** 3  # skewed variable
            c = rng.uniform(-2, 2)
            cumulants = lambda y: k3_k4(*[np.mean(y**k) for k in range(1, 5)])
            r0 = cumulants(x)
            r1 = cumulants(x + c)
            scale = max(1.0, abs(r0[1]))
            assert abs(r0[0] - r1[0]) < 1e-9 * scale
            assert abs(r0[1] - r1[1]) < 1e-9 * scale


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
            batch_error(acc)

    def test_clean_ensemble_passes_residue_check(self):
        rng = np.random.default_rng(11)
        n = 2000
        a1 = 1.0 + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        acc = positive_p_acc_from_samples(a1, np.conj(a1), 0.4, n_batches=20)
        assert np.isfinite(batch_error(acc)).all()

    def test_variance_bound_violation_raises(self):
        # force <X^2> < <X>^2 by writing inconsistent sums directly
        row = np.array([4.0, 0.2, 0.0, 0.0])  # <X> = 4, <X^2> far too small for <X>^2
        acc = fill_batches(MomentAccumulator(WIGNER, 1, 10), row, [1] * 10)
        with pytest.raises(mo.OrderingViolation, match="moment bound"):
            batch_error(acc)

    @pytest.mark.parametrize("representation", [WIGNER, POSITIVE_P])
    @pytest.mark.parametrize("power", range(N_POWERS))
    def test_nan_sum_raises(self, representation, power):
        # a NaN fails every comparison, so each check must be written to
        # fail on it too: one NaN power sum in one batch makes the run fail
        rng = np.random.default_rng(12)
        a1 = 1.0 + 0.1 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        a2s = np.conj(a1) if representation == POSITIVE_P else None
        acc = acc_from_samples(representation, a1, a2s, n_batches=10)
        batch_error(acc)
        acc.batch_sums[0, 3, power] = np.nan
        with pytest.raises(mo.OrderingViolation, match="nan"):
            batch_error(acc)


class TestBulkMonomials:
    def _paths(self):
        rng = np.random.default_rng(21)
        a = rng.normal(30.0, 3.0, 257) + 1j * rng.normal(-4.0, 3.0, 257)
        abar = a.conj() * (1.0 + 1e-3 * rng.normal(size=257))
        return abar, a

    def test_matches_stacked_reference_bit_for_bit(self):
        # the positive-P flow's quadrature is the pair formula on its own
        # pairs, and its powers are the stacked ones, bit for bit, at phases
        # on both sides of zero and past a turn
        n = 1e3
        grid = TimeGrid(n, (0.0, 0.25, 0.5, 0.75), (0.0, 0.3, 2.0, -7.5), 1e-3)
        flow = positive_p_flow(math.sqrt(n), grid, stream_for_trajectory(21, 0), 257)
        pairs = positive_p_pairs(math.sqrt(n), grid, stream_for_trajectory(21, 0), 257)
        for theta, centre, x, (a, abar) in zip(grid.thetas, (0.0, 20.0, -3.5, 0.0), flow, pairs,
                                              strict=True):
            assert np.array_equal(x, pair_quadrature(theta, a, abar))
            assert np.array_equal(bulk_monomials(centre, x), stacked_powers(theta, a, abar, centre))

    def test_wigner_branch_matches_cartesian_reference(self):
        # N = 1e6 at tau = 10: the flow turns each amplitude by omega t of
        # about 20 rad and theta = 2 tau adds 20 more; the Cartesian
        # reference rotates the amplitude by exp(-i omega t) and projects it
        # on exp(-i theta), the kernel takes the flow's phasor at its second
        # output, one rotation product past the anchor at t / 2 and theta / 2
        n, tau = 1e6, 10.0
        rng = np.random.default_rng(22)
        init = math.sqrt(n) + 0.5 * (rng.normal(size=257) + 1j * rng.normal(size=257))
        omega = 2.0 * (init.real**2 + init.imag**2) - 1.0
        cartesian = init * np.exp(-1j * omega * (tau / n))
        for theta in (0.0, 0.3, -7.5, 2.0 * tau):
            _, z = exact_wigner_flow(init, [tau / n / 2, tau / n], [theta / 2, theta])
            got = bulk_monomials(0.0, z.real)
            assert got.dtype == np.float64
            bound = quadrature_rounding_bound(np.abs(omega * (tau / n)) + abs(theta) + 1, np.abs(z))
            assert np.all(np.abs(got - stacked_powers(theta, cartesian)) <= bound)
        assert np.abs(omega * (tau / n)).max() + 2.0 * tau > 39.0

    def test_out_buffer_view_equals_fresh_result(self):
        abar, a = self._paths()
        block = np.full((3, N_POWERS, len(a)), np.nan, dtype=np.complex128)
        x = pair_quadrature(0.4, a, abar)
        got = bulk_monomials(1.5, x, out=block[1])
        assert np.shares_memory(got, block[1])
        assert np.array_equal(block[1], bulk_monomials(1.5, x))
        assert np.isnan(block[0]).all() and np.isnan(block[2]).all()


class TestBatchError:
    def test_identical_batches_zero_sigma(self):
        row = bulk_monomials(0.0, wigner_quadrature([2.0 - 1.0j]))[:, 0]
        acc = fill_batches(MomentAccumulator(WIGNER, 1, 10), row, [1] * 10)
        _, sigma3, _, sigma4 = batch_error(acc)
        assert sigma3[0] == 0.0
        assert sigma4[0] == 0.0

    def test_insufficient_batches_rejected(self):
        acc = MomentAccumulator(WIGNER, 1, 5)
        with pytest.raises(InsufficientBatches):
            batch_error(acc)

    def test_sigma_scales_with_path_count(self):
        # doubling the number of i.i.d. paths shrinks sigma(k3) by ~sqrt(2)
        rng = np.random.default_rng(6)

        def sigma_for(n):
            xs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            acc = wigner_acc_from_samples(xs, n_batches=50)
            return batch_error(acc)[1][0]

        ratios = [sigma_for(20_000) / sigma_for(40_000) for _ in range(5)]
        assert 1.15 < np.mean(ratios) < 1.75

    def test_report_counts(self):
        rng = np.random.default_rng(7)
        xs = rng.standard_normal(100) + 0j
        acc = acc_from_samples(WIGNER, xs)
        assert acc.n_paths == 100 and list(acc.batch_counts) == [10] * 10


class TestOnePassEstimator:
    """batch_error over a whole run against the per-output, batch-by-batch
    leave-one-out reference estimator."""

    N = 1000.0

    TW_GRID = grid_at(N, (0.0, 0.5, 1.25, 3.0, 7.5), 1e-3)
    PP_GRID = grid_at(N, (0.0, 0.01, 0.03), 1e-3)

    @staticmethod
    def assert_matches_reference(acc):
        # the reference pools the sums in another order, so the two agree
        # to rounding, not bit for bit
        got = np.array(batch_error(acc))
        want = np.array(leave_one_out_reports(acc))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-15)

    def tw_run(self):
        grid = self.TW_GRID
        return run_truncated_wigner(math.sqrt(self.N), grid, 6000, 40, seed=3)

    def pp_run(self):
        grid = self.PP_GRID
        return run_positive_p(math.sqrt(self.N), grid, 3000, 30, seed=3)

    def test_truncated_wigner_run(self):
        self.assert_matches_reference(self.tw_run())

    def test_positive_p_run(self):
        self.assert_matches_reference(self.pp_run())

    @pytest.mark.parametrize("run", ["tw_run", "pp_run"])
    def test_batch_that_lost_every_path(self, run):
        # a batch in the middle of the batch axis holds no path, as a
        # caller's accumulator may (a run keeps every path): batch_error
        # takes every batch as it is, as the reference does, and leaving
        # the empty batch out gives the pooled estimate itself
        acc = getattr(self, run)()
        total = acc.n_paths - acc.batch_counts[7]
        acc.batch_counts[7] = 0
        acc.batch_sums[:, 7] = 0.0
        self.assert_matches_reference(acc)
        assert acc.n_paths == total

    @staticmethod
    def stacked(outputs, bound_broken=()):
        """Positive-P accumulator whose output k holds the batches of outputs[k].

        Each output is (a1, a2*) samples; the outputs in ``bound_broken`` get
        their x^2 sums scaled down so that <X^2> < <X>^2.
        """
        accs = [positive_p_acc_from_samples(a1, a2s, n_batches=20) for a1, a2s in outputs]
        acc = MomentAccumulator(POSITIVE_P, len(outputs), 20)
        fill_batches(acc, np.stack([x.batch_sums[0] for x in accs]), accs[0].batch_counts)
        for k in bound_broken:
            acc.batch_sums[k, :, 1] *= 0.01
        return acc

    @pytest.mark.parametrize(
        "residue_at, bound_broken, first",
        [
            (2, (1, 2), "moment bound"),
            (1, (2,), "imaginary residue"),
            (1, (1, 2), "imaginary residue"),
        ],
        ids=["bound-before-residue", "residue-before-bound", "residue-first-within-output"],
    )
    def test_earliest_failing_output_raises(self, residue_at, bound_broken, first):
        rng = np.random.default_rng(12)
        outputs = []
        for k in range(3):
            a1 = 1.0 + 0.1 * (rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
            outputs.append((a1, np.conj(a1) + (0.5j if k == residue_at else 0.0)))
        acc = self.stacked(outputs, bound_broken)
        with pytest.raises(mo.OrderingViolation) as got:
            batch_error(acc)
        with pytest.raises(mo.OrderingViolation) as want:
            leave_one_out_reports(acc)
        with pytest.raises(mo.OrderingViolation) as at_output_1:
            leave_one_out_report(acc, 1)
        assert str(got.value) == str(want.value) == str(at_output_1.value)
        assert str(got.value).startswith(first)
        # output 2 fails too, with a different message
        with pytest.raises(mo.OrderingViolation) as at_output_2:
            leave_one_out_report(acc, 2)
        assert str(at_output_2.value) != str(got.value)


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

    def test_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        mo.write_rows(path, [mo.CsvRow(0.5, 1.0, -1.0 / 3.0, 2e-2, 1, 0.0, 1000, 2, "tw")])
        assert path.read_bytes() == (
            b"tau,theta,k3,k3_sigma,k4,k4_sigma,n_paths,n_diverged,method\n"
            b"0.5,1,-0.33333333333333331,0.02,1,0,1000,2,tw\n"
        )

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(mo.CSV_HEADER + "\n0,0,0,0,0,0,1,0\n")
        with pytest.raises(ValueError, match="malformed row"):
            mo.read_rows(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ValueError):
            mo.read_rows(path)
