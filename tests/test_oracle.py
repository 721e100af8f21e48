import math
import sys
import tracemalloc

import numpy as np
import pytest

from anharmonic import engine, oracle
from anharmonic.moments import QuadratureSpec, k3_k4
from anharmonic.oracle import (
    WindowOverflow,
    cumulant_series,
    evolve,
    init_coherent,
    ladder_moment,
    oracle_cumulants,
)
from helpers import (
    CutoffInsufficient,
    DenseOperatorSpace,
    coherent_vector,
    dense_brute_force,
    oracle_raw_moments,
    reference_evolved_amplitudes,
    reference_oracle_cumulants,
)


def coherent_quadrature_moments(alpha0, theta):
    """Closed-form <X^k> of a coherent state (Gaussian, unit variance)."""
    mu = 2.0 * (np.exp(-1j * theta) * alpha0).real
    return (mu, mu**2 + 1, mu**3 + 3 * mu, mu**4 + 6 * mu**2 + 3)


class TestInitCoherent:
    def test_window_halfwidth_at_thousand(self):
        # 8 sigma = 8 sqrt(1000) ~ 253 indices already captures 1e-12 of the
        # mass, but fourth-moment edge fidelity forces one doubling to 506
        state = init_coherent(math.sqrt(1000.0), 1e-12)
        assert (state.n_max - state.n_min) // 2 == 506

    def test_window_mass_close_to_one(self):
        state = init_coherent(math.sqrt(1000.0), 1e-12)
        assert abs(state.raw_mass - 1.0) < 1e-12

    def test_poisson_mean(self):
        for n_target in (4.0, 1000.0):
            state = init_coherent(math.sqrt(n_target))
            mean = sum(
                n * abs(c) ** 2 for n, c in zip(state.indices, state.amplitudes)
            )
            assert abs(mean - n_target) < 1e-9 * n_target

    def test_vacuum_rejected(self):
        with pytest.raises(ValueError):
            init_coherent(0.0)

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            init_coherent(2.0, mass_tolerance=1e-3)

    def test_window_budget(self):
        with pytest.raises(WindowOverflow):
            init_coherent(math.sqrt(1e6), max_window=100)

    def test_complex_amplitude_phases(self):
        a0 = 2.0 * np.exp(0.7j)
        state = init_coherent(a0)
        got = ladder_moment(state, 0, 1)
        assert abs(got - a0) < 1e-12 * abs(a0)


class TestEvolve:
    def test_time_zero_is_identity(self):
        state = init_coherent(2.0)
        evolved = evolve(state, 0.0)
        assert np.array_equal(evolved.amplitudes, state.amplitudes)

    def test_norm_preserved(self):
        state = init_coherent(math.sqrt(1000.0))
        for t in (1e-3, 0.37, 2.0):
            assert abs(evolve(state, t).norm_squared - state.norm_squared) < 1e-14

    def test_full_revival_at_two_pi(self):
        # integer spectrum: all moments return after t = 2 pi
        state = init_coherent(math.sqrt(10.0))
        a = evolve(state, 0.4)
        b = evolve(state, 0.4 + 2 * math.pi)
        for p, q in ((0, 1), (1, 1), (2, 2), (0, 3)):
            assert abs(ladder_moment(a, p, q) - ladder_moment(b, p, q)) < 1e-12 * (
                1 + abs(ladder_moment(a, p, q))
            )


def closed_form_cumulants(mpmath, n, tau, theta):
    """Exact (k3, k4) of H = (a^dag a)^2 from the coherent start sqrt(n).

    Uses <a^dag^p a^q>_t = n^((p+q)/2) exp(-i (q^2 - p^2) t)
    exp(n (exp(-2i (q - p) t) - 1)) at t = tau / n, in 60-digit arithmetic.
    """
    with mpmath.workdps(60):
        n = mpmath.mpf(n)
        t = mpmath.mpf(tau) / n

        def ladder(p, q):
            return (
                n ** (mpmath.mpf(p + q) / 2)
                * mpmath.expj(-(q * q - p * p) * t)
                * mpmath.exp(n * mpmath.expm1(mpmath.mpc(0, -2 * (q - p)) * t))
            )

        raw = [
            mpmath.re(
                sum(
                    math.comb(k, j) * mpmath.expj(mpmath.mpf(theta) * (k - 2 * j)) * ladder(k - j, j)
                    for j in range(k + 1)
                )
            )
            for k in range(1, 5)
        ]
        m1, m2, m3, m4 = raw[0], raw[1] + 1, raw[2] + 3 * raw[0], raw[3] + 6 * raw[1] + 3
        k3 = m3 - 3 * m1 * m2 + 2 * m1**3
        k4 = m4 + 2 * m1**4 - 3 * m2**2 - 4 * m1 * k3
        return float(k3), float(k4)


class TestPhasePrecisionAtLargeN:
    def test_cumulants_match_closed_form_at_ten_million(self):
        # with n^2 t rounded in double precision, k4 at tau = 2.5 misses by 5e-3
        mpmath = pytest.importorskip("mpmath")
        n = 1e7
        state0 = init_coherent(math.sqrt(n))
        for tau in (0.5, 2.5, 6.0, 9.4, 10.0):
            rep = oracle_cumulants(evolve(state0, tau / n), QuadratureSpec(2.0 * tau))
            k3, k4 = closed_form_cumulants(mpmath, n, tau, 2.0 * tau)
            assert abs(rep.kappa3 - k3) <= 1e-6 * max(1.0, abs(k3)), (tau, rep.kappa3, k3)
            assert abs(rep.kappa4 - k4) <= 1e-6 * max(1.0, abs(k4)), (tau, rep.kappa4, k4)


class TestWorkspaceReuse:
    """The shared workspace leaves every output bit as the fresh-array formulas give it."""

    @staticmethod
    def times(n):
        # scaled times in [0, 10], then absolute times past 2 pi (fmod applies)
        return [tau / n for tau in (0.0, 0.7, 2.5, 9.4)] + [1.3 * 2 * math.pi, 3.7 * 2 * math.pi + 0.1]

    @pytest.mark.parametrize(
        "alpha0",
        [math.sqrt(n) for n in (0.3, 1.5, 6.0, 258.0, 1e3, 1e7)] + [2.0 + 0.5j],
        ids=["N=0.3", "N=1.5", "N=6", "N=258", "N=1e3", "N=1e7", "alpha0=2+0.5j"],
    )
    def test_bit_identical_to_fresh_arrays(self, alpha0):
        state0 = init_coherent(alpha0)
        n = state0.n_particles
        for t in self.times(n):
            state = evolve(state0, t)
            assert np.array_equal(state.amplitudes, reference_evolved_amplitudes(state0, t))
            for theta in (2.0 * n * t, 0.6):
                spec = QuadratureSpec(theta)
                got = oracle_cumulants(state, spec)
                want = reference_oracle_cumulants(state, spec)
                assert (got.kappa3, got.kappa4) == (want.kappa3, want.kappa4), (t, theta)

    def test_small_n_windows_start_below_two(self):
        # the N values above then also cover the zero padding below the window,
        # which shrinks to n_min rows when n_min < 2
        assert [init_coherent(math.sqrt(n)).n_min for n in (0.3, 1.5, 6.0, 258.0)] == [0, 0, 0, 1]

    def test_evolved_states_do_not_alias(self):
        alpha0 = 2.0 + 0.5j
        spec = QuadratureSpec(0.9)
        state0 = init_coherent(alpha0)
        first = evolve(state0, 0.3)
        second = evolve(state0, 1.1)
        oracle_cumulants(second, spec)
        fresh = evolve(init_coherent(alpha0), 0.3)
        assert np.array_equal(first.amplitudes, fresh.amplitudes)
        got, want = oracle_cumulants(first, spec), oracle_cumulants(fresh, spec)
        assert (got.kappa3, got.kappa4) == (want.kappa3, want.kappa4)

    def test_output_loop_memory_is_bounded(self):
        # per output time only evolve's returned amplitudes are window-sized
        state0 = init_coherent(math.sqrt(1e6))
        window = state0.n_max - state0.n_min + 1
        tracemalloc.start()
        try:
            for tau in np.linspace(0.0, 10.0, 20):
                state = evolve(state0, tau / 1e6)
                oracle_cumulants(state, QuadratureSpec(2.0 * tau))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 16 * window, peak / (16 * window)

    @pytest.mark.parametrize(
        "block_minus_roots",
        [7, 0, -7, -965],
        ids=["window-shorter-than-block", "window-one-block", "two-blocks", "many-blocks"],
    )
    def test_blocked_quadrature_bit_identical(self, monkeypatch, block_minus_roots):
        # block sizes around the length of the ladder products, sqrt(n) for
        # the padded window's rows after the first (1016 at N = 1e3)
        alpha0 = math.sqrt(1e3)
        roots = init_coherent(alpha0)._work.roots.shape[0]
        monkeypatch.setattr(oracle, "_BLOCK", roots + block_minus_roots)
        state0 = init_coherent(alpha0)
        scratch = oracle._Scratch(state0._work)
        assert scratch.tmp.shape[0] == min(roots, roots + block_minus_roots)
        for t in self.times(1e3):
            for theta in (2e3 * t, 0.6):
                spec = QuadratureSpec(theta)
                want = reference_oracle_cumulants(evolve(state0, t), spec)
                for got in (
                    oracle_cumulants(evolve(state0, t), spec),
                    oracle_cumulants(evolve(state0, t, scratch), spec),
                ):
                    assert (got.kappa3, got.kappa4) == (want.kappa3, want.kappa4), (t, theta)

    def test_evolve_into_scratch_matches_fresh_arrays(self):
        state0 = init_coherent(2.0 + 0.5j)
        scratch = oracle._Scratch(state0._work)
        for t in self.times(state0.n_particles):
            state = evolve(state0, t, scratch)
            assert np.shares_memory(state.amplitudes, scratch.v)
            assert np.array_equal(state.amplitudes, reference_evolved_amplitudes(state0, t))

    def test_series_holds_one_scratch_per_worker(self, monkeypatch):
        # 8 threads asked for on 2 CPUs: two workers.  The first works in the
        # workspace's scratch, so the run adds one scratch (v, w1 and a
        # block); a third worker would add as much again.
        monkeypatch.setattr(engine, "_available_cpus", lambda: 2)
        n = 1e6
        state0 = init_coherent(math.sqrt(n))
        padded = state0._work.roots.shape[0] + 1
        scratch_bytes = 16 * (2 * padded + min(oracle._BLOCK, padded - 1))
        taus = np.linspace(0.0, 10.0, 20)
        times = [tau / n for tau in taus]
        specs = [QuadratureSpec(2.0 * tau) for tau in taus]
        tracemalloc.start()
        try:
            reports = cumulant_series(state0, times, specs, threads=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * scratch_bytes, peak / scratch_bytes
        for t, spec, got in zip(times, specs, reports):
            want = oracle_cumulants(evolve(state0, t), spec)
            assert (got.kappa3, got.kappa4) == (want.kappa3, want.kappa4), t

    def test_series_with_more_workers_than_cores(self, monkeypatch):
        # 8 workers with a short switch interval: every output still equals
        # a lone oracle_cumulants call on a fresh evolve
        monkeypatch.setattr(engine, "_available_cpus", lambda: 8)
        state0 = init_coherent(math.sqrt(1e3))
        taus = np.linspace(0.0, 10.0, 41)
        times = [tau / 1e3 for tau in taus]
        specs = [QuadratureSpec(2.0 * tau) for tau in taus]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = cumulant_series(state0, times, specs, threads=8)
        finally:
            sys.setswitchinterval(interval)
        for t, spec, got in zip(times, specs, reports):
            want = oracle_cumulants(evolve(state0, t), spec)
            assert (got.kappa3, got.kappa4) == (want.kappa3, want.kappa4), t

    def test_series_rejects_spec_count_mismatch(self):
        state0 = init_coherent(2.0)
        with pytest.raises(ValueError, match="2 times but 1 quadrature specs"):
            cumulant_series(state0, [0.1, 0.2], [QuadratureSpec(0.0)])


class TestLadderMoments:
    def test_number_moment(self):
        n_target = 1000.0
        state = init_coherent(math.sqrt(n_target))
        assert abs(ladder_moment(state, 1, 1) - n_target) < 1e-9 * n_target

    def test_amplitude_moment(self):
        a0 = math.sqrt(1000.0)
        state = init_coherent(a0)
        assert abs(ladder_moment(state, 0, 1) - a0) < 1e-12 * a0

    def test_hermitian_pairing(self):
        state = evolve(init_coherent(2.0 + 0.5j), 0.3)
        for p in range(3):
            for q in range(3):
                a = ladder_moment(state, p, q)
                b = ladder_moment(state, q, p)
                assert abs(a - np.conj(b)) < 1e-12 * (1 + abs(a))

    def test_order_cap(self):
        state = init_coherent(1.0)
        with pytest.raises(ValueError):
            ladder_moment(state, 3, 2)

    def test_windowed_matches_dense_across_times(self):
        # same evolution law checked through an independent dense route
        a0 = 2.0  # N = 4
        state0 = init_coherent(a0)
        for tau in (0.1, 0.5, 1.0):
            t = tau / 4.0
            state = evolve(state0, t)
            got = ladder_moment(state, 0, 1)
            psi = coherent_vector(a0, 60)
            nn = np.arange(60)
            psi_t = psi * np.exp(-1j * nn.astype(float) ** 2 * t)
            space = DenseOperatorSpace.build(60)
            want = np.vdot(psi_t, space.a @ psi_t)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


class TestQuadratureMomentsAndCumulants:
    def test_moments_match_dense_at_small_n(self):
        a0 = 2.0
        state0 = init_coherent(a0)
        for tau in (0.1, 0.5, 1.0):
            for theta in (0.0, 2 * tau, 1.1):
                state = evolve(state0, tau / 4.0)
                mv = oracle_raw_moments(state, QuadratureSpec(theta))
                dense = dense_brute_force(a0, 60, tau / 4.0, QuadratureSpec(theta))
                for got, want in zip(mv, dense):
                    assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("n_target", [4.0, 1e3, 1e6])
    def test_coherent_cumulants_vanish(self, n_target):
        state = init_coherent(math.sqrt(n_target))
        for theta in (0.0, 0.9, 2.2):
            rep = oracle_cumulants(state, QuadratureSpec(theta))
            assert abs(rep.kappa3) < 1e-8
            assert abs(rep.kappa4) < 1e-8

    def test_cumulants_match_dense_at_small_n(self):
        a0 = 2.0
        state = evolve(init_coherent(a0), 0.5 / 4.0)
        spec = QuadratureSpec(1.0)
        rep = oracle_cumulants(state, spec)
        k3, k4 = k3_k4(*dense_brute_force(a0, 60, 0.5 / 4.0, spec))
        assert abs(rep.kappa3 - k3) < 1e-10 * max(1.0, abs(k3))
        assert abs(rep.kappa4 - k4) < 1e-10 * max(1.0, abs(k4))

    def test_centred_route_matches_raw_assembly_when_well_conditioned(self):
        state = evolve(init_coherent(math.sqrt(6.0)), 0.21)
        spec = QuadratureSpec(0.8)
        rep = oracle_cumulants(state, spec)
        k3, k4 = k3_k4(*oracle_raw_moments(state, spec))
        assert abs(rep.kappa3 - k3) < 1e-9 * max(1.0, abs(k3))
        assert abs(rep.kappa4 - k4) < 1e-9 * max(1.0, abs(k4))


class TestDenseBruteForce:
    def test_vacuum_quadrature_variance(self):
        m1, m2, _, _ = dense_brute_force(0.0, 20, 0.0, QuadratureSpec(0.4))
        assert m2 == pytest.approx(1.0, abs=1e-13)
        assert m1 == pytest.approx(0.0, abs=1e-13)

    def test_coherent_closed_forms(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a0 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            theta = rng.uniform(0, 2 * math.pi)
            mv = dense_brute_force(a0, 40, 0.0, QuadratureSpec(theta))
            for got, want in zip(mv, coherent_quadrature_moments(a0, theta)):
                assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_cutoff_guard(self):
        # N = 4 passes the precondition at cutoff 12 but loses > 1e-10 norm
        with pytest.raises(CutoffInsufficient):
            dense_brute_force(2.0, 12, 0.0, QuadratureSpec(0.0))

    def test_precondition_guards(self):
        with pytest.raises(ValueError):
            dense_brute_force(1.0, 300, 0.0, QuadratureSpec(0.0))
        with pytest.raises(ValueError):
            dense_brute_force(10.0, 60, 0.0, QuadratureSpec(0.0))
