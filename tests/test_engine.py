import cmath
import math
import tracemalloc

import numpy as np
import pytest

from anharmonic import engine
from anharmonic import symbolic as sy
from anharmonic.engine import (
    ExcessiveDivergence,
    MidpointStep,
    TimeGrid,
    exact_wigner_flow,
    run_positive_p,
    run_truncated_wigner,
)
from anharmonic.moments import MONOMIAL_INDEX, MONOMIALS, QuadratureSpec, batch_error, bulk_monomials
from anharmonic.sampling import RandomStream, stream_for_trajectory
from helpers import (
    ConvergedMidpointStep,
    chunk_signs,
    chunk_stream_wigner_initial,
    frozen_brownian_paths,
    full_block_kernel,
    midpoint_path,
    per_slice_batch_sums,
    scalar_midpoint_path,
    stacked_monomials,
)


def positive_p_model(hamiltonian):
    return sy.ito_to_stratonovich(sy.derive_positive_p_model(hamiltonian))


def kerr_positive_p_model():
    return positive_p_model(sy.kerr_hamiltonian())


def exact_at(a0, t):
    """Exact truncated-Wigner flow of one amplitude at one time."""
    return next(exact_wigner_flow(np.array([complex(a0)]), [t]))[0]


def exact_positive_p_at(a0, t):
    """Noise-free positive-P Kerr flow from (a0, conj(a0)): alpha1 exp(-2i n t), n = |a0|^2."""
    return a0 * np.exp(-2j * abs(a0) ** 2 * t)


def noise_free_path(model, a0, dt, n_steps):
    """alpha1 after n_steps kernel steps from (a0, conj(a0)) with zero increments."""
    return midpoint_path(model, [[a0], [np.conj(a0)]], dt, n_steps)[0, 0]


def batch_mean(acc, k, p, q):
    """Pooled mean of abar^p a^q at output k."""
    return acc.batch_sums[k, :, MONOMIAL_INDEX[(p, q)]].sum() / acc.batch_counts.sum()


def stacked_bulk_monomials(abar, a, out):
    out[...] = stacked_monomials(abar, a)
    return out


def use_reference_kernels(monkeypatch):
    """A directly built chunk Philox and stacked monomials, in place of the block kernels."""
    monkeypatch.setattr(engine, "wigner_initial", chunk_stream_wigner_initial)
    monkeypatch.setattr(engine, "bulk_monomials", stacked_bulk_monomials)


def assert_same_accumulators(got, want):
    assert got.batch_sums.shape == want.batch_sums.shape
    assert np.array_equal(got.batch_sums, want.batch_sums)
    assert np.array_equal(got.batch_counts, want.batch_counts)
    assert np.array_equal(got.batch_diverged, want.batch_diverged)


def batch_sigma(acc, k, p, q):
    """Batch standard error of the mean of abar^p a^q at output k."""
    vals = np.real(acc.batch_sums[k, :, MONOMIAL_INDEX[(p, q)]] / acc.batch_counts)
    return vals.std(ddof=1) / math.sqrt(len(vals))


class TestTimeGrid:
    def test_steps_and_dt(self):
        grid = TimeGrid(1000.0, (0.0, 0.5, 1.0), 1e-3)
        assert grid.steps_between() == [0, 500, 500]
        assert grid.dt == pytest.approx(1e-6)
        assert grid.times[2] == pytest.approx(1e-3)

    def test_rejects_non_dividing_step(self):
        # only step-based runs need the step count, so it is checked there
        grid = TimeGrid(1000.0, (0.0, 0.5), 3e-4)
        with pytest.raises(ValueError, match="divide"):
            grid.steps_between()

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            TimeGrid(1000.0, (-1.0, 0.5), 1e-3)

    @pytest.mark.parametrize(
        "n_particles, taus, dtau",
        [
            (1000.0, (0.0, 1.0), math.inf),
            (1000.0, (0.0, 1.0), math.nan),
            (math.inf, (0.0, 1.0), 1e-3),
            (math.nan, (0.0, 1.0), 1e-3),
            (1000.0, (0.0, math.nan), 1e-3),
            (1000.0, (0.0, math.inf), 1e-3),
        ],
        ids=["inf-dtau", "nan-dtau", "inf-n", "nan-n", "nan-tau", "inf-tau"],
    )
    def test_rejects_non_finite(self, n_particles, taus, dtau):
        # an infinite dtau would give zero steps per gap, so the tau = 0
        # state would be reported at every later output
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(n_particles, taus, dtau)


class TestExactWignerStep:
    def test_unit_amplitude_half_turn(self):
        # |alpha|^2 = 1 gives rotation rate 1, so t = pi flips the sign
        assert exact_at(1.0, math.pi) == pytest.approx(-1.0, abs=1e-12)

    def test_modulus_conserved_over_million_steps(self):
        # every output rotates the initial amplitude: out to t = 1e6 * 1e-4
        init = np.array([1.3 - 0.7j, math.sqrt(1000.0) + 0.2j])
        times = np.linspace(0.0, 1e6 * 1e-4, 1001)
        for alpha_t in exact_wigner_flow(init, times):
            assert np.all(np.abs(np.abs(alpha_t) - np.abs(init)) < 1e-12)

    def test_rotation_rate_at_thousand_particles(self):
        # phase advance per unit scaled time is -(2N - 1)/N = -1.999
        n = 1000.0
        a0 = math.sqrt(n)
        advance = cmath.phase(exact_at(a0, 1.0 / n) / a0)
        assert advance == pytest.approx(-1.999, abs=1e-12)

    def test_volume_preserving_map(self):
        # finite-difference Jacobian determinant of the flow map equals 1
        h = 1e-5
        for a0 in (0.8 + 0.3j, math.sqrt(10) + 0.0j):
            for dt in (1e-4, 1e-5):
                def f(x, y):
                    z = exact_at(complex(x, y), dt)
                    return z.real, z.imag

                x0, y0 = a0.real, a0.imag
                fxp = f(x0 + h, y0)
                fxm = f(x0 - h, y0)
                fyp = f(x0, y0 + h)
                fym = f(x0, y0 - h)
                j11 = (fxp[0] - fxm[0]) / (2 * h)
                j21 = (fxp[1] - fxm[1]) / (2 * h)
                j12 = (fyp[0] - fym[0]) / (2 * h)
                j22 = (fyp[1] - fym[1]) / (2 * h)
                det = j11 * j22 - j12 * j21
                assert abs(det - 1.0) < 1e-8


class TestMidpointStep:
    """The ensembles' midpoint kernel, on one path (m = 1) unless stated.

    The noise-free tests step from (a0, conj(a0)) with zero increments.
    """

    def test_noise_free_rotation_conserves_modulus(self):
        # from (a0, conj(a0)) the noise-free Kerr flow is a phase rotation
        y = noise_free_path(kerr_positive_p_model(), 1.0 + 0.5j, 1e-3, 100)
        assert abs(abs(y) - abs(1.0 + 0.5j)) < 1e-12

    def test_single_step_matches_exact_to_dt_squared(self):
        model = kerr_positive_p_model()
        a0 = 1.1 + 0.4j
        errors = []
        for dt in (1e-3, 5e-4):
            num = noise_free_path(model, a0, dt, 1)
            errors.append(abs(num - exact_positive_p_at(a0, dt)))
        assert errors[0] < 1e-7
        # local error is cubic in dt, so halving shrinks it ~8x
        assert errors[0] / errors[1] > 6.0

    def test_deterministic_global_second_order(self):
        # halving dt shrinks the global error by >= 3.5x on the exact flow
        model = kerr_positive_p_model()
        a0 = 1.1 + 0.0j
        t_final = 0.5
        ref = exact_positive_p_at(a0, t_final)

        def global_error(dt):
            return abs(noise_free_path(model, a0, dt, int(round(t_final / dt))) - ref)

        e1, e2 = global_error(2e-3), global_error(1e-3)
        assert e1 / e2 >= 3.5

    def test_rejects_drift_only_model(self):
        # the kernel steps the doubled-phase-space Kerr model only: not the
        # drift-only Wigner model, nor the noise-free harmonic or the
        # detuned Kerr positive-P model
        models = [
            sy.derive_wigner_model(sy.kerr_hamiltonian()),
            positive_p_model(sy.normal_order(sy.parse_hamiltonian("ad a"))),
            positive_p_model(sy.normal_order(sy.parse_hamiltonian("ad a ad a + ad a"))),
        ]
        for model in models:
            with pytest.raises(ValueError, match="two-component"):
                MidpointStep(model, 1e-3, 1)

    def test_coefficients_are_read_from_the_model(self):
        # H = 2 a^dag a^dag a a doubles the drift and scales the noise by
        # sqrt(2); the kernel must follow the scalar reference on that model
        model = positive_p_model(sy.normal_order(sy.parse_hamiltonian("2 ad a ad a")))
        y0 = np.array([[1.1 + 0.4j, -0.3 + 2.0j], [1.1 - 0.4j, -0.3 - 2.0j]])
        dw = math.sqrt(1e-3) * np.random.default_rng(5).standard_normal((200, 2, 2))
        y = midpoint_path(model, y0, 1e-3, 200, dw)
        for i in range(2):
            ref = scalar_midpoint_path(model, y0[:, i], 1e-3, 200, dw[:, :, i])
            for j in range(2):
                assert abs(y[j, i] - ref[j]) < 1e-13 * abs(ref[j])

    def test_guess_carries_the_drift_sum(self):
        # a hand-built Kerr-shaped model whose drift coefficients are not
        # opposite, so the first-order guess keeps its (k_0 + k_1) P term
        model = sy.DriftDiffusionModel(
            (sy.VAR_A, sy.VAR_A_STAR),
            (sy.PhasePolynomial({(1, 2): -2j}), sy.PhasePolynomial({(2, 1): 1.0 + 3j})),
            (sy.PhasePolynomial({(0, 1): 1.0 - 1j}), sy.PhasePolynomial({(1, 0): 1.0 + 1j})),
            "stratonovich",
        )
        y0 = np.array([[1.1 + 0.4j, -0.3 + 0.9j], [1.1 - 0.4j, -0.3 - 0.9j]])
        dw = math.sqrt(1e-3) * np.random.default_rng(6).standard_normal((50, 2, 2))
        y = midpoint_path(model, y0, 1e-3, 50, dw)
        for i in range(2):
            ref = scalar_midpoint_path(model, y0[:, i], 1e-3, 50, dw[:, :, i])
            for j in range(2):
                assert abs(y[j, i] - ref[j]) < 1e-13 * abs(ref[j])

    @pytest.mark.parametrize("n, bound", [(10.0, 1e-8), (1e3, 2e-11)])
    def test_step_solves_its_equation(self, n, bound):
        # 1000 +-1 steps of 4096 paths from the coherent start stay within
        # bound (relative) of the fixed-point loop run to convergence on the
        # same increments; four plain iterations give 4.5e-7 and 1.3e-10
        model = kerr_positive_p_model()
        dt, m = 1e-3 / n, 4096
        y = np.full((2, m), math.sqrt(n), dtype=np.complex128)
        ref = y.copy()
        step, converged = MidpointStep(model, dt, m), ConvergedMidpointStep(model, dt, m)
        stream = stream_for_trajectory(1, 0)
        xi = np.empty((1, 2, m))
        for _ in range(1000):
            stream.signs(xi)
            step(y, xi[0])
            converged(ref, xi[0])
        assert np.isfinite(ref).all()
        assert np.max(np.abs(y - ref) / np.abs(ref)) <= bound

    @pytest.mark.filterwarnings("error")
    def test_pole_gives_a_non_finite_state_that_is_flagged(self, monkeypatch):
        # With dt = 2**-10, y0 y1 = i / dt and zero increments, the guess puts
        # 1 - u_0 exactly at zero, so the correction divides by zero.  The
        # state comes out non-finite, and the chunk flags every path without
        # a floating-point warning, even at an infinite escape radius.
        dt = 2.0**-10

        def to_pole(y, xi):
            y[0], y[1] = 1.0, 1j / dt
            xi[...] = 0.0

        y = np.empty((2, 3), dtype=np.complex128)
        xi = np.empty((2, 3))
        to_pole(y, xi)
        with np.errstate(divide="ignore", invalid="ignore"):
            MidpointStep(kerr_positive_p_model(), dt, 3)(y, xi)
        assert not np.isfinite(y).any()

        class PoleStart(MidpointStep):
            first = True

            def __call__(self, y, xi):
                if self.first:
                    to_pole(y, xi)
                    self.first = False
                super().__call__(y, xi)

        monkeypatch.setattr(engine, "MidpointStep", PoleStart)
        grid = TimeGrid(1.0, (0.0, 4 * dt), dt)
        acc = run_positive_p(
            1.0, grid, 20, 10, seed=0, escape_radius=math.inf, divergence_threshold=1.0
        )
        assert acc.n_diverged == 20

    def test_ensemble_follows_the_converged_step(self, monkeypatch):
        # N = 10 to tau = 3, where some paths escape: the kernel and the
        # converged loop flag the same paths, and every cumulant agrees
        # within 1e-3 of its sampling error
        n = 10.0
        grid = TimeGrid(n, (1.0, 2.0, 3.0), 1e-3)
        specs = [QuadratureSpec(2.0 * tau) for tau in grid.taus]
        chunk = engine._positive_p_chunk

        def run():
            masks = []

            def spy(*args):
                sums, alive = chunk(*args)
                masks.append(alive)
                return sums, alive

            monkeypatch.setattr(engine, "_positive_p_chunk", spy)
            acc = run_positive_p(
                math.sqrt(n), grid, 2048, 16, seed=1, threads=1, divergence_threshold=1.0
            )
            return batch_error(acc, specs), np.concatenate(masks)

        got, alive = run()
        monkeypatch.setattr(engine, "MidpointStep", ConvergedMidpointStep)
        want, want_alive = run()
        assert 0 < np.count_nonzero(~alive) < alive.size
        assert np.array_equal(alive, want_alive)
        for a, b in zip(got, want):
            assert abs(a.kappa3 - b.kappa3) <= 1e-3 * b.sigma3
            assert abs(a.kappa4 - b.kappa4) <= 1e-3 * b.sigma4

    def test_divergence_flagging(self):
        # a path that overflows is flagged after the step that makes it
        # non-finite, even with an infinite escape radius
        grid = TimeGrid(1.0, (0.0, 0.01), 1e-3)
        acc = run_positive_p(
            1e200, grid, 20, 10, seed=0, escape_radius=math.inf, divergence_threshold=1.0
        )
        assert acc.n_diverged == 20
        assert acc.n_paths == 0

    def test_strong_order_at_least_half_on_frozen_paths(self):
        # step-halving on the doubled-phase-space model with 100 frozen
        # Brownian paths (m = 100): successive differences shrink by >= 1.3
        # on average
        model = kerr_positive_p_model()
        n = 1000.0
        a0 = math.sqrt(n)
        t_final = 0.2 / n
        n_coarse = 50
        dt = t_final / n_coarse
        coarse, mid, fine = frozen_brownian_paths(np.random.default_rng(42), 100, n_coarse, dt)
        y0 = np.full((2, 100), a0, dtype=np.complex128)
        s1 = midpoint_path(model, y0, dt, n_coarse, coarse)
        s2 = midpoint_path(model, y0, dt / 2, 2 * n_coarse, mid)
        s4 = midpoint_path(model, y0, dt / 4, 4 * n_coarse, fine)
        e1 = np.abs(s1[0] - s2[0])
        e2 = np.abs(s2[0] - s4[0])
        assert np.mean(e1[e2 > 0] / e2[e2 > 0]) >= 1.3


def sign_increments(seed, n, dt):
    """n samples of the complex noise pair xi dt = (1+i) sqrt(dt) xi, shape (n, 2).

    The +-1 increments xi are one (2, n) step of the chunk stream's sign
    draw, as a positive-P chunk of n paths draws it, transposed.
    """
    xi = stream_for_trajectory(seed, 0).signs(np.empty((1, 2, n)))[0].T
    return (1 + 1j) * math.sqrt(dt) * xi


class TestBuildNoise:
    def test_second_moment_is_two_i_dt(self):
        dt = 1e-3
        n = 200_000
        xi_dt = sign_increments(0, n, dt)
        second = (xi_dt**2).mean(axis=0)
        tol = 5 * 2 * dt * math.sqrt(2.0 / n)
        for j in range(2):
            assert abs(second[j] - 2j * dt) < tol
        # |xi dt|^2 averages to 2 dt
        assert abs((np.abs(xi_dt) ** 2).mean() - 2 * dt) < tol

    def test_cross_moment_vanishes(self):
        dt = 1e-3
        n = 200_000
        xi_dt = sign_increments(1, n, dt)
        cross = (xi_dt[:, 0] * xi_dt[:, 1]).mean()
        assert abs(cross) < 5 * 2 * dt / math.sqrt(n)

    def test_mean_vanishes(self):
        dt = 1e-3
        n = 200_000
        xi_dt = sign_increments(2, n, dt)
        assert abs(xi_dt.mean()) < 5 * math.sqrt(2 * dt / n)

    def test_third_moment_vanishes(self):
        # weak order 1 needs E xi^3 = 0 as well; |xi dt|^3 = (2 dt)^(3/2)
        dt = 1e-3
        n = 200_000
        xi_dt = sign_increments(3, n, dt)
        third = (xi_dt**3).mean(axis=0)
        for j in range(2):
            assert abs(third[j]) < 5 * (2 * dt) ** 1.5 / math.sqrt(n)


class TestTruncatedWignerEnsemble:
    def test_initial_time_cumulants_consistent_with_zero(self):
        grid = TimeGrid(1000.0, (0.0,), 1e-3)
        acc = run_truncated_wigner(math.sqrt(1000.0), grid, 20_000, 100, seed=5)
        (rep,) = batch_error(acc, [QuadratureSpec(0.0)])
        assert abs(rep.kappa3) < 4 * rep.sigma3
        assert abs(rep.kappa4) < 4 * rep.sigma4

    def test_occupation_offset_half_quantum(self):
        n = 1000.0
        grid = TimeGrid(n, (0.0, 2.0, 7.0), 0.5)
        acc = run_truncated_wigner(math.sqrt(n), grid, 20_000, 100, seed=6)
        for k in range(acc.n_outputs):
            m11 = batch_mean(acc, k, 1, 1).real
            sigma = batch_sigma(acc, k, 1, 1)
            assert abs(m11 - 0.5 - n) < 4 * sigma

    def test_no_divergence_possible(self):
        grid = TimeGrid(1000.0, (0.0, 5.0), 1e-3)
        acc = run_truncated_wigner(math.sqrt(1000.0), grid, 1000, 10, seed=7)
        assert acc.n_diverged == 0

    def test_worker_count_invariance(self):
        grid = TimeGrid(1000.0, (0.0, 1.0), 0.1)
        a = run_truncated_wigner(math.sqrt(1000.0), grid, 9000, 18, seed=8, threads=1)
        b = run_truncated_wigner(math.sqrt(1000.0), grid, 9000, 18, seed=8, threads=2)
        assert np.array_equal(a.batch_sums, b.batch_sums)
        assert np.array_equal(a.batch_counts, b.batch_counts)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_per_path_reference_kernels(self, monkeypatch, threads):
        # five chunks, so that two workers really share the work
        monkeypatch.setattr(engine, "_CHUNK_TARGET", 600)
        grid = TimeGrid(1000.0, (0.0, 1.0, 2.5), 0.5)

        def run():
            return run_truncated_wigner(
                math.sqrt(1000.0), grid, 3000, 10, seed=2**64 + 3, threads=threads
            )

        got = run()
        use_reference_kernels(monkeypatch)
        assert_same_accumulators(got, run())


class TestPositivePEnsemble:
    def test_initial_occupation_exact(self):
        # the coherent start is the deterministic pair (alpha0, conj(alpha0));
        # numpy's complex product may fuse a multiply-add, which leaves a
        # rounding-level imaginary occupation when alpha0 has two nonzero parts
        for alpha0, imag_atol in (
            (math.sqrt(1000.0), 0.0), (0.3 + 0.4j, 1e-16), (-2.0, 0.0), (1j * math.sqrt(5), 0.0)
        ):
            n = abs(alpha0) ** 2
            grid = TimeGrid(n, (0.0,), 1e-3)
            acc = run_positive_p(alpha0, grid, 500, 10, seed=0)
            assert batch_mean(acc, 0, 0, 1) == pytest.approx(alpha0, abs=1e-12 * n)
            assert batch_mean(acc, 0, 1, 0) == pytest.approx(np.conj(alpha0), abs=1e-12 * n)
            m11 = batch_mean(acc, 0, 1, 1)
            assert m11.real == pytest.approx(n, abs=1e-9)
            assert abs(m11.imag) <= imag_atol

    def test_number_conserved_in_time(self):
        n = 1000.0
        grid = TimeGrid(n, (0.0, 0.25, 0.5), 1e-3)
        acc = run_positive_p(math.sqrt(n), grid, 4000, 20, seed=9)
        for k in range(acc.n_outputs):
            m11 = batch_mean(acc, k, 1, 1).real
            sigma = max(batch_sigma(acc, k, 1, 1), 1e-9)
            assert abs(m11 - n) < 4 * sigma

    def test_worker_count_invariance(self):
        n = 1000.0
        grid = TimeGrid(n, (0.0, 0.02), 1e-3)
        a = run_positive_p(math.sqrt(n), grid, 9000, 18, seed=10, threads=1)
        b = run_positive_p(math.sqrt(n), grid, 9000, 18, seed=10, threads=2)
        assert np.array_equal(a.batch_sums, b.batch_sums)

    def test_noise_blocks_replay_whole_gap_draws(self, monkeypatch):
        n = 1000.0
        grid = TimeGrid(n, (0.0, 0.05), 1e-3)  # one gap of 50 steps

        def run():
            return run_positive_p(math.sqrt(n), grid, 200, 10, seed=4)

        whole = run()
        # one 200-path chunk, capped at 7 steps per block: 8 blocks, the last short
        monkeypatch.setattr(engine, "_NOISE_BLOCK_BYTES", 7 * 2 * 8 * 200)
        sizes = []
        signs = RandomStream.signs

        def spy(stream, out):
            sizes.append(out.size)
            return signs(stream, out)

        monkeypatch.setattr(RandomStream, "signs", spy)
        assert_same_accumulators(run(), whole)
        assert sizes == [14 * 200] * 7 + [2 * 200]

    def test_seed_changes_results(self):
        n = 1000.0
        grid = TimeGrid(n, (0.0, 0.02), 1e-3)
        a = run_positive_p(math.sqrt(n), grid, 500, 10, seed=1)
        b = run_positive_p(math.sqrt(n), grid, 500, 10, seed=2)
        assert not np.array_equal(a.batch_sums[-1], b.batch_sums[-1])

    def test_excessive_divergence_aborts(self):
        n = 1000.0
        grid = TimeGrid(n, (0.0, 0.01), 1e-3)
        with pytest.raises(ExcessiveDivergence):
            run_positive_p(
                math.sqrt(n), grid, 200, 10, seed=0, escape_radius=1e-6
            )

    def test_diverged_paths_counted_and_excluded(self):
        n = 1000.0
        grid = TimeGrid(n, (0.0, 0.01), 1e-3)
        acc = run_positive_p(
            math.sqrt(n), grid, 200, 10, seed=0, escape_radius=1e-6,
            divergence_threshold=1.0,
        )
        assert acc.n_diverged == 200
        assert acc.n_paths == 0

    @staticmethod
    def assert_chunk_matches_scalar_stepper(tau, m, seed, rel):
        # same trajectory, same noise: chunked numpy path vs scalar reference;
        # path traj takes column traj of the chunk's step-major (n_steps, 2, m)
        # +-1 increments, one path per batch
        model = kerr_positive_p_model()
        n = 1000.0
        a0 = math.sqrt(n)
        grid = TimeGrid(n, (tau,), 1e-3)
        acc = run_positive_p(a0, grid, m, m, seed=seed)
        dt = grid.dt
        n_steps = grid.steps_between()[0]
        draws = chunk_signs(seed, 0, n_steps, m)
        for traj in range(m):
            dw = math.sqrt(dt) * draws[:, :, traj]
            a1_ref, a2s_ref = scalar_midpoint_path(model, (a0, a0), dt, n_steps, dw)
            a1 = acc.batch_sums[0, traj, MONOMIAL_INDEX[(0, 1)]]
            a2s = acc.batch_sums[0, traj, MONOMIAL_INDEX[(1, 0)]]
            assert abs(a1 - a1_ref) < rel * abs(a1)
            assert abs(a2s - a2s_ref) < rel * abs(a2s)

    def test_vector_kernel_matches_scalar_stepper(self):
        self.assert_chunk_matches_scalar_stepper(0.05, 3, 13, 1e-13)

    def test_vector_kernel_matches_scalar_stepper_over_benchmark_gap(self):
        # pp_short's N and output gap (250 steps), 32 paths: the fused kernel
        # keeps every column within 1e-12 of the unfused scalar reference
        self.assert_chunk_matches_scalar_stepper(0.25, 32, 21, 1e-12)

    def test_kernel_matches_scalar_reference_without_noise(self):
        model = kerr_positive_p_model()
        y0 = np.array([[1.1 + 0.4j, -0.3 + 2.0j], [1.1 - 0.4j, -0.3 - 2.0j]])
        y = midpoint_path(model, y0, 1e-3, 200)
        for i in range(2):
            ref = scalar_midpoint_path(model, y0[:, i], 1e-3, 200, np.zeros((200, 2)))
            for j in range(2):
                assert abs(y[j, i] - ref[j]) < 1e-13 * abs(ref[j])


class TestPositivePAgainstOracle:
    def test_short_time_cumulants(self):
        import anharmonic.oracle as orc

        n = 1000.0
        grid = TimeGrid(n, (0.5, 1.0), 1e-3)
        acc = run_positive_p(math.sqrt(n), grid, 4000, 20, seed=3)
        state0 = orc.init_coherent(math.sqrt(n))
        reports = batch_error(acc, [QuadratureSpec(2.0 * tau) for tau in grid.taus])
        for tau, rep in zip(grid.taus, reports):
            theta = 2.0 * tau
            exact = orc.oracle_cumulants(
                orc.evolve(state0, tau / n), QuadratureSpec(theta)
            )
            assert abs(rep.kappa3 - exact.kappa3) < 4 * rep.sigma3
            assert abs(rep.kappa4 - exact.kappa4) < 4 * rep.sigma4


def test_weak_order_cumulants_agree_at_half_step():
    # two-point increments match the Wiener moments a weak order-1 scheme
    # needs, so halving dtau moves no cumulant beyond its sampling error;
    # the two runs draw from different seeds, so their errors are independent
    n = 1000.0
    taus = (0.25, 0.5, 0.75, 1.0)
    specs = [QuadratureSpec(2.0 * tau) for tau in taus]
    coarse, fine = (
        batch_error(run_positive_p(math.sqrt(n), TimeGrid(n, taus, dtau), 16384, 64, seed=seed), specs)
        for dtau, seed in ((1e-3, 1), (5e-4, 2))
    )
    for a, b in zip(coarse, fine):
        assert abs(a.kappa3 - b.kappa3) < 4 * math.hypot(a.sigma3, b.sigma3)
        assert abs(a.kappa4 - b.kappa4) < 4 * math.hypot(a.sigma4, b.sigma4)


class TestDefaultWorkerCount:
    def test_affinity_mask_sets_default(self, monkeypatch):
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert engine._available_cpus() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 6)
        assert engine._available_cpus() == 6

    def test_worker_count_capped_at_cpus_and_tasks(self, monkeypatch):
        monkeypatch.setattr(engine, "_available_cpus", lambda: 2)
        cases = ((None, 10), (8, 10), (1, 10), (8, 1), (None, 0))
        assert [engine.worker_count(t, n) for t, n in cases] == [2, 2, 1, 1, 0]

    @pytest.mark.parametrize("threads", [0, -3])
    def test_worker_count_rejects_threads_below_one(self, threads):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            engine.worker_count(threads, 10)


class TestStreamingReduction:
    """Per-output batch sums against a reduction of the whole monomial block."""

    # 2995 paths in 10 batches: five of 300 and five of 299.  With at most
    # 600 paths per chunk that is five chunks, one of which mixes the sizes.
    N_PATHS = 2995

    def compare(self, monkeypatch, kernel_name, run):
        monkeypatch.setattr(engine, "_CHUNK_TARGET", 600)
        got = run()
        monkeypatch.setattr(engine, kernel_name, full_block_kernel(getattr(engine, kernel_name)))
        want = run()
        assert_same_accumulators(got, want)
        return got

    @pytest.mark.parametrize("threads", [1, 2])
    def test_truncated_wigner(self, monkeypatch, threads):
        grid = TimeGrid(1000.0, (0.0, 1.0, 2.5, 4.0), 0.5)
        self.compare(
            monkeypatch,
            "_truncated_wigner_chunk",
            lambda: run_truncated_wigner(
                math.sqrt(1000.0), grid, self.N_PATHS, 10, seed=3, threads=threads
            ),
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_positive_p_with_late_divergence(self, monkeypatch, threads):
        n = 1000.0
        grid = TimeGrid(n, (0.0, 0.01, 0.02), 1e-3)
        acc = self.compare(
            monkeypatch,
            "_positive_p_chunk",
            lambda: run_positive_p(
                math.sqrt(n), grid, self.N_PATHS, 10, seed=5, threads=threads,
                escape_radius=32.0, divergence_threshold=1.0,
            ),
        )
        # some paths, not all, escape after the tau = 0 output, so the
        # retroactive exclusion reaches back across outputs
        assert 0 < acc.n_diverged < self.N_PATHS
        assert acc.n_paths == self.N_PATHS - acc.n_diverged

    @pytest.mark.parametrize(
        "n_paths, n_batches",
        [(1001, 7), (64 * 5 + 3, 5), (128 * 4 + 2, 4), (130 * 3, 3), (1000 * 2 + 1, 2), (1, 1), (257, 1)],
    )
    def test_reduction_helper_matches_per_slice_sums(self, n_paths, n_batches):
        rng = np.random.default_rng(n_paths)
        pairs = [tuple(rng.normal(size=(2, n_paths)) + 1j * rng.normal(size=(2, n_paths)))
                 for _ in range(3)]
        bounds = engine.batch_slices(n_paths, n_batches)
        got = engine._batch_monomial_sums(iter(pairs), 3, bounds)
        assert got.shape == (3, n_batches, len(MONOMIALS))
        for out, (abar, a) in zip(got, pairs):
            assert np.array_equal(out, per_slice_batch_sums(bulk_monomials(abar, a), bounds))


class TestMemoryBound:
    """Chunk memory does not hold a monomial block per output.

    At 2048 paths and 1001 outputs the whole (n_out, 14, m) complex block
    would be 459 MB.  A truncated-Wigner chunk holds one (14, m) block, so
    only the (n_out, n_batches, 14) sums may grow; a positive-P chunk also
    keeps every output's (2, m) state, 32 B per path per output.
    """

    BOUND = 32 * 2**20
    GRID = TimeGrid(1000.0, tuple(0.01 * i for i in range(1001)), 0.01)

    def traced_peak(self, run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_truncated_wigner(self):
        peak = self.traced_peak(
            lambda: run_truncated_wigner(math.sqrt(1000.0), self.GRID, 2048, 10, seed=1, threads=1)
        )
        assert peak < self.BOUND, peak

    def test_positive_p(self):
        peak = self.traced_peak(
            lambda: run_positive_p(
                math.sqrt(1000.0), self.GRID, 2048, 10, seed=1, threads=1,
                divergence_threshold=1.0,
            )
        )
        states = len(self.GRID.taus) * 2048 * 32
        assert peak < 1.5 * states, peak

    def test_positive_p_noise_block(self):
        # one output gap of 2000 steps: a whole-gap draw would be 62.5 MiB at
        # 2048 paths, but the chunk holds one L2-sized noise block of 1 MiB.
        # Beside it live (2, m) complex arrays (64 KiB each at this m): the
        # state, the kernel's three buffers, the two stored outputs and the
        # (14, m) monomial block, about 15 of them; the bound allows 24.
        grid = TimeGrid(1000.0, (0.0, 2.0), 1e-3)

        def run(m):
            return run_positive_p(
                math.sqrt(1000.0), grid, m, 10, seed=1, threads=1, divergence_threshold=1.0
            )

        run(10)  # one-time imports and model derivation, outside the trace
        peak = self.traced_peak(lambda: run(2048))
        assert peak < 2**20 + 24 * (2 * 2048 * 16), peak
