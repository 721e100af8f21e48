import cmath
import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from anharmonic import engine
from anharmonic.engine import (
    ExcessiveDivergence,
    MidpointStep,
    TimeGrid,
    exact_wigner_flow,
    run_positive_p,
    run_truncated_wigner,
)
from anharmonic.moments import N_POWERS, POSITIVE_P, WIGNER, batch_error, bulk_monomials
from anharmonic.sampling import RandomStream, stream_for_trajectory, wigner_initial
from helpers import (
    ANCHOR_EVERY,
    ConvergedMidpointStep,
    at_phase,
    batch_slices,
    chunk_signs,
    chunk_stream_wigner_initial,
    frozen_brownian_paths,
    full_block_kernel,
    greedy_chunk_groups,
    grid_at,
    kerr_positive_p_model,
    ladder_sums,
    midpoint_path,
    per_slice_batch_sums,
    quadrature_rounding_bound,
    rounding_phase,
    scalar_midpoint_path,
    stacked_powers,
    tw_flow_cumulants_by_quadrature,
    tw_limit_cumulants,
    tw_limit_digits,
    wigner_phasor,
)


def exact_at(a0, t):
    """Exact truncated-Wigner flow of one amplitude at one time, from the
    flow's phasor z = 2 alpha(t)."""
    (z,) = next(exact_wigner_flow(np.array([complex(a0)]), [t]))
    return 0.5 * complex(z)


def exact_positive_p_at(a0, t):
    """Noise-free positive-P Kerr flow from (a0, conj(a0)): alpha1 exp(-2i n t), n = |a0|^2."""
    return a0 * np.exp(-2j * abs(a0) ** 2 * t)


def noise_free_path(a0, dt, n_steps):
    """alpha1 after n_steps kernel steps from (a0, conj(a0)) with zero increments."""
    return midpoint_path([[a0], [np.conj(a0)]], dt, n_steps)[0, 0]


def batch_mean(sums, counts, k):
    """Pooled mean at output k of per-batch sums of shape (n_out, n_batches)."""
    return sums[k].sum() / counts.sum()


def stacked_bulk_monomials(theta, a, b, representation, centre=0.0, out=None):
    """bulk_monomials by whole-array operations: stacked_powers of the
    amplitude a / 2 for a Wigner phasor a, of the pair for a positive-P one.
    Halving and the reference's doubling are exact, so the Wigner powers
    agree bit for bit."""
    if representation == WIGNER:
        return stacked_powers(theta, 0.5 * a, None, centre)
    return stacked_powers(theta, a, b, centre)


def use_reference_kernels(monkeypatch):
    """A directly built chunk Philox and stacked powers, in place of the block kernels."""
    monkeypatch.setattr(engine, "wigner_initial", chunk_stream_wigner_initial)
    monkeypatch.setattr(engine, "bulk_monomials", stacked_bulk_monomials)


def assert_same_accumulators(got, want):
    assert got.batch_sums.shape == want.batch_sums.shape
    assert np.array_equal(got.batch_sums, want.batch_sums)
    assert np.array_equal(got.batch_counts, want.batch_counts)
    assert np.array_equal(got.batch_diverged, want.batch_diverged)


def batch_sigma(sums, counts, k):
    """Batch standard error of the real part of the mean at output k."""
    vals = np.real(sums[k] / counts)
    return vals.std(ddof=1) / math.sqrt(len(vals))


class TestTimeGrid:
    def test_steps_and_dt(self):
        grid = TimeGrid(1000.0, (0.0, 0.5, 1.0), (0.0, 1.0, 2.0), 1e-3)
        assert grid.steps_between() == [0, 500, 500]
        assert grid.dt == pytest.approx(1e-6)
        assert grid.times[2] == pytest.approx(1e-3)

    def test_rejects_non_dividing_step(self):
        # only step-based runs need the step count, so it is checked there
        grid = TimeGrid(1000.0, (0.0, 0.5), (0.0, 1.0), 3e-4)
        with pytest.raises(ValueError, match="divide"):
            grid.steps_between()

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            TimeGrid(1000.0, (-1.0, 0.5), (0.0, 1.0), 1e-3)

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
            TimeGrid(n_particles, taus, (0.0, 0.0), dtau)

    @pytest.mark.parametrize(
        "thetas, message",
        [
            ((0.0,), "1 phases for 2 output times"),
            ((0.0, 1.0, 2.0), "3 phases for 2 output times"),
            ((0.0, math.nan), "theta values must be finite"),
            ((math.inf, 1.0), "theta values must be finite"),
        ],
        ids=["too-few", "too-many", "nan-theta", "inf-theta"],
    )
    def test_one_finite_phase_per_output(self, thetas, message):
        # the grid is the one place that pairs each output time with its
        # phase, so the ensembles and the oracle never see a count mismatch
        with pytest.raises(ValueError, match=message):
            TimeGrid(1000.0, (0.0, 1.0), thetas, 1e-3)

    def test_rejects_last_time_that_overflows(self):
        # at a subnormal N the last time t = tau / N overflows; a grid that
        # stays at tau = 0 has t = 0 and is kept
        with pytest.raises(ValueError, match="last time tau / N = 0.002 / .* is not finite"):
            TimeGrid(1e-320, (0.0, 0.002), (0.0, 0.0), 1e-3)
        assert TimeGrid(1e-320, (0.0,), (0.0,), 1e-3).times == (0.0,)
        assert math.isfinite(TimeGrid(1e-300, (0.0, 0.002), (0.0, 0.0), 1e-3).times[-1])


class TestQuadratureCentres:
    """The one centre per output that both ensembles sum their powers about."""

    def test_path_from_alpha0_sits_at_the_centre(self):
        # the mean-field path, flowed as a path is, gives y = 0 to rounding:
        # the path's quadrature and the centre's cosine each stay within
        # the flow's rounding bound of the exact value
        for alpha0 in (math.sqrt(1e3), 3.0 - 4.0j, -2.5j, math.sqrt(1e12)):
            grid = grid_at(abs(alpha0) ** 2, (0.0, 0.5, 3.0, 10.0), 1e-3)
            centres = engine.quadrature_centres(alpha0, grid)
            omega = 2.0 * abs(alpha0) ** 2 - 1.0
            flow = exact_wigner_flow(np.array([alpha0]), grid.times)
            for k, (t, theta, centre, z) in enumerate(zip(grid.times, grid.thetas, centres, flow,
                                                           strict=True)):
                y = bulk_monomials(theta, z, None, WIGNER, centre)[0, 0]
                bound = quadrature_rounding_bound(rounding_phase(omega, t, theta, k), 2 * abs(alpha0))
                assert np.all(abs(y) <= 2.0 * bound[0]), (alpha0, t, y)

    def test_centre_falls_back_to_zero_where_not_finite(self):
        # at |alpha0| = 1e200 the rate 2 |alpha0|^2 - 1 overflows
        grid = grid_at(1.0, (0.0, 0.01), 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centres = engine.quadrature_centres(1e200, grid)
        assert np.array_equal(centres, [0.0, 0.0])

    @pytest.mark.parametrize("run_ensemble", [run_truncated_wigner, run_positive_p])
    def test_accumulator_carries_the_centres(self, run_ensemble):
        n = 1e3
        grid = grid_at(n, (0.0, 0.01, 0.02), 1e-3)
        acc = run_ensemble(math.sqrt(n), grid, 100, 10, seed=1)
        assert np.array_equal(acc.centres, engine.quadrature_centres(math.sqrt(n), grid))
        # truncated-Wigner quadratures are real, and so are their sums
        assert acc.batch_sums.dtype == (np.float64 if run_ensemble is run_truncated_wigner
                                        else np.complex128)


class TestExactWignerStep:
    def test_anchors_formed_from_the_start_and_rotations_between(self):
        # on a grid of 5001 outputs, output 0 and every 64th after it is
        # exp(-i omega t) 2 alpha(0) bit for bit, so rounding built up by the
        # rotations does not carry past an anchor; every other output is the
        # one before times its gap's rotation.  Each output is its own array,
        # so outputs kept in a list keep their values
        n = 1e6
        rng = np.random.default_rng(31)
        init = math.sqrt(n) + 0.5 * (rng.normal(size=64) + 1j * rng.normal(size=64))
        times = np.linspace(0.0, 10.0 / n, 5001)
        omega = 2.0 * (init.real**2 + init.imag**2) - 1.0
        outputs = list(exact_wigner_flow(init, times))
        assert len(outputs) == len(times)
        for k, (t, z) in enumerate(zip(times, outputs)):
            if k % ANCHOR_EVERY == 0:
                assert np.array_equal(z, np.exp(-1j * (t * omega)) * (2.0 * init)), t
            else:
                rotation = np.exp(-1j * ((t - times[k - 1]) * omega))
                assert np.array_equal(z, outputs[k - 1] * rotation), t

    @pytest.mark.parametrize("n", [1e3, 1e6, 1e18])
    def test_quadrature_within_rounding_bound_of_exact(self, n):
        # tau in [0, 10] at 10001 outputs, theta = 2 tau: every output's x
        # lies within 4 eps (1 + |omega t| + |theta| + j) 2 |alpha(0)| of its
        # value at 60 digits, j the products since its anchor (at most 416
        # units of eps 2 |alpha(0)| here).  The anchored flow stays within 22
        # of them; the same rotations without anchors drift to 1400-2100
        grid = grid_at(n, np.linspace(0.0, 10.0, 10001), 1e-3)
        init = wigner_initial(math.sqrt(n), 1, 0, 2)
        omega = 2.0 * (init.real**2 + init.imag**2) - 1.0
        with mpmath.workdps(60):
            amplitudes = [(mpmath.mpf(a.real), mpmath.mpf(a.imag)) for a in init]
            rates = [2 * (re**2 + im**2) - 1 for re, im in amplitudes]
            flow = exact_wigner_flow(init, grid.times)
            for k, (t, theta, z) in enumerate(zip(grid.times, grid.thetas, flow, strict=True)):
                x = bulk_monomials(theta, z, None, WIGNER)[0]
                bound = quadrature_rounding_bound(rounding_phase(omega, t, theta, k), 2.0 * np.abs(init))[0]
                for got, limit, (re, im), rate in zip(x, bound, amplitudes, rates):
                    cos, sin = mpmath.cos_sin(rate * t + theta)
                    assert abs(got - 2 * (re * cos + im * sin)) <= limit, (n, k)

    def test_rotations_kept_within_their_cap(self):
        # a log-spaced grid of 200 outputs has 199 distinct gaps: the flow
        # keeps at most 4 rotations of shape (m,), 256 KiB here, and holds
        # at most six more arrays of that size while it runs
        m = 4096
        init = wigner_initial(math.sqrt(1e3), 1, 0, m)
        times = np.geomspace(1e-6, 1e-2, 200)
        assert len(set(np.diff(times))) == 199
        tracemalloc.start()
        try:
            for _ in exact_wigner_flow(init, times):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (4 + 6) * m * 16, peak

    def test_unit_amplitude_half_turn(self):
        # |alpha|^2 = 1 gives rotation rate 1, so t = pi flips the sign
        assert exact_at(1.0, math.pi) == pytest.approx(-1.0, abs=1e-12)

    def test_modulus_conserved_over_million_steps(self):
        # out to t = 1e6 * 1e-4, at most 63 rotations from an anchor
        init = np.array([1.3 - 0.7j, math.sqrt(1000.0) + 0.2j])
        times = np.linspace(0.0, 1e6 * 1e-4, 1001)
        for z in exact_wigner_flow(init, times):
            assert np.all(np.abs(np.abs(0.5 * z) - np.abs(init)) < 1e-12)

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
        y = noise_free_path(1.0 + 0.5j, 1e-3, 100)
        assert abs(abs(y) - abs(1.0 + 0.5j)) < 1e-12

    def test_single_step_matches_exact_to_dt_squared(self):
        a0 = 1.1 + 0.4j
        errors = []
        for dt in (1e-3, 5e-4):
            num = noise_free_path(a0, dt, 1)
            errors.append(abs(num - exact_positive_p_at(a0, dt)))
        assert errors[0] < 1e-7
        # local error is cubic in dt, so halving shrinks it ~8x
        assert errors[0] / errors[1] > 6.0

    def test_deterministic_global_second_order(self):
        # halving dt shrinks the global error by >= 3.5x on the exact flow
        a0 = 1.1 + 0.0j
        t_final = 0.5
        ref = exact_positive_p_at(a0, t_final)

        def global_error(dt):
            return abs(noise_free_path(a0, dt, int(round(t_final / dt))) - ref)

        e1, e2 = global_error(2e-3), global_error(1e-3)
        assert e1 / e2 >= 3.5

    def test_coefficients_are_the_derived_kerr_model(self):
        # the stepper's constants are the Stratonovich positive-P Kerr model,
        # term for term: drift (c0 a* a^2, c1 a*^2 a), noise (n0 a, n1 a*)
        model = kerr_positive_p_model()
        assert model.convention == "stratonovich"
        assert [poly.terms for poly in model.drift] == [
            {(1, 2): engine.KERR_DRIFT[0]}, {(2, 1): engine.KERR_DRIFT[1]}
        ]
        assert [poly.terms for poly in model.noise] == [
            {(0, 1): engine.KERR_NOISE[0]}, {(1, 0): engine.KERR_NOISE[1]}
        ]

    @pytest.mark.parametrize("n, bound", [(10.0, 1e-8), (1e3, 2e-11)])
    def test_step_solves_its_equation(self, n, bound):
        # 1000 +-1 steps of 4096 paths from the coherent start stay within
        # bound (relative) of the fixed-point loop run to convergence on the
        # same increments; four plain iterations give 4.5e-7 and 1.3e-10
        dt, m = 1e-3 / n, 4096
        y = np.full((2, m), math.sqrt(n), dtype=np.complex128)
        ref = y.copy()
        step, converged = MidpointStep(dt, m), ConvergedMidpointStep(dt, m)
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
            MidpointStep(dt, 3)(y, xi)
        assert not np.isfinite(y).any()

        class PoleStart(MidpointStep):
            first = True

            def __call__(self, y, xi):
                if self.first:
                    to_pole(y, xi)
                    self.first = False
                super().__call__(y, xi)

        monkeypatch.setattr(engine, "MidpointStep", PoleStart)
        monkeypatch.setattr(engine, "ESCAPE_RADIUS_FACTOR", math.inf)
        grid = grid_at(1.0, (0.0, 4 * dt), dt)
        acc = run_positive_p(1.0, grid, 20, 10, seed=0, divergence_threshold=1.0)
        assert acc.n_diverged == 20

    def test_ensemble_follows_the_converged_step(self, monkeypatch):
        # N = 10 to tau = 3, where some paths escape: the kernel and the
        # converged loop flag the same paths, and every cumulant agrees
        # within 1e-3 of its sampling error
        n = 10.0
        grid = grid_at(n, (1.0, 2.0, 3.0), 1e-3)
        chunk = engine._positive_p_chunk

        def run():
            masks = []

            def spy(*args):
                alive = chunk(*args)
                masks.append(alive)
                return alive

            monkeypatch.setattr(engine, "_positive_p_chunk", spy)
            acc = run_positive_p(
                math.sqrt(n), grid, 2048, 16, seed=1, threads=1,
                divergence_threshold=1.0,
            )
            return batch_error(acc), np.concatenate(masks)

        got, alive = run()
        monkeypatch.setattr(engine, "MidpointStep", ConvergedMidpointStep)
        want, want_alive = run()
        assert 0 < np.count_nonzero(~alive) < alive.size
        assert np.array_equal(alive, want_alive)
        for a, b in zip(got, want):
            assert abs(a.kappa3 - b.kappa3) <= 1e-3 * b.sigma3
            assert abs(a.kappa4 - b.kappa4) <= 1e-3 * b.sigma4

    def test_divergence_flagging(self, monkeypatch):
        # a path that overflows is flagged after the step that makes it
        # non-finite, even with an infinite escape radius
        monkeypatch.setattr(engine, "ESCAPE_RADIUS_FACTOR", math.inf)
        grid = grid_at(1.0, (0.0, 0.01), 1e-3)
        acc = run_positive_p(1e200, grid, 20, 10, seed=0, divergence_threshold=1.0)
        assert acc.n_diverged == 20
        assert acc.n_paths == 0

    def test_escape_found_where_no_part_reaches_the_radius(self, monkeypatch):
        # from alpha0 = 20 (1 + i) at an escape radius of 0.9 |alpha0| every
        # path starts outside it, while each real and imaginary part stays
        # near 0.71 |alpha0|: a test on the parts alone would keep them all
        monkeypatch.setattr(engine, "ESCAPE_RADIUS_FACTOR", 0.9)
        alpha0 = 20.0 + 20.0j
        grid = grid_at(abs(alpha0) ** 2, (0.0, 0.01), 1e-3)
        acc = run_positive_p(alpha0, grid, 100, 10, seed=0, divergence_threshold=1.0)
        assert acc.n_diverged == 100

    def test_strong_order_at_least_half_on_frozen_paths(self):
        # step-halving on the doubled-phase-space model with 100 frozen
        # Brownian paths (m = 100): successive differences shrink by >= 1.3
        # on average
        n = 1000.0
        a0 = math.sqrt(n)
        t_final = 0.2 / n
        n_coarse = 50
        dt = t_final / n_coarse
        coarse, mid, fine = frozen_brownian_paths(np.random.default_rng(42), 100, n_coarse, dt)
        y0 = np.full((2, 100), a0, dtype=np.complex128)
        s1 = midpoint_path(y0, dt, n_coarse, coarse)
        s2 = midpoint_path(y0, dt / 2, 2 * n_coarse, mid)
        s4 = midpoint_path(y0, dt / 4, 4 * n_coarse, fine)
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
        grid = grid_at(1000.0, (0.0,), 1e-3)
        acc = run_truncated_wigner(math.sqrt(1000.0), grid, 20_000, 100, seed=5)
        (rep,) = batch_error(acc)
        assert abs(rep.kappa3) < 4 * rep.sigma3
        assert abs(rep.kappa4) < 4 * rep.sigma4

    def test_occupation_offset_half_quantum(self):
        n = 1000.0
        grid = grid_at(n, (0.0, 2.0, 7.0), 0.5)
        sums, acc = ladder_sums(lambda theta: run_truncated_wigner(
            math.sqrt(n), at_phase(grid, theta), 20_000, 100, seed=6
        ))
        for k in range(acc.n_outputs):
            m11 = batch_mean(sums[1, 1], acc.batch_counts, k).real
            sigma = batch_sigma(sums[1, 1], acc.batch_counts, k)
            assert abs(m11 - 0.5 - n) < 4 * sigma

    def test_time_zero_estimates_do_not_depend_on_n(self):
        # one seed gives the same draws about sqrt(N) at every N, so the
        # tau = 0 estimates agree to rounding, while the fourth power of the
        # quadrature itself reaches (2 sqrt(N))^4 = 1.6e25 at N = 1e12
        def at(n):
            grid = grid_at(n, (0.0,), 1e-3)
            (rep,) = batch_error(run_truncated_wigner(math.sqrt(n), grid, 16384, 128, seed=1))
            return np.array([rep.kappa3, rep.kappa4, rep.sigma4])

        want = at(1e3)
        for n in (1e6, 1e8, 1e12):
            got = at(n)
            assert np.all(np.abs(got - want) <= 1e-9), (n, got, want)

    def test_no_divergence_possible(self):
        grid = grid_at(1000.0, (0.0, 5.0), 1e-3)
        acc = run_truncated_wigner(math.sqrt(1000.0), grid, 1000, 10, seed=7)
        assert acc.n_diverged == 0

    def test_worker_count_invariance(self):
        grid = grid_at(1000.0, (0.0, 1.0), 0.1)
        a, b = (run_truncated_wigner(math.sqrt(1000.0), grid, 9000, 18, seed=8,
                                     threads=threads) for threads in (1, 2))
        assert np.array_equal(a.batch_sums, b.batch_sums)
        assert np.array_equal(a.batch_counts, b.batch_counts)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_per_path_reference_kernels(self, monkeypatch, threads):
        # five chunks, so that two workers really share the work
        monkeypatch.setattr(engine, "_CHUNK_TARGET", 600)
        grid = grid_at(1000.0, (0.0, 1.0, 2.5), 0.5)

        def run():
            return run_truncated_wigner(
                math.sqrt(1000.0), grid, 3000, 10, seed=2**64 + 3, threads=threads
            )

        got = run()
        use_reference_kernels(monkeypatch)
        assert_same_accumulators(got, run())


class TestTruncatedWignerLimit:
    """The infinite-path limit of truncated Wigner in closed form
    (tests/helpers.py), the reference that separates TW's truncation bias
    from its sampling error."""

    def test_formula_matches_gaussian_quadrature(self):
        # a direct 2-D Gauss-Hermite average of the exact flow at N <= 10
        for n, taus in ((2.5, (0.3, 1.0)), (10.0, (0.3, 1.0, 3.0))):
            for tau in taus:
                for theta in (2.0 * tau, 0.8):
                    got = tw_limit_cumulants(n, tau, theta)
                    want = tw_flow_cumulants_by_quadrature(n, tau, theta)
                    for g, w in zip(got, want):
                        assert abs(g - w) <= 1e-10 * max(1.0, abs(w)), (n, tau, theta, got, want)

    @pytest.mark.parametrize("n", [10.0, 1e3, 1e6])
    def test_cumulants_vanish_at_time_zero(self, n):
        # the Wigner start is Gaussian
        for theta in (0.0, 1.3):
            k3, k4 = tw_limit_cumulants(n, 0.0, theta)
            assert abs(k3) < 1e-30 and abs(k4) < 1e-30

    @pytest.mark.parametrize("n", [10.0, 1e3, 1e6])
    def test_ensemble_within_four_sigma(self, n):
        grid = grid_at(n, tuple(0.5 * i for i in range(1, 21)), 1e-3)
        acc = run_truncated_wigner(math.sqrt(n), grid, 100_000, 100, seed=1)
        for tau, rep in zip(grid.taus, batch_error(acc)):
            k3, k4 = tw_limit_cumulants(n, tau, 2.0 * tau)
            assert abs(rep.kappa3 - k3) < 4 * rep.sigma3, (tau, rep, k3)
            assert abs(rep.kappa4 - k4) < 4 * rep.sigma4, (tau, rep, k4)


    @pytest.mark.parametrize("n_batches", [1000, 50_000])
    def test_pooled_estimates_unbiased_at_any_batch_size(self, n_batches):
        # 100 and 2 paths per batch: the mean z4 against the limit, over 20
        # outputs and seeds 1-8, is near 0 (one seed's mean alone spreads by
        # about +-1.7); averaging per-batch cumulants gave -3.0 and -82
        n = 1e3
        grid = grid_at(n, tuple(0.5 * i for i in range(1, 21)), 1e-3)
        limit = [tw_limit_cumulants(n, tau, theta)[1] for tau, theta in zip(grid.taus, grid.thetas)]
        z4 = [
            (rep.kappa4 - k4) / rep.sigma4
            for seed in range(1, 9)
            for rep, k4 in zip(batch_error(
                run_truncated_wigner(math.sqrt(n), grid, 100_000, n_batches, seed=seed)), limit)
        ]
        assert abs(np.mean(z4)) <= 0.5, np.mean(z4)

    @pytest.mark.parametrize("n", [1e20, 1e25])
    def test_limit_converged_in_its_working_digits(self, n):
        # the digits grow with N: a run at twice as many agrees, while a
        # fixed 60 digits leaves k4 far off at N = 1e25
        for tau in (1.0, 5.0):
            got = tw_limit_cumulants(n, tau, 2.0 * tau)
            want = tw_limit_cumulants(n, tau, 2.0 * tau, digits=2 * tw_limit_digits(n))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * abs(w), (n, tau, got, want)
        if n == 1e25:
            k4 = tw_limit_cumulants(n, 1.0, 2.0)[1]
            assert abs(tw_limit_cumulants(n, 1.0, 2.0, digits=60)[1] - k4) > 1e3 * abs(k4)


class TestPositivePEnsemble:
    def test_initial_occupation_exact(self):
        # the coherent start is the deterministic pair (alpha0, conj(alpha0));
        # numpy's complex product may fuse a multiply-add, which leaves a
        # rounding-level imaginary occupation when alpha0 has two nonzero parts
        for alpha0, imag_atol in (
            (math.sqrt(1000.0), 0.0), (0.3 + 0.4j, 1e-16), (-2.0, 0.0), (1j * math.sqrt(5), 0.0)
        ):
            n = abs(alpha0) ** 2
            grid = grid_at(n, (0.0,), 1e-3)
            sums, acc = ladder_sums(
                lambda theta: run_positive_p(alpha0, at_phase(grid, theta), 500, 10, seed=0)
            )
            counts = acc.batch_counts
            assert batch_mean(sums[0, 1], counts, 0) == pytest.approx(alpha0, abs=1e-12 * n)
            assert batch_mean(sums[1, 0], counts, 0) == pytest.approx(np.conj(alpha0), abs=1e-12 * n)
            m11 = batch_mean(sums[1, 1], counts, 0)
            assert m11.real == pytest.approx(n, abs=1e-9)
            assert abs(m11.imag) <= imag_atol

    def test_number_conserved_in_time(self):
        n = 1000.0
        grid = grid_at(n, (0.0, 0.25, 0.5), 1e-3)
        sums, acc = ladder_sums(
            lambda theta: run_positive_p(math.sqrt(n), at_phase(grid, theta), 4000, 20, seed=9)
        )
        for k in range(acc.n_outputs):
            m11 = batch_mean(sums[1, 1], acc.batch_counts, k).real
            sigma = max(batch_sigma(sums[1, 1], acc.batch_counts, k), 1e-9)
            assert abs(m11 - n) < 4 * sigma

    def test_worker_count_invariance(self):
        n = 1000.0
        grid = grid_at(n, (0.0, 0.02), 1e-3)
        a, b = (run_positive_p(math.sqrt(n), grid, 9000, 18, seed=10,
                               threads=threads) for threads in (1, 2))
        assert np.array_equal(a.batch_sums, b.batch_sums)

    def test_noise_blocks_replay_whole_gap_draws(self, monkeypatch):
        n = 1000.0
        grid = grid_at(n, (0.0, 0.05), 1e-3)  # one gap of 50 steps

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
        grid = grid_at(n, (0.0, 0.02), 1e-3)
        a = run_positive_p(math.sqrt(n), grid, 500, 10, seed=1)
        b = run_positive_p(math.sqrt(n), grid, 500, 10, seed=2)
        assert not np.array_equal(a.batch_sums[-1], b.batch_sums[-1])

    def test_excessive_divergence_aborts(self, monkeypatch):
        # an escape radius of 1e-6 sqrt(N), far inside every path
        monkeypatch.setattr(engine, "ESCAPE_RADIUS_FACTOR", 1e-6)
        n = 1000.0
        grid = grid_at(n, (0.0, 0.01), 1e-3)
        with pytest.raises(ExcessiveDivergence):
            run_positive_p(math.sqrt(n), grid, 200, 10, seed=0)

    def test_diverged_paths_counted_and_excluded(self, monkeypatch):
        monkeypatch.setattr(engine, "ESCAPE_RADIUS_FACTOR", 1e-6)
        n = 1000.0
        grid = grid_at(n, (0.0, 0.01), 1e-3)
        acc = run_positive_p(math.sqrt(n), grid, 200, 10, seed=0, divergence_threshold=1.0)
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
        grid = grid_at(n, (tau,), 1e-3)
        sums, _ = ladder_sums(
            lambda theta: run_positive_p(a0, at_phase(grid, theta), m, m, seed=seed)
        )
        dt = grid.dt
        n_steps = grid.steps_between()[0]
        draws = chunk_signs(seed, 0, n_steps, m)
        for traj in range(m):
            dw = math.sqrt(dt) * draws[:, :, traj]
            a1_ref, a2s_ref = scalar_midpoint_path(model, (a0, a0), dt, n_steps, dw)
            a1 = sums[0, 1][0, traj]
            a2s = sums[1, 0][0, traj]
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
        y = midpoint_path(y0, 1e-3, 200)
        for i in range(2):
            ref = scalar_midpoint_path(model, y0[:, i], 1e-3, 200, np.zeros((200, 2)))
            for j in range(2):
                assert abs(y[j, i] - ref[j]) < 1e-13 * abs(ref[j])


class TestLadderSums:
    """The rebuild of a, abar and abar a from the quadratures at theta = 0 and pi/2."""

    @pytest.mark.parametrize("run_ensemble", [run_truncated_wigner, run_positive_p])
    def test_two_quadratures_rebuild_each_path(self, monkeypatch, run_ensemble):
        # one path per batch, so each batch sum is one path's value; a spy on
        # the power kernel records the amplitudes each run passes it
        n = 1000.0
        grid = grid_at(n, (0.0, 0.05, 0.1), 1e-3)
        kernel = engine.bulk_monomials
        seen = {}

        def run(theta):
            def spy(phase, a, b, representation, centre, out=None):
                # a Wigner amplitude arrives as its phasor 2 a
                if representation == WIGNER:
                    alpha = 0.5 * a
                    seen[theta].append((alpha, np.conj(alpha)))
                else:
                    seen[theta].append((a.copy(), b.copy()))
                return kernel(phase, a, b, representation, centre, out)

            seen[theta] = []
            monkeypatch.setattr(engine, "bulk_monomials", spy)
            return run_ensemble(math.sqrt(n), at_phase(grid, theta), 64, 64, seed=3)

        sums, acc = ladder_sums(run)
        assert acc.n_paths == 64
        at_zero, at_right_angle = seen.values()
        # the draws do not depend on theta
        for (a, abar), (a_, abar_) in zip(at_zero, at_right_angle, strict=True):
            assert np.array_equal(a, a_) and np.array_equal(abar, abar_)
        for k, (a, abar) in enumerate(at_zero):
            np.testing.assert_allclose(sums[0, 1][k], a, rtol=1e-14)
            np.testing.assert_allclose(sums[1, 0][k], abar, rtol=1e-14)
            np.testing.assert_allclose(sums[1, 1][k], abar * a, rtol=1e-14)


class TestPositivePAgainstOracle:
    def test_short_time_cumulants(self):
        import anharmonic.oracle as orc

        n = 1000.0
        grid = grid_at(n, (0.5, 1.0), 1e-3)
        acc = run_positive_p(math.sqrt(n), grid, 4000, 20, seed=3)
        series = orc.cumulant_series(orc.init_coherent(math.sqrt(n)), grid)
        for rep, exact in zip(batch_error(acc), series):
            assert abs(rep.kappa3 - exact.kappa3) < 4 * rep.sigma3
            assert abs(rep.kappa4 - exact.kappa4) < 4 * rep.sigma4


def test_weak_order_cumulants_agree_at_half_step():
    # two-point increments match the Wiener moments a weak order-1 scheme
    # needs, so halving dtau moves no cumulant beyond its sampling error;
    # the two runs draw from different seeds, so their errors are independent
    n = 1000.0
    taus = (0.25, 0.5, 0.75, 1.0)
    coarse, fine = (
        batch_error(run_positive_p(math.sqrt(n), grid_at(n, taus, dtau), 16384, 64, seed=seed))
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


class TestBatchLayout:
    """The batch edges and the chunk partition, on which a path's draws depend."""

    @pytest.mark.parametrize("run", [run_truncated_wigner, run_positive_p])
    @pytest.mark.parametrize("n_paths, n_batches", [(5, 10), (0, 10), (100, 0), (-5, 10), (0, 0)])
    def test_rejects_batch_counts_it_cannot_run(self, run, n_paths, n_batches):
        # every batch needs at least one path: one ValueError names both counts
        grid = grid_at(1000.0, (0.0, 0.01), 1e-3)
        with pytest.raises(ValueError, match=rf"got {n_batches} batches of {n_paths} paths"):
            run(math.sqrt(1000.0), grid, n_paths, n_batches)

    @pytest.mark.parametrize(
        "n_paths, n_batches, want",
        [
            # tw_acceptance: batches of 1000 paths, eight to a chunk
            (100000, 100, [(b, min(b + 8, 100)) for b in range(0, 100, 8)]),
            # pp_short: batches of 256 paths, 32 to a chunk
            (32768, 128, [(0, 32), (32, 64), (64, 96), (96, 128)]),
            # tw_dense_grid and its shift-invariance pair: batches of 128 paths
            (16384, 128, [(0, 64), (64, 128)]),
            # the escaped-path positive-P config: two chunks of 8192 paths
            (16384, 16, [(0, 8), (8, 16)]),
            # one batch of 1701 paths and nine of 1700: chunks of 4, 4 and 2
            (17001, 10, [(0, 4), (4, 8), (8, 10)]),
        ],
    )
    def test_chunk_partition_of_fixed_configs(self, n_paths, n_batches, want):
        assert engine._chunk_batch_groups(engine.batch_edges(n_paths, n_batches)) == want

    @pytest.mark.parametrize("run", [run_truncated_wigner, run_positive_p])
    def test_more_workers_than_cpus_sum_into_one_accumulator(self, monkeypatch, run):
        # twelve one-batch chunks on eight workers, with thread switches
        # forced often: each chunk sums into its own batches of the shared
        # accumulator, so the result is that of one worker, bit for bit
        monkeypatch.setattr(engine, "_CHUNK_TARGET", 250)
        monkeypatch.setattr(engine, "_available_cpus", lambda: 8)
        grid = grid_at(1000.0, (0.0, 0.01, 0.02), 1e-3)
        want = run(math.sqrt(1000.0), grid, 3000, 12, seed=4, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run(math.sqrt(1000.0), grid, 3000, 12, seed=4, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert_same_accumulators(got, want)

    def test_edges_and_partition_match_the_batch_by_batch_rule(self, monkeypatch):
        cases = [(n, b) for n in range(1, 90) for b in range(1, n + 1, 3)]
        cases += [(17001, 10), (100000, 100), (32768, 128), (8193, 2), (8191, 3)]
        for target in (1, 2, 5, 64, 600, 8192):
            monkeypatch.setattr(engine, "_CHUNK_TARGET", target)
            for n_paths, n_batches in cases:
                edges = engine.batch_edges(n_paths, n_batches)
                slices = batch_slices(n_paths, n_batches)
                assert list(zip(edges[:-1], edges[1:])) == slices
                assert engine._chunk_batch_groups(edges) == greedy_chunk_groups(slices, target)


class TestStreamingReduction:
    """Per-output batch sums against a reduction of the whole power block."""

    # 2995 paths in 10 batches: five of 300 and five of 299.  With at most
    # 600 paths per chunk that is five chunks, one of which mixes the sizes.
    N_PATHS = 2995

    def compare(self, monkeypatch, kernel_name, run):
        monkeypatch.setattr(engine, "_CHUNK_TARGET", 600)
        got = run()
        reference = full_block_kernel(getattr(engine, kernel_name))
        monkeypatch.setattr(engine, kernel_name, reference)
        want = run()
        assert_same_accumulators(got, want)
        return got

    @pytest.mark.parametrize("threads", [1, 2])
    def test_truncated_wigner(self, monkeypatch, threads):
        grid = grid_at(1000.0, (0.0, 1.0, 2.5, 4.0), 0.5)
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
        # an escape radius of 32, just outside the start |alpha0| = sqrt(N)
        monkeypatch.setattr(engine, "ESCAPE_RADIUS_FACTOR", 32.0 / math.sqrt(n))
        grid = grid_at(n, (0.0, 0.01, 0.02), 1e-3)
        acc = self.compare(
            monkeypatch,
            "_positive_p_chunk",
            lambda: run_positive_p(
                math.sqrt(n), grid, self.N_PATHS, 10, seed=5, threads=threads,
                divergence_threshold=1.0,
            ),
        )
        # some paths, not all, escape after the tau = 0 output, so the
        # retroactive exclusion reaches back across outputs
        assert 0 < acc.n_diverged < self.N_PATHS
        assert acc.n_paths == self.N_PATHS - acc.n_diverged

    def test_escaped_paths_add_nothing_about_a_nonzero_centre(self, monkeypatch):
        # one path per batch: a batch whose path escaped sums to zero at every
        # output, though a zero state's quadrature would sit -c off the centre
        n = 1000.0
        monkeypatch.setattr(engine, "ESCAPE_RADIUS_FACTOR", 32.0 / math.sqrt(n))
        grid = grid_at(n, (0.0, 0.01, 0.02), 1e-3)
        acc = run_positive_p(math.sqrt(n), grid, 400, 400, seed=5, divergence_threshold=1.0)
        dead = acc.batch_counts == 0
        assert 0 < np.count_nonzero(dead) < 400
        assert np.all(np.abs(acc.centres) > 60.0)
        assert not acc.batch_sums[:, dead].any()

    @pytest.mark.parametrize(
        "n_paths, n_batches",
        [(1001, 7), (64 * 5 + 3, 5), (128 * 4 + 2, 4), (130 * 3, 3), (1000 * 2 + 1, 2), (1, 1), (257, 1)],
    )
    def test_reduction_helper_matches_per_slice_sums(self, n_paths, n_batches):
        # positive-P pairs and Wigner phasors, each at three phases
        rng = np.random.default_rng(n_paths)
        amplitudes = rng.normal(size=(3, 2, n_paths)) + 1j * rng.normal(size=(3, 2, n_paths))
        thetas = (0.0, 0.7, 4.1)
        centres = (0.0, -1.5, 2.25)
        edges = engine.batch_edges(n_paths, n_batches)
        for representation, dtype, pairs in (
            (POSITIVE_P, np.complex128, [tuple(pair) for pair in amplitudes]),
            (WIGNER, np.float64, [wigner_phasor(a) for a, _ in amplitudes]),
        ):
            got = np.full((3, n_batches, N_POWERS), np.nan, dtype=dtype)
            engine._batch_power_sums(representation, iter(pairs), thetas, centres, edges, got)
            for out, theta, centre, pair in zip(got, thetas, centres, pairs):
                want = per_slice_batch_sums(
                    bulk_monomials(theta, *pair, representation, centre), edges
                )
                assert np.array_equal(out, want)


class TestMemoryBound:
    """Chunk memory does not hold a power block per output.

    At 2048 paths and 1001 outputs the whole (n_out, 4, m) float64 block
    would be 66 MB.  A truncated-Wigner chunk holds one (4, m) block, so
    only the (n_out, n_batches, 4) sums may grow; a positive-P chunk also
    keeps every output's (2, m) state, 32 B per path per output.
    """

    BOUND = 32 * 2**20
    GRID = grid_at(1000.0, tuple(0.01 * i for i in range(1001)), 0.01)

    def traced_peak(self, run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_truncated_wigner(self):
        peak = self.traced_peak(
            lambda: run_truncated_wigner(
                math.sqrt(1000.0), self.GRID, 2048, 10, seed=1, threads=1
            )
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
        # (4, m) power block, about 10 of them; the bound allows 24.
        grid = grid_at(1000.0, (0.0, 2.0), 1e-3)

        def run(m):
            return run_positive_p(
                math.sqrt(1000.0), grid, m, 10, seed=1, threads=1,
                divergence_threshold=1.0,
            )

        run(10)  # one-time imports and allocations, outside the trace
        peak = self.traced_peak(lambda: run(2048))
        assert peak < 2**20 + 24 * (2 * 2048 * 16), peak
