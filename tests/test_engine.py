import cmath
import itertools
import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from anharmonic import engine
from anharmonic.engine import (
    TimeGrid,
    exact_wigner_flow,
    positive_p_pairs,
    run_positive_p,
    run_truncated_wigner,
)
from anharmonic.moments import N_POWERS, OrderingViolation, batch_error, bulk_monomials
from anharmonic.sampling import RandomStream, sample_wigner_coherent, stream_for_trajectory
from helpers import (
    ANCHOR_EVERY,
    FrozenSigns,
    at_phase,
    batch_slices,
    chunk_philox,
    chunk_signs,
    closed_form_flow,
    complex_terms,
    full_block_power_sums,
    greedy_chunk_groups,
    grid_at,
    kerr_positive_p_model,
    ladder_sums,
    linear_path_solution,
    pair_quadrature,
    per_slice_batch_sums,
    quadrature_rounding_bound,
    reference_wigner_coherent,
    rounding_phase,
    scalar_log_path,
    stack_powers,
    tw_flow_cumulants_by_quadrature,
    tw_limit_cumulants,
    tw_limit_digits,
    wigner_quadrature,
    without_noise,
)


def exact_at(a0, t):
    """Exact truncated-Wigner flow of one amplitude at one time, from the
    flow's phasor z = 2 alpha(t) at phase 0."""
    (z,) = next(exact_wigner_flow(np.array([complex(a0)]), [t], [0.0]))
    return 0.5 * complex(z)


def noise_free_flow(a0, taus, dtau):
    """alpha1 of the positive-P flow at each output of a grid at N = 1, one
    path from (a0, conj(a0)) with the noise coefficients set to zero."""
    grid = grid_at(1.0, taus, dtau)
    with pytest.MonkeyPatch.context() as patch:
        without_noise(patch)
        return [complex(a[0]) for a, _ in positive_p_pairs(a0, grid, stream_for_trajectory(0, 0), 1)]


def batch_mean(sums, counts, k):
    """Pooled mean at output k of per-batch sums of shape (n_out, n_batches)."""
    return sums[k].sum() / counts.sum()


def stacked_bulk_monomials(centre, x, out=None):
    """bulk_monomials by whole-array operations: stack_powers of x about centre."""
    return stack_powers(x, centre)


def assert_within_flow_rounding(init, grid, flow):
    """Each output's x from ``flow`` lies within quadrature_rounding_bound of
    its value at 60 digits, per path."""
    omega = 2.0 * (init.real**2 + init.imag**2) - 1.0
    with mpmath.workdps(60):
        amplitudes = [(mpmath.mpf(a.real), mpmath.mpf(a.imag)) for a in init]
        rates = [2 * (re**2 + im**2) - 1 for re, im in amplitudes]
        for k, (t, theta, z) in enumerate(zip(grid.times, grid.thetas, flow, strict=True)):
            x = z.real
            bound = quadrature_rounding_bound(rounding_phase(omega, t, theta, k), 2.0 * np.abs(init))[0]
            for got, limit, (re, im), rate in zip(x, bound, amplitudes, rates):
                cos, sin = mpmath.cos_sin(rate * t + theta)
                assert abs(got - 2 * (re * cos + im * sin)) <= limit, (grid.n_particles, k)


def use_reference_kernels(monkeypatch):
    """A directly built chunk Philox, the reference Wigner start and stacked
    powers, in place of the stream, the block sampler and the block kernel."""
    monkeypatch.setattr(engine, "stream_for_trajectory", chunk_philox)
    monkeypatch.setattr(engine, "sample_wigner_coherent", reference_wigner_coherent)
    monkeypatch.setattr(engine, "bulk_monomials", stacked_bulk_monomials)


def assert_same_accumulators(got, want):
    assert got.batch_sums.shape == want.batch_sums.shape
    assert np.array_equal(got.batch_sums, want.batch_sums)
    assert np.array_equal(got.batch_counts, want.batch_counts)


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

    def test_step_is_optional_until_read(self):
        # only positive-P reads dtau: a grid without one serves the other
        # runs, and its step count, the first thing positive-P reads, names
        # dtau when asked for
        grid = TimeGrid(1000.0, (0.0, 0.5), (0.0, 1.0))
        assert grid.dtau is None and grid.times == (0.0, 0.0005)
        with pytest.raises(ValueError, match="dtau"):
            grid.steps_between()
        with pytest.raises(ValueError, match="dtau"):
            run_positive_p(math.sqrt(1e3), grid, 100, 10)

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
            flow = exact_wigner_flow(np.array([alpha0]), grid.times, grid.thetas)
            for k, (t, theta, centre, z) in enumerate(zip(grid.times, grid.thetas, centres, flow,
                                                           strict=True)):
                y = bulk_monomials(centre, z.real)[0, 0]
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
        # on a grid of 5001 outputs at theta = 2 tau, output 0 is
        # alpha(0) 2 exp(-i theta) with no exponential, and every 64th after
        # it exp(-i omega t) alpha(0) 2 exp(-i theta), bit for bit, so
        # rounding built up by the rotations does not carry past an anchor.
        # Every other output is the one before times its step's rotation,
        # derived from the first step's exp(-i (omega dt0 + dtheta0)): the
        # grid's steps differ from the first only by rounding, far inside
        # 2^-27.  Each output is its own array, so outputs kept in a list
        # keep their values
        n = 1e6
        rng = np.random.default_rng(31)
        init = math.sqrt(n) + 0.5 * (rng.normal(size=64) + 1j * rng.normal(size=64))
        taus = np.linspace(0.0, 10.0, 5001)
        times, thetas = taus / n, 2.0 * taus
        omega = 2.0 * (init.real**2 + init.imag**2) - 1.0
        gap0, turn0 = times[1] - times[0], thetas[1] - thetas[0]
        base = np.exp(-1j * (gap0 * omega + turn0))
        outputs = list(exact_wigner_flow(init, times, thetas))
        assert len(outputs) == len(times)
        corrections = set()
        for k, (t, theta, z) in enumerate(zip(times, thetas, outputs)):
            phase = 2.0 * cmath.exp(-1j * theta)
            if k == 0:
                assert np.array_equal(z, init * phase)
            elif k % ANCHOR_EVERY == 0:
                assert np.array_equal(z, np.exp(-1j * (t * omega)) * init * phase), t
            else:
                delta, shift = t - times[k - 1] - gap0, theta - thetas[k - 1] - turn0
                assert np.abs(omega).max() * abs(delta) + abs(shift) <= 2.0**-27
                corrections.add((delta, shift))
                rotation = base * (1.0 - 1j * (omega * delta + shift))
                assert np.array_equal(z, outputs[k - 1] * rotation), t
        assert len(corrections) > 2 * 4

    def test_non_uniform_grid_takes_an_exponential_per_step(self):
        # geomspace tau, theta = 2 tau: no step lies within 2^-27 of the
        # first, so each takes its own exp(-i (omega dt + dtheta)), bit for
        # bit, and x stays within the flow's rounding bound of its value at
        # 60 digits
        n = 1e3
        taus = np.geomspace(1e-3, 10.0, 300)
        grid = TimeGrid(n, tuple(taus), tuple(2.0 * taus))
        init = sample_wigner_coherent(math.sqrt(n), stream_for_trajectory(1, 0), 2)
        omega = 2.0 * (init.real**2 + init.imag**2) - 1.0
        times, thetas = grid.times, grid.thetas
        outputs = list(exact_wigner_flow(init, times, thetas))
        for k in range(1, len(outputs)):
            if k % ANCHOR_EVERY:
                step = (times[k] - times[k - 1]) * omega + (thetas[k] - thetas[k - 1])
                assert np.array_equal(outputs[k], outputs[k - 1] * np.exp(-1j * step)), k
        assert_within_flow_rounding(init, grid, outputs)

    @pytest.mark.parametrize("n", [1e3, 1e6, 1e18])
    def test_quadrature_within_rounding_bound_of_exact(self, n):
        # tau in [0, 10] at 10001 outputs, theta = 2 tau: every output's x
        # lies within 4 eps (1 + |omega t| + |theta| + j) 2 |alpha(0)| of its
        # value at 60 digits, j the products since its anchor (at most 416
        # units of eps 2 |alpha(0)| here).  The anchored flow stays within 21
        # of them; the same rotations without anchors drift to 1700-2200
        grid = grid_at(n, np.linspace(0.0, 10.0, 10001), 1e-3)
        init = sample_wigner_coherent(math.sqrt(n), stream_for_trajectory(1, 0), 2)
        assert_within_flow_rounding(init, grid, exact_wigner_flow(init, grid.times, grid.thetas))

    def test_rotations_kept_within_their_cap(self):
        # a log-spaced grid of 200 outputs has 199 distinct gaps: the flow
        # keeps at most 4 rotations of shape (m,), 256 KiB here, and holds
        # at most six more arrays of that size while it runs
        m = 4096
        init = sample_wigner_coherent(math.sqrt(1e3), stream_for_trajectory(1, 0), m)
        times = np.geomspace(1e-6, 1e-2, 200)
        assert len(set(np.diff(times))) == 199
        tracemalloc.start()
        try:
            for _ in exact_wigner_flow(init, times, np.zeros_like(times)):
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
        for z in exact_wigner_flow(init, times, np.zeros_like(times)):
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


class TestPositivePStep:
    """The positive-P flow in log variables, on one path (m = 1) unless stated.

    The noise-free tests run it from (a0, conj(a0)) on zero increments.
    """

    def test_coefficients_are_the_derived_kerr_model(self):
        # the flow's constants are the Stratonovich positive-P Kerr model,
        # term for term: drift (c0 a* a^2, c1 a*^2 a), noise (n0 a, n1 a*)
        model = kerr_positive_p_model()
        assert model.convention == "stratonovich"
        assert [complex_terms(poly) for poly in model.drift] == [
            {(1, 2): engine.KERR_DRIFT[0]}, {(2, 1): engine.KERR_DRIFT[1]}
        ]
        assert [complex_terms(poly) for poly in model.noise] == [
            {(0, 1): engine.KERR_NOISE[0]}, {(1, 0): engine.KERR_NOISE[1]}
        ]

    def test_noise_free_rotation_conserves_modulus(self):
        # from (a0, conj(a0)) the noise-free Kerr flow is a phase rotation
        a0 = 1.0 + 0.5j
        for a in noise_free_flow(a0, (0.0, 0.05, 0.1), 1e-3):
            assert abs(abs(a) - abs(a0)) <= 4 * sys.float_info.epsilon * abs(a0)

    def test_noise_free_flow_within_ulps_of_exact(self):
        # one step, and a window of 250 to 500 steps off the start, at two
        # step sizes
        for a0, dtau, taus in itertools.product(
            (1.1 + 0.0j, 1.1 + 0.4j, -0.3 + 2.0j),
            (1e-3, 5e-4),
            ((0.0, 1e-3), (0.25, 0.5)),
        ):
            assert_noise_free_within_ulps(a0, taus, dtau)


def assert_noise_free_within_ulps(a0, taus, dtau):
    """alpha1(t) = a0 exp(-2i n t), n = |a0|^2, at 60 digits: after K steps
    the flow's phase 2 I = 2 dt (n + ... + n) carries at most K + 2
    roundings of its size, and its exponential and product 4 eps, so
    |alpha1 - exact| <= eps |a0| (4 + (K + 2) 2 n t) at each output."""
    eps = sys.float_info.epsilon
    steps = grid_at(1.0, taus, dtau).steps_between()
    for k, (tau, a) in enumerate(zip(taus, noise_free_flow(a0, taus, dtau))):
        with mpmath.workdps(60):
            n = mpmath.mpf(a0.real) ** 2 + mpmath.mpf(a0.imag) ** 2
            t = sum(steps[: k + 1]) * mpmath.mpf(dtau)
            exact = mpmath.mpc(a0.real, a0.imag) * mpmath.exp(-2j * n * t)
            bound = eps * abs(a0) * (4 + (sum(steps[: k + 1]) + 2) * 2 * float(n * t))
            assert abs(a - complex(exact)) <= bound, (dtau, tau, a, exact)


class TestMidpointStep:
    """One step of the positive-P flow: ln n moves by its increment
    sqrt(dt) (n0 xi1 + n1 xi2) exactly, and the drift integral I by dt times
    the mean of n at the step's two ends, the Stratonovich midpoint rule.

    The reference is the exact solution on the piecewise-linear noise path
    through the same increments, on which that mean is the only error.
    """

    def test_single_step_matches_exact_to_dt_squared(self):
        # for each sign pair mu^2 = +-4 dt, so the midpoint's error in I is
        # n dt mu^2 / 12 to leading order, and in alpha1 |a0 c0| n dt^2 / 3:
        # within 10% of that, so halving dt shrinks it ~4x
        model = kerr_positive_p_model()
        a0 = 1.1 + 0.4j
        n = abs(a0) ** 2
        pairs = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]]).T[None]
        errors = []
        for dt in (1e-3, 5e-4):
            grid = grid_at(1.0, (dt,), dt)
            ((a, _),) = positive_p_pairs(a0, grid, FrozenSigns(pairs), 4)
            error = np.abs(a - linear_path_solution(model, a0, dt, pairs))
            lead = abs(a0 * engine.KERR_DRIFT[0]) * n * dt**2 / 3
            assert np.all(np.abs(error - lead) <= 0.1 * lead), (dt, error, lead)
            errors.append(error)
        assert np.all(errors[0] / errors[1] > 3.5)

    def test_deterministic_global_second_order(self):
        # without noise n is constant, so the midpoint rule integrates it
        # exactly: the global error at t = 0.5 is rounding alone, at both
        # step sizes, over 250 to 1000 steps
        for a0, dtau in itertools.product((1.1 + 0.0j, 1.1 + 0.4j, -0.3 + 2.0j), (2e-3, 1e-3)):
            assert_noise_free_within_ulps(a0, (0.0, 0.5), dtau)

    @pytest.mark.parametrize("n, bound", [(10.0, 1e-8), (1e3, 2e-11)])
    def test_step_solves_its_equation(self, n, bound):
        # 1000 +-1 steps of 4096 paths, in blocks of 16 steps, and of 40
        # paths, in one block of all 1000 (past what a uint8 bit count
        # holds), from the coherent start stay within bound (relative) of the
        # recursion solved in closed form on the same increments; the
        # running product of factors gives 1.0e-13 and 2.0e-14
        grid = grid_at(n, (1.0,), 1e-3)
        a0 = math.sqrt(n)
        for m in (4096, 40):
            ((a, b),) = positive_p_pairs(a0, grid, stream_for_trajectory(1, 0), m)
            ((ra, rb),) = closed_form_flow(a0, grid, stream_for_trajectory(1, 0), m)
            assert np.isfinite(ra).all() and np.isfinite(rb).all()
            assert np.max(np.abs(a - ra) / np.abs(ra)) <= bound, m
            assert np.max(np.abs(b - rb) / np.abs(rb)) <= bound, m

    def test_ensemble_follows_the_converged_step(self, monkeypatch):
        # N = 10 to tau = 3: with the closed-form recursion in place of the
        # flow, the same paths are finite, and every cumulant agrees within
        # 1e-3 of its sampling error
        n = 10.0
        grid = grid_at(n, (1.0, 2.0, 3.0), 1e-3)

        def run():
            acc = run_positive_p(math.sqrt(n), grid, 2048, 16, seed=1, threads=1)
            return batch_error(acc), np.isfinite(acc.batch_sums)

        got, finite = run()
        monkeypatch.setattr(engine, "positive_p_pairs", closed_form_flow)
        want, want_finite = run()
        assert finite.all() and np.array_equal(finite, want_finite)
        (k3, _, k4, _), (w3, s3, w4, s4) = got, want
        assert np.all(np.abs(k3 - w3) <= 1e-3 * s3)
        assert np.all(np.abs(k4 - w4) <= 1e-3 * s4)

    def test_divergence_flagging(self, monkeypatch):
        # from alpha0 = 1e153 without noise, I = dt K n overflows at the
        # 180th step: every path is finite at the outputs before it and NaN
        # at each after; in the ensemble every path is kept and leaves its
        # NaN in the last output's sums, which the estimates refuse, with no
        # overflow warning on the way
        grid = grid_at(1.0, (0.0, 0.1, 0.2, 0.3), 1e-3)
        with monkeypatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
            without_noise(patch)
            outputs = list(positive_p_pairs(1e153, grid, stream_for_trajectory(0, 0), 3))
        for k, pair in enumerate(outputs):
            assert np.isfinite(pair).all() if k < 2 else np.isnan(pair).all()
        acc = run_positive_p(1e153, grid, 20, 10, seed=0)
        assert acc.n_paths == 20
        assert np.isnan(acc.batch_sums[-1]).all()
        with pytest.raises(OrderingViolation, match="is nan"):
            batch_error(acc)

    def test_strong_order_at_least_half_on_frozen_paths(self):
        # 100 frozen +-1 paths per step size at N = 1000 to t = 0.2 / N: the
        # mean distance to the exact solution on each path's piecewise-linear
        # interpolation shrinks by >= 1.3 as the step halves
        model = kerr_positive_p_model()
        n = 1000.0
        a0 = math.sqrt(n)
        rng = np.random.default_rng(42)
        errors = []
        for n_steps in (50, 100, 200):
            grid = grid_at(n, (0.2,), 0.2 / n_steps)
            signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_steps, 2, 100))
            ((a, _),) = positive_p_pairs(a0, grid, FrozenSigns(signs), 100)
            errors.append(np.mean(np.abs(a - linear_path_solution(model, a0, grid.dt, signs))))
        assert errors[0] / errors[1] >= 1.3
        assert errors[1] / errors[2] >= 1.3


def sign_increments(seed, n, dt):
    """n samples of the complex noise pair xi dt = (1+i) sqrt(dt) xi, shape (n, 2).

    The +-1 increments xi = 2 b - 1 are one (2, n) step of the chunk
    stream's bits b, as a positive-P chunk of n paths draws them, transposed.
    """
    xi = 2.0 * stream_for_trajectory(seed, 0).bits(1, 2 * n).reshape(2, n).T - 1.0
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
        k3, sigma3, k4, sigma4 = batch_error(acc)
        assert abs(k3[0]) < 4 * sigma3[0]
        assert abs(k4[0]) < 4 * sigma4[0]

    def test_occupation_offset_half_quantum(self):
        n = 1000.0
        grid = grid_at(n, (0.0, 2.0, 7.0), 0.5)
        sums, acc = ladder_sums(lambda theta: run_truncated_wigner(
            math.sqrt(n), at_phase(grid, theta), 20_000, 100, seed=6
        ))
        for k in range(len(acc.centres)):
            m11 = batch_mean(sums[1, 1], acc.batch_counts, k).real
            sigma = batch_sigma(sums[1, 1], acc.batch_counts, k)
            assert abs(m11 - 0.5 - n) < 4 * sigma

    def test_time_zero_estimates_do_not_depend_on_n(self):
        # one seed gives the same draws about sqrt(N) at every N, so the
        # tau = 0 estimates agree to rounding, while the fourth power of the
        # quadrature itself reaches (2 sqrt(N))^4 = 1.6e25 at N = 1e12
        def at(n):
            grid = grid_at(n, (0.0,), 1e-3)
            acc = run_truncated_wigner(math.sqrt(n), grid, 16384, 128, seed=1)
            k3, _, k4, sigma4 = batch_error(acc)
            return np.array([k3[0], k4[0], sigma4[0]])

        want = at(1e3)
        for n in (1e6, 1e8, 1e12):
            got = at(n)
            assert np.all(np.abs(got - want) <= 1e-9), (n, got, want)

    def test_no_divergence_possible(self):
        grid = grid_at(1000.0, (0.0, 5.0), 1e-3)
        acc = run_truncated_wigner(math.sqrt(1000.0), grid, 1000, 10, seed=7)
        assert acc.n_paths == 1000 and np.all(acc.batch_counts == 100)

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
        got = zip(*batch_error(acc))
        for tau, (k3, sigma3, k4, sigma4) in zip(grid.taus, got):
            exact3, exact4 = tw_limit_cumulants(n, tau, 2.0 * tau)
            assert abs(k3 - exact3) < 4 * sigma3, (tau, k3, sigma3, exact3)
            assert abs(k4 - exact4) < 4 * sigma4, (tau, k4, sigma4, exact4)


    @pytest.mark.parametrize("n_batches", [1000, 50_000])
    def test_pooled_estimates_unbiased_at_any_batch_size(self, n_batches):
        # 100 and 2 paths per batch: the mean z4 against the limit, over 20
        # outputs and seeds 1-8, is near 0 (one seed's mean alone spreads by
        # about +-1.7); averaging per-batch cumulants gave -3.0 and -82
        n = 1e3
        grid = grid_at(n, tuple(0.5 * i for i in range(1, 21)), 1e-3)
        limit = [tw_limit_cumulants(n, tau, theta)[1] for tau, theta in zip(grid.taus, grid.thetas)]
        z4 = []
        for seed in range(1, 9):
            _, _, k4, sigma4 = batch_error(
                run_truncated_wigner(math.sqrt(n), grid, 100_000, n_batches, seed=seed))
            z4.extend((k4 - np.array(limit)) / sigma4)
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
        for k in range(len(acc.centres)):
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
        bits = RandomStream.bits

        def spy(stream, n_steps, width):
            sizes.append(n_steps * width)
            return bits(stream, n_steps, width)

        monkeypatch.setattr(RandomStream, "bits", spy)
        assert_same_accumulators(run(), whole)
        assert sizes == [14 * 200] * 7 + [2 * 200]

    def test_seed_changes_results(self):
        n = 1000.0
        grid = grid_at(n, (0.0, 0.02), 1e-3)
        a = run_positive_p(math.sqrt(n), grid, 500, 10, seed=1)
        b = run_positive_p(math.sqrt(n), grid, 500, 10, seed=2)
        assert not np.array_equal(a.batch_sums[-1], b.batch_sums[-1])

    def test_excessive_divergence_aborts(self):
        # at N = 2 to tau = 8 the doubled-phase-space paths genuinely
        # diverge: every path is kept, some overflow, and the estimates
        # refuse the NaN they leave
        grid = grid_at(2.0, (0.0, 8.0), 1e-3)
        acc = run_positive_p(math.sqrt(2.0), grid, 300, 10, seed=0)
        assert acc.n_paths == 300
        with pytest.raises(OrderingViolation, match="is nan"):
            batch_error(acc)

    @staticmethod
    def assert_chunk_matches_scalar_stepper(tau, m, seed, rel):
        # same trajectory, same noise: chunked numpy flow vs scalar closed
        # form; path traj takes column traj of the chunk's step-major
        # (n_steps, 2, m) +-1 increments, one path per batch
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
            a1_ref, a2s_ref = scalar_log_path(model, a0, dt, draws[:, :, traj])
            a1 = sums[0, 1][0, traj]
            a2s = sums[1, 0][0, traj]
            assert abs(a1 - a1_ref) < rel * abs(a1)
            assert abs(a2s - a2s_ref) < rel * abs(a2s)

    def test_vector_kernel_matches_scalar_stepper(self):
        self.assert_chunk_matches_scalar_stepper(0.05, 3, 13, 1e-13)

    def test_vector_kernel_matches_scalar_stepper_over_benchmark_gap(self):
        # pp_short's N and output gap (250 steps), 32 paths: the table-driven
        # flow keeps every column within 1e-12 of the scalar closed form
        self.assert_chunk_matches_scalar_stepper(0.25, 32, 21, 1e-12)

    def test_kernel_matches_scalar_reference_without_noise(self, monkeypatch):
        model = kerr_positive_p_model()
        grid = grid_at(1.0, (0.2,), 1e-3)
        without_noise(monkeypatch)
        for a0 in (1.1 + 0.4j, -0.3 + 2.0j):
            ((a, b),) = positive_p_pairs(a0, grid, stream_for_trajectory(0, 0), 2)
            ref = scalar_log_path(model, a0, grid.dt, np.zeros((200, 2)))
            for got, want in ((a, ref[0]), (b, ref[1])):
                assert np.all(np.abs(got - want) < 1e-13 * abs(want))


class TestLadderSums:
    """The rebuild of a, abar and abar a from the quadratures at theta = 0 and pi/2."""

    @pytest.mark.parametrize("run_ensemble", [run_truncated_wigner, run_positive_p])
    def test_two_quadratures_rebuild_each_path(self, monkeypatch, run_ensemble):
        # one path per batch, so each batch sum is one path's value; a spy on
        # the flow records the amplitudes each run forms (for truncated
        # Wigner its phasors exp(-i theta) 2 a), and one on the Wigner
        # sampler the initial draws
        n = 1000.0
        grid = grid_at(n, (0.0, 0.05, 0.1), 1e-3)
        name = "exact_wigner_flow" if run_ensemble is run_truncated_wigner else "positive_p_pairs"
        flow, sample = getattr(engine, name), engine.sample_wigner_coherent
        seen, draws = {}, {}

        def run(theta):
            def spy(*args):
                for out in flow(*args):
                    if run_ensemble is run_truncated_wigner:
                        alpha = 0.5 * cmath.exp(1j * theta) * out
                        seen[theta].append((alpha, np.conj(alpha)))
                    else:
                        seen[theta].append((out[0].copy(), out[1].copy()))
                    yield out

            def sampled(*args):
                draws[theta].append(sample(*args))
                return draws[theta][-1]

            seen[theta], draws[theta] = [], []
            monkeypatch.setattr(engine, name, spy)
            monkeypatch.setattr(engine, "sample_wigner_coherent", sampled)
            return run_ensemble(math.sqrt(n), at_phase(grid, theta), 64, 64, seed=3)

        sums, acc = ladder_sums(run)
        assert acc.n_paths == 64
        at_zero, at_right_angle = seen.values()
        # the draws do not depend on theta: the Wigner start, and the
        # positive-P states the noise drives
        if run_ensemble is run_truncated_wigner:
            first, second = draws.values()
            assert len(first) == 1 and np.array_equal(first[0], second[0])
        else:
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
        k3, sigma3, k4, sigma4 = batch_error(acc)
        exact3, exact4 = np.array(series).T
        assert np.all(np.abs(k3 - exact3) < 4 * sigma3)
        assert np.all(np.abs(k4 - exact4) < 4 * sigma4)

    @pytest.mark.parametrize("n", [1e2, 1e3, 1e4])
    def test_short_time_cumulants_across_seeds(self, n):
        # tau = 0.25 .. 2, 16384 paths in 64 batches, seeds 1-8: every
        # z = (k - exact) / sigma of k3 and k4 within 4.5, and their mean
        # over the 128 values within 3 / sqrt(8) (outputs of one run are
        # correlated, so the mean spreads by at most 1 / sqrt(8))
        import anharmonic.oracle as orc

        grid = grid_at(n, tuple(0.25 * i for i in range(1, 9)), 1e-3)
        exact = np.array(orc.cumulant_series(orc.init_coherent(math.sqrt(n)), grid)).T
        z = []
        for seed in range(1, 9):
            k3, sigma3, k4, sigma4 = batch_error(run_positive_p(math.sqrt(n), grid, 16384, 64, seed=seed))
            z.extend((k3 - exact[0]) / sigma3)
            z.extend((k4 - exact[1]) / sigma4)
        assert np.max(np.abs(z)) <= 4.5, np.max(np.abs(z))
        assert abs(np.mean(z)) * math.sqrt(8) <= 3.0, np.mean(z)


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
    (a3, as3, a4, as4), (b3, bs3, b4, bs4) = coarse, fine
    assert np.all(np.abs(a3 - b3) < 4 * np.hypot(as3, bs3))
    assert np.all(np.abs(a4 - b4) < 4 * np.hypot(as4, bs4))


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

    def compare(self, monkeypatch, run):
        monkeypatch.setattr(engine, "_CHUNK_TARGET", 600)
        got = run()
        monkeypatch.setattr(engine, "_batch_power_sums", full_block_power_sums)
        want = run()
        assert_same_accumulators(got, want)
        return got

    @pytest.mark.parametrize("threads", [1, 2])
    def test_truncated_wigner(self, monkeypatch, threads):
        grid = grid_at(1000.0, (0.0, 1.0, 2.5, 4.0), 0.5)
        self.compare(
            monkeypatch,
            lambda: run_truncated_wigner(
                math.sqrt(1000.0), grid, self.N_PATHS, 10, seed=3, threads=threads
            ),
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_positive_p(self, monkeypatch, threads):
        n = 1000.0
        grid = grid_at(n, (0.0, 0.01, 0.02), 1e-3)
        acc = self.compare(
            monkeypatch,
            lambda: run_positive_p(
                math.sqrt(n), grid, self.N_PATHS, 10, seed=5, threads=threads
            ),
        )
        assert acc.n_paths == self.N_PATHS

    @pytest.mark.parametrize(
        "n_paths, n_batches",
        [(1001, 7), (64 * 5 + 3, 5), (128 * 4 + 2, 4), (130 * 3, 3), (1000 * 2 + 1, 2), (1, 1), (257, 1)],
    )
    def test_reduction_helper_matches_per_slice_sums(self, n_paths, n_batches):
        # positive-P and Wigner quadratures, each at three phases
        rng = np.random.default_rng(n_paths)
        amplitudes = rng.normal(size=(3, 2, n_paths)) + 1j * rng.normal(size=(3, 2, n_paths))
        thetas = (0.0, 0.7, 4.1)
        centres = (0.0, -1.5, 2.25)
        edges = engine.batch_edges(n_paths, n_batches)
        for dtype, xs in (
            (np.complex128, [pair_quadrature(theta, *pair) for pair, theta in zip(amplitudes, thetas)]),
            (np.float64, [wigner_quadrature(a, theta) for (a, _), theta in zip(amplitudes, thetas)]),
        ):
            got = np.full((3, n_batches, N_POWERS), np.nan, dtype=dtype)
            engine._batch_power_sums(iter(xs), centres, edges, got)
            for out, centre, x in zip(got, centres, xs):
                want = per_slice_batch_sums(bulk_monomials(centre, x), edges)
                assert np.array_equal(out, want)


class TestMemoryBound:
    """Chunk memory does not hold a power block or a state per output.

    At 2048 paths and 1001 outputs the whole (n_out, 4, m) float64 block
    would be 66 MB.  A chunk of either ensemble holds one (4, m) block and
    its flow's buffers, so only the (n_out, n_batches, 4) sums may grow
    with the outputs.
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
            lambda: run_positive_p(math.sqrt(1000.0), self.GRID, 2048, 10, seed=1, threads=1)
        )
        assert peak < self.BOUND, peak

    def test_positive_p_peak_flat_in_outputs(self):
        # 201 and 2001 outputs, one step each: the peaks differ by no more
        # than the sums' 64 B per output per batch, plus 128 B per output
        # of slack for the grid's step list and centres
        def peak(n_out):
            grid = grid_at(1000.0, tuple(0.01 * i for i in range(n_out)), 0.01)
            return self.traced_peak(
                lambda: run_positive_p(math.sqrt(1000.0), grid, 2048, 10, seed=1, threads=1)
            )

        peak(2)  # one-time imports and allocations, outside the trace
        small, large = peak(201), peak(2001)
        assert large - small <= 1800 * (64 * 10 + 128), (small, large)

    def test_positive_p_noise_block(self):
        # one output gap of 2000 steps: a whole-gap block of step factors
        # would be 62.5 MiB at 2048 paths, but the chunk holds one L2-sized
        # block of 1 MiB, with its unpacked bits and table indices (3/16 of
        # it).  Beside them live arrays of the size of an (m,) complex one
        # (32 KiB at this m): n, the running sum, the bit counts, the draw's
        # raw words, the output's (2, m) exponent terms and pair (about
        # eight at once) and the (4, m) power block; 27 were measured, and
        # the bound allows 32.
        grid = grid_at(1000.0, (0.0, 2.0), 1e-3)

        def run(m):
            return run_positive_p(math.sqrt(1000.0), grid, m, 10, seed=1, threads=1)

        run(10)  # one-time imports and allocations, outside the trace
        peak = self.traced_peak(lambda: run(2048))
        assert peak < 2**20 * 19 // 16 + 32 * (2048 * 16), peak
