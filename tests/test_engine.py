import cmath
import math
import tracemalloc

import numpy as np
import pytest

from anharmonic import engine
from anharmonic import symbolic as sy
from anharmonic.engine import (
    DivergedTrajectory,
    ExcessiveDivergence,
    NoiseIncrement,
    PhaseState,
    TimeGrid,
    build_noise,
    integrate_path,
    run_positive_p,
    run_truncated_wigner,
    run_wigner_drift,
    step_stratonovich_midpoint,
    step_tw_exact,
)
from anharmonic.moments import MONOMIAL_INDEX, QuadratureSpec, batch_error
from anharmonic.sampling import RandomStream, stream_for_trajectory
from helpers import (
    full_block_kernel,
    per_path_wigner_initial,
    per_slice_batch_sums,
    stacked_monomials,
)


def kerr_wigner_model():
    return sy.derive_wigner_model(sy.kerr_hamiltonian())


def kerr_positive_p_model():
    return sy.ito_to_stratonovich(sy.derive_positive_p_model(sy.kerr_hamiltonian()))


def batch_mean(acc, p, q):
    return acc.batch_sums[:, MONOMIAL_INDEX[(p, q)]].sum() / acc.batch_counts.sum()


def stacked_bulk_monomials(abar, a, out):
    out[...] = stacked_monomials(abar, a)
    return out


def use_reference_kernels(monkeypatch):
    """Per-path streams and stacked monomials, in place of the block kernels."""
    monkeypatch.setattr(engine, "wigner_initial", per_path_wigner_initial)
    monkeypatch.setattr(engine, "bulk_monomials", stacked_bulk_monomials)


def assert_same_accumulators(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.batch_sums, w.batch_sums)
        assert np.array_equal(g.batch_counts, w.batch_counts)
        assert np.array_equal(g.batch_diverged, w.batch_diverged)


def batch_sigma(acc, p, q):
    vals = np.real(acc.batch_sums[:, MONOMIAL_INDEX[(p, q)]] / acc.batch_counts)
    return vals.std(ddof=1) / math.sqrt(len(vals))


class TestTimeGrid:
    def test_steps_and_dt(self):
        grid = TimeGrid(1000.0, (0.0, 0.5, 1.0), 1e-3)
        assert grid.steps_between() == [0, 500, 500]
        assert grid.dt == pytest.approx(1e-6)
        assert grid.times[2] == pytest.approx(1e-3)

    def test_rejects_non_dividing_step(self):
        with pytest.raises(ValueError, match="divide"):
            TimeGrid(1000.0, (0.0, 0.5), 3e-4)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            TimeGrid(1000.0, (-1.0, 0.5), 1e-3)


class TestExactWignerStep:
    def test_unit_amplitude_half_turn(self):
        # |alpha|^2 = 1 gives rotation rate 1, so dt = pi flips the sign
        out = step_tw_exact(PhaseState((1.0 + 0.0j,)), math.pi)
        assert out.components[0] == pytest.approx(-1.0, abs=1e-12)

    def test_modulus_conserved_over_million_steps(self):
        state = PhaseState((1.3 - 0.7j,))
        r0 = abs(state.components[0])
        for _ in range(1_000_000):
            state = step_tw_exact(state, 1e-4)
        assert abs(abs(state.components[0]) - r0) < 1e-12

    def test_rotation_rate_at_thousand_particles(self):
        # phase advance per unit scaled time is -(2N - 1)/N = -1.999
        n = 1000.0
        a0 = math.sqrt(n)
        out = step_tw_exact(PhaseState((a0 + 0.0j,)), 1.0 / n)
        advance = cmath.phase(out.components[0] / a0)
        assert advance == pytest.approx(-1.999, abs=1e-12)

    def test_volume_preserving_map(self):
        # finite-difference Jacobian determinant of one step equals 1
        h = 1e-5
        for a0 in (0.8 + 0.3j, math.sqrt(10) + 0.0j):
            for dt in (1e-4, 1e-5):
                def f(x, y):
                    z = step_tw_exact(PhaseState((complex(x, y),)), dt).components[0]
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
    def test_harmonic_rotation_conserves_modulus(self):
        model = sy.derive_wigner_model(sy.PhasePolynomial({(1, 1): 1}))
        state = PhaseState((1.0 + 0.5j,))
        dt = 1e-3
        for _ in range(100):
            state = step_stratonovich_midpoint(state, model, dt)
        assert abs(abs(state.components[0]) - abs(1.0 + 0.5j)) < 1e-10

    def test_single_step_matches_exact_to_dt_squared(self):
        model = kerr_wigner_model()
        a0 = 1.1 + 0.4j
        errors = []
        for dt in (1e-3, 5e-4):
            num = step_stratonovich_midpoint(PhaseState((a0,)), model, dt)
            ref = step_tw_exact(PhaseState((a0,)), dt)
            errors.append(abs(num.components[0] - ref.components[0]))
        assert errors[0] < 1e-7
        # local error is cubic in dt, so halving shrinks it ~8x
        assert errors[0] / errors[1] > 6.0

    def test_deterministic_global_second_order(self):
        # halving dt shrinks the global error by >= 3.5x on the exact flow
        model = kerr_wigner_model()
        a0 = 1.1 + 0.0j
        t_final = 0.5
        ref = step_tw_exact(PhaseState((a0,)), t_final).components[0]

        def global_error(dt):
            state = PhaseState((a0,))
            for _ in range(int(round(t_final / dt))):
                state = step_stratonovich_midpoint(state, model, dt)
            return abs(state.components[0] - ref)

        e1, e2 = global_error(2e-3), global_error(1e-3)
        assert e1 / e2 >= 3.5

    def test_divergence_flagging(self):
        model = kerr_positive_p_model()
        noise = NoiseIncrement(np.array([0.0, 0.0]), 1e-3)
        with pytest.raises(DivergedTrajectory):
            step_stratonovich_midpoint(
                PhaseState((10.0 + 0.0j, 10.0 + 0.0j)),
                model,
                1e-3,
                noise,
                escape_radius=1e-3,
            )

    def test_strong_order_at_least_half_on_frozen_paths(self):
        # step-halving on the doubled-phase-space model with a frozen
        # Brownian path: successive differences shrink by >= 1.3 on average
        model = kerr_positive_p_model()
        n = 1000.0
        a0 = math.sqrt(n)
        t_final = 0.2 / n
        n_coarse = 50
        dt = t_final / n_coarse
        rng = np.random.default_rng(42)
        ratios = []
        for _ in range(100):
            fine = rng.standard_normal((4 * n_coarse, 2)) * math.sqrt(dt / 4)
            mid = fine.reshape(2 * n_coarse, 2, 2).sum(axis=1)
            coarse = mid.reshape(n_coarse, 2, 2).sum(axis=1)
            y0 = (a0 + 0j, a0 + 0j)
            s1 = integrate_path(model, y0, dt, n_coarse, coarse)
            s2 = integrate_path(model, y0, dt / 2, 2 * n_coarse, mid)
            s4 = integrate_path(model, y0, dt / 4, 4 * n_coarse, fine)
            e1 = abs(s1.components[0] - s2.components[0])
            e2 = abs(s2.components[0] - s4.components[0])
            if e2 > 0:
                ratios.append(e1 / e2)
        assert np.mean(ratios) >= 1.3


class TestBuildNoise:
    def test_second_moment_is_two_i_dt(self):
        model = kerr_positive_p_model()
        stream = stream_for_trajectory(0, 0)
        dt = 1e-3
        n = 200_000
        draws = stream.normals(2 * n).reshape(n, 2)
        xi_dt = (1 + 1j) * math.sqrt(dt) * draws
        second = (xi_dt**2).mean(axis=0)
        tol = 5 * 2 * dt * math.sqrt(2.0 / n)
        for j in range(2):
            assert abs(second[j] - 2j * dt) < tol
        # |xi dt|^2 averages to 2 dt
        assert abs((np.abs(xi_dt) ** 2).mean() - 2 * dt) < tol

    def test_cross_moment_vanishes(self):
        stream = stream_for_trajectory(1, 0)
        dt = 1e-3
        n = 200_000
        draws = stream.normals(2 * n).reshape(n, 2)
        xi_dt = (1 + 1j) * math.sqrt(dt) * draws
        cross = (xi_dt[:, 0] * xi_dt[:, 1]).mean()
        assert abs(cross) < 5 * 2 * dt / math.sqrt(n)

    def test_mean_vanishes(self):
        stream = stream_for_trajectory(2, 0)
        dt = 1e-3
        n = 200_000
        draws = stream.normals(2 * n).reshape(n, 2)
        xi_dt = (1 + 1j) * math.sqrt(dt) * draws
        assert abs(xi_dt.mean()) < 5 * math.sqrt(2 * dt / n)

    def test_build_noise_consumes_stream(self):
        model = kerr_positive_p_model()
        stream = stream_for_trajectory(0, 3)
        inc = build_noise(stream, model, 1e-3)
        assert stream.draws == 2
        assert inc.dw.shape == (2,)
        assert np.allclose(inc.xi_dt, (1 + 1j) * inc.dw)


class TestTruncatedWignerEnsemble:
    def test_initial_time_cumulants_consistent_with_zero(self):
        grid = TimeGrid(1000.0, (0.0,), 1e-3)
        accs = run_truncated_wigner(math.sqrt(1000.0), grid, 20_000, 100, seed=5)
        rep = batch_error(accs[0], QuadratureSpec(0.0))
        assert abs(rep.kappa3) < 4 * rep.sigma3
        assert abs(rep.kappa4) < 4 * rep.sigma4

    def test_occupation_offset_half_quantum(self):
        n = 1000.0
        grid = TimeGrid(n, (0.0, 2.0, 7.0), 0.5)
        accs = run_truncated_wigner(math.sqrt(n), grid, 20_000, 100, seed=6)
        for acc in accs:
            m11 = batch_mean(acc, 1, 1).real
            sigma = batch_sigma(acc, 1, 1)
            assert abs(m11 - 0.5 - n) < 4 * sigma

    def test_no_divergence_possible(self):
        grid = TimeGrid(1000.0, (0.0, 5.0), 1e-3)
        accs = run_truncated_wigner(math.sqrt(1000.0), grid, 1000, 10, seed=7)
        assert accs[-1].n_diverged == 0

    def test_worker_count_invariance(self):
        grid = TimeGrid(1000.0, (0.0, 1.0), 0.1)
        a = run_truncated_wigner(math.sqrt(1000.0), grid, 9000, 18, seed=8, threads=1)
        b = run_truncated_wigner(math.sqrt(1000.0), grid, 9000, 18, seed=8, threads=2)
        for acc_a, acc_b in zip(a, b):
            assert np.array_equal(acc_a.batch_sums, acc_b.batch_sums)
            assert np.array_equal(acc_a.batch_counts, acc_b.batch_counts)

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
        n = 1000.0
        grid = TimeGrid(n, (0.0,), 1e-3)
        accs = run_positive_p(math.sqrt(n), grid, 500, 10, seed=0)
        m11 = batch_mean(accs[0], 1, 1)
        assert m11.real == pytest.approx(n, abs=1e-9)
        assert m11.imag == 0.0

    def test_number_conserved_in_time(self):
        n = 1000.0
        grid = TimeGrid(n, (0.0, 0.25, 0.5), 1e-3)
        accs = run_positive_p(math.sqrt(n), grid, 4000, 20, seed=9)
        for acc in accs:
            m11 = batch_mean(acc, 1, 1).real
            sigma = max(batch_sigma(acc, 1, 1), 1e-9)
            assert abs(m11 - n) < 4 * sigma

    def test_worker_count_invariance(self):
        n = 1000.0
        grid = TimeGrid(n, (0.0, 0.02), 1e-3)
        a = run_positive_p(math.sqrt(n), grid, 9000, 18, seed=10, threads=1)
        b = run_positive_p(math.sqrt(n), grid, 9000, 18, seed=10, threads=2)
        for acc_a, acc_b in zip(a, b):
            assert np.array_equal(acc_a.batch_sums, acc_b.batch_sums)

    def test_noise_blocks_replay_whole_gap_draws(self, monkeypatch):
        n = 1000.0
        grid = TimeGrid(n, (0.0, 0.05), 1e-3)  # one gap of 50 steps

        def run():
            return run_positive_p(math.sqrt(n), grid, 200, 10, seed=4)

        whole = run()
        # one 200-path chunk, capped at 7 steps per block: 8 blocks, the last short
        monkeypatch.setattr(engine, "_NOISE_BLOCK_BYTES", 7 * 2 * 8 * 200)
        sizes = []
        normals = RandomStream.normals

        def spy(stream, count):
            sizes.append(count)
            return normals(stream, count)

        monkeypatch.setattr(RandomStream, "normals", spy)
        assert_same_accumulators(run(), whole)
        assert sizes == [14] * 7 * 200 + [2] * 200

    def test_seed_changes_results(self):
        n = 1000.0
        grid = TimeGrid(n, (0.0, 0.02), 1e-3)
        a = run_positive_p(math.sqrt(n), grid, 500, 10, seed=1)
        b = run_positive_p(math.sqrt(n), grid, 500, 10, seed=2)
        assert not np.array_equal(a[-1].batch_sums, b[-1].batch_sums)

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
        accs = run_positive_p(
            math.sqrt(n), grid, 200, 10, seed=0, escape_radius=1e-6,
            divergence_threshold=1.0,
        )
        assert accs[-1].n_diverged == 200
        assert accs[-1].n_paths == 0

    def test_vector_kernel_matches_scalar_stepper(self):
        # same trajectory, same noise: chunked numpy path vs scalar reference
        model = kerr_positive_p_model()
        n = 1000.0
        a0 = math.sqrt(n)
        grid = TimeGrid(n, (0.05,), 1e-3)
        accs = run_positive_p(a0, grid, 3, 3, seed=13)
        dt = grid.dt
        for traj in range(3):
            stream = stream_for_trajectory(13, traj)
            n_steps = grid.steps_between()[0]
            dw = math.sqrt(dt) * stream.normals(2 * n_steps).reshape(n_steps, 2)
            state = integrate_path(model, (a0 + 0j, a0 + 0j), dt, n_steps, dw)
            a1 = accs[0].batch_sums[traj, MONOMIAL_INDEX[(0, 1)]]
            a2s = accs[0].batch_sums[traj, MONOMIAL_INDEX[(1, 0)]]
            assert abs(a1 - state.components[0]) < 1e-9 * (1 + abs(a1))
            assert abs(a2s - state.components[1]) < 1e-9 * (1 + abs(a2s))


class TestPositivePAgainstOracle:
    def test_short_time_cumulants(self):
        import anharmonic.oracle as orc

        n = 1000.0
        grid = TimeGrid(n, (0.5, 1.0), 1e-3)
        accs = run_positive_p(math.sqrt(n), grid, 4000, 20, seed=3)
        state0 = orc.init_coherent(math.sqrt(n))
        for tau, acc in zip(grid.taus, accs):
            theta = 2.0 * tau
            rep = batch_error(acc, QuadratureSpec(theta))
            exact = orc.oracle_cumulants(
                orc.evolve(state0, tau / n), QuadratureSpec(theta)
            )
            assert abs(rep.kappa3 - exact.kappa3) < 4 * rep.sigma3
            assert abs(rep.kappa4 - exact.kappa4) < 4 * rep.sigma4


class TestEvolveEnsembleDispatch:
    def test_oracle_method_is_not_an_ensemble(self):
        from anharmonic.config import parse_config
        from anharmonic.engine import evolve_ensemble

        cfg = parse_config("method = Oracle\nN = 10\n")
        with pytest.raises(ValueError, match="not a trajectory ensemble"):
            evolve_ensemble(cfg)

    def test_tw_dispatch(self):
        from anharmonic.config import parse_config
        from anharmonic.engine import evolve_ensemble

        cfg = parse_config(
            "method = TW\nN = 100\nn_paths = 500\nbatches = 10\n"
            "tau_start = 0\ntau_stop = 1\ntau_points = 2\n"
        )
        accs = evolve_ensemble(cfg)
        assert len(accs) == 2
        assert accs[0].n_paths == 500


class TestGenericWignerDrift:
    def test_harmonic_ensemble_stays_gaussian(self):
        model = sy.derive_wigner_model(sy.PhasePolynomial({(1, 1): 1}))
        accs = run_wigner_drift(model, 2.0, (0.0, 1.0), 0.05, 5000, 10, seed=4)
        rep = batch_error(accs[-1], QuadratureSpec(0.0))
        assert abs(rep.kappa3) < 4 * rep.sigma3
        assert abs(rep.kappa4) < 4 * rep.sigma4

    def test_matches_exact_kerr_stepper(self):
        # midpoint truncation is O(dt^2); with rate ~ 2N = 20 and dt = 1e-3
        # the order-4 monomials agree to a few parts in 1e4
        model = kerr_wigner_model()
        n = 10.0
        taus = (0.0, 0.2)
        grid = TimeGrid(n, taus, 0.01)
        exact = run_truncated_wigner(math.sqrt(n), grid, 200, 10, seed=12)
        generic = run_wigner_drift(
            model, math.sqrt(n), grid.times, grid.dt, 200, 10, seed=12
        )
        for acc_e, acc_g in zip(exact, generic):
            assert np.allclose(acc_e.batch_sums, acc_g.batch_sums, rtol=2e-3, atol=1e-6)
        # and the discrepancy shrinks ~4x when dt is halved
        finer = run_wigner_drift(
            model, math.sqrt(n), grid.times, grid.dt / 2, 200, 10, seed=12
        )
        err_coarse = np.abs(generic[-1].batch_sums - exact[-1].batch_sums).max()
        err_fine = np.abs(finer[-1].batch_sums - exact[-1].batch_sums).max()
        assert err_coarse / max(err_fine, 1e-300) > 3.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_per_path_reference_kernels(self, monkeypatch, threads):
        monkeypatch.setattr(engine, "_CHUNK_TARGET", 600)
        model = kerr_wigner_model()

        def run():
            return run_wigner_drift(
                model, math.sqrt(10.0), (0.0, 0.02, 0.05), 0.01, 3000, 10, seed=-7,
                threads=threads,
            )

        got = run()
        use_reference_kernels(monkeypatch)
        assert_same_accumulators(got, run())


class TestDefaultWorkerCount:
    def test_affinity_mask_sets_default(self, monkeypatch):
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert engine._available_cpus() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 6)
        assert engine._available_cpus() == 6


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
    def test_wigner_drift(self, monkeypatch, threads):
        model = kerr_wigner_model()
        self.compare(
            monkeypatch,
            "_wigner_drift_chunk",
            lambda: run_wigner_drift(
                model, math.sqrt(10.0), (0.0, 0.02, 0.05), 0.01, self.N_PATHS, 10,
                seed=4, threads=threads,
            ),
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_positive_p_with_late_divergence(self, monkeypatch, threads):
        n = 1000.0
        grid = TimeGrid(n, (0.0, 0.01, 0.02), 1e-3)
        accs = self.compare(
            monkeypatch,
            "_positive_p_chunk",
            lambda: run_positive_p(
                math.sqrt(n), grid, self.N_PATHS, 10, seed=5, threads=threads,
                escape_radius=32.0, divergence_threshold=1.0,
            ),
        )
        # some paths, not all, escape after the tau = 0 output, so the
        # retroactive exclusion reaches back across outputs
        assert 0 < accs[0].n_diverged < self.N_PATHS
        assert accs[0].n_paths == self.N_PATHS - accs[0].n_diverged

    @pytest.mark.parametrize(
        "n_paths, n_batches",
        [(1001, 7), (64 * 5 + 3, 5), (128 * 4 + 2, 4), (130 * 3, 3), (1000 * 2 + 1, 2), (1, 1), (257, 1)],
    )
    def test_reduction_helper_matches_per_slice_sums(self, n_paths, n_batches):
        rng = np.random.default_rng(n_paths)
        block = rng.normal(size=(3, 15, n_paths)) + 1j * rng.normal(size=(3, 15, n_paths))
        bounds = engine.batch_slices(n_paths, n_batches)
        out = np.empty((3, n_batches, 15), dtype=np.complex128)
        engine._reduce_batches(block, bounds, out)
        assert np.array_equal(out, per_slice_batch_sums(block, bounds))
        engine._reduce_batches(block[1], bounds, out[1])
        assert np.array_equal(out[1], per_slice_batch_sums(block[1], bounds))


class TestMemoryBound:
    """Truncated-Wigner memory does not grow with the number of outputs.

    At 2048 paths and 1001 outputs the whole (n_out, 15, m) complex block
    would be 492 MB; only the (n_out, n_batches, 15) sums may grow.
    """

    BOUND = 32 * 2**20

    def traced_peak(self, run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_truncated_wigner(self):
        grid = TimeGrid(1000.0, tuple(0.01 * i for i in range(1001)), 0.01)
        peak = self.traced_peak(
            lambda: run_truncated_wigner(math.sqrt(1000.0), grid, 2048, 10, seed=1, threads=1)
        )
        assert peak < self.BOUND, peak

    def test_wigner_drift(self):
        model = kerr_wigner_model()
        times = tuple(1e-5 * i for i in range(1001))
        peak = self.traced_peak(
            lambda: run_wigner_drift(model, math.sqrt(10.0), times, 1e-5, 2048, 10, seed=1, threads=1)
        )
        assert peak < self.BOUND, peak
