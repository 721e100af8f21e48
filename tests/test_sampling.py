import math

import numpy as np
import pytest

from anharmonic.sampling import (
    POSITIVE_P,
    WIGNER,
    InitialStateSpec,
    sample_positive_p_coherent,
    sample_wigner_coherent,
    stream_for_trajectory,
    wigner_initial,
)
from helpers import chunk_stream_wigner_initial


def _wigner_samples(alpha0, n, seed=0):
    # the engine's block sampler; TestWignerInitialBlock pins it to the
    # chunk stream bit for bit
    return wigner_initial(InitialStateSpec(alpha0, WIGNER), seed, 0, n)


class TestStreams:
    def test_same_key_replays_identical_sequence(self):
        a = stream_for_trajectory(42, 7).normals(100)
        b = stream_for_trajectory(42, 7).normals(100)
        assert np.array_equal(a, b)

    def test_distinct_indices_are_uncorrelated(self):
        n = 10_000
        x = stream_for_trajectory(42, 0).normals(n)
        y = stream_for_trajectory(42, 1).normals(n)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.05

    def test_gaussian_mean_bound(self):
        n = 1_000_000
        draws = stream_for_trajectory(3, 5).normals(n)
        assert abs(draws.mean()) < 4.0 / math.sqrt(n)

    def test_draw_counter(self):
        s = stream_for_trajectory(0, 0)
        s.normals(3)
        s.normals(5)
        assert s.draws == 8

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            stream_for_trajectory(0, -1)

    def test_draws_into_out_continue_the_sequence(self):
        # the engine fills a step-major (steps, 2, paths) block in C order
        s = stream_for_trajectory(9, 2)
        first, second = np.empty((3, 2, 4)), np.empty((1, 2, 3))
        assert s.normals(24, out=first) is first
        s.normals(6, out=second)
        assert s.draws == 30
        whole = stream_for_trajectory(9, 2).normals(30)
        assert np.array_equal(np.concatenate([first.ravel(), second.ravel()]), whole)
        with pytest.raises(ValueError, match="not 5"):
            s.normals(5, out=first)

    def test_sequence_independent_of_call_granularity(self):
        s1 = stream_for_trajectory(9, 2)
        s2 = stream_for_trajectory(9, 2)
        a = np.concatenate([s1.normals(3), s1.normals(7)])
        b = s2.normals(10)
        assert np.array_equal(a, b)


class TestWignerSampling:
    def test_mean_is_alpha0(self):
        alpha0 = math.sqrt(1000.0)
        samples = _wigner_samples(alpha0, 100_000)
        # noise parts have sd 1/2, so the mean has sd ~ 0.5/sqrt(n) per part
        tol = 4 * 0.5 / math.sqrt(len(samples))
        assert abs(samples.mean() - alpha0) < math.hypot(tol, tol)

    def test_vacuum_noise_second_moment(self):
        samples = _wigner_samples(0.0, 200_000)
        mag2 = np.abs(samples) ** 2
        assert abs(mag2.mean() - 0.5) < 4 * mag2.std() / math.sqrt(len(samples))

    def test_mean_occupation_includes_half_quantum(self):
        alpha0 = math.sqrt(1000.0)
        samples = _wigner_samples(alpha0, 200_000)
        mag2 = np.abs(samples) ** 2
        sigma = mag2.std() / math.sqrt(len(samples))
        assert abs(mag2.mean() - 1000.5) < 4 * sigma

    def test_noise_covariance_structure(self):
        # Re and Im fluctuations: variance 1/4 each, zero cross covariance
        samples = _wigner_samples(2.0 - 1.0j, 1_000_000) - (2.0 - 1.0j)
        n = len(samples)
        re, im = samples.real, samples.imag
        var_sd = math.sqrt(2.0) * 0.25 / math.sqrt(n)
        cov_sd = 0.25 / math.sqrt(n)
        assert abs(re.var() - 0.25) < 5 * var_sd
        assert abs(im.var() - 0.25) < 5 * var_sd
        assert abs(np.mean(re * im) - re.mean() * im.mean()) < 5 * cov_sd

    def test_wrong_representation_rejected(self):
        spec = InitialStateSpec(1.0, POSITIVE_P)
        with pytest.raises(ValueError):
            sample_wigner_coherent(spec, stream_for_trajectory(0, 0))


class TestWignerInitialBlock:
    @pytest.mark.parametrize("seed", [0, -1, 2**64 + 5])
    @pytest.mark.parametrize("traj_lo", [0, 8190])
    def test_rows_replay_per_path_streams(self, seed, traj_lo):
        # the rows replay the first 80 normals of the Philox keyed (seed, traj_lo)
        spec = InitialStateSpec(3.0 - 0.5j, WIGNER)
        block = wigner_initial(spec, seed, traj_lo, traj_lo + 40)
        assert block.dtype == np.complex128
        assert np.array_equal(block, chunk_stream_wigner_initial(spec, seed, traj_lo, traj_lo + 40))

    def test_adjacent_chunks_draw_different_sequences(self):
        spec = InitialStateSpec(0.0, WIGNER)
        first = wigner_initial(spec, 3, 0, 1000)
        second = wigner_initial(spec, 3, 1000, 2000)
        assert not np.any(first == second)
        assert abs(np.corrcoef(first.real, second.real)[0, 1]) < 0.15

    def test_empty_range(self):
        assert wigner_initial(InitialStateSpec(1.0, WIGNER), 0, 5, 5).shape == (0,)

    def test_wrong_representation_rejected(self):
        with pytest.raises(ValueError):
            wigner_initial(InitialStateSpec(1.0, POSITIVE_P), 0, 0, 3)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            wigner_initial(InitialStateSpec(1.0, WIGNER), 0, -1, 3)


class TestPositivePSampling:
    def test_deterministic_copy(self):
        a0 = math.sqrt(1000.0)
        a1, a2s = sample_positive_p_coherent(InitialStateSpec(a0, POSITIVE_P))
        assert a1 == a0
        assert a2s == a0

    def test_vacuum(self):
        assert sample_positive_p_coherent(InitialStateSpec(0.0, POSITIVE_P)) == (0.0, 0.0)

    def test_occupation_product_exact(self):
        for a0 in (0.3 + 0.4j, -2.0, 1j * math.sqrt(5)):
            a1, a2s = sample_positive_p_coherent(InitialStateSpec(a0, POSITIVE_P))
            assert a2s * a1 == abs(a0) ** 2

    def test_no_randomness_consumed(self):
        s = stream_for_trajectory(0, 0)
        sample_positive_p_coherent(InitialStateSpec(1.0, POSITIVE_P))
        assert s.draws == 0
