import math

import numpy as np
import pytest

from anharmonic.engine import run_positive_p
from anharmonic.sampling import sample_wigner_coherent, stream_for_trajectory
from helpers import (
    at_phase,
    chunk_philox,
    chunk_signs,
    grid_at,
    ladder_sums,
    reference_wigner_coherent,
)


def _wigner_samples(alpha0, n, seed=0):
    # a truncated-Wigner chunk's initial block, drawn as the engine draws it;
    # TestWignerInitialBlock pins it to the chunk stream bit for bit
    return sample_wigner_coherent(alpha0, stream_for_trajectory(seed, 0), n)


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

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            stream_for_trajectory(0, -1)

    def test_sequence_independent_of_call_granularity(self):
        s1 = stream_for_trajectory(9, 2)
        s2 = stream_for_trajectory(9, 2)
        a = np.concatenate([s1.normals(3), s1.normals(7)])
        b = s2.normals(10)
        assert np.array_equal(a, b)


class TestSigns:
    """RandomStream.bits, the raw bits behind the positive-P signs: a set bit is +1."""

    def test_values_are_exactly_plus_or_minus_one(self):
        draws = stream_for_trajectory(5, 0).bits(40, 200)
        assert draws.dtype == np.uint8 and draws.shape == (40, 200)
        assert set(np.unique(draws)) == {0, 1}
        assert set(np.unique(2.0 * draws - 1.0)) == {-1.0, 1.0}

    @pytest.mark.parametrize("m", [3, 32, 200])
    def test_steps_replay_raw_bits(self, m):
        # each step's 2m bits are the low bits of its own whole raw words;
        # the reference reads them with integer shifts as signs s = 2 b - 1
        bits = stream_for_trajectory(13, 64).bits(9, 2 * m)
        assert np.array_equal(bits.reshape(9, 2, m), (chunk_signs(13, 64, 9, m) + 1) / 2)

    @pytest.mark.parametrize("m", [200, 1000])
    def test_draws_independent_of_block_split(self, m):
        # 2m is not a multiple of 64, so a step's last word has bits left
        # over; they are dropped per step, not per call
        whole = stream_for_trajectory(4, 0).bits(50, 2 * m)
        s = stream_for_trajectory(4, 0)
        blocks = [s.bits(min(7, 50 - k), 2 * m) for k in range(0, 50, 7)]
        assert np.array_equal(np.concatenate(blocks), whole)


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


class TestWignerInitialBlock:
    @pytest.mark.parametrize("seed", [0, -1, 2**64 + 5])
    @pytest.mark.parametrize("traj_lo", [0, 8190])
    def test_rows_replay_per_path_streams(self, seed, traj_lo):
        # the rows replay the first 80 normals of the Philox keyed
        # (seed mod 2**64, traj_lo)
        amplitude = 3.0 - 0.5j
        block = sample_wigner_coherent(amplitude, stream_for_trajectory(seed, traj_lo), 40)
        assert block.dtype == np.complex128
        assert np.array_equal(
            block, reference_wigner_coherent(amplitude, chunk_philox(seed, traj_lo), 40)
        )

    def test_adjacent_chunks_draw_different_sequences(self):
        first = sample_wigner_coherent(0.0, stream_for_trajectory(3, 0), 1000)
        second = sample_wigner_coherent(0.0, stream_for_trajectory(3, 1000), 1000)
        assert not np.any(first == second)
        assert abs(np.corrcoef(first.real, second.real)[0, 1]) < 0.15

    def test_empty_range(self):
        assert sample_wigner_coherent(1.0, stream_for_trajectory(0, 5), 0).shape == (0,)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            sample_wigner_coherent(1.0, stream_for_trajectory(0, -1), 4)


def _positive_p_start(alpha0):
    # one path in one batch at tau = 0: the batch sums of a and a* are the
    # chunk's start pair (alpha1, alpha2*), read back through the quadratures
    # at theta = 0 and pi/2, whose phases round (cos(pi/2) is 6e-17, not 0)
    grid = grid_at(abs(alpha0) ** 2, (0.0,), 1e-3)
    sums, _ = ladder_sums(lambda theta: run_positive_p(alpha0, at_phase(grid, theta), 1, 1))
    return sums[0, 1][0, 0], sums[1, 0][0, 0]


class TestPositivePSampling:
    def test_deterministic_copy(self):
        a0 = math.sqrt(1000.0)
        a1, a2s = _positive_p_start(a0)
        assert a1.real == a2s.real == a0
        assert abs(a1.imag) == abs(a2s.imag) <= 1e-16 * a0

    def test_occupation_product_exact(self):
        for a0 in (0.3 + 0.4j, -2.0, 1j * math.sqrt(5)):
            a1, a2s = _positive_p_start(a0)
            assert a2s * a1 == abs(a0) ** 2
