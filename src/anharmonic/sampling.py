"""Reproducible initial-condition sampling for coherent states.

Every work chunk owns one counter-based random stream, a
:class:`RandomStream` keyed by ``(master_seed, t_lo)``, where ``t_lo`` is the
chunk's first trajectory (:func:`stream_for_trajectory`), so ensembles are
bit-identical for a fixed seed no matter how work is scheduled or how many
workers run.  A truncated-Wigner chunk's initial amplitudes come from its
stream in one draw, by the one sample formula,
:func:`sample_wigner_coherent`.  A positive-P coherent start is
deterministic and draws nothing; its Wiener increments are two-point signs,
one raw Philox bit each (:meth:`RandomStream.signs`).
"""

from __future__ import annotations

import math

import numpy as np


class RandomStream:
    """One work chunk's private Philox stream, keyed ``(seed, stream_index)``
    with each key word taken mod 2**64: ziggurat normals and raw-bit signs."""

    def __init__(self, seed: int, stream_index: int):
        key = np.array([seed % 2**64, stream_index % 2**64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normals(self, n: int) -> np.ndarray:
        """Draw n independent standard real Gaussians.

        Consecutive calls continue one sequence whatever their sizes.
        """
        return self._gen.standard_normal(n)

    def signs(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, shape (n_steps, ...), with +-1 of equal chance, in its
        (signed or float) dtype; return it.

        Step k's ``out[k].size`` signs, in C order, are the bits of the next
        ceil(out[k].size / 64) raw 64-bit words, lowest bit first: a set bit
        gives +1.  The unused high bits of a step's last word are dropped, so
        consecutive calls continue one sequence however the steps are split,
        and the bits are read by value, whatever the host's byte order.
        """
        n_steps, width = out.shape[0], math.prod(out.shape[1:])
        words = -(-width // 64)
        raw = self._gen.bit_generator.random_raw(n_steps * words).astype("<u8", copy=False)
        bits = np.unpackbits(raw.view(np.uint8).reshape(n_steps, 8 * words), axis=1, bitorder="little")
        np.multiply(bits[:, :width].reshape(out.shape), 2, out=out)
        out -= 1
        return out


def stream_for_trajectory(master_seed: int, trajectory_index: int) -> RandomStream:
    """Independent, reproducible stream for the chunk that starts at one trajectory.

    Distinct (seed, index) pairs key distinct Philox counters, giving
    statistically independent sequences; the same pair always replays the
    same sequence regardless of scheduling or worker count.
    """
    if trajectory_index < 0:
        raise ValueError("trajectory index must be nonnegative")
    return RandomStream(master_seed, trajectory_index)


def sample_wigner_coherent(amplitude: complex, stream: RandomStream, n: int) -> np.ndarray:
    """n Wigner samples of coherent |amplitude>: amplitude plus complex vacuum
    noise with <zeta* zeta> = 1/2.

    The 2n normals come from ``stream`` in one draw; sample i takes half of
    normals 2i and 2i + 1 as its real and imaginary noise (variance 1/4 each).
    """
    w = stream.normals(2 * n)
    return complex(amplitude) + 0.5 * (w[0::2] + 1j * w[1::2])
