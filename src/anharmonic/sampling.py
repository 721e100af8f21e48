"""Reproducible initial-condition sampling for coherent states.

Every work chunk owns one counter-based random stream keyed by
``(master_seed, t_lo)``, where ``t_lo`` is the chunk's first trajectory, so
ensembles are bit-identical for a fixed seed no matter how work is scheduled
or how many workers run.  :func:`stream_key` is the one keying rule and
:class:`RandomStream` builds a Philox generator from it.  A truncated-Wigner
chunk's initial amplitudes come from its stream in one draw
(:func:`wigner_initial`), by the one sample formula,
:func:`sample_wigner_coherent`.  A positive-P coherent start is
deterministic and draws nothing; its Wiener increments are two-point signs,
one raw Philox bit each (:meth:`RandomStream.signs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def stream_key(master_seed: int, trajectory_index: int) -> tuple[int, int]:
    """Philox key words of the stream that starts at one trajectory (each mod 2**64)."""
    return master_seed & _MASK64, trajectory_index & _MASK64


@dataclass
class RandomStream:
    """One work chunk's private Philox stream: ziggurat normals and raw-bit signs."""

    seed: int
    stream_index: int
    _gen: np.random.Generator = field(default=None, repr=False)

    def __post_init__(self):
        if self._gen is None:
            key = np.array(stream_key(self.seed, self.stream_index), dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))

    def normals(self, n: int) -> np.ndarray:
        """Draw n independent standard real Gaussians.

        Consecutive calls continue one sequence whatever their sizes.
        """
        return self._gen.standard_normal(n)

    def signs(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, shape (n_steps, ...), with +-1.0 of equal chance; return it.

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
        np.multiply(bits[:, :width].reshape(out.shape), 2.0, out=out)
        out -= 1.0
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


def wigner_initial(
    amplitude: complex, master_seed: int, traj_lo: int, traj_hi: int
) -> np.ndarray:
    """Wigner samples of coherent |amplitude> for trajectories traj_lo .. traj_hi - 1,
    drawn from the stream keyed ``(master_seed, traj_lo)``."""
    stream = stream_for_trajectory(master_seed, traj_lo)
    return sample_wigner_coherent(amplitude, stream, traj_hi - traj_lo)
