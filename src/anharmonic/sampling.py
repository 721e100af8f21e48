"""Reproducible initial-condition sampling for coherent states.

Every work chunk owns one counter-based random stream keyed by
``(master_seed, t_lo)``, where ``t_lo`` is the chunk's first trajectory, so
ensembles are bit-identical for a fixed seed no matter how work is scheduled
or how many workers run.  :func:`stream_key` is the one keying rule and
:class:`RandomStream` builds a Philox generator from it; :func:`wigner_initial`
draws a truncated-Wigner chunk's initial normals from its stream in one call.
A positive-P coherent start is deterministic and draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def stream_key(master_seed: int, trajectory_index: int) -> tuple[int, int]:
    """Philox key words of the stream that starts at one trajectory (each mod 2**64)."""
    return master_seed & _MASK64, trajectory_index & _MASK64


@dataclass
class RandomStream:
    """One work chunk's private Gaussian stream (Philox, ziggurat normals)."""

    seed: int
    stream_index: int
    _gen: np.random.Generator = field(default=None, repr=False)

    def __post_init__(self):
        if self._gen is None:
            key = np.array(stream_key(self.seed, self.stream_index), dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))

    def normals(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """Draw n independent standard real Gaussians, into ``out`` if given.

        ``out`` is a C-contiguous float64 array of n elements, filled in C
        order, so consecutive calls continue one sequence whatever their sizes.
        """
        if out is not None and out.size != n:
            raise ValueError(f"out holds {out.size} elements, not {n}")
        return self._gen.standard_normal(n if out is None else None, out=out)


def stream_for_trajectory(master_seed: int, trajectory_index: int) -> RandomStream:
    """Independent, reproducible stream for the chunk that starts at one trajectory.

    Distinct (seed, index) pairs key distinct Philox counters, giving
    statistically independent sequences; the same pair always replays the
    same sequence regardless of scheduling or worker count.
    """
    if trajectory_index < 0:
        raise ValueError("trajectory index must be nonnegative")
    return RandomStream(master_seed, trajectory_index)


# Kept without a caller because perfbench/tracing.py wraps it by name.
def sample_wigner_coherent(amplitude: complex, stream: RandomStream) -> complex:
    """amplitude plus complex vacuum noise with <zeta* zeta> = 1/2.

    Real and imaginary noise parts are independent with variance 1/4 each.
    """
    w = stream.normals(2)
    return complex(amplitude) + 0.5 * (w[0] + 1j * w[1])


def wigner_initial(
    amplitude: complex, master_seed: int, traj_lo: int, traj_hi: int
) -> np.ndarray:
    """Wigner samples of coherent |amplitude> for trajectories traj_lo .. traj_hi - 1.

    The chunk's 2 (traj_hi - traj_lo) normals come from the stream keyed
    ``(master_seed, traj_lo)`` in one draw; row i takes half of normals 2i
    and 2i + 1 as its real and imaginary noise (variance 1/4 each).
    """
    w = stream_for_trajectory(master_seed, traj_lo).normals(2 * (traj_hi - traj_lo))
    return complex(amplitude) + 0.5 * (w[0::2] + 1j * w[1::2])
