"""Reproducible initial-condition sampling for coherent states.

Every work chunk owns one counter-based random stream keyed by
``(master_seed, t_lo)``, where ``t_lo`` is the chunk's first trajectory, so
ensembles are bit-identical for a fixed seed no matter how work is scheduled
or how many workers run.  :func:`stream_key` is the one keying rule and
:class:`RandomStream` builds a Philox generator from it; :func:`wigner_initial`
draws a chunk's initial normals from its stream in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WIGNER = "wigner"
POSITIVE_P = "positive_p"


@dataclass(frozen=True)
class InitialStateSpec:
    """Coherent-state amplitude and the representation to sample it in."""

    amplitude: complex
    representation: str

    def __post_init__(self):
        if self.representation not in (WIGNER, POSITIVE_P):
            raise ValueError(f"unknown representation {self.representation!r}")

    @property
    def n_particles(self) -> float:
        return abs(self.amplitude) ** 2


_MASK64 = 0xFFFFFFFFFFFFFFFF


def stream_key(master_seed: int, trajectory_index: int) -> tuple[int, int]:
    """Philox key words of the stream that starts at one trajectory (each mod 2**64)."""
    return master_seed & _MASK64, trajectory_index & _MASK64


@dataclass
class RandomStream:
    """One work chunk's private Gaussian stream (Philox, ziggurat normals)."""

    seed: int
    stream_index: int
    draws: int = 0
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
        self.draws += n
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


def sample_wigner_coherent(spec: InitialStateSpec, stream: RandomStream) -> complex:
    """alpha0 plus complex vacuum noise with <zeta* zeta> = 1/2.

    Real and imaginary noise parts are independent with variance 1/4 each.
    """
    if spec.representation != WIGNER:
        raise ValueError("spec is not a Wigner-representation state")
    w = stream.normals(2)
    return complex(spec.amplitude) + 0.5 * (w[0] + 1j * w[1])


def wigner_initial(
    spec: InitialStateSpec, master_seed: int, traj_lo: int, traj_hi: int
) -> np.ndarray:
    """Wigner samples of trajectories traj_lo .. traj_hi - 1, as one array.

    The chunk's 2 (traj_hi - traj_lo) normals come from the stream keyed
    ``(master_seed, traj_lo)`` in one draw; row i takes normals 2i and
    2i + 1 as its real and imaginary noise, as :func:`sample_wigner_coherent`
    does with a stream of its own.
    """
    if spec.representation != WIGNER:
        raise ValueError("spec is not a Wigner-representation state")
    w = stream_for_trajectory(master_seed, traj_lo).normals(2 * (traj_hi - traj_lo))
    return complex(spec.amplitude) + 0.5 * (w[0::2] + 1j * w[1::2])


def sample_positive_p_coherent(spec: InitialStateSpec) -> tuple[complex, complex]:
    """Deterministic doubled-phase-space start (alpha1, alpha2*).

    A coherent state is a delta distribution here, so no randomness is
    consumed and alpha2* alpha1 equals |alpha0|^2 exactly at t = 0.
    """
    if spec.representation != POSITIVE_P:
        raise ValueError("spec is not a positive-P-representation state")
    a0 = complex(spec.amplitude)
    return (a0, a0.conjugate())
