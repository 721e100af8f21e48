"""Reproducible initial-condition sampling for coherent states.

Every trajectory owns a counter-based random stream keyed by
``(master_seed, trajectory_index)``, so ensembles are bit-identical for a
fixed seed no matter how work is scheduled or how many workers run.
:func:`stream_key` is the one keying rule; :class:`RandomStream` builds a
Philox generator from it, and :func:`wigner_initial` re-keys a single
generator per path, which replays the same draws without building a new one.
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
    """Philox key words of one trajectory's stream (each taken mod 2**64)."""
    return master_seed & _MASK64, trajectory_index & _MASK64


@dataclass
class RandomStream:
    """One trajectory's private Gaussian stream (Philox, ziggurat normals)."""

    seed: int
    stream_index: int
    draws: int = 0
    _gen: np.random.Generator = field(default=None, repr=False)

    def __post_init__(self):
        if self._gen is None:
            key = np.array(stream_key(self.seed, self.stream_index), dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))

    def normals(self, n: int) -> np.ndarray:
        """Draw n independent standard real Gaussians."""
        self.draws += n
        return self._gen.standard_normal(n)


def stream_for_trajectory(master_seed: int, trajectory_index: int) -> RandomStream:
    """Independent, reproducible stream for one trajectory.

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

    Row i equals ``sample_wigner_coherent(spec, stream_for_trajectory(
    master_seed, traj_lo + i))`` bit for bit.  Instead of a new Philox per
    path, one generator, private to this call, is re-keyed per path: the
    saved state of a fresh Philox (counter zero, empty buffer) is assigned
    back with the path's key, which restarts the generator exactly as a
    new Philox with that key would start.
    """
    if spec.representation != WIGNER:
        raise ValueError("spec is not a Wigner-representation state")
    if traj_lo < 0:
        raise ValueError("trajectory index must be nonnegative")
    bit_gen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bit_gen)
    fresh = bit_gen.state
    key = fresh["state"]["key"]
    w = np.empty((traj_hi - traj_lo, 2), dtype=np.float64)
    for index, row in zip(range(traj_lo, traj_hi), w):
        key[:] = stream_key(master_seed, index)
        bit_gen.state = fresh
        gen.standard_normal(out=row)
    return complex(spec.amplitude) + 0.5 * (w[:, 0] + 1j * w[:, 1])


def sample_positive_p_coherent(spec: InitialStateSpec) -> tuple[complex, complex]:
    """Deterministic doubled-phase-space start (alpha1, alpha2*).

    A coherent state is a delta distribution here, so no randomness is
    consumed and alpha2* alpha1 equals |alpha0|^2 exactly at t = 0.
    """
    if spec.representation != POSITIVE_P:
        raise ValueError("spec is not a positive-P-representation state")
    a0 = complex(spec.amplitude)
    return (a0, a0.conjugate())
