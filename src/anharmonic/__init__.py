"""Stochastic phase-space simulation of the anharmonic oscillator.

Maps polynomial boson Hamiltonians to truncated-Wigner and positive-P
trajectory models, estimates quadrature cumulants with batch error bars,
and benchmarks both methods against the exact closed-form evolution.
"""

from .config import SimulationConfig, parse_config
from .engine import (
    MidpointStep,
    TimeGrid,
    exact_wigner_flow,
    run_positive_p,
    run_truncated_wigner,
)
from .moments import (
    CumulantReport,
    MomentAccumulator,
    batch_error,
)
from .oracle import (
    OracleState,
    init_coherent,
    oracle_cumulants,
)
from .sampling import (
    RandomStream,
    sample_wigner_coherent,
    stream_for_trajectory,
)
from .symbolic import (
    DriftDiffusionModel,
    OperatorWord,
    PhasePolynomial,
    derive_positive_p_model,
    derive_wigner_model,
    differentiate,
    drift_divergence,
    ito_to_stratonovich,
    kerr_hamiltonian,
    normal_order,
)

__version__ = "0.1.0"
