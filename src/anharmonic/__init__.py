"""Stochastic phase-space simulation of the anharmonic oscillator.

Maps polynomial boson Hamiltonians to truncated-Wigner and positive-P
trajectory models, estimates quadrature cumulants with batch error bars,
and benchmarks both methods against the exact closed-form evolution.
"""

from .engine import TimeGrid, run_truncated_wigner
from .moments import batch_error

__version__ = "0.1.0"
