"""Monomial accumulation, quadrature moments, and cumulant estimation.

A :class:`MomentAccumulator` keeps per-batch sums of the phase-space
monomials ``abar^p a^q`` for all total orders up to four, where ``abar``
is the conjugate amplitude in the Wigner representation and the
independent starred component in positive-P.  Quadrature moments of
``X = exp(-i theta) a + exp(i theta) abar`` are assembled from those sums;
positive-P averages are normally ordered and are promoted to true operator
moments with the constants {1; 3; 6, 3}:

    <X^2> = <:X^2:> + 1
    <X^3> = <:X^3:> + 3 <:X:>
    <X^4> = <:X^4:> + 6 <:X^2:> + 3

Third- and fourth-order cumulants follow as

    k3 = <X^3> - 3 <X> <X^2> + 2 <X>^3
    k4 = <X^4> + 2 <X>^4 - 3 <X^2>^2 - 4 <X> k3

with sampling errors estimated from the spread of per-batch values.  The
Fock oracle evaluates its exact cumulants with the same formula,
:func:`k3_k4`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import POSITIVE_P, WIGNER

#: Exponent pairs (p, q) of the accumulated monomials, sorted by (p+q, p).
MONOMIALS: tuple[tuple[int, int], ...] = tuple(
    sorted(
        ((p, q) for p in range(5) for q in range(5) if p + q <= 4),
        key=lambda k: (k[0] + k[1], k[0]),
    )
)
MONOMIAL_INDEX = {pq: i for i, pq in enumerate(MONOMIALS)}

#: Minimum number of batches for a meaningful standard-error estimate.
MIN_BATCHES = 10

_BINOM = [[math.comb(k, j) for j in range(k + 1)] for k in range(5)]


class OrderingViolation(RuntimeError):
    """Estimates are inconsistent with a valid operator average,
    e.g. an imaginary residue or moment bound violated beyond 5 sigma."""


class InsufficientBatches(ValueError):
    """Fewer batches than required for batch standard errors."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature phase theta.  The benchmark's rotating-frame convention
    is theta = 2 * tau with tau the scaled time N*t."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")


@dataclass(frozen=True)
class CumulantReport:
    kappa3: float
    kappa4: float
    sigma3: float
    sigma4: float
    n_paths: int
    n_diverged: int


class MomentAccumulator:
    """Streaming per-batch monomial sums for one output time."""

    __slots__ = ("representation", "batch_sums", "batch_counts", "batch_diverged")

    def __init__(self, representation: str, n_batches: int):
        if representation not in (WIGNER, POSITIVE_P):
            raise ValueError(f"unknown representation {representation!r}")
        if n_batches < 1:
            raise ValueError("need at least one batch")
        self.representation = representation
        self.batch_sums = np.zeros((n_batches, len(MONOMIALS)), dtype=np.complex128)
        self.batch_counts = np.zeros(n_batches, dtype=np.int64)
        self.batch_diverged = np.zeros(n_batches, dtype=np.int64)

    @property
    def n_batches(self) -> int:
        return self.batch_counts.shape[0]

    @property
    def n_paths(self) -> int:
        return int(self.batch_counts.sum())

    @property
    def n_diverged(self) -> int:
        return int(self.batch_diverged.sum())


def bulk_monomials(abar: np.ndarray, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Monomial matrix of shape (n_monomials, n_paths) for amplitude arrays.

    Every row is written straight into ``out`` (allocated when not given):
    the pure powers by repeated multiplication, then each mixed row as the
    product of its two pure rows.
    """
    if out is None:
        out = np.empty((len(MONOMIALS), len(a)), dtype=np.complex128)
    row = MONOMIAL_INDEX
    out[row[0, 0]] = 1.0
    np.copyto(out[row[1, 0]], abar)
    np.copyto(out[row[0, 1]], a)
    for k in range(2, 5):
        np.multiply(out[row[k - 1, 0]], abar, out=out[row[k, 0]])
        np.multiply(out[row[0, k - 1]], a, out=out[row[0, k]])
    for p, q in MONOMIALS:
        if p and q:
            np.multiply(out[row[p, 0]], out[row[0, q]], out=out[row[p, q]])
    return out


def _batch_means(acc: MomentAccumulator) -> np.ndarray:
    """Per-batch monomial means, restricted to batches with surviving paths."""
    mask = acc.batch_counts > 0
    return acc.batch_sums[mask] / acc.batch_counts[mask][:, None]


def quadrature_powers(monomial, theta: float) -> list:
    """Averages of x^k (k = 1..4) with x = e^{-i theta} a + e^{i theta} abar.

    ``monomial(p, q)`` is the average of abar^p a^q, for example an array
    column of batch means.
    """
    powers = []
    for k in range(1, 5):
        total = 0.0
        for j in range(k + 1):
            phase = np.exp(1j * theta * (k - 2 * j))
            total = total + _BINOM[k][j] * phase * monomial(k - j, j)
        powers.append(total)
    return powers


def promote_normal_order(r1, r2, r3, r4) -> tuple:
    """True quadrature moments from normally ordered ones: {1; 3; 6, 3}."""
    return r1, r2 + 1.0, r3 + 3.0 * r1, r4 + 6.0 * r2 + 3.0


def k3_k4(m1, m2, m3, m4) -> tuple:
    """Third and fourth cumulants from the first four moments (any numeric type)."""
    k3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    k4 = m4 + 2.0 * m1**4 - 3.0 * m2**2 - 4.0 * m1 * k3
    return k3, k4


def _true_moments(means: np.ndarray, theta: float, representation: str) -> np.ndarray:
    """Operator moments <X^k>, shape (..., 4) complex, from monomial means."""
    powers = quadrature_powers(lambda p, q: means[..., MONOMIAL_INDEX[(p, q)]], theta)
    if representation == POSITIVE_P:
        powers = promote_normal_order(*powers)
    out = np.empty(means.shape[:-1] + (4,), dtype=np.complex128)
    for k, column in enumerate(powers):
        out[..., k] = column
    return out


def _pooled_means(acc: MomentAccumulator) -> np.ndarray:
    total = acc.batch_sums.sum(axis=0)
    count = acc.batch_counts.sum()
    if count == 0:
        raise ValueError("accumulator holds no surviving paths")
    return total / count


def _check_imaginary_residue(pooled: np.ndarray, batch_values: np.ndarray):
    n_b = batch_values.shape[0]
    if n_b < 2:
        return
    imag = np.imag(batch_values)
    sigma = imag.std(axis=0, ddof=1) / math.sqrt(n_b)
    scale = np.maximum(np.abs(pooled), 1.0)
    residue = np.abs(np.imag(pooled))
    bad = residue > 5.0 * sigma + 1e-10 * scale
    if bad.any():
        k = int(np.argmax(bad)) + 1
        raise OrderingViolation(
            f"imaginary residue of <X^{k}> is {np.imag(pooled)[k - 1]:.3e}, "
            f"beyond 5 sigma ({sigma[k - 1]:.3e}); ensemble looks biased"
        )


def batch_error(acc: MomentAccumulator, spec: QuadratureSpec) -> CumulantReport:
    """Cumulants with batch standard errors.

    k3 and k4 are computed per batch from that batch's moments; the report
    carries the across-batch mean and the standard error std/sqrt(B).
    """
    if acc.n_batches < MIN_BATCHES:
        raise InsufficientBatches(
            f"{acc.n_batches} batches < required {MIN_BATCHES}"
        )
    means = _batch_means(acc)
    n_eff = means.shape[0]
    if n_eff < MIN_BATCHES:
        raise InsufficientBatches(
            f"only {n_eff} batches retained surviving paths (< {MIN_BATCHES})"
        )
    assembled = _true_moments(means, spec.theta, acc.representation)
    if acc.representation == POSITIVE_P:
        pooled = _true_moments(_pooled_means(acc), spec.theta, POSITIVE_P)
        _check_imaginary_residue(pooled, assembled)
    real_moments = np.real(assembled)
    _check_moment_bounds(real_moments)
    k3, k4 = k3_k4(*(real_moments[..., i] for i in range(4)))
    root_b = math.sqrt(n_eff)
    return CumulantReport(
        kappa3=float(k3.mean()),
        kappa4=float(k4.mean()),
        sigma3=float(k3.std(ddof=1) / root_b),
        sigma4=float(k4.std(ddof=1) / root_b),
        n_paths=acc.n_paths,
        n_diverged=acc.n_diverged,
    )


def _check_moment_bounds(batch_moments: np.ndarray):
    """Variance and quartic Cauchy-Schwarz bounds within sampling tolerance."""
    n_b = batch_moments.shape[0]
    for label, values in (
        ("<X^2> - <X>^2", batch_moments[:, 1] - batch_moments[:, 0] ** 2),
        ("<X^4> - <X^2>^2", batch_moments[:, 3] - batch_moments[:, 1] ** 2),
    ):
        mean = values.mean()
        sigma = values.std(ddof=1) / math.sqrt(n_b) if n_b > 1 else 0.0
        if mean < -(5.0 * sigma + 1e-9 * max(1.0, abs(mean))):
            raise OrderingViolation(
                f"moment bound {label} = {mean:.3e} < 0 beyond 5 sigma ({sigma:.3e})"
            )


# ----------------------------------------------------------------------
# CSV artefacts

CSV_HEADER = "tau,theta,k3,k3_sigma,k4,k4_sigma,n_paths,n_diverged,method"


@dataclass(frozen=True)
class CsvRow:
    tau: float
    theta: float
    k3: float
    k3_sigma: float
    k4: float
    k4_sigma: float
    n_paths: int
    n_diverged: int
    method: str

    @classmethod
    def from_report(
        cls, tau: float, theta: float, report: CumulantReport, method: str
    ) -> "CsvRow":
        return cls(
            tau,
            theta,
            report.kappa3,
            report.sigma3,
            report.kappa4,
            report.sigma4,
            report.n_paths,
            report.n_diverged,
            method,
        )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_rows(path, rows) -> None:
    """Write the cumulant CSV (floats at 17 significant digits)."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    _fmt(r.tau),
                    _fmt(r.theta),
                    _fmt(r.k3),
                    _fmt(r.k3_sigma),
                    _fmt(r.k4),
                    _fmt(r.k4_sigma),
                    str(r.n_paths),
                    str(r.n_diverged),
                    r.method,
                ]
            )
        )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_rows(path) -> list[CsvRow]:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected CSV header")
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != 9:
            raise ValueError(f"{path}: malformed row {ln!r}")
        rows.append(
            CsvRow(
                float(f[0]),
                float(f[1]),
                float(f[2]),
                float(f[3]),
                float(f[4]),
                float(f[5]),
                int(f[6]),
                int(f[7]),
                f[8],
            )
        )
    return rows
