"""Quadrature power accumulation, operator moments, and cumulant estimation.

A :class:`MomentAccumulator` holds one ensemble run: per-batch sums of the
powers x^k (k = 1..4) of the phase-space quadrature
``x = exp(-i theta) a + exp(i theta) abar`` at every output time, each
output at its own theta.  ``abar`` is the conjugate amplitude in the
Wigner representation, where x is real, and the independent starred
component in positive-P.  The power zero is not kept: its batch sum is the
batch's path count, and every power of a zero amplitude pair is zero.
A batch's moments <X^k> are its sums over its path count; positive-P
averages are normally ordered and are promoted to true operator moments
with the constants {1; 3; 6, 3}:

    <X^2> = <:X^2:> + 1
    <X^3> = <:X^3:> + 3 <:X:>
    <X^4> = <:X^4:> + 6 <:X^2:> + 3

Third- and fourth-order cumulants follow as

    k3 = <X^3> - 3 <X> <X^2> + 2 <X>^3
    k4 = <X^4> + 2 <X>^4 - 3 <X^2>^2 - 4 <X> k3

with sampling errors estimated from the spread of per-batch values.
:func:`batch_error` estimates every output of a run in one pass.  The
closed-form oracle forms its cumulants with the same :func:`k3_k4`, in mpmath
numbers, straight from its exact normally ordered moments: the promotion adds
an independent unit Gaussian, which changes neither k3 nor k4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

#: The two phase-space representations an accumulator can hold.
WIGNER = "wigner"
POSITIVE_P = "positive_p"

#: Rows of a power block and of a batch's sums: x, x^2, x^3, x^4.
N_POWERS = 4

#: Minimum number of batches for a meaningful standard-error estimate.
MIN_BATCHES = 10


class OrderingViolation(RuntimeError):
    """Estimates are inconsistent with a valid operator average,
    e.g. an imaginary residue or moment bound violated beyond 5 sigma."""


class InsufficientBatches(ValueError):
    """Fewer batches than required for batch standard errors."""


@dataclass(frozen=True)
class CumulantReport:
    kappa3: float
    kappa4: float
    sigma3: float
    sigma4: float
    n_paths: int
    n_diverged: int


class MomentAccumulator:
    """Per-batch sums of x, x^2, x^3 and x^4 of one ensemble run, at every output time.

    ``batch_sums`` has shape (n_outputs, n_batches, N_POWERS).  A path's
    survival is decided once per run, so ``batch_counts`` (surviving paths)
    and ``batch_diverged`` (shape (n_batches,)) hold for every output.
    """

    __slots__ = ("representation", "batch_sums", "batch_counts", "batch_diverged")

    def __init__(self, representation: str, n_outputs: int, n_batches: int):
        if representation not in (WIGNER, POSITIVE_P):
            raise ValueError(f"unknown representation {representation!r}")
        if n_batches < 1:
            raise ValueError("need at least one batch")
        self.representation = representation
        self.batch_sums = np.zeros((n_outputs, n_batches, N_POWERS), dtype=np.complex128)
        self.batch_counts = np.zeros(n_batches, dtype=np.int64)
        self.batch_diverged = np.zeros(n_batches, dtype=np.int64)

    @property
    def n_outputs(self) -> int:
        return self.batch_sums.shape[0]

    @property
    def n_batches(self) -> int:
        return self.batch_counts.shape[0]

    @property
    def n_paths(self) -> int:
        return int(self.batch_counts.sum())

    @property
    def n_diverged(self) -> int:
        return int(self.batch_diverged.sum())


def bulk_monomials(theta: float, a, b, representation: str, out=None) -> np.ndarray:
    """Powers x, x^2, x^3, x^4 of each path's quadrature at phase theta, shape (4, m).

    A positive-P pair (a, b = abar) gives x = e^{-i theta} a + e^{i theta} b
    in a complex block.  A Wigner amplitude alpha comes in polar form,
    (a, b) = (arg alpha, 2 |alpha|), and x = b cos(a - theta), one real
    cosine per path, in a float64 block.  Every row is written straight into
    ``out`` (allocated when not given).
    """
    polar = representation == WIGNER
    if out is None:
        out = np.empty((N_POWERS, len(a)), dtype=np.float64 if polar else np.complex128)
    x, x2, x3, x4 = out
    if polar:
        np.subtract(a, theta, out=x)
        np.cos(x, out=x)
        x *= b
    else:
        np.multiply(a, complex(math.cos(theta), -math.sin(theta)), out=x)
        np.multiply(b, complex(math.cos(theta), math.sin(theta)), out=x2)
        x += x2
    np.multiply(x, x, out=x2)
    np.multiply(x2, x, out=x3)
    np.multiply(x2, x2, out=x4)
    return out


def promote_normal_order(r1, r2, r3, r4) -> tuple:
    """True quadrature moments from normally ordered ones: {1; 3; 6, 3}."""
    return r1, r2 + 1.0, r3 + 3.0 * r1, r4 + 6.0 * r2 + 3.0


def k3_k4(m1, m2, m3, m4) -> tuple:
    """Third and fourth cumulants from the first four moments (any numeric type)."""
    k3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    k4 = m4 + 2.0 * m1**4 - 3.0 * m2**2 - 4.0 * m1 * k3
    return k3, k4


def _residue_failures(acc, batch_moments, root_b) -> list:
    """Imaginary residue of each pooled <X^k> against 5 sigma of its batch values.

    One (bad, message, residue, sigma) per moment; bad has shape (n_outputs,).
    """
    pooled = promote_normal_order(*(acc.batch_sums.sum(axis=1) / acc.batch_counts.sum()).T)
    checks = []
    for k, (total, values) in enumerate(zip(pooled, batch_moments), start=1):
        sigma = np.imag(values).std(axis=-1, ddof=1) / root_b
        bad = np.abs(np.imag(total)) > 5.0 * sigma + 1e-10 * np.maximum(np.abs(total), 1.0)
        message = (f"imaginary residue of <X^{k}> is {{:.3e}}, "
                   "beyond 5 sigma ({:.3e}); ensemble looks biased")
        checks.append((bad, message, np.imag(total), sigma))
    return checks


def _bound_failures(m1, m2, m4, root_b) -> list:
    """Variance and quartic Cauchy-Schwarz bounds within 5 sigma of the batch values.

    One (bad, message, mean, sigma) per bound; bad has shape (n_outputs,).
    """
    checks = []
    for label, values in (("<X^2> - <X>^2", m2 - m1**2), ("<X^4> - <X^2>^2", m4 - m2**2)):
        mean = values.mean(axis=-1)
        sigma = values.std(axis=-1, ddof=1) / root_b
        bad = mean < -(5.0 * sigma + 1e-9 * np.maximum(1.0, np.abs(mean)))
        checks.append((bad, f"moment bound {label} = {{:.3e}} < 0 beyond 5 sigma ({{:.3e}})",
                       mean, sigma))
    return checks


def batch_error(acc: MomentAccumulator) -> list[CumulantReport]:
    """Cumulants with batch standard errors, one report per output time.

    k3 and k4 are computed per batch from that batch's moments, its power
    sums over its path count; each report carries the across-batch mean and
    the standard error std/sqrt(B).  Every output is estimated in one pass
    over the batch axis.  The checks raise for the earliest output that
    fails one: the imaginary residue (positive-P) first, then the variance
    and quartic moment bounds.
    """
    if acc.n_batches < MIN_BATCHES:
        raise InsufficientBatches(f"{acc.n_batches} batches < required {MIN_BATCHES}")
    alive = acc.batch_counts > 0
    counts = acc.batch_counts[alive]
    n_eff = counts.shape[0]
    if n_eff < MIN_BATCHES:
        raise InsufficientBatches(
            f"only {n_eff} batches retained surviving paths (< {MIN_BATCHES})"
        )
    # Each power's batch means are formed with the batch axis last and
    # contiguous, so every batch reduction below is pairwise.
    moments = [np.compress(alive, acc.batch_sums[..., k], axis=-1) / counts
               for k in range(N_POWERS)]
    if acc.representation == POSITIVE_P:
        moments = promote_normal_order(*moments)
    root_b = math.sqrt(n_eff)
    m1, m2, m3, m4 = (np.real(x) for x in moments)
    checks = _bound_failures(m1, m2, m4, root_b)
    if acc.representation == POSITIVE_P:
        checks = _residue_failures(acc, moments, root_b) + checks
    failing = np.argwhere(np.array([check[0] for check in checks]).T)
    if len(failing):
        output, i = failing[0]
        _, message, value, sigma = checks[i]
        raise OrderingViolation(message.format(value[output], sigma[output]))
    k3, k4 = k3_k4(m1, m2, m3, m4)
    sigma3 = k3.std(axis=-1, ddof=1) / root_b
    sigma4 = k4.std(axis=-1, ddof=1) / root_b
    n_paths, n_diverged = acc.n_paths, acc.n_diverged
    return [
        CumulantReport(float(a), float(b), float(c), float(d), n_paths, n_diverged)
        for a, b, c, d in zip(k3.mean(axis=-1), k4.mean(axis=-1), sigma3, sigma4)
    ]


# ----------------------------------------------------------------------
# CSV artefacts


@dataclass(frozen=True)
class CsvRow:
    """One output row; the CSV columns are these fields, in this order."""

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
        return cls(tau, theta, report.kappa3, report.sigma3, report.kappa4, report.sigma4,
                   report.n_paths, report.n_diverged, method)


CSV_HEADER = ",".join(f.name for f in fields(CsvRow))


def _column_types() -> list[type]:
    """The type of each CSV column, from CsvRow's field annotations."""
    return [{"float": float, "int": int, "str": str}[f.type] for f in fields(CsvRow)]


def write_rows(path, rows) -> None:
    """Write the cumulant CSV (floats at 17 significant digits)."""
    types = _column_types()
    lines = [CSV_HEADER]
    for r in rows:
        values = (getattr(r, f.name) for f in fields(r))
        lines.append(",".join(
            format(v, ".17g") if kind is float else str(v) for kind, v in zip(types, values)
        ))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_rows(path) -> list[CsvRow]:
    types = _column_types()
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected CSV header")
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != len(types):
            raise ValueError(f"{path}: malformed row {ln!r}")
        rows.append(CsvRow(*(kind(x) for kind, x in zip(types, f))))
    return rows
