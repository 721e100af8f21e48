"""Quadrature power accumulation, operator moments, and cumulant estimation.

A :class:`MomentAccumulator` holds one ensemble run: per-batch sums of the
powers y^k (k = 1..4) of y = x - c at every output time, with
x = exp(-i theta) a + exp(i theta) abar the quadrature at the output's theta
and c its centre, a real number shared by every batch.  ``abar`` is the
conjugate amplitude in the Wigner representation, where x is real, and the
independent starred component in positive-P.  Moments <Y^k> are power sums
over path counts; positive-P averages are normally ordered, and the
constants {1; 3; 6, 3} promote them to operator moments about any centre:

    <Y^2> = <:Y^2:> + 1,  <Y^3> = <:Y^3:> + 3 <:Y:>,  <Y^4> = <:Y^4:> + 6 <:Y^2:> + 3

The cumulants

    k3 = <Y^3> - 3 <Y> <Y^2> + 2 <Y>^3
    k4 = <Y^4> + 2 <Y>^4 - 3 <Y^2>^2 - 4 <Y> k3

do not depend on c, but their rounding does: about zero the fourth power
reaches (2 sqrt(N))^4, about a centre near the mean only the spread's.
:func:`batch_error` forms every estimate from the sums pooled over all
batches and its sigma by the delete-one-batch jackknife (Quenouille 1956;
Efron 1982).  The oracle forms its cumulants with the same :func:`k3_k4`, in
exact integer arithmetic, from its normally ordered moments at one scale:
the promotion changes neither k3 nor k4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

#: The two phase-space representations an accumulator can hold.
WIGNER = "wigner"
POSITIVE_P = "positive_p"

#: Rows of a power block and of a batch's sums: y, y^2, y^3, y^4.
N_POWERS = 4

#: Power block and sum dtype of each representation (Wigner quadratures are real).
DTYPES = {WIGNER: np.float64, POSITIVE_P: np.complex128}

#: Minimum number of batches for a meaningful standard-error estimate.
MIN_BATCHES = 10


class OrderingViolation(RuntimeError):
    """Estimates are inconsistent with a valid operator average,
    e.g. an imaginary residue or moment bound violated beyond 5 sigma, or a
    cumulant that is not finite."""


class InsufficientBatches(ValueError):
    """Fewer batches than required for batch standard errors."""


class MomentAccumulator:
    """Per-batch sums of y^k (k = 1..4), y = x - c, of one run, at every output.

    ``batch_sums`` has shape (n_outputs, n_batches, N_POWERS); ``centres``
    holds each output's c (zero unless set), and ``batch_counts`` (shape
    (n_batches,)) each batch's paths, the same at every output."""

    __slots__ = ("representation", "batch_sums", "centres", "batch_counts")

    def __init__(self, representation: str, n_outputs: int, n_batches: int):
        if representation not in (WIGNER, POSITIVE_P):
            raise ValueError(f"unknown representation {representation!r}")
        if n_batches < 1:
            raise ValueError("need at least one batch")
        self.representation = representation
        self.batch_sums = np.zeros((n_outputs, n_batches, N_POWERS), dtype=DTYPES[representation])
        self.centres = np.zeros(n_outputs)
        self.batch_counts = np.zeros(n_batches, dtype=np.int64)

    @property
    def n_batches(self) -> int:
        return self.batch_counts.shape[0]

    @property
    def n_paths(self) -> int:
        return int(self.batch_counts.sum())


def bulk_monomials(theta: float, a, b, centre=0.0, out=None) -> np.ndarray:
    """Powers y, y^2, y^3, y^4 of each path's displaced quadrature y = x - centre
    at phase theta, shape (4, m).

    A positive-P pair (a, b = abar) gives x = e^{-i theta} a + e^{i theta} b
    in a complex block; a Wigner phasor a = e^{-i theta} 2 alpha, already at
    the phase (b None, theta unread), gives x = Re a in a float64 block.
    Every row is written straight into ``out`` (allocated when not given).
    """
    if out is None:
        out = np.empty((N_POWERS, len(a)), dtype=DTYPES[WIGNER if b is None else POSITIVE_P])
    x, x2, x3, x4 = out
    if b is None:
        np.subtract(a.real, centre, out=x)
    else:
        c, s = math.cos(theta), math.sin(theta)
        np.multiply(a, complex(c, -s), out=x)
        np.multiply(b, complex(c, s), out=x2)
        x += x2
        x -= centre
    np.multiply(x, x, out=x2)
    np.multiply(x2, x, out=x3)
    np.multiply(x2, x2, out=x4)
    return out


def promote_normal_order(r1, r2, r3, r4) -> tuple:
    """True quadrature moments from normally ordered ones: {1; 3; 6, 3}."""
    return r1, r2 + 1.0, r3 + 3.0 * r1, r4 + 6.0 * r2 + 3.0


def k3_k4(m1, m2, m3, m4) -> tuple:
    """Third and fourth cumulants from the first four moments: numpy arrays,
    mpmath numbers, or Python integers (moments of order k at scale 2^(k L)),
    for which the cumulants come out exact (at scale 2^(3L) and 2^(4L)).
    Integer literals and products (not libm pow), so one formula serves all three."""
    k3 = m3 - 3 * m1 * m2 + 2 * (m1 * m1 * m1)
    k4 = m4 + 2 * (m1 * m1 * (m1 * m1)) - 3 * (m2 * m2) - 4 * m1 * k3
    return k3, k4


def _jackknife(loo: np.ndarray) -> np.ndarray:
    """sqrt((B - 1)/B sum_b (k_(b) - mean)^2) over the B delete-one-batch estimates k_(b)."""
    return loo.std(axis=-1) * math.sqrt(loo.shape[-1] - 1)


def batch_error(acc: MomentAccumulator) -> tuple[np.ndarray, ...]:
    """Pooled cumulants with delete-one-batch jackknife errors: the float64
    arrays (k3, sigma3, k4, sigma4), one entry per output.

    Every estimate (k3, k4, the imaginary residue of each positive-P <Y^k>,
    the variance and quartic moment bounds) comes from the sums pooled over
    the B batches, and its sigma from the B estimates that each leave one
    of them out.  The checks raise, beyond 5 sigma, for the earliest output
    that fails one, residues first; a NaN fails every check.
    """
    counts = acc.batch_counts
    if acc.n_batches < MIN_BATCHES:
        raise InsufficientBatches(f"only {acc.n_batches} batches (< {MIN_BATCHES})")
    n = counts.sum()
    pooled, loo = [], []
    # one copy with the batch axis last and contiguous: pairwise sums
    for sums in np.ascontiguousarray(np.moveaxis(acc.batch_sums, -1, 0)):
        total = sums.sum(axis=-1)
        pooled.append(total / n)
        loo.append((total[:, None] - sums) / (n - counts))
    checks = []
    if acc.representation == POSITIVE_P:
        pooled, loo = promote_normal_order(*pooled), promote_normal_order(*loo)
        for k, (m, m_loo) in enumerate(zip(pooled, loo), start=1):
            value, sigma = np.imag(m), _jackknife(np.imag(m_loo))
            floor = 1e-10 * np.maximum(np.maximum(np.abs(m), np.abs(acc.centres) ** k), 1.0)
            checks.append((~(np.abs(value) <= 5.0 * sigma + floor), f"imaginary residue of "
                           f"<(X-c)^{k}> is {{:.3e}}, beyond 5 sigma ({{:.3e}}); ensemble looks biased",
                           value, sigma))
    m1, m2, m3, m4 = (np.real(m) for m in pooled)
    l1, l2, l3, l4 = (np.real(m) for m in loo)
    for label, value, values in (("<X^2> - <X>^2", m2 - m1**2, l2 - l1**2),
                                 ("<(X-c)^4> - <(X-c)^2>^2", m4 - m2**2, l4 - l2**2)):
        sigma = _jackknife(values)
        bad = ~(value >= -(5.0 * sigma + 1e-9 * np.maximum(1.0, np.abs(value))))
        checks.append((bad, f"moment bound {label} = {{:.3e}} < 0 beyond 5 sigma ({{:.3e}})",
                       value, sigma))
    k3, k4 = k3_k4(m1, m2, m3, m4)
    sigma3, sigma4 = (_jackknife(k) for k in k3_k4(l1, l2, l3, l4))
    for label, value, sigma in (("k3", k3, sigma3), ("k4", k4, sigma4)):
        checks.append((~np.isfinite(value) | ~np.isfinite(sigma),
                       f"{label} = {{:.3e}} +- {{:.3e}} is not finite", value, sigma))
    failing = np.argwhere(np.array([check[0] for check in checks]).T)
    if len(failing):
        output, i = failing[0]
        _, message, value, sigma = checks[i]
        raise OrderingViolation(message.format(value[output], sigma[output]))
    return k3, sigma3, k4, sigma4


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
    n_diverged: int  # always 0, since no path is excluded; kept for the column's readers
    method: str


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
