"""Command-line interface: derive, simulate, oracle, compare, purity."""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, replace

from . import engine, oracle, symbolic
from .config import ConfigError, SimulationConfig, parse_config
from .moments import (
    CsvRow,
    InsufficientBatches,
    OrderingViolation,
    QuadratureSpec,
    batch_error,
    read_rows,
    write_rows,
)

KERR_TOKENS = "ad a ad a"

#: Exit codes beyond 0 (success); ``purity`` exits 1 on VIOLATES_PURITY and
#: ``compare`` exits 3 when a row fails.  5 is retired: the oracle no longer
#: has a Fock window to overflow.
EXIT_INPUT = 2                # unreadable or invalid config, Hamiltonian or CSV; unwritable --out
EXIT_DIVERGENCE = 4           # more paths diverged than divergence_threshold allows
EXIT_ORDERING_VIOLATION = 6   # estimates fail the imaginary-residue or moment-bound check
EXIT_INSUFFICIENT_BATCHES = 7 # fewer than 10 batches kept a surviving path over the run
EXIT_MEMORY = 8               # a chunk's arrays do not fit in memory (a batch is too large)


class GridMismatch(ValueError):
    """Compared CSV files do not share the same tau/theta grid."""


def _load_config(args) -> SimulationConfig:
    # utf-8-sig: a byte-order mark, which some editors write, is not part of the first key
    with open(args.config, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    cfg = parse_config(text, seed=args.seed, method=args.method)
    for note in cfg.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return cfg


def _derive_text(hamiltonian_tokens: str) -> list[str]:
    words = symbolic.parse_hamiltonian(hamiltonian_tokens)
    h = symbolic.normal_order(words)
    lines = [f"hamiltonian (normal ordered): {symbolic.render_polynomial(h)}"]

    wigner = symbolic.derive_wigner_model(h)
    lines.append("")
    lines.append("truncated wigner (drift only):")
    lines.extend("  " + ln for ln in symbolic.render_model(wigner))

    ito = symbolic.derive_positive_p_model(h)
    strat = symbolic.ito_to_stratonovich(ito)
    lines.append("")
    lines.append("positive-p (ito):")
    lines.extend("  " + ln for ln in symbolic.render_model(ito))
    lines.append("")
    lines.append("positive-p (stratonovich):")
    lines.extend("  " + ln for ln in symbolic.render_model(strat))
    lines.append("  noise correlation: <xi_j(t) xi_j'(t')> = 2i delta(t-t') delta_jj'")
    return lines


def _error(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _cmd_derive(args) -> int:
    try:
        for line in _derive_text(args.hamiltonian):
            print(line)
    except (ValueError, symbolic.DerivationError) as exc:
        return _error(exc, EXIT_INPUT)
    return 0


def _rows(cfg: SimulationConfig, threads: int | None) -> list[CsvRow]:
    """Run the config's method over its output grid: one CSV row per output."""
    grid = engine.TimeGrid(cfg.n_particles, cfg.taus, cfg.dtau)
    alpha0 = math.sqrt(cfg.n_particles)
    specs = [QuadratureSpec(cfg.theta_for(tau)) for tau in grid.taus]
    if cfg.method == "Oracle":
        reports = oracle.cumulant_series(oracle.init_coherent(alpha0), grid.times, specs)
    elif cfg.method == "TW":
        acc = engine.run_truncated_wigner(alpha0, grid, cfg.n_paths, cfg.batches, cfg.seed, threads)
        reports = batch_error(acc, specs)
    else:
        acc = engine.run_positive_p(
            alpha0, grid, cfg.n_paths, cfg.batches, cfg.seed, threads,
            divergence_threshold=cfg.divergence_threshold,
        )
        reports = batch_error(acc, specs)
    return [
        CsvRow.from_report(tau, spec.theta, report, cfg.method_label)
        for tau, spec, report in zip(grid.taus, specs, reports)
    ]


def _cmd_simulate(args) -> int:
    """``simulate`` runs the config's method; ``oracle`` runs the oracle on its grid."""
    try:
        cfg = _load_config(args)
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        return _error(exc, EXIT_INPUT)
    started = time.perf_counter()
    try:
        rows = _rows(cfg, args.threads)
        write_rows(args.out, rows)
    except OSError as exc:
        return _error(exc, EXIT_INPUT)
    except engine.ExcessiveDivergence as exc:
        return _error(exc, EXIT_DIVERGENCE)
    except OrderingViolation as exc:
        return _error(exc, EXIT_ORDERING_VIOLATION)
    except InsufficientBatches as exc:
        return _error(exc, EXIT_INSUFFICIENT_BATCHES)
    except MemoryError as exc:
        return _error(exc, EXIT_MEMORY)
    elapsed = time.perf_counter() - started
    if cfg.method == "Oracle":
        print(f"oracle: {len(rows)} output times, {elapsed:.1f} s", file=sys.stderr)
    else:
        print(
            f"{cfg.method_label}: {cfg.n_paths} paths, {len(rows)} output times, "
            f"{rows[-1].n_diverged} diverged, {elapsed:.1f} s",
            file=sys.stderr,
        )
    return 0


@dataclass(frozen=True)
class ComparisonRow:
    tau: float
    theta: float
    cumulant: str
    delta: float
    sigma: float
    allowed: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def worst(self) -> ComparisonRow:
        """The row with the largest |delta| / allowed, a failing one whenever
        a row fails; among failing rows, one whose ratio is not finite (a zero
        allowance, a NaN) ranks above every other."""

        def rank(r: ComparisonRow) -> float:
            ratio = abs(r.delta) / r.allowed if r.allowed else 0.0 if r.passed else math.inf
            return math.inf if math.isnan(ratio) else ratio

        return max([r for r in self.rows if not r.passed] or self.rows, key=rank)


def compare_rows(
    rows_a,
    rows_b,
    max_sigma: float = 4.0,
    atol: float = 1e-9,
    k3_peak_frac: float = 0.0,
    k4_peak_frac: float = 0.0,
) -> ComparisonReport:
    """Per-row cumulant deltas (a - b) against a sigma/peak tolerance policy.

    A row passes when |delta| <= max(max_sigma * combined sigma,
    peak_frac * peak |cumulant| of the reference file, atol).
    """
    if len(rows_a) != len(rows_b):
        raise GridMismatch(f"{len(rows_a)} rows vs {len(rows_b)} rows")
    for ra, rb in zip(rows_a, rows_b):
        if ra.tau != rb.tau or ra.theta != rb.theta:
            raise GridMismatch(
                f"grid rows differ: tau {ra.tau} vs {rb.tau}, theta {ra.theta} vs {rb.theta}"
            )
    peak3 = max((abs(r.k3) for r in rows_b), default=0.0)
    peak4 = max((abs(r.k4) for r in rows_b), default=0.0)
    out = []
    for ra, rb in zip(rows_a, rows_b):
        for name, va, vb, sa, sb, peak, frac in (
            ("k3", ra.k3, rb.k3, ra.k3_sigma, rb.k3_sigma, peak3, k3_peak_frac),
            ("k4", ra.k4, rb.k4, ra.k4_sigma, rb.k4_sigma, peak4, k4_peak_frac),
        ):
            sigma = math.hypot(sa, sb)
            allowed = max(max_sigma * sigma, frac * peak, atol)
            delta = va - vb
            out.append(
                ComparisonRow(
                    ra.tau, ra.theta, name, delta, sigma, allowed, abs(delta) <= allowed
                )
            )
    return ComparisonReport(tuple(out))


def _cmd_compare(args) -> int:
    try:
        rows_a = read_rows(args.csv_a)
        rows_b = read_rows(args.csv_b)
        for path, rows in ((args.csv_a, rows_a), (args.csv_b, rows_b)):
            if not rows:
                raise ValueError(f"{path}: no data rows")
        report = compare_rows(
            rows_a,
            rows_b,
            max_sigma=args.max_sigma,
            atol=args.atol,
            k3_peak_frac=args.k3_peak_frac,
            k4_peak_frac=args.k4_peak_frac,
        )
    except (OSError, ValueError) as exc:
        return _error(exc, EXIT_INPUT)
    for r in report.rows:
        ratio = abs(r.delta) / r.sigma if r.sigma > 0 else float("inf") if r.delta else 0.0
        verdict = "PASS" if r.passed else "FAIL"
        print(
            f"tau={r.tau:g} theta={r.theta:g} {r.cumulant}: delta={r.delta:.6g} "
            f"sigma={r.sigma:.6g} |delta|/sigma={ratio:.3g} {verdict}"
        )
    w = report.worst
    print(
        f"worst row: tau={w.tau:g} {w.cumulant} |delta|={abs(w.delta):.6g} "
        f"allowed={w.allowed:.6g}"
    )
    n_pass = sum(r.passed for r in report.rows)
    print(f"result: {'PASS' if report.all_passed else 'FAIL'} ({n_pass}/{len(report.rows)} rows)")
    return 0 if report.all_passed else 3


def _tolerance(text: str) -> float:
    """argparse type of the ``compare`` tolerances: a finite value >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite value >= 0, got {text!r}")
    return value


def _threads(text: str) -> int:
    """argparse type of ``--threads``: a whole number >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a worker count >= 1, got {text!r}")
    return value


def _cmd_purity(args) -> int:
    try:
        h = symbolic.normal_order(symbolic.parse_hamiltonian(args.hamiltonian))
        model = symbolic.derive_wigner_model(h)
        if args.add_drift_a:
            extra = symbolic.parse_phase_polynomial(args.add_drift_a)
            model = replace(model, drift=(model.drift[0] + extra, model.drift[1]))
        divergence = symbolic.drift_divergence(model)
    except (ValueError, symbolic.DerivationError) as exc:
        return _error(exc, EXIT_INPUT)
    print(f"drift divergence: {symbolic.render_polynomial(divergence)}")
    if divergence.is_zero():
        print("verdict: PRESERVES_PURITY")
        return 0
    print("verdict: VIOLATES_PURITY")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anharmonic",
        description="Phase-space trajectory simulation and exact benchmarking "
        "of the anharmonic oscillator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="print the derived trajectory models")
    p.add_argument("--hamiltonian", default=KERR_TOKENS, help="ladder tokens, e.g. 'ad a ad a'")
    p.set_defaults(func=_cmd_derive)

    # the method that runs: the config's, or the oracle whatever the config's
    for name, method, help_text in (
        ("simulate", None, "run the configured method and write a CSV"),
        ("oracle", "Oracle", "write the exact reference CSV for the config grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to key=value config")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument(
            "--threads", type=_threads, default=None,
            help="workers for ensemble chunks, at most the CPUs this process may "
            "run on (default: all of them); the oracle runs on one thread",
        )
        p.add_argument("--out", required=True, help="output CSV path")
        p.set_defaults(func=_cmd_simulate, method=method)

    p = sub.add_parser("compare", help="compare two cumulant CSVs")
    p.add_argument("csv_a")
    p.add_argument("csv_b")
    p.add_argument("--max-sigma", type=_tolerance, default=4.0)
    p.add_argument("--atol", type=_tolerance, default=1e-9)
    p.add_argument("--k3-peak-frac", type=_tolerance, default=0.0)
    p.add_argument("--k4-peak-frac", type=_tolerance, default=0.0)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("purity", help="check the volume-preservation condition")
    p.add_argument("--hamiltonian", default=KERR_TOKENS)
    p.add_argument(
        "--add-drift-a",
        default=None,
        help="extra polynomial added to d(alpha)/dt, same token grammar",
    )
    p.set_defaults(func=_cmd_purity)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
