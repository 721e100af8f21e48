"""Command-line interface: derive, simulate, oracle, compare, purity."""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, replace

from . import engine, oracle
from .config import ConfigError, SimulationConfig, parse_config
from .moments import CsvRow, OrderingViolation, batch_error, read_rows, write_rows

KERR_TOKENS = "ad a ad a"

#: Exit codes beyond 0 (success); ``purity`` exits 1 on VIOLATES_PURITY and
#: ``compare`` exits 3 when a row fails.  5 is retired: the oracle no longer
#: has a Fock window to overflow.  4 and 7 are retired: positive-P excludes
#: no path, so no run exceeds a divergence threshold or leaves a batch
#: empty, and the config refuses fewer than 10 batches.
EXIT_INPUT = 2                # unreadable or invalid config, Hamiltonian or CSV; unwritable --out
EXIT_ORDERING_VIOLATION = 6   # estimates fail the imaginary-residue or moment-bound check, or are not finite
EXIT_MEMORY = 8               # a chunk's arrays do not fit in memory (a batch is too large)


def _load_config(args) -> SimulationConfig:
    # utf-8-sig: a byte-order mark, which some editors write, is not part of the first key
    with open(args.config, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    cfg = parse_config(text, seed=args.seed, method=args.method)
    for note in cfg.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return cfg


def _derive_sections(hamiltonian_tokens: str):
    """The derive report, one section (a list of lines) at a time.

    Every model is derived, exactly, before the first section, so that a
    Hamiltonian without one prints nothing.  A positive-P noise amplitude
    is rounded to a float as its section renders, so one beyond the float
    range is refused after the sections before it.
    """
    from . import symbolic
    h = symbolic.normal_order(symbolic.parse_hamiltonian(hamiltonian_tokens))
    wigner = symbolic.derive_wigner_model(h)
    ito = symbolic.derive_positive_p_model(h)
    strat = symbolic.ito_to_stratonovich(ito)
    yield [f"hamiltonian (normal ordered): {symbolic.render_polynomial(h)}"]
    for title, model in (("truncated wigner (drift only)", wigner), ("positive-p (ito)", ito),
                         ("positive-p (stratonovich)", strat)):
        yield ["", f"{title}:", *("  " + ln for ln in symbolic.render_model(model))]
    yield ["  noise correlation: <xi_j(t) xi_j'(t')> = 2i delta(t-t') delta_jj'"]


def _error(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _cmd_derive(args) -> int:
    try:
        for section in _derive_sections(args.hamiltonian):
            print("\n".join(section))
    except ValueError as exc:  # a DerivationError included
        return _error(exc, EXIT_INPUT)
    return 0


def _rows(cfg: SimulationConfig, threads: int | None) -> list[CsvRow]:
    """Run the config's method over its output grid: one CSV row per output."""
    grid = cfg.grid
    alpha0 = math.sqrt(cfg.n_particles)
    if cfg.method == "Oracle":
        # exact values: no sampling error, and no paths to count
        columns = [(k3, 0.0, k4, 0.0, 0, 0)
                   for k3, k4 in oracle.cumulant_series(oracle.init_coherent(alpha0), grid)]
    else:
        ensemble = (alpha0, grid, cfg.n_paths, cfg.batches, cfg.seed, threads)
        run = engine.run_truncated_wigner if cfg.method == "TW" else engine.run_positive_p
        acc = run(*ensemble)
        # n_diverged stays a CSV column, always 0: no path is ever excluded
        columns = [(*estimates, acc.n_paths, 0)
                   for estimates in zip(*(k.tolist() for k in batch_error(acc)))]
    return [
        CsvRow(tau, theta, *values, cfg.method_label)
        for tau, theta, values in zip(grid.taus, grid.thetas, columns)
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
    except OrderingViolation as exc:
        return _error(exc, EXIT_ORDERING_VIOLATION)
    except MemoryError as exc:
        return _error(exc, EXIT_MEMORY)
    elapsed = time.perf_counter() - started
    if cfg.method == "Oracle":
        print(f"oracle: {len(rows)} output times, {elapsed:.1f} s", file=sys.stderr)
    else:
        print(f"{cfg.method_label}: {cfg.n_paths} paths, {len(rows)} output times, {elapsed:.1f} s",
              file=sys.stderr)
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


def worst_row(rows) -> ComparisonRow:
    """The row with the largest |delta| / allowed, a failing one whenever a
    row fails; among failing rows, one whose ratio is not finite (a zero
    allowance, a NaN) ranks above every other."""

    def rank(r: ComparisonRow) -> float:
        ratio = abs(r.delta) / r.allowed if r.allowed else 0.0 if r.passed else math.inf
        return math.inf if math.isnan(ratio) else ratio

    return max([r for r in rows if not r.passed] or rows, key=rank)


def compare_rows(
    rows_a,
    rows_b,
    max_sigma: float = 4.0,
    atol: float = 1e-9,
    k3_peak_frac: float = 0.0,
    k4_peak_frac: float = 0.0,
) -> tuple[ComparisonRow, ...]:
    """Per-row cumulant deltas (a - b) against a sigma/peak tolerance policy.

    A row passes when |delta| <= max(max_sigma * combined sigma,
    peak_frac * peak |cumulant| of the reference file, atol).
    """
    if len(rows_a) != len(rows_b):
        raise ValueError(f"{len(rows_a)} rows vs {len(rows_b)} rows")
    for ra, rb in zip(rows_a, rows_b):
        if ra.tau != rb.tau or ra.theta != rb.theta:
            raise ValueError(
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
    return tuple(out)


def _cmd_compare(args) -> int:
    try:
        rows_a = read_rows(args.csv_a)
        rows_b = read_rows(args.csv_b)
        for path, rows in ((args.csv_a, rows_a), (args.csv_b, rows_b)):
            if not rows:
                raise ValueError(f"{path}: no data rows")
        compared = compare_rows(
            rows_a,
            rows_b,
            max_sigma=args.max_sigma,
            atol=args.atol,
            k3_peak_frac=args.k3_peak_frac,
            k4_peak_frac=args.k4_peak_frac,
        )
    except (OSError, ValueError) as exc:
        return _error(exc, EXIT_INPUT)
    for r in compared:
        ratio = abs(r.delta) / r.sigma if r.sigma > 0 else float("inf") if r.delta else 0.0
        verdict = "PASS" if r.passed else "FAIL"
        print(
            f"tau={r.tau:g} theta={r.theta:g} {r.cumulant}: delta={r.delta:.6g} "
            f"sigma={r.sigma:.6g} |delta|/sigma={ratio:.3g} {verdict}"
        )
    w = worst_row(compared)
    print(
        f"worst row: tau={w.tau:g} {w.cumulant} |delta|={abs(w.delta):.6g} "
        f"allowed={w.allowed:.6g}"
    )
    n_pass = sum(r.passed for r in compared)
    all_passed = n_pass == len(compared)
    print(f"result: {'PASS' if all_passed else 'FAIL'} ({n_pass}/{len(compared)} rows)")
    return 0 if all_passed else 3


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
    from . import symbolic
    try:
        h = symbolic.normal_order(symbolic.parse_hamiltonian(args.hamiltonian))
        model = symbolic.derive_wigner_model(h)
        if args.add_drift_a:
            extra = symbolic.parse_phase_polynomial(args.add_drift_a)
            model = replace(model, drift=(model.drift[0] + extra, model.drift[1]))
        divergence = symbolic.drift_divergence(model)
    except ValueError as exc:  # a DerivationError included
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
