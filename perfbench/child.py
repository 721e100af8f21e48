"""One benchmark round in a fresh process: set up, one timed `simulate` call.

    python3 perfbench/child.py --config run.cfg --seed 7 --out out.csv [--spans spans.npz] [--shift]
    python3 perfbench/child.py --config run.cfg --seed 7 --setup-only

Prints one JSON line: setup_s (import of anharmonic plus parsing the config),
then wall_s, cpu_s and peak_rss_mb of the `simulate` call.  With
--setup-only the process stops after setup and prints setup_s alone.  With
--spans the call runs under the span recorder of tracing.py; the spans are
written to that file once the call has ended, and trace_overhead_s is the
calibrated cost of the wrappers that recorded them.  With --shift the round
then runs the shift-invariance pair (see run.py) outside every measurement:
the configs shift_big.cfg and shift_small.cfg next to --config, both with
SHIFT_SEED, written to shift_big.csv and shift_small.csv there.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = "2"
SHIFT_RUNS = ("shift_big", "shift_small")
#: Fixed, so that the outcome of the shift check does not depend on --seed.
SHIFT_SEED = "1"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--out")
    ap.add_argument("--spans")
    ap.add_argument("--shift", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if not args.setup_only and not args.out:
        ap.error("--out is required unless --setup-only is given")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import anharmonic.cli as cli
    from anharmonic.config import parse_config

    with open(args.config, encoding="utf-8") as fh:
        parse_config(fh.read(), seed=int(args.seed))
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)

    argv = ["simulate", "--config", args.config, "--seed", args.seed,
            "--threads", THREADS, "--out", args.out]
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    if tracer is not None:
        code = tracer.call("cli.main", cli.main, argv)
    else:
        code = cli.main(argv)
    wall_s = time.perf_counter() - started
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    if code != 0:
        print(f"simulate exited with {code}", file=sys.stderr)
        return 1

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.dump(args.spans)
        result["trace_overhead_s"] = tracer.overhead_s()
    if args.shift:
        work = os.path.dirname(os.path.abspath(args.config))
        for name in SHIFT_RUNS:
            code = cli.main(["simulate", "--config", os.path.join(work, name + ".cfg"),
                             "--seed", SHIFT_SEED, "--threads", THREADS,
                             "--out", os.path.join(work, name + ".csv")])
            if code != 0:
                print(f"simulate of {name}.cfg exited with {code}", file=sys.stderr)
                return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
