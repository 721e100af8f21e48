"""Spans around the public functions of each `anharmonic` layer.

Recording (in the round's own process): `instrument` replaces each traced
function by a wrapper under every name a caller looks it up by, because
`engine` imports `stream_for_trajectory`, `sample_wigner_coherent` and
`bulk_monomials` by name and `cli` imports `parse_config`, `batch_error` and
`write_rows` by name.  A span is (name, start, end, thread, work), where work
is a per-call count: normals drawn, paths in a monomial block, or Fock
indices in an oracle window.  Spans stay in memory and are written once, by
`Tracer.dump`, after the traced call has ended.  `Tracer.overhead_s` is the
tracing overhead of the recorded spans: the cost of one wrapped call over a
bare call, measured with the same wrapper, clock and recorder, times the
number of spans.

Analysis (in the benchmark process): `layer_metrics` turns a span file into
the per-layer metrics of PER_LAYER.  A layer's self time is the wall time of
its span that no span of another layer covers, on any thread.
"""

from __future__ import annotations

import threading
import time

#: Per-layer metrics, in the order they are reported, with their units.
#: Sizes labelled bytes_computed are worked out from array shapes, not measured.
PER_LAYER = (
    ("config.parse_ms", "ms"),
    ("symbolic.derive_ms", "ms"),
    ("sampling.stream_us", "us"),
    ("sampling.streams", "count"),
    ("sampling.init_us", "us"),
    ("sampling.normal_ns", "ns"),
    ("sampling.normals", "count"),
    ("engine.self_s", "s"),
    ("engine.path_step_ns", "ns"),
    ("engine.noise_bytes", "bytes_computed"),
    ("moments.monomials_ns", "ns"),
    ("moments.block_bytes", "bytes_computed"),
    ("moments.batch_error_us", "us"),
    ("moments.write_rows_ms", "ms"),
    ("oracle.window", "count"),
    ("oracle.init_ms", "ms"),
    ("oracle.evolve_us", "us"),
    ("oracle.cumulants_us", "us"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_s", "s"),
)

_N_MONOMIALS = 15
#: Calls per repetition, and repetitions, of the wrapper-cost calibration.
_PROBE_CALLS = 20000
_PROBE_REPEATS = 5


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, work=None):
        code = self._code(name)
        record = self.spans.append
        clock = time.perf_counter
        ident = threading.get_ident

        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            record((code, start, end, ident(), work(args, result) if work else 0))
            return result

        return traced

    def call(self, name: str, fn, *args):
        return self.wrap(fn, name)(*args)

    def overhead_s(self) -> float:
        """Seconds the wrappers added to the recorded spans (calibrated).

        The probe wraps a no-op with a work function, as the costlier spans
        have, and records into a separate tracer; the per-call cost is the
        median over repetitions of wrapped minus bare call time.
        """
        import statistics

        def noop(*args):
            return None

        probe = Tracer().wrap(noop, "probe", lambda args, result: 0)
        clock = time.perf_counter
        costs = []
        for _ in range(_PROBE_REPEATS):
            t0 = clock()
            for _ in range(_PROBE_CALLS):
                noop(None)
            t1 = clock()
            for _ in range(_PROBE_CALLS):
                probe(None)
            t2 = clock()
            costs.append(((t2 - t1) - (t1 - t0)) / _PROBE_CALLS)
        return max(statistics.median(costs), 0.0) * len(self.spans)

    def dump(self, path: str) -> None:
        import numpy as np

        spans = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        np.savez(path, spans=spans, names=np.array(self.names))


def instrument(tracer: Tracer) -> None:
    """Wrap every traced function where its callers look it up."""
    from anharmonic import cli, engine, moments, oracle, sampling, symbolic

    def patch(name, fn, owners, work=None):
        wrapped = tracer.wrap(fn, name, work)
        for owner in owners:
            setattr(owner, fn.__name__, wrapped)

    patch("config.parse_config", cli.parse_config, [cli])
    for fn in (symbolic.kerr_hamiltonian, symbolic.derive_positive_p_model,
               symbolic.ito_to_stratonovich):
        patch("symbolic." + fn.__name__, fn, [symbolic])
    patch("sampling.stream_for_trajectory", sampling.stream_for_trajectory, [sampling, engine])
    patch("sampling.sample_wigner_coherent", sampling.sample_wigner_coherent, [sampling, engine])
    patch("sampling.normals", sampling.RandomStream.normals, [sampling.RandomStream],
          lambda args, result: args[1])
    patch("engine.run", engine.run_truncated_wigner, [engine])
    patch("engine.run", engine.run_positive_p, [engine])
    patch("moments.bulk_monomials", moments.bulk_monomials, [moments, engine],
          lambda args, result: len(args[1]))
    patch("moments.batch_error", moments.batch_error, [moments, cli])
    patch("moments.write_rows", moments.write_rows, [moments, cli])
    patch("oracle.init_coherent", oracle.init_coherent, [oracle],
          lambda args, result: result.n_max - result.n_min + 1)
    patch("oracle.evolve", oracle.evolve, [oracle])
    patch("oracle.oracle_cumulants", oracle.oracle_cumulants, [oracle])


# ----------------------------------------------------------------------
# analysis


def _union_length(starts, ends) -> float:
    """Total length covered by the union of intervals [starts_i, ends_i]."""
    import numpy as np

    if len(starts) == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    reach = np.maximum.accumulate(e)
    opens = np.empty(len(s), dtype=bool)
    opens[0] = True
    opens[1:] = s[1:] > reach[:-1]
    first = np.flatnonzero(opens)
    last = np.append(first[1:] - 1, len(s) - 1)
    return float((reach[last] - s[first]).sum())


def _self_time(outer, inner_starts, inner_ends) -> float:
    """Wall time of the outer spans that the inner spans leave uncovered."""
    total = 0.0
    for start, end in outer:
        s = inner_starts.clip(start, end)
        e = inner_ends.clip(start, end)
        total += (end - start) - _union_length(s, e)
    return total


def layer_metrics(path: str, shape: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round (trace.overhead_s excluded).

    ``shape`` describes the workload: n_outputs, path_steps (engine steps
    times paths, 0 for the oracle) and max_gap_steps (integrator steps in the
    longest output gap, 0 without noise).  A per-call figure of a
    layer the workload does not call reads 0.
    """
    import numpy as np

    with np.load(path) as data:
        spans, names = data["spans"], list(data["names"])
    code = spans[:, 0].astype(int)
    dur = spans[:, 2] - spans[:, 1]
    layer = np.array([n.split(".")[0] for n in names])[code] if len(spans) else np.array([])

    def pick(name):
        return code == names.index(name) if name in names else np.zeros(len(spans), bool)

    def count(name):
        return int(pick(name).sum())

    def total(name):
        return float(dur[pick(name)].sum())

    def work(name):
        return float(spans[pick(name), 4].sum())

    def per(numerator, denominator, scale):
        return numerator / denominator * scale if denominator else 0.0

    def self_time(outer_mask, inner_mask):
        outer = spans[outer_mask][:, 1:3]
        return _self_time(outer, spans[inner_mask, 1], spans[inner_mask, 2])

    symbolic = layer == "symbolic"
    m_chunk = int(spans[pick("moments.bulk_monomials"), 4].max()) if count("moments.bulk_monomials") else 0
    engine_self = self_time(pick("engine.run"), (layer == "sampling") | (layer == "moments"))
    cli_self = self_time(pick("cli.main"), layer != "cli")
    return {
        "config.parse_ms": per(total("config.parse_config"), count("config.parse_config"), 1e3),
        "symbolic.derive_ms": _union_length(spans[symbolic, 1], spans[symbolic, 2]) * 1e3,
        "sampling.stream_us": per(total("sampling.stream_for_trajectory"),
                                  count("sampling.stream_for_trajectory"), 1e6),
        "sampling.streams": count("sampling.stream_for_trajectory"),
        "sampling.init_us": per(total("sampling.sample_wigner_coherent"),
                                count("sampling.sample_wigner_coherent"), 1e6),
        "sampling.normal_ns": per(total("sampling.normals"), work("sampling.normals"), 1e9),
        "sampling.normals": int(work("sampling.normals")),
        "engine.self_s": engine_self,
        "engine.path_step_ns": per(engine_self, shape["path_steps"], 1e9),
        "engine.noise_bytes": 2 * m_chunk * shape["max_gap_steps"] * 2 * 8,
        "moments.monomials_ns": per(total("moments.bulk_monomials"),
                                    work("moments.bulk_monomials"), 1e9),
        "moments.block_bytes": shape["n_outputs"] * _N_MONOMIALS * m_chunk * 16,
        "moments.batch_error_us": per(total("moments.batch_error"),
                                      count("moments.batch_error"), 1e6),
        "moments.write_rows_ms": per(total("moments.write_rows"), count("moments.write_rows"), 1e3),
        "oracle.window": int(spans[pick("oracle.init_coherent"), 4].max())
        if count("oracle.init_coherent") else 0,
        "oracle.init_ms": per(total("oracle.init_coherent"), count("oracle.init_coherent"), 1e3),
        "oracle.evolve_us": per(total("oracle.evolve"), count("oracle.evolve"), 1e6),
        "oracle.cumulants_us": per(total("oracle.oracle_cumulants"),
                                   count("oracle.oracle_cumulants"), 1e6),
        "cli.self_ms": cli_self * 1e3,
    }
