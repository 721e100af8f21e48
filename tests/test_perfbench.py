"""Smoke test of one traced benchmark round.

`perfbench/tracing.py` wraps functions of the package by name, so a renamed
or deleted traced function breaks `perfbench/run.py --trace 1`.  One tiny
traced round of `perfbench/child.py` catches that here.
"""

import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def traced_span_names(tmp_path, config_text):
    """Names of the spans that one traced child round records on this config.

    The span file lists every wrapped name; only the recorded spans show
    which of them were called.
    """
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    spans = tmp_path / "spans.npz"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), "--config", str(cfg),
         "--seed", "1", "--out", str(tmp_path / "out.csv"), "--spans", str(spans)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with np.load(spans) as data:
        names = data["names"]
        return {str(names[code]) for code in data["spans"][:, 0].astype(int)}


def test_traced_child_round_runs(tmp_path):
    # positive-P monomials are formed through engine's bulk_monomials, where
    # tracing.py wraps it, so moments.monomials_ns does not read zero
    names = traced_span_names(
        tmp_path,
        "method = PositiveP\nN = 1000\nn_paths = 400\nbatches = 10\n"
        "tau_start = 0\ntau_stop = 0.05\ntau_points = 2\ndtau = 1e-3\n",
    )
    assert {"engine.run", "sampling.stream_for_trajectory", "moments.bulk_monomials",
            "moments.batch_error"} <= names


def test_traced_wigner_round_draws_through_the_stream(tmp_path):
    # truncated-Wigner initial draws go through the traced stream and the
    # sampler, which engine calls by name, so the sampling metrics of a TW
    # workload (sampling.init_us among them) do not read zero
    names = traced_span_names(
        tmp_path,
        "method = TW\nN = 1000\nn_paths = 400\nbatches = 10\n"
        "tau_start = 0\ntau_stop = 1\ntau_points = 3\n",
    )
    assert {"sampling.stream_for_trajectory", "sampling.sample_wigner_coherent",
            "sampling.normals", "moments.bulk_monomials"} <= names


def test_traced_oracle_round_runs(tmp_path):
    # the oracle metrics read zero if the output loop stops calling the
    # oracle functions through the module, where tracing.py wraps them
    names = traced_span_names(
        tmp_path, "method = Oracle\nN = 1000\ntau_start = 0\ntau_stop = 1\ntau_points = 3\n"
    )
    assert {"oracle.init_coherent", "oracle.evolve", "oracle.oracle_cumulants"} <= names
