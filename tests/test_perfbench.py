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


def test_traced_child_round_runs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "method = PositiveP\nN = 1000\nn_paths = 400\nbatches = 10\n"
        "tau_start = 0\ntau_stop = 0.05\ntau_points = 2\ndtau = 1e-3\n"
    )
    spans = tmp_path / "spans.npz"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), "--config", str(cfg),
         "--seed", "1", "--out", str(tmp_path / "out.csv"), "--spans", str(spans)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    names = set(np.load(spans)["names"])
    assert {"engine.run", "sampling.stream_for_trajectory", "moments.batch_error"} <= names
