import os
import subprocess
import sys

import pytest

import anharmonic
from anharmonic import cli
from anharmonic.cli import compare_rows, main
from anharmonic.moments import CsvRow, OrderingViolation, read_rows


EXPECTED_DERIVE = """\
hamiltonian (normal ordered): 1+0i * a*^1 a^1 + 1+0i * a*^2 a^2

truncated wigner (drift only):
  d(alpha)/dt = 0+1i * a*^0 a^1 + 0-2i * a*^1 a^2
  d(alpha*)/dt = 0-1i * a*^1 a^0 + 0+2i * a*^2 a^1
  discarded: d^3/d(alpha)^1 d(alpha*)^2 [0+0.5i * a*^1 a^0]
  discarded: d^3/d(alpha)^2 d(alpha*)^1 [0-0.5i * a*^0 a^1]

positive-p (ito):
  d(alpha1)/dt = 0-1i * a*^0 a^1 + 0-2i * a*^1 a^2
  d(alpha2*)/dt = 0+1i * a*^1 a^0 + 0+2i * a*^2 a^1
  noise on alpha1: 1-1i * a*^0 a^1
  noise on alpha2*: 1+1i * a*^1 a^0

positive-p (stratonovich):
  d(alpha1)/dt = 0-2i * a*^1 a^2
  d(alpha2*)/dt = 0+2i * a*^2 a^1
  noise on alpha1: 1-1i * a*^0 a^1
  noise on alpha2*: 1+1i * a*^1 a^0
  noise correlation: <xi_j(t) xi_j'(t')> = 2i delta(t-t') delta_jj'
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDerive:
    def test_anharmonic_snapshot(self, capsys):
        code, out, _ = run_cli(capsys, "derive")
        assert code == 0
        assert out == EXPECTED_DERIVE

    def test_bad_hamiltonian(self, capsys):
        code, _, err = run_cli(capsys, "derive", "--hamiltonian", "ad q")
        assert code == 2
        assert "bad token" in err


class TestPurity:
    def test_anharmonic_preserves(self, capsys):
        code, out, _ = run_cli(capsys, "purity")
        assert code == 0
        assert "verdict: PRESERVES_PURITY" in out

    def test_harmonic_preserves(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--hamiltonian", "ad a")
        assert code == 0
        assert "PRESERVES_PURITY" in out

    def test_damping_term_violates(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--add-drift-a", "a")
        assert code == 1
        assert "VIOLATES_PURITY" in out
        assert "1+0i * a*^0 a^0" in out


def write_config(path, **overrides):
    base = {
        "method": "TW",
        "N": 100,
        "n_paths": 2000,
        "batches": 20,
        "tau_start": 0,
        "tau_stop": 1,
        "tau_points": 3,
        "dtau": 1e-3,
    }
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))


class TestSimulate:
    def test_tw_run_writes_csv(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "tw.csv"
        write_config(cfg)
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(out), "--seed", "3"
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 3
        assert all(r.method == "tw" for r in rows)
        assert all(r.n_diverged == 0 for r in rows)
        assert rows[1].theta == pytest.approx(1.0)  # rotating frame: 2 * tau

    def test_bad_config_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = TW\nN = 100\nwhat = 3\n")
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "what" in err

    def test_method_oracle_in_simulate(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "oracle.csv"
        write_config(cfg, method="Oracle", n_paths=5)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert "ignores n_paths" in err
        rows = read_rows(out)
        assert all(r.method == "oracle" for r in rows)
        assert all(r.k3_sigma == 0.0 and r.k4_sigma == 0.0 for r in rows)

    def test_divergence_threshold_breach_exit_code(self, tmp_path, capsys):
        # at N = 2 the doubled-phase-space trajectories genuinely escape,
        # tripping the default 0.1% divergence policy
        cfg = tmp_path / "run.cfg"
        write_config(
            cfg, method="PositiveP", N=2, n_paths=300, batches=10,
            tau_stop=8, tau_points=2, dtau=1e-3,
        )
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
        )
        assert code == 4
        assert "diverged" in err

    def test_deterministic_across_worker_counts(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, method="PositiveP", N=1000, n_paths=9000, batches=18,
                     tau_stop=0.02, tau_points=2)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"pp_{threads}.csv"
            code, _, _ = run_cli(
                capsys, "simulate", "--config", str(cfg), "--out", str(out),
                "--threads", threads,
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


    def test_ordering_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        def violate(acc, spec):
            raise OrderingViolation("moment bound <X^2> - <X>^2 = -1 < 0 beyond 5 sigma")

        monkeypatch.setattr(cli, "batch_error", violate)
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "x.csv"
        write_config(cfg)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == cli.EXIT_ORDERING_VIOLATION == 6
        assert err.startswith("error: moment bound")
        assert not out.exists()

    def test_insufficient_batches_exit_code(self, tmp_path, capsys):
        # at N = 1 over tau in [0, 25] most paths escape; with the divergence
        # policy switched off, one of the ten batches loses every path
        cfg = tmp_path / "run.cfg"
        write_config(
            cfg, method="PositiveP", N=1, n_paths=100, batches=10,
            tau_stop=25, tau_points=2, divergence_threshold=1,
        )
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
        )
        assert code == cli.EXIT_INSUFFICIENT_BATCHES == 7
        assert "batches retained surviving paths" in err


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_window_overflow_exit_code(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "x.csv"
    write_config(cfg, method="Oracle", N=1e14)
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == cli.EXIT_WINDOW_OVERFLOW == 5
    assert "error: window of" in err
    assert not out.exists()


class TestOracleCommand:
    def test_reference_curve(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "oracle.csv"
        write_config(cfg, method="Oracle")
        code, _, _ = run_cli(capsys, "oracle", "--config", str(cfg), "--out", str(out))
        assert code == 0
        rows = read_rows(out)
        assert rows[0].k3 == pytest.approx(0.0, abs=1e-8)
        assert rows[0].k4 == pytest.approx(0.0, abs=1e-8)

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # the window at N = 1e5 is long enough for OpenBLAS to split a dot
        # product across threads; the oracle's reductions must not use it
        cfg = tmp_path / "run.cfg"
        write_config(cfg, method="Oracle", N=1e5, tau_stop=10, tau_points=11)
        src = os.path.dirname(os.path.dirname(anharmonic.__file__))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"oracle_{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-m", "anharmonic.cli", "oracle", "--config", str(cfg),
                 "--out", str(out)],
                env=env, check=True, timeout=300,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestCompare:
    def test_identical_files_all_pass(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "a.csv"
        write_config(cfg)
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        code, text, _ = run_cli(capsys, "compare", str(out), str(out))
        assert code == 0
        assert "delta=0 " in text or "delta=0\n" in text or "delta=-0" in text or "delta=0" in text
        assert "result: PASS" in text

    def test_grid_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        from anharmonic.moments import write_rows

        write_rows(a, [CsvRow(0.0, 0.0, 0, 0, 0, 0, 1, 0, "tw")])
        write_rows(b, [CsvRow(1.0, 2.0, 0, 0, 0, 0, 1, 0, "oracle")])
        code, _, err = run_cli(capsys, "compare", str(a), str(b))
        assert code == 2
        assert "grid" in err.lower()

    def test_policy_rows(self):
        rows_a = [CsvRow(0.0, 0.0, 1.0, 0.1, 0.0, 0.1, 10, 0, "tw")]
        rows_b = [CsvRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, "oracle")]
        report = compare_rows(rows_a, rows_b, max_sigma=4.0)
        k3_row = [r for r in report.rows if r.cumulant == "k3"][0]
        assert not k3_row.passed  # |1.0| > 4 * 0.1
        report = compare_rows(rows_a, rows_b, max_sigma=4.0, k3_peak_frac=1.1)
        k3_row = [r for r in report.rows if r.cumulant == "k3"][0]
        assert k3_row.passed is False  # peak of reference k3 is 0
        report = compare_rows(rows_a, rows_b, max_sigma=12.0)
        assert all(r.passed for r in report.rows)

    def test_zero_sigma_uses_atol(self):
        rows_a = [CsvRow(0.0, 0.0, 1e-12, 0.0, 0.0, 0.0, 10, 0, "tw")]
        rows_b = [CsvRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, "oracle")]
        report = compare_rows(rows_a, rows_b)
        assert report.all_passed
