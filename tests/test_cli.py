import math
import os
import subprocess
import sys

import pytest

import anharmonic
from anharmonic import cli, engine
from anharmonic.cli import compare_rows, main
from anharmonic.config import parse_config
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
    # no dtau: TW does not read it, and would warn that it ignores it
    base = {
        "method": "TW",
        "N": 100,
        "n_paths": 2000,
        "batches": 20,
        "tau_start": 0,
        "tau_stop": 1,
        "tau_points": 3,
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

    def test_tw_output_gaps_need_not_be_multiples_of_dtau(self, tmp_path, capsys):
        # the exact truncated-Wigner flow takes no steps, so a gap of 1/3
        # with the default dtau = 1e-3 is fine
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "tw.csv"
        write_config(cfg, n_paths=200, batches=10, tau_points=4)
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert [r.tau for r in read_rows(out)] == pytest.approx([0, 1 / 3, 2 / 3, 1])

    def test_positive_p_tau_start_off_the_step_grid(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "pp.csv"
        write_config(cfg, method="PositiveP", n_paths=200, batches=10,
                     tau_start=0.0005, tau_stop=0.0105, tau_points=3)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == cli.EXIT_INPUT == 2
        assert "'dtau'" in err
        assert not out.exists()

    def test_unread_bad_value_only_warns(self, tmp_path, capsys):
        # TW does not read dtau, so dtau = 0 is not checked
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "tw.csv"
        write_config(cfg, dtau=0)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert [ln for ln in err.splitlines() if ln.startswith("warning: ")] == [
            "warning: method=TW ignores dtau"
        ]
        assert len(read_rows(out)) == 3

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

    def test_positive_p_bytes_independent_of_threads_and_noise_block(self, tmp_path, capsys, monkeypatch):
        # three chunks of 6564, 6564 and 3282 paths: no step's 2m signs fill
        # whole raw words, and the last run caps the noise block at 7 steps
        cfg = tmp_path / "run.cfg"
        write_config(cfg, method="PositiveP", N=1000, n_paths=16410, batches=10,
                     tau_stop=0.02, tau_points=3)
        outputs = []
        for threads, block_bytes in (("1", None), ("2", None), ("2", 7 * 2 * 8 * 6564)):
            if block_bytes is not None:
                monkeypatch.setattr(engine, "_NOISE_BLOCK_BYTES", block_bytes)
            out = tmp_path / f"pp_{len(outputs)}.csv"
            code, _, _ = run_cli(
                capsys, "simulate", "--config", str(cfg), "--out", str(out), "--threads", threads,
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


    def test_ordering_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        def violate(acc, specs):
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
        # at N = 1 over tau in [0, 25] about 80% of paths escape; with the
        # divergence policy switched off and one path per batch, several of
        # the ten batches lose their only path, whatever the draws
        cfg = tmp_path / "run.cfg"
        write_config(
            cfg, method="PositiveP", N=1, n_paths=10, batches=10,
            tau_stop=25, tau_points=2, divergence_threshold=1,
        )
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
        )
        assert code == cli.EXIT_INSUFFICIENT_BATCHES == 7
        assert "batches retained surviving paths" in err


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_window_overflow_exit_code(tmp_path, capsys, command):
    # N = 1e14 overflowed the Fock window of the oracle the closed form
    # replaced (exit 5); the closed form has no window, and exit 5 is retired
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "x.csv"
    write_config(cfg, method="Oracle", N=1e14)
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 3
    assert all(math.isfinite(r.k3) and math.isfinite(r.k4) for r in rows)


@pytest.mark.parametrize("method", ["TW", "PositiveP"])
def test_batch_too_large_for_memory_exit_code(tmp_path, capsys, method):
    # a chunk holds whole batches, so a 1e14-path batch asks for petabytes,
    # which the first allocation refuses at once
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "x.csv"
    write_config(cfg, method=method, n_paths=1e15, batches=10, tau_stop=0.01, tau_points=2)
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == cli.EXIT_MEMORY == 8
    assert err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_output_grid_too_large_for_memory_exit_code(tmp_path, capsys, command):
    # 1e15 output times ask for petabytes, which the first allocation
    # refuses at once
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "x.csv"
    write_config(cfg, method="Oracle", tau_points=1e15)
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == cli.EXIT_MEMORY == 8
    assert "error: Unable to allocate" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "dtau, expected, message",
    [(1e-3, cli.EXIT_INPUT, "error: invalid value for 'dtau'"),
     (1e-15, cli.EXIT_MEMORY, "error: Unable to allocate")],
    ids=["off-grid", "on-grid"],
)
def test_positive_p_output_grid_too_large(tmp_path, capsys, dtau, expected, message):
    # the step rule is checked on tau_start and one output spacing, so an
    # off-grid dtau is rejected before the 1e15-point grid is built, and an
    # on-grid one reaches the allocation, which is refused at once
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "x.csv"
    write_config(cfg, method="PositiveP", tau_points=1e15, dtau=dtau)
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == expected
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_config_not_utf8_exit_code(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "x.csv"
    cfg.write_bytes(b"method = Oracle\nN = 10\n# \xff\xfe\n")
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == cli.EXIT_INPUT == 2
    assert err.startswith("error: ") and "utf-8" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_config_with_byte_order_mark(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "x.csv"
    cfg.write_bytes(b"\xef\xbb\xbfmethod = Oracle\nN = 10\ntau_stop = 1\ntau_points = 3\n")
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert err.startswith("oracle: 3 output times, ")
    assert len(read_rows(out)) == 3


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_duplicate_config_key_exit_code(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "x.csv"
    cfg.write_text("method = Oracle\nN = 10\ntau_stop = 1\ntau_points = 3\nN = 1e3\n")
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == cli.EXIT_INPUT == 2
    assert "invalid value for 'N'" in err and "line 2" in err and "line 5" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_unwritable_out_exit_code(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "missing" / "x.csv"
    cfg.write_text("method = Oracle\nN = 10\ntau_stop = 1\ntau_points = 3\n")
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == cli.EXIT_INPUT == 2
    assert err.startswith("error: ") and str(out) in err


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("N", {"N": "inf"}),
        ("n_paths", {"n_paths": "inf"}),
        ("batches", {"batches": "inf"}),
        ("N", {"method": "Oracle", "N": "inf"}),
        ("tau_start", {"method": "PositiveP", "tau_start": "nan"}),
        ("tau_stop", {"method": "PositiveP", "tau_stop": "nan"}),
        ("theta_value", {"theta_mode": "fixed", "theta_value": "nan"}),
        ("dtau", {"method": "PositiveP", "dtau": "nan"}),
    ],
    ids=["TW-N", "n_paths", "batches", "Oracle-N", "tau_start", "tau_stop", "theta_value", "dtau"],
)
def test_non_finite_config_value_exit_code(tmp_path, capsys, key, overrides):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "x.csv"
    write_config(cfg, **overrides)
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == cli.EXIT_INPUT == 2
    assert f"invalid value for {key!r}" in err
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

    def test_runs_the_oracle_whatever_the_method(self, tmp_path, capsys):
        # the TW config is read, checked and warned about as the oracle, which
        # does not read n_paths or batches, and the oracle runs on its grid
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "oracle.csv"
        write_config(cfg)
        code, _, err = run_cli(capsys, "oracle", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert [r.method for r in read_rows(out)] == ["oracle"] * 3
        assert err.startswith(
            "warning: method=Oracle ignores n_paths\n"
            "warning: method=Oracle ignores batches\n"
            "oracle: 3 output times, "
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            # 1e-3 does not divide the output spacing 1/3
            {"method": "PositiveP", "tau_points": 4},
            {"n_paths": 5, "batches": 20},
        ],
        ids=["positive-p-step-off-grid", "tw-fewer-paths-than-batches"],
    )
    def test_ignores_what_only_the_files_method_rejects(self, tmp_path, capsys, overrides):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "oracle.csv"
        write_config(cfg, **overrides)
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == cli.EXIT_INPUT == 2
        code, _, err = run_cli(capsys, "oracle", "--config", str(cfg), "--out", str(out))
        assert code == 0
        rows = read_rows(out)
        assert [r.method for r in rows] == ["oracle"] * overrides.get("tau_points", 3)
        assert "warning: method=Oracle ignores batches" in err

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # the oracle's sums must not depend on the BLAS thread count
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


class TestRunDispatch:
    def test_tw_dispatch(self):
        cfg = parse_config(
            "method = TW\nN = 100\nn_paths = 500\nbatches = 10\n"
            "tau_start = 0\ntau_stop = 1\ntau_points = 2\n"
        )
        rows = cli._rows(cfg, threads=None)
        assert len(rows) == 2
        assert [(r.method, r.n_paths) for r in rows] == [("tw", 500)] * 2


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

    def test_worst_row_with_zero_tolerances(self, tmp_path, capsys):
        # with --max-sigma 0 --atol 0 every allowance is 0: the failing row
        # (delta = 5) is the worst, not the first, passing one (delta = 0)
        from anharmonic.moments import write_rows

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(a, [CsvRow(0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 10, 0, "tw"),
                       CsvRow(0.5, 1.0, 6.0, 0.0, 2.0, 0.0, 10, 0, "tw")])
        write_rows(b, [CsvRow(0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 0, 0, "oracle"),
                       CsvRow(0.5, 1.0, 1.0, 0.0, 2.0, 0.0, 0, 0, "oracle")])
        report = compare_rows(read_rows(a), read_rows(b), max_sigma=0.0, atol=0.0)
        assert (report.worst.tau, report.worst.cumulant, report.worst.delta) == (0.5, "k3", 5.0)
        code, out, _ = run_cli(
            capsys, "compare", str(a), str(b), "--max-sigma", "0", "--atol", "0"
        )
        assert code == 3
        assert "worst row: tau=0.5 k3 |delta|=5 allowed=0" in out

    def test_worst_row_with_nan_delta(self, tmp_path, capsys):
        # a passing row (delta 3, allowed 4) and then a failing one with
        # k3 = nan: the NaN row is the worst, although its ratio is NaN
        from anharmonic.moments import write_rows

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(a, [CsvRow(0.0, 0.0, 3.0, 1.0, 0.0, 0.0, 10, 0, "tw"),
                       CsvRow(0.5, 1.0, math.nan, 1.0, 0.0, 0.0, 10, 0, "tw")])
        write_rows(b, [CsvRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, "oracle"),
                       CsvRow(0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0, 0, "oracle")])
        report = compare_rows(read_rows(a), read_rows(b), max_sigma=4.0)
        assert not report.all_passed
        assert (report.worst.tau, report.worst.cumulant) == (0.5, "k3")
        code, out, _ = run_cli(capsys, "compare", str(a), str(b))
        assert code == 3
        assert "worst row: tau=0.5 k3 |delta|=nan allowed=4" in out

    def test_zero_sigma_uses_atol(self):
        rows_a = [CsvRow(0.0, 0.0, 1e-12, 0.0, 0.0, 0.0, 10, 0, "tw")]
        rows_b = [CsvRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, "oracle")]
        report = compare_rows(rows_a, rows_b)
        assert report.all_passed

    def test_header_only_file_names_it(self, tmp_path, capsys):
        from anharmonic.moments import write_rows

        a = tmp_path / "a.csv"
        write_rows(a, [])
        code, _, err = run_cli(capsys, "compare", str(a), str(a))
        assert code == cli.EXIT_INPUT == 2
        assert f"error: {a}: no data rows" in err


@pytest.mark.parametrize("command", ["simulate", "oracle"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(tmp_path, capsys, command, threads):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out.csv"
    write_config(cfg, method="Oracle")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--threads", threads, "--out", str(out)])
    assert exc.value.code == 2
    assert "worker count >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "options",
    [
        ["--max-sigma", "-1", "--atol", "-1"],
        ["--atol", "-1"],
        ["--k3-peak-frac", "inf"],
        ["--k4-peak-frac", "-0.5"],
        ["--atol", "nan"],
    ],
    ids=["negative-sigma-and-atol", "negative-atol", "inf-k3-frac", "negative-k4-frac", "nan-atol"],
)
def test_compare_rejects_tolerance(tmp_path, capsys, options):
    from anharmonic.moments import write_rows

    a = tmp_path / "a.csv"
    write_rows(a, [CsvRow(0.0, 0.0, 0.1, 0.01, 0.2, 0.02, 10, 0, "tw")])
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(a), str(a), *options])
    assert exc.value.code == 2
    assert "finite value >= 0" in capsys.readouterr().err
