import math
import os
import pathlib
import random
import shlex
import subprocess
import sys

import pytest

import anharmonic
from anharmonic import cli, engine, oracle
from anharmonic.cli import compare_rows, main, worst_row
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


def test_cli_import_leaves_symbolic_unloaded():
    # simulate and oracle never derive: only derive and purity import the
    # symbol calculus, so an ensemble run does not compile it
    src = os.path.dirname(os.path.dirname(anharmonic.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, anharmonic.cli; print('anharmonic.symbolic' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "False"


class TestPurity:
    def test_anharmonic_preserves(self, capsys):
        code, out, _ = run_cli(capsys, "purity")
        assert code == 0
        assert "verdict: PRESERVES_PURITY" in out

    def test_harmonic_preserves(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--hamiltonian", "ad a")
        assert code == 0
        assert "PRESERVES_PURITY" in out

    def test_coefficient_of_two_to_the_53_preserves(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--hamiltonian", f"{2**53} ad ad a a")
        assert code == 0
        assert "verdict: PRESERVES_PURITY" in out

    def test_coefficients_beyond_two_to_the_53_preserve(self, capsys):
        # a Hermitian Hamiltonian whose float-rounded coefficients gave a
        # divergence of +-16384i terms and VIOLATES_PURITY
        hamiltonian = (
            "648916799890410482 ad ad ad a a + 648916799890410482 ad ad a a a"
            " + 6240961261560912761 ad ad a a a ad a a + 6240961261560912761 ad ad a ad ad ad a a"
            " + 4803701685544684535 ad ad a ad + 4803701685544684535 a ad a a"
        )
        code, out, err = run_cli(capsys, "purity", "--hamiltonian", hamiltonian)
        assert (code, out, err) == (0, "drift divergence: 0\nverdict: PRESERVES_PURITY\n", "")

    def test_coefficients_whose_products_pass_two_to_the_53_preserve(self, capsys):
        # every coefficient is at most 2^53, but normal ordering and the Wigner
        # derivatives multiply them past it: rounded, they left a divergence of
        # +-16i terms and VIOLATES_PURITY
        hamiltonian = (
            "6647195569973594 a a ad ad a + 6647195569973594 ad a a ad ad"
            " + 6291587375536055 a ad ad a a a ad a + 6291587375536055 ad a ad ad ad a a ad"
            " + 6037856465214761 a + 6037856465214761 ad"
        )
        code, out, err = run_cli(capsys, "purity", "--hamiltonian", hamiltonian)
        assert (code, out, err) == (0, "drift divergence: 0\nverdict: PRESERVES_PURITY\n", "")

    def test_random_hermitian_hamiltonians_with_large_coefficients_preserve(self, capsys):
        # three words of up to 7 factors and their adjoints, integer
        # coefficients of magnitude up to 1e30
        rng = random.Random(32)
        for _ in range(200):
            terms = []
            for _ in range(3):
                word = [rng.choice(("ad", "a")) for _ in range(rng.randint(1, 7))]
                adjoint = [{"ad": "a", "a": "ad"}[tok] for tok in reversed(word)]
                c = rng.randint(-10**30, 10**30)
                terms += [f"{c} {' '.join(word)}", f"{c} {' '.join(adjoint)}"]
            hamiltonian = " + ".join(terms)
            code, out, _ = run_cli(capsys, "purity", "--hamiltonian", hamiltonian)
            assert (code, out.splitlines()[-1]) == (0, "verdict: PRESERVES_PURITY"), hamiltonian

    def test_hermitian_but_for_one_part_in_1e30_is_refused(self, capsys):
        c = 10**30
        code, out, err = run_cli(capsys, "purity", "--hamiltonian", f"{c} ad ad a + {c + 1} ad a a")
        assert (code, out, err) == (2, "", "error: Hamiltonian symbol must be Hermitian\n")

    def test_damping_term_violates(self, capsys):
        code, out, _ = run_cli(capsys, "purity", "--add-drift-a", "a")
        assert code == 1
        assert "VIOLATES_PURITY" in out
        assert "1+0i * a*^0 a^0" in out


@pytest.mark.parametrize(
    "hamiltonian, message",
    [
        ("ad ad", "Hamiltonian symbol must be Hermitian"),
        ("ad ad ad a a a", "order-3 derivative in a* is nonzero (6+0i * a*^0 a^3); the "
         "distribution equation does not truncate at diffusion order"),
        ("ad ad a a + ad ad a + ad a a", "diffusion term is not a single monomial; noise "
         "amplitude cannot be written as constant * a*^j a^k"),
        ("ad ad a + ad a a", "diffusion monomial a*^0 a^1 has odd exponents; no polynomial "
         "square root exists"),
    ],
    ids=["non-hermitian", "order-3", "not-a-monomial", "odd-exponents"],
)
def test_derive_names_why_a_model_does_not_exist(capsys, hamiltonian, message):
    code, out, err = run_cli(capsys, "derive", "--hamiltonian", hamiltonian)
    assert code == cli.EXIT_INPUT == 2
    assert out == ""
    assert err == f"error: {message}\n"


#: Beyond the float range.
HUGE_COEFFICIENT = "1" + "0" * 399
#: Just below the float ceiling, where the first derivative passes it.
NEAR_MAX_COEFFICIENT = "9" * 308


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (("derive", "--hamiltonian", f"{HUGE_COEFFICIENT} ad a"), 0,
         "hamiltonian (normal ordered): 1e+399+0i * a*^1 a^1"),
        (("purity", "--add-drift-a", f"{HUGE_COEFFICIENT} a"), 1,
         "drift divergence: 1e+399+0i * a*^0 a^0"),
        (("derive", "--hamiltonian", f"{NEAR_MAX_COEFFICIENT} ad a ad a"), 2,
         "error: diffusion term 0-2e+308i * a*^0 a^2 exceeds the float range"),
        (("purity", "--hamiltonian", f"{NEAR_MAX_COEFFICIENT} ad a ad a"), 0,
         "drift divergence: 0"),
        (("purity", "--hamiltonian", f"{HUGE_COEFFICIENT} ad a ad a"), 0,
         "drift divergence: 0"),
        (("derive", "--hamiltonian", f"{HUGE_COEFFICIENT} ad a ad a"), 2,
         "error: diffusion term 0-2e+399i * a*^0 a^2 exceeds the float range"),
    ],
    ids=["derive-huge", "purity-drift-huge", "derive-overflow", "purity-overflow",
         "purity-huge-kerr", "derive-huge-kerr"],
)
def test_hamiltonian_coefficient_too_large_exit_code(capsys, argv, code, line):
    # a coefficient too large for a float is exact in the derivation, and
    # renders past the float range; only a noise amplitude, whose root is a
    # float, is refused by name: no traceback, no inf, no nan
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert line == (err if code == cli.EXIT_INPUT else out).splitlines()[0]
    assert "inf" not in out + err and "nan" not in out + err


def test_derive_prints_exact_sections_before_a_noise_beyond_the_float_range(capsys):
    # the normal-ordered Hamiltonian and the truncated-Wigner model are exact
    # and reach stdout; the positive-P sections stop at the noise amplitude,
    # whose float root no float holds
    code, out, err = run_cli(capsys, "derive", "--hamiltonian", f"{HUGE_COEFFICIENT} ad a ad a")
    assert code == cli.EXIT_INPUT
    assert err == "error: diffusion term 0-2e+399i * a*^0 a^2 exceeds the float range\n"
    assert out == (
        "hamiltonian (normal ordered): 1e+399+0i * a*^1 a^1 + 1e+399+0i * a*^2 a^2\n"
        "\n"
        "truncated wigner (drift only):\n"
        "  d(alpha)/dt = 0+1e+399i * a*^0 a^1 + 0-2e+399i * a*^1 a^2\n"
        "  d(alpha*)/dt = 0-1e+399i * a*^1 a^0 + 0+2e+399i * a*^2 a^1\n"
        "  discarded: d^3/d(alpha)^1 d(alpha*)^2 [0+5e+398i * a*^1 a^0]\n"
        "  discarded: d^3/d(alpha)^2 d(alpha*)^1 [0-5e+398i * a*^0 a^1]\n"
    )


#: The Hamiltonians whose derive and purity output tests/data/derive_golden.txt
#: holds; they include every DerivationError message.
GOLDEN_HAMILTONIANS = (
    "ad a ad a", "ad a", "2 ad a + ad ad a a", "ad ad a a + ad a + a + ad",
    "ad ad ad a a a", "ad ad + a a", "ad ad a a + 3 ad ad a + 3 ad a a",
    "ad ad ad + a a a", "ad a ad a ad a + ad ad a", "a a ad ad",
    "ad ad a a + ad ad a + ad a a", "ad ad a + ad a a", "0 ad a",
    "ad ad a a a a + a a a a ad ad", "-2 ad a + ad ad ad ad a a a a", "a ad a ad",
    "a a ad ad a ad",
)


def test_derive_and_purity_output_matches_golden_file(capsys):
    # the golden file was written by the float-coefficient calculus: the
    # exact coefficients render the same bytes
    blocks = []
    for h in GOLDEN_HAMILTONIANS:
        for argv in (("derive", "--hamiltonian", h), ("purity", "--hamiltonian", h),
                     ("purity", "--hamiltonian", h, "--add-drift-a", "a")):
            code, out, err = run_cli(capsys, *argv)
            blocks.append(f"$ anharmonic {shlex.join(argv)}\n--- stdout\n{out}"
                          f"--- stderr\n{err}--- exit {code}\n")
    golden = pathlib.Path(__file__).parent / "data" / "derive_golden.txt"
    assert "".join(blocks).encode() == golden.read_bytes()


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
        # divergence_threshold is a key no more: positive-P excludes no path
        cfg = tmp_path / "run.cfg"
        for key, method in (("what", "TW"), ("divergence_threshold", "PositiveP")):
            cfg.write_text(f"method = {method}\nN = 100\n{key} = 3\n")
            code, _, err = run_cli(
                capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
            )
            assert code == 2
            assert err == f"error: unknown config key {key!r}\n"

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
        # at N = 2 the doubled-phase-space trajectories genuinely diverge;
        # no path is excluded and no threshold applies, so those that
        # overflow leave a NaN that the estimates refuse by name (exit 6,
        # where a breached threshold exited 4)
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "x.csv"
        write_config(
            cfg, method="PositiveP", N=2, n_paths=300, batches=10,
            tau_stop=8, tau_points=2, dtau=1e-3,
        )
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == cli.EXIT_ORDERING_VIOLATION == 6
        assert err.startswith("error: ") and "is nan" in err
        assert not out.exists()

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
        # three chunks of 6564, 6564 and 3282 paths: no step's 2m bits fill
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


    @pytest.mark.parametrize("method", ["TW", "PositiveP"])
    @pytest.mark.parametrize("per_batch", [1, 2])
    def test_one_or_two_paths_per_batch(self, tmp_path, capsys, method, per_batch):
        # ten batches of one or two paths: every estimate pools the 10 or 20
        # paths, and each k3 and k4 lies within 4 jackknife sigma of the
        # exact value.  A positive-P start is one deterministic point, so its
        # tau = 0 row is exactly zero, sigma included.
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "tiny.csv"
        extra = {"dtau": 1e-3} if method == "PositiveP" else {}
        write_config(cfg, method=method, N=1000, n_paths=10 * per_batch, batches=10,
                     tau_stop=2, tau_points=3, **extra)
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out),
                               "--seed", "1")
        assert code == 0, err
        rows = read_rows(out)
        exact = oracle.cumulant_series(oracle.init_coherent(math.sqrt(1000.0)),
                                       parse_config(cfg.read_text()).grid)
        for row, want in zip(rows, exact, strict=True):
            values = (row.k3, row.k3_sigma, row.k4, row.k4_sigma)
            if method == "PositiveP" and row.tau == 0.0:
                assert values == (0.0, 0.0, 0.0, 0.0), row
                continue
            assert row.k3_sigma > 0.0 and row.k4_sigma > 0.0, row
            assert abs(row.k3 - want[0]) <= 4.0 * row.k3_sigma, (row, want)
            assert abs(row.k4 - want[1]) <= 4.0 * row.k4_sigma, (row, want)

    def test_ordering_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        def violate(acc):
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
        # every batch keeps its paths, so too few batches can only come from
        # the config, which refuses them before the run: exit 7 is retired
        cfg = tmp_path / "run.cfg"
        write_config(cfg, method="PositiveP", N=1, n_paths=10, batches=9, tau_stop=25, tau_points=2)
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == cli.EXIT_INPUT == 2
        assert err == "error: invalid value for 'batches': need at least 10 batches\n"
        assert not hasattr(cli, "EXIT_INSUFFICIENT_BATCHES")
        assert not out.exists()


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


@pytest.mark.parametrize(
    "command, method",
    [("simulate", "TW"), ("simulate", "PositiveP"), ("simulate", "Oracle"), ("oracle", "TW")],
)
def test_subnormal_particle_number_exit_code(tmp_path, capsys, command, method):
    # at N = 1e-320 the last time t = tau / N overflows: the oracle wrote nan
    # rows, TW failed its moment bound and every positive-P path diverged
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "x.csv"
    extra = {"dtau": 1e-3} if method == "PositiveP" else {}
    write_config(cfg, method=method, N=1e-320, tau_stop=0.002, **extra)
    code, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == cli.EXIT_INPUT == 2
    assert "error: invalid value for 'N': too small: tau_stop / N overflows" in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["TW", "PositiveP", "Oracle"])
def test_tiny_particle_number_still_runs(tmp_path, capsys, method):
    # at N = 1e-300 the times stay finite (t = 2e297); positive-P's exact
    # log noise per step, about 3e148, overflows its step factors, and the
    # NaN it leaves is refused by name, with no traceback
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "x.csv"
    extra = {"dtau": 1e-3} if method == "PositiveP" else {}
    write_config(cfg, method=method, N=1e-300, tau_stop=0.002, **extra)
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    if method == "PositiveP":
        assert code == cli.EXIT_ORDERING_VIOLATION == 6
        assert err == ("error: imaginary residue of <(X-c)^1> is nan, beyond 5 sigma (nan); "
                       "ensemble looks biased\n")
        assert not out.exists()
        return
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 3
    assert all(math.isfinite(r.k3) and math.isfinite(r.k4) for r in rows)


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

    def test_row_count_mismatch(self, tmp_path, capsys):
        # the same tau range at 21 and at 41 points
        from anharmonic.moments import write_rows

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, points in ((a, 21), (b, 41)):
            taus = [10.0 * i / (points - 1) for i in range(points)]
            write_rows(path, [CsvRow(tau, 2 * tau, 0, 0, 0, 0, 1, 0, "tw") for tau in taus])
        code, out, err = run_cli(capsys, "compare", str(a), str(b))
        assert code == cli.EXIT_INPUT == 2
        assert (out, err) == ("", "error: 21 rows vs 41 rows\n")

    def test_policy_rows(self):
        rows_a = [CsvRow(0.0, 0.0, 1.0, 0.1, 0.0, 0.1, 10, 0, "tw")]
        rows_b = [CsvRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, "oracle")]
        compared = compare_rows(rows_a, rows_b, max_sigma=4.0)
        k3_row = [r for r in compared if r.cumulant == "k3"][0]
        assert not k3_row.passed  # |1.0| > 4 * 0.1
        compared = compare_rows(rows_a, rows_b, max_sigma=4.0, k3_peak_frac=1.1)
        k3_row = [r for r in compared if r.cumulant == "k3"][0]
        assert k3_row.passed is False  # peak of reference k3 is 0
        compared = compare_rows(rows_a, rows_b, max_sigma=12.0)
        assert all(r.passed for r in compared)

    def test_worst_row_with_zero_tolerances(self, tmp_path, capsys):
        # with --max-sigma 0 --atol 0 every allowance is 0: the failing row
        # (delta = 5) is the worst, not the first, passing one (delta = 0)
        from anharmonic.moments import write_rows

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(a, [CsvRow(0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 10, 0, "tw"),
                       CsvRow(0.5, 1.0, 6.0, 0.0, 2.0, 0.0, 10, 0, "tw")])
        write_rows(b, [CsvRow(0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 0, 0, "oracle"),
                       CsvRow(0.5, 1.0, 1.0, 0.0, 2.0, 0.0, 0, 0, "oracle")])
        worst = worst_row(compare_rows(read_rows(a), read_rows(b), max_sigma=0.0, atol=0.0))
        assert (worst.tau, worst.cumulant, worst.delta) == (0.5, "k3", 5.0)
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
        compared = compare_rows(read_rows(a), read_rows(b), max_sigma=4.0)
        assert not all(r.passed for r in compared)
        assert (worst_row(compared).tau, worst_row(compared).cumulant) == (0.5, "k3")
        code, out, _ = run_cli(capsys, "compare", str(a), str(b))
        assert code == 3
        assert "worst row: tau=0.5 k3 |delta|=nan allowed=4" in out

    def test_zero_sigma_uses_atol(self):
        rows_a = [CsvRow(0.0, 0.0, 1e-12, 0.0, 0.0, 0.0, 10, 0, "tw")]
        rows_b = [CsvRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, "oracle")]
        assert all(r.passed for r in compare_rows(rows_a, rows_b))

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
