"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines and timings.  The two ensemble benchmarks (truncated Wigner and
positive-P at 1e5 paths) are shared across criteria through module-scoped
fixtures, so the expensive integrations run once.
"""

import math
import time

import numpy as np
import pytest

import anharmonic.oracle as orc
from anharmonic import symbolic as sy
from anharmonic.cli import compare_rows, main
from anharmonic.engine import (
    TimeGrid,
    exact_wigner_flow,
    run_positive_p,
    run_truncated_wigner,
)
from anharmonic.moments import (
    MONOMIAL_INDEX,
    CsvRow,
    QuadratureSpec,
    batch_error,
    k3_k4,
    read_rows,
    write_rows,
)
from anharmonic.sampling import wigner_initial
from helpers import (
    dense_brute_force,
    dense_cumulant_atol,
    frozen_brownian_paths,
    midpoint_path,
    poly_equal,
    random_hermitian_polynomial,
)

N_PARTICLES = 1000.0
ALPHA0 = math.sqrt(N_PARTICLES)

#: double-precision floor for cumulants assembled from raw moments of
#: magnitude ~ (2 sqrt(N))^4 ~ 1.6e7 at N = 1e3 (deterministic rows only)
CANCELLATION_ATOL = 1e-6


def _report(number, label, started):
    print(f"ACCEPTANCE {number} {label}: PASS ({time.perf_counter() - started:.1f} s)")


@pytest.fixture(scope="module")
def oracle_curve():
    state0 = orc.init_coherent(ALPHA0)

    def at(tau, theta):
        return orc.oracle_cumulants(
            orc.evolve(state0, tau / N_PARTICLES), QuadratureSpec(theta)
        )

    return at


@pytest.fixture(scope="module")
def tw_benchmark():
    taus = tuple(0.5 * i for i in range(21))  # [0, 10]
    grid = TimeGrid(N_PARTICLES, taus, 1e-3)
    started = time.perf_counter()
    acc = run_truncated_wigner(ALPHA0, grid, 100_000, 100, seed=1, threads=2)
    print(f"[tw benchmark: {time.perf_counter() - started:.1f} s]")
    return grid, acc


@pytest.fixture(scope="module")
def pp_benchmark():
    taus = tuple(0.5 * i for i in range(17))  # [0, 8]
    grid = TimeGrid(N_PARTICLES, taus, 1e-3)
    started = time.perf_counter()
    acc = run_positive_p(ALPHA0, grid, 100_000, 100, seed=1, threads=2)
    print(f"[positive-p benchmark: {time.perf_counter() - started:.1f} s]")
    return grid, acc


def rows_from_accumulator(grid, acc, method):
    reports = batch_error(acc, [QuadratureSpec(2.0 * tau) for tau in grid.taus])
    return [
        CsvRow.from_report(tau, 2.0 * tau, rep, method) for tau, rep in zip(grid.taus, reports)
    ]


def oracle_rows(grid, oracle_curve):
    rows = []
    for tau in grid.taus:
        theta = 2.0 * tau
        rows.append(CsvRow.from_report(tau, theta, oracle_curve(tau, theta), "oracle"))
    return rows


def test_criterion_1_symbolic_reproduction(capsys):
    started = time.perf_counter()
    h = sy.kerr_hamiltonian()
    assert h == sy.PhasePolynomial({(2, 2): 1, (1, 1): 1})

    wigner = sy.derive_wigner_model(h)
    assert poly_equal(wigner.drift[0], sy.PhasePolynomial({(1, 2): -2j, (0, 1): 1j}))
    assert wigner.noise == ()

    strat = sy.ito_to_stratonovich(sy.derive_positive_p_model(h))
    assert poly_equal(strat.drift[0], sy.PhasePolynomial({(1, 2): -2j}))
    assert poly_equal(strat.drift[1], sy.PhasePolynomial({(2, 1): 2j}))
    # noise amplitudes square to -2i a^2 and +2i a*^2: the complex noises
    # xi_j dt built from them satisfy <xi xi> = 2i delta(t-t') delta_jj'
    assert poly_equal(strat.noise[0] * strat.noise[0], sy.PhasePolynomial({(0, 2): -2j}))
    assert poly_equal(strat.noise[1] * strat.noise[1], sy.PhasePolynomial({(2, 0): 2j}))

    assert main(["derive"]) == 0
    out = capsys.readouterr().out
    assert "d(alpha)/dt = 0+1i * a*^0 a^1 + 0-2i * a*^1 a^2" in out
    assert "d(alpha1)/dt = 0-2i * a*^1 a^2" in out
    assert "2i delta(t-t')" in out

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "symbolic reproduction", started)


def test_criterion_2_purity():
    started = time.perf_counter()
    wigner = sy.derive_wigner_model(sy.kerr_hamiltonian())
    assert sy.drift_divergence(wigner).is_zero(tol=1e-12)

    cubic_pair = sy.DriftDiffusionModel(
        ("alpha", "alpha*"),
        (sy.PhasePolynomial({(1, 2): -1j}), sy.PhasePolynomial({(2, 1): 1j})),
    )
    assert sy.drift_divergence(cubic_pair).is_zero(tol=1e-12)

    rng = np.random.default_rng(2024)
    for _ in range(200):
        model = sy.derive_wigner_model(random_hermitian_polynomial(rng, max_degree=4))
        assert sy.drift_divergence(model).is_zero(tol=1e-12)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(2, "purity of the truncated drift", started)


def test_criterion_3_oracle_self_consistency():
    started = time.perf_counter()
    # the closed form against the dense matrix route at N = 4 and N = 50:
    # the oracle's operator moments, and its cumulants against k3/k4 of the
    # dense moments
    for n, cutoff in ((4.0, 60), (50.0, 200)):
        state0 = orc.init_coherent(math.sqrt(n))
        for tau in (0.1, 0.5, 1.0):
            t = tau / n
            state = orc.evolve(state0, t)
            for theta in (0.0, 2 * tau):
                dense = dense_brute_force(math.sqrt(n), cutoff, t, QuadratureSpec(theta))
                for got, want in zip(orc._quadrature_moments(state, theta), dense):
                    assert abs(float(got) - want) <= 1e-10 * max(1.0, abs(want))
                rep = orc.oracle_cumulants(state, QuadratureSpec(theta))
                for got, want in zip((rep.kappa3, rep.kappa4), k3_k4(*dense)):
                    assert abs(got - want) <= max(1e-10 * max(1.0, abs(want)),
                                                  dense_cumulant_atol(n))

    # coherent states are Gaussian: both cumulants vanish at t = 0, at every N
    for n in (1.0, 4.0, 1e3, 1e6, 1e12, 1e100, 1e300):
        state = orc.init_coherent(math.sqrt(n))
        for theta in (0.0, 1.3):
            rep = orc.oracle_cumulants(state, QuadratureSpec(theta))
            assert abs(rep.kappa3) < 1e-15
            assert abs(rep.kappa4) < 1e-15

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(3, "oracle self-consistency", started)


def test_criterion_4_tw_non_gaussian_accuracy(tw_benchmark, oracle_curve, tmp_path):
    started = time.perf_counter()
    grid, acc = tw_benchmark
    tw = rows_from_accumulator(grid, acc, "tw")
    ref = oracle_rows(grid, oracle_curve)
    write_rows(tmp_path / "tw.csv", tw)
    write_rows(tmp_path / "oracle.csv", ref)
    assert all(r.n_diverged == 0 for r in tw)

    # k4 within 4 batch sigma everywhere; k3 additionally allowed the
    # systematic-truncation margin of 25% of the reference peak
    report = compare_rows(tw, ref, max_sigma=4.0, atol=CANCELLATION_ATOL, k3_peak_frac=0.25)
    assert report.all_passed, report.worst
    k4_rows = [r for r in report.rows if r.cumulant == "k4"]
    assert all(abs(r.delta) <= max(4.0 * r.sigma, CANCELLATION_ATOL) for r in k4_rows)

    _report(4, "tw non-Gaussian accuracy vs oracle", started)


@pytest.mark.slow
def test_criterion_5_positive_p_accuracy_and_error_growth(pp_benchmark, oracle_curve):
    started = time.perf_counter()
    grid, acc = pp_benchmark
    rows = rows_from_accumulator(grid, acc, "positive_p")
    by_tau = {r.tau: r for r in rows}

    for r in rows:
        if r.tau > 3.0:
            continue
        exact = oracle_curve(r.tau, r.theta)
        assert abs(r.k3 - exact.kappa3) <= max(4.0 * r.k3_sigma, CANCELLATION_ATOL)
        assert abs(r.k4 - exact.kappa4) <= max(4.0 * r.k4_sigma, CANCELLATION_ATOL)

    # multiplicative noise: sampling error explodes well before tau = 8
    assert by_tau[8.0].k3_sigma / by_tau[1.0].k3_sigma > 10.0
    assert by_tau[8.0].k4_sigma / by_tau[1.0].k4_sigma > 10.0

    _report(5, "positive-p short-time accuracy and error growth", started)


@pytest.mark.slow
def test_criterion_6_conservation_invariants(tw_benchmark, pp_benchmark):
    started = time.perf_counter()
    grid, acc = tw_benchmark

    # per-trajectory modulus conservation across the whole output grid, on
    # the first 500 initial amplitudes and the flow the ensemble ran
    init = wigner_initial(ALPHA0, 1, 0, 500)
    worst = 0.0
    for alpha_t in exact_wigner_flow(init, grid.times):
        worst = max(worst, float(np.abs(np.abs(alpha_t) - np.abs(init)).max()))
    assert worst < 1e-12

    # ensemble occupation: <|alpha|^2> - 1/2 = N at every output time
    for sums in acc.batch_sums:
        vals = np.real(sums[:, MONOMIAL_INDEX[(1, 1)]] / acc.batch_counts)
        sigma = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 0.5 - N_PARTICLES) < 4 * sigma

    # positive-P conserves the occupation product while converged
    pp_grid, pp_acc = pp_benchmark
    for tau, sums in zip(pp_grid.taus, pp_acc.batch_sums):
        if tau > 3.0:
            continue
        vals = np.real(sums[:, MONOMIAL_INDEX[(1, 1)]] / pp_acc.batch_counts)
        sigma = max(vals.std(ddof=1) / math.sqrt(len(vals)), 1e-9)
        assert abs(vals.mean() - N_PARTICLES) < 4 * sigma

    _report(6, "conservation invariants", started)


def test_criterion_7_integrator_order():
    started = time.perf_counter()

    # strong order >= 1/2 on 100 frozen Brownian paths of the doubled model,
    # stepped together by the ensembles' midpoint kernel
    model = sy.ito_to_stratonovich(sy.derive_positive_p_model(sy.kerr_hamiltonian()))
    t_final = 0.2 / N_PARTICLES
    n_coarse = 50
    dt = t_final / n_coarse
    coarse, mid, fine = frozen_brownian_paths(np.random.default_rng(7), 100, n_coarse, dt)
    y0 = np.full((2, 100), ALPHA0, dtype=np.complex128)
    s1 = midpoint_path(model, y0, dt, n_coarse, coarse)
    s2 = midpoint_path(model, y0, dt / 2, 2 * n_coarse, mid)
    s4 = midpoint_path(model, y0, dt / 4, 4 * n_coarse, fine)
    e1 = np.abs(s1[0] - s2[0])
    e2 = np.abs(s2[0] - s4[0])
    assert np.mean(e1[e2 > 0] / e2[e2 > 0]) >= 1.3

    # the same kernel without noise: global error drops >= 3.5x per halving
    # against the exact alpha1(t) = alpha1(0) exp(-2i n t), n = alpha1 alpha2*
    a0 = 1.1 + 0.0j
    t_final = 0.5
    ref = a0 * np.exp(-2j * abs(a0) ** 2 * t_final)

    def global_error(dt_step):
        y = midpoint_path(model, [[a0], [a0.conjugate()]], dt_step, int(round(t_final / dt_step)))
        return abs(y[0, 0] - ref)

    assert global_error(2e-3) / global_error(1e-3) >= 3.5

    _report(7, "integrator order", started)


def test_criterion_8_workers_determinism(tmp_path, capsys):
    started = time.perf_counter()
    configs = {
        "tw.cfg": (
            "method = TW\nN = 1000\nn_paths = 9000\nbatches = 18\n"
            "tau_start = 0\ntau_stop = 1\ntau_points = 3\n"
        ),
        "pp.cfg": (
            "method = PositiveP\nN = 1000\nn_paths = 17000\nbatches = 34\n"
            "tau_start = 0\ntau_stop = 0.1\ntau_points = 3\ndtau = 1e-3\n"
        ),
        # paths escape in every chunk, so the exclusion across outputs and
        # chunks is byte-checked too
        "pp_diverging.cfg": (
            "method = PositiveP\nN = 10\nn_paths = 17000\nbatches = 34\n"
            "tau_start = 0\ntau_stop = 2\ntau_points = 3\ndtau = 1e-3\n"
            "divergence_threshold = 1\n"
        ),
        "oracle.cfg": "method = Oracle\nN = 1e7\ntau_start = 0\ntau_stop = 10\ntau_points = 21\n",
    }
    for name, text in configs.items():
        cfg = tmp_path / name
        cfg.write_text(text)
        outputs = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"{name}.{threads}.csv"
            code = main(
                [
                    "simulate",
                    "--config",
                    str(cfg),
                    "--seed",
                    "11",
                    "--threads",
                    threads,
                    "--out",
                    str(out),
                ]
            )
            capsys.readouterr()
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        if name == "pp_diverging.cfg":
            assert all(row.n_diverged > 0 for row in read_rows(out))

    _report(8, "byte-identical CSVs across worker counts", started)


@pytest.mark.slow
def test_criterion_9_gaussian_null():
    started = time.perf_counter()
    grid0 = TimeGrid(N_PARTICLES, (0.0,), 1e-3)
    grid_small = TimeGrid(4.0, (0.0,), 1e-3)  # alpha0 = 2
    terms = []
    for seed in range(100):
        acc = run_truncated_wigner(ALPHA0, grid0, 10_000, 20, seed=seed)
        (rep,) = batch_error(acc, [QuadratureSpec(0.0)])
        terms.append((rep.kappa3 / rep.sigma3) ** 2)
        terms.append((rep.kappa4 / rep.sigma4) ** 2)

        # seeds apart from the first half's, so that the two halves' terms
        # stay independent (the same seeds correlate them at r ~ 0.7)
        acc = run_truncated_wigner(2.0, grid_small, 5_000, 20, seed=seed + 100)
        (rep,) = batch_error(acc, [QuadratureSpec(0.0)])
        terms.append((rep.kappa3 / rep.sigma3) ** 2)
        terms.append((rep.kappa4 / rep.sigma4) ** 2)

    # 400 squared t_19 ratios: mean 1.118 each, sd of the sum ~ 35.  The
    # bounds catch both a genuine bias (inflates the sum) and a broken
    # error estimate (deflates it).
    total = float(np.sum(terms))
    assert 250.0 < total < 640.0, total
    _report(9, "Gaussian null via combined chi-square", started)
