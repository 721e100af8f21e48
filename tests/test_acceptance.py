"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines and timings.  The two ensemble benchmarks (truncated Wigner and
positive-P at 1e5 paths) are shared across criteria through module-scoped
fixtures, so the expensive integrations run once.
"""

import math
import time

import mpmath
import numpy as np
import pytest

import anharmonic.oracle as orc
from anharmonic import symbolic as sy
from anharmonic.cli import main
from anharmonic.engine import (
    exact_wigner_flow,
    positive_p_flow,
    run_positive_p,
    run_truncated_wigner,
)
from anharmonic.moments import (
    CsvRow,
    batch_error,
    bulk_monomials,
    k3_k4,
    promote_normal_order,
    read_rows,
    write_rows,
)
from anharmonic.sampling import sample_wigner_coherent, stream_for_trajectory
from helpers import (
    ZeroStream,
    at_phase,
    chunk_signs,
    dense_brute_force,
    dense_cumulant_atol,
    grid_at,
    kerr_positive_p_model,
    ladder_sums,
    poly_close,
    quadrature_moments,
    quadrature_rounding_bound,
    random_hermitian_polynomial,
    rounding_phase,
    scalar_log_path,
    tw_limit_cumulants,
)

N_PARTICLES = 1000.0
ALPHA0 = math.sqrt(N_PARTICLES)

#: absolute floor for rows whose sigma may vanish (the deterministic
#: positive-P start), set when cumulants were assembled from raw moments of
#: magnitude ~ (2 sqrt(N))^4 ~ 1.6e7 at N = 1e3
CANCELLATION_ATOL = 1e-6


def _report(number, label, started):
    print(f"ACCEPTANCE {number} {label}: PASS ({time.perf_counter() - started:.1f} s)")


@pytest.fixture(scope="module")
def oracle_curve():
    state0 = orc.init_coherent(ALPHA0)

    def at(tau, theta):
        return orc.oracle_cumulants(
            orc.evolve(state0, tau / N_PARTICLES), theta
        )

    return at


TW_GRID = grid_at(N_PARTICLES, tuple(0.5 * i for i in range(21)), 1e-3)  # [0, 10]
PP_GRID = grid_at(N_PARTICLES, tuple(0.5 * i for i in range(17)), 1e-3)  # [0, 8]


def tw_run(theta=None):
    """The truncated-Wigner benchmark: theta = 2 tau, or ``theta`` at every output."""
    grid = TW_GRID if theta is None else at_phase(TW_GRID, theta)
    return run_truncated_wigner(ALPHA0, grid, 100_000, 100, seed=1, threads=2)


@pytest.fixture(scope="module")
def tw_benchmark():
    started = time.perf_counter()
    acc = tw_run()
    print(f"[tw benchmark: {time.perf_counter() - started:.1f} s]")
    return TW_GRID, acc


@pytest.fixture(scope="module")
def pp_benchmark():
    started = time.perf_counter()
    acc = run_positive_p(ALPHA0, PP_GRID, 100_000, 100, seed=1, threads=2)
    print(f"[positive-p benchmark: {time.perf_counter() - started:.1f} s]")
    return PP_GRID, acc


def rows_from_accumulator(grid, acc, method):
    columns = zip(*(k.tolist() for k in batch_error(acc)))
    return [
        CsvRow(tau, theta, *values, acc.n_paths, 0, method)
        for tau, theta, values in zip(grid.taus, grid.thetas, columns)
    ]


def oracle_rows(grid, oracle_curve):
    rows = []
    for tau, theta in zip(grid.taus, grid.thetas):
        k3, k4 = oracle_curve(tau, theta)
        rows.append(CsvRow(tau, theta, k3, 0.0, k4, 0.0, 0, 0, "oracle"))
    return rows


def test_criterion_1_symbolic_reproduction(capsys):
    started = time.perf_counter()
    h = sy.kerr_hamiltonian()
    assert h == sy.PhasePolynomial({(2, 2): 1, (1, 1): 1})

    wigner = sy.derive_wigner_model(h)
    assert wigner.drift[0] == sy.PhasePolynomial({(1, 2): -2j, (0, 1): 1j})
    assert wigner.noise == ()

    strat = sy.ito_to_stratonovich(sy.derive_positive_p_model(h))
    assert strat.drift[0] == sy.PhasePolynomial({(1, 2): -2j})
    assert strat.drift[1] == sy.PhasePolynomial({(2, 1): 2j})
    # noise amplitudes square to -2i a^2 and +2i a*^2: the complex noises
    # xi_j dt built from them satisfy <xi xi> = 2i delta(t-t') delta_jj'
    assert poly_close(strat.noise[0] * strat.noise[0], sy.PhasePolynomial({(0, 2): -2j}))
    assert poly_close(strat.noise[1] * strat.noise[1], sy.PhasePolynomial({(2, 0): 2j}))

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
    assert sy.drift_divergence(wigner).is_zero()

    cubic_pair = sy.DriftDiffusionModel(
        ("alpha", "alpha*"),
        (sy.PhasePolynomial({(1, 2): -1j}), sy.PhasePolynomial({(2, 1): 1j})),
    )
    assert sy.drift_divergence(cubic_pair).is_zero()

    rng = np.random.default_rng(2024)
    for _ in range(200):
        model = sy.derive_wigner_model(random_hermitian_polynomial(rng, max_degree=4))
        assert sy.drift_divergence(model).is_zero()

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(2, "purity of the truncated drift", started)


def test_criterion_3_oracle_self_consistency():
    started = time.perf_counter()
    # the closed form against the dense matrix route at N = 4 and N = 50:
    # the oracle's normally ordered moments promoted to operator moments, and
    # its cumulants against k3/k4 of the dense moments
    for n, cutoff in ((4.0, 60), (50.0, 200)):
        state0 = orc.init_coherent(math.sqrt(n))
        for tau in (0.1, 0.5, 1.0):
            t = tau / n
            state = orc.evolve(state0, t)
            for theta in (0.0, 2 * tau):
                dense = dense_brute_force(math.sqrt(n), cutoff, t, theta)
                moments = promote_normal_order(*quadrature_moments(state, theta))
                for got, want in zip(moments, dense):
                    assert abs(float(got) - want) <= 1e-10 * max(1.0, abs(want))
                for got, want in zip(orc.oracle_cumulants(state, theta), k3_k4(*dense)):
                    assert abs(got - want) <= max(1e-10 * max(1.0, abs(want)),
                                                  dense_cumulant_atol(n))

    # coherent states are Gaussian: both cumulants vanish at t = 0, at every N
    for n in (1.0, 4.0, 1e3, 1e6, 1e12, 1e100, 1e300):
        state = orc.init_coherent(math.sqrt(n))
        for theta in (0.0, 1.3):
            k3, k4 = orc.oracle_cumulants(state, theta)
            assert abs(k3) < 1e-15
            assert abs(k4) < 1e-15

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

    # every row within 4 batch sigma of truncated Wigner's own
    # infinite-path limit, with no peak allowance
    limit = [tw_limit_cumulants(N_PARTICLES, r.tau, r.theta) for r in tw]
    for r, (k3, k4) in zip(tw, limit):
        assert abs(r.k3 - k3) <= 4.0 * r.k3_sigma, (r, k3)
        assert abs(r.k4 - k4) <= 4.0 * r.k4_sigma, (r, k4)

    # the limit's truncation bias against the exact curve, deterministic:
    # at most 1.38% of peak |k3| and 1.70% of peak |k4| on this grid
    peak3 = max(abs(r.k3) for r in ref)
    peak4 = max(abs(r.k4) for r in ref)
    for r, (k3, k4) in zip(ref, limit):
        assert abs(k3 - r.k3) <= 0.02 * peak3, (r, k3)
        assert abs(k4 - r.k4) <= 0.02 * peak4, (r, k4)

    # k4 also within 4 batch sigma of the exact curve everywhere
    for r, exact in zip(tw, ref):
        assert abs(r.k4 - exact.k4) <= max(4.0 * r.k4_sigma, CANCELLATION_ATOL), (r, exact)

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
        k3, k4 = oracle_curve(r.tau, r.theta)
        assert abs(r.k3 - k3) <= max(4.0 * r.k3_sigma, CANCELLATION_ATOL)
        assert abs(r.k4 - k4) <= max(4.0 * r.k4_sigma, CANCELLATION_ATOL)

    # multiplicative noise: sampling error explodes well before tau = 8
    assert by_tau[8.0].k3_sigma / by_tau[1.0].k3_sigma > 10.0
    assert by_tau[8.0].k4_sigma / by_tau[1.0].k4_sigma > 10.0

    _report(5, "positive-p short-time accuracy and error growth", started)


@pytest.mark.slow
def test_criterion_6_conservation_invariants():
    started = time.perf_counter()
    grid = TW_GRID

    # the flow conserves |alpha| to rounding, and each path's quadrature
    # follows the exact rotation: on the first 500 initial amplitudes,
    # across the whole output grid, |z| / 2 stays within 1e-13 |alpha0| of
    # |alpha0|, and the kernel's x = Re(zeta), zeta = exp(-i theta) 2 alpha(t),
    # lies within the flow's rounding bound of the Cartesian rotation
    # 2 Re(exp(-i theta) alpha0 exp(-i omega t))
    init = sample_wigner_coherent(ALPHA0, stream_for_trajectory(1, 0), 500)
    omega = 2.0 * (init.real**2 + init.imag**2) - 1.0
    flow = exact_wigner_flow(init, grid.times, grid.thetas)
    for k, (z, t, theta) in enumerate(zip(flow, grid.times, grid.thetas, strict=True)):
        assert np.all(np.abs(np.abs(z) - 2.0 * np.abs(init)) <= 2e-13 * np.abs(init))
        x = bulk_monomials(theta, z, None)[0]
        cartesian = 2.0 * (np.exp(-1j * theta) * init * np.exp(-1j * omega * t)).real
        bound = quadrature_rounding_bound(rounding_phase(omega, t, theta, k), 2.0 * np.abs(init))
        assert np.all(np.abs(x - cartesian) <= bound[0])

    # ensemble occupation: <|alpha|^2> - 1/2 = N at every output time; the
    # benchmark ensemble's <abar a> comes from its runs at theta = 0 and pi/2
    sums, acc = ladder_sums(tw_run)
    for occupation in sums[1, 1]:
        vals = np.real(occupation / acc.batch_counts)
        sigma = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 0.5 - N_PARTICLES) < 4 * sigma

    # positive-P conserves the occupation product while converged: the
    # benchmark's paths and draws, run to its output at tau = 3
    pp_grid = grid_at(N_PARTICLES, tuple(tau for tau in PP_GRID.taus if tau <= 3.0), 1e-3)
    sums, pp_acc = ladder_sums(lambda theta: run_positive_p(
        ALPHA0, at_phase(pp_grid, theta), 100_000, 100, seed=1, threads=2
    ))
    for occupation in sums[1, 1]:
        vals = np.real(occupation / pp_acc.batch_counts)
        sigma = max(vals.std(ddof=1) / math.sqrt(len(vals)), 1e-9)
        assert abs(vals.mean() - N_PARTICLES) < 4 * sigma

    _report(6, "conservation invariants", started)


def test_criterion_7_integrator_order():
    started = time.perf_counter()

    # without noise the positive-P flow is exact: alpha1(t) = alpha0
    # exp(-2i N t) at 60 digits, to within eps |alpha0| (4 + (K + 2) 2 N t)
    # after K steps (the phase 2 I carries at most K + 2 roundings of its
    # size; its exponential and product 4 eps)
    eps = np.finfo(float).eps
    grid = grid_at(N_PARTICLES, (0.0, 0.25, 0.5, 1.0), 1e-3)
    steps = np.cumsum(grid.steps_between())
    flow = positive_p_flow(ALPHA0, grid, ZeroStream(), 1)
    for t, k, (a, _) in zip(grid.times, steps, flow, strict=True):
        with mpmath.workdps(60):
            n = mpmath.mpf(ALPHA0) ** 2
            exact = complex(ALPHA0 * mpmath.exp(-2j * n * k * mpmath.mpf(grid.dt)))
        assert abs(a[0] - exact) <= eps * ALPHA0 * (4 + (k + 2) * 2 * N_PARTICLES * t), (t, a[0], exact)

    # with noise, path by path on the same bits: 32 paths over pp_short's
    # output gap (250 steps at N = 1e3) stay within 1e-12 of the scalar
    # closed form with the symbolically derived coefficients
    grid = grid_at(N_PARTICLES, (0.25,), 1e-3)
    ((a1, a2s),) = positive_p_flow(ALPHA0, grid, stream_for_trajectory(21, 0), 32)
    draws = chunk_signs(21, 0, 250, 32)
    model = kerr_positive_p_model()
    for traj in range(32):
        ref = scalar_log_path(model, ALPHA0, grid.dt, draws[:, :, traj])
        assert abs(a1[traj] - ref[0]) < 1e-12 * abs(ref[0])
        assert abs(a2s[traj] - ref[1]) < 1e-12 * abs(ref[1])

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
        # heavy tails in every chunk: every path is kept, and its growing
        # sigma is byte-checked too
        "pp_diverging.cfg": (
            "method = PositiveP\nN = 10\nn_paths = 17000\nbatches = 34\n"
            "tau_start = 0\ntau_stop = 2\ntau_points = 3\ndtau = 1e-3\n"
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
            # the tails carry the sampling error: at tau = 2 sigma(k4) is
            # beyond (2 R)^4, R = 1e3 sqrt(N), the most that paths clipped
            # at the old escape radius R could give (they gave 8e9)
            rows = read_rows(out)
            assert [row.tau for row in rows] == [0.0, 1.0, 2.0]
            assert rows[2].k4_sigma > (2e3 * math.sqrt(10.0)) ** 4, rows

    _report(8, "byte-identical CSVs across worker counts", started)


@pytest.mark.slow
def test_criterion_9_gaussian_null():
    started = time.perf_counter()
    grid0 = grid_at(N_PARTICLES, (0.0,), 1e-3)
    grid_small = grid_at(4.0, (0.0,), 1e-3)  # alpha0 = 2
    terms = []
    for seed in range(100):
        acc = run_truncated_wigner(ALPHA0, grid0, 10_000, 20, seed=seed)
        k3, sigma3, k4, sigma4 = batch_error(acc)
        terms.append((k3[0] / sigma3[0]) ** 2)
        terms.append((k4[0] / sigma4[0]) ** 2)

        # seeds apart from the first half's, so that the two halves' terms
        # stay independent (the same seeds correlate them at r ~ 0.7)
        acc = run_truncated_wigner(2.0, grid_small, 5_000, 20,
                                   seed=seed + 100)
        k3, sigma3, k4, sigma4 = batch_error(acc)
        terms.append((k3[0] / sigma3[0]) ** 2)
        terms.append((k4[0] / sigma4[0]) ** 2)

    # 400 squared t_19 ratios: mean 1.118 each, sd of the sum ~ 35.  The
    # bounds catch both a genuine bias (inflates the sum) and a broken
    # error estimate (deflates it).
    total = float(np.sum(terms))
    assert 250.0 < total < 640.0, total
    _report(9, "Gaussian null via combined chi-square", started)
