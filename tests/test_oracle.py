import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from anharmonic import oracle
from anharmonic.moments import QuadratureSpec, k3_k4
from anharmonic.oracle import cumulant_series, evolve, init_coherent, oracle_cumulants
from helpers import (
    CutoffInsufficient,
    DenseOperatorSpace,
    coherent_vector,
    dense_brute_force,
    dense_cumulant_atol,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Rows (tau, k3, k4) that the Fock-window oracle this closed form replaced
#: wrote for N = 1e7, tau in [0, 10] at 21 points, theta = 2 tau.
FOCK_ORACLE_ROWS_AT_TEN_MILLION = (
    (0.0, -5.9302560131536968e-14, -4.7073456243920958e-14),
    (0.5, -0.0056232502471954904, -9.2388022182545924e-06),
    (1.0, 0.054514723155619636, 0.0006546741961474705),
    (1.5, -0.10418507252355469, 0.0016455237220177406),
    (2.0, -0.35317121734962259, -0.027268835420698231),
    (2.5, 1.0109224868430911, 0.062214523654878388),
    (3.0, -2.6696187606686945, 0.11849563086724021),
    (3.5, -5.7336263828925498, -0.4458895389630218),
    (4.0, 1.6430343396113938, 0.26898595688178922),
    (4.5, -17.103194262631579, 0.37345882625773763),
    (5.0, -32.178124808743, 0.60729803945030403),
    (5.5, 0.14924212394924863, 0.045745735056917765),
    (6.0, -43.629370248726019, -9.8402051816065264),
    (6.5, -85.800931302360667, 18.695870247434051),
    (7.0, 25.525664067778351, 11.269332043787587),
    (7.5, -25.324971222624516, -71.610807470482982),
    (8.0, -121.09674040687203, 62.531542445106517),
    (8.5, 157.34834879468028, 75.753044650912031),
    (9.0, 156.88909767881702, -179.05794079747224),
    (9.5, -71.135877194351437, 62.420053506477231),
    (10.0, 435.61065731939175, 122.14385569271667),
)


#: (alpha0, cutoff) of the dense checks: N = 4 and N = 50.
DENSE_CASES = ((2.0, 60), (math.sqrt(50.0), 200))


@pytest.fixture(scope="module")
def reference():
    """perfbench/reference.py, loaded read-only from its path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_reference", os.path.join(ROOT, "perfbench", "reference.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def coherent_quadrature_moments(alpha0, theta):
    """Closed-form <X^k> of a coherent state (Gaussian, unit variance)."""
    mu = 2.0 * (np.exp(-1j * theta) * alpha0).real
    return (mu, mu**2 + 1, mu**3 + 3 * mu, mu**4 + 6 * mu**2 + 3)


def ladder(state, p, q):
    return complex(oracle._ladder_moments(state)[p, q])


def cumulants(state, theta):
    rep = oracle_cumulants(state, QuadratureSpec(theta))
    return rep.kappa3, rep.kappa4


def assert_close(got, want, rtol):
    for g, w in zip(got, want):
        assert abs(g - w) <= rtol * max(1.0, abs(w)), (got, want)


class TestInitCoherent:
    def test_poisson_mean(self):
        for n_target in (4.0, 1000.0):
            state = init_coherent(math.sqrt(n_target))
            assert abs(ladder(state, 1, 1) - n_target) < 1e-12 * n_target

    def test_vacuum_rejected(self):
        with pytest.raises(ValueError):
            init_coherent(0.0)

    def test_complex_amplitude_phases(self):
        a0 = 2.0 * np.exp(0.7j)
        state = init_coherent(a0)
        assert abs(ladder(state, 0, 1) - a0) < 1e-15 * abs(a0)

    @pytest.mark.parametrize(
        "n, digits", [(1e-300, 20), (1.0, 23), (1e3, 35), (1e7, 51), (1e300, 1223)]
    )
    def test_working_precision(self, n, digits):
        # 20 + ceil(2 log10(16 N^2)) digits, never below 20
        assert init_coherent(math.sqrt(n))._ctx.dps == digits

    def test_empty_window_for_the_tracer(self):
        # perfbench/tracing.py reports n_max - n_min + 1 as oracle.window
        state = init_coherent(math.sqrt(1e3))
        assert state.n_max - state.n_min + 1 == 0


class TestEvolve:
    def test_time_zero_is_identity(self):
        state = init_coherent(2.0 + 0.5j)
        evolved = evolve(state, 0.0)
        assert evolved == state
        assert cumulants(evolved, 0.9) == cumulants(state, 0.9)

    def test_norm_preserved(self):
        # a^dag a and a^dag^2 a^2 commute with H = (a^dag a)^2
        n = 1000.0
        state0 = init_coherent(math.sqrt(n))
        for t in (1e-3, 0.37, 2.0):
            state = evolve(state0, t)
            assert ladder(state, 0, 0) == 1.0
            assert abs(ladder(state, 1, 1) - n) < 1e-12 * n
            assert abs(ladder(state, 2, 2) - n * n) < 1e-12 * n * n

    def test_full_revival_at_two_pi(self):
        # integer spectrum: all moments return after t = 2 pi
        state = init_coherent(math.sqrt(10.0))
        a = evolve(state, 0.4)
        b = evolve(state, 0.4 + 2 * math.pi)
        for p, q in ((0, 1), (1, 1), (2, 2), (0, 3)):
            assert abs(ladder(a, p, q) - ladder(b, p, q)) < 1e-12 * (1 + abs(ladder(a, p, q)))
        for theta in (0.8, 2.2):
            assert_close(cumulants(b, theta), cumulants(a, theta), 1e-12)


class TestLadderMoments:
    def test_number_moment(self):
        n_target = 1000.0
        state = evolve(init_coherent(math.sqrt(n_target)), 0.3)
        assert abs(ladder(state, 1, 1) - n_target) < 1e-12 * n_target

    def test_amplitude_moment(self):
        a0 = math.sqrt(1000.0)
        state = init_coherent(a0)
        assert abs(ladder(state, 0, 1) - a0) < 1e-15 * a0

    def test_hermitian_pairing(self):
        state = evolve(init_coherent(2.0 + 0.5j), 0.3)
        for p in range(5):
            for q in range(5 - p):
                a = ladder(state, p, q)
                b = ladder(state, q, p)
                assert abs(a - np.conj(b)) < 1e-15 * (1 + abs(a))

    def test_order_cap(self):
        # the cumulants need the moments of total order up to 4, and only those
        state = evolve(init_coherent(1.0), 0.2)
        assert set(oracle._ladder_moments(state)) == {
            (p, q) for p in range(5) for q in range(5) if p + q <= 4
        }

    def test_matches_dense_across_times(self):
        # every moment of order <= 4 through an independent dense route
        a0 = 2.0 + 0.5j
        cutoff = 60
        space = DenseOperatorSpace.build(cutoff)
        nn = np.arange(cutoff, dtype=np.float64)
        state0 = init_coherent(a0)
        for tau in (0.1, 0.5, 1.0):
            t = tau / abs(a0) ** 2
            psi = coherent_vector(a0, cutoff) * np.exp(-1j * nn * nn * t)
            state = evolve(state0, t)
            for p in range(5):
                for q in range(5 - p):
                    op = np.linalg.matrix_power(space.adag, p) @ np.linalg.matrix_power(space.a, q)
                    want = np.vdot(psi, op @ psi)
                    assert abs(ladder(state, p, q) - want) < 1e-10 * max(1.0, abs(want)), (p, q)


class TestPhasePrecisionAtLargeN:
    """Against perfbench/reference.py, an independent code of the same formula."""

    TAUS = (0.0, 0.5, 2.5, 6.0, 9.4, 10.0)

    def check(self, reference, n):
        state0 = init_coherent(math.sqrt(n))
        for tau in self.TAUS:
            got = cumulants(evolve(state0, tau / n), 2.0 * tau)
            assert_close(got, reference.exact_cumulants(n, tau, 2.0 * tau), 1e-9)

    def test_cumulants_match_closed_form_at_ten_million(self, reference):
        self.check(reference, 1e7)

    @pytest.mark.parametrize("n", [1e3, 1e12])
    def test_cumulants_match_closed_form(self, reference, n):
        self.check(reference, n)

    def test_fock_oracle_rows_at_ten_million(self):
        # the Fock window's phases and sums were good to ~5.6e-8 here
        n = 1e7
        taus = [row[0] for row in FOCK_ORACLE_ROWS_AT_TEN_MILLION]
        reports = cumulant_series(
            init_coherent(math.sqrt(n)), [tau / n for tau in taus],
            [QuadratureSpec(2.0 * tau) for tau in taus],
        )
        for (tau, k3, k4), rep in zip(FOCK_ORACLE_ROWS_AT_TEN_MILLION, reports):
            assert_close((rep.kappa3, rep.kappa4), (k3, k4), 1e-7)


class TestQuadratureMomentsAndCumulants:
    def test_moments_match_dense_at_small_n(self):
        for a0, cutoff in DENSE_CASES:
            n = a0 * a0
            state0 = init_coherent(a0)
            for tau in (0.1, 0.5, 1.0):
                for theta in (0.0, 2 * tau, 1.1):
                    state = evolve(state0, tau / n)
                    got = [float(m) for m in oracle._quadrature_moments(state, theta)]
                    dense = dense_brute_force(a0, cutoff, tau / n, QuadratureSpec(theta))
                    assert_close(got, dense, 1e-10)

    @pytest.mark.parametrize("n_target", [4.0, 1e3, 1e6, 1.0, 1e12, 1e300])
    def test_coherent_cumulants_vanish(self, n_target):
        state = init_coherent(math.sqrt(n_target))
        for theta in (0.0, 0.9, 2.2):
            rep = oracle_cumulants(state, QuadratureSpec(theta))
            assert abs(rep.kappa3) < 1e-15
            assert abs(rep.kappa4) < 1e-15

    def test_cumulants_match_dense_at_small_n(self):
        for a0, cutoff in DENSE_CASES:
            n = a0 * a0
            for tau in (0.5, 3.0):
                spec = QuadratureSpec(2.0 * tau)
                got = cumulants(evolve(init_coherent(a0), tau / n), spec.theta)
                want = k3_k4(*dense_brute_force(a0, cutoff, tau / n, spec))
                for g, w in zip(got, want):
                    assert abs(g - w) <= max(1e-10 * max(1.0, abs(w)), dense_cumulant_atol(n))

    def test_rotated_amplitude_shifts_the_quadrature_phase(self):
        # exp(i phi a^dag a) commutes with H, and X_theta of alpha e^{i phi}
        # is X_{theta - phi} of alpha
        phi = 0.7
        for a0 in (math.sqrt(1e3), 1.5 - 2.0j):
            turned0, plain0 = init_coherent(a0 * np.exp(1j * phi)), init_coherent(a0)
            for tau in (0.0, 0.8, 4.1):
                t = tau / abs(a0) ** 2
                for theta in (2.0 * tau, 1.3):
                    assert_close(
                        cumulants(evolve(turned0, t), theta),
                        cumulants(evolve(plain0, t), theta - phi),
                        1e-12,
                    )


class TestWorkspaceReuse:
    """Every state evolved from one init_coherent shares its mpmath context,
    the run's workspace: reusing it leaves every output bit as a state
    built afresh gives it."""

    @pytest.mark.parametrize(
        "alpha0",
        [math.sqrt(n) for n in (0.3, 1.5, 6.0, 258.0, 1e3, 1e7, 1e300)] + [2.0 + 0.5j],
        ids=["N=0.3", "N=1.5", "N=6", "N=258", "N=1e3", "N=1e7", "N=1e300", "alpha0=2+0.5j"],
    )
    def test_series_bit_identical_to_fresh_states(self, alpha0):
        n = abs(alpha0) ** 2
        # scaled times in [0, 10], then absolute times past 2 pi
        times = [tau / n for tau in (0.0, 0.7, 2.5, 9.4)] + [1.3 * 2 * math.pi, 23.3]
        specs = [QuadratureSpec(theta) for theta in (0.0, 1.4, 5.0, 18.8, 0.6, 2.1)]
        series = cumulant_series(init_coherent(alpha0), times, specs)
        for t, spec, got in zip(times, specs, series):
            assert got == oracle_cumulants(evolve(init_coherent(alpha0), t), spec), t

    def test_evolved_states_do_not_alias(self):
        alpha0 = 2.0 + 0.5j
        state0 = init_coherent(alpha0)
        first = evolve(state0, 0.3)
        second = evolve(state0, 1.1)
        oracle_cumulants(second, QuadratureSpec(0.9))
        fresh = evolve(init_coherent(alpha0), 0.3)
        assert first == fresh
        assert cumulants(first, 0.9) == cumulants(fresh, 0.9)

    def test_output_loop_memory_is_bounded(self):
        # a few kB per output at any N, with nothing kept between outputs
        n = 1e12
        state0 = init_coherent(math.sqrt(n))
        # one output first, which fills mpmath's caches at this precision
        oracle_cumulants(evolve(state0, 0.5 / n), QuadratureSpec(1.0))
        tracemalloc.start()
        try:
            for tau in np.linspace(0.0, 10.0, 20):
                oracle_cumulants(evolve(state0, tau / n), QuadratureSpec(2.0 * tau))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_series_rejects_spec_count_mismatch(self):
        state0 = init_coherent(2.0)
        with pytest.raises(ValueError, match="2 times but 1 quadrature specs"):
            cumulant_series(state0, [0.1, 0.2], [QuadratureSpec(0.0)])


class TestMpmathUse:
    def test_cli_import_leaves_mpmath_unloaded(self):
        # ensemble runs do not pay for mpmath's import
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, anharmonic.cli; print('mpmath' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert proc.stdout.strip() == "False"

    def test_global_precision_unchanged(self):
        import mpmath

        saved = mpmath.mp.dps
        mpmath.mp.dps = 17  # a value no oracle precision takes
        try:
            state = init_coherent(math.sqrt(1e300))
            oracle_cumulants(evolve(state, 1e-300), QuadratureSpec(2.0))
            assert mpmath.mp.dps == 17
        finally:
            mpmath.mp.dps = saved


class TestDenseBruteForce:
    def test_vacuum_quadrature_variance(self):
        m1, m2, _, _ = dense_brute_force(0.0, 20, 0.0, QuadratureSpec(0.4))
        assert m2 == pytest.approx(1.0, abs=1e-13)
        assert m1 == pytest.approx(0.0, abs=1e-13)

    def test_coherent_closed_forms(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a0 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            theta = rng.uniform(0, 2 * math.pi)
            mv = dense_brute_force(a0, 40, 0.0, QuadratureSpec(theta))
            for got, want in zip(mv, coherent_quadrature_moments(a0, theta)):
                assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_cutoff_guard(self):
        # N = 4 passes the precondition at cutoff 12 but loses > 1e-10 norm
        with pytest.raises(CutoffInsufficient):
            dense_brute_force(2.0, 12, 0.0, QuadratureSpec(0.0))

    def test_precondition_guards(self):
        with pytest.raises(ValueError):
            dense_brute_force(1.0, 300, 0.0, QuadratureSpec(0.0))
        with pytest.raises(ValueError):
            dense_brute_force(10.0, 60, 0.0, QuadratureSpec(0.0))
