"""Tests for the finite-volume evolver and the Kummer-function eigenmodes.

Oracles: the closed-form stationary law (distlib) for long-time limits; for
evolve's exact-in-time snapshots, the dense matrix exponential of the
operator (``scipy.linalg.expm``) on small grids, the same contour at twice
the nodes, equal-step BDF2 at a small step (``bdf2_equal_steps``), the
closed-form exponential of the moment equations and the decaying mode
f_ss (y - C/M); for the Kummer function (scipy's hyp1f1), the exact-rational series sum
``kummer_fraction_oracle`` at 120 terms over a random grid, the exponential
identities M(a, a, z) = exp(z) and, past |z| = 700, M(1, 2, z) = expm1(z)/z;
and a central-difference discretization of the spatial operator for the
eigenvalue relation.  Tests count and fault-inject evolve's resolvent
solves through ``fpsolve.solve_banded``.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal, expm
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply

from incomedyn import cli, distlib, fpsolve
from incomedyn.errors import DataError, DomainError, NumericalError


def kummer_fraction_oracle(a, b, z, terms=120):
    """Extended-precision series sum with exact rational arithmetic."""
    fa, fb, fz = Fraction(a), Fraction(b), Fraction(z)
    total = Fraction(1)
    term = Fraction(1)
    for k in range(terms):
        term *= (fa + k) * fz / ((fb + k) * (k + 1))
        total += term
    return float(total)


class TestKummer:
    def test_value_at_zero(self):
        assert fpsolve.kummer_m(1.3, 2.7, 0.0) == 1.0
        assert fpsolve.kummer_m(-0.4, 0.9, 0.0) == 1.0

    def test_exponential_identities(self):
        for z in (-5.0, -0.7, 0.4, 3.0, 20.0):
            assert fpsolve.kummer_m(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-12)
            assert fpsolve.kummer_m(2.3, 2.3, z) == pytest.approx(math.exp(z), rel=1e-12)

    def test_frozen_fraction_oracle_value(self):
        oracle = kummer_fraction_oracle(1.3, 2.7, -4.0)
        assert oracle == pytest.approx(0.237348907241177, rel=1e-12)
        assert fpsolve.kummer_m(1.3, 2.7, -4.0) == pytest.approx(oracle, rel=1e-11)

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            a = rng.uniform(-3.0, 6.0)
            b = rng.uniform(0.3, 8.0)
            z = rng.uniform(-30.0, 30.0)
            ref = kummer_fraction_oracle(a, b, z)
            assert fpsolve.kummer_m(a, b, z) == pytest.approx(ref, rel=2e-10, abs=1e-12)

    def test_term_ratio_recurrence(self):
        # successive series terms obey t_{k+1}/t_k = (a+k) z / ((b+k)(k+1)),
        # and once k exceeds |z| the remainder bound shrinks monotonically
        a, b, z = 1.7, 2.4, 6.0
        terms = [1.0]
        for k in range(60):
            terms.append(terms[-1] * (a + k) * z / ((b + k) * (k + 1)))
        for k in (3, 10, 30):
            assert terms[k + 1] / terms[k] == pytest.approx(
                (a + k) * z / ((b + k) * (k + 1)), rel=1e-14)
        tail = np.abs(terms[15:])
        assert (np.diff(tail) < 0.0).all()
        partial = np.cumsum(terms)
        assert partial[-1] == pytest.approx(fpsolve.kummer_m(a, b, z), rel=1e-10)

    def test_pole_and_overflow_errors(self):
        with pytest.raises(DomainError):
            fpsolve.kummer_m(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            fpsolve.kummer_m(1.0, -3.0, 1.0)
        # past |z| = 700 the value stands as long as it is finite
        for z in (-800.0, -2000.0, -1e4):
            assert fpsolve.kummer_m(1.0, 2.0, z) == pytest.approx(math.expm1(z) / z,
                                                                  rel=1e-14)
        with pytest.raises(NumericalError):
            fpsolve.kummer_m(1.0, 1.0, 710.0)    # e^710 overflows
        # non-integer negative b is fine
        assert np.isfinite(fpsolve.kummer_m(1.0, -1.6, -2.0))

    def test_vectorized(self):
        z = np.array([-4.0, -1.0, 0.0, 2.0])
        out = fpsolve.kummer_m(1.3, 2.7, z)
        for zi, oi in zip(z, out):
            assert oi == pytest.approx(fpsolve.kummer_m(1.3, 2.7, float(zi)), rel=1e-13)


class TestEigenmodes:
    def test_exponent_tables_for_M_1_6(self):
        # frozen direct-substitution values, n = 0, 1, 2
        expected = {
            0: (1.0, 3.6, -1.6, 3.6, 0.0),
            1: (-0.52368293318842518, 5.1236829331884248,
                -4.64736586637685, 6.64736586637685, 2.0 * math.pi),
            2: (-1.4757609318333667, 6.0757609318333667,
                -6.5515218636667329, 8.5515218636667321, 4.0 * math.pi),
        }
        for n, (am, ap, bm, bp, om) in expected.items():
            mode = fpsolve.eigenmode_params(n, 1.6)
            assert mode.omega_n == pytest.approx(om, abs=1e-15)
            assert mode.alpha_minus == pytest.approx(am, rel=1e-12)
            assert mode.alpha_plus == pytest.approx(ap, rel=1e-12)
            assert mode.beta_minus == pytest.approx(bm, rel=1e-12)
            assert mode.beta_plus == pytest.approx(bp, rel=1e-12)

    @pytest.mark.parametrize("M", [0.8, 1.6, 3.0])
    def test_steady_state_recovery(self, M):
        # n = 0 plus branch with A2 = 1/(C0 Gamma(M+1)) is the stationary law
        c0 = 1.3
        mode = fpsolve.steady_state_mode(M, c0)
        dist = distlib.SteadyStateIPDF(M, c0)
        y = np.geomspace(c0 / 600.0, 100.0 * c0, 400)
        g = fpsolve.eigenmode_eval(mode, y)
        ref = distlib.ipdf_density(dist, y)
        assert np.max(np.abs(g - ref) / ref) < 1e-10

    def test_operator_residual_small_for_modes(self):
        # analytic relation L[g_n] = omega_n g_n; central differences leave
        # only the O(h^2) discretization error
        grid = np.geomspace(0.08, 20.0, 6000)
        for n, a1, a2 in [(0, 0.0, 1.0), (1, 0.7, 0.3), (2, 0.4, 0.6)]:
            mode = fpsolve.eigenmode_params(n, 1.6, A1=a1, A2=a2, c=1.6)
            r = fpsolve.eigenmode_operator_residual(
                mode, 1.6, grid, fpsolve.eigenmode_eval(mode, grid))
            assert r < 1e-3, (n, r)

    def test_modes_command_evaluates_each_mode_once(self, tmp_path, monkeypatch):
        calls = []
        kummer = fpsolve.kummer_m
        monkeypatch.setattr(fpsolve, "kummer_m", lambda *a: calls.append(a) or kummer(*a))
        assert cli.main(["modes", "--M", "1.6", "--C0", "1.6", "--n-max", "2",
                         "--quiet", "--out-dir", str(tmp_path / "mo")]) == 0
        # one per mode n = 0, 1, 2 and one for the steady-state check
        assert len(calls) == 4

    def test_wrong_omega_residual_large(self):
        grid = np.geomspace(0.08, 20.0, 4000)
        mode = fpsolve.eigenmode_params(1, 1.6, A1=0.7, A2=0.3, c=1.6)
        bad = fpsolve.EigenMode(
            n=1, omega_n=3.0 * mode.omega_n, alpha_plus=mode.alpha_plus,
            alpha_minus=mode.alpha_minus, beta_plus=mode.beta_plus,
            beta_minus=mode.beta_minus, A1=0.7, A2=0.3, c=1.6,
            beta_minus_pole=False)
        g = fpsolve.eigenmode_eval(bad, grid)
        assert fpsolve.eigenmode_operator_residual(bad, 1.6, grid, g) > 0.1

    def test_beta_minus_pole_flagged(self):
        # n = 0 gives beta_- = -M, an exact pole at integer M
        mode = fpsolve.eigenmode_params(0, 2.0)
        assert mode.beta_minus_pole
        with pytest.raises(DomainError):
            fpsolve.eigenmode_eval(
                fpsolve.eigenmode_params(0, 2.0, A1=1.0, A2=0.0, c=1.0), 1.0)
        # with A1 = 0 the pole branch is never evaluated
        ok = fpsolve.eigenmode_params(0, 2.0, A1=0.0, A2=1.0, c=1.0)
        assert np.isfinite(fpsolve.eigenmode_eval(ok, 1.0))


class TestGridDensity:
    def test_log_spaced_is_geomspace_inside_the_normal_range(self):
        for lo, hi, n in ((1e-3, 1e3, 2000), (0.4, 0.5, 1), (1e-300, 1e300, 81)):
            np.testing.assert_array_equal(fpsolve.log_spaced(lo, hi, n), np.geomspace(lo, hi, n))
        np.testing.assert_array_equal(fpsolve.log_grid(1.6, 0.8, 300),
                                      fpsolve.log_spaced(5e-4, 5e2, 300))

    @pytest.mark.parametrize("lo, hi", [
        (0.0, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan),
        # a subnormal end, and a normal one whose first step is subnormal
        (1e-310, 1e-300), (3e-308, 3.001e-308)])
    def test_log_spaced_refuses_to_leave_the_normal_range(self, recwarn, lo, hi):
        with pytest.raises(NumericalError, match="leaves the normal float range"):
            fpsolve.log_spaced(lo, hi, 100)
        assert [str(w.message) for w in recwarn] == []

    def test_mass_and_validation(self):
        grid = fpsolve.log_grid(1.6, 1.6, 200)
        d = fpsolve.density_on_grid(distlib.SteadyStateIPDF(1.6, 1.6), grid)
        assert d.mass() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DataError):
            fpsolve.GridDensity(grid, -np.ones_like(grid))
        with pytest.raises(DataError):
            fpsolve.GridDensity(grid[::-1], np.ones_like(grid))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_and_grid_rejected(self, bad):
        grid = fpsolve.log_grid(1.6, 1.6, 200)
        values = np.ones_like(grid)
        values[7] = bad
        with pytest.raises(DataError, match="finite"):
            fpsolve.GridDensity(grid, values)
        with pytest.raises(DataError):
            fpsolve.GridDensity(np.append(grid[:-1], bad), np.ones_like(grid))


class TestEvolve:
    def test_stationary_input_stays(self):
        grid = fpsolve.log_grid(1.6, 1.6, 2000)
        f0 = fpsolve.density_on_grid(distlib.SteadyStateIPDF(1.6, 1.6), grid)
        final = fpsolve.evolve(f0, 1.6, 1.6, 10.0)[-1]
        assert fpsolve.l1_distance(final, f0) < 1e-4

    def test_bump_converges_to_closed_form(self):
        grid = fpsolve.log_grid(1.6, 1.6, 1200)
        bump = fpsolve.bump_density(grid, 3.0 * 1.0)
        steady = fpsolve.density_on_grid(distlib.SteadyStateIPDF(1.6, 1.6), grid)
        snaps = fpsolve.evolve(bump, 1.6, 1.6, 20.0, snapshot_times=[2.0, 5.0, 10.0, 20.0])
        dists = [fpsolve.l1_distance(s, steady) for s in snaps]
        # strictly decreasing until below the target; then a plateau at the
        # discrete equilibrium's O(h^2) offset from the sampled closed form
        for a, b in zip(dists, dists[1:]):
            if a > 1e-3:
                assert b < a
        assert dists[-1] < 1e-3

    def test_mass_conservation(self):
        grid = fpsolve.log_grid(1.6, 1.6, 1000)
        bump = fpsolve.bump_density(grid, 2.0)
        final = fpsolve.evolve(bump, 1.6, 1.6, 8.0)[-1]
        assert abs(final.mass() - bump.mass()) / 8.0 < 1e-10

    def test_positivity(self):
        """Nonnegative snapshots at the starting mass, to 1e-12: a clipped
        dip is scaled away.  A narrow bump, and two narrow bumps near the
        low-income edge of coarse grids, which once drove BDF2 steps below
        zero."""
        for m, c0, cells, center, width, times in [
                (1.6, 1.6, 600, 6.0, 0.05, [3.0]),
                (3.955, 1.831, 300, 0.139, 0.1, [0.934, 2.13, 2.612, 3.0]),
                (3.79, 1.966, 100, 0.156, 0.1, [0.291, 0.582, 0.717, 3.0])]:
            bump = fpsolve.bump_density(fpsolve.log_grid(m, c0, cells), center, width)
            for snap in fpsolve.evolve(bump, m, c0, times[-1], snapshot_times=times):
                assert (snap.values >= 0.0).all()
                assert abs(snap.mass() - bump.mass()) < 1e-12, (m, snap.time)

    def test_snapshot_before_first_full_step(self):
        # a snapshot a tenth of the way to the next shares its window
        grid = fpsolve.log_grid(1.6, 1.6, 300)
        f0 = fpsolve.density_on_grid(distlib.SteadyStateIPDF(1.6, 1.6), grid)
        snaps = fpsolve.evolve(f0, 1.6, 1.6, 1.0, snapshot_times=[0.05, 0.5])
        assert [round(s.time, 6) for s in snaps] == [0.05, 0.5, 1.0]
        assert snaps[-1].mass() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("c0", [0.0, -1.0, math.nan])
    def test_nonpositive_rate_is_a_domain_error(self, c0):
        f0 = fpsolve.bump_density(fpsolve.log_grid(1.6, 1.6, 100), 2.0)
        with pytest.raises(DomainError, match="labour rate"):
            fpsolve.evolve(f0, 1.6, c0, 1.0)

    def test_long_time_limit_over_random_parameters(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = rng.uniform(1.0, 4.0)
            c0 = rng.uniform(0.5, 3.0)
            grid = fpsolve.log_grid(m, c0, 900)
            bump = fpsolve.bump_density(grid, 2.5 * c0 / m)
            steady = fpsolve.density_on_grid(distlib.SteadyStateIPDF(m, c0), grid)
            t_relax = 25.0 / min(m, 2.0)
            final = fpsolve.evolve(bump, m, c0, t_relax)[-1]
            assert fpsolve.l1_distance(final, steady) < 1e-3, (m, c0)


def cli_sample_run(stats=None, snapshots=8):
    """The evolve arguments of perfbench's cli_sample workload: M = C0 = 1.6,
    a bump at 3 C0/M on 2000 cells, t_end 20 and 8 evenly spaced snapshots."""
    grid = fpsolve.log_grid(1.6, 1.6, 2000)
    f0 = fpsolve.bump_density(grid, 3.0, 0.1)
    times = np.linspace(20.0 / snapshots, 20.0, snapshots)
    return fpsolve.evolve(f0, 1.6, 1.6, 20.0, snapshot_times=times, stats=stats)


def random_cases(seed, count):
    """(M, C0, cells, bump width, t_end, bump centre over C0/M) of random
    runs with 8 evenly spaced snapshots, after the cli_sample run."""
    rng = np.random.default_rng(seed)
    return [(1.6, 1.6, 2000, 0.1, 20.0, 3.0)] + [
        (rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0), int(rng.integers(200, 801)),
         rng.uniform(0.02, 0.3), rng.uniform(2.0, 30.0), rng.uniform(0.5, 4.0))
        for _ in range(count)]


def moments_exact(m, c0, moments0, t):
    """(<y>, <y^2>) at time t from the exact moment equations (sigma^2 = 2)

        d<y>/dt = C - M <y>,    d<y^2>/dt = 2C <y> - 2(M - 1) <y^2>,

    by the closed-form exponential of their 2x2 matrix about the fixed
    point.  A zero-flux operator carries both moments the same way, up to
    the spatial error."""
    a = np.array([[-m, 0.0], [2.0 * c0, -2.0 * (m - 1.0)]])
    fixed = -np.linalg.solve(a, [c0, 0.0])
    return fixed + expm(a * t) @ (np.asarray(moments0) - fixed)


def implicit_solver(op, beta):
    """The solve of (I - beta L) x = rhs, from LAPACK ``dgttrf`` factors of
    the operator's bands."""
    *factors, info = dgttrf(-beta * op.lower, 1.0 - beta * op.diag, -beta * op.upper)
    assert info == 0
    return lambda rhs: dgttrs(*factors, rhs)[0]


def backward_euler(f0, m, c0, times, dt):
    """The stepper BDF2 replaced, as an accuracy baseline: backward Euler
    in the fewest equal steps of at most dt between output times."""
    op = fpsolve._FluxOperator(f0.grid, m, c0)
    f, t, out = f0.values, f0.time, []
    for target in times:
        n = math.ceil((target - t) / dt - 1e-9)
        solve = implicit_solver(op, (target - t) / n)
        for _ in range(n):
            f = solve(f)
        t = target
        out.append(fpsolve.GridDensity(f0.grid, f, t))
    return out


def bdf2_equal_steps(f0, m, c0, times, dt):
    """The stepper the contour replaced, as a reference at a small dt: each
    interval between output times in the fewest equal steps of at most dt;
    backward Euler first and after a step ratio above 1 + sqrt(2), else
    variable-step BDF2, with a BDF2 step that dips below -1e-12 retaken by
    backward Euler.  Returns the states at ``times``."""
    op = fpsolve._FluxOperator(f0.grid, m, c0)
    factored = functools.cache(functools.partial(implicit_solver, op))
    f, f_prev, h_prev, t, out = f0.values, None, 0.0, f0.time, []
    for target in times:
        n = max(1, math.ceil((target - t) / dt - 1e-9))
        h = (target - t) / n
        for _ in range(n):
            omega = h / h_prev if h_prev else math.inf
            f_new = None
            if omega <= 1.0 + math.sqrt(2.0):
                d = 1.0 + 2.0 * omega
                rhs = (1.0 + omega) ** 2 / d * f
                rhs -= omega ** 2 / d * f_prev
                f_new = factored(h * (1.0 + omega) / d)(rhs)
            if f_new is None or not f_new.min() >= -1e-12:
                f_new = factored(h)(f)
            f_prev, f, h_prev = f, np.maximum(f_new, 0.0), h
        t = target
        out.append(fpsolve.GridDensity(f0.grid, f, t))
    return out


def dense_exponential(f0, m, c0, times):
    """exp((t - t0) L) f0 at each time from the dense matrix exponential of
    the operator (scipy's scaling and squaring), clipped at 0."""
    op = fpsolve._FluxOperator(f0.grid, m, c0)
    dense = np.diag(op.diag) + np.diag(op.lower, -1) + np.diag(op.upper, 1)
    return [fpsolve.GridDensity(
        f0.grid, np.maximum(expm((t - f0.time) * dense) @ f0.values, 0.0), t)
        for t in times]


def spatial_floor(grid, m, c0):
    """L1 distance between the scheme's steady state and the closed-form
    law on the grid, both at unit mass: the error no time integration
    removes."""
    steady = fpsolve.GridDensity(grid, fpsolve._FluxOperator(grid, m, c0).steady_state(grid))
    return fpsolve.l1_distance(steady, fpsolve.density_on_grid(
        distlib.SteadyStateIPDF(m, c0), grid))


def count_solves(monkeypatch):
    """A list that grows by each contour node z of evolve's resolvent
    solves, made through the module attribute ``fpsolve.solve_banded``."""
    calls = []
    solve = fpsolve.solve_banded
    monkeypatch.setattr(fpsolve, "solve_banded",
                        lambda op, z, rhs: calls.append(z) or solve(op, z, rhs))
    return calls


def second_moment(d):
    return np.trapezoid(d.grid ** 2 * d.values, d.grid)


class TestEvolveSnapshots:
    """Exact oracles for the exact-in-time snapshots: the dense matrix
    exponential, the moment equations and the decaying modes of the
    continuum, and references that converge to exp(tL) f0: twice the
    contour nodes and BDF2 at a small step."""

    def test_transient_mean_follows_the_exact_moment_exponential(self):
        """Within 5e-5 of the exact mean, the spatial error; BDF2 at its
        default step was 4.9e-3 off at t = 0.5."""
        m, c0 = 1.6, 1.6
        grid = fpsolve.log_grid(m, c0, 2000)
        bump = fpsolve.bump_density(grid, 3.0 * c0 / m)
        times = [0.5, 1.0, 2.0, 4.0]
        snaps = fpsolve.evolve(bump, m, c0, 4.0, snapshot_times=times)
        for t, snap in zip(times, snaps):
            mean, _ = moments_exact(m, c0, (bump.mean(), second_moment(bump)), t)
            assert abs(snap.mean() - mean) < 1e-4, t

    def test_transient_second_moment_follows_the_exact_moment_exponential(self):
        """At M = 4 the steady y^2 f falls as y^-4, so the spatial error of
        <y^2> is about 1e-5 relative (3.3e-5 at t = 0.5; BDF2 at its default
        step was 1.4e-3 off).  At M = 1.6 it falls only as y^-1.6, and the
        truncated domain shows: 2.4e-2 at t = 2 and 4.5e-2 at t = 4."""
        m, c0 = 4.0, 4.0
        grid = fpsolve.log_grid(m, c0, 2000)
        bump = fpsolve.bump_density(grid, 3.0 * c0 / m)
        times = [0.5, 1.0, 2.0, 4.0]
        snaps = fpsolve.evolve(bump, m, c0, 4.0, snapshot_times=times)
        for t, snap in zip(times, snaps):
            _, m2 = moments_exact(m, c0, (bump.mean(), second_moment(bump)), t)
            assert second_moment(snap) == pytest.approx(m2, rel=1e-4), t

    @pytest.mark.parametrize("m", [1.6, 4.0])
    def test_mean_beats_backward_euler_at_the_old_step(self, m):
        """Against the continuum mean, the snapshots are at least 2x closer
        than backward Euler at the old default step 0.1 / (M + 2), which is
        1.6e-2 off at t = 0.5 for M = 1.6."""
        grid = fpsolve.log_grid(m, m, 2000)
        bump = fpsolve.bump_density(grid, 3.0)
        times = [0.5, 1.0, 2.0]
        snaps = fpsolve.evolve(bump, m, m, 2.0, snapshot_times=times)
        old = backward_euler(bump, m, m, times, 0.1 / (m + 2.0))
        for t, new, be in zip(times, snaps, old):
            exact = 1.0 + (bump.mean() - 1.0) * math.exp(-m * t)
            assert abs(new.mean() - exact) < 0.5 * abs(be.mean() - exact), t

    def test_time_error_below_backward_euler_over_random_cases(self, monkeypatch):
        """Time error: the L1 distance to the run at twice the contour
        nodes on the same grid.  At every output time, from t = 0.1 on, it
        is below a hundredth of backward Euler's at the old default step."""
        rng = np.random.default_rng(17)
        times = [0.1, 0.25, 0.5, 1.0, 2.0]
        for _ in range(20):
            m, c0 = rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0)
            cells, width = int(rng.integers(300, 2001)), rng.uniform(0.02, 0.3)
            grid = fpsolve.log_grid(m, c0, cells)
            bump = fpsolve.bump_density(grid, rng.uniform(0.5, 4.0) * c0 / m, width)
            new = fpsolve.evolve(bump, m, c0, 2.0, snapshot_times=times)
            with monkeypatch.context() as patch:
                patch.setattr(fpsolve, "CONTOUR_NODES", 2 * fpsolve.CONTOUR_NODES)
                ref = fpsolve.evolve(bump, m, c0, 2.0, snapshot_times=times)
            old = backward_euler(bump, m, c0, times, 0.1 / (m + 2.0))
            for t, r, a, b in zip(times, ref, new, old):
                assert (fpsolve.l1_distance(a, r)
                        <= 0.01 * fpsolve.l1_distance(b, r)), (m, c0, cells, width, t)

    def test_contour_nodes_against_twice_as_many(self, monkeypatch):
        """N = 32 against N = 64 (mu grows with N), on the cli_sample run and
        random runs: within a hundredth of the spatial floor at every
        snapshot (1.1e-9 against a floor of 8.0e-6 on cli_sample)."""
        for m, c0, cells, width, t_end, center in random_cases(36, 5):
            grid = fpsolve.log_grid(m, c0, cells)
            f0 = fpsolve.bump_density(grid, center * c0 / m, width)
            times = np.linspace(t_end / 8.0, t_end, 8)
            new = fpsolve.evolve(f0, m, c0, t_end, snapshot_times=times)
            with monkeypatch.context() as patch:
                patch.setattr(fpsolve, "CONTOUR_NODES", 2 * fpsolve.CONTOUR_NODES)
                ref = fpsolve.evolve(f0, m, c0, t_end, snapshot_times=times)
            tol = 0.01 * spatial_floor(grid, m, c0)
            for a, r in zip(new, ref):
                assert fpsolve.l1_distance(a, r) < tol, (m, c0, cells, width, t_end, a.time)

    def test_snapshots_against_equal_steps_at_a_small_step(self):
        """Against equal BDF2 steps of dt / 128, dt = 0.25 / (M + 2), on the
        cli_sample run and random runs with 8 snapshots: within a tenth of
        the spatial floor at every snapshot.  That reference's own error on
        cli_sample is 1.2e-8 at t = 2.5 and falls to 4e-12 at t = 20.  The
        L1 distance to the scheme's steady state never rises by more than
        1e-12."""
        for m, c0, cells, width, t_end, center in random_cases(35, 3):
            grid = fpsolve.log_grid(m, c0, cells)
            f0 = fpsolve.bump_density(grid, center * c0 / m, width)
            times = np.linspace(t_end / 8.0, t_end, 8)
            new = fpsolve.evolve(f0, m, c0, t_end, snapshot_times=times)
            ref = bdf2_equal_steps(f0, m, c0, times, 0.25 / (m + 2.0) / 128.0)
            tol = 0.1 * spatial_floor(grid, m, c0)
            case = (m, c0, cells, width, t_end)
            for a, r in zip(new, ref):
                assert fpsolve.l1_distance(a, r) < tol, (case, a.time)
            steady = fpsolve.GridDensity(
                grid, fpsolve._FluxOperator(grid, m, c0).steady_state(grid))
            to_steady = [fpsolve.l1_distance(s, steady) for s in new]
            assert all(b <= a + 1e-12 for a, b in zip(to_steady, to_steady[1:])), case

    @pytest.mark.parametrize("times, windows", [
        (np.geomspace(1e-3, 10.0, 9), [2, 2, 2, 2, 1]),
        ([1e-3, 1e-2, 1e-1, 1.0, 10.0], [1, 1, 1, 1, 1]),
        ([0.5, 0.5 + 1e-13, 1.0], [3]),
    ], ids=["geometric-1e4", "decades-1e4", "1e-13-apart"])
    def test_windows_match_the_dense_exponential(self, times, windows):
        """Snapshots spanning a ratio of 1e4 take several windows, all
        from the run's start; all lie within a hundredth of the spatial
        floor (8.0e-4 here) of the dense matrix exponential, as do two
        snapshots 1e-13 apart in one window."""
        grid = fpsolve.log_grid(1.6, 1.6, 200)
        f0 = fpsolve.bump_density(grid, 3.0)
        stats = {}
        snaps = fpsolve.evolve(f0, 1.6, 1.6, times[-1], snapshot_times=times, stats=stats)
        assert stats["outputs_per_window"] == windows
        tol = 0.01 * spatial_floor(grid, 1.6, 1.6)
        for snap, ref in zip(snaps, dense_exponential(f0, 1.6, 1.6, times)):
            assert fpsolve.l1_distance(snap, ref) < tol, snap.time

    def test_decaying_mode_relaxes_at_rate_M(self):
        """f_ss (1 + eps (y - C/M)) is the steady state plus the n = 1
        decaying mode of the continuum, whose rate is lambda_1 = M: the
        departure from the steady state shrinks as exp(-M t), to 2e-5 of its
        size at M = 4 on 2000 cells, the spatial error of the mode (BDF2 at
        its default step was 5e-3 off at t = 0.25)."""
        m, c0 = 4.0, 4.0
        grid = fpsolve.log_grid(m, c0, 2000)
        steady = fpsolve._FluxOperator(grid, m, c0).steady_state(grid)
        f0 = fpsolve.GridDensity(grid, steady * (1.0 + 0.5 * m / c0 * (grid - c0 / m)))
        departure = f0.values - f0.mass() * steady
        size = np.trapezoid(np.abs(departure), grid)
        times = [0.25, 0.5, 1.0, 2.0]
        for snap in fpsolve.evolve(f0, m, c0, 2.0, snapshot_times=times):
            decayed = f0.mass() * steady + math.exp(-m * snap.time) * departure
            assert np.trapezoid(np.abs(snap.values - decayed), grid) < 2e-5 * size, snap.time

    def test_one_solve_per_contour_node(self, monkeypatch):
        """One resolvent solve per contour node: 32 for the cli_sample run,
        whose 8 snapshots from t_end / 8 to t_end make one window.  perfbench
        counts each solve as a step (``fpsolve.evolve.steps``)."""
        calls = count_solves(monkeypatch)
        stats = {}
        final = cli_sample_run(stats)[-1]
        assert final.time == 20.0
        assert len(calls) == stats["solves"] == fpsolve.CONTOUR_NODES == 32
        assert stats["outputs_per_window"] == [8]

    @pytest.mark.parametrize("times, expected, windows", [
        ([0.5, 0.5, 1.0], [0.5, 1.0], [2]),
        ([1.0, 1.0], [1.0], [1]),
        ([0.5, 0.5 + 1e-13, 1.0], [0.5, 0.5 + 1e-13, 1.0], [3]),
    ], ids=["repeated-once", "repeated-at-end-once", "1e-13-apart-own-step"])
    def test_repeated_and_close_snapshot_times(self, times, expected, windows):
        """One state per distinct output time: a repeated time gives one
        state, and a time 1e-13 after another gives its own."""
        grid = fpsolve.log_grid(1.6, 1.6, 200)
        f0 = fpsolve.bump_density(grid, 3.0)
        stats = {}
        snaps = fpsolve.evolve(f0, 1.6, 1.6, 1.0, snapshot_times=times, stats=stats)
        assert [s.time for s in snaps] == pytest.approx(expected, abs=1e-12)
        assert snaps[-1].time == 1.0
        assert stats["outputs_per_window"] == windows

    @pytest.mark.parametrize("value", [math.nan, -1e-6])
    def test_nan_or_negative_density_is_a_numerical_error(self, monkeypatch, value):
        """Every resolvent solve gains value / z, whose contour integral is
        the constant ``value``: each snapshot of a density of mass 0.1 is
        shifted by ``value``, a NaN, or a dip whose mass over the grid
        (about 1e3 wide) is 1e-3, past the error bound's 1e-8."""
        solve = fpsolve.solve_banded
        monkeypatch.setattr(fpsolve, "solve_banded",
                            lambda op, z, rhs: solve(op, z, rhs) + value / z)
        grid = fpsolve.log_grid(1.6, 1.6, 100)
        bump = fpsolve.bump_density(grid, 2.0)
        f0 = fpsolve.GridDensity(grid, 0.1 * bump.values)
        with pytest.raises(NumericalError):
            fpsolve.evolve(f0, 1.6, 1.6, 0.5)

    def test_a_small_dip_is_clipped_and_the_mass_kept(self, monkeypatch):
        """A shift of -1e-11, 1e-10 of the peak and 1e-8 of the mass over
        the grid, is within the error bound: it is clipped to 0 and the
        snapshot scaled back to the starting mass, to 1e-12 of it."""
        solve = fpsolve.solve_banded
        monkeypatch.setattr(fpsolve, "solve_banded",
                            lambda op, z, rhs: solve(op, z, rhs) - 1e-11 / z)
        grid = fpsolve.log_grid(1.6, 1.6, 100)
        f0 = fpsolve.GridDensity(grid, 0.1 * fpsolve.bump_density(grid, 2.0).values)
        for snap in fpsolve.evolve(f0, 1.6, 1.6, 0.5):
            assert snap.values.min() == 0.0
            assert abs(snap.mass() - f0.mass()) < 1e-12 * f0.mass()

    @pytest.mark.parametrize("cells, t_end", [(2000, 0.01), (1000, 0.004)])
    def test_early_first_output_times_against_expm_multiply(self, cells, t_end):
        """First output times of 1.25e-3 and 5e-4, where the drift across
        the low-edge cells is one-way: the 8 default snapshots lie within a
        tenth of the spatial floor of scipy's ``expm_multiply`` (1.4e-10
        off at the first on 2000 cells, against a floor of 8.0e-6)."""
        grid = fpsolve.log_grid(1.6, 1.6, cells)
        f0 = fpsolve.bump_density(grid, 3.0)
        times = np.linspace(t_end / 8.0, t_end, 8)
        snaps = fpsolve.evolve(f0, 1.6, 1.6, t_end, snapshot_times=times)
        op = fpsolve._FluxOperator(grid, 1.6, 1.6)
        dense = diags([op.lower, op.diag, op.upper], [-1, 0, 1], format="csr")
        state = np.random.get_state()    # expm_multiply's norm estimates draw from it
        refs = expm_multiply(dense, f0.values, start=times[0], stop=t_end, num=8)
        np.random.set_state(state)
        tol = 0.1 * spatial_floor(grid, 1.6, 1.6)
        for snap, ref in zip(snaps, refs):
            assert np.trapezoid(np.abs(snap.values - ref), grid) < tol, snap.time

    @pytest.mark.parametrize("center, width", [(0.01, 0.1), (0.003, 0.1), (1.0, 1.0)],
                             ids=["near-low-edge", "at-low-edge", "wide"])
    def test_mass_where_the_steady_state_vanishes(self, center, width):
        """A bump whose mass lies where f_ss is e^-(C/y) small, near the low
        edge or in a wide bump's tail, is carried by Taylor steps until the
        contour's error bound is met; every snapshot lies within a tenth of
        the spatial floor of the dense exponential, at the starting mass."""
        grid = fpsolve.log_grid(1.6, 1.6, 300)
        f0 = fpsolve.bump_density(grid, center, width)
        times = [1e-3, 1e-2, 0.1, 1.0]
        stats = {}
        snaps = fpsolve.evolve(f0, 1.6, 1.6, 1.0, snapshot_times=times, stats=stats)
        assert stats["taylor_steps"] > 0
        assert stats["error_bound"] <= fpsolve.CONTOUR_TOLERANCE
        tol = 0.1 * spatial_floor(grid, 1.6, 1.6)
        for snap, ref in zip(snaps, dense_exponential(f0, 1.6, 1.6, times)):
            assert fpsolve.l1_distance(snap, ref) < tol, snap.time
            assert abs(snap.mass() - 1.0) < 1e-12

    def test_error_bound_holds_over_random_cases(self):
        """The reported L1 bound of the contour's snapshots is never below
        their distance to the dense exponential (over 12 random coarse
        runs, some with mass near the low edge)."""
        rng = np.random.default_rng(41)
        for _ in range(12):
            m, c0 = rng.uniform(0.3, 6.0), rng.uniform(0.2, 5.0)
            grid = fpsolve.log_grid(m, c0, int(rng.integers(30, 301)))
            f0 = fpsolve.bump_density(grid, rng.uniform(0.01, 5.0) * c0 / m,
                                      rng.uniform(0.03, 1.0))
            times = list(np.geomspace(1e-4, 1.0, 5))
            stats = {}
            snaps = fpsolve.evolve(f0, m, c0, 1.0, snapshot_times=times, stats=stats)
            for snap, ref in zip(snaps, dense_exponential(f0, m, c0, times)):
                assert fpsolve.l1_distance(snap, ref) <= stats["error_bound"] + 1e-13

    def test_taylor_steps_past_the_cap_are_a_numerical_error(self, monkeypatch):
        monkeypatch.setattr(fpsolve, "TAYLOR_STEPS", 100)
        grid = fpsolve.log_grid(1.6, 1.6, 300)
        with pytest.raises(NumericalError, match="more than 100 Taylor steps"):
            fpsolve.evolve(fpsolve.bump_density(grid, 0.01), 1.6, 1.6, 1.0)

    def test_evenly_spaced_snapshots_take_few_windows(self):
        """Windows grow from the run's start by WINDOW_RATIO: 64 evenly
        spaced snapshots take two, [t1, 8 t1] and the 56 after it."""
        stats = {}
        cli_sample_run(stats, snapshots=64)
        assert stats["outputs_per_window"] == [8, 56] and stats["solves"] == 64

    def test_zero_pivot_is_a_numerical_error(self):
        op = fpsolve._FluxOperator(fpsolve.log_grid(1.6, 1.6, 50), 1.6, 1.6)
        op.lower[:] = op.upper[:] = 0.0
        op.diag[:] = 2.0                 # 2 I - L is exactly zero
        with pytest.raises(NumericalError, match="zero pivot"):
            fpsolve.solve_banded(op, 2.0, np.ones(50, dtype=complex))


class TestSteadyStateResidual:
    def test_small_on_fine_grid(self):
        assert fpsolve.steady_state_residual(1.6, 1.6) < 1e-6

    def test_convergence_under_refinement(self):
        # coarsening 2x and 4x must grow the residual at least second order
        r2000 = fpsolve.steady_state_residual(1.6, 1.6, fpsolve.log_grid(1.6, 1.6, 2000))
        r1000 = fpsolve.steady_state_residual(1.6, 1.6, fpsolve.log_grid(1.6, 1.6, 1000))
        r500 = fpsolve.steady_state_residual(1.6, 1.6, fpsolve.log_grid(1.6, 1.6, 500))
        assert r1000 / r2000 > 3.5
        assert r500 / r1000 > 3.5

    def test_wrong_density_is_order_one(self):
        grid = fpsolve.log_grid(1.6, 1.6, 2000)
        wrong = np.exp(-1.6 / grid) * grid ** (-(1.6 + 3.0))
        op = fpsolve._FluxOperator(grid, 1.6, 1.6)
        flux = op.edge_fluxes(wrong)
        scale = op.g * (op.b_minus * wrong[1:] + op.b_plus * wrong[:-1])
        assert np.abs(flux).max() / scale.max() > 1e-3

    @pytest.mark.parametrize("M, c0", [(1.6, 1.6), (4.0, 0.5), (0.3, 10.0)])
    def test_scheme_steady_state_has_zero_flux(self, M, c0):
        y = fpsolve.log_grid(M, c0)
        op = fpsolve._FluxOperator(y, M, c0)
        f = op.steady_state(y)
        assert np.trapezoid(f, y) == pytest.approx(1.0, rel=1e-14)
        scale = op.g * (op.b_minus * f[1:] + op.b_plus * f[:-1])
        assert np.abs(op.edge_fluxes(f)).max() < 1e-12 * scale.max()

    @pytest.mark.parametrize("M, c0", [(1.6, 1.6), (4.0, 0.5), (0.3, 10.0)])
    def test_edge_weights_ratio_is_exp_w(self, M, c0):
        # B(-w) / B(w) = exp(w) with B(w) = w / (exp(w) - 1): the zero-flux
        # steady state f_j / f_(j-1) = exp(w_j) rests on this identity
        y = fpsolve.log_grid(M, c0)
        e_in, h = 0.5 * (y[:-1] + y[1:]), np.diff(y)
        w = ((M + 2.0) * e_in - c0) * h / e_in ** 2
        op = fpsolve._FluxOperator(y, M, c0)
        assert np.max(np.abs(op.b_minus / op.b_plus / np.exp(w) - 1.0)) < 2e-15


class TestRelaxationSpectrum:
    """Exact oracle: with sigma^2 = 2 the moments obey
    d<y^n>/dt = n C <y^(n-1)> - n (M + 1 - n) <y^n>, so the decay rates are
    lambda_n = n (M + 1 - n), with f_ss times a degree-n polynomial as
    eigenfunction, below a continuum from (M + 1)^2 / 4.  At M = C0 = 4 that
    is 0, -4 and -6 against a continuum edge at 6.25."""

    @pytest.mark.parametrize("cells", [400, 800])
    def test_leading_eigenvalues_match_the_exact_rates(self, cells):
        op = fpsolve._FluxOperator(fpsolve.log_grid(4.0, 4.0, cells), 4.0, 4.0)
        products = op.upper * op.lower
        # positive off-diagonal products: a diagonal similarity symmetrises L
        assert (products > 0.0).all()
        lam = eigvalsh_tridiagonal(op.diag, np.sqrt(products), select="i",
                                   select_range=(cells - 3, cells - 1))[::-1]
        assert abs(lam[0]) < 1e-9           # zero-flux boundaries conserve mass
        assert abs(lam[1] + 4.0) < 5e-3
        assert abs(lam[2] + 6.0) < 1e-2


def test_snapshot_csv_roundtrip(tmp_path):
    # snapshots.csv is written by the evolve command: the start density and
    # one snapshot, each on the whole grid, read back to 12 significant
    # digits (a relative error of at most 5e-12)
    assert cli.main(["evolve", "--cells", "64", "--init", "steady", "--t-end", "0.5",
                     "--snapshot-times", "0.5", "--quiet", "--out-dir", str(tmp_path)]) == 0
    grid = fpsolve.log_grid(1.6, 1.6, 64)
    d = fpsolve.density_on_grid(distlib.SteadyStateIPDF(1.6, 1.6), grid)
    lines = (tmp_path / "snapshots.csv").read_text().splitlines()
    assert lines[0] == "t,y,f"
    assert len(lines) == 1 + 2 * grid.size
    t, y, f = np.loadtxt(lines[1:], delimiter=",", unpack=True)
    assert t.tolist() == [0.0] * grid.size + [0.5] * grid.size
    assert np.allclose(y, np.tile(grid, 2), rtol=5e-12, atol=0.0)
    assert np.allclose(f[:grid.size], d.values, rtol=5e-12, atol=0.0)
