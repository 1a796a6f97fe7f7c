"""Tests for the finite-volume evolver and the Kummer-function eigenmodes.

Oracles: the closed-form stationary law (distlib) for long-time limits;
equal-step BDF2 at a small step (``bdf2_equal_steps``) for evolve's
error-controlled steps; for the Kummer function (scipy's hyp1f1), the exact-rational series sum
``kummer_fraction_oracle`` at 120 terms over a random grid, the exponential
identities M(a, a, z) = exp(z) and, past |z| = 700, M(1, 2, z) = expm1(z)/z;
and a central-difference discretization of the spatial operator for the
eigenvalue relation.  Tests count and fault-inject evolve's solves through
the solver that ``_FluxOperator.implicit_factors`` returns.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

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
        grid = fpsolve.log_grid(1.6, 1.6, 600)
        bump = fpsolve.bump_density(grid, 6.0, rel_width=0.05)
        final = fpsolve.evolve(bump, 1.6, 1.6, 3.0)[-1]
        assert (final.values >= 0.0).all()

    def test_snapshot_before_first_full_step(self):
        # a snapshot inside the first step shortens it; the cached operator
        # must not be reused before it exists
        grid = fpsolve.log_grid(1.6, 1.6, 300)
        f0 = fpsolve.density_on_grid(distlib.SteadyStateIPDF(1.6, 1.6), grid)
        snaps = fpsolve.evolve(f0, 1.6, 1.6, 1.0, dt=0.1, snapshot_times=[0.05, 0.5])
        assert [round(s.time, 6) for s in snaps] == [0.05, 0.5, 1.0]
        assert snaps[-1].mass() == pytest.approx(1.0, abs=1e-10)

    def test_time_step_refusal_with_suggestion(self):
        grid = fpsolve.log_grid(1.6, 1.6, 400)
        f0 = fpsolve.density_on_grid(distlib.SteadyStateIPDF(1.6, 1.6), grid)
        # the suggestion is the default step 0.25 / (M + 2)
        with pytest.raises(NumericalError, match=r"suggested dt=0\.0694444"):
            fpsolve.evolve(f0, 1.6, 1.6, 5.0, dt=1.0)

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


def cli_sample_run(stats=None):
    """The evolve arguments of perfbench's cli_sample workload: M = C0 = 1.6,
    a bump at 3 C0/M on 2000 cells, t_end 20 and 8 evenly spaced snapshots."""
    grid = fpsolve.log_grid(1.6, 1.6, 2000)
    f0 = fpsolve.bump_density(grid, 3.0, 0.1)
    return fpsolve.evolve(f0, 1.6, 1.6, 20.0,
                          snapshot_times=np.linspace(20.0 / 8.0, 20.0, 8), stats=stats)


def moment_recurrence(m, c0, moments0, times, interval_steps):
    """(<y>, <y^2>) at each time in ``times`` from the step schedule that
    evolve reports, applied to the exact moment equations (sigma^2 = 2)

        d<y>/dt = C - M <y>,    d<y^2>/dt = 2C <y> - 2(M - 1) <y^2>:

    each interval between output times in its reported number of equal
    steps; backward Euler first and after a step ratio above 1 + sqrt(2),
    else variable-step BDF2.  A zero-flux operator carries both moments the
    same way, up to the spatial error, as long as no step is retaken."""
    a = np.array([[-m, 0.0], [2.0 * c0, -2.0 * (m - 1.0)]])
    b = np.array([c0, 0.0])
    y, y_prev, h_prev, t, out = np.asarray(moments0, dtype=float), None, 0.0, 0.0, []
    for target, n in zip(times, interval_steps):
        h = (target - t) / n
        for _ in range(n):
            omega = h / h_prev if h_prev else math.inf
            if omega <= 1.0 + math.sqrt(2.0):
                rhs = ((1.0 + omega) ** 2 * y - omega ** 2 * y_prev) / (1.0 + 2.0 * omega)
                beta = h * (1.0 + omega) / (1.0 + 2.0 * omega)
            else:
                rhs, beta = y, h
            y_prev, y, h_prev = y, np.linalg.solve(np.eye(2) - beta * a, rhs + beta * b), h
        t = target
        out.append(y)
    return out


def backward_euler(f0, m, c0, times, dt):
    """The stepper BDF2 replaced, as the accuracy baseline: backward Euler
    in the fewest equal steps of at most dt between output times."""
    op = fpsolve._FluxOperator(f0.grid, m, c0)
    f, t, out = f0.values, f0.time, []
    for target in times:
        n = math.ceil((target - t) / dt - 1e-9)
        solve = op.implicit_factors((target - t) / n)
        for _ in range(n):
            f = solve(f)[0]
        t = target
        out.append(fpsolve.GridDensity(f0.grid, f, t))
    return out


def bdf2_equal_steps(f0, m, c0, times, dt):
    """The schedule evolve took before its steps followed an error estimate,
    as an accuracy baseline and, at a small dt, a reference: each interval
    between output times in the fewest equal steps of at most dt; backward
    Euler first and after a step ratio above 1 + sqrt(2), else variable-step
    BDF2, with a BDF2 step that dips below -1e-12 retaken by backward Euler.
    Returns the states at ``times`` and the step count."""
    op = fpsolve._FluxOperator(f0.grid, m, c0)
    factored = functools.cache(op.implicit_factors)
    f, f_prev, h_prev, t, out, steps = f0.values, None, 0.0, f0.time, [], 0
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
                f_new = factored(h * (1.0 + omega) / d)(rhs)[0]
            if f_new is None or not f_new.min() >= -1e-12:
                f_new = factored(h)(f)[0]
            f_prev, f, h_prev = f, np.maximum(f_new, 0.0), h
        t = target
        out.append(fpsolve.GridDensity(f0.grid, f, t))
        steps += n
    return out, steps


def count_solves(monkeypatch):
    """A list that grows by one at each of evolve's solves.  Each solve is a
    call of the solver that ``_FluxOperator.implicit_factors`` returns, bound
    to the factors of I - beta L, which maps a right-hand side to (x, info)."""
    calls = []
    factors = fpsolve._FluxOperator.implicit_factors

    def counted(self, beta):
        solve = factors(self, beta)
        return lambda rhs: calls.append(1) or solve(rhs)
    monkeypatch.setattr(fpsolve._FluxOperator, "implicit_factors", counted)
    return calls


def second_moment(d):
    return np.trapezoid(d.grid ** 2 * d.values, d.grid)


class TestEvolveSteps:
    """Exact oracles: the moment recurrences of the step schedule, and the
    continuum mean C/M + (m_0 - C/M) exp(-M t)."""

    def test_transient_mean_follows_the_bdf2_recurrence(self):
        m, c0 = 1.6, 1.6
        grid = fpsolve.log_grid(m, c0, 2000)
        bump = fpsolve.bump_density(grid, 3.0 * c0 / m)
        times = [0.5, 1.0, 2.0, 4.0]
        stats = {}
        snaps = fpsolve.evolve(bump, m, c0, 4.0, snapshot_times=times, stats=stats)
        assert stats["backward_euler_steps"] == 1
        expected = moment_recurrence(m, c0, (bump.mean(), second_moment(bump)), times,
                                     stats["interval_steps"])
        for t, snap, (mean, _) in zip(times, snaps, expected):
            assert abs(snap.mean() - mean) < 1e-4, t

    def test_transient_second_moment_follows_the_bdf2_recurrence(self):
        """At M = 4 the steady y^2 f falls as y^-4, so the spatial error of
        <y^2> is about 1e-5 relative.  At M = 1.6 it falls only as y^-1.6,
        and the truncated domain shows: 2.4e-2 at t = 2 and 4.5e-2 at t = 4."""
        m, c0 = 4.0, 4.0
        grid = fpsolve.log_grid(m, c0, 2000)
        bump = fpsolve.bump_density(grid, 3.0 * c0 / m)
        times = [0.5, 1.0, 2.0, 4.0]
        stats = {}
        snaps = fpsolve.evolve(bump, m, c0, 4.0, snapshot_times=times, stats=stats)
        assert stats["backward_euler_steps"] == 1
        expected = moment_recurrence(m, c0, (bump.mean(), second_moment(bump)), times,
                                     stats["interval_steps"])
        for t, snap, (_, m2) in zip(times, snaps, expected):
            assert second_moment(snap) == pytest.approx(m2, rel=1e-4), t

    @pytest.mark.parametrize("m", [1.6, 4.0])
    def test_mean_beats_backward_euler_at_the_old_step(self, m):
        """Against the continuum mean, BDF2 at the default step is at least
        2x closer than backward Euler at the old default 0.1 / (M + 2), which
        is 1.6e-2 off at t = 0.5 for M = 1.6 (3.3x to 23x closer here)."""
        grid = fpsolve.log_grid(m, m, 2000)
        bump = fpsolve.bump_density(grid, 3.0)
        times = [0.5, 1.0, 2.0]
        snaps = fpsolve.evolve(bump, m, m, 2.0, snapshot_times=times)
        old = backward_euler(bump, m, m, times, 0.1 / (m + 2.0))
        for t, new, be in zip(times, snaps, old):
            exact = 1.0 + (bump.mean() - 1.0) * math.exp(-m * t)
            assert abs(new.mean() - exact) < 0.5 * abs(be.mean() - exact), t

    def test_time_error_below_backward_euler_over_random_cases(self):
        """Time error: the L1 distance to a run at dt / 32 on the same grid.
        From t = 0.5 on, BDF2 at the default step has at most 0.75x backward
        Euler's at the old default (0.54x at worst here).  Earlier, its
        backward Euler start step shows: up to 0.88x at t = 0.25 and 1.49x
        at t = 0.1, which are not asserted."""
        rng = np.random.default_rng(17)
        times = [0.1, 0.25, 0.5, 1.0, 2.0]
        for _ in range(20):
            m, c0 = rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0)
            cells, width = int(rng.integers(300, 2001)), rng.uniform(0.02, 0.3)
            grid = fpsolve.log_grid(m, c0, cells)
            bump = fpsolve.bump_density(grid, rng.uniform(0.5, 4.0) * c0 / m, width)
            dt = 0.25 / (m + 2.0)
            ref = fpsolve.evolve(bump, m, c0, 2.0, dt=dt / 32, snapshot_times=times)
            new = fpsolve.evolve(bump, m, c0, 2.0, snapshot_times=times)
            old = backward_euler(bump, m, c0, times, 0.1 / (m + 2.0))
            for t, r, a, b in zip(times, ref, new, old):
                if t >= 0.5:
                    assert (fpsolve.l1_distance(a, r)
                            <= 0.75 * fpsolve.l1_distance(b, r)), (m, c0, cells, width, t)

    def test_error_controlled_steps_against_equal_steps(self):
        """Time error: the L1 distance to equal steps at dt / 64
        (``bdf2_equal_steps``, so no reference follows the step rule), on the
        cli_sample run and random runs with 8 snapshots; tol is a tenth of
        the spatial floor.  The first interval takes the equal steps at dt
        bit for bit, and the run takes no more steps than equal steps at dt.
        At each snapshot the schedule adds at most tol to the equal-step
        error, and on the cli_sample run its error is at most the larger of
        the two.  That stricter bound failed in 12 of 300 random runs (cells
        200 to 800), by up to 9%, where steps grew while the error carried
        from the first intervals still exceeded tol.
        The distance to the scheme's steady state does not increase: to
        1e-10 on the cli_sample run (both schedules drift by about 1e-12 per
        snapshot once on it), and to tol / 100 on random runs.  Once the
        density lies closer to the steady state than its time error, grown
        steps can move it away by up to 0.0042 tol (19 of 300 random runs;
        5e-8 tol for equal steps)."""
        rng = np.random.default_rng(35)
        cases = [(1.6, 1.6, 2000, 0.1, 20.0, 3.0)] + [
            (rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0), int(rng.integers(200, 801)),
             rng.uniform(0.02, 0.3), rng.uniform(2.0, 30.0), rng.uniform(0.5, 4.0))
            for _ in range(5)]
        for i, (m, c0, cells, width, t_end, center) in enumerate(cases):
            grid = fpsolve.log_grid(m, c0, cells)
            f0 = fpsolve.bump_density(grid, center * c0 / m, width)
            times = np.linspace(t_end / 8.0, t_end, 8)
            stats = {}
            new = fpsolve.evolve(f0, m, c0, t_end, snapshot_times=times, stats=stats)
            dt = 0.25 / (m + 2.0)
            old, old_steps = bdf2_equal_steps(f0, m, c0, times, dt)
            ref, _ = bdf2_equal_steps(f0, m, c0, times, dt / 64.0)
            steady = fpsolve.GridDensity(
                grid, fpsolve._FluxOperator(grid, m, c0).steady_state(grid))
            law = fpsolve.density_on_grid(distlib.SteadyStateIPDF(m, c0), grid)
            tol = 0.1 * fpsolve.l1_distance(steady, law)
            case = (m, c0, cells, width, t_end)
            assert np.array_equal(new[0].values, old[0].values), case
            assert stats["steps"] <= old_steps, case
            to_steady = [fpsolve.l1_distance(s, steady) for s in new]
            rise = 1e-10 if i == 0 else 0.01 * tol
            assert all(b <= a + rise for a, b in zip(to_steady, to_steady[1:])), case
            for t, a, b, r in zip(times, new, old, ref):
                err, equal_err = fpsolve.l1_distance(a, r), fpsolve.l1_distance(b, r)
                assert err <= equal_err + tol, (case, t)
                if i == 0:
                    assert err <= max(equal_err, tol), t

    def test_one_solve_per_step(self, monkeypatch):
        calls = count_solves(monkeypatch)
        stats = {}
        final = cli_sample_run(stats)[-1]
        assert final.time == 20.0
        assert len(calls) == stats["steps"] == sum(stats["interval_steps"])
        assert stats["backward_euler_steps"] == 1

    def test_factors_at_most_once_per_step_and_rate(self, monkeypatch):
        keys = []

        class Recording(fpsolve._FluxOperator):
            def __init__(self, grid, M, c_value):
                super().__init__(grid, M, c_value)
                self.c_value = c_value

            def implicit_factors(self, beta):
                keys.append((beta, self.c_value))
                return super().implicit_factors(beta)

        monkeypatch.setattr(fpsolve, "_FluxOperator", Recording)
        stats = {}
        cli_sample_run(stats)
        assert len(keys) == len(set(keys)) == stats["factorisations"]

    def test_negative_bdf2_step_is_retaken_by_backward_euler(self, monkeypatch):
        """A narrow bump near the low-income edge, at a constant rate, drives
        plain BDF2 below the -1e-12 bound once on each of these grids: that
        step takes two solves, its BDF2 one and its backward Euler retake."""
        calls = count_solves(monkeypatch)
        for m, c0, cells, dt, center, times, steps in [
                (3.955, 1.831, 300, 0.0712, 0.139, [0.934, 2.13, 2.612], 40),
                (3.79, 1.966, 100, 0.0798, 0.156, [0.291, 0.582, 0.717], 39)]:
            calls.clear()
            f0 = fpsolve.bump_density(fpsolve.log_grid(m, c0, cells), center)
            stats = {}
            *snaps, final = fpsolve.evolve(f0, m, c0, 3.0, dt=dt, snapshot_times=times,
                                           stats=stats)
            assert stats["steps"] == steps and len(calls) == steps + 1, m
            assert stats["backward_euler_steps"] == 2, m    # the start step and the retake
            assert all((s.values >= 0.0).all() for s in snaps + [final])
            assert abs(final.mass() - f0.mass()) / 3.0 < 1e-10

    @pytest.mark.parametrize("times, expected, steps, backward_euler_steps", [
        ([0.5, 0.5, 1.0], [0.5, 1.0], 16, 1),
        ([1.0, 1.0], [1.0], 15, 1),
        ([0.5, 0.5 + 1e-13, 1.0], [0.5, 0.5 + 1e-13, 1.0], 17, 2),
    ], ids=["repeated-once", "repeated-at-end-once", "1e-13-apart-own-step"])
    def test_repeated_and_close_snapshot_times(self, times, expected, steps,
                                               backward_euler_steps):
        """One state per distinct output time: a repeated time gives one
        state, and a time 1e-13 after another is reached by a step of its
        own, after which the step ratio restarts backward Euler.  At
        dt = 0.25 / 3.6, 0.5 takes 8 steps and 1 takes 15."""
        grid = fpsolve.log_grid(1.6, 1.6, 200)
        f0 = fpsolve.bump_density(grid, 3.0)
        stats = {}
        snaps = fpsolve.evolve(f0, 1.6, 1.6, 1.0, snapshot_times=times, stats=stats)
        assert [s.time for s in snaps] == pytest.approx(expected, abs=1e-12)
        assert snaps[-1].time == 1.0
        assert stats["steps"] == steps
        assert stats["backward_euler_steps"] == backward_euler_steps

    @pytest.mark.parametrize("value", [math.nan, -1e-6])
    def test_nan_or_negative_density_is_a_numerical_error(self, monkeypatch, value):
        # every solve from the factors of I - beta L gives (x, info) = (value, 0)
        monkeypatch.setattr(fpsolve._FluxOperator, "implicit_factors",
                            lambda self, beta: lambda f: (np.full_like(f, value), 0))
        grid = fpsolve.log_grid(1.6, 1.6, 100)
        with pytest.raises(NumericalError):
            fpsolve.evolve(fpsolve.bump_density(grid, 2.0), 1.6, 1.6, 0.5)

    def test_zero_pivot_is_a_numerical_error(self):
        op = fpsolve._FluxOperator(fpsolve.log_grid(1.6, 1.6, 50), 1.6, 1.6)
        op.lower[:] = op.upper[:] = 0.0
        op.diag[:] = 2.0                 # I - 0.5 L is exactly zero
        with pytest.raises(NumericalError, match="zero pivot"):
            op.implicit_factors(0.5)


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
