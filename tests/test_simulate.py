"""Tests for the agent-based integrator.

Oracles: the deterministic ODE limit (sigma = 0), one-step moment
conditions checked by Monte Carlo against the drift/diffusion coefficients,
the exact mean and second moment of the discrete Euler chain (they depend
only on E xi = 0 and E xi^2 = 1, so they hold for any increment law), the
closed-form stationary law for equilibrium, the finite-volume solver for the
transient mean, inverse-CDF Pareto samples for the Hill estimator, and the
default-sigma chain in rescaled time for any other sigma.
"""

import math
import re

import numpy as np
import pytest

from incomedyn import distlib, fpsolve, simulate
from incomedyn.errors import DomainError, NumericalError

DIST = distlib.SteadyStateIPDF(1.6, 1.6)


def state_key(state):
    """An SFC64 state as plain lists, so that two can be compared."""
    return state["state"]["state"].tolist(), state["has_uint32"], state["uinteger"]


def stream_states(pop):
    return [state_key(s) for s in pop.rng_states]


def make_params(**kw):
    base = dict(M=1.6, labour_rate=1.6, dt=2e-3)
    base.update(kw)
    return simulate.LangevinParams(**base)


class TestValidation:
    def test_stability_guards(self):
        with pytest.raises(DomainError):
            simulate.LangevinParams(M=1.6, labour_rate=1.6, dt=0.05)
        with pytest.raises(DomainError):
            simulate.LangevinParams(M=1.6, labour_rate=1.6, dt=0.03,
                                    noise_scale=2.0)
        with pytest.raises(DomainError):
            simulate.LangevinParams(M=-1.0, labour_rate=1.6, dt=1e-3)
        with pytest.raises(DomainError):
            simulate.LangevinParams(M=1.6, labour_rate=0.0, dt=1e-3)

    def test_empty_population(self):
        with pytest.raises(DomainError):
            simulate.init_population(0, 1.0, seed=1)
        with pytest.raises(DomainError):
            simulate.run(0, make_params(), 1.0, 1.0, seed=1)

    def test_step_count_is_bounded_before_any_agent_is_drawn(self, monkeypatch):
        # t_end / dt past MAX_STEPS, or past the float range, is refused
        # before init_population; MAX_STEPS steps themselves run
        assert simulate.MAX_STEPS >= 2000 * 50_000
        monkeypatch.setattr(simulate, "MAX_STEPS", 10)
        assert simulate.run(4, make_params(), 10 * 2e-3, 1.0, seed=1)[-1].step_index == 10

        def no_draw(*args):
            raise AssertionError("agents drawn before the step count was checked")
        monkeypatch.setattr(simulate, "init_population", no_draw)
        for t_end, dt in ((11 * 2e-3, 2e-3), (1.7e308, 5e-324), (50.0, 5e-324)):
            with pytest.raises(DomainError, match="steps, more than"):
                simulate.run(4, make_params(dt=dt), t_end, 1.0, seed=1)


class TestDeterministicLimit:
    def test_zero_noise_fixed_point(self):
        params = make_params(noise_scale=0.0, dt=0.01)
        pop = simulate.run(4, params, 30.0, 5.0, seed=0)[-1]
        assert np.allclose(pop.incomes, 1.0, rtol=1e-10)

    def test_zero_noise_matches_ode_solution(self):
        # y(t) = C/M + (y0 - C/M) exp(-M t), discretized first order in dt
        params = make_params(noise_scale=0.0, dt=1e-3)
        pop = simulate.run(1, params, 2.0, 3.0, seed=0)[-1]
        exact = 1.0 + 2.0 * math.exp(-1.6 * 2.0)
        assert pop.incomes[0] == pytest.approx(exact, rel=2e-3)


class TestDeterminism:
    def test_worker_count_invariance(self, monkeypatch):
        # threads are capped by the CPU count; claim eight so that any host runs them
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        params = make_params()
        runs = {w: simulate.run(70_000, params, 0.05, 1.0, seed=3, workers=w)[-1]
                for w in (1, 2, 4, 8)}
        # 70,000 agents make three chunks, so 2, 4 and 8 workers run threads
        assert len(runs[1].rng_states) == 3
        for w in (2, 4, 8):
            assert np.array_equal(runs[1].incomes, runs[w].incomes), w
            assert stream_states(runs[1]) == stream_states(runs[w]), w

    def test_same_seed_bit_identical(self):
        params = make_params()
        a = simulate.run(5_000, params, 0.1, 1.0, seed=9)[-1]
        b = simulate.run(5_000, params, 0.1, 1.0, seed=9)[-1]
        assert np.array_equal(a.incomes, b.incomes)
        c = simulate.run(5_000, params, 0.1, 1.0, seed=10)[-1]
        assert not np.array_equal(a.incomes, c.incomes)

    def test_step_equals_run(self):
        params = make_params()
        pop0 = simulate.init_population(1_000, 1.0, seed=5)
        # the second step resumes from the RNG states the first returned;
        # blocks restart at an output step, so this is a run with one at step 1
        once = simulate.run_steps(pop0, params, 1)[0]
        via_step = simulate.run_steps(once, params, 1)[0]
        via_run = simulate.run_steps(pop0, params, 2, snapshot_steps=[1])[-1]
        assert np.array_equal(via_step.incomes, via_run.incomes)
        assert stream_states(via_step) == stream_states(via_run)
        assert via_step.step_index == 2

    def test_segment_length_leaves_every_path_unchanged(self, monkeypatch):
        # segments restart at each output step and are whole blocks of
        # sixteen steps, so their length changes no income and no stream
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        pop0 = simulate.init_population(simulate.CHUNK_SIZE + 5, DIST, seed=8)
        runs = []
        for every in (16, 4096):
            monkeypatch.setattr(simulate, "_FINITE_CHECK_EVERY", every)
            runs.append(simulate.run_steps(pop0, make_params(), 5003,
                                           snapshot_steps=[1000, 1001], workers=2))
        short, long = runs
        assert [p.step_index for p in long] == [1000, 1001, 5003]
        for a, b in zip(short, long, strict=True):
            assert a.incomes.tobytes() == b.incomes.tobytes()
            assert stream_states(a) == stream_states(b)

    def test_two_blocks_equal_one_run(self):
        # sixteen steps, then sixteen more from the returned streams, are one 32-step run
        params = make_params()
        pop0 = simulate.init_population(1_000, DIST, seed=6)
        once = simulate.run_steps(pop0, params, 16)[-1]
        twice = simulate.run_steps(once, params, 16)[-1]
        whole = simulate.run_steps(pop0, params, 32)[-1]
        assert np.array_equal(twice.incomes, whole.incomes)
        assert stream_states(twice) == stream_states(whole)
        # a snapshot sixteen steps in leaves the blocks aligned
        snapped = simulate.run_steps(pop0, params, 32, snapshot_steps=[16])[-1]
        assert np.array_equal(snapped.incomes, whole.incomes)
        assert stream_states(snapped) == stream_states(whole)

    def test_stream_ids_follow_chunks(self):
        # agents [0, n // 2) draw from stream 0 and the rest from stream 1
        n = simulate.CHUNK_SIZE + 10
        pop = simulate.init_population(n, 1.0, seed=0)
        assert np.diff(simulate._chunk_bounds(n)).tolist() == [n // 2, n - n // 2]
        assert len(pop.rng_states) == 2

    def test_chunks_are_balanced(self):
        # ceil(n / CHUNK_SIZE) streams whose sizes depend only on n and
        # differ by at most one agent
        for n in (1, 1000, simulate.CHUNK_SIZE, simulate.CHUNK_SIZE + 1, 100_000, 300_001):
            sizes = np.diff(simulate._chunk_bounds(n))
            assert len(simulate.init_population(n, 1.0, seed=0).rng_states) == sizes.size
            assert len(simulate.init_population(n, DIST, seed=8).rng_states) == sizes.size
            assert sizes.sum() == n
            assert sizes.size == math.ceil(n / simulate.CHUNK_SIZE), n
            assert sizes.max() - sizes.min() <= 1, n
        # 100,000 agents: four streams of 25,000; the first stream alone
        # carries the first 25,000 agents along the same paths
        pop = simulate.init_population(100_000, DIST, seed=3)
        assert np.diff(simulate._chunk_bounds(100_000)).tolist() == [25_000] * 4
        params = make_params()
        full = simulate.run_steps(pop, params, 5)[-1]
        head = simulate.AgentPopulation(incomes=pop.incomes[:25_000], time=0.0, seed=3,
                                        rng_states=pop.rng_states[:1])
        assert np.array_equal(simulate.run_steps(head, params, 5)[-1].incomes,
                              full.incomes[:25_000])


class TestStepMoments:
    def test_one_step_drift_and_diffusion(self):
        # conditional moments of one step must match the generator:
        # E[dy] = (C - M y) dt, Var[dy] = sigma^2 y^2 dt with sigma^2 = 2
        params = make_params(dt=1e-3)
        n = 10**6
        for i, y0 in enumerate((0.5, 1.0, 3.0)):
            pop = simulate.init_population(n, y0, seed=100 + i)
            nxt = simulate.run_steps(pop, params, 1)[0]
            dy = nxt.incomes - y0
            drift_exact = (1.6 - 1.6 * y0) * params.dt
            var_exact = 2.0 * y0**2 * params.dt
            se_mean = math.sqrt(var_exact / n)
            assert abs(dy.mean() - drift_exact) < 4 * se_mean
            assert dy.var() == pytest.approx(var_exact, rel=0.01)

    def test_one_step_lands_on_two_points(self):
        # two-point increments: y0 (1 - M dt +- sigma sqrt(dt)) + C dt, each
        # with probability 1/2
        params = make_params(dt=1e-3)
        n, y0 = 10**5, 2.0
        nxt = simulate.run_steps(simulate.init_population(n, y0, seed=4), params, 1)[0]
        decay, kick = 1.0 - 1.6 * params.dt, math.sqrt(2.0) * math.sqrt(params.dt)
        values, counts = np.unique(nxt.incomes, return_counts=True)
        assert values.tolist() == pytest.approx(
            [y0 * (decay - kick) + 1.6 * params.dt, y0 * (decay + kick) + 1.6 * params.dt],
            rel=1e-14)
        assert abs(counts[1] / n - 0.5) < 4 * 0.5 / math.sqrt(n)

    def test_positivity_preserved(self):
        params = make_params()
        pops = simulate.run(20_000, params, 1.0, 0.01, seed=2,
                            snapshot_times=[0.25, 0.5, 1.0])
        for pop in pops:
            assert pop.incomes.min() > 0.0


def explicit_steps(y, params, xi_rows):
    """The weak Euler steps taken one at a time, one row of increments per step."""
    y = np.array(y, dtype=float)
    kick = math.sqrt(params.noise_scale ** 2 * params.dt)
    for xi in xi_rows:
        y = y * (1.0 - params.M * params.dt + kick * xi) + params.labour_rate * params.dt
    return y


def bit_signs(words, bit):
    return np.where((words >> bit) & 1, 1.0, -1.0)


class TestEightStepBlocks:
    """Eight steps run as one block of the one block path: the low byte of
    word a of the chunk's draw drives agent a, and its bit i the increment
    of step i.  Oracle: the same eight weak Euler steps taken one at a time."""

    Y0 = (1e-3, 1.0, 37.0, 1e6)

    @pytest.mark.parametrize("rate", [1.6, 0.05])
    def test_block_equals_eight_explicit_steps(self, rate):
        params = make_params(labour_rate=rate)
        n = 2**14
        pop = simulate.AgentPopulation(incomes=np.resize(self.Y0, n), time=0.25, seed=2)
        bitgen = np.random.SFC64()
        bitgen.state = pop.rng_states[0]
        b = bitgen.random_raw(n // 4).astype("<u8").view("<u2") & 0xFF
        # every low byte meets every starting income
        for i in range(len(self.Y0)):
            assert np.unique(b[i::len(self.Y0)]).size == 256
        y = explicit_steps(pop.incomes, params, (bit_signs(b, i) for i in range(8)))
        got = simulate.run_steps(pop, params, 8)[-1].incomes
        np.testing.assert_allclose(got, y, rtol=4e-15, atol=0.0)


class TestSixteenStepBlocks:
    """Up to sixteen steps run as one affine map per random 16-bit word:
    word a of the chunk's draw drives agent a, and bit i of its low r bits
    the increment of step i of an r-step block.  Sixteen-step blocks run
    first, then one block of the n mod 16 steps left.  Oracle: the same weak
    Euler steps taken one at a time, from the same stream."""

    Y0 = TestEightStepBlocks.Y0

    def test_tables_equal_sixteen_explicit_steps_for_every_word(self):
        params = make_params()
        p, s = tables = simulate._step_tables(params)
        assert p.size == s.size == 2**17
        # one read-only set of tables serves every call with equal parameters
        assert simulate._step_tables(make_params()) is tables
        assert not (p.flags.writeable or s.flags.writeable)
        words = np.arange(2**16)
        for y0 in self.Y0:
            y = explicit_steps(np.full(words.size, y0), params,
                               (bit_signs(words, i) for i in range(16)))
            np.testing.assert_allclose(p[2**16:] * y0 + s[2**16:], y, rtol=4e-15, atol=0.0)

    @pytest.mark.parametrize("rate", [1.6, 0.05])
    def test_tables_equal_explicit_steps_for_every_width_and_word(self, rate):
        params = make_params(labour_rate=rate)
        p, s = simulate._step_tables(params)
        for r in range(1, 17):
            words = np.arange(2**r)
            row = slice(2**r, 2**(r + 1))
            for y0 in self.Y0:
                y = explicit_steps(np.full(words.size, y0), params,
                                   (bit_signs(words, i) for i in range(r)))
                np.testing.assert_allclose(p[row] * y0 + s[row], y, rtol=4e-15, atol=0.0)

    @pytest.mark.parametrize("n_steps", [1, 4, 8, 15, 36, 40, 44, 47])
    def test_blocks_and_leftover_steps_equal_explicit_steps(self, n_steps):
        params = make_params()
        n = 1000
        pop = simulate.AgentPopulation(incomes=np.resize(self.Y0, n), time=0.25, seed=4)
        bitgen = np.random.SFC64()
        bitgen.state = pop.rng_states[0]
        rows = []
        # n // 16 sixteen-step blocks, then one block of the n mod 16 steps left
        widths = [16] * (n_steps // 16) + ([n_steps % 16] if n_steps % 16 else [])
        for width in widths:
            u = bitgen.random_raw(n // 4).astype("<u8").view("<u2")
            rows += [bit_signs(u, i) for i in range(width)]
        y = explicit_steps(pop.incomes, params, rows)
        got = simulate.run_steps(pop, params, n_steps)[-1]
        np.testing.assert_allclose(got.incomes, y, rtol=1e-14, atol=0.0)
        assert stream_states(got) == [state_key(bitgen.state)]


class TestEulerChainMoments:
    """Exact moments of y' = y (1 - M dt + sigma sqrt(dt) xi) + C dt from a
    constant start.  M = C = 4 puts the chain's tail index near M + 1 = 5, so
    the fourth moment exists and the sample second moment has a finite
    standard error."""

    M = C = 4.0
    DT = 1e-3
    Y0 = 3.0
    N = 100_000
    SNAPS = (1, 10, 100, 500, 2000)

    def exact_moments(self):
        d, c_dt, s2_dt = 1.0 - self.M * self.DT, self.C * self.DT, 2.0 * self.DT
        m1, m2, out = self.Y0, self.Y0**2, {}
        for k in range(1, max(self.SNAPS) + 1):
            m1, m2 = d * m1 + c_dt, (d * d + s2_dt) * m2 + 2.0 * d * c_dt * m1 + c_dt**2
            out[k] = (m1, m2)
        return out

    def test_mean_and_second_moment(self):
        params = simulate.LangevinParams(M=self.M, labour_rate=self.C, dt=self.DT)
        pop0 = simulate.init_population(self.N, self.Y0, seed=41)
        pops = simulate.run_steps(pop0, params, max(self.SNAPS), snapshot_steps=self.SNAPS)
        exact = self.exact_moments()
        d = 1.0 - self.M * self.DT
        for pop in pops:
            k = pop.step_index
            y = pop.incomes
            m1, m2 = exact[k]
            # closed form of the mean recursion
            assert m1 == pytest.approx(1.0 + (self.Y0 - 1.0) * d**k, rel=1e-12)
            se1 = y.std() / math.sqrt(self.N)
            se2 = (y * y).std() / math.sqrt(self.N)
            assert abs(y.mean() - m1) < 4 * se1, (k, y.mean(), m1)
            assert abs((y * y).mean() - m2) < 4 * se2, (k, (y * y).mean(), m2)


class TestEquilibrium:
    def test_ks_against_closed_form(self):
        params = make_params(dt=2e-3)
        pop = simulate.run(20_000, params, 30.0, 1.0, seed=17, workers=2)[-1]
        ks = simulate.ks_distance(pop.incomes, lambda y: distlib.ipdf_cdf(DIST, y))
        assert ks < 0.01

    def test_stationarity_from_equilibrium_start(self):
        params = make_params(dt=2e-3)
        n = 20_000
        pops = simulate.run(n, params, 5.0, DIST, seed=23, snapshot_times=[5.0])
        pop0 = simulate.init_population(n, DIST, seed=23)
        cdf = lambda y: distlib.ipdf_cdf(DIST, y)
        ks0 = simulate.ks_distance(pop0.incomes, cdf)
        ks1 = simulate.ks_distance(pops[-1].incomes, cdf)
        # stationarity: no systematic drift beyond sampling noise
        assert ks1 < ks0 + 1.0 / math.sqrt(n)
        assert ks1 < 0.015

    def test_mean_decay_matches_fp_solver(self):
        # all agents start at 5x the stationary mean; the ensemble mean obeys
        # m' = C - M m exactly, and must track the evolved density's mean
        params = make_params(dt=2e-3)
        n = 20_000
        # unsorted and with a repeat: both integrators give one state per
        # distinct time, in time order, the last at t_end
        times = [2.0, 0.5, 1.0, 0.5]
        pops = simulate.run(n, params, 3.0, 5.0, seed=31, snapshot_times=times)
        grid = fpsolve.log_grid(1.6, 1.6, 1500, span=(1e-3, 3e3))
        f0 = fpsolve.bump_density(grid, 5.0, rel_width=0.01)
        snaps = fpsolve.evolve(f0, 1.6, 1.6, 3.0, snapshot_times=times)
        assert [p.time for p in pops] == pytest.approx([s.time for s in snaps], abs=1e-12)
        assert [s.time for s in snaps] == [0.5, 1.0, 2.0, 3.0]
        means = [p.incomes.mean() for p in pops]
        assert all(b < a for a, b in zip(means, means[1:]))
        for pop, snap in zip(pops, snaps):
            sim_mean = pop.incomes.mean()
            fp_mean = snap.mean()
            se = pop.incomes.std() / math.sqrt(n)
            assert abs(sim_mean - fp_mean) < 4 * se + 0.01, (pop.time, sim_mean, fp_mean)

    def test_snapshots_empty_returns_final_only(self):
        params = make_params()
        pops = simulate.run(500, params, 0.1, 1.0, seed=1)
        assert len(pops) == 1
        assert pops[0].time == pytest.approx(0.1, abs=params.dt)

    def test_snapshot_time_below_the_first_step_is_rounded_up(self):
        # 1e-15 is below 1e-9 dt, the rounding slack, and still gets step 1
        pops = simulate.run(1000, make_params(dt=1e-3), 0.01, 1.0, seed=0,
                            snapshot_times=[1e-15, 0.005])
        assert [p.step_index for p in pops] == [1, 5, 10]
        assert [p.time for p in pops] == pytest.approx([0.001, 0.005, 0.01], abs=1e-15)

    def test_snapshot_step_outside_the_run_is_a_domain_error(self):
        pop = simulate.init_population(100, 1.0, seed=0)
        for steps in ([0], [20], [-3], [0, 20, -3, 5]):
            with pytest.raises(DomainError, match="snapshot steps"):
                simulate.run_steps(pop, make_params(), 10, snapshot_steps=steps)
        pops = simulate.run_steps(pop, make_params(), 10, snapshot_steps=[10, 1, 10])
        assert [p.step_index for p in pops] == [1, 10]


class TestTimeUnit:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_other_sigma_is_the_default_chain_in_rescaled_time(self, sigma):
        # exact oracle: with s = sigma^2 / 2 the step y (1 - M dt + sigma
        # sqrt(dt) xi) + C dt is the default-sigma step at (M/s, C/s, s dt),
        # so sigma^2 = 2 only fixes the time unit
        s = sigma ** 2 / 2.0
        a = simulate.run(10_000, make_params(noise_scale=sigma), 1.0, 2.0, seed=3)[-1]
        b = simulate.run(10_000, make_params(M=1.6 / s, labour_rate=1.6 / s, dt=2e-3 * s),
                         s * 1.0, 2.0, seed=3)[-1]
        assert b.step_index == a.step_index == 500
        np.testing.assert_allclose(b.incomes, a.incomes, rtol=1e-12, atol=0.0)


class TestNanDetection:
    def test_nonfinite_aborts_with_diagnostic(self):
        params = make_params()
        bad = simulate.AgentPopulation(
            incomes=np.array([1.0, math.nan, 2.0]), time=0.0, seed=0)
        with pytest.raises(NumericalError):
            simulate.run_steps(bad, params, 1)

    def test_overflow_aborts_before_a_snapshot_is_returned(self):
        # 1.79e308 times the upper multiplier 1 - M dt + sigma sqrt(dt) > 1.005
        # overflows; every returned population has passed the finite check
        big = simulate.AgentPopulation(incomes=np.full(64, 1.79e308), time=0.0, seed=0)
        with pytest.raises(NumericalError), np.errstate(over="ignore"):
            simulate.run_steps(big, make_params(), 1)
        # and so it is when eight or sixteen steps run as one block, and in threads
        two_chunks = simulate.AgentPopulation(
            incomes=np.full(simulate.CHUNK_SIZE + 1, 1.79e308), time=0.0, seed=0)
        for n_steps in (8, 16):
            with pytest.raises(NumericalError), np.errstate(over="ignore"):
                simulate.run_steps(big, make_params(), n_steps)
            with pytest.raises(NumericalError):
                simulate.run_steps(two_chunks, make_params(), n_steps, workers=2)

    def test_overflow_is_caught_after_one_segment(self):
        # a run three segments long stops at the first check after the
        # overflow, at the end of the first segment, not at its end
        params, every = make_params(), simulate._FINITE_CHECK_EVERY
        big = simulate.AgentPopulation(incomes=np.full(64, 1.79e308), time=0.0, seed=0)
        with pytest.raises(NumericalError, match=re.escape(f"t={every * params.dt:g} ")):
            simulate.run_steps(big, params, 3 * every)

    def test_nonpositive_income_is_a_domain_error(self):
        for value in (0.0, -1.0):
            bad = simulate.AgentPopulation(
                incomes=np.array([1.0, value, 2.0]), time=0.0, seed=0)
            with pytest.raises(DomainError):
                simulate.run_steps(bad, make_params(), 1)


class TestHill:
    def test_exact_pareto_oracle(self):
        # inverse-CDF Pareto with density exponent 3.6: y = (1-u)^(-1/2.6)
        rng = np.random.default_rng(42)
        u = rng.uniform(0.0, 1.0, size=10**5)
        y = (1.0 - u) ** (-1.0 / 2.6)
        est = simulate.hill_tail_exponent(y, tail_fraction=0.05)
        assert est == pytest.approx(3.6, abs=0.1)

    def test_simulated_equilibrium_finite_threshold_bias(self):
        # the stationary law reaches its asymptotic power law slowly: at a 5%
        # threshold the local survival index is well below M+1, so the Hill
        # reading sits near 3.29 rather than M+2 = 3.6, tightening as the
        # tail fraction shrinks
        y = distlib.ipdf_sample(DIST, 2 * 10**6, seed=7)
        est5 = simulate.hill_tail_exponent(y, tail_fraction=0.05)
        est05 = simulate.hill_tail_exponent(y, tail_fraction=0.005)
        est01 = simulate.hill_tail_exponent(y, tail_fraction=0.001)
        assert est5 == pytest.approx(3.29, abs=0.05)
        assert est5 < est05 < est01
        assert est01 == pytest.approx(3.6, abs=0.1)

    def test_exponential_has_no_plateau(self):
        rng = np.random.default_rng(3)
        y = rng.exponential(1.0, size=10**6)
        ests = [simulate.hill_tail_exponent(y, f) for f in (0.05, 0.01, 0.002)]
        assert ests[0] < ests[1] < ests[2]
        assert ests[2] > ests[0] * 1.5

    def test_too_few_tail_samples(self):
        with pytest.raises(DomainError):
            simulate.hill_tail_exponent(np.ones(500) + np.arange(500), 0.05)

    def test_tail_with_no_spread_is_a_numerical_error(self):
        # equal top incomes make the mean log excess 0: no finite estimate
        with pytest.raises(NumericalError, match="top k=200 incomes are equal"):
            simulate.hill_tail_exponent(np.full(4000, 2.0), 0.05)


class TestKS:
    def test_ks_distance_basics(self):
        x = np.linspace(0.01, 0.99, 99)
        ks = simulate.ks_distance(x, lambda v: v)
        assert ks < 0.02
        assert simulate.ks_distance(np.array([10.0]), lambda v: np.clip(v, 0, 1)) == 1.0


# refusals that no other test reaches, each with its documented error class;
# no input warns (the suite makes a RuntimeWarning an error)
REFUSALS = {
    "dt not positive": (lambda: make_params(dt=0.0), DomainError, "dt must be > 0"),
    "negative noise": (lambda: make_params(noise_scale=-1.0), DomainError,
                       "noise_scale must be >= 0"),
    "dt sigma^2 too large": (lambda: make_params(dt=0.01, noise_scale=3.0), DomainError,
                             r"dt \* sigma\^2 = 0.09 >= 0.05"),
    "no steps": (lambda: simulate.run_steps(simulate.init_population(10, 1.0, 0),
                                            make_params(), 0),
                 DomainError, "n_steps must be >= 1"),
    "empty population": (lambda: simulate.run_steps(
        simulate.AgentPopulation(np.empty(0), 0.0, 0), make_params(), 1),
        DomainError, "cannot step an empty population"),
    "constant start at 0": (lambda: simulate.init_population(10, 0.0, 0), DomainError,
                            "constant initial income must be > 0"),
    "infinite t_end": (lambda: simulate.run(10, make_params(), math.inf, 1.0, 0),
                       DomainError, "t_end must be finite and > 0"),
    "empty KS sample": (lambda: simulate.ks_distance(np.empty(0), lambda v: v),
                        DomainError, "nonempty sample"),
    "tail fraction 1": (lambda: simulate.hill_tail_size(10**4, 1.0), DomainError,
                        r"tail_fraction must be in \(0, 1\)"),
    "Hill on a zero income": (lambda: simulate.hill_tail_exponent(
        np.append(np.arange(1.0, 4000.0), 0.0), 0.05),
        DomainError, "incomes must be positive"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
