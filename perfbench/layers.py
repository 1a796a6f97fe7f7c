"""Per-layer metrics: each layer's public functions timed directly, and the
counts and self times of one traced pass over fixed inputs.

The inputs here do not depend on the run's seed, so the counts repeat
exactly between any two runs of the same code.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from incomedyn import distlib, estimate, fpsolve, poverty, simulate, survey

import spans
import workloads as wl

LAYER_SEED = 20090521
CHUNK = wl.CHUNK


def per_call(fn, number: int = 1, repeat: int = 5) -> float:
    """Median over ``repeat`` timings of the seconds per call of fn()."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times)


def ensemble_layers() -> dict:
    params = wl.langevin_params()
    workers = wl.nproc()
    steps = 200
    pop = simulate.AgentPopulation(
        incomes=wl.equilibrium_sample(wl.Ensemble.AGENTS, LAYER_SEED), time=0.0,
        seed=LAYER_SEED)
    agent_steps = pop.n_agents * steps
    par, one = [], []
    for _ in range(3):      # alternate, so a change of the host's speed hits both alike
        par.append(per_call(lambda: simulate.run_steps(pop, params, steps, workers=workers),
                            repeat=1))
        one.append(per_call(lambda: simulate.run_steps(pop, params, steps, workers=1),
                            repeat=1))
    t_par, t_one = statistics.median(par), statistics.median(one)
    chunk = simulate.AgentPopulation(incomes=pop.incomes[:CHUNK], time=0.0,
                                     seed=LAYER_SEED)
    chunk_steps = 500
    t_chunk = per_call(lambda: simulate.run_steps(chunk, params, chunk_steps),
                       repeat=3)
    dist = distlib.SteadyStateIPDF(wl.M_STAR, wl.C_STAR)
    y = pop.incomes
    rng = np.random.Generator(np.random.SFC64(LAYER_SEED))
    draw = per_call(lambda: rng.standard_normal(CHUNK), number=100)
    return {
        "simulate.run_steps.ns_per_agent_step": (t_par / agent_steps * 1e9, "ns/agent-step"),
        "simulate.run_steps.one_chunk_ns_per_agent_step": (
            t_chunk / (CHUNK * chunk_steps) * 1e9, "ns/agent-step"),
        "simulate.run_steps.parallel_efficiency": (t_one / (workers * t_par), "ratio"),
        "simulate.ks_distance.ms": (per_call(lambda: simulate.ks_distance(
            y, lambda v: distlib.ipdf_cdf(dist, v))) * 1e3, "ms"),
        "simulate.hill_tail_exponent.ms": (
            per_call(lambda: simulate.hill_tail_exponent(y, 0.05)) * 1e3, "ms"),
        "distlib.ipdf_cdf.ns_per_point": (
            per_call(lambda: distlib.ipdf_cdf(dist, y)) / y.size * 1e9, "ns/point"),
        # reference floor of an ensemble step, not a layer of the program
        "reference.standard_normal.ns_per_agent": (draw / CHUNK * 1e9, "ns/agent"),
    }


def reference_round() -> tuple:
    return wl.FitRounds(LAYER_SEED).make_round(0)


def fit_layers() -> dict:
    truth = wl.FIT_TRUTH
    shares, rnd = reference_round()
    a = truth[0] + 1.0
    xs = [truth[1] / (e - truth[2]) for e in wl.EDGES20[1:-1]]

    def scalar_calls():
        for x in xs:
            distlib.reg_upper_incomplete_gamma(a, x)

    sample = survey.load_rounds(wl.SAMPLE / "rounds.csv")
    return {
        "distlib.reg_upper_incomplete_gamma.us_per_call": (
            per_call(scalar_calls, number=100) / len(xs) * 1e6, "us"),
        "estimate.band_log_likelihood.us_per_call": (
            per_call(lambda: estimate.band_log_likelihood(rnd, *truth), number=50)
            * 1e6, "us"),
        "estimate.fit_ipdf.ms_per_fit.fixed_offset": (
            per_call(lambda: estimate.fit_ipdf(rnd, fix_offset=truth[2]), repeat=3)
            * 1e3, "ms"),
        "estimate.fit_ipdf.ms_per_fit.free_offset": (
            per_call(lambda: estimate.fit_ipdf(rnd, fix_offset=None), repeat=3)
            * 1e3, "ms"),
        "estimate.fit_monod.us_per_call": (
            per_call(lambda: estimate.fit_monod(sample[0]), number=20) * 1e6, "us"),
    }


def model_layers() -> dict:
    rounds_csv = wl.SAMPLE / "rounds.csv"
    table = survey.load_deflators(wl.SAMPLE / "deflators.csv")
    rounds = [survey.deflate(r, table) for r in survey.load_rounds(rounds_csv)]
    fits = [estimate.fit_ipdf(r, fix_offset=8.0) for r in rounds]
    monods = [estimate.fit_monod(r) for r in rounds]
    dist = distlib.SteadyStateIPDF(*wl.FIT_TRUTH)
    grid = fpsolve.log_grid(1.6, 1.6, 2000)
    f0 = fpsolve.bump_density(grid, 3.0, 0.1)
    snaps = list(np.linspace(20.0 / 8.0, 20.0, 8))
    with spans.Tracer() as tracer:
        fpsolve.evolve(f0, 1.6, 1.6, 20.0, snapshot_times=snaps)
    steps = tracer.count("scipy.solve_banded")
    t_evolve = per_call(lambda: fpsolve.evolve(f0, 1.6, 1.6, 20.0, snapshot_times=snaps),
                        repeat=3)
    mode = fpsolve.eigenmode_params(1, 1.6, A1=0.0, A2=1.0, c=1.6)
    mode_grid = np.geomspace(1.6 / 600.0, 60.0 * 1.6, 1500)
    return {
        "survey.load_rounds.ms": (per_call(lambda: survey.load_rounds(rounds_csv),
                                           repeat=10) * 1e3, "ms"),
        "survey.synth_round.ms": (per_call(lambda: survey.synth_round(
            dist, wl.EDGES20, wl.HOUSEHOLDS, LAYER_SEED, (0.4, 0.5)), repeat=10)
            * 1e3, "ms"),
        "fpsolve.evolve.us_per_step": (t_evolve / steps * 1e6, "us"),
        "fpsolve.evolve.steps": (steps, "count"),
        "fpsolve.steady_state_residual.ms": (
            per_call(lambda: fpsolve.steady_state_residual(1.6, 1.6), repeat=10)
            * 1e3, "ms"),
        "fpsolve.eigenmode_eval.us_per_point": (
            per_call(lambda: fpsolve.eigenmode_eval(mode, mode_grid))
            / mode_grid.size * 1e6, "us"),
        "poverty.cd_index_model.ms": (per_call(lambda: poverty.cd_index_model(
            dist, 0.4, 0.5), repeat=10) * 1e3, "ms"),
        "poverty.index_series.ms": (per_call(lambda: poverty.index_series(
            rounds, fits, monods, 40.0)) * 1e3, "ms"),
    }


def traced_fits() -> tuple:
    """One fixed-offset and one fitted-offset fit of the reference round, traced."""
    _, rnd = reference_round()
    with spans.Tracer() as tracer:
        estimate.fit_ipdf(rnd, fix_offset=wl.FIT_TRUTH[2])
        estimate.fit_ipdf(rnd, fix_offset=None)
    fits = tracer.count("estimate.fit_ipdf")
    return tracer, {
        "estimate.fit_ipdf.evaluations_per_fit": (
            tracer.count("estimate.band_log_likelihood") / fits, "count"),
        "distlib.reg_upper_incomplete_gamma.calls_per_fit": (
            tracer.count("distlib.reg_upper_incomplete_gamma") / fits, "count"),
    }


def cli_layers() -> tuple:
    """Three untraced passes give the per-command times; three traced passes
    give the CLI's own time per pass (the median) and the bytes a pass writes."""
    work = wl.CliSample(LAYER_SEED)
    try:
        problems = [p for _ in range(3) for ops in work.cycle() for p in ops]
        out = {f"cli.{name}.ms": (statistics.median(times) * 1e3, "ms")
               for name, times in work.command_times.items()}
        self_ms = []
        for _ in range(3):
            with spans.Tracer() as tracer:
                problems += [p for ops in work.cycle() for p in ops]
            self_ms.append(tracer.self_ns("cli") / 1e6)
        out["cli.self_ms_per_pass"] = (statistics.median(self_ms), "ms")
        out["cli.bytes_written_per_pass"] = (work.bytes_written(), "bytes")
    finally:
        work.close()
    if problems:
        raise RuntimeError("CLI outputs failed their checks: " + "; ".join(problems))
    return tracer, out


def measure() -> tuple:
    """All per-layer metrics, plus the traces the counts came from."""
    metrics = {}
    metrics.update(ensemble_layers())
    metrics.update(fit_layers())
    metrics.update(model_layers())
    fit_tracer, counts = traced_fits()
    metrics.update(counts)
    cli_tracer, cli_metrics = cli_layers()
    metrics.update(cli_metrics)
    return metrics, {"fits": fit_tracer, "cli_pass": cli_tracer}
