"""The three benchmark workloads.

A workload builds its inputs from the run's seed when it is created (that is
its set-up), then runs whole cycles of the same operations.  ``cycle()``
runs one cycle, records the time spent inside the program and returns one
list of problems per operation; the output checks run outside the timed
calls.  ``finish()`` applies the checks that span a whole run and returns
the indices of the operations they fail.

Every workload reports the same end-to-end throughput.  The 2-vCPU Xeon
under KVM on which the bounds were set switches between a slow and a fast
state that differ by a third (a fixed Python loop takes 10-16 ms in one and
6-9 ms in the other; steal time stays near 1%), for minutes at a time, more
than any bound a comparison between two sets of runs can use.  So after every cycle the run
times a fixed gauge, a loop of the same kind of work as the workload written
without the program, and reports operations per gauge time: operations per
second times the median gauge time, both from the same run.  The gauge is
not program code, so every change to the program shows in full.  ``UNIT``
converts one operation into the workload's own unit of work for the printed
summary.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from incomedyn import cli, estimate, simulate, survey

import oracles

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
SAMPLE = ROOT / "sample_data"

# criterion-1 parameters
M_STAR = C_STAR = 1.6
DT = 1e-3
# criterion-6 rounds: 20 bands, 10^6 households, starvation offset 0.15
EDGES20 = np.concatenate([[0.0], np.geomspace(0.25, 8.0, 19), [np.inf]])
FIT_TRUTH = (1.6, 1.6, 0.15)
MONOD_TRUTH = (0.4, 0.5)     # cereal curve s = V y / (K + y), criterion 6's (V, K)
HOUSEHOLDS = 10**6
CHUNK = 32768            # agents per chunk of the numpy gauge and the layer metrics


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def equilibrium_sample(n: int, seed: int) -> np.ndarray:
    """n draws from the criterion-1 stationary law, made by the benchmark."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    return C_STAR / rng.gamma(M_STAR + 1.0, 1.0, size=n)


def langevin_params() -> simulate.LangevinParams:
    return simulate.LangevinParams(M=M_STAR, labour_rate=C_STAR, dt=DT,
                                   noise_scale=math.sqrt(2.0))


def python_gauge() -> float:
    """Seconds for 10^5 Python square-root additions."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(100_000):
        total += math.sqrt(i)
    return time.perf_counter() - t0


def numpy_gauge() -> float:
    """Seconds for 20 Euler steps of one 32768-agent chunk in numpy alone:
    the ensemble's kind of work without the program."""
    t0 = time.perf_counter()
    gen = np.random.Generator(np.random.SFC64(0))
    y = np.ones(CHUNK)
    for _ in range(20):
        xi = gen.standard_normal(CHUNK)
        xi *= 0.04
        xi += 0.998
        y *= xi
        y += 0.0016
        y.min()
    return time.perf_counter() - t0


class Workload:
    """What the three workloads share: the run loop and the throughput."""

    OPS_PER_CYCLE = 1
    UNIT = (1, "ops/s")     # (work per operation, unit of work per second)
    GAUGE = staticmethod(python_gauge)

    def __init__(self):
        self.cycle_times = []
        self.gauge_times = []

    def run(self, seconds: float) -> list:
        """Whole cycles until ``seconds`` have passed, each followed by the
        gauge; returns one problem list per operation."""
        results = []
        deadline = time.perf_counter() + seconds
        while True:
            results.extend(self.cycle())
            self.gauge_times.append(self.GAUGE())
            if time.perf_counter() >= deadline:
                break
        for i in self.finish():
            results[i].append("fails a check over the whole run")
        return results

    def ops_per_s(self) -> float:
        return self.OPS_PER_CYCLE / statistics.median(self.cycle_times)

    def ops_per_gauge(self) -> float:
        return self.ops_per_s() * statistics.median(self.gauge_times)

    def finish(self) -> set:
        return set()

    def close(self) -> None:
        pass


class Ensemble(Workload):
    """simulate.run_steps on 10^5 agents at the criterion-1 parameters.

    Each operation advances the ensemble STEPS steps from where the previous
    one ended, so a run is a piece of the criterion-1 trajectory.
    """

    name = "ensemble"
    AGENTS = 100_000
    STEPS = 500
    UNIT = (AGENTS * STEPS, "agent-steps/s")
    GAUGE = staticmethod(numpy_gauge)

    def __init__(self, seed: int):
        super().__init__()
        self.workers = nproc()
        self.params = langevin_params()
        self.pop = simulate.AgentPopulation(
            incomes=equilibrium_sample(self.AGENTS, seed), time=0.0, seed=seed)

    def cycle(self) -> list:
        t0 = time.perf_counter()
        self.pop = simulate.run_steps(self.pop, self.params, self.STEPS,
                                      workers=self.workers)[-1]
        self.cycle_times.append(time.perf_counter() - t0)
        return [oracles.check_ensemble(self.pop.incomes, M_STAR, C_STAR)]


class FitRounds(Workload):
    """Round fits on fresh criterion-6 rounds: estimate.fit_ipdf, one
    fixed-offset (2 parameters) and one fitted-offset (3 parameters) per
    cycle, each followed by estimate.fit_monod on the same round."""

    name = "fit_rounds"
    OPS_PER_CYCLE = 2
    UNIT = (1, "rounds/s")

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed
        self.probs = oracles.band_probabilities(EDGES20, *FIT_TRUTH)
        self.means = oracles.band_means(EDGES20, *FIT_TRUTH)
        self.index = 0
        self.lr_stats = []

    def make_round(self, i: int) -> tuple:
        """Round i of this seed: multinomial band counts of 10^6 households
        drawn from the exact band probabilities, exact band means, cereal
        spending on the exact consumption curve."""
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 1, i)))
        shares = rng.multinomial(HOUSEHOLDS, self.probs) / HOUSEHOLDS
        v, k_half = MONOD_TRUTH
        bands = tuple(survey.Band(EDGES20[k], EDGES20[k + 1], shares[k], self.means[k],
                                  v * self.means[k] / (k_half + self.means[k]))
                      for k in range(shares.size))
        return shares, survey.BandedDistribution(f"r{i}", 2000.0, bands)

    def cycle(self) -> list:
        results = []
        pair = 0.0
        for fix, n_params in ((FIT_TRUTH[2], 2), (None, 3)):
            shares, rnd = self.make_round(self.index)
            self.index += 1
            t0 = time.perf_counter()
            fit = estimate.fit_ipdf(rnd, fix_offset=fix)
            monod = estimate.fit_monod(rnd)
            pair += time.perf_counter() - t0
            problems, lr = oracles.check_fit(fit, shares, EDGES20, FIT_TRUTH,
                                             HOUSEHOLDS)
            problems += oracles.check_monod(monod, MONOD_TRUTH)
            self.lr_stats.append((lr, oracles.lr_quantile(n_params)))
            results.append(problems)
        self.cycle_times.append(pair)
        return results

    def finish(self) -> set:
        return oracles.lr_share_failures(self.lr_stats)


def cli_commands(seed: int) -> dict:
    """The seven commands at the README's example settings; simulate at
    criterion 11's size.  ``settings`` holds what the output checks need.

    The sample paths are relative to the working directory, the checkout's
    root when run as documented, so the manifests (which record them) and
    the bytes a pass writes do not depend on where the checkout lies."""
    rounds = os.path.relpath(SAMPLE / "rounds.csv")
    deflators = os.path.relpath(SAMPLE / "deflators.csv")
    common = ["--seed", str(seed), "--quiet"]
    argv = {
        "simulate": ["simulate", "--agents", "20000", "--t-end", "0.5", "--dt", "5e-3"],
        "collapse": ["collapse", "--rounds", rounds, "--deflators", deflators],
        "fit": ["fit", "--rounds", rounds, "--deflators", deflators,
                "--collapse-to", "1.0"],
        "indices": ["indices", "--rounds", rounds, "--deflators", deflators,
                    "--line", "40", "--fix-offset", "8"],
        "evolve": ["evolve", "--M", "1.6", "--C0", "1.6", "--t-end", "20"],
        "synth": ["synth", "--n", "1000000", "--M", "1.6", "--C0", "1.6",
                  "--offset", "0.15", "--V", "0.4", "--K", "0.5"],
        "modes": ["modes", "--M", "1.6", "--C0", "1.6", "--n-max", "2"],
    }
    settings = {
        "collapse": {"M": 1.6, "offset_frac": 0.15, "reference_mean": 64.84},
        "evolve": {"M": 1.6, "C0": 1.6, "cells": 2000},
        "modes": {"M": 1.6, "C0": 1.6, "n_max": 2, "grid_points": 1500},
    }
    return {name: (args + common, settings.get(name, {})) for name, args in argv.items()}


def read_tree(path: Path) -> dict:
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


class CliSample(Workload):
    """cli.main in-process for all seven commands, one pass per cycle.

    Each pass writes a fresh tree under perfbench/results/; it must be byte
    identical to the previous pass's tree.
    """

    name = "cli_sample"
    OPS_PER_CYCLE = 7
    UNIT = (1, "commands/s")

    def __init__(self, seed: int):
        super().__init__()
        self.commands = cli_commands(seed)
        RESULTS.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=RESULTS))
        self.passes = 0
        self.command_times = {name: [] for name in self.commands}
        self.previous = None

    def run_pass(self, out: Path) -> tuple:
        """One pass of the seven commands; returns (exit codes, seconds)."""
        codes, total = {}, 0.0
        for name, (argv, _) in self.commands.items():
            t0 = time.perf_counter()
            try:
                codes[name] = cli.main(argv + ["--out-dir", str(out / name)])
            except SystemExit as exc:      # argparse rejected the arguments
                codes[name] = exc.code
            dt = time.perf_counter() - t0
            self.command_times[name].append(dt)
            total += dt
        return codes, total

    def cycle(self) -> list:
        out = self.tmp / f"pass{self.passes}"
        codes, total = self.run_pass(out)
        self.cycle_times.append(total)
        results = []
        trees = {}
        for name, (_, settings) in self.commands.items():
            problems = oracles.check_cli(name, out / name, codes[name], settings)
            trees[name] = read_tree(out / name)
            if self.previous is not None and trees[name] != self.previous[name]:
                problems.append("output differs from the previous pass")
            results.append(problems)
        if self.previous is not None:
            shutil.rmtree(self.tmp / f"pass{self.passes - 1}")
        self.previous = trees
        self.passes += 1
        return results

    def bytes_written(self) -> int:
        return sum(len(b) for tree in self.previous.values() for b in tree.values())

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Ensemble, FitRounds, CliSample)}
