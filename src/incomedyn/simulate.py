"""Agent-based integration of the income Langevin dynamics.

Each agent's income follows dy = (C - M y) dt + sigma y dW under the Ito
convention, with a constant labour rate C.  With sigma = sqrt(2) the
stationary law is the closed form in :mod:`incomedyn.distlib`.

Scheme: the weak Euler step y' = y (1 - M dt + sigma sqrt(dt) xi) + C dt
with two-point increments xi = +-1, each with probability 1/2.  Only
E xi = 0 and E xi^2 = 1 enter its O(dt) weak error, as with Gaussian xi
(Kloeden & Platen 1992, section 14.1; Talay & Tubaro 1990), and the chain's
mean and second moment are those of the Gaussian chain.  Its Kesten tail
index, the root of E|1 - M dt + sigma sqrt(dt) xi|^kappa = 1, is 2.59955 at
M = C = 1.6, dt = 1e-3 (2.59968 for Gaussian xi; M + 1 = 2.6 in the
continuum).  Under the dt guards the multiplier exceeds
1 - 0.1 - sqrt(0.05) > 0.67, so incomes stay above C dt with no floor.

Chunk model: ceil(n / CHUNK_SIZE) chunks whose sizes differ by at most one
agent, each with its own slice of the incomes and seeded SFC64 stream, run
in segments of at most 4096 steps.  A segment runs in blocks of sixteen
steps and one last block of the r < 16 left: per block, one random 16-bit
word per agent, with bit i for step i, picks the composed map of the block's
r steps, y -> P_r[w] y + S_r[w] for its low r bits w.  The partition depends
only on n, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from . import distlib
from .errors import DomainError, NumericalError

DEFAULT_SIGMA = math.sqrt(2.0)
CHUNK_SIZE = 32768      # largest chunk
INCREMENTS = "two_point"    # the law of xi, recorded in reports
# the most steps ``run`` takes, 2000 times criterion 1's 5e4
MAX_STEPS = 10 ** 8
_FINITE_CHECK_EVERY = 4096     # steps per segment of run_steps, a multiple of 16


@dataclass(frozen=True)
class LangevinParams:
    """Integration parameters for the income process.

    ``labour_rate`` is the positive constant C.  The guards on ``dt`` keep
    the step multiplier 1 - M dt +- sigma sqrt(dt) in (0.67, 1.23), so
    incomes stay positive.
    """

    M: float
    labour_rate: float
    dt: float
    noise_scale: float = DEFAULT_SIGMA

    def __post_init__(self):
        distlib.SteadyStateIPDF(self.M, self.labour_rate)     # the law's domain checks
        if not self.dt > 0.0:
            raise DomainError(f"dt must be > 0, got {self.dt}")
        if self.noise_scale < 0.0:
            raise DomainError(f"noise_scale must be >= 0, got {self.noise_scale}")
        # stability guards: keep the discrete chain's tail exponent near M+2
        if self.dt * (self.M + 2.0) >= 0.1:
            raise DomainError(
                f"dt * (M + 2) = {self.dt * (self.M + 2.0):g} >= 0.1; "
                f"reduce dt below {0.1 / (self.M + 2.0):g}")
        if self.dt * self.noise_scale ** 2 >= 0.05:
            raise DomainError(
                f"dt * sigma^2 = {self.dt * self.noise_scale ** 2:g} >= 0.05; "
                f"reduce dt below {0.05 / self.noise_scale ** 2:g}")


@dataclass(frozen=True)
class AgentPopulation:
    """Immutable snapshot of the ensemble plus the per-chunk RNG states."""

    incomes: np.ndarray
    time: float
    seed: int
    step_index: int = 0
    rng_states: tuple = field(default=None, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.incomes, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "incomes", arr)
        if self.rng_states is None:
            object.__setattr__(self, "rng_states", _fresh_states(self.seed, arr.size))

    @property
    def n_agents(self) -> int:
        return self.incomes.size


def _chunk_bounds(n_agents: int) -> list:
    """Edges of the ceil(n / CHUNK_SIZE) chunks, whose sizes differ by at most one."""
    k = max(1, -(-n_agents // CHUNK_SIZE))
    return [c * n_agents // k for c in range(k + 1)]


def _fresh_states(seed: int, n_agents: int) -> tuple:
    # entropy tag 1 namespaces chunk streams away from the init stream
    return tuple(np.random.SFC64(np.random.SeedSequence((seed, 1, c))).state
                 for c in range(len(_chunk_bounds(n_agents)) - 1))


def _check_finite(y: np.ndarray, t: float) -> None:
    bad = np.count_nonzero(~np.isfinite(y))
    if bad:
        raise NumericalError(f"non-finite income at t={t:g} ({bad} agents)")


@lru_cache(maxsize=1)
def _step_tables(params: LangevinParams) -> tuple:
    """(P, S), 2**17 entries each: row r = 1..16, at [2**r, 2**(r + 1)),
    composes r steps, so that an r-bit word w, bit i for step i, maps
    y -> P[2**r + w] y + S[2**r + w].  Row r + 1 is row r followed by step
    r, on the top bit.  Building them takes about 0.7 ms on a 2-vCPU Xeon,
    twenty times a one-step call on 1000 agents, so a call with the
    previous call's parameters reuses them."""
    dt = params.dt
    m = (1.0 - params.M * dt) + params.noise_scale * math.sqrt(dt) * np.array([-1.0, 1.0])
    p, s = np.ones(2 ** 17), np.zeros(2 ** 17)      # row 0, at [1, 2): no step
    for r in range(16):
        lo, hi = 1 << r, 2 << r
        np.multiply.outer(m, p[lo:hi], out=p[hi:2 * hi].reshape(2, lo))
        np.multiply.outer(m, s[lo:hi], out=s[hi:2 * hi].reshape(2, lo))
        s[hi:2 * hi] += params.labour_rate * dt
    for a in (p, s):
        a.setflags(write=False)     # shared by every chunk, thread and later call
    return p, s


@np.errstate(over="ignore")     # an overflow is refused by run_steps' finite check
def _advance_chunk(tables: tuple, steps: int, y: np.ndarray, rng_state: dict) -> dict:
    """March one chunk in place ``steps`` steps from its SFC64 state; returns
    the RNG state after them."""
    bitgen = np.random.SFC64()
    bitgen.state = rng_state
    (p, s), n, buf = tables, y.size, np.empty(y.size)
    for k in range(0, steps, 16):
        width = min(16, steps - k)
        row = slice(1 << width, 2 << width)
        # word a of the little-endian draw drives agent a, its bit i step k + i;
        # take converts a narrow index on every call, so convert it once
        u = bitgen.random_raw(-(-n // 4)).astype("<u8", copy=False).view("<u2")[:n]
        if width < 16:
            u &= (1 << width) - 1
        w = u.astype(np.intp)
        # an r-bit word indexes the 2^r entries of row r, so "wrap" moves no
        # index; it takes in 21 us where "clip" takes 22.5 and "raise" 35
        # (25,000 agents, numpy 2.4, 2-vCPU Xeon)
        np.take(p[row], w, out=buf, mode="wrap")
        y *= buf
        np.take(s[row], w, out=buf, mode="wrap")
        y += buf
    return bitgen.state


def run_steps(pop: AgentPopulation, params: LangevinParams, n_steps: int,
              snapshot_steps: Sequence[int] = (), workers: int = 1) -> list:
    """March ``n_steps`` from ``pop``; returns one state per distinct output
    time, in time order, the last at the end.  The output times are the
    snapshot steps, each in [1, n_steps] (else ``DomainError``), and n_steps.

    The starting incomes must be finite (else ``NumericalError``) and
    positive (else ``DomainError``); the scheme keeps them so.  Chunks march
    in min(workers, chunks, CPUs) threads (two raised perfbench ``ensemble``
    ops_per_gauge from 0.550 to 0.710 on a 2-vCPU Xeon, 10/10 pairs), in
    segments of at most 4096 steps that end at each output step; after each,
    an overflow, the only failure, is a ``NumericalError``, and a signal
    waits for one segment at most.  The blocks of sixteen steps restart at
    each output step, so an output step not a multiple of sixteen after the
    previous one changes the later path, though not its law.
    """
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    if pop.n_agents == 0:
        raise DomainError("cannot step an empty population")
    _check_finite(pop.incomes, pop.time)
    if not (pop.incomes > 0.0).all():
        raise DomainError("incomes must be positive")
    snap_steps = {int(s) for s in snapshot_steps}
    if not all(1 <= s <= n_steps for s in snap_steps):
        raise DomainError(f"snapshot steps must lie in [1, {n_steps}]")
    bounds, tables = _chunk_bounds(pop.n_agents), _step_tables(params)
    # one income array; each chunk steps its slice in place
    incomes, states, k0 = pop.incomes.copy(), pop.rng_states, 0
    slices = [incomes[lo:hi] for lo, hi, _ in zip(bounds[:-1], bounds[1:], states, strict=True)]
    threads, out = min(workers, len(slices), os.cpu_count() or 1), []
    with ThreadPoolExecutor(threads) as pool:      # starts a thread only when mapped
        chunk_map = pool.map if threads > 1 else map
        for k1 in sorted(snap_steps | {n_steps}):
            while k0 < k1:
                steps = min(_FINITE_CHECK_EVERY, k1 - k0)
                states = tuple(chunk_map(partial(_advance_chunk, tables, steps), slices, states))
                k0 += steps
                _check_finite(incomes, pop.time + k0 * params.dt)
            out.append(AgentPopulation(
                incomes=incomes if k1 == n_steps else incomes.copy(),
                time=pop.time + k1 * params.dt, seed=pop.seed,
                step_index=pop.step_index + k1, rng_states=states))
    return out


def init_population(n_agents: int, init, seed: int) -> AgentPopulation:
    """Create the t = 0 ensemble.

    ``init`` is either a SteadyStateIPDF (equilibrium draw) or a positive
    constant placing every agent at the same income.
    """
    if n_agents <= 0:
        raise DomainError(f"population size must be positive, got {n_agents}")
    if isinstance(init, distlib.SteadyStateIPDF):
        incomes = distlib.ipdf_sample(init, n_agents, np.random.SeedSequence((seed, 0, 0)))
    else:
        y0 = float(init)
        if not y0 > 0.0:
            raise DomainError(f"constant initial income must be > 0, got {init}")
        incomes = np.full(n_agents, y0)
    return AgentPopulation(incomes=incomes, time=0.0, seed=seed, step_index=0)


def run(n_agents: int, params: LangevinParams, t_end: float, init, seed: int,
        snapshot_times: Sequence[float] = (), workers: int = 1) -> list:
    """Simulate from t = 0 to t_end; returns one state per distinct output
    time, in time order, the last at the end.  The output times are the
    snapshot times and t_end, each rounded up to the next step boundary.
    A snapshot time that is not a multiple of sixteen steps after the
    previous output time changes the later path, though not its law.

    A run of more than ``MAX_STEPS`` = 1e8 steps, t_end / dt, is refused
    with a ``DomainError`` before any agent is drawn; so is a ratio that
    overflows.
    """
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"t_end must be finite and > 0, got {t_end}")
    if not all(0.0 < t <= t_end + 1e-9 * params.dt for t in snapshot_times):
        raise DomainError("snapshot times must lie in (0, t_end]")
    steps = t_end / params.dt       # inf when the ratio overflows
    if not steps <= MAX_STEPS:
        raise DomainError(f"t_end / dt = {steps:g} steps, more than {MAX_STEPS:g}; "
                          "raise dt or lower t_end")
    n_steps = max(1, math.ceil(steps - 1e-9))
    snap_steps = [min(n_steps, max(1, math.ceil(t / params.dt - 1e-9)))
                  for t in snapshot_times]
    pop0 = init_population(n_agents, init, seed)
    return run_steps(pop0, params, n_steps, snap_steps, workers=workers)


def ks_distance(sample: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Kolmogorov-Smirnov distance between a sample and a continuous CDF."""
    x = np.sort(np.asarray(sample, dtype=float))
    if x.size == 0:
        raise DomainError("KS distance needs a nonempty sample")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, x.size + 1, dtype=float)
    return float(max(np.max(i / x.size - f), np.max(f - (i - 1.0) / x.size)))


def hill_tail_size(n: int, tail_fraction: float) -> int:
    """Number of top samples the Hill estimate of a size-``n`` sample uses.

    Raises DomainError unless ``tail_fraction`` lies in (0, 1) and the tail
    holds at least 100 samples, so a caller can refuse a request before
    drawing the sample.
    """
    if not 0.0 < tail_fraction < 1.0:
        raise DomainError(f"tail_fraction must be in (0, 1), got {tail_fraction}")
    k = int(n * tail_fraction)
    if k < 100:
        raise DomainError(
            f"tail has only {k} samples; need at least 100 "
            f"(n={n}, tail_fraction={tail_fraction})")
    return k


def hill_tail_exponent(incomes: np.ndarray, tail_fraction: float = 0.05) -> float:
    """Hill estimate of the density's tail exponent from the top of the sample.

    The Hill estimator of the survival-function index is computed over the
    largest ``tail_fraction`` of the sample and converted to the density
    exponent by adding one.  At least 100 tail points are required.  Note the
    estimate carries the usual finite-threshold bias: it approaches the
    asymptotic exponent only as the tail fraction shrinks.
    """
    x = np.asarray(incomes, dtype=float)
    k = hill_tail_size(x.size, tail_fraction)
    if not (x > 0.0).all():
        raise DomainError("incomes must be positive")
    top = np.sort(x)[-(k + 1):]
    mean_excess = float((np.log(top[1:]) - math.log(top[0])).mean())
    if mean_excess == 0.0:
        raise NumericalError(f"the top k={k} incomes are equal: "
                             "the Hill estimate needs a tail with spread")
    return 1.0 / mean_excess + 1.0
