"""Agent-based integration of the income Langevin dynamics.

Each agent's income follows dy = (C(t) - M y) dt + sigma y dW under the Ito
convention (the labour rate is read at the start of a step, before the
trading shock lands).  With sigma = sqrt(2) the ensemble's stationary law is
exactly the closed form in :mod:`incomedyn.distlib`, which the tests use as
the equilibrium oracle.

Reproducibility model: the population is split into fixed chunks of
``CHUNK_SIZE`` agents and every chunk owns an independent, seeded RNG
stream.  The chunk partition depends only on the population size, never on
the worker count, so trajectories are bit-identical for any degree of
parallelism; chunks only ever meet again at snapshot assembly.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from . import distlib
from .errors import DomainError, NumericalError

DEFAULT_SIGMA = math.sqrt(2.0)
CHUNK_SIZE = 32768
# periodic overflow sweep; NaN is caught every step via min() propagation
_FINITE_CHECK_EVERY = 256

RateLike = Union[float, Callable[[float], float]]


@dataclass(frozen=True)
class LangevinParams:
    """Integration parameters for the income process.

    ``labour_rate`` may be a positive constant or a callable of time (for a
    slowly drifting economy).  ``ymin_floor`` is the reflection floor; the
    stationary density vanishes like exp(-C0/y) near zero, so with the
    default floor reflections are statistically invisible.
    """

    M: float
    labour_rate: RateLike
    dt: float
    noise_scale: float = DEFAULT_SIGMA
    ymin_floor: float = None

    def __post_init__(self):
        if not self.M > 0.0:
            raise DomainError(f"M must be > 0, got {self.M}")
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
        if not callable(self.labour_rate) and not float(self.labour_rate) > 0.0:
            raise DomainError(f"labour rate must be > 0, got {self.labour_rate}")

    def rate_at(self, t: float) -> float:
        c = self.labour_rate(t) if callable(self.labour_rate) else float(self.labour_rate)
        if not c > 0.0:
            raise DomainError(f"labour rate must stay positive, got C({t}) = {c}")
        return c

    def floor_at(self, t: float) -> float:
        if self.ymin_floor is not None:
            return self.ymin_floor
        return 1e-9 * self.rate_at(t) / self.M


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

    @property
    def stream_ids(self) -> np.ndarray:
        """RNG stream (chunk) identifier of every agent."""
        return np.arange(self.n_agents) // CHUNK_SIZE


def _n_chunks(n_agents: int) -> int:
    return (n_agents + CHUNK_SIZE - 1) // CHUNK_SIZE


def _chunk_generator(seed: int, chunk: int) -> np.random.Generator:
    # entropy tag 1 namespaces chunk streams away from the init stream
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, 1, chunk))))


def _fresh_states(seed: int, n_agents: int) -> tuple:
    return tuple(_chunk_generator(seed, c).bit_generator.state
                 for c in range(_n_chunks(n_agents)))


def _advance_chunk(y: np.ndarray, gen: np.random.Generator,
                   params: LangevinParams, t0: float, n_steps: int,
                   snap_steps, collect) -> None:
    """March one chunk forward n_steps in place; collect() is called at snapshots."""
    dt = params.dt
    sig_sqdt = params.noise_scale * math.sqrt(dt)
    floor = params.floor_at(t0)
    const_rate = not callable(params.labour_rate)
    c_dt = params.rate_at(t0) * dt
    decay = 1.0 - params.M * dt
    snap_iter = iter(snap_steps)
    next_snap = next(snap_iter, None)
    draw = gen.standard_normal
    n_c = y.size
    for k in range(n_steps):
        if not const_rate:
            c_dt = params.rate_at(t0 + k * dt) * dt
        xi = draw(n_c)
        xi *= sig_sqdt
        xi += decay
        y *= xi
        y += c_dt
        m = y.min()
        if not m > floor:
            if math.isnan(m) or not np.isfinite(m):
                raise NumericalError(
                    f"non-finite income at t={t0 + (k + 1) * dt:g} "
                    f"({np.count_nonzero(~np.isfinite(y))} agents)")
            # reflect at the floor; 2*floor - y' >= floor whenever y' <= floor,
            # so one pass leaves every income at or above the floor
            np.copyto(y, 2.0 * floor - y, where=(y <= floor))
        elif (k + 1) % _FINITE_CHECK_EVERY == 0 and not np.isfinite(y.max()):
            raise NumericalError(
                f"non-finite income at t={t0 + (k + 1) * dt:g} "
                f"({np.count_nonzero(~np.isfinite(y))} agents)")
        if next_snap is not None and k + 1 == next_snap:
            collect(k + 1, y, gen)
            next_snap = next(snap_iter, None)


def step(pop: AgentPopulation, params: LangevinParams, workers: int = 1) -> AgentPopulation:
    """Advance every agent one Euler-Maruyama step; returns a new population."""
    if pop.n_agents == 0:
        raise DomainError("cannot step an empty population")
    pols = run_steps(pop, params, n_steps=1, snapshot_steps=(), workers=workers)
    return pols[0]


def run_steps(pop: AgentPopulation, params: LangevinParams, n_steps: int,
              snapshot_steps: Sequence[int] = (), workers: int = 1) -> list:
    """March ``n_steps`` from ``pop``; returns populations at the requested
    step indices plus the final state (deduplicated, in time order)."""
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    n = pop.n_agents
    n_chunks = _n_chunks(n)
    snap_steps = sorted(set(int(s) for s in snapshot_steps if 0 < int(s) <= n_steps))
    if not snap_steps or snap_steps[-1] != n_steps:
        snap_steps.append(n_steps)
    per_chunk = []

    def run_one(c):
        lo = c * CHUNK_SIZE
        hi = min(lo + CHUNK_SIZE, n)
        y = pop.incomes[lo:hi].copy()
        gen = np.random.Generator(np.random.SFC64())
        gen.bit_generator.state = pop.rng_states[c]
        taken = []
        _advance_chunk(y, gen, params, pop.time, n_steps, snap_steps,
                       lambda k, yy, g: taken.append((k, yy.copy(), g.bit_generator.state)))
        return taken

    if workers > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            per_chunk = list(ex.map(run_one, range(n_chunks)))
    else:
        per_chunk = [run_one(c) for c in range(n_chunks)]

    out = []
    for i, k in enumerate(snap_steps):
        incomes = np.concatenate([chunk[i][1] for chunk in per_chunk])
        states = tuple(chunk[i][2] for chunk in per_chunk)
        out.append(AgentPopulation(
            incomes=incomes, time=pop.time + k * params.dt, seed=pop.seed,
            step_index=pop.step_index + k, rng_states=states))
    return out


def init_population(n_agents: int, init, seed: int) -> AgentPopulation:
    """Create the t = 0 ensemble.

    ``init`` is either a SteadyStateIPDF (equilibrium draw) or a positive
    constant placing every agent at the same income.
    """
    if n_agents <= 0:
        raise DomainError(f"population size must be positive, got {n_agents}")
    if isinstance(init, distlib.SteadyStateIPDF):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 0)))
        incomes = init.scale_C0 / rng.gamma(init.shape_M + 1.0, 1.0, size=n_agents)
    else:
        y0 = float(init)
        if not y0 > 0.0:
            raise DomainError(f"constant initial income must be > 0, got {init}")
        incomes = np.full(n_agents, y0)
    return AgentPopulation(incomes=incomes, time=0.0, seed=seed, step_index=0)


def run(n_agents: int, params: LangevinParams, t_end: float, init, seed: int,
        snapshot_times: Sequence[float] = (), workers: int = 1) -> list:
    """Simulate from t = 0 to t_end; returns snapshots plus the final state.

    Snapshot times are rounded up to the next step boundary.  With an empty
    snapshot list only the final population is returned.
    """
    if not t_end > 0.0:
        raise DomainError(f"t_end must be > 0, got {t_end}")
    times = sorted(float(t) for t in snapshot_times)
    if times and (times[0] <= 0.0 or times[-1] > t_end + 1e-9):
        raise DomainError("snapshot times must lie in (0, t_end]")
    n_steps = max(1, math.ceil(t_end / params.dt - 1e-9))
    snap_steps = [min(n_steps, math.ceil(t / params.dt - 1e-9)) for t in times]
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
    log_excess = np.log(top[1:]) - math.log(top[0])
    return 1.0 / float(log_excess.mean()) + 1.0
