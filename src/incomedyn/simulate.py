"""Agent-based integration of the income Langevin dynamics.

Each agent's income follows dy = (C(t) - M y) dt + sigma y dW under the Ito
convention (the labour rate is read at the start of a step).  With sigma =
sqrt(2) the stationary law is the closed form in :mod:`incomedyn.distlib`.

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
agent, each with its own seeded SFC64 stream that gives one raw bit per
agent and step.  The partition depends only on n, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from . import distlib
from .errors import DomainError, NumericalError

DEFAULT_SIGMA = math.sqrt(2.0)
CHUNK_SIZE = 32768      # largest chunk
INCREMENTS = "two_point"    # the law of xi, recorded in reports
# periodic overflow sweep; incomes stay positive, so overflow is the only failure
_FINITE_CHECK_EVERY = 256
# row b, column i: the increment xi, +1 if bit i of byte b is set, else -1
_SIGNS = np.where((np.arange(256)[:, None] >> np.arange(8)) & 1, 1.0, -1.0)

RateLike = Union[float, Callable[[float], float]]


@dataclass(frozen=True)
class LangevinParams:
    """Integration parameters for the income process.

    ``labour_rate`` may be a positive constant or a callable of time (for a
    slowly drifting economy).  The guards on ``dt`` keep the step multiplier
    1 - M dt +- sigma sqrt(dt) in (0.67, 1.23), so incomes stay positive.
    """

    M: float
    labour_rate: RateLike
    dt: float
    noise_scale: float = DEFAULT_SIGMA

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
        bounds = _chunk_bounds(self.n_agents)
        return np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))


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


def _advance_chunk(y: np.ndarray, rng_state: dict, params: LangevinParams,
                   t0: float, n_steps: int, snap_steps: set) -> list:
    """March one chunk forward n_steps in place from its SFC64 state; returns
    (incomes, RNG state) at each step index in ``snap_steps``, in step order."""
    bitgen = np.random.SFC64()
    bitgen.state = rng_state
    dt = params.dt
    table = (1.0 - params.M * dt) + params.noise_scale * math.sqrt(dt) * _SIGNS
    n_words = -(-y.size // 64)
    mult = np.empty((8 * n_words, 8))
    mult_y = mult.reshape(-1)[:y.size]
    taken = []
    for k in range(n_steps):
        # byte j of the little-endian words holds the signs of agents 8j..8j+7
        signs = bitgen.random_raw(n_words).astype("<u8", copy=False).view(np.uint8)
        np.take(table, signs, axis=0, out=mult, mode="clip")
        y *= mult_y
        y += params.rate_at(t0 + k * dt) * dt
        if k + 1 in snap_steps or (k + 1) % _FINITE_CHECK_EVERY == 0:
            _check_finite(y, t0 + (k + 1) * dt)
            if k + 1 in snap_steps:
                taken.append((y.copy(), bitgen.state))
    return taken


def run_steps(pop: AgentPopulation, params: LangevinParams, n_steps: int,
              snapshot_steps: Sequence[int] = (), workers: int = 1) -> list:
    """March ``n_steps`` from ``pop``; returns populations at the requested
    step indices plus the final state (deduplicated, in time order).

    The starting incomes must be finite (else ``NumericalError``) and
    positive (else ``DomainError``); the scheme keeps them so.  The chunks
    run one after another: ``workers`` is accepted and ignored, because
    threads did not beat one thread on a step this short.
    """
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    if pop.n_agents == 0:
        raise DomainError("cannot step an empty population")
    _check_finite(pop.incomes, pop.time)
    if not (pop.incomes > 0.0).all():
        raise DomainError("incomes must be positive")
    bounds = _chunk_bounds(pop.n_agents)
    snap_steps = sorted(set(int(s) for s in snapshot_steps if 0 < int(s) <= n_steps))
    if not snap_steps or snap_steps[-1] != n_steps:
        snap_steps.append(n_steps)
    per_chunk = [_advance_chunk(pop.incomes[lo:hi].copy(), state, params, pop.time,
                                n_steps, set(snap_steps))
                 for lo, hi, state in zip(bounds[:-1], bounds[1:], pop.rng_states, strict=True)]
    out = []
    for i, k in enumerate(snap_steps):
        incomes = np.concatenate([chunk[i][0] for chunk in per_chunk])
        states = tuple(chunk[i][1] for chunk in per_chunk)
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
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"t_end must be finite and > 0, got {t_end}")
    times = sorted(float(t) for t in snapshot_times)
    if not all(0.0 < t <= t_end + 1e-9 for t in times):
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
