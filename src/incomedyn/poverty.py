"""Poverty indices: the line-based FGT family and the consumption-deprivation index.

FGT indices (headcount, poverty gap, squared poverty gap) need a poverty
line z; a banded round is read as uniform density between its
``BandedDistribution.knots``, the one uniform-density reading the survey
module's empirical CDF and density share.

The consumption-deprivation (CD) index needs no line: deprivation at income
y is V K / (K + y), the shortfall of cereal consumption from its saturation
level V, and the index is its population average.  It can be computed three
ways that must agree on synthetic data: directly from observed per-band
cereal shortfalls, from the band structure with the fitted curve, and by
quadrature against the model density.  (V, K) are always quoted in the data
income frame; integrals over model income evaluate deprivation at
offset + y so the two frames stay consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import distlib, fpsolve
from .errors import DataError, DomainError, NumericalError
from .estimate import FitResult, MonodFit, labour_rate_series
from .survey import BandedDistribution

STRICT_TOL = 1e-12


def _line_value(line) -> float:
    z = float(line)
    if not z > 0.0:
        raise DomainError(f"poverty line must be positive, got {z}")
    return z


class FGTIndices(NamedTuple):
    hci: float
    pg: float
    spg: float


def _fgt_sample(y: np.ndarray, z: float) -> FGTIndices:
    gap = np.maximum(0.0, (z - y) / z)
    return FGTIndices(float(np.mean(y < z)), float(gap.mean()),
                      float((gap ** 2).mean()))


def _fgt_banded(rnd: BandedDistribution, z: float) -> FGTIndices:
    knots = rnd.knots
    lo, up = knots[:-1], knots[1:]
    top = np.clip(z, lo, up)
    below = rnd.shares / (up - lo) * (top - lo)     # each band's share below z
    # mean gap (a + b) / 2 and squared gap (a^2 + ab + b^2) / 3 of a uniform on
    # [lo, top], with a = 1 - lo/z and b = 1 - top/z the gaps as fractions of z:
    # positive terms, exact also for a line far above a band, and no overflow
    # for any line (knots are capped at z; a band above the line has no share)
    gap = 1.0 - np.minimum(knots, z) / z
    a, b = gap[:-1], gap[1:]
    return FGTIndices(float(below.sum()), float(below @ (a + b)) / 2.0,
                      float(below @ (a * a + a * b + b * b)) / 3.0)


def fgt_indices(data: Union[np.ndarray, BandedDistribution], line) -> FGTIndices:
    """Headcount, poverty gap, and squared poverty gap at line z.

    ``data`` is an income sample or a banded round (uniform density per band,
    with the open band at its effective width).
    """
    z = _line_value(line)
    if isinstance(data, BandedDistribution):
        return _fgt_banded(data, z)
    y = np.asarray(data, dtype=float)
    if y.size == 0:
        raise DataError("empty income sample")
    if (y < 0.0).any():
        raise DomainError("incomes must be nonnegative")
    return _fgt_sample(y, z)


def cd_index_direct(rnd: BandedDistribution, monod: MonodFit) -> float:
    """Observed-consumption CD index: share-weighted shortfall below saturation.

    Uses each band's recorded cereal expenditure against the fitted
    saturation level V; over-saturated bands contribute zero rather than
    offsetting others' deprivation.
    """
    total = 0.0
    for i, b in enumerate(rnd.bands):
        if b.mean_cereal_expenditure is None:
            raise DataError(f"round {rnd.round_id}: band {i} lacks cereal expenditure")
        total += b.population_share * max(0.0, monod.V - b.mean_cereal_expenditure)
    return total


def cd_index_banded(rnd: BandedDistribution, V: float, K: float) -> float:
    """Model CD index on the band structure: sum_b share_b V K / (K + y_b)."""
    if not (V > 0.0 and K > 0.0):
        raise DomainError("V and K must be positive")
    y = rnd.representative_incomes()
    return float(np.dot(rnd.shares, V * K / (K + y)))


def cd_index_model(density: Union[distlib.SteadyStateIPDF, fpsolve.GridDensity],
                   V: float, K: float) -> float:
    """Population-average deprivation V K / (K + y) over observed income y.

    For the closed-form law, y is its offset plus model income; the average
    of K / (K + y), a fraction in (0, 1) free of V, is evaluated by adaptive
    quadrature after u = C0 / (y - offset), to an error estimate of at most
    1e-9, and then scaled by V, so neither the integrand nor the tolerance
    depends on the monetary frame (a non-finite result is a
    ``NumericalError``); scipy's ``quad`` is imported at this one call site,
    so commands without this index never load ``scipy.integrate``.  A grid
    density, of model income, must carry unit mass to 1e-6 and is
    integrated by the trapezoidal rule.
    """
    if not (V > 0.0 and K > 0.0):
        raise DomainError("V and K must be positive")
    if isinstance(density, distlib.SteadyStateIPDF):
        m, c0, off = density.shape_M, density.scale_C0, density.offset_ymin
        lognorm = math.lgamma(m + 1.0)

        def integrand(u):
            return K / (K + off + c0 / u) * math.exp(m * math.log(u) - u - lognorm)

        from scipy.integrate import quad
        val, err = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
        if not (math.isfinite(val) and math.isfinite(err)):
            raise NumericalError(f"CD quadrature gave {val:g} with error estimate {err:g}")
        if err > 1e-9:
            raise DataError(f"CD quadrature error {err:g} above tolerance")
        return float(V * val)
    grid = density
    mass = grid.mass()
    if abs(mass - 1.0) > 1e-6:
        raise DataError(f"grid density mass {mass:.8g} is off unity by more than 1e-6")
    cd = V * K / (K + grid.grid)
    return float(np.trapezoid(cd * grid.values, grid.grid))


@dataclass(frozen=True)
class IndexRow:
    round_id: str
    year: float
    hci: float
    pg: float
    spg: float
    pcd_direct: float
    pcd_model: float


@dataclass(frozen=True)
class IndexSeries:
    rows: tuple
    diagnostics: dict


def index_series(rounds: Sequence[BandedDistribution], fits: Sequence[FitResult],
                 monods: Sequence[MonodFit], line,
                 pooled_M: Optional[float] = None) -> IndexSeries:
    """All five indices per round.

    The model CD index uses a common shape M (the mean of the per-round fits
    unless ``pooled_M`` is given) with the scale set by the labour-rate
    series at the round's date — the quasi-static reading of a slowly
    drifting economy.  Inputs must be aligned per round.
    """
    if not (len(rounds) == len(fits) == len(monods)):
        raise DataError(
            f"misaligned inputs: {len(rounds)} rounds, {len(fits)} fits, "
            f"{len(monods)} Monod fits")
    if not rounds:
        raise DataError("index series needs at least one round")
    z = _line_value(line)
    order = np.argsort([r.year for r in rounds])
    rounds = [rounds[i] for i in order]
    fits = [fits[i] for i in order]
    monods = [monods[i] for i in order]
    m_common = float(pooled_M) if pooled_M is not None else float(
        np.mean([f.M for f in fits]))
    off_common = float(np.mean([f.offset for f in fits]))
    rate = labour_rate_series(rounds, m_common, offset=off_common)
    rows = []
    diag_rounds = []
    for rnd, fit, mono in zip(rounds, fits, monods):
        c_t = rate(rnd.year)
        dist = distlib.SteadyStateIPDF(m_common, c_t, off_common)
        hci, pg, spg = fgt_indices(rnd, z)
        pcd_d = cd_index_direct(rnd, mono)
        pcd_m = cd_index_model(dist, mono.V, mono.K)
        rows.append(IndexRow(rnd.round_id, rnd.year, hci, pg, spg, pcd_d, pcd_m))
        diag_rounds.append({
            "round_id": rnd.round_id, "year": rnd.year,
            "fit": fit.report(),
            "monod": {"V": mono.V, "K": mono.K, "rss": mono.rss,
                      "k_at_boundary": mono.k_at_boundary,
                      "evaluations": mono.evaluations},
            "labour_rate": c_t,
            # saturation-normalized variants: deprivation as a fraction of V
            "pcd_direct_normalized": pcd_d / mono.V,
            "pcd_model_normalized": pcd_m / mono.V,
        })
    diagnostics = {"poverty_line": z, "pooled_M": m_common,
                   "pooled_offset": off_common, "rounds": diag_rounds}
    return IndexSeries(rows=tuple(rows), diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reduce:
    """Take delta from agent i (who must be strictly below the line)."""
    i: int
    delta: float


@dataclass(frozen=True)
class Transfer:
    """Move delta from agent i (below the line) to a richer agent j."""
    i: int
    j: int
    delta: float


@dataclass(frozen=True)
class SenCheckResult:
    passed: bool
    index_name: str
    before: float
    after: float
    perturbation: object


def _index_rule(index: str, line, monod: Optional[tuple]) -> tuple:
    """The index as a function of the incomes, and the line a perturbed agent
    must be below; the CD index has no line, and its K plays that role."""
    if index in ("hci", "pg", "spg"):
        if line is None:
            raise DomainError(f"index {index} needs a poverty line")
        z = _line_value(line)
        return (lambda y: getattr(_fgt_sample(y, z), index)), z
    if index == "pcd":
        if monod is None:
            raise DomainError("index pcd needs (V, K)")
        v, k = monod
        return (lambda y: float(np.mean(v * k / (k + y)))), float(k)
    raise DomainError(f"unknown index {index!r}")


def sen_axiom_check(incomes, index: str, perturbation, line=None,
                    monod: Optional[tuple] = None) -> SenCheckResult:
    """Apply one perturbation and test the strict poverty-increase inequality.

    Monotonicity: lowering the income of someone strictly below the line must
    strictly raise the index.  Transfer: moving income from someone below the
    line to anyone richer must strictly raise the index.  Perturbations that
    violate the eligibility preconditions are domain errors; a returned
    ``passed=False`` records a genuine axiom insensitivity (e.g. the
    headcount index under transfers that change no one's side of the line).
    """
    y = np.asarray(incomes, dtype=float).copy()
    if y.size < 2:
        raise DataError("need at least two agents")
    if (y < 0.0).any():
        raise DomainError("incomes must be nonnegative")
    index_of, z = _index_rule(index, line, monod)
    before = index_of(y)
    if not isinstance(perturbation, (Reduce, Transfer)):
        raise DomainError(f"unknown perturbation {perturbation!r}")
    i, d = perturbation.i, perturbation.delta
    kind = "transfer" if isinstance(perturbation, Transfer) else "reduction"
    if not 0.0 < d <= y[i]:
        raise DomainError(f"{kind} delta {d} outside (0, income]")
    if not y[i] < z:
        raise DomainError(f"agent {i} has income {y[i]} not below the line {z}")
    if isinstance(perturbation, Transfer):
        j = perturbation.j
        if not y[j] > y[i]:
            raise DomainError(f"recipient {j} is not richer than donor {i}")
        y[j] += d
    y[i] -= d
    after = index_of(y)
    return SenCheckResult(passed=after > before + STRICT_TOL, index_name=index,
                          before=before, after=after, perturbation=perturbation)


def sen_axiom_suite(n_instances: int = 1000, seed: int = 0,
                    indices: Sequence[str] = ("pg", "spg", "pcd")) -> dict:
    """Randomized axiom suite; returns violation counts and witnesses per index.

    Instances draw lognormal populations with the line in the bulk of the
    distribution.  Transfer instances use the classical regressive form — the
    recipient sits at or above the line — because gap-type indices are only
    weakly monotone under transfers that shuffle income among the poor.
    """
    rng = np.random.default_rng(seed)
    report = {ix: {"monotonicity": {"violations": 0, "witnesses": []},
                   "transfer": {"violations": 0, "witnesses": []}}
              for ix in indices}
    for _ in range(n_instances):
        n = int(rng.integers(20, 200))
        y = np.exp(rng.normal(0.0, 1.0, size=n))
        z = float(rng.uniform(0.4, 1.5))
        vk = (float(rng.uniform(0.5, 2.0)), z)
        below = np.flatnonzero(y < z)
        above = np.flatnonzero(y >= z)
        if below.size == 0 or above.size == 0:
            continue
        i = int(rng.choice(below))
        j = int(rng.choice(above))
        delta = float(rng.uniform(0.05, 0.95)) * y[i]
        for ix in indices:
            line = None if ix == "pcd" else z
            mono = vk if ix == "pcd" else None
            res = sen_axiom_check(y, ix, Reduce(i, delta), line=line, monod=mono)
            if not res.passed:
                report[ix]["monotonicity"]["violations"] += 1
                report[ix]["monotonicity"]["witnesses"].append(res)
            res = sen_axiom_check(y, ix, Transfer(i, j, delta), line=line, monod=mono)
            if not res.passed:
                report[ix]["transfer"]["violations"] += 1
                report[ix]["transfer"]["witnesses"].append(res)
    return report
