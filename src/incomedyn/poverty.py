"""Poverty indices: the line-based FGT family and the consumption-deprivation index.

FGT indices (headcount, poverty gap, squared poverty gap) need a poverty
line z; a banded round is read as uniform density between its
``BandedDistribution.knots``, the one uniform-density reading, which the
survey module's empirical CDF shares.

The consumption-deprivation (CD) index needs no line: deprivation at income
y is V K / (K + y), the shortfall of cereal consumption from its saturation
level V, and the index is its population average.  It can be computed three
ways that must agree on synthetic data: directly from observed per-band
cereal shortfalls, from the band structure with the fitted curve, and by
quadrature against the model density.  (V, K) are always quoted in the data
income frame; integrals over model income evaluate deprivation at
offset + y so the two frames stay consistent.

That quadrature is a double-exponential rule on nodes fixed at import,
which halves its step until two successive steps agree and refuses an
error estimate above 1e-9 at its finest step (``cd_index_model``);
``index_series`` reports the estimate and the step per round.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import distlib
from .errors import DataError, DomainError, NumericalError
from .estimate import FitResult, MonodFit
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
    if not (y >= 0.0).all():              # a NaN fails this test too
        raise DomainError("incomes must be nonnegative")
    return _fgt_sample(y, z)


def cd_index_direct(rnd: BandedDistribution, monod: MonodFit) -> float:
    """Observed-consumption CD index: share-weighted shortfall below saturation.

    Uses each band's recorded cereal expenditure against the fitted
    saturation level V; over-saturated bands contribute zero rather than
    offsetting others' deprivation.
    """
    return float(np.dot(rnd.shares, np.maximum(0.0, monod.V - rnd.cereal)))


def cd_index_banded(rnd: BandedDistribution, V: float, K: float) -> float:
    """Model CD index on the band structure: sum_b share_b V K / (K + y_b)."""
    if not (V > 0.0 and K > 0.0):
        raise DomainError("V and K must be positive")
    y = rnd.representative_incomes
    return float(np.dot(rnd.shares, V * K / (K + y)))


# The nodes of the CD index's double-exponential rule (Takahasi & Mori 1974,
# Publ. RIMS 9:721; Mori & Sugihara 2001, J. Comput. Appl. Math. 127:287),
# v = exp((pi/2) sinh t) for t on [-4.5, 4.5]: level 0 holds those at step
# 1/16, each later level the midpoints that halving the step adds.  Per
# node: v, the exponent g = log v - v + 1 of the Gamma(a) density of a v,
# over a, and the Jacobian cosh t.  Nodes with g below -746 are left out:
# exp(a g) is 0 there for every a >= 1.
_DE_FIRST, _DE_LAST = 4, 9          # steps 2^-4 down to 2^-9


def _de_level(k: int, first: bool) -> tuple:
    n = 9 * 2 ** (k - 1)                                    # 4.5 / 2^-k
    t = (np.arange(-n, n + 1) if first else np.arange(1 - n, n, 2)) / 2.0 ** k
    x = math.pi / 2 * np.sinh(t)
    g = x - np.expm1(x)
    keep = g > -746.0
    return np.exp(x[keep]), g[keep], np.cosh(t[keep])


_DE_LEVELS = tuple(_de_level(k, k == _DE_FIRST) for k in range(_DE_FIRST, _DE_LAST + 1))


def _cd_quadrature(density: distlib.SteadyStateIPDF, V: float, K: float) -> tuple:
    """``cd_index_model``, the relative error estimate of its rule and the
    step in t it stopped at."""
    if not (V > 0.0 and K > 0.0):
        raise DomainError("V and K must be positive")
    a = density.shape_M + 1.0
    b = K + density.offset_ymin
    r = density.scale_C0 / b / a
    if not math.isfinite(r):
        raise NumericalError(f"CD index: C0 / (K + offset) overflows at C0 = "
                             f"{density.scale_C0:g}, K + offset = {b:g}")
    num = den = 0.0
    # past a ~ 2e305 the exponent a g overflows to -inf, a weight of 0
    with np.errstate(over="ignore"):
        for k, (v, g, jac) in enumerate(_DE_LEVELS):
            w = np.exp(a * g) * jac
            last_num, last_den = num, den
            num += float(w @ (v / (v + r)))
            den += float(w.sum())
            # the sums at step h are h times these, so each is set against
            # twice its predecessor; den >= 1 (the node v = 1) and num > 0
            error = max(abs(num - 2.0 * last_num) / num, abs(den - 2.0 * last_den) / den)
            if k and error <= 1e-12:
                break
    value = V * (K / b * (num / den))
    step = 2.0 ** -(_DE_FIRST + k)
    if not math.isfinite(value):
        raise NumericalError(f"CD index {value:g} is not finite")
    if error > 1e-9:
        raise DataError(f"CD quadrature error estimate {error:g} above 1e-9 "
                        f"at the finest step {step:g}, M = {density.shape_M:g}")
    return value, error, step


def cd_index_model(density: distlib.SteadyStateIPDF, V: float, K: float) -> float:
    """Population-average deprivation V K / (K + y) over observed income y.

    Here y is the law's offset plus model income, so with b = K + offset
    and s = C0 / b the index is V (K / b) E[u / (u + s)] for u = C0 /
    (y - offset) ~ Gamma(M + 1).  The mean is taken by a double-exponential
    rule: u = (M + 1) exp((pi/2) sinh t), trapezoids in t on [-4.5, 4.5],
    and the sums of the density and of the integrand over it, so Gamma(M +
    1) cancels.  The step halves from 1/16, every node kept, until both
    sums agree with those at twice the step to 1e-12 relative; that
    difference is the error estimate.  An estimate above 1e-9 at the finest
    step, 1/512 (reached near M = 2e4), is a ``DataError``, and a
    non-finite result a ``NumericalError``.  Neither the rule nor its
    tolerance depends on the monetary frame.
    """
    return _cd_quadrature(density, V, K)[0]


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
    unless ``pooled_M`` is given) and offset, with the round's own scale
    C0 = M (mean income - offset), its labour rate in the quasi-static reading
    of a slowly drifting economy.  Rows are in year order, then input order.
    A fit that did not converge has no M or offset to average, so it is a
    ``DataError``; a scale that overflows is a ``NumericalError``.
    """
    if not (len(rounds) == len(fits) == len(monods)):
        raise DataError(
            f"misaligned inputs: {len(rounds)} rounds, {len(fits)} fits, "
            f"{len(monods)} Monod fits")
    if not rounds:
        raise DataError("index series needs at least one round")
    unfit = [r.round_id for r, f in zip(rounds, fits) if not f.converged]
    if unfit:
        raise DataError(f"rounds {', '.join(unfit)}: the income-law fit did not "
                        "converge, so it has no M or offset to pool")
    z = _line_value(line)
    rounds, fits, monods = zip(*sorted(zip(rounds, fits, monods),
                                       key=lambda rfm: rfm[0].year))
    m_common = float(pooled_M) if pooled_M is not None else float(
        np.mean([f.M for f in fits]))
    off_common = float(np.mean([f.offset for f in fits]))
    rows = []
    diag_rounds = []
    for rnd, fit, mono in zip(rounds, fits, monods):
        mean_model = rnd.mean_income() - off_common
        if not mean_model > 0.0:
            raise DataError(f"round {rnd.round_id}: mean income below the offset")
        c_t = m_common * mean_model
        if not math.isfinite(c_t):
            raise NumericalError(f"round {rnd.round_id}: model scale C0 = M (mean - offset) "
                                 f"overflows at M = {m_common:g}")
        dist = distlib.SteadyStateIPDF(m_common, c_t, off_common)
        hci, pg, spg = fgt_indices(rnd, z)
        pcd_d = cd_index_direct(rnd, mono)
        pcd_m, cd_error, cd_step = _cd_quadrature(dist, mono.V, mono.K)
        rows.append(IndexRow(rnd.round_id, rnd.year, hci, pg, spg, pcd_d, pcd_m))
        diag_rounds.append({
            "round_id": rnd.round_id, "year": rnd.year,
            "fit": fit.report(),
            "monod": asdict(mono),
            "labour_rate": c_t,
            # saturation-normalized variants: deprivation as a fraction of V
            "pcd_direct_normalized": pcd_d / mono.V,
            "pcd_model_normalized": pcd_m / mono.V,
            # the CD rule's relative error estimate and the step it stopped at
            "cd_quadrature_error": cd_error,
            "cd_quadrature_step": cd_step,
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
    if not (y >= 0.0).all():              # a NaN fails this test too
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
            for axiom, perturbation in (("monotonicity", Reduce(i, delta)),
                                        ("transfer", Transfer(i, j, delta))):
                res = sen_axiom_check(y, ix, perturbation, line=z, monod=vk)
                if not res.passed:
                    report[ix][axiom]["violations"] += 1
                    report[ix][axiom]["witnesses"].append(res)
    return report
