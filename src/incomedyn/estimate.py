"""Parameter estimation from banded rounds.

Two fits per round: the income law (shape M, scale C0, optional starvation
offset) by binned maximum likelihood, and the saturating consumption curve
s(y) = V y / (K + y) by least squares with the half-saturation K found by
golden-section search (V is linear given K and solved in closed form).

The labour-rate series ties fitted rounds together: under the quasi-static
assumption the rate at a round's date is M times its mean model income,
interpolated linearly between rounds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from . import distlib
from .errors import DataError, DomainError
from .survey import BandedDistribution

DEFAULT_OFFSET = 0.15          # starvation level in collapsed (mean = 1) units
MAX_EVALUATIONS = 10_000
_P_FLOOR = 1e-300


@dataclass(frozen=True)
class FitResult:
    """Binned-MLE fit of the income law to one round.

    ``log_likelihood`` is the per-observation multinomial log likelihood
    sum_b share_b log p_b; multiply by the sample count to get the total.
    """

    M: float
    C0: float
    offset: float
    log_likelihood: float
    converged: bool
    n_evaluations: int
    per_band_expected_shares: np.ndarray

    def dist(self) -> distlib.SteadyStateIPDF:
        return distlib.SteadyStateIPDF(self.M, self.C0, self.offset)


@dataclass(frozen=True)
class MonodFit:
    """Least-squares fit of the consumption curve; K is the informal poverty line."""

    V: float
    K: float
    rss: float
    k_at_boundary: bool = False


def band_log_likelihood(rnd: BandedDistribution, M: float, C0: float,
                        offset: float) -> tuple:
    """Per-observation log likelihood and expected band shares for given params.

    Band probabilities come from CDF differences at the band edges shifted to
    model coordinates; edges at or below the offset carry zero mass.  The
    probabilities are conditioned on the range the bands cover, so expected
    shares always sum to one.
    """
    ym = rnd.edges - offset
    # x = C0 / ym, with x = inf (Q = 0) at and below the offset; an infinite
    # edge gives x = 0 (Q = 1)
    x = np.full(ym.size, math.inf)
    np.divide(C0, ym, out=x, where=ym > 0.0)
    p = np.diff(distlib.reg_upper_incomplete_gamma(M + 1.0, x))
    total = p.sum()
    if total <= 0.0:
        return -math.inf, np.full(p.size, 1.0 / p.size)
    p = p / total
    ll = float(np.dot(rnd.shares, np.log(np.maximum(p, _P_FLOOR))))
    return ll, p


def fit_ipdf(rnd: BandedDistribution, fix_offset: Optional[float] = DEFAULT_OFFSET,
             max_evaluations: int = MAX_EVALUATIONS) -> FitResult:
    """Fit (M, C0) — and the offset when ``fix_offset`` is None — to a round.

    Multinomial likelihood maximized by Nelder-Mead in log-parameter space
    from five starts (shape guesses 0.8 / 1.6 / 3.0 with the scale anchored
    to the round's mean, plus two scale perturbations).  Returns the best
    start; ties break toward the lowest M.  ``converged=False`` with the best
    point so far if the evaluation budget runs out.
    """
    if len(rnd.bands) < 4:
        raise DataError(
            f"round {rnd.round_id}: {len(rnd.bands)} bands under-identify the fit; "
            "need at least 4")
    mean = rnd.mean_income()
    fit_offset = fix_offset is None
    offset0 = 0.15 * mean if fit_offset else float(fix_offset)
    if offset0 < 0.0:
        raise DomainError(f"offset must be >= 0, got {offset0}")
    mean_model = max(mean - offset0, 0.05 * mean)

    def objective(theta):
        m = math.exp(theta[0])
        c0 = math.exp(theta[1])
        off = math.exp(theta[2]) if fit_offset else offset0
        ll, _ = band_log_likelihood(rnd, m, c0, off)
        return -ll

    starts = []
    for m0 in (0.8, 1.6, 3.0):
        starts.append((m0, m0 * mean_model))
    starts.append((1.6, 0.5 * 1.6 * mean_model))
    starts.append((1.6, 2.0 * 1.6 * mean_model))

    budget = max_evaluations
    results = []
    total_evals = 0
    for m0, c00 in starts:
        if budget <= 0:
            break
        theta0 = [math.log(m0), math.log(c00)]
        if fit_offset:
            theta0.append(math.log(max(offset0, 1e-6 * mean)))
        res = minimize(objective, np.asarray(theta0), method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": 1e-11,
                                "maxfev": min(budget, max_evaluations // 5)})
        total_evals += res.nfev
        budget -= res.nfev
        results.append(res)
    best = min(results, key=lambda r: (r.fun, math.exp(r.x[0])))
    m_hat = math.exp(best.x[0])
    c0_hat = math.exp(best.x[1])
    off_hat = math.exp(best.x[2]) if fit_offset else offset0
    ll, shares = band_log_likelihood(rnd, m_hat, c0_hat, off_hat)
    return FitResult(M=m_hat, C0=c0_hat, offset=off_hat, log_likelihood=ll,
                     converged=bool(best.success), n_evaluations=total_evals,
                     per_band_expected_shares=shares)


def _monod_rss(x: np.ndarray, s: np.ndarray, k: float) -> tuple:
    r = x / (k + x)
    v = float(np.dot(s, r) / np.dot(r, r))
    resid = s - v * r
    return float(np.dot(resid, resid)), v


def fit_monod(rnd: BandedDistribution) -> MonodFit:
    """Fit the consumption curve to per-band cereal expenditures.

    Golden-section search on log K over [min income / 10, max income * 10];
    a K pinned to either end of that interval is flagged.
    """
    if len(rnd.bands) < 3:
        raise DataError(f"round {rnd.round_id}: Monod fit needs at least 3 bands")
    cereal = [b.mean_cereal_expenditure for b in rnd.bands]
    if any(c is None for c in cereal):
        raise DataError(f"round {rnd.round_id}: cereal expenditure missing")
    x = rnd.representative_incomes()
    s = np.asarray(cereal, dtype=float)
    if not (s > 0.0).any():
        raise DataError(f"round {rnd.round_id}: cereal expenditures all zero")
    lo = math.log(x.min() / 10.0)
    hi = math.log(x.max() * 10.0)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, _ = _monod_rss(x, s, math.exp(c))
    fd, _ = _monod_rss(x, s, math.exp(d))
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc, _ = _monod_rss(x, s, math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd, _ = _monod_rss(x, s, math.exp(d))
    k_hat = math.exp(0.5 * (a + b))
    rss, v_hat = _monod_rss(x, s, k_hat)
    if not v_hat > 0.0:
        raise DataError(f"round {rnd.round_id}: saturation level fit is nonpositive")
    at_boundary = (0.5 * (a + b) - lo) < 1e-6 or (hi - 0.5 * (a + b)) < 1e-6
    return MonodFit(V=v_hat, K=k_hat, rss=rss, k_at_boundary=at_boundary)


class PiecewiseLinear:
    """Piecewise-linear function of time, held constant beyond the end knots."""

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.size == 0 or t.size != v.size:
            raise DataError("times and values must match and be nonempty")
        if (np.diff(t) <= 0.0).any():
            raise DataError("knot times must be strictly increasing")
        self.times = t
        self.values = v

    def __call__(self, t):
        out = np.interp(t, self.times, self.values)
        return float(out) if np.ndim(t) == 0 else out


def labour_rate_series(rounds: Sequence[BandedDistribution], M: float,
                       offset: float = 0.0) -> PiecewiseLinear:
    """Quasi-static labour rate C(t) = M * (mean income - offset) per round,
    linearly interpolated between round years."""
    if not rounds:
        raise DataError("labour rate series needs at least one round")
    if not M > 0.0:
        raise DomainError(f"M must be > 0, got {M}")
    ordered = sorted(rounds, key=lambda r: r.year)
    times = [r.year for r in ordered]
    if len(set(times)) != len(times):
        raise DataError("rounds must have distinct years")
    values = []
    for rnd in ordered:
        mean_model = rnd.mean_income() - offset
        if not mean_model > 0.0:
            raise DataError(f"round {rnd.round_id}: mean income below the offset")
        values.append(M * mean_model)
    if len(ordered) == 1:
        warnings.warn("single round: labour rate series is constant")
        times = [times[0], times[0] + 1.0]
        values = [values[0], values[0]]
    return PiecewiseLinear(times, values)
