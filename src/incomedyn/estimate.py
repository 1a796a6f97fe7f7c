"""Parameter estimation from banded rounds.

Two fits per round: the income law (shape M, scale C0, starvation offset)
by binned maximum likelihood, and the saturating consumption curve
s(y) = V y / (K + y) by least squares.  V is linear given K and solved in
closed form, which leaves a profile RSS in u = log K (variable projection:
Golub & Pereyra 1973); K is the root of its exact slope, found by Brent's
method (Brent 1973, ch. 4).

The binned likelihood is maximised by Fisher scoring (Rao 1948; McDonald &
Ransom 1979 for grouped income data): Newton steps on the multinomial
likelihood with the expected information J^T diag(1/p) J in place of the
Hessian, where J = dp/dtheta holds the derivatives of the band
probabilities.  theta is always (M, C0, offset); a fixed offset is held by
the same mask that holds a fitted one at its bound 0.  J is closed-form in
C0 and the offset; only the shape derivative is a central difference of Q
in its first argument.  Iterations stop once the Newton decrement
g^T I^-1 g falls below 1e-15, which takes at most 4 of them on the
criterion-6 and sample rounds; ``MAX_EVALUATIONS`` bounds the iterations
and ``n_evaluations`` counts likelihood evaluations.  The same information
gives the fit's standard errors.

The labour-rate series ties fitted rounds together: under the quasi-static
assumption the rate at a round's date is M times its mean model income,
interpolated linearly between rounds.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import distlib
from .errors import DataError, DomainError, NumericalError
from .survey import BandedDistribution

DEFAULT_OFFSET = 0.15          # starvation level in collapsed (mean = 1) units
MAX_EVALUATIONS = 10_000       # scoring iterations allowed per fit
DECREMENT_TOL = 1e-15          # Newton decrement g^T I^-1 g that counts as converged
_MIN_STEP = 2.0 ** -40         # step halvings stop below this fraction of a full step
_SHAPE_STEP = 1e-5             # relative step of the central difference in M
_P_FLOOR = 1e-300


@dataclass(frozen=True)
class FitResult:
    """Binned-MLE fit of the income law to one round.

    ``log_likelihood`` is the per-observation multinomial log likelihood
    sum_b share_b log p_b; multiply by the sample count to get the total.
    ``unit_standard_errors`` are the square roots of the diagonal of the
    inverse Fisher information per household of the fitted parameters, in
    the order (M, C0, offset), without the offset when it is fixed: with n
    households the standard errors are these over sqrt(n).  ``pearson_chi2``
    is sum_b (share_b - p_b)^2 / p_b; n times it is asymptotically
    chi-square with (bands - 1 - fitted parameters) degrees of freedom.
    """

    M: float
    C0: float
    offset: float
    log_likelihood: float
    converged: bool
    n_evaluations: int
    per_band_expected_shares: np.ndarray
    iterations: int = 0
    unit_standard_errors: tuple = ()
    pearson_chi2: float = math.nan

    def dist(self) -> distlib.SteadyStateIPDF:
        return distlib.SteadyStateIPDF(self.M, self.C0, self.offset)

    def report(self) -> dict:
        """The fit's JSON fields: parameters, likelihood and convergence; a
        standard error that is not finite (singular information) is None."""
        return {"M": self.M, "C0": self.C0, "offset": self.offset,
                "log_likelihood": self.log_likelihood, "converged": self.converged,
                "iterations": self.iterations, "pearson_chi2": self.pearson_chi2,
                "unit_standard_errors": [se if math.isfinite(se) else None
                                         for se in self.unit_standard_errors]}


@dataclass(frozen=True)
class MonodFit:
    """Least-squares fit of the consumption curve; K is the informal poverty line."""

    V: float
    K: float
    rss: float
    k_at_boundary: bool = False
    evaluations: int = 0


def band_log_likelihood(rnd: BandedDistribution, M: float, C0: float,
                        offset: float) -> tuple:
    """Per-observation log likelihood and expected band shares for given params.

    Band probabilities are differences of the observed-income CDF at the band
    edges; bands at or below the offset carry zero mass.  The probabilities
    are conditioned on the range the bands cover, so expected shares always
    sum to one.  Parameters outside the law's domain are a ``DomainError``.
    """
    p = np.diff(distlib.observed_cdf(distlib.SteadyStateIPDF(M, C0, offset), rnd.edges))
    total = p.sum()
    if total <= 0.0:
        return -math.inf, np.full(p.size, 1.0 / p.size)
    p = p / total
    ll = float(np.dot(rnd.shares, np.log(np.maximum(p, _P_FLOOR))))
    return ll, p


def _scoring_terms(rnd: BandedDistribution, theta: np.ndarray, p: np.ndarray) -> tuple:
    """Jacobian J = dp/dtheta of the band probabilities p at theta, the score
    J^T (s / p) and the Fisher information J^T diag(1 / p) J per household.

    theta is (M, C0, offset), with a row of J for each, whether the fit
    holds the offset fixed or not.  With x = C0 / (edge - offset) and
    a = M + 1, the CDF Q(a, x) at an edge has x dQ/dx = -x^a e^-x / Gamma(a),
    which gives its C0 and offset derivatives exactly; dQ/da is a central
    difference.  J differentiates the normalised p = diff(Q) / T, T = Q at
    the last edge minus Q at the first, so the conditioning on the covered
    range is exact.  Bands with p = 0 add nothing to the score or the
    information.
    """
    a, c0 = theta[0] + 1.0, theta[1]
    x = distlib.observed_argument(distlib.SteadyStateIPDF(*theta), rnd.edges)
    inner = np.isfinite(x) & (x > 0.0)
    xg = np.zeros(x.size)          # x^a e^-x / Gamma(a) = -x dQ/dx
    xg[inner] = np.exp(a * np.log(x[inner]) - x[inner] - math.lgamma(a))
    h = _SHAPE_STEP * a
    d_cdf = np.array([(distlib.reg_upper_incomplete_gamma(a + h, x)
                       - distlib.reg_upper_incomplete_gamma(a - h, x)) / (2.0 * h),
                      -xg / c0,
                      -xg * np.where(inner, x, 0.0) / c0])
    total = float(np.diff(distlib.reg_upper_incomplete_gamma(a, x[[0, -1]]))[0])
    jac = (np.diff(d_cdf, axis=1)
           - np.outer(d_cdf[:, -1] - d_cdf[:, 0], p)) / total
    w = np.divide(1.0, p, out=np.zeros(p.size), where=p > 0.0)
    score = jac @ (rnd.shares * w)
    info = (jac * w) @ jac.T
    return jac, score, info


def fit_ipdf(rnd: BandedDistribution, fix_offset: Optional[float] = DEFAULT_OFFSET) -> FitResult:
    """Fit (M, C0) — and the offset when ``fix_offset`` is None — to a round.

    Fisher scoring on theta = (M, C0, offset) from the moment-anchored
    start M = 1.6, C0 = 1.6 x (mean income - offset), with the offset at
    ``fix_offset``, or, when it is fitted, at 0.15 x mean income, or at half
    the lowest upper edge of a populated band when that is lower.  Each
    iteration solves (J^T diag(1/p) J) delta = J^T (s/p) over the free
    parameters and halves the step until the log likelihood does not drop
    and M and C0 stay positive; an offset a step takes below zero is set to
    zero.  One mask holds the offset: a fixed one is never free, a fitted
    one is held at its bound 0 while its score points below zero.  The fit
    has converged when the Newton decrement g^T I^-1 g falls below
    ``DECREMENT_TOL``.

    ``MAX_EVALUATIONS`` is the budget of scoring iterations;
    ``n_evaluations`` counts likelihood evaluations (``band_log_likelihood``
    calls), step halvings included, and ``iterations`` the steps taken.
    ``converged=False`` with the best point so far if the budget runs out,
    the information matrix is singular, or no halved step keeps the
    likelihood from dropping.

    Raises ``DataError`` for fewer than 4 bands or when the fixed offset
    lies at or above the upper edge of a band with a positive share, and
    ``DomainError`` for a negative or non-finite offset.
    """
    if len(rnd.bands) < 4:
        raise DataError(
            f"round {rnd.round_id}: {len(rnd.bands)} bands under-identify the fit; "
            "need at least 4")
    mean = rnd.mean_income()
    fitted = np.array([True, True, fix_offset is None])
    # an offset at or above this band's upper edge leaves it no model mass
    first = next(b for b in rnd.bands if b.population_share > 0.0)
    if fix_offset is None:
        offset0 = 0.15 * mean if 0.15 * mean < first.upper else 0.5 * first.upper
    else:
        offset0 = float(fix_offset)
    if not (math.isfinite(offset0) and offset0 >= 0.0):
        raise DomainError(f"offset must be finite and >= 0, got {offset0}")
    if offset0 >= first.upper:
        raise DataError(
            f"round {rnd.round_id}: offset {offset0:.6g} leaves the populated band "
            f"[{first.lower:.6g}, {first.upper:.6g}] with no model mass")
    mean_model = max(mean - offset0, 0.05 * mean)
    theta = np.array([1.6, 1.6 * mean_model, offset0])
    ll, p = band_log_likelihood(rnd, *theta)
    n_eval, iterations, converged = 1, 0, False
    while True:
        _, score, info = _scoring_terms(rnd, theta, p)
        # a fixed offset is never free; a fitted one is held at its bound 0
        # while its score points below zero
        free = fitted & [True, True, not (theta[2] == 0.0 and score[2] <= 0.0)]
        step = np.zeros(theta.size)
        try:
            step[free] = np.linalg.solve(info[np.ix_(free, free)], score[free])
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(step).all():
            break
        if float(score @ step) < DECREMENT_TOL:
            converged = True
            break
        if iterations == MAX_EVALUATIONS:
            break
        t = 1.0
        while t >= _MIN_STEP:
            trial = theta + t * step
            trial[2] = max(trial[2], 0.0)
            if trial[0] > 0.0 and trial[1] > 0.0:
                ll_trial, p_trial = band_log_likelihood(rnd, *trial)
                n_eval += 1
                if ll_trial >= ll:
                    break
            t *= 0.5
        else:
            break
        theta, ll, p = trial, ll_trial, p_trial
        iterations += 1
    try:
        unit_se = tuple(float(v) for v in
                        np.sqrt(np.diag(np.linalg.inv(info[np.ix_(fitted, fitted)]))))
    except np.linalg.LinAlgError:
        unit_se = (math.nan,) * int(fitted.sum())
    chi2 = float(np.sum(np.divide((rnd.shares - p) ** 2, p, out=np.zeros(p.size),
                                  where=p > 0.0)))
    return FitResult(M=float(theta[0]), C0=float(theta[1]), offset=float(theta[2]),
                     log_likelihood=ll, converged=converged, n_evaluations=n_eval,
                     per_band_expected_shares=p, iterations=iterations,
                     unit_standard_errors=unit_se, pearson_chi2=chi2)


@np.errstate(over="ignore")     # a non-finite RSS is refused by fit_monod
def _monod_rss(x: np.ndarray, s: np.ndarray, k: float) -> tuple:
    r = x / (k + x)
    v = float(np.dot(s, r) / np.dot(r, r))
    resid = s - v * r
    return float(np.dot(resid, resid)), v


def _monod_slope(x: np.ndarray, s: np.ndarray, k: float) -> float:
    """Derivative of the profile RSS in u = log K at K = ``k``.

    With r = x / (K + x) and V = s.r / r.r, dr/du = -r (1 - r) and V is
    stationary (envelope theorem), so dRSS/du = 2 V sum (s - V r) r (1 - r).
    """
    r = x / (k + x)
    v = float(np.dot(s, r) / np.dot(r, r))
    return 2.0 * v * float(np.dot(s - v * r, r * (1.0 - r)))


def fit_monod(rnd: BandedDistribution) -> MonodFit:
    """Fit the consumption curve to per-band cereal expenditures.

    K minimises the profile RSS over u = log K in [log(min income / 10),
    log(max income * 10)].  When the profile slope ``_monod_slope`` is
    negative at the lower end and positive at the upper end, K is its root
    by Brent's method (xtol 1e-12 in log K); otherwise K is whichever end
    has the smaller RSS.  A log K within 1e-6 of either end is flagged as
    ``k_at_boundary``.  ``evaluations`` counts slope and RSS evaluations.
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

    # brentq re-evaluates the ends; the cache keeps that from costing twice
    @functools.lru_cache(maxsize=None)
    def slope(u):
        return _monod_slope(x, s, math.exp(u))

    if slope(lo) < 0.0 < slope(hi):
        from scipy.optimize import brentq
        u = brentq(slope, lo, hi, xtol=1e-12)
        rss, v_hat = _monod_rss(x, s, math.exp(u))
        n_rss = 1
    else:
        rss_lo, rss_hi = _monod_rss(x, s, math.exp(lo)), _monod_rss(x, s, math.exp(hi))
        (rss, v_hat), u = (rss_lo, lo) if rss_lo[0] <= rss_hi[0] else (rss_hi, hi)
        n_rss = 2
    if not math.isfinite(rss):
        raise NumericalError(f"round {rnd.round_id}: Monod residual sum of squares is {rss}")
    if not v_hat > 0.0:
        raise DataError(f"round {rnd.round_id}: saturation level fit is nonpositive")
    return MonodFit(V=v_hat, K=math.exp(u), rss=rss,
                    k_at_boundary=(u - lo) < 1e-6 or (hi - u) < 1e-6,
                    evaluations=slope.cache_info().misses + n_rss)


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
