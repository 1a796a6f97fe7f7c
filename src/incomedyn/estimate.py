"""Parameter estimation from banded rounds.

Two fits per round: the income law (shape M, scale C0, starvation offset)
by binned maximum likelihood, and the saturating consumption curve
s(y) = V y / (K + y) by least squares.  V is linear given K and solved in
closed form, which leaves a profile RSS in u = log K (variable projection:
Golub & Pereyra 1973); K is the root of its exact slope, found by Newton's
method on the exact curvature, safeguarded by bisection (Press et al.,
Numerical Recipes, sec. 9.4), from the closed-form K of the curve
multiplied by K + y, which is exact on noiseless data.

The binned likelihood is maximised by Fisher scoring (Rao 1948; McDonald &
Ransom 1979 for grouped income data): Newton steps on the multinomial
likelihood with the expected information J^T diag(1/p) J in place of the
Hessian, where J = dp/dtheta holds the derivatives of the band
probabilities.  theta is always (M, C0, offset), scored as (M, C0 / c,
offset / c) with c the start C0, so that the information is near unit
scale in any monetary frame; a fixed offset is held out of the step as a
fitted one is at its bound 0.  J is closed-form in C0 and the offset; only the shape
derivative is a central difference of Q in its first argument, so one
incomplete-gamma call on the shapes (M + 1, M + 1 +- h) gives a point's
likelihood, score and information.  The step solves one 3 x 3 system by
its adjugate, with a held offset's row and column masked to the identity.
Iterations stop once the Newton decrement g^T I^-1 g falls below 1e-15,
which takes at most 4 of them on the criterion-6 and sample rounds;
``MAX_EVALUATIONS`` bounds the iterations and ``n_evaluations`` counts
likelihood evaluations.  The inverse of the same information gives the
fit's standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
_MONOD_XTOL = 1e-9             # a Newton step in log K below this is the last one
_MONOD_STATIONARY = 1e-15      # a profile slope below this fraction of its scale is a root
_MONOD_MAX_EVALUATIONS = 100   # profile evaluations allowed in the Newton search


@dataclass(frozen=True)
class FitResult:
    """Binned-MLE fit of the income law to one round.

    ``log_likelihood`` is the per-observation multinomial log likelihood
    sum_b share_b log p_b; multiply by the sample count to get the total.
    ``unit_standard_errors`` are the square roots of the diagonal of the
    inverse Fisher information per household of the fitted parameters, in
    the order (M, C0, offset), without the offset when it is fixed: with n
    households the standard errors are these over sqrt(n); they are NaN
    when the fit has not converged.  ``pearson_chi2``
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

    def report(self) -> dict:
        """The fit's JSON fields: parameters, likelihood and convergence; a
        standard error that is not finite (singular information) is None."""
        return {"M": self.M, "C0": self.C0, "offset": self.offset,
                "log_likelihood": self.log_likelihood, "converged": self.converged,
                "iterations": self.iterations, "n_evaluations": self.n_evaluations,
                "pearson_chi2": self.pearson_chi2,
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


def _evaluate(rnd: BandedDistribution, theta, c0_ref: float) -> tuple:
    """Everything the fit needs at one point theta = (M, C0, offset), from
    one incomplete-gamma call: the log likelihood ``ll`` and the band
    probabilities ``p`` that ``band_log_likelihood`` documents, the
    Jacobian J = dp/dphi, the score J^T (s / p) and the Fisher information
    J^T diag(1 / p) J per household.

    phi is (M, C0 / c0_ref, offset / c0_ref), with a row of J for each,
    whether the fit holds the offset fixed or not.  C0 and the offset are
    scored relative to ``c0_ref``, so their rows are c0_ref dp/dC0 and
    c0_ref dp/doffset, and the information stays near unit scale in any
    monetary frame; in absolute units its entries would scale as 1 / C0^2.
    With x = C0 / (edge - offset) and a = M + 1, the CDF Q(a, x) at an edge
    has x dQ/dx = -x^a e^-x / Gamma(a), which gives its C0 and offset
    derivatives exactly; dQ/da is a central difference of Q at the shapes
    a +- h, evaluated in the same call as Q(a, x).  x is computed only on
    the edges above the offset and below an open top edge; it is inf
    (Q = 0) at and below the offset and 0 (Q = 1) at an infinite edge,
    where all three derivatives vanish.  J differentiates the normalised
    p = diff(Q) / T, T = Q at the last edge minus Q at the first, so the
    conditioning on the covered range is exact.  The log likelihood floors
    p at ``_P_FLOOR`` and is flat below it, so bands with a smaller p add
    nothing to the score or the information.
    """
    m, c0, off = theta
    distlib.SteadyStateIPDF(m, c0, off)          # the law's domain checks
    a = m + 1.0
    h = _SHAPE_STEP * a
    edges = rnd.edges
    lo = edges.searchsorted(off, "right")
    hi = edges.size - rnd.has_open_band
    x = np.empty(edges.size)
    x[:lo] = math.inf
    x[hi:] = 0.0
    xs = x[lo:hi]
    np.divide(c0, edges[lo:hi] - off, out=xs)
    q = distlib.reg_upper_incomplete_gamma(np.array([[a], [a + h], [a - h]]), x)
    cdf = q[0]
    p = cdf[1:] - cdf[:-1]
    total = p.sum()
    if total <= 0.0:
        return (-math.inf, np.full(p.size, 1.0 / p.size), np.zeros((3, p.size)),
                np.zeros(3), np.zeros((3, 3)))
    p /= total
    ll = float(rnd.shares @ np.log(np.maximum(p, _P_FLOOR)))
    d_cdf = np.zeros(q.shape)
    np.subtract(q[1], q[2], out=d_cdf[0])
    d_cdf[0] /= 2.0 * h
    c0_row = d_cdf[1, lo:hi]       # -(c0_ref / C0) x^a e^-x / Gamma(a)
    np.exp(a * np.log(xs) - xs - math.lgamma(a), out=c0_row)
    c0_row *= -c0_ref / c0
    np.multiply(c0_row, xs, out=d_cdf[2, lo:hi])
    jac = d_cdf[:, 1:] - d_cdf[:, :-1]
    jac -= np.multiply.outer(d_cdf[:, -1] - d_cdf[:, 0], p)
    jac /= cdf[-1] - cdf[0]
    w = np.divide(1.0, p, out=np.zeros(p.size), where=p >= _P_FLOOR)
    jac_w = jac * w
    return ll, p, jac, jac_w @ rnd.shares, jac_w @ jac.T


def band_log_likelihood(rnd: BandedDistribution, M: float, C0: float,
                        offset: float) -> tuple:
    """Per-observation log likelihood and expected band shares for given params.

    Band probabilities are differences of the observed-income CDF at the band
    edges; bands at or below the offset carry zero mass.  The probabilities
    are conditioned on the range the bands cover, so expected shares always
    sum to one.  Parameters outside the law's domain (M or C0 not positive,
    an offset that is negative or not finite) are a ``DomainError``.
    """
    return _evaluate(rnd, (M, C0, offset), C0)[:2]


def _inverse(info: list, held: bool) -> Optional[list]:
    """Inverse of the symmetric 3 x 3 ``info`` (a list of rows of floats),
    as its adjugate over its determinant.  A ``held`` offset takes its row
    and column from the identity matrix, and its entry of the inverse is
    zero, so the (M, C0) block is inverted alone.  None when the
    determinant is not positive: an information matrix is positive
    semidefinite, so such a matrix is singular to working precision.  A
    non-finite entry gives None or non-finite entries."""
    (f00, f01, f02), (_, f11, f12), (_, _, f22) = info
    if held:
        f02, f12, f22 = 0.0, 0.0, 1.0
    c00, c01, c02 = f11 * f22 - f12 * f12, f02 * f12 - f01 * f22, f01 * f12 - f02 * f11
    det = f00 * c00 + f01 * c01 + f02 * c02
    if not det > 0.0:
        return None
    c11, c12, c22 = f00 * f22 - f02 * f02, f01 * f02 - f00 * f12, f00 * f11 - f01 * f01
    return [[c00 / det, c01 / det, c02 / det],
            [c01 / det, c11 / det, c12 / det],
            [c02 / det, c12 / det, 0.0 if held else c22 / det]]


def fit_ipdf(rnd: BandedDistribution, fix_offset: Optional[float] = DEFAULT_OFFSET) -> FitResult:
    """Fit (M, C0) — and the offset when ``fix_offset`` is None — to a round.

    Fisher scoring on theta = (M, C0, offset) from the moment-anchored
    start M = 1.6, C0 = 1.6 x (mean income - offset), with the offset at
    ``fix_offset``, or, when it is fitted, at 0.15 x mean income, or at half
    the lowest upper edge of a populated band when that is lower.  Each
    iteration solves (J^T diag(1/p) J) delta = J^T (s/p), with C0 and the
    offset relative to the start C0 (``_evaluate``), so the fit does not
    depend on the rounds' monetary frame; the one 3 x 3 system, a held
    offset masked, is solved in closed form (``_inverse``).  The step is
    halved until the log likelihood does not drop and M and C0 stay
    positive and finite; an offset a step takes below zero is set to zero.
    The offset is held when it is fixed, and when it is fitted and at its
    bound 0 while its score points below zero.  The fit has converged when
    the Newton decrement g^T I^-1 g falls below ``DECREMENT_TOL``.

    Each point, a rejected trial included, is evaluated and scored by one
    ``_evaluate`` call.  ``MAX_EVALUATIONS`` is the budget of scoring
    iterations; ``n_evaluations`` counts evaluated points, step halvings
    included, and ``iterations`` the steps taken.  ``converged=False`` with
    the best point so far, and NaN standard errors, if the budget runs out,
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
    fit_offset = fix_offset is None
    # an offset at or above this band's upper edge leaves it no model mass
    first = next(b for b in rnd.bands if b.population_share > 0.0)
    if fit_offset:
        offset0 = 0.15 * mean if 0.15 * mean < first.upper else 0.5 * first.upper
    else:
        offset0 = float(fix_offset)
    if not (math.isfinite(offset0) and offset0 >= 0.0):
        raise DomainError(f"offset must be finite and >= 0, got {offset0}")
    if offset0 >= first.upper:
        raise DataError(
            f"round {rnd.round_id}: offset {offset0:.6g} leaves the populated band "
            f"[{first.lower:.6g}, {first.upper:.6g}] with no model mass")
    m, off = 1.6, offset0
    # steps and standard errors are in phi = (M, C0 / c0_ref, offset / c0_ref)
    c0 = c0_ref = 1.6 * max(mean - offset0, 0.05 * mean)
    ll, p, _, score, info = _evaluate(rnd, (m, c0, off), c0_ref)
    n_eval, iterations, converged = 1, 0, False
    while True:
        g = score.tolist()
        # a fixed offset is always held; a fitted one is held at its bound 0
        # while its score points below zero
        inv = _inverse(info.tolist(), not fit_offset or (off == 0.0 and g[2] <= 0.0))
        if inv is None:
            break
        step = [r[0] * g[0] + r[1] * g[1] + r[2] * g[2] for r in inv]
        decrement = step[0] * g[0] + step[1] * g[1] + step[2] * g[2]
        # a non-finite step leaves the decrement non-finite
        if not math.isfinite(decrement):
            break
        if decrement < DECREMENT_TOL:
            converged = True
            break
        if iterations == MAX_EVALUATIONS:
            break
        t = 1.0
        while t >= _MIN_STEP:
            tc = t * c0_ref
            trial = (m + t * step[0], c0 + tc * step[1], max(off + tc * step[2], 0.0))
            # an M or C0 that is not positive and finite is outside the law's domain
            if 0.0 < trial[0] < math.inf and 0.0 < trial[1] < math.inf:
                values = _evaluate(rnd, trial, c0_ref)
                n_eval += 1
                if values[0] >= ll:
                    break
            t *= 0.5
        else:
            break
        (m, c0, off), (ll, p, _, score, info) = trial, values
        iterations += 1
    # a point that is not a maximum has no standard errors
    inv = _inverse(info.tolist(), not fit_offset) if converged else None
    var = [math.nan] * 3 if inv is None else [inv[i][i] for i in range(3)]
    # a negative variance is roundoff in a numerically singular information;
    # a fixed offset has none
    scales = (1.0, c0_ref, c0_ref) if fit_offset else (1.0, c0_ref)
    unit_se = tuple(s * math.sqrt(v) if v >= 0.0 else math.nan
                    for s, v in zip(scales, var))
    chi2 = float(np.sum(np.divide((rnd.shares - p) ** 2, p, out=np.zeros(p.size),
                                  where=p > 0.0)))
    return FitResult(M=m, C0=c0, offset=off, log_likelihood=ll,
                     converged=converged, n_evaluations=n_eval,
                     per_band_expected_shares=p, iterations=iterations,
                     unit_standard_errors=unit_se, pearson_chi2=chi2)


def _monod_profile(x: np.ndarray, s: np.ndarray, k: float) -> tuple:
    """Profile RSS, V, the RSS's first and second derivatives in u = log K,
    and the first derivative's scale, at K = ``k``.

    With r = x / (K + x), t = r (1 - r) and V = s.r / r.r, dr/du = -t,
    dt/du = -(1 - 2 r) t and V is stationary (envelope theorem), so with
    e = s - V r the slope is g = 2 V e.t.  V' = dV/du = (V r.t - e.t) / r.r,
    and g' = 2 V' e.t + 2 V (V t.t - V' r.t - e.(t (1 - 2 r))).  The scale
    2 V s.t = 2 V (e.t + V r.t) is what the slope's terms sum to in
    magnitude (s >= 0), so its roundoff is a small multiple of 1e-16 of it.
    """
    r = x / (k + x)
    t = r * (1.0 - r)
    rr = r.dot(r)
    v = float(s.dot(r) / rr)
    e = s - v * r
    et, rt = float(e.dot(t)), float(r.dot(t))
    dv = float((v * rt - et) / rr)
    curvature = 2.0 * dv * et + 2.0 * v * (v * float(t.dot(t)) - dv * rt - et
                                           + 2.0 * float(e.dot(r * t)))
    return float(e.dot(e)), v, 2.0 * v * et, curvature, 2.0 * v * (et + v * rt)


def fit_monod(rnd: BandedDistribution) -> MonodFit:
    """Fit the consumption curve to per-band cereal expenditures.

    K minimises the profile RSS over u = log K in [log(min income / 10),
    log(max income * 10)].  When the profile slope is negative at the lower
    end and positive at the upper end, K is its root by Newton's method on
    u, safeguarded by bisection (Press et al., Numerical Recipes, sec. 9.4,
    ``rtsafe``); otherwise K is whichever end has the smaller RSS.  A log K
    within 1e-6 of either end is flagged as ``k_at_boundary``.

    Newton starts from the K of the linear least-squares problem
    s K - V x = -s x (the curve multiplied by K + x), which is exact on a
    noiseless round, or from the middle of the bracket when that K is not
    positive or lies outside it.  A Newton step that leaves the bracket
    where the slope changes sign, or a curvature that is not positive,
    takes a bisection instead.  The search stops at a slope within
    ``_MONOD_STATIONARY`` of its scale, or after evaluating the point a
    step below ``_MONOD_XTOL`` in log K reaches, which Newton's quadratic
    convergence puts at roundoff.  ``evaluations`` counts
    ``_monod_profile`` calls.
    """
    if len(rnd.bands) < 3:
        raise DataError(f"round {rnd.round_id}: Monod fit needs at least 3 bands")
    s = rnd.cereal
    x = rnd.representative_incomes()
    s_max, x_max = float(s.max()), float(x.max())
    if not s_max > 0.0:
        raise DataError(f"round {rnd.round_id}: cereal expenditures all zero")
    # the search runs on s and x over their maxima, so that no square in it
    # overflows or turns subnormal in any monetary frame; V, K and the RSS
    # scale back in Python floats, where an overflow gives inf
    s, x = s / s_max, x / x_max
    lo = math.log(x.min() / 10.0)
    hi = math.log(x.max() * 10.0)
    at_lo = _monod_profile(x, s, math.exp(lo))
    at_hi = _monod_profile(x, s, math.exp(hi))
    evaluations = 2
    if at_lo[2] < 0.0 < at_hi[2]:
        sx = s * x
        ss, xs, xx = float(s.dot(s)), float(s.dot(x)), float(x.dot(x))
        det = ss * xx - xs * xs
        k0 = (xs * float(x.dot(sx)) - float(s.dot(sx)) * xx) / det if det > 0.0 else math.nan
        u = math.log(k0) if 0.0 < k0 < math.inf else math.nan
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
        # the slope is < 0 at a and > 0 at b
        a, b, last = lo, hi, False
        for _ in range(_MONOD_MAX_EVALUATIONS):
            rss, v_hat, slope, curvature, scale = _monod_profile(x, s, math.exp(u))
            evaluations += 1
            if last or abs(slope) <= _MONOD_STATIONARY * scale:
                break
            if slope < 0.0:
                a = u
            else:
                b = u
            step = slope / curvature if curvature > 0.0 else math.inf
            # a tiny step may cross the end just set; it is the last one
            if abs(step) < _MONOD_XTOL:
                u, last = u - step, True
            elif a < u - step < b:
                u -= step
            else:
                u = 0.5 * (a + b)
    else:
        u, (rss, v_hat, *_) = (lo, at_lo) if at_lo[0] <= at_hi[0] else (hi, at_hi)
    rss = rss * s_max * s_max
    if not math.isfinite(rss):
        raise NumericalError(f"round {rnd.round_id}: Monod residual sum of squares is {rss}")
    if not v_hat > 0.0:
        raise DataError(f"round {rnd.round_id}: saturation level fit is nonpositive")
    return MonodFit(V=v_hat * s_max, K=math.exp(u) * x_max, rss=rss,
                    k_at_boundary=(u - lo) < 1e-6 or (hi - u) < 1e-6,
                    evaluations=evaluations)
