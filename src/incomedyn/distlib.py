"""Closed-form steady-state income distribution and its special functions.

The stationary law of the income process is an inverse-gamma distribution:
income above the starvation offset is distributed as C0 / X with
X ~ Gamma(M + 1, 1).  Its density

    f(y) = C0^(M+1) / Gamma(M+1) * exp(-C0 / y) * y^(-(M+2))

is exponentially suppressed at low income and has a power-law tail with
density exponent M + 2.  The CDF is the regularized upper incomplete gamma
function Q(M+1, C0/y).  Q is scipy's ``gammaincc``; this module wraps it
once with the package's domain checks, and every other module evaluates the
law through that wrapper, except the likelihood (``estimate._evaluate``),
whose callers check the law's domain once per fit.

Observed income is the starvation offset plus model income.  The ``ipdf_*``
functions take model income; the ``observed_*`` functions take observed
income and apply the offset.  The likelihood and the model CD index apply
it themselves, to band edges and to K, in their own passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc, gammaincinv, gammainccinv

from .errors import DomainError, NumericalError


def reg_upper_incomplete_gamma(a, x):
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a).

    ``scipy.special.gammaincc`` behind the package's domain contract: a > 0
    and x >= 0, else ``DomainError``.  Accepts a scalar or an ndarray for
    each of ``a`` and ``x``; arrays broadcast against each other, so one
    call evaluates several shapes at the same points.  Two scalars give a
    float.  Q(a, 0) = 1 and Q(a, inf) = 0.
    """
    # a minimum is NaN if any element is, and the checks are then refused
    if not np.asarray(a).min(initial=math.inf) > 0.0:
        raise DomainError(f"incomplete gamma requires a > 0, got a={a}")
    arr = np.asarray(x, dtype=float)
    if not arr.min(initial=math.inf) >= 0.0:
        raise DomainError("incomplete gamma requires x >= 0")
    out = gammaincc(a, arr)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SteadyStateIPDF:
    """Stationary income law: inverse gamma with shape M + 1 and scale C0.

    ``offset_ymin`` is the starvation level.  The ``ipdf_*`` functions
    ignore it and take model income; the ``observed_*`` functions take
    observed income, the offset plus model income.
    """

    shape_M: float
    scale_C0: float
    offset_ymin: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.shape_M < math.inf:
            raise DomainError(f"shape_M must be finite and > 0, got {self.shape_M}")
        if not 0.0 < self.scale_C0 < math.inf:
            raise DomainError(f"scale_C0, the labour rate, must be finite and > 0, "
                              f"got {self.scale_C0}")
        if not 0.0 <= self.offset_ymin < math.inf:
            raise DomainError(f"offset_ymin must be finite and >= 0, got {self.offset_ymin}")


_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _check_positive_income(y):
    arr = np.asarray(y, dtype=float)
    if np.isnan(arr).any() or not (arr > 0.0).all():
        raise DomainError("income must be strictly positive")
    return arr


def ipdf_density(dist: SteadyStateIPDF, y):
    """Density of the stationary law at income y (above the offset).

    Vectorized over ``y``; nonpositive y is a domain error, and a density
    past the float range, as near the mode at a subnormal C0, is a
    ``NumericalError``.
    """
    arr = _check_positive_income(y)
    m, c0 = dist.shape_M, dist.scale_C0
    log_norm = (m + 1.0) * math.log(c0) - math.lgamma(m + 1.0)
    with np.errstate(over="ignore"):     # c0 / y past the float range: density 0
        log_out = log_norm - c0 / arr - (m + 2.0) * np.log(arr)
    if np.max(log_out) > _LOG_FLOAT_MAX:
        raise NumericalError(f"the density overflows at C0={c0:g}, M={m:g}")
    out = np.exp(log_out)
    return float(out) if np.isscalar(y) or np.ndim(y) == 0 else out


def ipdf_cdf(dist: SteadyStateIPDF, y):
    """CDF of the stationary law: Q(M+1, C0/y).  Vectorized over ``y``."""
    arr = _check_positive_income(y)
    return reg_upper_incomplete_gamma(dist.shape_M + 1.0, dist.scale_C0 / arr)


def observed_argument(dist: SteadyStateIPDF, y) -> np.ndarray:
    """x = C0 / (y - offset) at observed income y, the argument of Q(M+1, x):
    inf (Q = 0) at and below the offset, 0 (Q = 1) at y = inf; NaN is a DomainError."""
    arr = np.asarray(y, dtype=float)
    if np.isnan(arr).any():
        raise DomainError("observed income must not be NaN")
    ym = arr - dist.offset_ymin
    x = np.full(ym.shape, math.inf)
    np.divide(dist.scale_C0, ym, out=x, where=ym > 0.0)
    return x


def observed_cdf(dist: SteadyStateIPDF, y):
    """CDF of observed income y: Q(M+1, C0/(y - offset)), exactly 0 at and
    below the offset.  Vectorized over ``y``."""
    return reg_upper_incomplete_gamma(dist.shape_M + 1.0, observed_argument(dist, y))


def observed_quantile(dist: SteadyStateIPDF, q):
    """Observed income at CDF level q in [0, 1]: offset + C0 / Q^-1(M+1, q),
    the offset at q = 0 and inf at q = 1.  Vectorized over ``q``; a quantile
    below q = 1 past the float range is a DomainError."""
    arr = np.asarray(q, dtype=float)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():      # also rejects NaN
        raise DomainError("quantile levels must lie in [0, 1]")
    with np.errstate(divide="ignore", over="ignore"):
        out = dist.offset_ymin + dist.scale_C0 / gammainccinv(dist.shape_M + 1.0, arr)
    if (np.isinf(out) & (arr < 1.0)).any():
        raise DomainError(f"an income quantile overflows at C0={dist.scale_C0:g}, "
                          f"M={dist.shape_M:g}")
    return float(out) if arr.ndim == 0 else out


def observed_band_means(dist: SteadyStateIPDF, edges) -> np.ndarray:
    """Mean observed income within each band [edges[i], edges[i+1]], by the
    identity integral(y f dy, l..u) = C0/M [Q(M, C0/u) - Q(M, C0/l)] in model
    income.  A band without mass gets the midpoint of its part above the
    offset (an open one spans lo .. 2 lo + 1 in model income), or of the
    whole band when it lies wholly below the offset.  A mean income C0/M
    past the float range is a DomainError."""
    m, c0, off = dist.shape_M, dist.scale_C0, dist.offset_ymin
    if c0 / m == math.inf:
        raise DomainError(f"the mean income C0/M overflows at C0={c0:g}, M={m:g}")
    x = observed_argument(dist, edges)
    probs = np.diff(reg_upper_incomplete_gamma(m + 1.0, x))
    partial = (c0 / m) * np.diff(reg_upper_incomplete_gamma(m, x))
    edges = np.asarray(edges, dtype=float)
    shifted = edges - off
    lo, hi = np.maximum(shifted[:-1], 0.0), shifted[1:]
    out = off + 0.5 * (lo + np.where(np.isinf(hi), 2.0 * lo + 1.0, hi))
    below = hi <= 0.0
    out[below] = 0.5 * (edges[:-1][below] + edges[1:][below])
    has_mass = probs > 0.0
    out[has_mass] = off + partial[has_mass] / probs[has_mass]
    return out


def ipdf_hill_exponent(dist: SteadyStateIPDF, tail_fraction: float) -> float:
    """Hill density exponent of the law itself: one plus the inverse mean
    log-excess above the exact (1 - tail_fraction) quantile.  With x = C0/y
    that mean is the integral of P(a, x)/x over (0, x_q], a = M + 1, divided
    by tail_fraction, where P(a, x_q) = tail_fraction.  Integrating the
    series of P term by term (DLMF 8.7.1) gives the integral exactly as
    sum_k P(a + k, x_q) / (a + k); the terms fall off faster than
    geometrically once a + k passes x_q by a few sqrt(x_q), so the sum stops
    after int(x_q + 40 sqrt(x_q)) + 60 of them."""
    if not 0.0 < tail_fraction < 1.0:
        raise DomainError(f"tail_fraction must be in (0, 1), got {tail_fraction}")
    a = dist.shape_M + 1.0
    x_q = gammaincinv(a, tail_fraction)
    ak = a + np.arange(int(x_q + 40.0 * math.sqrt(x_q)) + 60)
    return tail_fraction / float(np.sum(gammainc(ak, x_q) / ak)) + 1.0


def ipdf_sample(dist: SteadyStateIPDF, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. incomes as C0 / Gamma(M+1) variates; deterministic in
    ``seed``, which is anything ``np.random.default_rng`` accepts (an int, a
    ``SeedSequence``, ...)."""
    if n < 0:
        raise DomainError(f"sample size must be >= 0, got {n}")
    if n == 0:
        return np.empty(0)
    rng = np.random.default_rng(seed)
    return dist.scale_C0 / rng.gamma(dist.shape_M + 1.0, 1.0, size=n)
