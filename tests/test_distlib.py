"""Tests for the closed-form income law and its special functions.

Independent oracles used here:
  * adaptive quadrature of the unnormalized density kernel (after the
    substitution u = C0/y that maps it onto a gamma integrand), which also
    gives the frozen quadrature value of Q(2.6, 1.6),
  * the exponential identity Q(1, x) = exp(-x),
  * bisection on the quadrature CDF for the median,
  * root-finding and quadrature of the log-excess for the exact Hill value,
  * quadrature of the model density shifted by the offset for the
    observed-income CDF and band means,
  * for the grid check of Q (which is scipy's ``gammaincc``), values that
    do not call it: erfc(sqrt x) at a = 1/2 and exp(-x) at a = 1, raised to
    the half-integer and integer shapes by the upward recurrence
    Q(a + 1, x) = Q(a, x) + x^a e^-x / Gamma(a + 1), and quadrature over
    t = x + u for the other shapes.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfc, gammainc, gammaincinv, gammaln, xlogy

from incomedyn import distlib, fpsolve, simulate
from incomedyn.errors import DomainError, NumericalError


def upper_gamma_oracle(a, x):
    """Q(a, x) without ``gammaincc``.  At a half-integer or integer shape,
    erfc(sqrt x) or exp(-x) plus the recurrence terms x^s e^-x / Gamma(s + 1),
    s = a0, ..., a - 1: a sum of positive terms, exact to rounding.  At any
    other shape, Q = e^-x / Gamma(a) times the integral of (x + u)^(a - 1) e^-u
    over u > 0, by quadrature."""
    x = np.asarray(x, dtype=float)
    if (2.0 * a).is_integer():
        s = a % 1.0 or 1.0
        q = erfc(np.sqrt(x)) if s == 0.5 else np.exp(-x)
        while s < a:
            q = q + np.exp(xlogy(s, x) - x - gammaln(s + 1.0))
            s += 1.0
        return q
    integral = [integrate.quad(lambda u: (xi + u) ** (a - 1.0) * math.exp(-u), 0.0, np.inf,
                               epsabs=0.0, epsrel=1e-13)[0] for xi in x]
    return np.exp(-x) / math.gamma(a) * np.array(integral)


def quad_normalization(M, C0):
    """Oracle: integral of exp(-C0/y) y^-(M+2) dy over (0, inf) via u = C0/y."""
    val, err = integrate.quad(lambda u: u**M * math.exp(-u), 0.0, np.inf)
    return val / C0 ** (M + 1.0), err


def quad_cdf(M, C0, y):
    """Oracle: CDF by quadrature of the normalized gamma integrand."""
    val, _ = integrate.quad(
        lambda u: u**M * math.exp(-u) / math.gamma(M + 1.0), C0 / y, np.inf)
    return val


def quad_mean(M, C0):
    val, _ = integrate.quad(
        lambda u: (C0 / u) * u**M * math.exp(-u) / math.gamma(M + 1.0), 0.0, np.inf)
    return val


DIST = distlib.SteadyStateIPDF(1.6, 1.6)


class TestDensity:
    def test_matches_quadrature_normalized_kernel(self):
        # oracle-normalized kernel at y = 1 vs the closed-form constant
        norm, err = quad_normalization(1.6, 1.6)
        kernel = math.exp(-1.6 / 1.0) * 1.0 ** (-3.6)
        oracle = kernel / norm
        assert err < 1e-7
        assert distlib.ipdf_density(DIST, 1.0) == pytest.approx(oracle, rel=1e-8)
        # frozen value from the same oracle
        assert distlib.ipdf_density(DIST, 1.0) == pytest.approx(0.479312531609552, rel=1e-9)

    def test_normalization_within_1e8(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.uniform(0.5, 5.0)
            c0 = rng.uniform(0.5, 5.0)
            d = distlib.SteadyStateIPDF(m, c0)
            val, _ = integrate.quad(
                lambda u: distlib.ipdf_density(d, c0 / u) * c0 / u**2, 0.0, np.inf)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_mode_at_C0_over_M_plus_2(self):
        mode = 1.6 / 3.6
        fm = distlib.ipdf_density(DIST, mode)
        assert fm > distlib.ipdf_density(DIST, mode * 1.01)
        assert fm > distlib.ipdf_density(DIST, mode * 0.99)

    def test_tail_slope_approaches_density_exponent(self):
        # analytic log-log slope is C0/y - (M+2); within 1e-3 once y >~ 1000 C0
        def slope(y):
            h = 1e-4
            return ((math.log(distlib.ipdf_density(DIST, y * (1 + h)))
                     - math.log(distlib.ipdf_density(DIST, y * (1 - h))))
                    / (math.log(1 + h) - math.log(1 - h)))
        assert slope(5000 * 1.6) == pytest.approx(-3.6, abs=1e-3)
        # approach is monotone from above between 50 C0 and the deep tail
        s50, s500 = slope(50 * 1.6), slope(500 * 1.6)
        assert -3.6 < s500 < s50

    def test_low_income_identity_constant(self):
        # log f + C0/y + (M+2) log y is the constant log normalization
        y = np.geomspace(0.02, 200.0, 200)
        f = distlib.ipdf_density(DIST, y)
        c = np.log(f) + 1.6 / y + 3.6 * np.log(y)
        assert np.ptp(c) < 1e-9

    def test_limits_and_errors(self):
        assert distlib.ipdf_density(DIST, 1e-4) < 1e-300
        assert distlib.ipdf_density(DIST, 1e9) < 1e-20
        with pytest.raises(DomainError):
            distlib.ipdf_density(DIST, 0.0)
        with pytest.raises(DomainError):
            distlib.ipdf_density(DIST, -1.0)
        with pytest.raises(DomainError):
            distlib.ipdf_density(DIST, np.array([1.0, -2.0]))

    def test_overflow_is_a_numerical_error_without_a_warning(self, recwarn):
        # near the mode of a subnormal C0 the density, about 1 / C0, passes the float range
        with pytest.raises(NumericalError, match="the density overflows"):
            distlib.ipdf_density(distlib.SteadyStateIPDF(1.6, 1e-310), 1e-310)
        assert [str(w.message) for w in recwarn] == []


class TestCDF:
    def test_limits(self):
        assert distlib.ipdf_cdf(DIST, 1e12) == pytest.approx(1.0, abs=1e-12)
        assert distlib.ipdf_cdf(DIST, 1e-6) == 0.0
        assert distlib.ipdf_cdf(DIST, math.inf) == 1.0

    def test_median_from_bisection_oracle(self):
        # bisection on the quadrature CDF, frozen: 0.70319181582863
        lo, hi = 0.1, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if quad_cdf(1.6, 1.6, mid) < 0.5:
                lo = mid
            else:
                hi = mid
        median = 0.5 * (lo + hi)
        assert median == pytest.approx(0.70319181582863, rel=1e-9)
        assert distlib.ipdf_cdf(DIST, median) == pytest.approx(0.5, abs=1e-9)

    def test_monotone(self):
        y = np.geomspace(0.05, 50.0, 300)
        f = distlib.ipdf_cdf(DIST, y)
        assert (np.diff(f) >= 0.0).all()
        assert f[0] >= 0.0 and f[-1] <= 1.0

    def test_derivative_matches_density(self):
        # central finite differences on 100 log-spaced points
        y = np.geomspace(0.2, 20.0, 100)
        h = 1e-5
        deriv = (distlib.ipdf_cdf(DIST, y * (1 + h))
                 - distlib.ipdf_cdf(DIST, y * (1 - h))) / (2 * h * y)
        dens = distlib.ipdf_density(DIST, y)
        assert np.max(np.abs(deriv / dens - 1.0)) < 1e-6


def raw_moment(M, C0, k):
    """Closed-form k-th raw moment C0^k Gamma(M+1-k) / Gamma(M+1), k < M + 1."""
    return math.exp(k * math.log(C0) + math.lgamma(M + 1.0 - k) - math.lgamma(M + 1.0))


def density_moment(dist, k):
    """Oracle: the k-th raw moment by quadrature of the package's density."""
    val, _ = integrate.quad(lambda y: y**k * distlib.ipdf_density(dist, y), 0.0, np.inf)
    return val


class TestMoments:
    def test_mean_is_C0_over_M(self):
        assert raw_moment(1.6, 1.6, 1) == pytest.approx(1.0, rel=1e-14)
        assert raw_moment(1.6, 2.0, 1) == pytest.approx(1.25, rel=1e-14)
        assert quad_mean(1.6, 2.0) == pytest.approx(1.25, rel=1e-10)
        assert density_moment(DIST, 1) == pytest.approx(1.0, rel=1e-8)

    def test_divergence_flag(self):
        # second moment cross-check: C0^2 / (M (M - 1))
        assert raw_moment(1.6, 1.6, 2) == pytest.approx(1.6**2 / (1.6 * 0.6), rel=1e-12)
        # the third exists only for M > 2: at M = 1.6, y^3 f(y) falls as
        # y^(1 - M), too slowly to integrate
        y = np.array([1e6, 1e7])
        slope = np.diff(np.log(y**3 * distlib.ipdf_density(DIST, y))) / np.diff(np.log(y))
        assert slope[0] == pytest.approx(1.0 - 1.6, abs=1e-5)

    def test_moment_against_quadrature(self):
        d = distlib.SteadyStateIPDF(3.0, 2.0)
        val, _ = integrate.quad(
            lambda u: (2.0 / u) ** 2 * u**3.0 * math.exp(-u) / math.gamma(4.0),
            0.0, np.inf)
        assert raw_moment(3.0, 2.0, 2) == pytest.approx(val, rel=1e-9)
        assert density_moment(d, 2) == pytest.approx(val, rel=1e-8)


class TestHillTarget:
    def test_against_direct_quadrature(self):
        # oracle: the tail quantile by root-finding on the quadrature CDF, then
        # the mean of log(y / y_q) over the tail against the density, in u = C0/y
        from scipy.optimize import brentq

        kernel = lambda u: u**1.6 * math.exp(-u) / math.gamma(2.6)
        for frac in (0.05, 0.005):
            u_q = brentq(lambda u: integrate.quad(kernel, 0.0, u)[0] - frac, 1e-3, 5.0,
                         xtol=1e-14)
            excess, _ = integrate.quad(lambda u: math.log(u_q / u) * kernel(u), 0.0, u_q)
            oracle = frac / excess + 1.0
            assert distlib.ipdf_hill_exponent(DIST, frac) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("M", (0.05, 0.5, 1.6, 5.0, 20.0, 50.0, 150.0))
    def test_series_matches_quadrature_of_the_tail_integral(self, M):
        # oracle: adaptive quadrature of P(a, x)/x over (0, x_q]; large M with
        # a tail fraction near 1 puts x_q far out and needs the most terms
        a = M + 1.0
        for frac in (1e-4, 0.01, 0.05, 0.5, 0.9, 0.999):
            x_q = gammaincinv(a, frac)
            area, _ = integrate.quad(lambda x: gammainc(a, x) / x, 0.0, x_q,
                                     epsabs=0.0, epsrel=1e-13, limit=200)
            got = distlib.ipdf_hill_exponent(distlib.SteadyStateIPDF(M, 1.0), frac)
            assert got == pytest.approx(frac / area + 1.0, rel=1e-12, abs=0.0)

    def test_frozen_values_and_errors(self):
        # M = C0 = 1.6; the value does not depend on C0
        for frac, want in ((0.05, 3.2949), (0.005, 3.4825), (0.001, 3.5380)):
            assert distlib.ipdf_hill_exponent(DIST, frac) == pytest.approx(want, abs=5e-5)
        wide = distlib.SteadyStateIPDF(1.6, 7.0)
        assert distlib.ipdf_hill_exponent(wide, 0.05) == pytest.approx(
            distlib.ipdf_hill_exponent(DIST, 0.05), rel=1e-12)
        for frac in (0.0, 1.0, -0.1):
            with pytest.raises(DomainError):
                distlib.ipdf_hill_exponent(DIST, frac)


class TestSampling:
    def test_mean_within_three_standard_errors(self):
        y = distlib.ipdf_sample(DIST, 10**6, seed=42)
        var = 1.6**2 / (1.6**2 * 0.6)
        se = math.sqrt(var / y.size)
        assert abs(y.mean() - 1.0) < 3 * se

    def test_deterministic(self):
        a = distlib.ipdf_sample(DIST, 1000, seed=7)
        b = distlib.ipdf_sample(DIST, 1000, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, distlib.ipdf_sample(DIST, 1000, seed=8))

    def test_empty(self):
        assert distlib.ipdf_sample(DIST, 0, seed=1).size == 0
        with pytest.raises(DomainError):
            distlib.ipdf_sample(DIST, -1, seed=1)

    def test_ks_against_own_cdf(self):
        y = np.sort(distlib.ipdf_sample(DIST, 10**5, seed=5))
        f = distlib.ipdf_cdf(DIST, y)
        i = np.arange(1, y.size + 1)
        ks = max(np.max(i / y.size - f), np.max(f - (i - 1) / y.size))
        assert ks < 0.01

    def test_ks_sweep_over_random_parameters(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = rng.uniform(0.5, 5.0)
            c0 = rng.uniform(0.3, 4.0)
            d = distlib.SteadyStateIPDF(m, c0)
            y = np.sort(distlib.ipdf_sample(d, 10**5, seed=int(rng.integers(2**31))))
            f = distlib.ipdf_cdf(d, y)
            i = np.arange(1, y.size + 1)
            ks = max(np.max(i / y.size - f), np.max(f - (i - 1) / y.size))
            assert ks < 0.01, (m, c0, ks)


class TestSpecialFunctions:
    def test_reg_upper_exponential_identity(self):
        for x in (0.0, 0.3, 1.0, 5.0, 40.0):
            assert distlib.reg_upper_incomplete_gamma(1.0, x) == \
                pytest.approx(math.exp(-x), rel=1e-12, abs=1e-300)

    def test_reg_upper_against_quadrature_oracle(self):
        val, _ = integrate.quad(lambda t: t**1.6 * math.exp(-t), 1.6, np.inf)
        val /= math.gamma(2.6)
        assert val == pytest.approx(0.69459211928399, rel=1e-10)
        assert distlib.reg_upper_incomplete_gamma(2.6, 1.6) == \
            pytest.approx(val, rel=1e-10)

    def test_boundaries(self):
        assert distlib.reg_upper_incomplete_gamma(2.5, 0.0) == 1.0
        assert distlib.reg_upper_incomplete_gamma(2.5, math.inf) == 0.0
        with pytest.raises(DomainError):
            distlib.reg_upper_incomplete_gamma(-1.0, 2.0)
        with pytest.raises(DomainError):
            distlib.reg_upper_incomplete_gamma(2.0, -1.0)

    def test_accuracy_against_scipy_grid(self):
        # required accuracy: 1e-10 relative over a in [0.5, 20], x in [0, 100]
        a_vals = [0.5, 1.1, 2.6, 5.0, 9.5, 14.0, 20.0]
        x = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 400)])
        for a in a_vals:
            mine = distlib.reg_upper_incomplete_gamma(a, x)
            ref = upper_gamma_oracle(a, x)
            keep = ref > 1e-280
            rel = np.abs(mine[keep] - ref[keep]) / ref[keep]
            assert rel.max() < 1e-10, (a, rel.max())

    def test_vector_and_scalar_paths_agree(self):
        # scalar calls, and arrays of two sizes, give the same values
        x_small = np.geomspace(0.01, 50.0, 30)
        x_big = np.geomspace(0.01, 50.0, 300)
        a = 3.3
        small = distlib.reg_upper_incomplete_gamma(a, x_small)
        big = distlib.reg_upper_incomplete_gamma(a, x_big)
        for xs, v in zip(x_small, small):
            assert v == distlib.reg_upper_incomplete_gamma(a, float(xs))
        idx = np.searchsorted(x_big, x_small[7])
        assert big[idx] == pytest.approx(
            distlib.reg_upper_incomplete_gamma(a, float(x_big[idx])), rel=1e-14)

    def test_array_of_shapes_matches_scalar_calls_bit_for_bit(self):
        # the fit evaluates (a, a + h, a - h) at its edges in one call
        a = 2.6 * np.array([[1.0], [1.0 + 1e-5], [1.0 - 1e-5]])
        x = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 40), [math.inf]])
        stacked = distlib.reg_upper_incomplete_gamma(a, x)
        assert stacked.shape == (3, x.size)
        for row, ai in zip(stacked, a[:, 0]):
            assert row.tobytes() == distlib.reg_upper_incomplete_gamma(float(ai), x).tobytes()
        pointwise = distlib.reg_upper_incomplete_gamma(a[:, 0], 1.6)
        assert pointwise.tolist() == [distlib.reg_upper_incomplete_gamma(float(ai), 1.6)
                                      for ai in a[:, 0]]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_array_of_shapes_refuses_any_bad_element(self, bad):
        with pytest.raises(DomainError):
            distlib.reg_upper_incomplete_gamma(np.array([[2.6], [bad]]), np.ones(4))


class TestObservedLaw:
    """Observed income is the offset plus model income."""

    LAWS = [distlib.SteadyStateIPDF(1.6, 1.6, 0.15), distlib.SteadyStateIPDF(3.0, 2.0, 0.4)]

    @staticmethod
    def observed_density(d, y):
        return distlib.ipdf_density(d, y - d.offset_ymin) if y > d.offset_ymin else 0.0

    @pytest.mark.parametrize("d", LAWS)
    def test_cdf_matches_quadrature_of_the_shifted_density(self, d):
        ys = d.offset_ymin + np.array([0.05, 0.3, 1.0, 3.0, 20.0])
        got = distlib.observed_cdf(d, ys)
        for y, g in zip(ys, got):
            val, _ = integrate.quad(lambda s: self.observed_density(d, s), d.offset_ymin, y,
                                    epsabs=1e-13, epsrel=1e-12, limit=200)
            assert g == pytest.approx(val, abs=1e-10)

    @pytest.mark.parametrize("d", LAWS)
    def test_cdf_ends(self, d):
        off = d.offset_ymin
        below = distlib.observed_cdf(d, np.array([-1.0, 0.0, 0.5 * off, off]))
        assert (below == 0.0).all()
        assert distlib.observed_cdf(d, off) == 0.0
        assert distlib.observed_cdf(d, math.inf) == 1.0
        assert distlib.observed_argument(d, math.inf) == 0.0
        assert distlib.observed_argument(d, off) == math.inf

    @pytest.mark.parametrize("d", LAWS)
    def test_quantile_inverts_the_cdf(self, d):
        qs = np.linspace(0.0, 1.0, 41)[1:-1]
        assert np.max(np.abs(distlib.observed_cdf(d, distlib.observed_quantile(d, qs)) - qs)) < 1e-12
        assert distlib.observed_quantile(d, 0.0) == d.offset_ymin
        assert distlib.observed_quantile(d, 1.0) == math.inf

    @pytest.mark.parametrize("d", LAWS)
    def test_band_means_match_quadrature(self, d):
        edges = np.array([0.0, 0.5, 0.9, 1.5, 3.0, 6.0])
        got = distlib.observed_band_means(d, edges)
        for lo, hi, g in zip(edges[:-1], edges[1:], got):
            lo = max(lo, d.offset_ymin)
            mass, _ = integrate.quad(lambda s: self.observed_density(d, s), lo, hi,
                                     epsabs=1e-14, epsrel=1e-12)
            first, _ = integrate.quad(lambda s: s * self.observed_density(d, s), lo, hi,
                                      epsabs=1e-14, epsrel=1e-12)
            assert lo <= g <= hi
            assert g == pytest.approx(first / mass, rel=1e-9)

    @pytest.mark.parametrize("offset", [0.0, 0.1, 0.2, 0.3, 5.0])
    def test_band_means_lie_inside_their_bands(self, offset):
        # bands wholly below the offset carry no mass and get their midpoint
        edges = np.array([0.0, 0.1, 0.3, 0.7, 1.5, 3.0, np.inf])
        got = distlib.observed_band_means(distlib.SteadyStateIPDF(1.6, 1.6, offset), edges)
        assert ((edges[:-1] <= got) & (got <= edges[1:])).all()
        if offset == 0.2:
            assert got[0] == 0.05

    def test_nan_income_rejected(self):
        d = self.LAWS[0]
        for fn in (distlib.observed_argument, distlib.observed_cdf, distlib.observed_band_means):
            with pytest.raises(DomainError):
                fn(d, np.array([0.0, math.nan, 1.0]))
        with pytest.raises(DomainError):
            distlib.observed_quantile(d, math.nan)

    def test_overflow_is_a_domain_error_without_a_warning(self, recwarn):
        # a quantile below q = 1 past the float range, and a mean income C0/M past it
        with pytest.raises(DomainError, match="quantile overflows"):
            distlib.observed_quantile(distlib.SteadyStateIPDF(1.6, 1.7e308), [0.5, 0.99])
        for m in (5e-324, 1e-310):
            with pytest.raises(DomainError, match="C0/M overflows"):
                distlib.observed_band_means(distlib.SteadyStateIPDF(m, 1.6), [0.0, 1.0, math.inf])
        assert [str(w.message) for w in recwarn] == []


class TestValidation:
    def test_invalid_params(self):
        with pytest.raises(DomainError):
            distlib.SteadyStateIPDF(0.0, 1.0)
        with pytest.raises(DomainError):
            distlib.SteadyStateIPDF(1.0, -1.0)
        for shape, scale in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError, match="finite and > 0"):
                distlib.SteadyStateIPDF(shape, scale)
        for offset in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError, match="offset_ymin"):
                distlib.SteadyStateIPDF(1.0, 1.0, offset)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("build", [
        lambda m, c: simulate.LangevinParams(M=m, labour_rate=c, dt=1e-3),
        lambda m, c: fpsolve.evolve(fpsolve.bump_density(fpsolve.log_grid(1.6, 1.6, 100), 2.0),
                                    m, c, 1.0),
        lambda m, c: fpsolve.eigenmode_params(1, m, c=c),
    ], ids=["LangevinParams", "evolve", "eigenmode_params"])
    @pytest.mark.parametrize("which", ["M", "C"])
    def test_users_of_the_law_refuse_its_domain(self, build, which, value):
        """Every M and C that the law refuses, its users refuse as it does."""
        m, c = (value, 1.6) if which == "M" else (1.6, value)
        with pytest.raises(DomainError, match="finite and > 0"):
            build(m, c)

    def test_offset_stored_not_applied(self):
        plain = distlib.SteadyStateIPDF(1.6, 1.6)
        shifted = distlib.SteadyStateIPDF(1.6, 1.6, 0.15)
        assert distlib.ipdf_density(plain, 1.0) == distlib.ipdf_density(shifted, 1.0)
        assert distlib.ipdf_cdf(plain, 1.0) == distlib.ipdf_cdf(shifted, 1.0)
