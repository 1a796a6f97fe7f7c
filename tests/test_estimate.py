"""Tests for parameter estimation.

Oracles: synthetic rounds generated from known parameters (round-trip
recovery), central differences of ``band_log_likelihood`` for the scoring
Jacobian and score, grid scans of both objectives around the returned
optimum, the chi-square calibration of the likelihood-ratio statistic, and
the spread of fits over replicate rounds for the standard errors.
"""

import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaincc

from incomedyn import distlib, estimate, survey
from incomedyn.errors import DataError, DomainError

EDGES20 = np.concatenate([[0.0], np.geomspace(0.25, 8.0, 19), [np.inf]])


def make_round(M=1.6, C0=1.6, offset=0.15, n=10**6, seed=0, edges=EDGES20,
               monod=(0.4, 0.5)):
    dist = distlib.SteadyStateIPDF(M, C0, offset)
    return survey.synth_round(dist, edges, n, seed, monod=monod)


class TestFitIPDF:
    def test_round_trip_at_reference_parameters(self):
        rnd = make_round(seed=42)
        fit = estimate.fit_ipdf(rnd, fix_offset=0.15)
        assert fit.converged
        assert fit.M == pytest.approx(1.6, abs=0.05)
        assert fit.C0 == pytest.approx(1.6, abs=0.05)
        assert fit.per_band_expected_shares.sum() == pytest.approx(1.0, abs=1e-9)

    def test_round_trip_other_parameters(self):
        rnd = make_round(M=3.0, C0=2.0, offset=0.0, seed=43)
        fit = estimate.fit_ipdf(rnd, fix_offset=0.0)
        assert fit.M == pytest.approx(3.0, abs=0.05)
        assert fit.C0 == pytest.approx(2.0, abs=0.05)

    def test_fitting_the_offset(self):
        rnd = make_round(seed=44)
        fit = estimate.fit_ipdf(rnd, fix_offset=None)
        assert fit.M == pytest.approx(1.6, abs=0.1)
        assert fit.offset == pytest.approx(0.15, abs=0.1)

    def test_under_identified_round_rejected(self):
        edges = np.array([0.0, 1.0, 3.0, np.inf])
        rnd = make_round(edges=edges, n=10**5, seed=45)
        with pytest.raises(DataError, match="under-identif"):
            estimate.fit_ipdf(rnd)

    def test_likelihood_ratio_statistic_calibration(self):
        # 2 n (ll_hat - ll_true) is asymptotically chi-square(2); below the
        # 99% quantile 9.21 in at least 18 of 20 seeded replicates
        n = 10**6
        passes = 0
        for seed in range(20):
            rnd = make_round(n=n, seed=1000 + seed)
            fit = estimate.fit_ipdf(rnd, fix_offset=0.15)
            ll_true, _ = estimate.band_log_likelihood(rnd, 1.6, 1.6, 0.15)
            lr = 2.0 * n * (fit.log_likelihood - ll_true)
            if lr < 9.21:
                passes += 1
        assert passes >= 18

    def test_scale_equivariance(self):
        lam = 5.0
        d1 = distlib.SteadyStateIPDF(1.6, 1.6, 0.15)
        d2 = distlib.SteadyStateIPDF(1.6, 1.6 * lam, 0.15 * lam)
        r1 = survey.synth_round(d1, EDGES20, 10**6, seed=7, monod=(0.4, 0.5))
        r2 = survey.synth_round(d2, EDGES20 * lam, 10**6, seed=7,
                                monod=(0.4 * lam, 0.5 * lam))
        f1 = estimate.fit_ipdf(r1, fix_offset=0.15)
        f2 = estimate.fit_ipdf(r2, fix_offset=0.15 * lam)
        assert f2.M == pytest.approx(f1.M, rel=1e-6)
        assert f2.C0 == pytest.approx(lam * f1.C0, rel=1e-6)
        m1 = estimate.fit_monod(r1)
        m2 = estimate.fit_monod(r2)
        assert m2.K == pytest.approx(lam * m1.K, rel=1e-6)
        assert m2.V == pytest.approx(lam * m1.V, rel=1e-6)

    def test_budget_exhaustion_flags_non_convergence(self, monkeypatch):
        rnd = make_round(seed=46)
        ll_start, _ = estimate.band_log_likelihood(
            rnd, 1.6, 1.6 * (rnd.mean_income() - 0.15), 0.15)
        monkeypatch.setattr(estimate, "MAX_EVALUATIONS", 1)
        fit = estimate.fit_ipdf(rnd, fix_offset=0.15)
        assert not fit.converged
        assert fit.iterations == 1
        assert np.isnan(fit.unit_standard_errors).all()
        assert fit.M > 0.0 and fit.C0 > 0.0  # best-so-far still returned
        assert fit.log_likelihood >= ll_start

    def test_few_iterations_at_the_reference_parameters(self):
        rnd = make_round(seed=47)
        fixed = estimate.fit_ipdf(rnd, fix_offset=0.15)
        free = estimate.fit_ipdf(rnd, fix_offset=None)
        assert fixed.converged and free.converged
        assert fixed.n_evaluations <= 5 and free.n_evaluations <= 8
        assert len(fixed.unit_standard_errors) == 2
        assert len(free.unit_standard_errors) == 3

    @pytest.mark.parametrize("seed", range(600, 620))
    def test_evaluation_counts_on_criterion_6_rounds(self, seed):
        # the per-fit cost rests on these counts: a cheaper iteration must
        # not come with more of them
        rnd = make_round(seed=seed)
        fixed = estimate.fit_ipdf(rnd, fix_offset=0.15)
        free = estimate.fit_ipdf(rnd, fix_offset=None)
        assert fixed.converged and free.converged
        assert fixed.n_evaluations <= 3 and free.n_evaluations <= 5

    def test_report_writes_an_unavailable_standard_error_as_null(self):
        fit = estimate.fit_ipdf(make_round(n=10**4, seed=48))
        report = replace(fit, unit_standard_errors=(math.nan, 0.5)).report()
        assert report["unit_standard_errors"] == [None, 0.5]

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -0.1])
    def test_offset_outside_the_domain_rejected(self, offset):
        with pytest.raises(DomainError, match="offset"):
            estimate.fit_ipdf(make_round(n=10**4, seed=48), fix_offset=offset)

    @pytest.mark.parametrize("params", [
        (0.0, 1.6, 0.15), (1.6, -1.0, 0.15), (1.6, 1.6, -0.1),
        (1.6, 1.6, math.nan), (1.6, 1.6, math.inf)],
        ids=["M 0", "C0 -1", "offset -0.1", "offset nan", "offset inf"])
    def test_likelihood_outside_the_domain_rejected(self, params):
        with pytest.raises(DomainError):
            estimate.band_log_likelihood(make_round(n=10**4, seed=48), *params)

    def test_a_closed_round_without_mass_has_no_likelihood(self):
        # at C0 = 1e6 every closed edge lies far below the law's mass, so the
        # covered range has probability 0: log likelihood -inf, equal shares
        closed = make_round(n=10**4, seed=48, edges=EDGES20[:-1])
        ll, p = estimate.band_log_likelihood(closed, 1.6, 1e6, 0.15)
        assert ll == -math.inf
        assert p.tolist() == [1.0 / 19] * 19

    def test_offset_above_a_populated_band_rejected(self):
        # band [0, 0.25] holds households; an offset of 0.3 gives it no mass
        rnd = make_round(n=10**5, seed=49, offset=0.0)
        with pytest.raises(DataError, match="populated band"):
            estimate.fit_ipdf(rnd, fix_offset=0.3)

    def test_free_offset_fit_below_a_low_populated_band(self):
        # 0.15 x mean income lies above the populated band [0, 0.14], so the
        # free fit starts at half its upper edge and still recovers the truth
        edges = np.concatenate([[0.0, 0.14], np.geomspace(0.25, 8.0, 10), [np.inf]])
        rnd = make_round(seed=50, offset=0.0, edges=edges)
        assert rnd.shares[0] > 0.0 and 0.15 * rnd.mean_income() >= 0.14
        fit = estimate.fit_ipdf(rnd, fix_offset=None)
        assert fit.converged
        assert fit.M == pytest.approx(1.6, abs=0.05)
        assert fit.C0 == pytest.approx(1.6, abs=0.05)
        assert fit.offset == pytest.approx(0.0, abs=0.01)

    def test_offset_at_its_bound_is_a_constrained_maximum(self):
        # truth offset 0: this replicate's free-offset maximum lies on the
        # bound, where the likelihood may only fall as the offset rises and
        # (M, C0) are stationary
        rnd = make_round(offset=0.0, seed=700)
        fit = estimate.fit_ipdf(rnd, fix_offset=None)
        assert fit.converged and fit.offset == 0.0

        def ll(m, c0, off):
            return estimate.band_log_likelihood(rnd, m, c0, off)[0]

        h = 1e-6
        assert ll(fit.M, fit.C0, h) < fit.log_likelihood
        for dm, dc in ((h, 0.0), (0.0, h)):
            up = ll(fit.M * (1 + dm), fit.C0 * (1 + dc), 0.0)
            down = ll(fit.M * (1 - dm), fit.C0 * (1 - dc), 0.0)
            assert abs(up - down) / (2 * h) < 1e-8
        # a fixed offset at the same bound is never freed, even on a round
        # drawn at offset 0.15 where its score points up
        rnd = make_round(seed=700)
        held = estimate.fit_ipdf(rnd, fix_offset=0.0)
        theta = np.array([held.M, held.C0, held.offset])
        assert estimate._evaluate(rnd, theta, held.C0)[3][2] > 0.0
        assert held.offset == 0.0 and len(held.unit_standard_errors) == 2

    @pytest.mark.parametrize("mean, fix_offset", [(1.0, 0.15), (1.1, None)])
    def test_one_populated_band_fits_without_numpy_warnings(self, mean, fix_offset):
        # every household in [0.794, 1.414); the suite makes any
        # RuntimeWarning an error
        edges = np.concatenate([[0.0], np.geomspace(0.25, 8.0, 7), [np.inf]])
        rnd = survey.BandedDistribution("one", 2000.0, tuple(
            survey.Band(lo, up, float(i == 3), {3: mean, 7: 12.0}.get(i), None)
            for i, (lo, up) in enumerate(zip(edges[:-1], edges[1:]))))
        fit = estimate.fit_ipdf(rnd, fix_offset=fix_offset)
        # the likelihood has no maximum at finite M: the fit stops at its
        # start, and a point that is not a maximum has no standard errors
        assert not fit.converged
        assert len(fit.unit_standard_errors) == (3 if fix_offset is None else 2)
        assert np.isnan(fit.unit_standard_errors).all()
        assert fit.iterations == 0 and fit.n_evaluations == 1
        assert fit.per_band_expected_shares.sum() == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def first_sample_round_closed(shares: dict) -> survey.BandedDistribution:
        """The first sample round's closed bands with ``shares`` keyed by
        lower edge, and no households elsewhere; {13: 0.5, 15: 0.5} is the
        round X-2."""
        root = Path(__file__).resolve().parent.parent / "sample_data"
        nss = survey.load_rounds(root / "rounds.csv")[0]
        return survey.BandedDistribution("X", nss.year, tuple(
            replace(b, population_share=shares.get(b.lower, 0.0))
            for b in nss.bands if not b.is_open))

    @pytest.mark.parametrize("fix_offset", [8.0, None], ids=["fixed", "fitted"])
    @pytest.mark.parametrize("shares", [{13: 1.0}, {13: 0.5, 15: 0.5}, {13: 0.9, 15: 0.1}],
                             ids=["one band", "adjacent 0.5/0.5", "adjacent 0.9/0.1"])
    def test_shares_in_one_or_two_adjacent_bands_stop_at_the_start(self, shares, fix_offset):
        # the law narrows toward a point mass as M grows, which can split its
        # mass between two adjacent bands in any ratio at their shared edge:
        # the likelihood rises toward sum s log s and has no finite maximum
        rnd = self.first_sample_round_closed(shares)
        fit = estimate.fit_ipdf(rnd, fix_offset=fix_offset)
        assert not fit.converged
        assert fit.iterations == 0 and fit.n_evaluations == 1
        assert fit.M == 1.6
        assert np.isnan(fit.unit_standard_errors).all()
        saturated = sum(s * math.log(s) for s in shares.values())
        assert fit.log_likelihood < saturated

    @pytest.mark.parametrize("fix_offset", [8.0, None], ids=["fixed", "fitted"])
    @pytest.mark.parametrize("shares", [{13: 0.5, 18: 0.5}, {13: 0.4, 15: 0.3, 18: 0.3}],
                             ids=["two with a gap", "three"])
    def test_shares_past_two_adjacent_bands_still_converge(self, shares, fix_offset):
        fit = estimate.fit_ipdf(self.first_sample_round_closed(shares), fix_offset=fix_offset)
        assert fit.converged and fit.iterations > 0
        assert 1.0 < fit.M < 20.0
        assert np.isfinite(fit.unit_standard_errors).all()

    @pytest.mark.parametrize("fix_offset", [0.0, 0.15, None])
    def test_a_round_whose_likelihood_rises_toward_M_zero_stops_unconverged(self, fix_offset):
        # four closed bands at 0.25 each: the likelihood's supremum lies at
        # M = 0, outside the law's domain, so no test of where the shares lie
        # can see it; the fit walks M down until no halved step gains, and
        # reports no standard errors (indices then refuses the round)
        rnd = survey.BandedDistribution("Z", 2000.0, tuple(
            survey.Band(lo, up, 0.25, None, None)
            for lo, up in ((0.0, 5.0), (5.0, 10.0), (10.0, 20.0), (20.0, 40.0))))
        fit = estimate.fit_ipdf(rnd, fix_offset=fix_offset)
        assert not fit.converged and fit.iterations > 0
        assert 0.0 < fit.M < 1e-12
        assert np.isnan(fit.unit_standard_errors).all()


class TestScoring:
    """The closed-form Jacobian, the score and the optimum against central
    differences and grid scans of ``band_log_likelihood``."""

    ROUNDS = {
        # open top band; the first edge lies above the offset, so the bands
        # cover only part of the range
        "open": np.concatenate([np.geomspace(0.3, 8.0, 16), [np.inf]]),
        # first edge below the offset; closed top band
        "closed": np.concatenate([[0.0], np.geomspace(0.25, 8.0, 16)]),
    }

    # theta always holds the offset, so all three rows are checked at both
    # offsets: the default fixed 0.15 and 0.1; C0 and the offset are scored
    # relative to c0_ref, absolute at 1, so their rows are c0_ref times
    # dp/dC0 and dp/doffset
    @pytest.mark.parametrize("fit_offset", [False, True])
    @pytest.mark.parametrize("edges", ["open", "closed"])
    def test_jacobian_and_score_match_central_differences(self, edges, fit_offset):
        rnd = make_round(n=10**5, seed=51, edges=self.ROUNDS[edges])
        theta = np.array([1.9, 1.4, 0.1 if fit_offset else 0.15])
        for c0_ref in (1.0, 2.5):
            _, _, jac, score, info = estimate._evaluate(rnd, theta, c0_ref)
            for i, unit in enumerate((1.0, c0_ref, c0_ref)):
                h = 1e-5 * theta[i]
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                ll_up, p_up = estimate.band_log_likelihood(rnd, *up)
                ll_down, p_down = estimate.band_log_likelihood(rnd, *down)
                h /= unit
                numeric = (p_up - p_down) / (2 * h)
                assert np.max(np.abs(jac[i] - numeric)) <= 1e-6 * np.max(np.abs(numeric))
                assert score[i] == pytest.approx((ll_up - ll_down) / (2 * h), rel=1e-6)
            assert np.allclose(info, info.T)
            assert (np.linalg.eigvalsh(info) > 0.0).all()

    @pytest.mark.parametrize("fix_offset", [0.15, 0.0, None])
    @pytest.mark.parametrize("edges", ["open", "closed", "criterion 6"])
    def test_fit_reports_the_likelihood_at_its_own_parameters(self, edges, fix_offset):
        # each point is evaluated once, by the code behind band_log_likelihood,
        # so the reported values are that function's at the fitted theta
        rnd = make_round(seed=53, edges=self.ROUNDS.get(edges, EDGES20))
        fit = estimate.fit_ipdf(rnd, fix_offset=fix_offset)
        ll, p = estimate.band_log_likelihood(rnd, fit.M, fit.C0, fit.offset)
        assert fit.log_likelihood == ll
        assert fit.per_band_expected_shares.tobytes() == p.tobytes()

    @pytest.mark.parametrize("fix_offset", [0.15, None])
    def test_fit_is_a_maximum_on_a_grid(self, fix_offset):
        rnd = make_round(seed=52)
        fit = estimate.fit_ipdf(rnd, fix_offset=fix_offset)
        theta = np.array([fit.M, fit.C0, fit.offset])
        fitted = 3 if fix_offset is None else 2

        def ll(t):
            return estimate.band_log_likelihood(rnd, *t)[0]

        assert ll(theta) == fit.log_likelihood
        for i in range(fitted):
            h = 1e-6 * theta[i]
            step = np.zeros(theta.size)
            step[i] = h
            assert abs(ll(theta + step) - ll(theta - step)) / (2 * h) * theta[i] < 1e-8
        for factors in itertools.product((-1e-4, 0.0, 1e-4), repeat=fitted):
            scale = np.pad(factors, (0, theta.size - fitted))
            assert fit.log_likelihood >= ll(theta * (1.0 + scale))

    @staticmethod
    def deflated_sample_rounds():
        root = Path(__file__).resolve().parent.parent / "sample_data"
        table = survey.load_deflators(root / "deflators.csv")
        return [survey.deflate(r, table) for r in survey.load_rounds(root / "rounds.csv")]

    @pytest.mark.parametrize("source", ["criterion 6", "sample", "at bound"])
    @pytest.mark.parametrize("fitted", [False, True])
    def test_standard_errors_match_a_lapack_inverse(self, monkeypatch, source, fitted):
        # the closed-form inverse of the fit against numpy's inverse of the
        # information _evaluate gives at the fitted point, scaled back from
        # phi = (M, C0 / c0_ref, offset / c0_ref) with the fit's own c0_ref;
        # "at bound" is the round whose fitted offset converges at 0
        if source == "sample":
            rounds, fix = self.deflated_sample_rounds(), 8.0
        elif source == "at bound":
            rounds, fix = [make_round(offset=0.0, seed=700)], 0.0
        else:
            rounds, fix = [make_round(seed=600 + i) for i in range(20)], 0.15
        refs = []
        evaluate = estimate._evaluate

        def spy(rnd, theta, c0_ref):
            refs.append(c0_ref)
            return evaluate(rnd, theta, c0_ref)

        monkeypatch.setattr(estimate, "_evaluate", spy)
        for rnd in rounds:
            fit = estimate.fit_ipdf(rnd, fix_offset=None if fitted else fix)
            assert fit.converged
            n = 3 if fitted else 2
            info = evaluate(rnd, (fit.M, fit.C0, fit.offset), refs[-1])[4]
            scale = np.array([1.0, refs[-1], refs[-1]])[:n]
            lapack = scale * np.sqrt(np.diag(np.linalg.inv(info[:n, :n])))
            np.testing.assert_allclose(fit.unit_standard_errors, lapack, rtol=1e-12, atol=0)

    def test_inverse_masks_a_held_offset(self):
        # held: the (M, C0) block's closed-form 2 x 2 inverse, bit for bit,
        # with a zero third row and column; free: numpy's 3 x 3 inverse
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.standard_normal((3, 3))
            info = a @ a.T + 0.1 * np.eye(3)
            (f00, f01, _), (_, f11, _) = info[:2].tolist()
            det = f00 * f11 - f01 * f01
            held = estimate._inverse(info.tolist(), True)
            assert [row[:2] for row in held[:2]] == [[f11 / det, -f01 / det],
                                                     [-f01 / det, f00 / det]]
            assert held[2] == [0.0] * 3 and [row[2] for row in held] == [0.0] * 3
            free = np.array(estimate._inverse(info.tolist(), False))
            np.testing.assert_allclose(free, np.linalg.inv(info), rtol=1e-12, atol=1e-12)
        # a singular (M, C0) block, and a singular matrix whose block is not
        singular_block = [[1.0, 2.0, 0.5], [2.0, 4.0, 1.0], [0.5, 1.0, 3.0]]
        assert estimate._inverse(singular_block, True) is None
        assert estimate._inverse(singular_block, False) is None
        singular = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]]
        assert estimate._inverse(singular, False) is None
        assert estimate._inverse(singular, True) == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                     [0.0, 0.0, 0.0]]

    def test_standard_errors_and_chi2_match_replicate_spread(self):
        # 200 criterion-6 rounds: the spread of the fitted parameters over
        # replicates against the reported standard errors, and n times the
        # Pearson statistic against its chi-square(20 - 1 - 2) mean
        n = 10**6
        fits = [estimate.fit_ipdf(make_round(n=n, seed=600 + i), fix_offset=0.15)
                for i in range(200)]
        se = np.mean([f.unit_standard_errors for f in fits], axis=0) / math.sqrt(n)
        for i, name in enumerate(("M", "C0")):
            spread = np.std([getattr(f, name) for f in fits], ddof=1)
            assert 0.85 <= spread / se[i] <= 1.15, name
        chi2 = n * np.array([f.pearson_chi2 for f in fits])
        assert abs(chi2.mean() - 17.0) <= 3.0 * math.sqrt(2.0 * 17.0 / chi2.size)


class TestDomainChecks:
    """The law's domain is checked once per fit and per likelihood call, not
    in ``_evaluate``, which calls scipy's ``gammaincc`` directly."""

    # (truth and fitted offset, first edge); the rounds' bands at and below
    # the offset carry no share
    CASES = {
        "offset on an edge": (EDGES20[2], 0.0),
        "offset below the first edge": (0.15, EDGES20[2]),
        "offset above zero-share bands": (0.28, 0.0),
    }

    @pytest.mark.parametrize("top", ["open", "closed"])
    @pytest.mark.parametrize("case", CASES)
    def test_q_is_the_checked_wrapper_byte_for_byte(self, monkeypatch, case, top):
        offset, first = self.CASES[case]
        edges = EDGES20 if top == "open" else EDGES20[:-1]
        edges = np.concatenate([[first], edges[edges > first]])
        rnd = make_round(offset=offset, n=10**5, seed=54, edges=edges)
        calls = []

        def spy(a, x):
            q = gammaincc(a, x)
            calls.append((a, x.copy(), q))
            return q

        monkeypatch.setattr(estimate, "gammaincc", spy)
        estimate.band_log_likelihood(rnd, 1.6, 1.6, offset)
        for fix in (offset, None):
            estimate.fit_ipdf(rnd, fix_offset=fix)
        x = calls[0][1]
        # x is inf at and below the offset, 0 at an open top edge
        assert np.isinf(x[edges <= offset]).all() and np.isfinite(x[edges > offset]).all()
        assert (x[-1] == 0.0) == (top == "open")
        for a, x, q in calls:
            assert q.tobytes() == distlib.reg_upper_incomplete_gamma(a, x).tobytes()

    def test_evaluate_builds_no_law_and_calls_no_wrapper(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("called")

        rnd = make_round(n=10**4, seed=48)
        expected = estimate._evaluate(rnd, (1.6, 1.6, 0.15), 1.6)
        monkeypatch.setattr(distlib, "SteadyStateIPDF", refuse)
        monkeypatch.setattr(distlib, "reg_upper_incomplete_gamma", refuse)
        got = estimate._evaluate(rnd, (1.6, 1.6, 0.15), 1.6)
        assert [np.asarray(v).tobytes() for v in got] == [
            np.asarray(v).tobytes() for v in expected]

    def test_fit_start_outside_the_domain_rejected(self):
        # band means near the float maximum put the start C0, 1.6 x (mean
        # income - offset), at inf: the fit checks its start point once
        rnd = survey.BandedDistribution("huge", 2000.0, tuple(
            survey.Band(lo, up, 0.25, 1.5e308, None)
            for lo, up in zip((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 3.0, math.inf))))
        with pytest.raises(DomainError, match="scale_C0"):
            estimate.fit_ipdf(rnd)

    def test_trial_offset_that_overflows_halves_the_step(self, monkeypatch):
        # the first point's offset score is set to 1 and its inverse
        # information to diag(0, 0, float max), so the full step's offset,
        # start + c0_ref x float max with c0_ref > 1, overflows; the trial
        # guard halves the step 40 times, to 2^-40, and every halved offset
        # is finite and evaluated
        rnd = make_round(n=10**4, seed=48)
        evaluate, inverse = estimate._evaluate, estimate._inverse
        offsets = []

        def spy_evaluate(rnd, theta, c0_ref):
            offsets.append(theta[2])
            values = evaluate(rnd, theta, c0_ref)
            if len(offsets) == 1:
                assert c0_ref > 1.0
                values = values[:3] + (np.array([0.0, 0.0, 1.0]),) + values[4:]
            return values

        def spy_inverse(info, held):
            if len(offsets) == 1:
                return [[0.0] * 3, [0.0] * 3, [0.0, 0.0, sys.float_info.max]]
            return inverse(info, held)

        monkeypatch.setattr(estimate, "_evaluate", spy_evaluate)
        monkeypatch.setattr(estimate, "_inverse", spy_inverse)
        fit = estimate.fit_ipdf(rnd, fix_offset=None)
        assert not fit.converged and fit.iterations == 0
        assert fit.n_evaluations == len(offsets) == 41
        assert all(math.isfinite(off) for off in offsets)
        assert offsets[1] > 1e307

    @pytest.mark.parametrize("fix_offset", [0.15, None])
    def test_a_singular_information_stops_the_fit(self, monkeypatch, fix_offset):
        # no round in the suite turns the information singular since rounds
        # with one or two adjacent populated bands stop before scoring, so
        # the closed-form inverse is made to report a singular matrix
        monkeypatch.setattr(estimate, "_inverse", lambda info, held: None)
        fit = estimate.fit_ipdf(make_round(n=10**4, seed=48), fix_offset=fix_offset)
        assert not fit.converged
        assert fit.iterations == 0 and fit.n_evaluations == 1
        assert np.isnan(fit.unit_standard_errors).all()


class TestFitMonod:
    def test_noiseless_exact_recovery(self):
        edges = np.concatenate([np.geomspace(0.55, 10.0, 15), [np.inf]])
        rnd = survey.synth_round(distlib.SteadyStateIPDF(1.6, 1.6), edges,
                                 10**6, seed=3, monod=(1.0, 0.5))
        fit = estimate.fit_monod(rnd)
        assert fit.V == pytest.approx(1.0, abs=1e-8)
        assert fit.K == pytest.approx(0.5, abs=1e-8)
        assert not fit.k_at_boundary

    def test_noisy_recovery_within_five_percent(self):
        # 1% multiplicative noise on the cereal column, 15 bands; Monte Carlo
        # over seeds: errors concentrate within 5% (K is the softer parameter,
        # with occasional ~6% excursions in the tail of the seed distribution)
        edges = np.concatenate([np.geomspace(0.55, 10.0, 15), [np.inf]])
        within = 0
        for seed in range(8):
            rnd = survey.synth_round(distlib.SteadyStateIPDF(1.6, 1.6), edges,
                                     10**6, seed=50 + seed, monod=(1.0, 0.5))
            rng = np.random.default_rng(900 + seed)
            noisy = []
            for b in rnd.bands:
                factor = 1.0 + 0.01 * rng.standard_normal()
                noisy.append(survey.Band(
                    b.lower, b.upper, b.population_share, b.mean_total_expenditure,
                    min(b.mean_cereal_expenditure * factor, b.mean_total_expenditure)))
            noisy_rnd = survey.BandedDistribution(
                round_id=rnd.round_id, year=rnd.year, bands=tuple(noisy))
            fit = estimate.fit_monod(noisy_rnd)
            assert fit.V == pytest.approx(1.0, rel=0.10)
            assert fit.K == pytest.approx(0.5, rel=0.10)
            if abs(fit.V - 1.0) < 0.05 and abs(fit.K - 0.5) < 0.05 * 0.5:
                within += 1
        assert within >= 7

    def test_constant_consumption_pins_K_to_lower_boundary(self):
        bands = []
        edges = [0.0, 1.0, 2.0, 3.0, 4.0]
        for lo, hi in zip(edges[:-1], edges[1:]):
            bands.append(survey.Band(lo, hi, 0.25, (lo + hi) / 2 + 0.5, 0.3))
        rnd = survey.BandedDistribution(round_id="flat", year=2000.0,
                                        bands=tuple(bands))
        fit = estimate.fit_monod(rnd)
        assert fit.k_at_boundary
        # lower search boundary is min(representative income) / 10
        assert fit.K == pytest.approx(rnd.representative_incomes.min() / 10.0,
                                      rel=1e-6)

    def test_rss_optimal_on_verification_grid(self):
        # returned (V, K) beats a 100 x 100 grid around it
        edges = np.concatenate([np.geomspace(0.55, 10.0, 15), [np.inf]])
        rnd = survey.synth_round(distlib.SteadyStateIPDF(1.6, 1.6), edges,
                                 10**5, seed=60, monod=(1.0, 0.5))
        rng = np.random.default_rng(61)
        noisy = tuple(survey.Band(
            b.lower, b.upper, b.population_share, b.mean_total_expenditure,
            min(b.mean_cereal_expenditure * (1 + 0.02 * rng.standard_normal()),
                b.mean_total_expenditure)) for b in rnd.bands)
        noisy_rnd = survey.BandedDistribution(round_id="n", year=2000.0, bands=noisy)
        fit = estimate.fit_monod(noisy_rnd)
        x = noisy_rnd.representative_incomes
        s = np.array([b.mean_cereal_expenditure for b in noisy_rnd.bands])
        best = fit.rss
        for v in np.linspace(0.9 * fit.V, 1.1 * fit.V, 100):
            for k in np.linspace(0.9 * fit.K, 1.1 * fit.K, 100):
                r = s - v * x / (k + x)
                assert best <= np.dot(r, r) + 1e-12

    @staticmethod
    def noisy_round(seed, rel=0.01):
        rnd = make_round(seed=600 + seed)
        rng = np.random.default_rng(900 + seed)
        bands = tuple(survey.Band(
            b.lower, b.upper, b.population_share, b.mean_total_expenditure,
            min(b.mean_cereal_expenditure * (1 + rel * rng.standard_normal()),
                b.mean_total_expenditure)) for b in rnd.bands)
        return survey.BandedDistribution(round_id="n", year=2000.0, bands=bands)

    @staticmethod
    def curve_data(rnd):
        return rnd.representative_incomes, rnd.cereal

    def test_slope_matches_central_difference_of_rss(self):
        x, s = self.curve_data(self.noisy_round(0))
        h = 1e-5
        for k in (0.05, 0.2, 0.45, 1.3, 20.0):
            u = math.log(k)
            diff = (estimate._monod_profile(x, s, math.exp(u + h))[0]
                    - estimate._monod_profile(x, s, math.exp(u - h))[0]) / (2.0 * h)
            assert estimate._monod_profile(x, s, k)[2] == pytest.approx(
                diff, rel=1e-7, abs=1e-14)

    def test_curvature_matches_central_difference_of_slope(self):
        x, s = self.curve_data(self.noisy_round(0))
        h = 1e-5
        for k in (0.05, 0.2, 0.45, 1.3, 20.0):
            u = math.log(k)
            diff = (estimate._monod_profile(x, s, math.exp(u + h))[2]
                    - estimate._monod_profile(x, s, math.exp(u - h))[2]) / (2.0 * h)
            assert estimate._monod_profile(x, s, k)[3] == pytest.approx(
                diff, rel=1e-7, abs=1e-14)

    @staticmethod
    def brentq_oracle(rnd):
        """(V, K, k_at_boundary) from scipy's Brent root of the profile slope
        on the same bracket and end rule as ``fit_monod``."""
        from scipy.optimize import brentq
        x, s = rnd.representative_incomes, rnd.cereal
        lo, hi = math.log(x.min() / 10.0), math.log(x.max() * 10.0)
        profile = lambda u: estimate._monod_profile(x, s, math.exp(u))
        if profile(lo)[2] < 0.0 < profile(hi)[2]:
            u = brentq(lambda u: profile(u)[2], lo, hi, xtol=1e-15)
        else:
            u = lo if profile(lo)[0] <= profile(hi)[0] else hi
        return profile(u)[1], math.exp(u), (u - lo) < 1e-6 or (hi - u) < 1e-6

    @pytest.mark.parametrize("rel", [0.0, 0.01, 0.05])
    def test_newton_root_matches_brentq(self, rel):
        # criterion-6 rounds 600-619, clean and with cereal noise
        for seed in range(20):
            rnd = self.noisy_round(seed, rel) if rel else make_round(seed=600 + seed)
            fit = estimate.fit_monod(rnd)
            v, k, at_boundary = self.brentq_oracle(rnd)
            assert fit.V == pytest.approx(v, rel=1e-11, abs=0.0)
            assert fit.K == pytest.approx(k, rel=1e-11, abs=0.0)
            assert fit.k_at_boundary == at_boundary
            assert 3 <= fit.evaluations <= (5 if rel == 0.0 else 12)

    def test_unusable_closed_form_start_falls_back_to_the_bracket(self):
        # consumption that jumps between the second and third bands: the
        # least-squares start of s K - V x = -s x is a negative K, yet the
        # profile slope changes sign inside the bracket
        bands = tuple(survey.Band(float(i), i + 1.0, 0.2, i + 0.5, c)
                      for i, c in enumerate((0.06, 0.1, 0.32, 0.31, 0.3)))
        rnd = survey.BandedDistribution(round_id="step", year=2000.0, bands=bands)
        x, s = self.curve_data(rnd)
        k0, _ = np.linalg.lstsq(np.column_stack([s, -x]), -s * x, rcond=None)[0]
        assert k0 < 0.0
        fit = estimate.fit_monod(rnd)
        v, k, at_boundary = self.brentq_oracle(rnd)
        assert not at_boundary
        assert fit.V == pytest.approx(v, rel=1e-11, abs=0.0)
        assert fit.K == pytest.approx(k, rel=1e-11, abs=0.0)
        assert not fit.k_at_boundary

    def test_newton_step_out_of_the_bracket_bisects(self, monkeypatch):
        # consumption that dips and rises again: from the least-squares start
        # a Newton step leaves the bracket, and the bisection that replaces
        # it still reaches Brent's root
        bands = tuple(survey.Band(float(i), i + 1.0, 0.2, i + 0.5, c)
                      for i, c in enumerate((0.38, 0.15, 0.25, 0.49, 0.48)))
        rnd = survey.BandedDistribution(round_id="dip", year=2000.0, bands=bands)
        profile, calls = estimate._monod_profile, []

        def spy(x, s, k):
            calls.append((math.log(k), *profile(x, s, k)[2:4]))
            return profile(x, s, k)
        monkeypatch.setattr(estimate, "_monod_profile", spy)
        fit = estimate.fit_monod(rnd)
        (a, *_), (b, *_) = calls[:2]
        bisections = 0
        for (u, slope, _), (u_next, *_) in zip(calls[2:], calls[3:]):
            a, b = (u, b) if slope < 0.0 else (a, u)
            bisections += u_next == pytest.approx(0.5 * (a + b), rel=0.0, abs=1e-12)
        assert bisections >= 1
        v, k, at_boundary = self.brentq_oracle(rnd)
        assert not at_boundary and not fit.k_at_boundary
        assert fit.V == pytest.approx(v, rel=1e-11, abs=0.0)
        assert fit.K == pytest.approx(k, rel=1e-11, abs=0.0)

    def test_fit_does_not_depend_on_the_monetary_frame(self):
        # the search runs on data over its maxima, so frames from 1e-300,
        # where squares of the data are subnormal, to 1e150 give the unit
        # frame's K and V
        rnd = self.noisy_round(0)
        unit = estimate.fit_monod(rnd)
        for scale in (1e-300, 1e-160, 1e-100, 1e100, 1e150):
            fit = estimate.fit_monod(survey.collapse_rescale(rnd, scale * rnd.mean_income()))
            assert fit.K == pytest.approx(scale * unit.K, rel=1e-12, abs=0.0)
            assert fit.V == pytest.approx(scale * unit.V, rel=1e-12, abs=0.0)
            assert fit.evaluations == unit.evaluations

    def test_proportional_consumption_pins_K_to_upper_boundary(self):
        # s = 0.3 y is the K -> inf limit of the curve: the RSS falls all the way up
        edges = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        bands = tuple(survey.Band(lo, hi, 0.2, 0.5 * (lo + hi), 0.15 * (lo + hi))
                      for lo, hi in zip(edges[:-1], edges[1:]))
        rnd = survey.BandedDistribution(round_id="linear", year=2000.0, bands=bands)
        fit = estimate.fit_monod(rnd)
        assert fit.k_at_boundary
        assert fit.K == pytest.approx(10.0 * rnd.representative_incomes.max(), rel=1e-12)
        assert fit.V / fit.K == pytest.approx(0.3, rel=0.1)

    @pytest.mark.parametrize("seed", range(5))
    def test_noisy_fit_is_a_stationary_minimum(self, seed):
        rnd = self.noisy_round(seed)
        fit = estimate.fit_monod(rnd)
        x, s = self.curve_data(rnd)
        r = x / (fit.K + x)
        roundoff = 1e-14 * 2.0 * fit.V * np.dot(np.abs(s), r * (1.0 - r))
        assert abs(estimate._monod_profile(x, s, fit.K)[2]) <= roundoff
        for k in (fit.K * (1.0 - 1e-6), fit.K * (1.0 + 1e-6)):
            assert fit.rss <= estimate._monod_profile(x, s, k)[0]

    def test_evaluation_count_on_the_criterion_6_round(self):
        fit = estimate.fit_monod(make_round(seed=500))
        assert fit.K == pytest.approx(0.5, rel=1e-12)
        assert 3 <= fit.evaluations <= 5

    def test_missing_cereal_rejected(self):
        bands = tuple(survey.Band(float(i), float(i + 1), 0.25, i + 0.5, None)
                      for i in range(4))
        rnd = survey.BandedDistribution(round_id="x", year=2000.0, bands=bands)
        with pytest.raises(DataError, match="cereal"):
            estimate.fit_monod(rnd)

    def test_too_few_bands(self):
        bands = tuple(survey.Band(float(i), float(i + 1), 0.5, i + 0.6, 0.2)
                      for i in range(2))
        rnd = survey.BandedDistribution(round_id="x", year=2000.0, bands=bands)
        with pytest.raises(DataError, match="at least 3"):
            estimate.fit_monod(rnd)



def test_monod_fit_refuses_a_round_without_cereal_spending():
    # the one estimate refusal no other test reaches; its neighbour, a
    # saturation level V <= 0, needs s.r / r.r to underflow, since s >= 0
    # with some s > 0 and every r > 0, and no round tried does that
    rnd = make_round(seed=3)
    rnd = replace(rnd, bands=tuple(replace(b, mean_cereal_expenditure=0.0) for b in rnd.bands))
    with pytest.raises(DataError, match="cereal expenditures all zero"):
        estimate.fit_monod(rnd)
