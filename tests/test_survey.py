"""Tests for survey-round handling: loaders, deflation, collapse, empirical
distributions, and the synthetic generator.

Oracles: the closed-form law for band probabilities and CDF comparisons,
scipy quadrature for per-band conditional means, and multinomial standard
errors for the large-n share check.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from incomedyn import distlib, poverty, survey
from incomedyn.errors import DataError, DomainError

DIST = distlib.SteadyStateIPDF(1.6, 1.6, 0.15)
EDGES = np.concatenate([[0.0], np.geomspace(0.3, 6.0, 12), [np.inf]])


def write_rounds_csv(path, rows):
    header = ("round_id,year,band_lower,band_upper,population_share,"
              "mean_total_expenditure,mean_cereal_expenditure\n")
    path.write_text(header + "".join(rows), encoding="utf-8")
    return path


GOOD_ROWS = [
    "r1,1980,0,10,0.3,6,2\n",
    "r1,1980,10,25,0.45,16,5\n",
    "r1,1980,25,60,0.2,38,8\n",
    "r1,1980,60,inf,0.05,90,11\n",
]


class TestLoaders:
    def test_well_formed_round(self, tmp_path):
        path = write_rounds_csv(tmp_path / "r.csv", GOOD_ROWS)
        rnd = survey.load_rounds(path)[0]
        assert len(rnd.bands) == 4
        assert rnd.shares.sum() == pytest.approx(1.0, abs=1e-12)
        assert rnd.has_open_band
        assert rnd.year == 1980.0

    def test_blank_rows_are_skipped_and_still_counted(self, tmp_path):
        # an empty line and a line of empty cells add no band, and an error
        # below them names its line in the file
        rows = [GOOD_ROWS[0], "\n", GOOD_ROWS[1], " , ,,,,,\n", *GOOD_ROWS[2:]]
        blank = survey.load_rounds(write_rounds_csv(tmp_path / "b.csv", rows))[0]
        plain = survey.load_rounds(write_rounds_csv(tmp_path / "r.csv", GOOD_ROWS))[0]
        assert blank.bands == plain.bands
        rows[4] = "r1,1980,25,60,x,38,8\n"
        with pytest.raises(DataError, match=r"b\.csv:6: cannot parse"):
            survey.load_rounds(write_rounds_csv(tmp_path / "b.csv", rows))

    def test_overlapping_bands_rejected_naming_rows(self, tmp_path):
        rows = list(GOOD_ROWS)
        rows[1] = "r1,1980,8,25,0.45,16,5\n"     # overlaps band 0
        path = write_rounds_csv(tmp_path / "r.csv", rows)
        with pytest.raises(DataError, match="rows 0/1"):
            survey.load_rounds(path)

    def test_share_renormalization_policy(self, tmp_path):
        # 0.9995 total: renormalized with a warning
        rows = [
            "r1,1980,0,10,0.2995,6,2\n",
            "r1,1980,10,25,0.45,16,5\n",
            "r1,1980,25,60,0.2,38,8\n",
            "r1,1980,60,inf,0.05,90,11\n",
        ]
        path = write_rounds_csv(tmp_path / "r.csv", rows)
        with pytest.warns(UserWarning, match="renormalizing"):
            rnd = survey.load_rounds(path)[0]
        assert rnd.shares.sum() == pytest.approx(1.0, abs=1e-12)
        # 0.95 total: rejected
        rows[0] = "r1,1980,0,10,0.25,6,2\n"
        path = write_rounds_csv(tmp_path / "r2.csv", rows)
        with pytest.raises(DataError, match="sum to"):
            survey.load_rounds(path)

    def test_cereal_above_total_rejected(self, tmp_path):
        rows = list(GOOD_ROWS)
        rows[0] = "r1,1980,0,10,0.3,6,7\n"
        path = write_rounds_csv(tmp_path / "r.csv", rows)
        with pytest.raises(DataError, match="cereal exceeds"):
            survey.load_rounds(path)

    def test_missing_cereal_cells_allowed(self, tmp_path):
        rows = [r.rsplit(",", 1)[0] + ",\n" for r in GOOD_ROWS]
        path = write_rounds_csv(tmp_path / "r.csv", rows)
        rnd = survey.load_rounds(path)[0]
        assert all(b.mean_cereal_expenditure is None for b in rnd.bands)
        # the cereal column is read only when used, and names the first band without one
        with pytest.raises(DataError, match="round r1: band 0 lacks cereal expenditure"):
            rnd.cereal

    def test_bad_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="header"):
            survey.load_rounds(path)

    def test_multi_round_selection(self, tmp_path):
        rows = GOOD_ROWS + [r.replace("r1", "r2") for r in GOOD_ROWS]
        path = write_rounds_csv(tmp_path / "r.csv", rows)
        assert [r.round_id for r in survey.load_rounds(path)] == ["r1", "r2"]

    def test_round_id_that_breaks_a_csv_cell_rejected(self, tmp_path):
        # csv reads a quoted id whole; written back unquoted it would add a cell
        rows = [r.replace("r1", '"a,b"') for r in GOOD_ROWS]
        path = write_rounds_csv(tmp_path / "r.csv", rows)
        with pytest.raises(DataError, match="round id 'a,b'"):
            survey.load_rounds(path)

    def test_save_load_roundtrip(self, tmp_path):
        rnd = survey.synth_round(DIST, EDGES, 10**5, seed=4, monod=(0.4, 0.5))
        path = tmp_path / "out.csv"
        survey.save_rounds(path, [rnd])
        back = survey.load_rounds(path)[0]
        assert np.allclose(back.shares, rnd.shares, atol=1e-12)
        assert back.year == rnd.year

    def test_saved_rounds_match_the_loaded_text(self, tmp_path):
        # a missing mean is written back as an empty cell
        rows = [GOOD_ROWS[0].replace(",6,2\n", ",,\n"),
                GOOD_ROWS[1].replace(",5\n", ",\n")] + GOOD_ROWS[2:]
        path = write_rounds_csv(tmp_path / "r.csv", rows)
        survey.save_rounds(tmp_path / "out.csv", survey.load_rounds(path))
        assert (tmp_path / "out.csv").read_text() == path.read_text()

    def test_deflator_loading_and_range(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("year,cpi\n1970,50\n1974,100\n1980,200\n")
        table = survey.load_deflators(path)
        assert table.cpi(1974.0) == 100.0
        assert table.cpi(1972.0) == pytest.approx(75.0)   # bracketed interpolation
        with pytest.raises(DataError, match="extrapolation"):
            table.cpi(1960.0)


class TestMonetaryTransforms:
    def make_table(self, tmp_path, cpis):
        path = tmp_path / "d.csv"
        path.write_text("year,cpi\n" + "".join(f"{y},{c}\n" for y, c in cpis))
        return survey.load_deflators(path)

    def test_identity_when_ratio_one(self, tmp_path):
        rnd = survey.synth_round(DIST, EDGES, 10**4, seed=1, monod=(0.4, 0.5),
                                 year=1974.0)
        table = self.make_table(tmp_path, [(1970, 80), (1974, 100), (1980, 150)])
        out = survey.deflate(rnd, table)
        assert np.allclose(out.edges[:-1], rnd.edges[:-1])
        assert out.mean_income() == pytest.approx(rnd.mean_income())

    def test_ratio_two_scales_all_monetary_fields(self, tmp_path):
        rnd = survey.synth_round(DIST, EDGES, 10**4, seed=1, monod=(0.4, 0.5),
                                 year=1980.0)
        table = self.make_table(tmp_path, [(1974, 100), (1980, 50)])
        out = survey.deflate(rnd, table)
        assert np.allclose(out.edges[:-1], 2.0 * rnd.edges[:-1])
        assert out.mean_income() == pytest.approx(2.0 * rnd.mean_income(), rel=1e-12)
        assert np.allclose(out.shares, rnd.shares)

    def test_deflate_inflate_roundtrip(self, tmp_path):
        rnd = survey.synth_round(DIST, EDGES, 10**4, seed=2, monod=(0.4, 0.5),
                                 year=1980.0)
        fwd = self.make_table(tmp_path, [(1974, 100), (1980, 250)])
        out = survey.deflate(rnd, fwd)
        back = survey._scale_monetary(out, 2.5)
        assert np.allclose(back.edges[:-1], rnd.edges[:-1], rtol=1e-12)
        means = [b.mean_total_expenditure for b in back.bands]
        ref = [b.mean_total_expenditure for b in rnd.bands]
        assert np.allclose(means, ref, rtol=1e-12)

    def test_collapse_to_own_mean_is_identity(self):
        rnd = survey.synth_round(DIST, EDGES, 10**4, seed=3, monod=(0.4, 0.5))
        out = survey.collapse_rescale(rnd, rnd.mean_income())
        assert np.allclose(out.edges[:-1], rnd.edges[:-1], rtol=1e-12)

    def test_collapse_to_reference_mean(self):
        rnd = survey.synth_round(DIST, EDGES, 10**4, seed=3, monod=(0.4, 0.5))
        out = survey.collapse_rescale(rnd, 64.84)
        assert out.mean_income() == pytest.approx(64.84, rel=1e-12)

    def test_two_scales_collapse_onto_one_curve(self):
        # same shape at two monetary scales; after collapse the CDFs agree
        lam = 3.7
        d1 = distlib.SteadyStateIPDF(1.6, 1.6, 0.15)
        d2 = distlib.SteadyStateIPDF(1.6, 1.6 * lam, 0.15 * lam)
        r1 = survey.synth_round(d1, EDGES, 10**6, seed=5, monod=(0.4, 0.5))
        r2 = survey.synth_round(d2, EDGES * lam, 10**6, seed=6,
                                monod=(0.4 * lam, 0.5 * lam))
        c1 = survey.collapse_rescale(r1, 1.0)
        c2 = survey.collapse_rescale(r2, 1.0)
        grid = np.geomspace(0.05, 10.0, 150)
        f1 = survey.empirical_cdf(c1)(grid)
        f2 = survey.empirical_cdf(c2)(grid)
        assert np.max(np.abs(f1 - f2)) < 0.01


class TestEmpiricalDistributions:
    def test_cdf_at_last_closed_edge(self):
        rnd = survey.synth_round(DIST, EDGES, 10**5, seed=7, monod=(0.4, 0.5))
        cdf = survey.empirical_cdf(rnd)
        open_share = rnd.bands[-1].population_share
        assert cdf(rnd.bands[-1].lower) == pytest.approx(1.0 - open_share, abs=1e-12)

    def test_ipdf_integrates_to_one(self):
        # the uniform-density reading, share / width between consecutive
        # knots, integrates to the shares' sum, which the CDF reaches at the
        # last knot
        rnd = survey.synth_round(DIST, EDGES, 10**5, seed=8, monod=(0.4, 0.5))
        knots = rnd.knots
        assert knots.size == len(rnd.bands) + 1 and (np.diff(knots) > 0.0).all()
        assert rnd.shares.sum() == pytest.approx(1.0, abs=1e-12)
        assert survey.empirical_cdf(rnd)(knots[-1]) == 1.0

    def test_interpolated_cdf_close_to_model(self):
        rnd = survey.synth_round(DIST, EDGES, 10**7, seed=9, monod=(0.4, 0.5))
        emp = survey.empirical_cdf(rnd)
        grid = np.geomspace(0.2, 8.0, 400)
        model = np.array([distlib.ipdf_cdf(DIST, max(y - 0.15, 1e-12))
                          if y > 0.15 else 0.0 for y in grid])
        sup = np.max(np.abs(emp(grid) - model))
        assert sup < 0.5 * rnd.shares.max()

    def test_single_band_errors(self):
        rnd = survey.BandedDistribution(
            round_id="one", year=2000.0,
            bands=(survey.Band(0.0, math.inf, 1.0, 5.0, 1.0),))
        with pytest.raises(DataError):
            survey.empirical_cdf(rnd)

    def test_open_band_width_from_tail_fit(self):
        rnd = survey.synth_round(DIST, EDGES, 10**6, seed=10, monod=(0.4, 0.5))
        lower, a = rnd.bands[-1].lower, rnd._tail_exponent
        w = rnd.knots[-1] - lower
        assert 0.0 < w < 100.0
        assert w == pytest.approx(lower / (a - 1.0), rel=1e-12)
        np.testing.assert_array_equal(rnd.knots[:-1], rnd.edges[:-1])
        assert np.isfinite(rnd.knots).all()

    def test_knots_of_a_closed_round_are_its_edges(self):
        rnd = survey.synth_round(DIST, EDGES[:-1], 10**4, seed=10, monod=(0.4, 0.5))
        assert rnd.knots is rnd.edges

    def test_shallow_tail_warns_once_per_round(self):
        bands = tuple(survey.Band(lo, up, s, None, None) for lo, up, s in
                      zip([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, math.inf],
                          [0.1, 0.2, 0.6, 0.1]))
        rnd = survey.BandedDistribution(round_id="shallow", year=2000.0, bands=bands)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            survey.empirical_cdf(rnd)
            survey.empirical_cdf(rnd)
            poverty.fgt_indices(rnd, 2.5)
        assert sum("too shallow" in str(w.message) for w in caught) == 1
        assert rnd.knots[-1] == 3.0 + rnd.bands[-2].width


class TestRepresentativeIncomes:
    """Without a recorded mean a closed band is read at its midpoint and the
    open band at the conditional mean lo (a - 1) / (a - 2) of the Pareto
    density y^(-a) fitted through the last two closed bands."""

    @staticmethod
    def _round(shares, first_mean=None):
        means = [first_mean, None, None, None]
        return survey.BandedDistribution(round_id="r", year=2000.0, bands=tuple(
            survey.Band(lo, up, s, m, None) for lo, up, s, m in
            zip([0.0, 1.0, 2.0, 4.0], [1.0, 2.0, 4.0, math.inf], shares, means)))

    def test_closed_band_midpoints_and_recorded_mean(self):
        rnd = self._round([0.25, 0.5, 0.2, 0.05], first_mean=0.6)
        np.testing.assert_array_equal(rnd.representative_incomes()[:3], [0.6, 1.5, 3.0])

    def test_open_band_at_the_pareto_conditional_mean(self):
        rnd = self._round([0.25, 0.5, 0.2, 0.05])
        # densities 0.5 and 0.1 at midpoints 1.5 and 3
        a = math.log(0.5 / 0.1) / math.log(3.0 / 1.5)
        assert a > 2.0
        assert rnd.representative_incomes()[-1] == pytest.approx(
            4.0 * (a - 1.0) / (a - 2.0), rel=1e-14)

    def test_open_band_with_no_finite_mean_at_its_top_knot(self):
        rnd = self._round([0.4, 0.3, 0.2, 0.1])
        assert math.log(0.3 / 0.1) / math.log(2.0) <= 2.0
        assert rnd.representative_incomes()[-1] == rnd.knots[-1]


def test_band_arrays_are_built_once_and_read_only():
    rnd = survey.synth_round(DIST, EDGES, 10**4, seed=10, monod=(0.4, 0.5))
    assert rnd.edges is rnd.edges and rnd.shares is rnd.shares
    assert rnd.knots is rnd.knots and rnd.cereal is rnd.cereal
    np.testing.assert_array_equal(rnd.edges, EDGES)
    np.testing.assert_array_equal(rnd.cereal, [b.mean_cereal_expenditure for b in rnd.bands])
    for arr in (rnd.edges, rnd.shares, rnd.knots, rnd.cereal):
        with pytest.raises(ValueError):
            arr[0] = 1.0


class TestSynthRound:
    def test_shares_match_exact_probabilities(self):
        # multinomial at n = 1e7: observed shares within 4 standard errors
        n = 10**7
        rnd = survey.synth_round(DIST, EDGES, n, seed=11, monod=(0.4, 0.5))
        shifted = EDGES - 0.15
        cdf = np.array([0.0 if e <= 0 else distlib.ipdf_cdf(DIST, e) for e in shifted])
        probs = np.diff(cdf)
        for share, p in zip(rnd.shares, probs):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(share - p) < 4 * se + 1e-12

    def test_conditional_means_match_quadrature_oracle(self):
        rnd = survey.synth_round(DIST, EDGES, 10**4, seed=12, monod=(0.4, 0.5))
        m, c0, off = 1.6, 1.6, 0.15
        norm = c0 ** (m + 1.0) / math.gamma(m + 1.0)
        for b in rnd.bands[1:6]:
            lo, hi = b.lower - off, b.upper - off
            p, _ = integrate.quad(
                lambda y: norm * math.exp(-c0 / y) * y ** (-(m + 2.0)), lo, hi)
            num, _ = integrate.quad(
                lambda y: y * norm * math.exp(-c0 / y) * y ** (-(m + 2.0)), lo, hi)
            oracle = off + num / p
            assert b.mean_total_expenditure == pytest.approx(oracle, rel=1e-8)

    def test_cereal_follows_consumption_curve(self):
        rnd = survey.synth_round(DIST, EDGES, 10**4, seed=13, monod=(0.4, 0.5))
        for b in rnd.bands:
            y = b.mean_total_expenditure
            assert b.mean_cereal_expenditure == pytest.approx(
                0.4 * y / (0.5 + y), rel=1e-12)

    def test_zero_population_rejected(self):
        with pytest.raises(DomainError):
            survey.synth_round(DIST, EDGES, 0, seed=1, monod=(0.4, 0.5))

    def test_truncated_edge_coverage_keeps_conditional_means(self):
        # bands covering only part of the range: conditional means must not
        # depend on the conditioning
        edges = np.concatenate([np.geomspace(0.55, 10.0, 8), [np.inf]])
        d = distlib.SteadyStateIPDF(1.6, 1.6, 0.0)
        rnd = survey.synth_round(d, edges, 10**4, seed=14, monod=(1.0, 0.5))
        b = rnd.bands[0]
        m, c0 = 1.6, 1.6
        norm = c0 ** (m + 1.0) / math.gamma(m + 1.0)
        p, _ = integrate.quad(
            lambda y: norm * math.exp(-c0 / y) * y ** (-(m + 2.0)), b.lower, b.upper)
        num, _ = integrate.quad(
            lambda y: y * norm * math.exp(-c0 / y) * y ** (-(m + 2.0)), b.lower, b.upper)
        assert b.mean_total_expenditure == pytest.approx(num / p, rel=1e-8)


def test_sample_files_load_and_deflate():
    from pathlib import Path
    base = Path(__file__).resolve().parent.parent / "sample_data"
    rounds = survey.load_rounds(base / "rounds.csv")
    table = survey.load_deflators(base / "deflators.csv")
    assert len(rounds) == 3
    deflated = [survey.deflate(r, table) for r in rounds]
    means = [d.mean_income() for d in deflated]
    years = [d.year for d in deflated]
    assert years == sorted(years)
    assert all(m > 0 for m in means)
    assert means[-1] > means[0]


@pytest.mark.parametrize("target", [1.0, 64.84])
def test_deflation_cancels_under_a_collapse(target):
    """A collapse divides by the round's own mean, so the CPI ratio that
    deflation multiplies in cancels: `collapse`, `fit --collapse-to` and
    `indices --collapse-to` read the CPI table only to check the years."""
    from pathlib import Path
    base = Path(__file__).resolve().parent.parent / "sample_data"
    table = survey.load_deflators(base / "deflators.csv")
    for rnd in survey.load_rounds(base / "rounds.csv"):
        deflated = survey.collapse_rescale(survey.deflate(rnd, table), target)
        direct = survey.collapse_rescale(rnd, target)
        np.testing.assert_allclose(deflated.edges, direct.edges, rtol=1e-15, atol=0.0)
