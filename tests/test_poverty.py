"""Tests for the poverty indices.

Oracles: hand-computed two-person populations, adaptive quadrature against
the closed-form density for banded-index tolerances, Monte Carlo averages
of the deprivation curve, and brute-force index recomputation for the
axiom checks.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import integrate

from incomedyn import cli, distlib, estimate, fpsolve, poverty, survey
from incomedyn.errors import DataError, DomainError

DIST = distlib.SteadyStateIPDF(1.6, 1.6, 0.15)
EDGES = np.concatenate([[0.0], np.geomspace(0.3, 6.0, 12), [np.inf]])


def make_round(seed=0, monod=(0.4, 0.5), n=10**6, dist=DIST, edges=EDGES):
    return survey.synth_round(dist, edges, n, seed, monod=monod)


class TestFGT:
    def test_everyone_above_line(self):
        assert poverty.fgt_indices(np.array([2.0, 3.0, 4.0]), 1.0) == (0.0, 0.0, 0.0)

    def test_two_person_hand_computation(self):
        # {0, z}: the person at zero has unit relative gap, the one at z none
        out = poverty.fgt_indices(np.array([0.0, 1.0]), 1.0)
        assert out.hci == pytest.approx(0.5)
        assert out.pg == pytest.approx(0.5)
        assert out.spg == pytest.approx(0.5)

    def test_ordering_on_random_samples(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            y = np.exp(rng.normal(0.0, 1.0, size=200))
            z = rng.uniform(0.3, 2.0)
            hci, pg, spg = poverty.fgt_indices(y, z)
            assert hci >= pg >= spg >= 0.0

    def test_banded_matches_quadrature_oracle(self):
        # line inside a band; oracle integrates the closed-form density
        rnd = make_round(seed=1, n=10**7)
        z = 0.9
        m, c0, off = 1.6, 1.6, 0.15
        norm = c0 ** (m + 1.0) / math.gamma(m + 1.0)
        dens = lambda x: norm * math.exp(-c0 / (x - off)) * (x - off) ** (-(m + 2.0))
        hci_o, _ = integrate.quad(dens, off + 1e-12, z)
        pg_o, _ = integrate.quad(lambda x: (1 - x / z) * dens(x), off + 1e-12, z)
        spg_o, _ = integrate.quad(lambda x: (1 - x / z) ** 2 * dens(x), off + 1e-12, z)
        got = poverty.fgt_indices(rnd, z)
        binning_tol = 0.5 * rnd.shares.max()
        assert abs(got.hci - hci_o) < binning_tol
        assert abs(got.pg - pg_o) < binning_tol
        assert abs(got.spg - spg_o) < binning_tol

    def test_banded_and_sample_agree_for_uniform_bands(self):
        # a sample drawn uniformly within bands must reproduce the banded value
        bands = (survey.Band(0.0, 1.0, 0.5, 0.5, None),
                 survey.Band(1.0, 3.0, 0.5, 2.0, None))
        rnd = survey.BandedDistribution(round_id="u", year=2000.0, bands=bands)
        rng = np.random.default_rng(8)
        sample = np.concatenate([rng.uniform(0.0, 1.0, 200_000),
                                 rng.uniform(1.0, 3.0, 200_000)])
        z = 1.4
        banded = poverty.fgt_indices(rnd, z)
        sampled = poverty.fgt_indices(sample, z)
        assert banded.hci == pytest.approx(sampled.hci, abs=2e-3)
        assert banded.pg == pytest.approx(sampled.pg, abs=2e-3)
        assert banded.spg == pytest.approx(sampled.spg, abs=2e-3)

    def test_banded_line_below_the_first_knot(self):
        rnd = make_round(seed=3, n=10**4, edges=EDGES[1:])
        assert poverty.fgt_indices(rnd, 0.5 * rnd.knots[0]) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("factor", [2.0, 1e4])
    def test_banded_line_above_the_top_knot(self, factor):
        # everyone is poor; uniform on [lo, up] has E(1 - y/z) = 1 - mid/z and
        # E(1 - y/z)^2 = (1 - mid/z)^2 + (up - lo)^2 / (12 z^2), which stay
        # exact to rounding however far the line lies above the bands
        rnd = make_round(seed=3, n=10**4)
        lo, up = rnd.knots[:-1], rnd.knots[1:]
        z = factor * up[-1]
        mid = 0.5 * (lo + up)
        got = poverty.fgt_indices(rnd, z)
        assert got.hci == pytest.approx(1.0, abs=1e-14)
        assert got.pg == pytest.approx(1.0 - np.dot(rnd.shares, mid) / z, rel=1e-14)
        spg = np.dot(rnd.shares, (1.0 - mid / z) ** 2 + (up - lo) ** 2 / (12.0 * z ** 2))
        assert got.spg == pytest.approx(spg, rel=1e-14)

    @pytest.mark.parametrize("z, expected", [(1e300, (1.0, 1.0, 1.0)),
                                             (1.7e308, (1.0, 1.0, 1.0)),
                                             (1e-300, (0.0, 0.0, 0.0))])
    def test_banded_line_at_extreme_scales(self, recwarn, z, expected):
        # the gaps are fractions of z, so z^2 never overflows or underflows
        got = poverty.fgt_indices(make_round(seed=3, n=10**4), z)
        assert got == pytest.approx(expected, abs=1e-14)
        assert got.hci >= got.pg >= got.spg
        assert [str(w.message) for w in recwarn] == []

    def test_bad_line(self):
        with pytest.raises(DomainError):
            poverty.fgt_indices(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(DomainError):
            poverty.fgt_indices(make_round(n=10**4), -1.0)


class TestCDIndexDirect:
    def test_saturated_consumption_gives_zero(self):
        bands = tuple(survey.Band(float(i), i + 1.0, 0.25, i + 0.9, 0.4)
                      for i in range(4))
        rnd = survey.BandedDistribution(round_id="s", year=2000.0, bands=bands)
        mono = estimate.MonodFit(V=0.4, K=0.5, rss=0.0)
        assert poverty.cd_index_direct(rnd, mono) == 0.0

    def test_zero_consumption_gives_V(self):
        bands = tuple(survey.Band(float(i), i + 1.0, 0.25, i + 0.9, 0.0)
                      for i in range(4))
        rnd = survey.BandedDistribution(round_id="z", year=2000.0, bands=bands)
        mono = estimate.MonodFit(V=0.7, K=0.5, rss=0.0)
        assert poverty.cd_index_direct(rnd, mono) == pytest.approx(0.7)

    def test_matches_banded_model_on_synthetic_data(self):
        rnd = make_round(seed=2)
        mono = estimate.MonodFit(V=0.4, K=0.5, rss=0.0)
        direct = poverty.cd_index_direct(rnd, mono)
        banded = poverty.cd_index_banded(rnd, 0.4, 0.5)
        assert abs(direct - banded) < 1e-10

    def test_missing_cereal_errors(self):
        bands = tuple(survey.Band(float(i), i + 1.0, 0.25, i + 0.9, None)
                      for i in range(4))
        rnd = survey.BandedDistribution(round_id="m", year=2000.0, bands=bands)
        with pytest.raises(DataError, match="cereal"):
            poverty.cd_index_direct(rnd, estimate.MonodFit(V=1.0, K=0.5, rss=0.0))


class TestCDIndexModel:
    def test_frozen_quadrature_value(self):
        # independent oracle: gamma-substituted quadrature, frozen at dev time
        val = poverty.cd_index_model(distlib.SteadyStateIPDF(1.6, 1.6), 1.0, 0.5)
        assert val == pytest.approx(0.410188666647948, abs=1e-8)

    def test_monte_carlo_cross_check(self):
        d = distlib.SteadyStateIPDF(1.6, 1.6)
        y = distlib.ipdf_sample(d, 10**6, seed=3)
        cd = 1.0 * 0.5 / (0.5 + y)
        mc = cd.mean()
        se = cd.std() / math.sqrt(y.size)
        val = poverty.cd_index_model(d, 1.0, 0.5)
        assert abs(val - mc) < 3 * se

    def test_offset_consistency(self):
        # with an offset the deprivation is evaluated at observed income
        d_off = distlib.SteadyStateIPDF(1.6, 1.6, 0.15)
        val_off = poverty.cd_index_model(d_off, 1.0, 0.5)
        y = distlib.ipdf_sample(distlib.SteadyStateIPDF(1.6, 1.6), 10**6, seed=4)
        cd = 1.0 * 0.5 / (0.5 + 0.15 + y)
        assert abs(val_off - cd.mean()) < 3 * cd.std() / math.sqrt(y.size)
        assert val_off < poverty.cd_index_model(distlib.SteadyStateIPDF(1.6, 1.6), 1.0, 0.5)

    def test_limits_in_K(self):
        d = distlib.SteadyStateIPDF(1.6, 1.6)
        assert poverty.cd_index_model(d, 1.0, 1e9) == pytest.approx(1.0, abs=1e-6)
        assert poverty.cd_index_model(d, 1.0, 1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = rng.uniform(0.8, 4.0)
            c0 = rng.uniform(0.5, 3.0)
            v = rng.uniform(0.2, 2.0)
            k = rng.uniform(0.1, 3.0)
            val = poverty.cd_index_model(distlib.SteadyStateIPDF(m, c0), v, k)
            assert 0.0 <= val <= v

    def test_grid_density_input(self):
        d = distlib.SteadyStateIPDF(1.6, 1.6)
        grid = fpsolve.log_grid(1.6, 1.6, 3000)
        gd = fpsolve.density_on_grid(d, grid)
        val_grid = poverty.cd_index_model(gd, 1.0, 0.5)
        val_quad = poverty.cd_index_model(d, 1.0, 0.5)
        assert val_grid == pytest.approx(val_quad, abs=1e-4)

    def test_unnormalized_grid_rejected(self):
        grid = fpsolve.log_grid(1.6, 1.6, 500)
        gd = fpsolve.GridDensity(grid, np.ones_like(grid))
        with pytest.raises(DataError, match="mass"):
            poverty.cd_index_model(gd, 1.0, 0.5)

    def test_banded_model_within_binning_error_of_quadrature(self):
        rnd = make_round(seed=5, n=10**7)
        banded = poverty.cd_index_banded(rnd, 0.4, 0.5)
        continuous = poverty.cd_index_model(DIST, 0.4, 0.5)
        assert abs(banded - continuous) < 0.5 * rnd.shares.max() * 0.4

    def test_first_order_dominating_shift_decreases_index(self):
        y = distlib.ipdf_sample(distlib.SteadyStateIPDF(1.6, 1.6), 10**5, seed=6)
        before = np.mean(1.0 * 0.5 / (0.5 + y))
        after = np.mean(1.0 * 0.5 / (0.5 + y + 0.2))
        assert after < before


class TestIndexSeries:
    def _chain(self, means, ks, v=0.3, z=0.45, edges=None):
        # a rising real economy: the band frame, starvation offset, and the
        # consumption curve stay fixed while the mean income grows
        edges = EDGES if edges is None else edges
        offset = 0.15
        rounds, fits, monods = [], [], []
        for i, (mean, k) in enumerate(zip(means, ks)):
            c0 = 1.6 * (mean - offset)
            d = distlib.SteadyStateIPDF(1.6, c0, offset)
            rnd = survey.synth_round(d, edges, 10**6, seed=200 + i,
                                     monod=(v, k),
                                     round_id=f"r{i}", year=1960.0 + 5 * i)
            rounds.append(rnd)
            fits.append(estimate.fit_ipdf(rnd, fix_offset=offset))
            monods.append(estimate.fit_monod(rnd))
        return rounds, fits, monods, poverty.index_series(rounds, fits, monods, z)

    def test_rising_income_lowers_all_indices(self):
        means = [1.0, 1.15, 1.32, 1.5]
        _, _, _, series = self._chain(means, [0.5] * 4)
        for field in ("hci", "pg", "spg", "pcd_direct", "pcd_model"):
            vals = [getattr(r, field) for r in series.rows]
            assert all(b < a for a, b in zip(vals, vals[1:])), (field, vals)

    def test_constant_economy_constant_indices(self):
        _, _, _, series = self._chain([1.0, 1.0, 1.0], [0.5] * 3)
        for field in ("hci", "pg", "spg", "pcd_direct", "pcd_model"):
            vals = [getattr(r, field) for r in series.rows]
            assert max(vals) - min(vals) < 0.02 * max(vals) + 1e-6, (field, vals)

    def test_cereal_price_shock_moves_only_cd_index(self):
        # rising means with a mid-sequence K jump: the CD index rises at the
        # shock while the fixed-line FGT indices keep falling
        means = [1.0, 1.1, 1.21, 1.33, 1.46]
        ks = [0.5, 0.5, 1.1, 0.5, 0.5]
        _, _, _, series = self._chain(means, ks)
        rows = series.rows
        assert rows[2].pcd_direct > rows[1].pcd_direct
        assert rows[2].pcd_model > rows[1].pcd_model
        for field in ("hci", "pg", "spg"):
            vals = [getattr(r, field) for r in rows]
            assert all(b <= a for a, b in zip(vals, vals[1:])), (field, vals)

    def test_misaligned_inputs_rejected(self):
        rounds, fits, monods, _ = self._chain([1.0, 1.2], [0.5, 0.5])
        with pytest.raises(DataError, match="misaligned"):
            poverty.index_series(rounds, fits[:1], monods, 0.45)

    def test_csv_and_diagnostics(self, tmp_path):
        rounds, _, _, _ = self._chain([1.0, 1.2], [0.5, 0.5])
        path, out = tmp_path / "rounds.csv", tmp_path / "out"
        survey.save_rounds(path, rounds)
        assert cli.main(["indices", "--rounds", str(path), "--line", "0.45",
                         "--out-dir", str(out), "--quiet"]) == 0
        lines = (out / "indices.csv").read_text().splitlines()
        assert lines[0] == "round_id,year,hci,pg,spg,pcd_direct,pcd_model"
        assert len(lines) == 3
        # one row per round, IndexRow's fields in header order
        loaded = survey.load_rounds(path)
        series = poverty.index_series(
            loaded, [estimate.fit_ipdf(r, fix_offset=0.15) for r in loaded],
            [estimate.fit_monod(r) for r in loaded], 0.45)
        for line, row in zip(lines[1:], series.rows):
            cells = line.split(",")
            assert cells[0] == row.round_id
            assert [float(c) for c in cells[1:]] == pytest.approx(
                dataclasses.astuple(row)[1:], rel=1e-11)
        diag = json.loads((out / "diagnostics.json").read_text())
        assert {"poverty_line", "pooled_M", "rounds"} <= set(diag)
        for rec in diag["rounds"]:
            assert 0.0 < rec["pcd_direct_normalized"] < 1.0


class TestSenAxioms:
    def test_reduction_strictly_increases_pg(self):
        y = np.array([0.5, 0.8, 2.0, 3.0])
        res = poverty.sen_axiom_check(y, "pg", poverty.Reduce(0, 0.01), line=1.0)
        assert res.passed and res.after > res.before

    def test_transfer_strictly_increases_pcd_by_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            n = int(rng.integers(5, 50))
            y = np.exp(rng.normal(0.0, 1.0, n))
            k = float(rng.uniform(0.3, 1.5))
            v = float(rng.uniform(0.5, 2.0))
            below = np.flatnonzero(y < k)
            if below.size == 0:
                continue
            i = int(rng.choice(below))
            richer = np.flatnonzero(y > y[i])
            if richer.size == 0:
                continue
            j = int(rng.choice(richer))
            d = float(rng.uniform(0.1, 0.9)) * y[i]
            res = poverty.sen_axiom_check(y, "pcd", poverty.Transfer(i, j, d),
                                          monod=(v, k))
            # independent recomputation
            y2 = y.copy()
            y2[i] -= d
            y2[j] += d
            manual = np.mean(v * k / (k + y2)) - np.mean(v * k / (k + y))
            assert res.passed
            assert res.after - res.before == pytest.approx(manual, rel=1e-9)

    def test_hci_transfer_insensitivity_documented(self):
        # donor stays below the line, recipient stays above: headcount
        # unchanged; the strict transfer axiom fails for HCI by construction
        y = np.array([0.4, 0.6, 2.0, 3.0])
        res = poverty.sen_axiom_check(y, "hci", poverty.Transfer(0, 2, 0.1),
                                      line=1.0)
        assert not res.passed
        assert res.after == res.before

    def test_pg_flat_for_poor_to_poor_transfer(self):
        # both below the line and staying there: the gap sum is unchanged, so
        # PG is only weakly monotone under such transfers (why the randomized
        # suite uses the regressive form with the recipient above the line)
        y = np.array([0.2, 0.6, 2.0])
        res = poverty.sen_axiom_check(y, "pg", poverty.Transfer(0, 1, 0.05),
                                      line=1.0)
        assert not res.passed
        assert res.after == pytest.approx(res.before, abs=1e-15)
        spg = poverty.sen_axiom_check(y, "spg", poverty.Transfer(0, 1, 0.05),
                                      line=1.0)
        assert spg.passed

    def test_ineligible_perturbations_error(self):
        y = np.array([0.5, 2.0])
        with pytest.raises(DomainError):
            poverty.sen_axiom_check(y, "pg", poverty.Reduce(1, 0.1), line=1.0)
        with pytest.raises(DomainError):
            poverty.sen_axiom_check(y, "pg", poverty.Transfer(0, 1, 0.6), line=1.0)
        with pytest.raises(DomainError):
            poverty.sen_axiom_check(y, "pg", poverty.Transfer(1, 0, 0.1), line=1.0)

    @pytest.mark.parametrize("index", ["hci", "pg", "spg", "pcd"])
    def test_missing_line_or_curve_is_a_domain_error(self, index):
        y = np.array([0.5, 2.0])
        with pytest.raises(DomainError, match=f"index {index} needs"):
            poverty.sen_axiom_check(y, index, poverty.Reduce(0, 0.1), line=None, monod=None)

    def test_unknown_index_is_a_domain_error(self):
        with pytest.raises(DomainError, match="unknown index"):
            poverty.sen_axiom_check([0.5, 2.0], "gini", poverty.Reduce(0, 0.1), line=1.0)

    def test_randomized_suite_zero_violations(self):
        report = poverty.sen_axiom_suite(n_instances=200, seed=1)
        for ix in ("pg", "spg", "pcd"):
            assert report[ix]["monotonicity"]["violations"] == 0
            assert report[ix]["transfer"]["violations"] == 0
