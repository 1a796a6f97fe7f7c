"""CLI tests: end-to-end smoke runs on the shipped sample files, byte-level
determinism of every command, and the exit-code contract."""

import argparse
import filecmp
import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import incomedyn
from incomedyn import cli, fpsolve, simulate, survey
from incomedyn.cli import build_parser, main
from test_poverty import quad_gamma_ratio_mean

_SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample_data"
SAMPLE_ROUNDS = str(_SAMPLE_DIR / "rounds.csv")
SAMPLE_DEFLATORS = str(_SAMPLE_DIR / "deflators.csv")


def run_cli(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv) -> int:
    """``main``'s return value, or the code of the SystemExit it raised."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


def assert_identical_trees(a: Path, b: Path):
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def synth_args(out, n=200_000, edges="0,0.3,0.45,0.6,0.8,1.0,1.3,1.7,2.2,3.0,4.5,inf"):
    return ["synth", "--out-dir", out, "--n", n, "--edges", edges,
            "--V", 0.4, "--K", 0.5, "--seed", 5, "--quiet"]


class TestSmoke:
    def test_simulate(self, tmp_path):
        out = tmp_path / "sim"
        rc = run_cli("simulate", "--agents", 30_000, "--t-end", 6.0,
                     "--dt", 5e-3, "--snapshot-times", "3.0,6.0",
                     "--init", "equilibrium", "--seed", 11,
                     "--out-dir", out, "--quiet")
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["final_ks"] < 0.02
        # a snapshot at --t-end is accepted and written once
        assert [row["t"] for row in report["ks_by_time"]] == pytest.approx([3.0, 6.0])
        assert report["increments"] == "two_point"
        assert report["exact_law_hill_density_exponent"] == pytest.approx(3.2949, abs=1e-4)
        assert (out / "histograms.csv").exists()
        assert (out / "manifest.json").exists()

    def test_collapse_on_sample_files(self, tmp_path):
        out = tmp_path / "col"
        rc = run_cli("collapse", "--rounds", SAMPLE_ROUNDS,
                     "--deflators", SAMPLE_DEFLATORS, "--out-dir", out, "--quiet")
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        # rounds from one shape family collapse to within binning error
        assert report["max_cdf_spread"] < report["binning_tolerance"]
        assert (out / "collapsed_cdf.csv").exists()
        assert (out / "model_cdf.csv").exists()

    def test_collapse_without_deflators_writes_the_same_curves(self, tmp_path):
        # rescaling each round to the target mean cancels its deflation
        base = ["collapse", "--rounds", SAMPLE_ROUNDS, "--quiet", "--out-dir"]
        assert run_cli(*base, tmp_path / "cpi", "--deflators", SAMPLE_DEFLATORS) == 0
        assert run_cli(*base, tmp_path / "nominal") == 0
        for name in ("collapsed_cdf.csv", "model_cdf.csv"):
            assert ((tmp_path / "cpi" / name).read_bytes()
                    == (tmp_path / "nominal" / name).read_bytes())

    def test_fit_on_sample_files(self, tmp_path):
        out = tmp_path / "fit"
        rc = run_cli("fit", "--rounds", SAMPLE_ROUNDS,
                     "--deflators", SAMPLE_DEFLATORS,
                     "--collapse-to", 1.0, "--out-dir", out, "--quiet")
        assert rc == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert len(report["fits"]) == 3
        for fit in report["fits"]:
            assert fit["M"] == pytest.approx(1.6, abs=0.1)
            assert fit["converged"] and fit["iterations"] <= 6
            assert len(fit["unit_standard_errors"]) == 2
            assert fit["pearson_chi2"] >= 0.0
        # a fitted offset adds its own standard error and stays at or above 0
        out = tmp_path / "fit-offset"
        assert run_cli("fit", "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS,
                       "--collapse-to", 1.0, "--fit-offset", "--out-dir", out,
                       "--quiet") == 0
        for fit in json.loads((out / "fit_report.json").read_text())["fits"]:
            assert len(fit["unit_standard_errors"]) == 3
            assert fit["offset"] >= 0.0

    def test_indices_on_sample_files(self, tmp_path):
        out = tmp_path / "idx"
        rc = run_cli("indices", "--rounds", SAMPLE_ROUNDS,
                     "--deflators", SAMPLE_DEFLATORS, "--line", 40.0,
                     "--fix-offset", 8.0, "--out-dir", out, "--quiet")
        assert rc == 0
        lines = (out / "indices.csv").read_text().splitlines()
        assert lines[0] == "round_id,year,hci,pg,spg,pcd_direct,pcd_model"
        assert len(lines) == 4
        diag = json.loads((out / "diagnostics.json").read_text())
        assert len(diag["rounds"]) == 3
        for rnd in diag["rounds"]:
            assert {"iterations", "n_evaluations", "unit_standard_errors",
                    "pearson_chi2"} <= set(rnd["fit"])
            assert 0 < rnd["monod"]["evaluations"] <= 16
        out = tmp_path / "pooled"
        assert run_cli("indices", "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS,
                       "--line", 40.0, "--fix-offset", 8.0, "--pooled-M", 1.7,
                       "--out-dir", out, "--quiet") == 0
        assert json.loads((out / "diagnostics.json").read_text())["pooled_M"] == 1.7

    @staticmethod
    def refuses_the_added_round(tmp_path, capsys, round_id, shares):
        """``indices`` on the sample rounds plus the first round's closed
        bands as ``round_id``, with ``shares`` keyed by lower edge and no
        households elsewhere, exits 3, names the round and leaves no output."""
        sample = Path(SAMPLE_ROUNDS).read_text().splitlines()
        added = []
        for row in sample[1:12]:    # the first round's closed bands
            cells = row.split(",")
            cells[0], cells[4] = round_id, shares.get(cells[2], "0")
            added.append(",".join(cells))
        rounds = tmp_path / "rounds.csv"
        rounds.write_text("\n".join(sample + added) + "\n")
        assert run_cli("indices", "--rounds", rounds, "--deflators", SAMPLE_DEFLATORS,
                       "--line", 40.0, "--fix-offset", 8.0,
                       "--out-dir", tmp_path / "idx", "--quiet") == 3
        assert (f"rounds {round_id}: the income-law fit did not converge"
                in capsys.readouterr().err)
        assert not (tmp_path / "idx").exists()

    def test_indices_refuses_a_fit_that_did_not_converge(self, tmp_path, capsys):
        """A round with all its share in one closed band has no finite
        maximum: its fit stops at its start, unconverged.  It is a data
        error that names the round."""
        self.refuses_the_added_round(tmp_path, capsys, "X-1", {"13": "1"})

    def test_indices_refuses_shares_in_two_adjacent_bands(self, tmp_path, capsys):
        """X-2, shares 0.5 / 0.5 in [13, 15) and [15, 18), has no finite
        maximum either: the law can narrow to a point mass on their shared
        edge.  Pooled, its runaway M would move every round's model index."""
        self.refuses_the_added_round(tmp_path, capsys, "X-2", {"13": "0.5", "15": "0.5"})

    @pytest.mark.parametrize("fix_offset", [["--fix-offset", 0.0], []], ids=["0", "default"])
    def test_indices_refuses_a_fit_that_walks_to_M_zero(self, tmp_path, capsys, fix_offset):
        """Four closed bands at 0.25 each: the likelihood's supremum lies at
        M = 0, outside the law's domain; the fit stops unconverged there."""
        rounds = tmp_path / "rounds.csv"
        rounds.write_text(
            "round_id,year,band_lower,band_upper,population_share,"
            "mean_total_expenditure,mean_cereal_expenditure\n"
            + "".join(f"Z,2000,{lo},{up},0.25,,{c}\n"
                      for lo, up, c in ((0, 5, 1), (5, 10, 2), (10, 20, 3), (20, 40, 4))))
        assert run_cli("indices", "--rounds", rounds, "--line", 10.0, *fix_offset,
                       "--out-dir", tmp_path / "idx", "--quiet") == 3
        assert "rounds Z: the income-law fit did not converge" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    def test_indices_at_a_large_pooled_M(self, tmp_path):
        """At M = 200 each round's model CD index matches the quadrature
        oracle; adaptive quadrature on (0, inf) missed the gamma peak there
        and wrote about 1e-29."""
        out = tmp_path / "idx"
        assert run_cli("indices", "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS,
                       "--line", 40.0, "--fix-offset", 8.0, "--pooled-M", 200,
                       "--out-dir", out, "--quiet") == 0
        rows = (out / "indices.csv").read_text().splitlines()[1:]
        diag = json.loads((out / "diagnostics.json").read_text())
        assert len(rows) == len(diag["rounds"]) == 3
        for row, rnd in zip(rows, diag["rounds"]):
            v, k = rnd["monod"]["V"], rnd["monod"]["K"]
            b = k + diag["pooled_offset"]
            expected = v * k / b * quad_gamma_ratio_mean(200.0, rnd["labour_rate"] / b)
            pcd_model = float(row.split(",")[-1])
            assert pcd_model > 1.0
            assert pcd_model == pytest.approx(expected, rel=1e-9)
            assert rnd["cd_quadrature_error"] <= 1e-12

    def test_indices_on_one_round_warns_nothing(self, tmp_path, recwarn):
        assert run_cli(*synth_args(tmp_path / "sy")) == 0
        out = tmp_path / "idx"
        assert run_cli("indices", "--rounds", tmp_path / "sy" / "rounds.csv",
                       "--line", 0.5, "--out-dir", out, "--quiet") == 0
        assert len((out / "indices.csv").read_text().splitlines()) == 2
        assert [str(w.message) for w in recwarn] == []

    def test_indices_of_rounds_sharing_a_year(self, tmp_path):
        # each round gets its own row, rounds of one year in input order
        rows = []
        for round_id, n in (("b", 200_000), ("a", 100_000)):
            out = tmp_path / round_id
            assert run_cli(*synth_args(out, n=n), "--round-id", round_id) == 0
            rows.extend((out / "rounds.csv").read_text().splitlines(keepends=True)[1:])
        both = tmp_path / "rounds.csv"
        both.write_text(_ROUNDS_HEADER + "".join(rows))
        out = tmp_path / "idx"
        assert run_cli("indices", "--rounds", both, "--line", 0.5,
                       "--out-dir", out, "--quiet") == 0
        lines = (out / "indices.csv").read_text().splitlines()[1:]
        assert [line.split(",")[:2] for line in lines] == [["b", "2000"], ["a", "2000"]]
        assert lines[0] != lines[1]

    @pytest.mark.parametrize("scale, atol", [(1e5, 1e-12), (1e9, 1e-12), (1e160, 1e-12)],
                             ids=["100000.0", "1000000000.0", "1e+160"])
    def test_cd_indices_do_not_depend_on_the_monetary_frame(self, tmp_path, recwarn,
                                                            scale, atol):
        """The CD indices as fractions of V, with rounds and offset in a frame
        ``scale`` times larger, match those in the unit frame, and the
        default offset runs in that frame too.  The fit scores C0 relative
        to its start value, so its information stays near unit scale even at
        1e160, where V K overflows and an absolute C0 entry, of order
        1 / C0^2 ~ 1e-320, would be subnormal."""
        def normalized(collapse_to):
            out = tmp_path / f"{collapse_to:g}"
            assert run_cli("indices", "--rounds", SAMPLE_ROUNDS,
                           "--deflators", SAMPLE_DEFLATORS, "--collapse-to", collapse_to,
                           "--fix-offset", 0.15 * collapse_to, "--out-dir", out,
                           "--quiet") == 0
            rounds = json.loads((out / "diagnostics.json").read_text())["rounds"]
            return [[r["pcd_direct_normalized"], r["pcd_model_normalized"]] for r in rounds]

        np.testing.assert_allclose(normalized(scale), normalized(1.0), rtol=0.0, atol=atol)
        assert run_cli("indices", "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS,
                       "--collapse-to", scale, "--out-dir", tmp_path / "default-offset",
                       "--quiet") == 0
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("scale", [1e-160, 1e160], ids=["1e-160", "1e+160"])
    def test_fitted_offset_does_not_depend_on_the_monetary_frame(self, tmp_path, recwarn,
                                                                 scale):
        """A fitted-offset fit of the sample rounds in a frame ``scale`` times
        the unit frame converges without a warning.  M and its standard error
        match the unit frame's, and C0, the offset and their standard errors
        scale with the frame.  The fit scores both C0 and the offset relative
        to the start C0; an absolute offset entry of the information, of
        order 1 / C0^2, would be subnormal at 1e160 and overflow at 1e-160."""
        def fits(collapse_to):
            out = tmp_path / f"{collapse_to:g}"
            assert run_cli("fit", "--rounds", SAMPLE_ROUNDS, "--collapse-to", collapse_to,
                           "--fit-offset", "--out-dir", out, "--quiet") == 0
            reports = json.loads((out / "fit_report.json").read_text())["fits"]
            assert all(r["converged"] for r in reports)
            return np.array([[r["M"], r["C0"], r["offset"], *r["unit_standard_errors"]]
                             for r in reports], dtype=float)

        frame = np.array([1.0, scale, scale, 1.0, scale, scale])
        np.testing.assert_allclose(fits(scale) / frame, fits(1.0), rtol=1e-8, atol=0.0)
        assert [str(w.message) for w in recwarn] == []

    def test_evolve(self, tmp_path):
        out = tmp_path / "ev"
        rc = run_cli("evolve", "--cells", 800, "--t-end", 12.0,
                     "--out-dir", out, "--quiet")
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["final_l1_to_steady"] < 1e-3
        assert report["mass_change"] < 12 * 1e-10
        assert report["residual_on_grid"] < 1e-5

    def test_evolve_of_a_tiny_span_solves_one_window(self, tmp_path):
        # however short the span, its output time takes one window of
        # resolvent solves, and a time requested twice (here as a snapshot
        # and as the end) is written once
        out = tmp_path / "ev"
        assert run_cli("evolve", "--t-end", 1e-13, "--cells", 100,
                       "--snapshot-times", 1e-13, "--out-dir", out, "--quiet") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["solves"] == 32 and report["outputs_per_window"] == [1]
        assert report["mass_change"] < 1e-14
        rows = [line.split(",") for line in
                (out / "convergence.csv").read_text().splitlines()[1:]]
        assert [float(t) for t, _ in rows] == [0.0, 1e-13]

    @pytest.mark.parametrize("argv", [
        ["--t-end", 0.01],
        ["--t-end", 0.004, "--cells", 1000],
    ])
    def test_evolve_of_an_early_first_output_time(self, tmp_path, argv):
        """A first output time a few thousandths after the start, where the
        drift across the low-edge cells is one-way, is written like any
        other: by the contour, within its error bound."""
        out = tmp_path / "ev"
        assert run_cli("evolve", *argv, "--out-dir", out, "--quiet") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["solves"] == 32 and report["taylor_steps"] == 0
        assert report["error_bound"] < 1e-8
        assert report["mass_change"] < 1e-12

    @pytest.mark.parametrize("t_end", [1e30, 1e300, 1.7e308])
    def test_evolve_to_a_huge_time_is_bounded(self, tmp_path, t_end):
        """Whatever t_end, the default snapshots take one window of 32
        resolvent solves, and far past the slowest relaxation they are the
        scheme's steady state at the starting mass; no numpy warning."""
        out = tmp_path / "ev"
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("evolve", "--t-end", t_end, "--cells", 100,
                           "--out-dir", out, "--quiet") == 0
        assert time.perf_counter() - start < 1.0
        report = json.loads((out / "report.json").read_text())
        assert report["mass_change"] < 1e-10
        assert report["solves"] == 32
        assert [p.name for p in tmp_path.iterdir()] == ["ev"]

    def test_synth_then_fit_round_trip(self, tmp_path, capsys):
        out = tmp_path / "sy"
        rc = run_cli(*synth_args(out))
        assert rc == 0
        out2 = tmp_path / "fit2"
        # without --quiet the command prints its one-line summary
        rc = run_cli("fit", "--rounds", out / "rounds.csv", "--out-dir", out2)
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [f"fit: 1 rounds -> {out2}"]
        fit = json.loads((out2 / "fit_report.json").read_text())["fits"][0]
        assert fit["M"] == pytest.approx(1.6, abs=0.1)
        assert fit["C0"] == pytest.approx(1.6, abs=0.1)

    def test_modes(self, tmp_path):
        out = tmp_path / "mo"
        rc = run_cli("modes", "--n-max", 2, "--out-dir", out, "--quiet")
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["steady_state_max_rel_err"] < 1e-10
        params = json.loads((out / "mode_params.json").read_text())["modes"]
        assert params[0]["alpha_plus"] == pytest.approx(3.6)
        assert params[0]["beta_plus"] == pytest.approx(3.6)
        for rec in report["operator_residuals"]:
            assert rec["relative_operator_residual"] < 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c0", [1e-200, 1e-100, 1e100, 1e200, 1e300])
    def test_modes_at_an_extreme_C0(self, tmp_path, c0):
        # the law's density underflows at the low end of the grid at a huge
        # C0; the steady-state check compares where it is a normal float
        out = tmp_path / "mo"
        assert run_cli("modes", "--C0", c0, "--out-dir", out, "--quiet") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["steady_state_max_rel_err"] <= 1e-10


# every command at small settings; synth also with its default auto bands
COMMANDS = [
    ["simulate", "--agents", 5_000, "--t-end", 0.5, "--dt", 5e-3,
     "--seed", 3],
    ["collapse", "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS],
    ["fit", "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS,
     "--collapse-to", 1.0],
    ["indices", "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS,
     "--line", 40.0, "--fix-offset", 8.0],
    ["evolve", "--cells", 400, "--t-end", 5.0],
    ["synth", "--n", 50_000, "--edges", "0,0.5,1,2,4,inf", "--V", 0.3,
     "--K", 0.5],
    ["modes", "--n-max", 1, "--grid-points", 400],
    ["synth", "--n", 1000],
]


def argv_from_manifest(path: Path) -> list:
    """The command line a manifest records: None, False and [] are left out,
    True is a bare flag, a list is comma-joined."""
    manifest = json.loads(path.read_text())
    argv = [manifest["command"]]
    for key, value in manifest["config"].items():
        if value is None or value is False or value == []:
            continue
        argv.append("--" + key.replace("_", "-"))
        if isinstance(value, list):
            argv.append(",".join(str(v) for v in value))
        elif value is not True:
            argv.append(str(value))
    return argv


class TestDeterminism:
    @pytest.mark.parametrize("argv", COMMANDS)
    def test_rerun_is_byte_identical(self, tmp_path, argv):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*argv, "--out-dir", a, "--quiet") == 0
        assert run_cli(*argv, "--out-dir", b, "--quiet") == 0
        assert_identical_trees(a, b)

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_manifest_alone_reproduces_the_output(self, tmp_path, argv):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*argv, "--out-dir", a, "--quiet") == 0
        rerun = argv_from_manifest(a / "manifest.json")
        assert run_cli(*rerun, "--out-dir", b, "--quiet") == 0
        assert_identical_trees(a, b)

    def test_simulate_workers_do_not_change_bytes(self, tmp_path):
        base = ["simulate", "--agents", 40_000, "--t-end", 0.3, "--dt", 5e-3,
                "--seed", 9]
        a, b = tmp_path / "w1", tmp_path / "w4"
        assert run_cli(*base, "--workers", 1, "--out-dir", a, "--quiet") == 0
        assert run_cli(*base, "--workers", 4, "--out-dir", b, "--quiet") == 0
        assert_identical_trees(a, b)


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate")          # missing required --agents
        assert exc.value.code == 2

    def test_unknown_command_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_data_validation_error_is_3(self, tmp_path):
        missing = tmp_path / "nope.csv"
        missing.write_text("bad,header\n1,2\n")
        rc = run_cli("collapse", "--rounds", missing,
                     "--deflators", SAMPLE_DEFLATORS,
                     "--out-dir", tmp_path / "o", "--quiet")
        assert rc == 3

    def test_zero_agents_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--agents", 0, "--out-dir", tmp_path / "o",
                    "--quiet")
        assert exc.value.code == 2

    def test_numerical_failure_is_4(self, tmp_path, capsys, monkeypatch):
        # a bump near the low edge takes Taylor steps before the contour's
        # error bound is met; past the cap on their count the run is refused
        monkeypatch.setattr(fpsolve, "TAYLOR_STEPS", 100)
        rc = run_cli("evolve", "--bump-center", 0.01, "--cells", 200, "--t-end", 0.5,
                     "--out-dir", tmp_path / "o", "--quiet")
        assert rc == 4
        assert "more than 100 Taylor steps" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["evolve", "--span", "abc"],
        ["evolve", "--span", "1e-3,1,1e3"],
        ["simulate", "--agents", 10, "--snapshot-times", "x"],
        ["synth", "--n", 10, "--edges", "0,1,x"],
        ["collapse", "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS,
         "--grid-points", 0],
        ["simulate", "--agents", 10, "--histogram-bins", 0],
        ["modes", "--n-max", -1],
        ["modes", "--grid-points", 0],
        ["synth", "--n", 10, "--auto-bands", 0],
        ["simulate", "--agents", 3000, "--t-end", 0.1, "--workers", 0],
        ["simulate", "--agents", 3000, "--t-end", 0.1, "--workers", -1],
        ["fit", "--rounds", SAMPLE_ROUNDS, "--fix-offset", "nan"],
        ["fit", "--rounds", SAMPLE_ROUNDS, "--fix-offset", "inf"],
        ["fit", "--rounds", SAMPLE_ROUNDS, "--fix-offset", -1],
        ["evolve", "--cells", -1],
        ["evolve", "--span", "0,1"],
        # non-finite times, mode coefficients and an impossible tail fraction
        # are refused by their option's own type
        ["evolve", "--t-end", "inf", "--cells", 100],
        ["evolve", "--t-end", 0.5, "--cells", 100, "--snapshot-times", "nan"],
        ["simulate", "--agents", 5000, "--t-end", "inf"],
        ["simulate", "--agents", 5000, "--t-end", 0.01, "--snapshot-times", "nan"],
        ["modes", "--A1", "nan", "--grid-points", 50],
        ["modes", "--A2", "inf", "--grid-points", 50],
        ["simulate", "--agents", 10_000, "--hill-tail-fraction", 2.0],
        # a collapse to mean 0 is refused, not read as "no collapse"
        ["fit", "--rounds", SAMPLE_ROUNDS, "--collapse-to", 0],
        ["synth", "--n", 10, "--edges", "0,1,2,inf,inf"],
        ["evolve", "--span", "2,1"],
        # the retired --reference-mean is unknown to collapse, fit and indices
        *[[command, "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS,
           "--reference-mean", 64.84] for command in ("collapse", "fit", "indices")],
        # simulate's noise is fixed at sigma^2 = 2 and its labour rate is --C0;
        # no option is taken under a prefix of its name
        ["simulate", "--agents", 4000, "--t-end", 0.05, "--sigma", 1.0],
        ["simulate", "--agents", 4000, "--t-end", 0.05, "--C", 1.6],
        ["evolve", "--t-end", 0.5, "--cells", 100, "--C", 1.6],
        # counts below the library's own minimum: the evolver grid's 8 nodes
        # and a round's 2 bands
        ["evolve", "--cells", 7],
        ["synth", "--n", 1000, "--auto-bands", 1],
    ])
    def test_invalid_option_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out-dir", tmp_path / "o", "--quiet")
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, code", [
        (["fit", "--rounds", _SAMPLE_DIR / "missing.csv"], 3),
        (["simulate", "--agents", 10, "--t-end", 1.0], 3),
        # a grid whose low end is subnormal has steps below the smallest normal float
        (["evolve", "--cells", 200, "--span", "1e-320,1e3"], 4),
        # band [0, 8] of NSS-15 holds 12% of households and no model mass
        (["fit", "--rounds", SAMPLE_ROUNDS, "--fix-offset", 20], 3),
        # one two-point step leaves two distinct incomes, so the top 5% has no
        # spread, and the Hill estimate refuses it as a numerical failure
        (["simulate", "--agents", 4000, "--t-end", 0.005, "--dt", 5e-3], 4),
        # a snapshot at the initial time lies outside (start, t_end] for both solvers
        (["evolve", "--t-end", 0.5, "--cells", 100, "--snapshot-times", 0], 3),
        (["simulate", "--agents", 4000, "--t-end", 0.05, "--dt", 5e-3,
          "--snapshot-times", 0], 3),
        # an extreme grid scale overflows or divides by zero in the FP operator
        (["evolve", "--t-end", 0.5, "--cells", 200, "--C0", 1e300], 4),
        (["evolve", "--t-end", 0.5, "--cells", 200, "--C0", 1e-300], 4),
        # overflow is refused without a RuntimeWarning: a bump too narrow for
        # the grid has no mass, and an eigenmode that overflows is a
        # numerical failure
        (["evolve", "--cells", 200, "--bump-width", 1e-300], 3),
        (["modes", "--M", 1e6], 4),
        (["modes", "--C0", 1e-300], 4),
        (["modes", "--A2", 1e300], 4),
        # a comma in a round id would split its CSV cell
        (["synth", "--n", 10, "--round-id", "a,b"], 3),
        # the slack past --t-end is a fraction of the step: 5e-10 is 490 steps past it
        (["simulate", "--agents", 2000, "--t-end", 1e-11, "--dt", 1e-12,
          "--snapshot-times", 5e-10], 3),
        # at M = 2 the n = 0 minus branch has a pole, so a nonzero A1 is refused
        (["modes", "--M", 2, "--A1", 1], 3),
        # the gamma peak of the model CD index at M = 1e5 is narrower than the
        # finest step of its rule, and at 1e306 its weights' exponent
        # overflows; at 1e307 the model scale C0 = M (mean - offset) overflows
        *[(["indices", "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS,
            "--line", 40.0, "--fix-offset", 8.0, "--pooled-M", pooled_m], code)
          for pooled_m, code in ((1e5, 3), (1e306, 3), (1e307, 4))],
        # the model scale C0 = M (target mean - offset) of a collapse overflows
        (["collapse", "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS,
          "--M", 1e300, "--target-mean", 1e300], 4),
        # at the smallest subnormal C0 a log-spaced grid's lower end underflows
        # to 0: simulate's histogram edges, evolve's grid and modes' grid
        (["simulate", "--agents", 4000, "--t-end", 0.05, "--dt", 5e-3, "--C0", 5e-324], 4),
        (["evolve", "--t-end", 0.5, "--cells", 100, "--C0", 5e-324], 4),
        (["modes", "--C0", 5e-324], 4),
        # a one-point grid at C0 / 600, where the law's density underflows
        (["modes", "--C0", 1e100, "--grid-points", 1], 4),
        # at a subnormal C0 the steps of simulate's histogram edges and of
        # evolve's grid fall below the smallest normal float
        (["simulate", "--agents", 4000, "--t-end", 0.05, "--dt", 5e-3, "--C0", 1e-310], 4),
        (["evolve", "--C0", 1e-310, "--t-end", 0.5, "--cells", 100], 4),
        # the contour of a subnormal span reaches past the float range
        (["evolve", "--t-end", 1e-310, "--cells", 100], 4),
        # collapse's CDF grid: its upper end overflows, or its steps are subnormal
        *[(["collapse", "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS,
            "--target-mean", target], 4) for target in (1e307, 1e-310)],
        # synth's mean income C0/M, its quantile edges and its cereal V y
        # overflow, each refused where it is computed
        (["synth", "--n", 1000, "--M", 5e-324], 3),
        (["synth", "--n", 1000, "--M", 1e-310], 3),
        (["synth", "--n", 1000, "--C0", 1.7e308], 3),
        (["synth", "--n", 1000, "--V", 1.7e308], 3),
        # the sum behind the final sample mean overflows
        (["simulate", "--agents", 4000, "--t-end", 0.05, "--dt", 5e-3, "--C0", 1e307], 4),
    ])
    def test_failed_command_leaves_no_output(self, tmp_path, recwarn, argv, code):
        assert run_cli(*argv, "--out-dir", tmp_path / "o", "--quiet") == code
        assert list(tmp_path.iterdir()) == []
        assert [str(w.message) for w in recwarn] == []

    def test_nan_density_is_a_numerical_failure(self, tmp_path, monkeypatch):
        # every resolvent solve gives NaN
        monkeypatch.setattr(fpsolve, "solve_banded",
                            lambda op, z, rhs: np.full_like(rhs, np.nan))
        assert run_cli("evolve", "--t-end", 0.5, "--cells", 100,
                       "--out-dir", tmp_path / "o", "--quiet") == 4
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_report_value_is_a_numerical_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simulate, "hill_tail_exponent", lambda *args: float("nan"))
        assert run_cli("simulate", "--agents", 4000, "--t-end", 0.05, "--dt", 5e-3,
                       "--out-dir", tmp_path / "o", "--quiet") == 4
        assert list(tmp_path.iterdir()) == []

    # 5% of 1000 agents is below the 100 tail samples the estimate needs
    @pytest.mark.parametrize("argv", [
        ["--agents", 1000],
    ])
    def test_impossible_hill_request_fails_before_the_ensemble(
            self, tmp_path, monkeypatch, argv):
        def run(*args, **kwargs):
            raise AssertionError("the ensemble ran")
        monkeypatch.setattr(simulate, "run", run)
        assert run_cli("simulate", *argv, "--out-dir", tmp_path / "o",
                       "--quiet") == 3
        assert list(tmp_path.iterdir()) == []


_FRESH_PROCESS_PROBE = """
import json, sys
from incomedyn import cli
for _ in range(int(sys.argv[1])):
    if cli.main(sys.argv[2:]) != 0:
        sys.exit("command failed")
print(json.dumps({"parsers": cli.build_parser.cache_info().misses, "scipy": [
    m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules]}))
"""


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports the package from
    this checkout."""
    src = str(Path(incomedyn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def fresh_process(*argv, check=True) -> subprocess.CompletedProcess:
    """``python argv`` in a fresh interpreter that imports the package from
    this checkout."""
    return subprocess.run([sys.executable, *map(str, argv)], env=fresh_env(),
                          capture_output=True, text=True, check=check)


@pytest.mark.parametrize("run", [
    ["--agents", "4000", "--t-end", "1e5"],
    # two threads, each marching a 20 000-agent chunk
    ["--agents", "40000", "--t-end", "1000", "--workers", "2"],
], ids=["one-worker", "two-workers"])
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_a_signal_leaves_no_output_and_no_traceback(tmp_path, sig, run):
    """``python -m incomedyn`` stopped by a signal while a long ``simulate``
    runs exits 128 + the signal's number within 2 s, prints nothing, and
    leaves neither ``--out-dir`` nor its temporary directory.  The running
    chunks finish their segment of steps first, with any worker count."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "incomedyn", "simulate", *run, "--out-dir", str(tmp_path / "o")],
        env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60.0
        while not list(tmp_path.glob(".o-*")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.5)     # let the chunks start marching
        signalled = time.monotonic()
        proc.send_signal(sig)
        out, err = proc.communicate(timeout=60.0)
        waited = time.monotonic() - signalled
    finally:
        proc.kill()
    assert (proc.returncode, out, err) == (128 + sig, "", "")
    assert waited < 2.0
    assert list(tmp_path.iterdir()) == []


def probe_fresh_process(*argv, runs=1) -> dict:
    """The parsers built and the modules out of scipy.integrate and
    scipy.optimize held by a fresh interpreter after importing the package
    and running ``argv`` ``runs`` times."""
    done = fresh_process("-c", _FRESH_PROCESS_PROBE, runs, *argv)
    return json.loads(done.stdout)


@pytest.mark.parametrize("argv", [
    [],
    ["simulate", "--agents", 4000, "--t-end", 0.05, "--dt", 5e-3],
    ["collapse", "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS],
    ["fit", "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS],
    ["indices", "--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS,
     "--line", 40.0, "--fix-offset", 8.0],
    ["evolve", "--t-end", 0.5, "--cells", 100],
    ["synth", "--n", 1000],
    ["modes", "--n-max", 1, "--grid-points", 50],
], ids=lambda argv: argv[0] if argv else "import")
def test_no_command_loads_scipy_integrate_or_optimize(tmp_path, argv):
    """Cold start: the CD index has its own quadrature rule and the Monod
    fit its own root finder, so no command loads scipy.integrate or
    scipy.optimize, and importing the CLI builds no parser."""
    out = ["--out-dir", tmp_path / "o", "--quiet"] if argv else []
    probe = probe_fresh_process(*argv, *out, runs=1 if argv else 0)
    assert probe["scipy"] == []
    if not argv:
        assert probe["parsers"] == 0


def test_parser_is_built_once_per_process(tmp_path):
    argv = ["synth", "--n", 1000, "--out-dir", tmp_path / "o", "--quiet"]
    assert probe_fresh_process(*argv, runs=3)["parsers"] == 1


# the later command of each pair resolves a default into its namespace:
# synth's auto edges into args.edges, evolve's bump centre from --C0
@pytest.mark.parametrize("first, later", [
    (["synth", "--n", 1000], ["synth", "--n", 1000, "--M", 2]),
    (["evolve"], ["evolve", "--C0", 3.2]),
], ids=["synth", "evolve"])
def test_cached_parser_leaks_nothing_between_calls(tmp_path, first, later):
    """Run in one process after ``first``, ``later`` writes the tree, manifest
    included, that it writes in a fresh process."""
    assert run_cli(*first, "--quiet", "--out-dir", tmp_path / "first") == 0
    assert run_cli(*later, "--quiet", "--out-dir", tmp_path / "later") == 0
    fresh_process("-m", "incomedyn", *later, "--quiet", "--out-dir", tmp_path / "fresh")
    assert_identical_trees(tmp_path / "later", tmp_path / "fresh")


def test_manifest_echoes_config(tmp_path):
    out = tmp_path / "m"
    run_cli(*synth_args(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["seed"] == 5
    assert manifest["config"]["n"] == 200_000


def test_csv_cell_formats_follow_the_first_row(tmp_path):
    # a str cell is written as is, any other value, int or numpy float, as %.12g
    path = tmp_path / "t.csv"
    survey.write_csv(path, ["id", "n", "x"], iter([("r1", 2, np.float64(1 / 3)),
                                                   ("r2", 10**13, 1e-300)]))
    assert path.read_text() == "id,n,x\nr1,2,0.333333333333\nr2,1e+13,1e-300\n"
    survey.write_csv(path, ["t", "y"], [])
    assert path.read_text() == "t,y\n"


def test_long_csv_matches_a_row_by_row_write(tmp_path):
    # a file far longer than any the commands write
    rows = [(f"r{i}", i, 1.0 / (i + 3)) for i in range(2 * 2048 + 5)]
    path = tmp_path / "t.csv"
    survey.write_csv(path, ["id", "n", "x"], iter(rows))
    assert path.read_text() == "id,n,x\n" + "".join("%s,%.12g,%.12g\n" % r for r in rows)


@pytest.mark.parametrize("keys", [
    ["r1", "NSS-15%d", "100%", "%s%%"],
    [0, 7, -3, 10**13],
    [0.0, 1 / 3, -2.5e-7, 1e300],
], ids=["str", "int", "float"])
def test_curves_match_write_csv_on_the_same_rows(tmp_path, keys):
    grid = np.array([0.0, -0.0, 5e-324, 1e300, -1e300, 1 / 3])
    curves = [np.array([0.0, -0.0, 5e-324, 1e300, -1e300, np.nan]),
              np.array([np.inf, -np.inf, 1.0, 2.0 / 3, 1e-300, 7.0]),
              np.arange(6.0), np.full(6, -0.0)]
    for ks, cs, g in [(keys, curves, grid), (keys[:1], curves[:1], grid),
                      (keys, [c[-1:] for c in curves], grid[-1:]),
                      (keys[1:2], [curves[1][:1]], grid[:1])]:
        survey.write_curves(tmp_path / "curves.csv", ["key", "y", "v"], ks, g, cs)
        survey.write_csv(tmp_path / "rows.csv", ["key", "y", "v"],
                         [(k, y, v) for k, c in zip(ks, cs) for y, v in zip(g, c)])
        assert (tmp_path / "curves.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_percent_in_a_round_id_is_written_verbatim(tmp_path):
    text = Path(SAMPLE_ROUNDS).read_text()
    rounds = tmp_path / "rounds.csv"
    rounds.write_text(text.replace("\nNSS-15,", "\nNSS-15%d,"))
    out = tmp_path / "col"
    assert run_cli("collapse", "--rounds", rounds, "--deflators", SAMPLE_DEFLATORS,
                   "--out-dir", out, "--quiet") == 0
    ids = [line.split(",")[0] for line in
           (out / "collapsed_cdf.csv").read_text().splitlines()[1:]]
    assert ids.count("NSS-15%d") == 200 and "NSS-15" not in ids


# each command at a size that runs in milliseconds; a swept option is
# appended after these, so its value is the one argparse keeps
CONTRACT_BASE = {
    "simulate": ["--agents", 4000, "--t-end", 0.05, "--dt", 5e-3],
    "collapse": ["--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS,
                 "--grid-points", 50],
    "fit": ["--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS],
    "indices": ["--rounds", SAMPLE_ROUNDS, "--deflators", SAMPLE_DEFLATORS,
                "--line", 40.0, "--fix-offset", 8.0],
    "evolve": ["--t-end", 0.5, "--cells", 200],
    "synth": ["--n", 1000],
    "modes": ["--grid-points", 100],
}


_LINALG_PROBE = """
import json, sys
from incomedyn import cli
loaded = ["scipy.linalg" in sys.modules]
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit("command failed")
    loaded.append("scipy.linalg" in sys.modules)
print(json.dumps(loaded))
"""


@pytest.mark.parametrize("commands, after", [
    (["simulate", "collapse", "fit", "indices", "synth", "modes", "evolve"], [True]),
    (["indices"], [False]),
], ids=["evolve-last", "indices"])
def test_only_evolve_loads_scipy_linalg(tmp_path, commands, after):
    """Cold start: ``evolve`` imports LAPACK where it factors a matrix, and
    ``indices``, which once loaded scipy.linalg through its quadrature and
    root finder, now loads it no more than any other command.  One fresh
    process imports the package and runs ``commands`` in turn; scipy.linalg
    may first appear only after ``evolve``."""
    argv = [[c, *map(str, CONTRACT_BASE[c]), "--out-dir", str(tmp_path / c), "--quiet"]
            for c in commands]
    done = fresh_process("-c", _LINALG_PROBE, json.dumps(argv))
    loaded = json.loads(done.stdout)
    assert loaded == [False] * len(commands) + after


def numeric_options(command: str) -> dict:
    """Every option of ``command`` whose value argparse converts, by name,
    with its converter."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return {a.option_strings[-1]: a.type for a in sub._actions
            if a.option_strings and a.type is not None}


def takes_one_float(convert) -> bool:
    """Whether an option's converter takes one float: a count option
    refuses "0.5", and a list option converts it to a list."""
    try:
        return isinstance(convert("0.5"), float)
    except argparse.ArgumentTypeError:
        return False


CONTRACT_CASES = [(command, option, value)
                  for command in CONTRACT_BASE
                  for option in numeric_options(command)
                  for value in ("nan", "inf", "-inf", "-1", "0")]

# a count option could ask for a huge array or thousands of threads, so the
# sweep leaves it out; simulate's --t-end and --dt are in, as its step count
# is bounded
MAGNITUDE_CASES = [(command, option, value)
                   for command in CONTRACT_BASE
                   for option, convert in numeric_options(command).items()
                   if takes_one_float(convert)
                   for value in ("5e-324", "1e-310", "1e-300", "1e-200", "1e-100", "1e-30",
                                 "1e30", "1e100", "1e200", "1e300", "1e307", "1.7e308")]


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("command, option, value", CONTRACT_CASES,
                         ids=[f"{c}{o}={v}" for c, o, v in CONTRACT_CASES])
def test_every_numeric_option_keeps_the_exit_code_contract(
        tmp_path, recwarn, command, option, value):
    """nan, inf, -inf, -1 or 0 for any numeric option exits 0, 2, 3 or 4 with
    no Python warning; a failure leaves nothing behind, and a success writes
    strict JSON and CSV without NaN."""
    out = tmp_path / "o"
    rc = exit_code(command, *CONTRACT_BASE[command], f"{option}={value}",
                   "--out-dir", out, "--quiet")
    assert rc in (0, 2, 3, 4)
    if rc != 0:
        assert list(tmp_path.iterdir()) == []
    for path in tmp_path.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=_refuse_constant)
    for path in tmp_path.rglob("*.csv"):
        for line in path.read_text().splitlines():
            assert "nan" not in line.lower().split(","), (path.name, line)
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, option, value", MAGNITUDE_CASES,
                         ids=[f"{c}{o}={v}" for c, o, v in MAGNITUDE_CASES])
def test_every_float_option_at_an_extreme_magnitude_keeps_the_contract(
        tmp_path, command, option, value):
    """Every option that takes one float, at a subnormal, tiny, huge or
    nearly largest magnitude, exits 0, 2, 3 or 4 with warnings as errors;
    a failure leaves neither ``--out-dir`` nor its temporary directory."""
    rc = exit_code(command, *CONTRACT_BASE[command], f"{option}={value}",
                   "--out-dir", tmp_path / "o", "--quiet")
    assert rc in (0, 2, 3, 4)
    if rc != 0:
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option, value, code", [
    # a line far above every band: everyone is poor with unit gaps
    ("--line", "1e300", 0),
    # squared residuals of the rescaled cereal column overflow
    ("--collapse-to", "1e200", 4),
    ("--collapse-to", "1e300", 4),
    ("--collapse-to", "1e305", 4),
    # ten times the highest income is within a factor 2 of the largest float
    ("--collapse-to", "1e307", 4),
], ids=["line", "collapse-to-1e200", "collapse-to", "collapse-to-1e305", "collapse-to-1e307"])
def test_extreme_indices_option_prints_no_warning(tmp_path, option, value, code):
    out = tmp_path / "o"
    done = fresh_process("-m", "incomedyn", "indices", *CONTRACT_BASE["indices"],
                         option, value, "--out-dir", out, "--quiet", check=False)
    assert done.returncode == code, done.stderr
    assert "Warning" not in done.stderr
    if code == 0:
        rows = (out / "indices.csv").read_text().splitlines()
        assert [row.split(",")[2:5] for row in rows[1:]] == [["1", "1", "1"]] * 3


_ROUNDS_HEADER = ("round_id,year,band_lower,band_upper,population_share,"
                  "mean_total_expenditure,mean_cereal_expenditure\n")
# band_lower,band_upper,population_share,mean_total,mean_cereal of a valid round
_BANDS = ("0,1,0.4,0.5,0.2", "1,2,0.3,1.5,0.4", "2,4,0.2,3,0.5", "4,inf,0.1,6,0.6")


def rounds_file(*bands, year="1980"):
    return _ROUNDS_HEADER + "".join(f"r,{year},{b}\n" for b in bands)


def deflators_file(*rows):
    return "year,cpi\n" + "".join(f"{row}\n" for row in rows)


# case: (rounds file, deflators file or None, a fragment of the error message);
# with None, fit and indices read the rounds undeflated and collapse deflates
# them by a valid table
MALFORMED_DATA = {
    # non-finite numbers: a year, a CPI, a mean or a cereal value
    "year-inf": (rounds_file(*_BANDS, year="inf"), None, "rounds.csv:2: year inf is not finite"),
    "year-nan": (rounds_file(*_BANDS, year="nan"), None, "rounds.csv:2: year nan is not finite"),
    "deflator-year-inf": (rounds_file(*_BANDS), deflators_file("1970,40", "inf,80"),
                          "deflators.csv:3: year inf is not finite"),
    "cpi-inf": (rounds_file(*_BANDS), deflators_file("1970,40", "1990,inf"),
                "deflators.csv:3: CPI inf is not finite"),
    "mean-inf": (rounds_file(_BANDS[0], "1,2,0.3,inf,0.4", *_BANDS[2:]), None,
                 "round r: row 1: mean expenditure must be positive and finite"),
    "cereal-nan": (rounds_file(_BANDS[0], "1,2,0.3,1.5,nan", *_BANDS[2:]), None,
                   "round r: row 1: cereal expenditure must be nonnegative and finite"),
    # the file's layout
    "unparsable-number": (rounds_file("0,1,0.4,abc,0.2", *_BANDS[1:]), None,
                          "rounds.csv:2: cannot parse number 'abc'"),
    "field-count": (rounds_file("0,1,0.4,0.5", *_BANDS[1:]), None,
                    "rounds.csv:2: expected 7 fields"),
    "conflicting-years": (rounds_file(*_BANDS) + "r,1981,8,9,0,,\n", None,
                          "rounds.csv:6: round r has conflicting years"),
    "no-data-rows": (_ROUNDS_HEADER, None, "rounds.csv: no data rows"),
    # the bands of a round
    "band-gap": (rounds_file(*_BANDS[:2], "2.5,4,0.2,3,0.5", _BANDS[3]), None,
                 "round r: rows 1/2: gap between bands"),
    "share-outside-unit-interval": (
        rounds_file("0,1,-0.25,0.5,0.2", "1,2,0.75,1.5,0.4", "2,4,0.25,3,0.5",
                    "4,inf,0.25,6,0.6"), None, "round r: row 0: share -0.25 outside"),
    "two-open-bands": (rounds_file("0,1,0.4,0.5,0.2", "1,inf,0.3,1.5,0.4", "2,inf,0.3,3,0.5"),
                       None, "round r: row 1: only the last band may be open-ended"),
    # the open band's tail fit; a two-band round is refused by the fit before
    # it reaches the tail, so only collapse meets the tail fit's message
    "one-closed-band": (rounds_file("0,1,0.9,,", "1,inf,0.1,,"), None,
                        "round r: (tail fit needs two closed bands|2 bands under-identify)"),
    # one closed band from 0: collapse takes its knot range from lower edges above 0
    "one-band-from-zero": (rounds_file("0,5,1,2.5,1"), None,
                           "round r: (need at least 2 bands for a CDF|1 bands under-identify)"),
    "zero-share-in-tail-fit": (rounds_file("0,1,0.5,,", "1,2,0.4,,", "2,4,0,,", "4,inf,0.1,,"),
                               None, "round r: tail fit needs positive shares"),
    # the deflator table
    "repeated-deflator-year": (rounds_file(*_BANDS),
                               deflators_file("1970,40", "1970,50", "1990,80"),
                               "deflator years must be strictly increasing"),
    "zero-cpi": (rounds_file(*_BANDS), deflators_file("1970,0", "1990,80"),
                 "CPI values must be positive"),
    "deflator-header": (rounds_file(*_BANDS), "year,CPI\n1970,40\n1990,80\n",
                        "deflators.csv: expected header year,cpi"),
}


@pytest.mark.parametrize("command", ["collapse", "fit", "indices"])
@pytest.mark.parametrize("case", MALFORMED_DATA)
def test_malformed_data_file_is_a_data_error(tmp_path_factory, tmp_path, recwarn, capsys,
                                             case, command):
    """A malformed rounds or deflators file exits 3 with a message that names
    the file's line or the round's band, leaves no output and prints no
    Python warning."""
    rounds, deflators, message = MALFORMED_DATA[case]
    data = tmp_path_factory.mktemp("data")
    (data / "rounds.csv").write_text(rounds)
    (data / "deflators.csv").write_text(deflators or deflators_file("1970,40", "1990,80"))
    deflate = ["--deflators", data / "deflators.csv"] if deflators or command == "collapse" else []
    assert run_cli(command, "--rounds", data / "rounds.csv", *deflate,
                   "--out-dir", tmp_path / "o", "--quiet") == 3
    assert re.search(message, capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []
    assert [str(w.message) for w in recwarn] == []
