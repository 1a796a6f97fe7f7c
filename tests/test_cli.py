"""CLI tests: end-to-end smoke runs on the shipped sample files, byte-level
determinism of every command, and the exit-code contract."""

import argparse
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import incomedyn
from incomedyn import fpsolve, simulate
from incomedyn.cli import build_parser, main

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
                     "--dt", 5e-3, "--snapshot-times", "3.0",
                     "--init", "equilibrium", "--seed", 11,
                     "--out-dir", out, "--quiet")
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["final_ks"] < 0.02
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
            assert {"iterations", "unit_standard_errors", "pearson_chi2"} <= set(rnd["fit"])
            assert 0 < rnd["monod"]["evaluations"] <= 16

    @pytest.mark.parametrize("scale, atol", [(1e5, 1e-12), (1e9, 1e-12), (1e160, 1e-8)],
                             ids=["100000.0", "1000000000.0", "1e+160"])
    def test_cd_indices_do_not_depend_on_the_monetary_frame(self, tmp_path, recwarn,
                                                            scale, atol):
        """The CD indices as fractions of V, with rounds and offset in a frame
        ``scale`` times larger, match those in the unit frame, and the
        default offset runs in that frame too.  At 1e160, where V K
        overflows, the fit's information in C0 is of order 1 / C0^2 ~ 1e-320,
        a subnormal number, so the fitted M moves by about 5e-8 and the model
        index by about 1.4e-9."""
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

    def test_evolve(self, tmp_path):
        out = tmp_path / "ev"
        rc = run_cli("evolve", "--cells", 800, "--t-end", 12.0,
                     "--out-dir", out, "--quiet")
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["final_l1_to_steady"] < 1e-3
        assert report["mass_drift_per_unit_time"] < 1e-10
        assert report["residual_on_grid"] < 1e-5

    def test_synth_then_fit_round_trip(self, tmp_path):
        out = tmp_path / "sy"
        rc = run_cli(*synth_args(out))
        assert rc == 0
        out2 = tmp_path / "fit2"
        rc = run_cli("fit", "--rounds", out / "rounds.csv", "--out-dir", out2,
                     "--quiet")
        assert rc == 0
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
            assert rec["relative_operator_residual"] < 1e-2


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

    def test_numerical_failure_is_4(self, tmp_path):
        rc = run_cli("evolve", "--dt", 5.0, "--cells", 200,
                     "--out-dir", tmp_path / "o", "--quiet")
        assert rc == 4

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
    ])
    def test_invalid_option_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out-dir", tmp_path / "o", "--quiet")
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, code", [
        (["fit", "--rounds", _SAMPLE_DIR / "missing.csv"], 3),
        (["simulate", "--agents", 10, "--t-end", 1.0], 3),
        (["evolve", "--dt", 5.0, "--cells", 200], 4),
        # band [0, 8] of NSS-15 holds 12% of households and no model mass
        (["fit", "--rounds", SAMPLE_ROUNDS, "--fix-offset", 20], 3),
        # a population with no spread leaves the Hill estimate a division by zero
        (["simulate", "--agents", 4000, "--t-end", 0.05, "--dt", 5e-3,
          "--sigma", 1e-300], 4),
        # a snapshot at the initial time lies outside (start, t_end] for both solvers
        (["evolve", "--t-end", 0.5, "--cells", 100, "--snapshot-times", 0], 3),
        (["simulate", "--agents", 4000, "--t-end", 0.05, "--dt", 5e-3,
          "--snapshot-times", 0], 3),
        # an extreme grid scale overflows or divides by zero in the FP operator
        (["evolve", "--t-end", 0.5, "--cells", 200, "--C0", 1e300], 4),
        (["evolve", "--t-end", 0.5, "--cells", 200, "--C0", 1e-300], 4),
        # overflow is refused without a RuntimeWarning: a bump too narrow for
        # the grid has no mass, and an eigenmode or its operator residual
        # that overflows is a numerical failure
        (["evolve", "--cells", 200, "--bump-width", 1e-300], 3),
        (["modes", "--C0", 1e300], 4),
        (["modes", "--M", 1e6], 4),
        (["modes", "--C0", 1e-300], 4),
        (["modes", "--A2", 1e300], 4),
        # a comma in a round id would split its CSV cell
        (["synth", "--n", 10, "--round-id", "a,b"], 3),
    ])
    def test_failed_command_leaves_no_output(self, tmp_path, recwarn, argv, code):
        assert run_cli(*argv, "--out-dir", tmp_path / "o", "--quiet") == code
        assert list(tmp_path.iterdir()) == []
        assert [str(w.message) for w in recwarn] == []

    def test_nan_density_is_a_numerical_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fpsolve, "solve_banded", lambda lu, f: np.full_like(f, np.nan))
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


def fresh_process(*argv, check=True) -> subprocess.CompletedProcess:
    """``python argv`` in a fresh interpreter that imports the package from
    this checkout."""
    src = str(Path(incomedyn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, argv)], env=env,
                          capture_output=True, text=True, check=check)


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
    ["evolve", "--t-end", 0.5, "--cells", 100],
    ["synth", "--n", 1000],
    ["modes", "--n-max", 1, "--grid-points", 50],
], ids=lambda argv: argv[0] if argv else "import")
def test_only_indices_loads_scipy_integrate_or_optimize(tmp_path, argv):
    """Cold start: the quadrature and root finder load at their call sites,
    which only the CD index and the Monod fit of ``indices`` reach, and
    importing the CLI builds no parser."""
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


def numeric_options(command: str) -> list:
    """Every option of ``command`` whose value argparse converts."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return [a.option_strings[-1] for a in sub._actions
            if a.option_strings and a.type is not None]


CONTRACT_CASES = [(command, option, value)
                  for command in CONTRACT_BASE
                  for option in numeric_options(command)
                  for value in ("nan", "inf", "-inf", "-1", "0")]


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


@pytest.mark.parametrize("option, value, code", [
    # a line far above every band: everyone is poor with unit gaps
    ("--line", "1e300", 0),
    # squared residuals of the rescaled cereal column overflow
    ("--collapse-to", "1e300", 4),
], ids=["line", "collapse-to"])
def test_extreme_indices_option_prints_no_warning(tmp_path, option, value, code):
    out = tmp_path / "o"
    done = fresh_process("-m", "incomedyn", "indices", *CONTRACT_BASE["indices"],
                         option, value, "--out-dir", out, "--quiet", check=False)
    assert done.returncode == code, done.stderr
    assert "Warning" not in done.stderr
    if code == 0:
        rows = (out / "indices.csv").read_text().splitlines()
        assert [row.split(",")[2:5] for row in rows[1:]] == [["1", "1", "1"]] * 3
