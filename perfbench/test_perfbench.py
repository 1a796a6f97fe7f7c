"""Fast tests of the benchmark itself: every output check rejects a wrong
answer, the ensemble does not depend on the worker count, and the tracer
restores the program it wraps."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import hyp1f1

import run

run.load_program()

from incomedyn import cli, distlib, estimate, simulate, survey  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

M, C0 = 1.6, 1.6


def write_csv(path: Path, header: list, rows) -> None:
    lines = [",".join(header)] + [",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                                           for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

def test_ensemble_check_accepts_the_law_and_rejects_a_shifted_one():
    y = wl.equilibrium_sample(100_000, seed=4)
    assert oracles.check_ensemble(y, M, C0) == []
    assert any("KS" in p for p in oracles.check_ensemble(1.05 * y, M, C0))
    assert any("mean" in p for p in oracles.check_ensemble(y + 0.03, M, C0))
    bad = y.copy()
    bad[7] = -1.0
    assert oracles.check_ensemble(bad, M, C0) == ["incomes not all finite and positive"]


def test_ensemble_incomes_do_not_depend_on_the_worker_count():
    pop = simulate.AgentPopulation(incomes=wl.equilibrium_sample(70_000, seed=5),
                                   time=0.0, seed=5)
    params = wl.langevin_params()
    one = simulate.run_steps(pop, params, 20, workers=1)[-1]
    many = simulate.run_steps(pop, params, 20, workers=max(2, wl.nproc()))[-1]
    assert np.array_equal(one.incomes, many.incomes)


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def fake_fit(shares, M_, C0_, offset, **over):
    ll, p = oracles.log_likelihood(shares, wl.EDGES20, M_, C0_, offset)
    fields = dict(M=M_, C0=C0_, offset=offset, log_likelihood=ll, converged=True,
                  n_evaluations=1, per_band_expected_shares=p)
    fields.update(over)
    return estimate.FitResult(**fields)


def test_fit_check_accepts_the_mle_and_rejects_a_wrong_m():
    shares, rnd = wl.FitRounds(seed=6).make_round(0)
    fit = estimate.fit_ipdf(rnd, fix_offset=wl.FIT_TRUTH[2])
    problems, lr = oracles.check_fit(fit, shares, wl.EDGES20, wl.FIT_TRUTH, wl.HOUSEHOLDS)
    assert problems == [] and lr >= 0.0
    wrong = fake_fit(shares, 1.7, 1.6, 0.15)
    problems, _ = oracles.check_fit(wrong, shares, wl.EDGES20, wl.FIT_TRUTH, wl.HOUSEHOLDS)
    assert any("below the truth" in p for p in problems)
    assert any(p.startswith("M =") for p in problems)


def test_monod_check_accepts_the_exact_curve_and_rejects_a_wrong_k():
    _, rnd = wl.FitRounds(seed=6).make_round(2)
    assert oracles.check_monod(estimate.fit_monod(rnd), wl.MONOD_TRUTH) == []
    wrong = estimate.MonodFit(V=0.4, K=0.5 + 1e-6, rss=0.0)
    assert oracles.check_monod(wrong, wl.MONOD_TRUTH) == ["K = 0.500001, truth 0.5"]


def test_fit_check_rejects_misreported_likelihood_and_shares():
    shares, _ = wl.FitRounds(seed=6).make_round(1)
    good = fake_fit(shares, *wl.FIT_TRUTH)
    assert oracles.check_fit(good, shares, wl.EDGES20, wl.FIT_TRUTH, wl.HOUSEHOLDS)[0] == []
    lying = fake_fit(shares, *wl.FIT_TRUTH, log_likelihood=good.log_likelihood + 1e-6)
    assert oracles.check_fit(lying, shares, wl.EDGES20, wl.FIT_TRUTH, wl.HOUSEHOLDS)[0]
    skewed = fake_fit(shares, *wl.FIT_TRUTH,
                      per_band_expected_shares=good.per_band_expected_shares * 1.001)
    problems, _ = oracles.check_fit(skewed, shares, wl.EDGES20, wl.FIT_TRUTH, wl.HOUSEHOLDS)
    assert any("sum to" in p for p in problems)


def test_lr_share_rule_allows_five_in_a_hundred():
    q = oracles.lr_quantile(2)
    assert q == pytest.approx(9.2103, abs=1e-4)
    five = [(q + 1.0, q)] * 5 + [(1.0, q)] * 95
    assert oracles.lr_share_failures(five) == set()
    six = [(q + 1.0, q)] * 6 + [(1.0, q)] * 94
    assert oracles.lr_share_failures(six) == set(range(6))


def test_band_means_match_the_program_synthesizer():
    dist = distlib.SteadyStateIPDF(*wl.FIT_TRUTH)
    rnd = survey.synth_round(dist, wl.EDGES20, 1000, 0, (0.4, 0.5))
    ours = oracles.band_means(wl.EDGES20, *wl.FIT_TRUTH)
    theirs = [b.mean_total_expenditure for b in rnd.bands]
    assert np.allclose(ours, theirs, rtol=1e-10)


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def test_collapse_check_rejects_a_shifted_cdf(tmp_path):
    s = {"M": 1.6, "offset_frac": 0.15, "reference_mean": 64.84}
    offset = 0.15 * 64.84
    c0 = 1.6 * (64.84 - offset)
    y = np.geomspace(2.0, 400.0, 50)
    cdf = oracles.observed_cdf(y, 1.6, c0, offset)
    write_csv(tmp_path / "model_cdf.csv", ["y", "cdf"], zip(y, cdf))
    assert oracles._check_collapse(tmp_path, s) == []
    shifted = oracles.observed_cdf(y * 1.01, 1.6, c0, offset)
    write_csv(tmp_path / "model_cdf.csv", ["y", "cdf"], zip(y, shifted))
    assert oracles._check_collapse(tmp_path, s)


def test_modes_check_rejects_a_wrong_m(tmp_path):
    s = {"M": M, "C0": C0, "n_max": 1, "grid_points": 300}
    grid = np.geomspace(C0 / 600.0, 60.0 * C0, 300)
    x = C0 / grid

    def write(m):
        rows = []
        for n in range(2):
            sn = math.sqrt((1.0 + m) ** 2 + 8.0 * math.pi * n)
            a, b = ((m + 2.0, m + 2.0) if n == 0 else ((3.0 + m + sn) / 2.0, 1.0 + sn))
            rows += [(float(n), yi, gi) for yi, gi in zip(grid, x ** a * hyp1f1(a, b, -x))]
        write_csv(tmp_path / "modes.csv", ["n", "y", "g"], rows)

    (tmp_path / "report.json").write_text(json.dumps({"steady_state_max_rel_err": 0.0}))
    write(M)
    assert oracles._check_modes(tmp_path, s) == []
    write(M + 0.01)
    assert oracles._check_modes(tmp_path, s)


def test_evolve_check_accepts_the_solver_and_rejects_a_reversed_run(tmp_path):
    out = tmp_path / "evolve"
    argv = ["evolve", "--cells", "200", "--t-end", "4", "--quiet", "--out-dir", str(out)]
    assert cli.main(argv) == 0
    s = {"M": 1.6, "C0": 1.6, "cells": 200}
    assert oracles.check_cli("evolve", out, 0, s) == []
    cols = oracles.read_csv(out / "snapshots.csv")
    t = np.array(cols["t"])
    times = list(dict.fromkeys(cols["t"]))
    rows = [(new_t, y, f) for new_t, old_t in zip(times, reversed(times))
            for y, f in zip(np.array(cols["y"])[t == old_t], np.array(cols["f"])[t == old_t])]
    write_csv(out / "snapshots.csv", ["t", "y", "f"], rows)
    assert "L1 distance to the steady state increases" in oracles._check_evolve(out, s)


def test_indices_and_synth_checks_reject_broken_rows(tmp_path):
    header = ["round_id", "year", "hci", "pg", "spg", "pcd_direct", "pcd_model"]
    write_csv(tmp_path / "indices.csv", header, [("a", 1.0, 0.5, 0.2, 0.1, 0.1, 0.1)])
    assert oracles._check_indices(tmp_path, {}) == []
    write_csv(tmp_path / "indices.csv", header, [("a", 1.0, 0.5, 0.2, 0.3, 0.1, 0.1)])
    assert oracles._check_indices(tmp_path, {})
    write_csv(tmp_path / "rounds.csv", ["population_share"], [(0.5,), (0.49,)])
    assert oracles._check_synth(tmp_path, {})


def test_cli_check_rejects_a_failed_command_and_missing_files(tmp_path):
    assert oracles.check_cli("synth", tmp_path, 3, {}) == ["exit code 3"]
    assert oracles.check_cli("synth", tmp_path, 0, {})[0].startswith("missing")


# ---------------------------------------------------------------------------
# tracer and entry point
# ---------------------------------------------------------------------------

def test_tracer_records_nested_spans_and_restores_the_program():
    original = distlib.reg_upper_incomplete_gamma
    dist = distlib.SteadyStateIPDF(M, C0)
    with spans.Tracer() as tracer:
        assert distlib.reg_upper_incomplete_gamma is not original
        distlib.ipdf_cdf(dist, np.array([0.5, 1.0, 2.0]))
    assert distlib.reg_upper_incomplete_gamma is original
    assert tracer.count("distlib.ipdf_cdf") == 1
    assert tracer.count("distlib.reg_upper_incomplete_gamma") == 1
    by_id = {s[0]: s for s in tracer.spans}
    child, = (s for s in tracer.spans if s[1] is not None)
    assert child[2] == "distlib.reg_upper_incomplete_gamma"
    assert by_id[child[1]][2] == "distlib.ipdf_cdf"
    calls, total, self_ns = tracer.totals["distlib.ipdf_cdf"]
    assert 0 <= self_ns <= total


def test_run_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(__file__).parent.glob("*.py"):
        shutil.copy(f, bench)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ensemble",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
