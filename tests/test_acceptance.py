"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured values.

The heavy equilibrium ensemble (10^5 agents, 50 time units at dt = 1e-3) is
shared by the first three criteria through a session fixture.

Criterion 2 (Hill estimate on the top 5% within 3.6 +/- 0.2) is asserted
exactly as stated even though the estimator's finite-threshold bias on this
law sits near 3.29 at a 5% tail: the local survival index at the 95th
percentile is ~2.17 against the asymptotic M+1 = 2.6, and a correct Hill
implementation (validated against an exact Pareto oracle elsewhere in the
suite) cannot reach the asymptotic exponent at that threshold.  The reading
converges to 3.6 only as the tail fraction shrinks toward 0.1%.
"""

import filecmp
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from incomedyn import distlib, estimate, fpsolve, poverty, simulate, survey
from incomedyn.cli import main as cli_main

M_STAR, C_STAR = 1.6, 1.6
DIST = distlib.SteadyStateIPDF(M_STAR, C_STAR)
EDGES20 = np.concatenate([[0.0], np.geomspace(0.25, 8.0, 19), [np.inf]])


@pytest.fixture(scope="session")
def equilibrium_ensemble():
    params = simulate.LangevinParams(M=M_STAR, labour_rate=C_STAR, dt=1e-3,
                                     noise_scale=math.sqrt(2.0))
    t0 = time.perf_counter()
    pop = simulate.run(100_000, params, 50.0, C_STAR / M_STAR, seed=7,
                       workers=2)[-1]
    wall = time.perf_counter() - t0
    return pop, wall


def test_criterion_01_equilibrium_law(equilibrium_ensemble):
    pop, wall = equilibrium_ensemble
    ks = simulate.ks_distance(pop.incomes, lambda y: distlib.ipdf_cdf(DIST, y))
    print(f"[criterion 1] KS={ks:.5f} (<0.01), runtime={wall:.1f}s (<60s)")
    assert ks < 0.01
    assert wall < 60.0


def test_criterion_02_tail_exponent(equilibrium_ensemble):
    pop, _ = equilibrium_ensemble
    est = simulate.hill_tail_exponent(pop.incomes, tail_fraction=0.05)
    ok = abs(est - 3.6) <= 0.2
    print(f"[criterion 2] hill@5%={est:.3f} (3.6 +/- 0.2) -> "
          f"{'PASS' if ok else 'FAIL (known finite-threshold bias, ~3.29 expected)'}")
    assert est == pytest.approx(3.6, abs=0.2)


def test_criterion_03_mean_identity(equilibrium_ensemble):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        m = rng.uniform(0.5, 5.0)
        c0 = rng.uniform(0.3, 4.0)
        val, _ = integrate.quad(
            lambda u: (c0 / u) * u**m * math.exp(-u) / math.gamma(m + 1.0),
            0.0, np.inf)
        worst = max(worst, abs(val - c0 / m) / (c0 / m))
    pop, _ = equilibrium_ensemble
    sample_mean = pop.incomes.mean()
    se = pop.incomes.std() / math.sqrt(pop.n_agents)
    dev = abs(sample_mean - 1.0)
    print(f"[criterion 3] quadrature mean worst rel err={worst:.2e} (<1e-8); "
          f"sample mean={sample_mean:.4f} dev={dev:.4f} (<{3 * se:.4f})")
    assert worst < 1e-8
    assert dev < 3 * se


def test_criterion_04_fp_solver():
    grid = fpsolve.log_grid(M_STAR, C_STAR, 2000)
    resid = fpsolve.steady_state_residual(M_STAR, C_STAR, grid)
    r1000 = fpsolve.steady_state_residual(M_STAR, C_STAR,
                                          fpsolve.log_grid(M_STAR, C_STAR, 1000))
    r500 = fpsolve.steady_state_residual(M_STAR, C_STAR,
                                         fpsolve.log_grid(M_STAR, C_STAR, 500))
    bump = fpsolve.bump_density(grid, 3.0 * C_STAR / M_STAR)
    steady = fpsolve.density_on_grid(DIST, grid)
    final = fpsolve.evolve(bump, M_STAR, C_STAR, 25.0)[-1]
    l1 = fpsolve.l1_distance(final, steady)
    drift = abs(final.mass() - bump.mass()) / 25.0
    print(f"[criterion 4] residual={resid:.2e} (<1e-6); refinement ratios "
          f"{r500 / r1000:.1f}, {r1000 / resid:.1f} (>=3.5 each, i.e. at least "
          f"second order); bump L1={l1:.2e} (<1e-3); mass drift={drift:.2e} (<1e-10)")
    assert resid < 1e-6
    assert r500 / r1000 >= 3.5 and r1000 / resid >= 3.5
    assert l1 < 1e-3
    assert drift < 1e-10


def test_criterion_05_eigenmode_consistency():
    # alpha/beta from direct substitution at M = 1.6 (frozen literals)
    tables = {
        0: (1.0, 3.6, -1.6, 3.6),
        1: (-0.52368293318842518, 5.1236829331884248,
            -4.64736586637685, 6.64736586637685),
        2: (-1.4757609318333667, 6.0757609318333667,
            -6.5515218636667329, 8.5515218636667321),
    }
    worst = 0.0
    for n, (am, ap, bm, bp) in tables.items():
        mode = fpsolve.eigenmode_params(n, M_STAR)
        for got, want in [(mode.alpha_minus, am), (mode.alpha_plus, ap),
                          (mode.beta_minus, bm), (mode.beta_plus, bp)]:
            worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    mode0 = fpsolve.steady_state_mode(M_STAR, C_STAR)
    y = np.geomspace(C_STAR / 600.0, 100.0 * C_STAR, 500)
    g = fpsolve.eigenmode_eval(mode0, y)
    ref = distlib.ipdf_density(DIST, y)
    rel = float(np.max(np.abs(g - ref) / ref))
    print(f"[criterion 5] exponent tables worst rel err={worst:.2e} (<1e-12); "
          f"steady-state recovery max rel err={rel:.2e} (<1e-10)")
    assert worst < 1e-12
    assert rel < 1e-10


def test_criterion_06_fit_round_trip():
    dist = distlib.SteadyStateIPDF(1.6, 1.6, 0.15)
    t0 = time.perf_counter()
    rnd0 = survey.synth_round(dist, EDGES20, 10**6, seed=500, monod=(0.4, 0.5))
    fit0 = estimate.fit_ipdf(rnd0, fix_offset=0.15)
    below = 0
    n = 10**6
    for seed in range(100):
        rnd = survey.synth_round(dist, EDGES20, n, seed=600 + seed,
                                 monod=(0.4, 0.5))
        fit = estimate.fit_ipdf(rnd, fix_offset=0.15)
        ll_true, _ = estimate.band_log_likelihood(rnd, 1.6, 1.6, 0.15)
        if 2.0 * n * (fit.log_likelihood - ll_true) < 9.21:
            below += 1
    wall = time.perf_counter() - t0
    print(f"[criterion 6] M={fit0.M:.4f} C0={fit0.C0:.4f} (each within 0.05); "
          f"LR<9.21 in {below}/100 (>=95); runtime={wall:.1f}s (<30s)")
    assert fit0.M == pytest.approx(1.6, abs=0.05)
    assert fit0.C0 == pytest.approx(1.6, abs=0.05)
    assert below >= 95
    assert wall < 30.0


def test_criterion_07_monod_round_trip():
    edges = np.concatenate([np.geomspace(0.55, 10.0, 15), [np.inf]])
    clean = survey.synth_round(distlib.SteadyStateIPDF(1.6, 1.6), edges, 10**6,
                               seed=3, monod=(1.0, 0.5))
    exact = estimate.fit_monod(clean)
    rng = np.random.default_rng(900)
    noisy_bands = []
    for b in clean.bands:
        factor = 1.0 + 0.01 * rng.standard_normal()
        noisy_bands.append(survey.Band(
            b.lower, b.upper, b.population_share, b.mean_total_expenditure,
            min(b.mean_cereal_expenditure * factor, b.mean_total_expenditure)))
    noisy = survey.BandedDistribution(round_id="noisy", year=2000.0,
                                      bands=tuple(noisy_bands))
    fit = estimate.fit_monod(noisy)
    print(f"[criterion 7] noiseless V={exact.V:.10f} K={exact.K:.10f} "
          f"(exact to 1e-8); noisy V={fit.V:.4f} K={fit.K:.4f} (within 5%)")
    assert exact.V == pytest.approx(1.0, abs=1e-8)
    assert exact.K == pytest.approx(0.5, abs=1e-8)
    assert fit.V == pytest.approx(1.0, rel=0.05)
    assert fit.K == pytest.approx(0.5, rel=0.05)


def test_criterion_08_cd_index_cross_validation():
    v, k = 1.0, 0.5
    quad_val = poverty.cd_index_model(DIST, v, k)
    y = distlib.ipdf_sample(DIST, 10**7, seed=81)
    cd = v * k / (k + y)
    mc, se = cd.mean(), cd.std() / math.sqrt(y.size)
    rnd = survey.synth_round(distlib.SteadyStateIPDF(1.6, 1.6, 0.15),
                             np.concatenate([[0.0], np.geomspace(0.3, 6.0, 12),
                                             [np.inf]]),
                             10**6, seed=82, monod=(0.4, 0.5))
    direct = poverty.cd_index_direct(rnd, estimate.MonodFit(V=0.4, K=0.5, rss=0.0))
    banded = poverty.cd_index_banded(rnd, 0.4, 0.5)
    print(f"[criterion 8] quadrature={quad_val:.6f} vs MC={mc:.6f} "
          f"(|diff|={abs(quad_val - mc):.2e} < {3 * se:.2e}); "
          f"|direct-banded|={abs(direct - banded):.2e} (<1e-10)")
    assert abs(quad_val - mc) < 3 * se
    assert abs(direct - banded) < 1e-10


def test_criterion_09_sen_axiom_suite():
    report = poverty.sen_axiom_suite(n_instances=1000, seed=7)
    counts = {ix: (report[ix]["monotonicity"]["violations"],
                   report[ix]["transfer"]["violations"])
              for ix in ("pg", "spg", "pcd")}
    y = np.array([0.4, 0.6, 2.0, 3.0])
    hci_res = poverty.sen_axiom_check(y, "hci", poverty.Transfer(0, 2, 0.1),
                                      line=1.0)
    print(f"[criterion 9] violations (monotonicity, transfer): {counts}; "
          f"HCI transfer insensitivity: after==before is "
          f"{hci_res.after == hci_res.before}")
    for ix, (mono, trans) in counts.items():
        assert mono == 0, ix
        assert trans == 0, ix
    assert not hci_res.passed
    assert hci_res.after == hci_res.before


def test_criterion_10_cereal_price_shock_signature():
    edges = np.concatenate([[0.0], np.geomspace(0.3, 6.0, 12), [np.inf]])
    means = [1.0, 1.1, 1.21, 1.33, 1.46]
    ks = [0.5, 0.5, 1.1, 0.5, 0.5]
    offset, v, z = 0.15, 0.3, 0.45
    rounds, fits, monods = [], [], []
    for i, (mean, k) in enumerate(zip(means, ks)):
        d = distlib.SteadyStateIPDF(1.6, 1.6 * (mean - offset), offset)
        rnd = survey.synth_round(d, edges, 10**6, seed=300 + i, monod=(v, k),
                                 round_id=f"r{i}", year=1960.0 + 5 * i)
        rounds.append(rnd)
        fits.append(estimate.fit_ipdf(rnd, fix_offset=offset))
        monods.append(estimate.fit_monod(rnd))
    series = poverty.index_series(rounds, fits, monods, z)
    rows = series.rows
    pcd_jump_direct = rows[2].pcd_direct - rows[1].pcd_direct
    pcd_jump_model = rows[2].pcd_model - rows[1].pcd_model
    fgt_moves = {f: getattr(rows[2], f) - getattr(rows[1], f)
                 for f in ("hci", "pg", "spg")}
    print(f"[criterion 10] CD jumps at the shock: direct=+{pcd_jump_direct:.4f}, "
          f"model=+{pcd_jump_model:.4f}; FGT moves {fgt_moves} (none rising)")
    assert pcd_jump_direct > 0.0
    assert pcd_jump_model > 0.0
    for f, move in fgt_moves.items():
        assert move <= 0.0, f


def _identical_trees(a: Path, b: Path) -> bool:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return False
    return all(filecmp.cmp(a / n, b / n, shallow=False) for n in names_a)


def test_criterion_11_cli_determinism(tmp_path, monkeypatch):
    base_dir = Path(__file__).resolve().parent.parent / "sample_data"
    sample_rounds = str(base_dir / "rounds.csv")
    sample_deflators = str(base_dir / "deflators.csv")
    commands = {
        "simulate": ["simulate", "--agents", "20000", "--t-end", "0.5",
                     "--dt", "5e-3", "--seed", "3"],
        "collapse": ["collapse", "--rounds", sample_rounds,
                     "--deflators", sample_deflators],
        "fit": ["fit", "--rounds", sample_rounds, "--deflators",
                sample_deflators, "--collapse-to", "1.0"],
        "indices": ["indices", "--rounds", sample_rounds, "--deflators",
                    sample_deflators, "--line", "40.0", "--fix-offset", "8.0"],
        "evolve": ["evolve", "--cells", "500", "--t-end", "6.0"],
        "synth": ["synth", "--n", "100000", "--edges",
                  "0,0.3,0.5,0.8,1.2,2,4,inf", "--V", "0.3", "--K", "0.5"],
        "modes": ["modes", "--n-max", "2", "--grid-points", "500"],
    }
    all_ok = True
    for name, argv in commands.items():
        a = tmp_path / f"{name}_a"
        b = tmp_path / f"{name}_b"
        assert cli_main(argv + ["--out-dir", str(a), "--quiet"]) == 0
        assert cli_main(argv + ["--out-dir", str(b), "--quiet"]) == 0
        same = _identical_trees(a, b)
        all_ok &= same
        assert same, f"{name}: rerun not byte-identical"
    w1 = tmp_path / "sim_w1"
    w4 = tmp_path / "sim_w4"
    # 70,000 agents make three chunks, and threads are capped by the CPU
    # count: claim eight so that --workers 4 runs threads on any host
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
    base = ["simulate", "--agents", "70000", "--t-end", "0.05", "--dt", "5e-3",
            "--seed", "3"]
    assert cli_main(base + ["--workers", "1", "--out-dir", str(w1), "--quiet"]) == 0
    assert cli_main(base + ["--workers", "4", "--out-dir", str(w4), "--quiet"]) == 0
    workers_same = _identical_trees(w1, w4)
    print(f"[criterion 11] reruns byte-identical for all 7 commands: {all_ok}; "
          f"simulate workers 1 vs 4 identical: {workers_same}")
    assert workers_same
