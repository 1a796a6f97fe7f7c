"""Output checks made apart from the program.

Every reference value here comes from scipy, from an exact property of the
method, or from a rerun of the program; none comes from incomedyn's own
special functions and none from a stored copy of earlier output.  Each
``check_*`` function returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import special

KS_LIMIT = 0.01          # criterion 1
MEAN_SE_LIMIT = 5.0      # standard errors allowed between sample mean and C/M
LL_TOL = 1e-9            # optimiser tolerance on the per-observation likelihood
SHARE_SUM_TOL = 1e-12
PARAM_TOL = 0.05         # criterion 6: fitted M and C0 within 0.05 of the truth
LR_LEVEL = 0.99          # criterion 6: LR below the chi^2 99% quantile ...
LR_SHARE = 0.95          # ... for at least 95% of the rounds
MONOD_TOL = 1e-8
CSV_TOL = 1e-9           # outputs are rendered with 12 significant digits
MASS_DRIFT_LIMIT = 1e-10
# the scheme's steady state sits O(h^2) from the law, h the log grid spacing;
# the L1 gap is 0.17 h^2 at M = C0 = 1.6
STEADY_LAW_GAP = 1.0
MODE_REL_TOL = 1e-10


# ---------------------------------------------------------------------------
# the stationary law, computed with scipy
# ---------------------------------------------------------------------------

def stationary_cdf(y, M: float, C0: float) -> np.ndarray:
    """Q(M+1, C0/y): the inverse-gamma CDF of model income y > 0."""
    return special.gammaincc(M + 1.0, C0 / np.asarray(y, dtype=float))


def stationary_density(y, M: float, C0: float) -> np.ndarray:
    """C0^(M+1) / Gamma(M+1) exp(-C0/y) y^-(M+2)."""
    y = np.asarray(y, dtype=float)
    return np.exp((M + 1.0) * math.log(C0) - special.gammaln(M + 1.0)
                  - C0 / y - (M + 2.0) * np.log(y))


def ks_statistic(sample: np.ndarray, M: float, C0: float) -> float:
    x = np.sort(sample)
    f = stationary_cdf(x, M, C0)
    n = x.size
    i = np.arange(1, n + 1, dtype=float)
    return float(max(np.max(i / n - f), np.max(f - (i - 1.0) / n)))


def observed_cdf(edges: np.ndarray, M: float, C0: float, offset: float) -> np.ndarray:
    """CDF of observed income offset + Y at each edge (0 at or below the offset)."""
    ym = np.asarray(edges, dtype=float) - offset
    out = np.zeros(ym.size)
    pos = ym > 0.0
    with np.errstate(divide="ignore"):
        out[pos] = special.gammaincc(M + 1.0, C0 / ym[pos])
    return out


def band_probabilities(edges, M: float, C0: float, offset: float) -> np.ndarray:
    """Band probabilities conditioned on the range the edges cover."""
    p = np.diff(observed_cdf(edges, M, C0, offset))
    return p / p.sum()


def band_means(edges, M: float, C0: float, offset: float) -> np.ndarray:
    """Exact conditional mean of observed income in each band, from
    integral(y f dy, l..u) = C0/M [Q(M, C0/u) - Q(M, C0/l)]."""
    edges = np.asarray(edges, dtype=float)
    raw = np.diff(observed_cdf(edges, M, C0, offset))
    ym = edges - offset
    q = np.zeros(ym.size)
    pos = ym > 0.0
    with np.errstate(divide="ignore"):
        q[pos] = special.gammaincc(M, C0 / ym[pos])
    return offset + (C0 / M) * np.diff(q) / raw


def log_likelihood(shares, edges, M: float, C0: float, offset: float) -> tuple:
    """Per-observation multinomial log likelihood and the band probabilities."""
    p = band_probabilities(edges, M, C0, offset)
    return float(np.dot(shares, np.log(np.maximum(p, 1e-300)))), p


def lr_quantile(n_params: int) -> float:
    return float(special.chdtri(n_params, 1.0 - LR_LEVEL))


# ---------------------------------------------------------------------------
# workload checks
# ---------------------------------------------------------------------------

def check_ensemble(incomes: np.ndarray, M: float, C: float) -> list:
    """Criterion-1 law check plus the exact stationary mean C/M of the
    discrete Euler chain (any dt, any increments with E xi = 0, E xi^2 = 1)."""
    y = np.asarray(incomes, dtype=float)
    if not (np.isfinite(y).all() and (y > 0.0).all()):
        return ["incomes not all finite and positive"]
    problems = []
    ks = ks_statistic(y, M, C)
    if not ks < KS_LIMIT:
        problems.append(f"KS {ks:.5f} >= {KS_LIMIT}")
    se = float(y.std()) / math.sqrt(y.size)
    gap = abs(float(y.mean()) - C / M)
    if not gap < MEAN_SE_LIMIT * se:
        problems.append(f"mean off C/M by {gap:.3g} ({gap / se:.1f} standard errors)")
    return problems


def check_fit(fit, shares, edges, truth: tuple, n_households: int) -> tuple:
    """Checks on one binned fit; returns (problems, likelihood-ratio statistic).

    The likelihood at the fitted and at the true parameters is recomputed
    here, so a fit that misreports its likelihood fails too.
    """
    problems = []
    ll_true, _ = log_likelihood(shares, edges, *truth)
    ll_fit, p_fit = log_likelihood(shares, edges, fit.M, fit.C0, fit.offset)
    if abs(ll_fit - fit.log_likelihood) > LL_TOL:
        problems.append(f"reported log likelihood {fit.log_likelihood!r} != {ll_fit!r}")
    if ll_fit < ll_true - LL_TOL:
        problems.append(f"log likelihood {ll_fit!r} below the truth's {ll_true!r}")
    expected = np.asarray(fit.per_band_expected_shares)
    if abs(expected.sum() - 1.0) > SHARE_SUM_TOL:
        problems.append(f"expected shares sum to {expected.sum()!r}")
    if np.max(np.abs(expected - p_fit)) > CSV_TOL:
        problems.append("expected shares differ from the band probabilities")
    for name, got, want in (("M", fit.M, truth[0]), ("C0", fit.C0, truth[1])):
        if not abs(got - want) <= PARAM_TOL:
            problems.append(f"{name} = {got:.4f}, truth {want}")
    return problems, 2.0 * n_households * (ll_fit - ll_true)


def check_monod(monod, truth: tuple) -> list:
    """On noiseless cereal spending the least-squares curve is the truth
    (criterion 7 asks 1e-8)."""
    return [f"{name} = {got!r}, truth {want}"
            for name, got, want in (("V", monod.V, truth[0]), ("K", monod.K, truth[1]))
            if not abs(got - want) <= MONOD_TOL]


def lr_share_failures(lr_stats: list) -> set:
    """Indices of the fits that fail the criterion-6 share rule.

    ``lr_stats`` holds (statistic, quantile) per fit.  When fewer than
    LR_SHARE of them lie below their quantile, each one above it fails.
    """
    above = {i for i, (lr, q) in enumerate(lr_stats) if not lr < q}
    if len(lr_stats) - len(above) >= LR_SHARE * len(lr_stats):
        return set()
    return above


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

EXPECTED_FILES = {
    "simulate": ("manifest.json", "histograms.csv", "report.json"),
    "collapse": ("manifest.json", "collapsed_cdf.csv", "model_cdf.csv", "report.json"),
    "fit": ("manifest.json", "fit_report.json", "expected_vs_observed.csv"),
    "indices": ("manifest.json", "indices.csv", "diagnostics.json"),
    "evolve": ("manifest.json", "snapshots.csv", "convergence.csv", "report.json"),
    "synth": ("manifest.json", "rounds.csv"),
    "modes": ("manifest.json", "mode_params.json", "modes.csv", "report.json"),
}


def read_csv(path: Path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}


def _floats(column) -> np.ndarray:
    return np.array([float(v) for v in column])


def check_cli(command: str, out: Path, rc: int, settings: dict) -> list:
    """Exit code, expected files, and the command's own output checks."""
    if rc != 0:
        return [f"exit code {rc}"]
    missing = [f for f in EXPECTED_FILES[command] if not (out / f).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    check = _CLI_CHECKS.get(command)
    return check(out, settings) if check else []


def _check_collapse(out: Path, s: dict) -> list:
    target = s["reference_mean"]
    offset = s["offset_frac"] * target
    c0 = s["M"] * (target - offset)
    cols = read_csv(out / "model_cdf.csv")
    y, cdf = _floats(cols["y"]), _floats(cols["cdf"])
    ref = observed_cdf(y, s["M"], c0, offset)
    err = float(np.max(np.abs(cdf - ref)))
    return [] if err <= CSV_TOL else [f"model CDF off scipy by {err:.3g}"]


def _check_fit_output(out: Path, s: dict) -> list:
    cols = read_csv(out / "expected_vs_observed.csv")
    expected = _floats(cols["expected_share"])
    problems = []
    for rid in sorted(set(cols["round_id"])):
        mask = np.array([r == rid for r in cols["round_id"]])
        total = expected[mask].sum()
        if abs(total - 1.0) > CSV_TOL:
            problems.append(f"round {rid}: expected shares sum to {total!r}")
    return problems


def _check_indices(out: Path, s: dict) -> list:
    cols = read_csv(out / "indices.csv")
    hci, pg, spg = (_floats(cols[k]) for k in ("hci", "pg", "spg"))
    ok = (0.0 <= spg) & (spg <= pg) & (pg <= hci) & (hci <= 1.0)
    return [] if ok.all() else [f"{int((~ok).sum())} rows break 0 <= spg <= pg <= hci <= 1"]


def chang_cooper_steady(grid: np.ndarray, M: float, C0: float) -> np.ndarray:
    """Zero-flux solution of the Chang-Cooper scheme, unit trapezoid mass.

    A zero flux at the edge between nodes j-1 and j needs
    f_j / f_(j-1) = B(w) / B(-w) = exp(-w), with B(w) = w / (exp(w) - 1) and
    w = ((M+2) e - C0) h / e^2 at the edge midpoint e and node spacing h.
    Backward Euler with this operator contracts the L1 distance to it.
    """
    e = 0.5 * (grid[1:] + grid[:-1])
    w = ((M + 2.0) * e - C0) * np.diff(grid) / e ** 2
    log_f = np.concatenate([[0.0], -np.cumsum(w)])
    f = np.exp(log_f - log_f.max())
    return f / np.trapezoid(f, grid)


def _check_evolve(out: Path, s: dict) -> list:
    """Mass drift, and the L1 distance to the scheme's steady state never
    increasing while the run relaxes onto it near the closed-form law."""
    M, C0 = s["M"], s["C0"]
    cols = read_csv(out / "snapshots.csv")
    t, y, f = (_floats(cols[k]) for k in ("t", "y", "f"))
    times = np.unique(t)
    grid = np.geomspace(1e-3 * C0 / M, 1e3 * C0 / M, s["cells"])
    if not np.allclose(y[t == times[0]], grid, rtol=1e-11, atol=0.0):
        return ["snapshot grid is not the documented log grid"]
    steady = chang_cooper_steady(grid, M, C0)
    masses, l1 = [], []
    for ti in times:
        fi = f[t == ti]
        masses.append(np.trapezoid(fi, grid))
        l1.append(np.trapezoid(np.abs(fi - steady), grid))
    problems = []
    drift = abs(masses[-1] - masses[0]) / (times[-1] - times[0])
    if not drift < MASS_DRIFT_LIMIT:
        problems.append(f"mass drift {drift:.3g} per unit time")
    if np.any(np.diff(l1) > CSV_TOL):
        problems.append("L1 distance to the steady state increases")
    law = stationary_density(grid, M, C0)
    law_gap = np.trapezoid(np.abs(steady - law / np.trapezoid(law, grid)), grid)
    if not law_gap < STEADY_LAW_GAP * math.log(grid[1] / grid[0]) ** 2:
        problems.append(f"scheme's steady state {law_gap:.3g} (L1) from the law")
    return problems


def _check_synth(out: Path, s: dict) -> list:
    total = _floats(read_csv(out / "rounds.csv")["population_share"]).sum()
    return [] if abs(total - 1.0) <= CSV_TOL else [f"shares sum to {total!r}"]


def _check_modes(out: Path, s: dict) -> list:
    """Every mode against scipy's hyp1f1; the n = 0 mode, rescaled, against
    the closed-form density (the steady-state recovery)."""
    M, C0 = s["M"], s["C0"]
    cols = read_csv(out / "modes.csv")
    n_col, g = _floats(cols["n"]), _floats(cols["g"])
    grid = np.geomspace(C0 / 600.0, 60.0 * C0, s["grid_points"])
    x = C0 / grid
    problems = []
    for n in range(s["n_max"] + 1):
        gn = g[n_col == n]
        s_n = math.sqrt((1.0 + M) ** 2 + 8.0 * math.pi * n)
        alpha, beta = (3.0 + M + s_n) / 2.0, 1.0 + s_n
        if n == 0:
            alpha = beta = M + 2.0
        ref = x ** alpha * special.hyp1f1(alpha, beta, -x)
        scale = np.abs(ref).max()
        err = float(np.max(np.abs(gn - ref))) / scale
        if not err <= MODE_REL_TOL:
            problems.append(f"mode {n} off hyp1f1 by {err:.3g} of its peak")
    g0 = g[n_col == 0] / (C0 * math.gamma(M + 1.0))
    ref0 = stationary_density(grid, M, C0)
    err0 = float(np.max(np.abs(g0 - ref0) / ref0))
    if not err0 <= MODE_REL_TOL:
        problems.append(f"steady state recovered to {err0:.3g}")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if not report["steady_state_max_rel_err"] <= MODE_REL_TOL:
        problems.append("report.json states a steady-state error above 1e-10")
    return problems


_CLI_CHECKS = {
    "collapse": _check_collapse,
    "fit": _check_fit_output,
    "indices": _check_indices,
    "evolve": _check_evolve,
    "synth": _check_synth,
    "modes": _check_modes,
}
