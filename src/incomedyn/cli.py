"""Batch command-line frontend.

Subcommands: simulate, collapse, fit, indices, evolve, synth, modes.  Every
command validates its configuration, emits plot-ready CSV data files — never
rendered graphics — and gets a ``manifest.json`` recording every option
except ``--out-dir``, ``--quiet`` and ``--workers``, with the defaults it
resolved (including the seed).  A command that fails leaves nothing in or
beside ``--out-dir``.  Outputs are deterministic: re-running a command with
the options recorded in its manifest reproduces every file byte for byte.

Exit codes: 0 success, 2 usage error, 3 data validation error, 4 numerical
failure.  A value wrong on its own is refused by its option's type (exit 2);
a combination of values the model cannot honour, by the library (exit 3).
Reports are strict JSON: a non-finite number in one is a numerical failure.

The parser is built once per process, on the first ``main`` call rather than
at import.  Only a process that calls ``main`` more than once gains from
this, such as Python code that drives several commands, the test suite or
the benchmark's in-process pass; a standalone ``incomedyn <command>`` builds
one parser either way.  Sharing it is safe: every parse returns a fresh
namespace, commands write only to that namespace, and every default is a
scalar or a string that argparse converts afresh, so no call sees another's
options.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import signal
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, distlib, estimate, fpsolve, poverty, simulate, survey
from .errors import DataError, DomainError, NumericalError


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a NaN or infinity in ``payload`` is a NumericalError."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path.name}: {exc}") from None
    path.write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args, out: Path) -> str:
    simulate.hill_tail_size(args.agents, args.hill_tail_fraction)
    params = simulate.LangevinParams(M=args.M, labour_rate=args.C0, dt=args.dt)
    dist = distlib.SteadyStateIPDF(args.M, args.C0)
    init = dist if args.init == "equilibrium" else args.C0 / args.M
    snaps = simulate.run(args.agents, params, args.t_end, init, args.seed,
                         snapshot_times=args.snapshot_times, workers=args.workers)

    hist_rows = []
    ks_rows = []
    for pop in snaps:
        y = pop.incomes
        edges = fpsolve.log_spaced(y.min(), y.max() * (1 + 1e-12), args.histogram_bins + 1)
        counts, _ = np.histogram(y, bins=edges)
        with np.errstate(over="ignore"):    # bins are normal-wide; n x width may overflow: 0
            dens = counts / (counts.sum() * np.diff(edges))
        hist_rows.extend(zip(itertools.repeat(pop.time), edges[:-1], edges[1:],
                             counts.astype(float), dens))
        ks_rows.append((pop.time, simulate.ks_distance(y, lambda v: distlib.ipdf_cdf(dist, v))))
    survey.write_csv(out / "histograms.csv",
                     ["t", "bin_lower", "bin_upper", "count", "density"], hist_rows)
    final = snaps[-1]
    with np.errstate(over="ignore"):
        sample_mean = float(final.incomes.mean())
    if sample_mean == math.inf:
        raise NumericalError(f"the sample mean of the final incomes overflows at "
                             f"C0={args.C0:g}, M={args.M:g}")
    hill = simulate.hill_tail_exponent(final.incomes, args.hill_tail_fraction)
    report = {
        "ks_by_time": [{"t": t, "ks": ks} for t, ks in ks_rows],
        "final_ks": ks_rows[-1][1],
        "hill_density_exponent": hill,
        "hill_tail_fraction": args.hill_tail_fraction,
        "exact_law_hill_density_exponent": distlib.ipdf_hill_exponent(
            dist, args.hill_tail_fraction),
        "increments": simulate.INCREMENTS,
        "asymptotic_density_exponent": args.M + 2.0,
        "sample_mean": sample_mean,
        "model_mean": args.C0 / args.M,
    }
    _write_json(out / "report.json", report)
    return f"KS={report['final_ks']:.4g} hill={hill:.3f}"


def cmd_collapse(args, out: Path) -> str:
    target = args.target_mean
    collapsed = _prepare_rounds(args, target)
    offset_abs = args.offset_frac * target
    c0 = args.M * (target - offset_abs)
    if not math.isfinite(c0):
        raise NumericalError(f"model scale C0 = M (target mean - offset) overflows at "
                             f"M = {args.M:g}")
    cdfs = [survey.empirical_cdf(rnd) for rnd in collapsed]   # refuses a one-band round
    knot_lo = min(min(b.lower for b in r.bands if b.lower > 0.0) for r in collapsed)
    knot_hi = max(max(b.upper for b in r.bands if not b.is_open) for r in collapsed)
    grid = fpsolve.log_spaced(0.25 * knot_lo, 4.0 * knot_hi, args.grid_points)
    curves = [cdf(grid) for cdf in cdfs]
    survey.write_curves(out / "collapsed_cdf.csv", ["round_id", "y", "cdf"],
                        [rnd.round_id for rnd in collapsed], grid, curves)
    dist = distlib.SteadyStateIPDF(args.M, c0, offset_abs)
    survey.write_csv(out / "model_cdf.csv", ["y", "cdf"],
                     zip(grid, distlib.observed_cdf(dist, grid)))
    spread = float(np.ptp(curves, axis=0).max())
    # irregular band grids put a binning floor under any collapse comparison
    binning_tol = 0.5 * max(float(r.shares.max()) for r in collapsed)
    _write_json(out / "report.json", {
        "n_rounds": len(collapsed), "target_mean": target,
        "model": {"M": args.M, "C0": c0, "offset": offset_abs},
        "max_cdf_spread": spread,
        "binning_tolerance": binning_tol})
    return f"{len(collapsed)} rounds, max spread {spread:.4g}"


def _prepare_rounds(args, collapse_to) -> list:
    """The rounds of ``--rounds``, deflated when ``--deflators`` is given and
    then rescaled to the mean ``collapse_to`` unless it is None."""
    rounds = survey.load_rounds(args.rounds)
    if args.deflators:
        table = survey.load_deflators(args.deflators, args.reference_year)
        rounds = [survey.deflate(r, table) for r in rounds]
    if collapse_to is not None:
        rounds = [survey.collapse_rescale(r, collapse_to) for r in rounds]
    return rounds


def cmd_fit(args, out: Path) -> str:
    rounds = _prepare_rounds(args, args.collapse_to)
    fix = None if args.fit_offset else args.fix_offset
    reports = []
    rows = []
    for rnd in rounds:
        fit = estimate.fit_ipdf(rnd, fix_offset=fix)
        reports.append({"round_id": rnd.round_id, "year": rnd.year, **fit.report()})
        for b, obs, exp in zip(rnd.bands, rnd.shares, fit.per_band_expected_shares):
            rows.append((rnd.round_id, b.lower, b.upper, obs, exp))
    _write_json(out / "fit_report.json", {"fits": reports})
    survey.write_csv(out / "expected_vs_observed.csv",
                     ["round_id", "band_lower", "band_upper", "observed_share",
                      "expected_share"], rows)
    return f"{len(rounds)} rounds"


def cmd_indices(args, out: Path) -> str:
    rounds = _prepare_rounds(args, args.collapse_to)
    fits = [estimate.fit_ipdf(r, fix_offset=args.fix_offset) for r in rounds]
    monods = [estimate.fit_monod(r) for r in rounds]
    series = poverty.index_series(rounds, fits, monods, args.line,
                                  pooled_M=args.pooled_M)
    survey.write_csv(out / "indices.csv",
                     [f.name for f in dataclasses.fields(poverty.IndexRow)],
                     map(dataclasses.astuple, series.rows))
    _write_json(out / "diagnostics.json", series.diagnostics)
    return f"{len(series.rows)} rounds"


def cmd_evolve(args, out: Path) -> str:
    if args.bump_center is None:
        args.bump_center = 3.0 * args.C0 / args.M
    grid = fpsolve.log_grid(args.M, args.C0, args.cells, args.span)
    dist = distlib.SteadyStateIPDF(args.M, args.C0)
    steady = fpsolve.density_on_grid(dist, grid)
    if args.init == "steady":
        f0 = steady
    else:
        f0 = fpsolve.bump_density(grid, args.bump_center, args.bump_width)
    times = args.snapshot_times or list(np.linspace(args.t_end / 8.0, args.t_end, 8))
    stats = {}
    all_snaps = [f0, *fpsolve.evolve(f0, args.M, args.C0, args.t_end,
                                     snapshot_times=times, stats=stats)]
    survey.write_curves(out / "snapshots.csv", ["t", "y", "f"], [s.time for s in all_snaps],
                        grid, [s.values for s in all_snaps])
    conv_rows = [(s.time, fpsolve.l1_distance(s, steady)) for s in all_snaps]
    survey.write_csv(out / "convergence.csv", ["t", "l1_to_steady"], conv_rows)
    _write_json(out / "report.json", {
        "final_l1_to_steady": conv_rows[-1][1],
        "mass_change": abs(all_snaps[-1].mass() - f0.mass()),
        "residual_on_grid": fpsolve.steady_state_residual(args.M, args.C0, grid),
        **stats})
    return f"final L1 {conv_rows[-1][1]:.4g}"


def cmd_synth(args, out: Path) -> str:
    dist = distlib.SteadyStateIPDF(args.M, args.C0, args.offset)
    if args.edges:
        edges = np.asarray(args.edges)
    else:
        # quantile edges of the observed-income law, plus an open band
        qs = np.linspace(0.0, 1.0, args.auto_bands + 1)[1:-1]
        edges = np.concatenate([[0.0], distlib.observed_quantile(dist, qs), [math.inf]])
    # full precision: a rerun with the manifest's edges draws the same bands
    args.edges = [e if math.isfinite(e) else str(e) for e in edges.tolist()]
    rnd = survey.synth_round(dist, edges, args.n, args.seed, (args.V, args.K),
                             round_id=args.round_id, year=args.year)
    survey.save_rounds(out / "rounds.csv", [rnd])
    return f"{len(rnd.bands)} bands, n={args.n}"


def cmd_modes(args, out: Path) -> str:
    # from C0/600, where the stationary exp(-C0/y) is e^-600 (above its underflow), to 60 C0
    grid = fpsolve.log_spaced(args.C0 / 600.0, 60.0 * args.C0, args.grid_points)
    dist = distlib.SteadyStateIPDF(args.M, args.C0)
    params_report = []
    curves = []
    residuals = []
    for n in range(args.n_max + 1):
        mode = fpsolve.eigenmode_params(n, args.M, A1=args.A1, A2=args.A2,
                                        c=args.C0)
        # the manifest records the coefficients A1, A2 and c
        params_report.append({k: v for k, v in dataclasses.asdict(mode).items()
                              if k not in ("A1", "A2", "c")})
        curves.append(fpsolve.eigenmode_eval(mode, grid))
        residuals.append({"n": n, "relative_operator_residual":
                          fpsolve.eigenmode_operator_residual(mode, args.M)})
    _write_json(out / "mode_params.json", {"modes": params_report})
    survey.write_curves(out / "modes.csv", ["n", "y", "g"], range(len(curves)), grid, curves)
    steady = fpsolve.steady_state_mode(args.M, args.C0)
    g0 = fpsolve.eigenmode_eval(steady, grid)
    ref = distlib.ipdf_density(dist, grid)
    normal = ref >= np.finfo(float).tiny     # at a huge C0 the low end underflows
    if not normal.any():
        raise NumericalError(f"the law's density underflows on the whole grid at C0={args.C0:g}")
    rel_err = float(np.max(np.abs(g0[normal] - ref[normal]) / ref[normal]))
    _write_json(out / "report.json", {
        "steady_state_max_rel_err": rel_err,
        "operator_residuals": residuals})
    return f"n<=~{args.n_max}, steady-state recovery err {rel_err:.3g}"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _inside(value, interval: str) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return ((lo < value or interval[0] == "[" and value == lo)
            and (value < hi or interval[-1] == "]" and value == hi))


def _numbers(interval: str, kind=float, many=False, last=None, pair=False):
    """argparse type: a ``kind`` number in ``interval``, written "(0, inf)" or
    "[0, 1)", so NaN is always refused and inf unless the interval is closed
    there.  With ``many``, comma-separated numbers (empty items skipped), each
    in ``interval`` but the last, which may lie in ``last`` instead; with
    ``pair``, exactly two, lo < hi.  A refused value is a usage error."""
    rule = ((f"comma-separated {kind.__name__}s" if many else kind.__name__)
            + f" in {interval}" + (f", the last in {last}" if last else "")
            + (", two of them, lo < hi" if pair else ""))

    def convert(text: str):
        refused = argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        try:
            values = [kind(t) for t in text.split(",") if t.strip()] if many else [kind(text)]
        except ValueError:
            raise refused from None
        ends = [interval] * (len(values) - 1) + [last or interval]
        if not all(map(_inside, values, ends)) or pair and not (
                len(values) == 2 and values[0] < values[1]):
            raise refused
        return values if many else values[0]
    return convert


_POSITIVE = _numbers("(0, inf)")
_NONNEGATIVE = _numbers("[0, inf)")
_FINITE = _numbers("(-inf, inf)")
_COUNT = _numbers("(0, inf)", int)
_TIMES = _numbers("[0, inf)", many=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; callers share it,
    so they parse with it and never modify it."""
    parser = argparse.ArgumentParser(
        prog="incomedyn",
        description="Income-distribution dynamics: simulation, steady-state "
                    "fits, and poverty indices from banded survey data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_numbers("[0, inf)", int), default=0)
        p.add_argument("--out-dir", default="out")
        p.add_argument("--quiet", action="store_true")

    def survey_input(p):
        p.add_argument("--rounds", required=True)
        p.add_argument("--deflators")
        p.add_argument("--reference-year", type=_FINITE, default=1974.0)

    def round_fit(p):
        survey_input(p)
        p.add_argument("--collapse-to", type=_POSITIVE, default=None)
        p.add_argument("--fix-offset", type=_NONNEGATIVE, default=estimate.DEFAULT_OFFSET)

    def income_law(p):
        p.add_argument("--M", type=_POSITIVE, default=1.6)
        p.add_argument("--C0", type=_POSITIVE, default=1.6)

    def command(func, summary, *groups):
        """The subcommand named after ``func`` (cmd_<name>), with the common
        options and then each option group.  An option is taken only under
        its full name: no prefix, such as ``--C`` of ``--C0``, stands in
        for it."""
        p = sub.add_parser(func.__name__[len("cmd_"):], help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        for group in (common,) + groups:
            group(p)
        return p

    p = command(cmd_simulate, "agent-based run vs the analytic law", income_law)
    p.add_argument("--dt", type=_POSITIVE, default=1e-3)
    p.add_argument("--agents", type=_COUNT, required=True)
    p.add_argument("--t-end", type=_POSITIVE, default=50.0)
    p.add_argument("--init", choices=["mean", "equilibrium"], default="mean")
    p.add_argument("--snapshot-times", type=_TIMES, default="")
    p.add_argument("--workers", type=_COUNT, default=1,
                   help="threads over chunks; results do not depend on it")
    p.add_argument("--hill-tail-fraction", type=_numbers("(0, 1)"), default=0.05)
    p.add_argument("--histogram-bins", type=_COUNT, default=80)

    p = command(cmd_collapse, "deflate, rescale, and overlay rounds", survey_input)
    p.add_argument("--target-mean", type=_POSITIVE, default=64.84)
    p.add_argument("--M", type=_POSITIVE, default=1.6)
    p.add_argument("--offset-frac", type=_numbers("[0, 1)"), default=0.15)
    p.add_argument("--grid-points", type=_COUNT, default=200)

    p = command(cmd_fit, "binned MLE of the income law per round", round_fit)
    p.add_argument("--fit-offset", action="store_true",
                   help="fit the starvation offset instead of fixing it")

    p = command(cmd_indices, "poverty index series per round", round_fit)
    p.add_argument("--line", type=_POSITIVE, default=356.0,
                   help="poverty line in the rounds' monetary frame")
    p.add_argument("--pooled-M", type=_POSITIVE, default=None)

    p = command(cmd_evolve, "finite-volume density evolution", income_law)
    p.add_argument("--t-end", type=_POSITIVE, default=20.0)
    # GridDensity's "grid must be 1-D with at least 8 nodes"
    p.add_argument("--cells", type=_numbers("[8, inf)", int), default=2000)
    p.add_argument("--span", type=_numbers("(0, inf)", many=True, pair=True),
                   default="1e-3,1e3")
    p.add_argument("--init", choices=["steady", "bump"], default="bump")
    p.add_argument("--bump-center", type=_POSITIVE, default=None)
    p.add_argument("--bump-width", type=_POSITIVE, default=0.1)
    p.add_argument("--snapshot-times", type=_TIMES, default="")

    p = command(cmd_synth, "generate a synthetic survey round", income_law)
    p.add_argument("--offset", type=_NONNEGATIVE, default=0.15)
    p.add_argument("--edges", type=_numbers("[0, inf)", many=True, last="[0, inf]"),
                   default="", help="comma-separated band edges (last may be inf)")
    # synth_round's "need at least 3 band edges (2 bands)"
    p.add_argument("--auto-bands", type=_numbers("[2, inf)", int), default=20)
    p.add_argument("--n", type=_COUNT, required=True)
    # V <= K keeps cereal below total expenditure at every income
    p.add_argument("--V", type=_POSITIVE, default=0.4)
    p.add_argument("--K", type=_POSITIVE, default=0.5)
    p.add_argument("--round-id", default="synth")
    p.add_argument("--year", type=_FINITE, default=2000.0)

    p = command(cmd_modes, "evaluate the omega_n = 2 pi n Kummer modes: L g = +omega_n g, "
                "so they grow as exp(2 pi n t) with nonzero mass; the decaying "
                "modes are f_ss times a polynomial", income_law)
    p.add_argument("--n-max", type=_numbers("[0, inf)", int), default=2)
    p.add_argument("--A1", type=_FINITE, default=0.0)
    p.add_argument("--A2", type=_FINITE, default=1.0)
    p.add_argument("--grid-points", type=_COUNT, default=1500)
    return parser


# how a command runs, not what it computes: left out of the manifest
# (results are identical for any worker count)
_RUNNER_SETTINGS = frozenset({"command", "func", "out_dir", "quiet", "workers"})


def main(argv=None) -> int:
    """Run one command and write its ``manifest.json`` from the parsed
    options, which the command may complete with the defaults it resolved.

    The command writes into a temporary directory beside ``--out-dir``,
    whose files move into ``--out-dir`` only when it succeeds, so a failed
    command leaves no output behind.  The command returns a summary, printed
    unless ``--quiet`` is set."""
    args = build_parser().parse_args(argv)
    out = Path(args.out_dir)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=f".{out.name}-", dir=out.parent) as tmp:
            summary = args.func(args, Path(tmp))
            config = {k: v for k, v in vars(args).items() if k not in _RUNNER_SETTINGS}
            _write_json(Path(tmp) / "manifest.json",
                        {"command": args.command, "config": config,
                         "version": __version__})
            out.mkdir(exist_ok=True)
            for path in Path(tmp).iterdir():
                path.replace(out / path.name)
    except (DataError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:      # NumericalError, or an overflow or division by zero
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    if not args.quiet:
        print(f"{args.command}: {summary} -> {args.out_dir}")
    return 0


def _stop(signum, frame):
    # ignore a second signal, so that it cannot cut the cleanup short
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def entry() -> int:
    """The process entry, of ``python -m incomedyn`` and the ``incomedyn``
    script: ``main``, with SIGINT and SIGTERM ending the command as a
    ``SystemExit`` of 128 + the signal's number (130 and 143), so that the
    temporary directory is removed and no traceback is printed.  ``main``
    keeps Python's own handlers, for code that runs it in process."""
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, _stop)
    return main()

