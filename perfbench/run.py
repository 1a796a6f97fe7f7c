"""Benchmark of incomedyn: ensemble, survey-fit and CLI workloads.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 20 --trace 0

runs one workload for the given number of seconds, checks every output and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` reports the per-layer
metrics and writes the traced run's spans to perfbench/results/.  Without
``--workload`` every workload runs in turn, each in its own process.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 5
NOMINAL_GAUGE_S = 0.008     # the Python gauge on the reference host (2-vCPU Xeon), fast state


def load_program() -> None:
    if not (SRC / "incomedyn" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'incomedyn'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["ensemble", "fit_rounds", "cli_sample"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> tuple:
    """Set-up time: from process start until the workload's inputs are built
    (interpreter start, imports, inputs), in fresh processes.

    Each probe process then times the Python gauge three times on its own
    CPU; its set-up time is scaled to a host on which the gauge takes
    NOMINAL_GAUGE_S.  Returns (median scaled time, median raw time).
    """
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        gauges = json.loads(proc.stdout)
        raw.append(wall - sum(gauges))
        scaled.append(raw[-1] * NOMINAL_GAUGE_S / statistics.median(gauges))
    return statistics.median(scaled), statistics.median(raw)


def measured(factory, seconds: float, tracer=None):
    """Build a workload, run it for ``seconds`` (traced if a tracer is
    given) and return (problem lists, the closed workload)."""
    work = factory()
    try:
        if tracer is None:
            return work.run(seconds), work
        with tracer:
            return work.run(seconds), work
    finally:
        work.close()


def machine() -> dict:
    import numpy
    import scipy

    import workloads
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": workloads.nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple:
    """One workload; returns the result object and extra figures for the
    results file."""
    import workloads

    factory = lambda: workloads.WORKLOADS[name](seed)     # noqa: E731
    if not trace:
        setup, setup_raw = setup_seconds(name, seed)
        results, work = measured(factory, seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"ops_per_gauge": (work.ops_per_gauge(), "ops/gauge"),
                   "setup_s": (setup, "s"), "peak_rss_mib": (rss, "MiB")}
        per_op, unit = work.UNIT
        extra = {"ops_per_s": work.ops_per_s(),
                 "work_per_s": {"value": work.ops_per_s() * per_op, "unit": unit},
                 "gauge_s": statistics.median(work.gauge_times),
                 "setup_raw_s": setup_raw}
    else:
        import layers
        import spans

        plain_results, plain = measured(factory, seconds / 2)
        tracer = spans.Tracer()
        traced_results, traced = measured(factory, seconds / 2, tracer)
        results = plain_results + traced_results
        overhead = (plain.ops_per_gauge() / traced.ops_per_gauge() - 1.0) * 100.0
        metrics, suite = layers.measure()
        metrics["trace.overhead_pct"] = (overhead, "%")
        extra = {"untraced_ops_per_gauge": plain.ops_per_gauge(),
                 "traced_ops_per_gauge": traced.ops_per_gauge(),
                 "layer_suite": {part: {"layer_self_ms": t.layer_self_ms(),
                                        "calls": {n: c for n, (c, _, _) in t.totals.items()}}
                                 for part, t in suite.items()}}
        trace_file = HERE / "results" / f"trace-{name}-seed{seed}.json"
        tracer.write(trace_file, {"workload": name, "seed": seed,
                                  "overhead_pct": overhead, **extra})
        extra["trace_file"] = str(trace_file.relative_to(HERE.parent))
    failed = sum(1 for problems in results if problems)
    for i, problems in enumerate(results):
        if problems:
            print(f"{name}: operation {i} failed: {'; '.join(problems)}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, extra


def run_all(args) -> int:
    """Every workload in its own process, as a single-workload run; prints a
    summary per workload and, last, one JSON object keyed by workload."""
    import workloads

    report = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        report[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": report}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed).close()
        print(json.dumps([workloads.python_gauge() for _ in range(3)]))
        return 0
    if args.workload is None:
        return run_all(args)
    (HERE / "results").mkdir(exist_ok=True)
    result, extra = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(f"{args.workload}: attempted {result['attempted']}, failed {result['failed']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<52} {m['value']:>14.6g} {m['unit']}")
    if "work_per_s" in extra:
        for label, value, unit in (("(ops per second)", extra["ops_per_s"], "ops/s"),
                                   ("(work per second)", extra["work_per_s"]["value"],
                                    extra["work_per_s"]["unit"]),
                                   ("(gauge time)", extra["gauge_s"], "s")):
            print(f"  {label:<52} {value:>14.6g} {unit}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(HERE / "results" / name, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "machine": machine(), **extra}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
