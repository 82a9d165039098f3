"""Benchmark of the rfso-secrecy package.

Runs one workload (see README.md in this directory) against the package in
the ``src`` directory next to this one:

    python3 perfbench/run.py --workload sweep_closed --seed 1 --seconds 10 \
        --trace 0

The run builds the workload's inputs from the seed, repeats the workload's
task list for at least ``--seconds`` seconds, checks every output, prints a
table of metrics and, as the last line of standard output, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones, measured with the tracer installed.

``--workload all`` runs every workload of BENCHMARK.json in turn.
``--write-fingerprint`` records the default seed's outputs in
fingerprint.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
FINGERPRINT = HERE / "fingerprint.json"

SETUP_REPEATS = 3        # fresh interpreters timed for setup_s
CALIB_REPEATS = 5        # loggamma kernel timings at each end of a run
# Every run measures at least this many rounds (traced runs: traced rounds).
# The host's speed swings by up to 20% over tens of seconds, and a longer run
# averages more of it.  Rounds on the same inputs must repeat the first
# round's output bytes and, when traced, its counters.
MIN_ROUNDS = 2


def import_program() -> float:
    """Import the package from SRC and return the time the import took."""
    package = SRC / "rfso_secrecy"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: the rfso_secrecy package is missing from {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import rfso_secrecy
    elapsed = time.perf_counter() - t0
    if Path(rfso_secrecy.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported rfso_secrecy from {rfso_secrecy.__file__},"
                 f" not from {SRC}")
    return elapsed


def calibrate() -> float:
    """Median time of a fixed scipy loggamma kernel: a machine-speed probe."""
    import numpy as np
    from scipy.special import loggamma
    z = (np.linspace(0.5, 50.0, 200_000)
         + 1j * np.linspace(-30.0, 30.0, 200_000))
    times = []
    for _ in range(CALIB_REPEATS):
        t0 = time.perf_counter()
        loggamma(z)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_setup(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter to having imported the
    package and built every input of the workload.  perf_counter reads the
    system-wide monotonic clock, so stamps compare across processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed:\n{proc.stderr}")
        ready = float(proc.stdout.split()[-1])
        times.append(ready - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# timed rounds
# ---------------------------------------------------------------------------

@dataclass
class TaskRun:
    task: object
    elapsed: float
    text: str
    clamp_warnings: int
    runtime_warnings: int
    delivered: int = 0      # cells with a value, set by the checks
    mc_samples: int = 0


def run_task(task) -> TaskRun:
    """Run one task.  Warnings are recorded with the "always" filter, so
    repeats from one code location are all counted."""
    from rfso_secrecy.errors import ClampExcessWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        text = task.run()
        elapsed = time.perf_counter() - t0
    return TaskRun(
        task, elapsed, text,
        sum(issubclass(w.category, ClampExcessWarning) for w in caught),
        sum(issubclass(w.category, RuntimeWarning) for w in caught))


def run_round(tasks) -> list:
    return [run_task(task) for task in tasks]


def run_rounds(tasks, seconds: float, rounds=None, after_round=None):
    """Add rounds until there are MIN_ROUNDS and `seconds` have passed."""
    rounds = [] if rounds is None else rounds
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        rounds.append(run_round(tasks))
        if after_round is not None:
            after_round()
    return rounds


def check_rounds(workload: str, seed: int, rounds, problems: list):
    """Check every round; returns (attempted, failed) cell counts."""
    import workloads as wl
    fingerprint = None
    if seed == wl.DEFAULT_SEED:
        fingerprint = json.loads(FINGERPRINT.read_text())
    attempted = failed = 0
    for r, runs in enumerate(rounds):
        results, bad = [], set()
        for i, run in enumerate(runs):
            rows, failed_rows = wl.check_task(run.task, run.text, problems)
            if r and run.text != rounds[0][i].text:
                problems.append(f"{run.task.name}: output differs between "
                                "rounds on the same inputs")
                failed_rows = set(range(run.task.cells))
            bad.update((i, j) for j in failed_rows)
            run.delivered = sum(row.value is not None and not row.error_flag
                                for row in rows)
            run.mc_samples = sum(row.n_samples or 0 for row in rows)
            results.append((run.task, rows))
            attempted += run.task.cells
        bad.update((i, 0) for i in wl.check_bounds(results, problems))
        if fingerprint is not None:
            bad |= wl.check_fingerprint(workload, results, fingerprint,
                                        problems)
        failed += len(bad)
    return attempted, failed


def rate(runs, scenario=None) -> float:
    chosen = [r for r in runs if scenario in (None, r.task.scenario)]
    elapsed = sum(r.elapsed for r in chosen)
    return sum(r.delivered for r in chosen) / elapsed if elapsed else 0.0


def end_to_end(rounds, attempted: int, failed: int) -> dict:
    runs = [run for runs in rounds for run in runs]
    mc = [r for r in runs if r.mc_samples]
    mc_elapsed = sum(r.elapsed for r in mc)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "cells_per_s": rate(runs),
        "s1_cells_per_s": rate(runs, 1),
        "s2_cells_per_s": rate(runs, 2),
        "mc_samples_per_s": (sum(r.mc_samples for r in mc) / mc_elapsed
                             if mc_elapsed else 0.0),
        "fail_frac": failed / attempted if attempted else 1.0,
        "peak_rss_mb": rss_kb / 1024.0,
    }


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------

def per_round(snapshots) -> list:
    """Counter deltas of each round from cumulative snapshots."""
    out, prev = [], {}
    for snap in snapshots:
        out.append({k: v - prev.get(k, 0) for k, v in snap.items()})
        prev = snap
    return out


def layer_metrics(rounds_stats, setup_stats, traced_runs) -> dict:
    """Per-layer metrics of one round: exact counts of the first traced
    round (the checks make sure every round repeats them) and mean times."""
    from tracer import is_deterministic
    first = rounds_stats[0]
    n = len(rounds_stats)
    out = {}
    for key in sorted({k for stats in rounds_stats for k in stats}):
        if key.startswith("presets."):
            continue    # reported for the setup phase below
        if is_deterministic(key):
            out[key] = first.get(key, 0)
        else:
            out[key] = sum(stats.get(key, 0) for stats in rounds_stats) / n
    calls = first.get("specfun.value_many.calls", 0)
    out["specfun.factors"] = (first.get("specfun.factors_sum", 0) / calls
                              if calls else 0.0)
    out["specfun.nodes"] = (first.get("specfun.nodes_sum", 0) / calls
                            if calls else 0.0)
    out.update((k, v) for k, v in sorted(setup_stats.items())
               if k.startswith("presets."))
    out["secrecy.clamp_warnings"] = sum(r.clamp_warnings for r in traced_runs)
    out["warnings.runtime"] = sum(r.runtime_warnings for r in traced_runs)
    return out


def traced_run(workload: str, seed: int, seconds: float, problems: list):
    """Traced set-up, then rounds with the tracer installed.  In the first
    round every task also runs once untraced, just before its traced run, so
    the tracing overhead is measured on adjacent runs of the same inputs.
    Returns (rounds, layer metrics); the untraced runs come first."""
    import workloads as wl
    from tracer import Tracer, is_deterministic

    tracer = Tracer()
    with tracer.installed():
        tasks = wl.build_tasks(workload, seed)
    setup_stats = tracer.totals()

    tracer = Tracer()
    untraced, traced = [], [[]]
    for task in tasks:
        untraced.append(run_task(task))
        with tracer.installed():
            traced[0].append(run_task(task))
    snapshots = [tracer.totals()]
    with tracer.installed():
        run_rounds(tasks, seconds, traced,
                   lambda: snapshots.append(tracer.totals()))
    for name in tracer.missing:
        print(f"note: tracer target {name} not found; its counters read 0")

    stats = per_round(snapshots)
    for r, round_stats in enumerate(stats[1:], start=1):
        for key in sorted(set(stats[0]) | set(round_stats)):
            if is_deterministic(key) and \
                    stats[0].get(key, 0) != round_stats.get(key, 0):
                problems.append(f"tracer: {key} differs between traced "
                                f"rounds 1 and {r + 1}")
    layers = layer_metrics(stats, setup_stats, traced[0])
    return [untraced] + traced, layers


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def unit_of(name: str, units: dict) -> str:
    if name in units:
        return units[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def print_table(title: str, metrics: dict, units: dict):
    print(title)
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:44s} {shown:>14s} {unit_of(name, units)}")


def run_workload(args) -> int:
    import_s = import_program()
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(wl.WORKLOADS)} or all")

    spec = json.loads(SPEC.read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    problems = []

    calib_start = calibrate()
    if args.trace:
        rounds, table = traced_run(args.workload, args.seed, args.seconds,
                                   problems)
        attempted, failed = check_rounds(args.workload, args.seed, rounds,
                                         problems)
        untraced_rate, traced_rate = rate(rounds[0]), rate(rounds[1])
        table["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate
                                        if untraced_rate else 0.0)
        table["import.s"] = import_s
    else:
        setup_s = measure_setup(args.workload, args.seed)
        tasks = wl.build_tasks(args.workload, args.seed)
        rounds = run_rounds(tasks, args.seconds)
        attempted, failed = check_rounds(args.workload, args.seed, rounds,
                                         problems)
        table = end_to_end(rounds, attempted, failed)
        table["setup_s"] = setup_s
    calib_end = calibrate()
    table["machine.calib_s"] = statistics.median([calib_start, calib_end])
    table["machine.calib_start_s"] = calib_start
    table["machine.calib_end_s"] = calib_end
    table["rounds"] = len(rounds)

    for m in listed:
        table.setdefault(m["name"], 0 if m["unit"] == "count" else 0.0)
    for line in problems[:50]:
        print(f"problem: {line}")
    if len(problems) > 50:
        print(f"problem: ... and {len(problems) - 50} more")
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}",
                table, units)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": table[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


def setup_probe(args) -> int:
    import_program()
    import workloads as wl
    wl.build_tasks(args.workload, args.seed)
    print(time.perf_counter(), flush=True)
    return 0


def write_fingerprint(args) -> int:
    import_program()
    import workloads as wl
    out = {"settings": wl.fingerprint_settings()}
    for workload in ("sweep_closed", "sweep_mc", "oracle_quad"):
        runs = run_round(wl.build_tasks(workload, wl.DEFAULT_SEED))
        problems = []
        for run in runs:
            wl.check_task(run.task, run.text, problems)
        if problems:
            sys.exit("error: not recording failing outputs:\n"
                     + "\n".join(problems))
        out[workload] = {run.task.name: run.text for run in runs}
    FINGERPRINT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args) -> int:
    """Every workload of BENCHMARK.json in its own process, in turn."""
    status = 0
    for workload in [w["name"] for w in json.loads(SPEC.read_text())[
            "workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=600)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="sweep_closed")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--write-fingerprint", action="store_true")
    args = p.parse_args(argv)
    if args.write_fingerprint:
        return write_fingerprint(args)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
