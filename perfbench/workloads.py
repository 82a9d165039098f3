"""Seeded inputs of each workload, how one task runs, and the output checks.

A task is one unit the users of the package would run: one CLI call on one
figure preset, or one library call at one configuration.  A round is the
workload's whole task list; every round of a run repeats the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, replace

import rfso_secrecy
from rfso_secrecy import cli
from rfso_secrecy.errors import RfsoError
from rfso_secrecy.secrecy import Scenario1Config

# sweep_closed_jobs2 is not in BENCHMARK.json (see README.md) but runs by
# name, for measuring the CLI's thread pool.
WORKLOADS = ("sweep_closed", "oracle_quad", "sweep_mc", "sweep_closed_jobs2")
DEFAULT_SEED = 1

PRESETS = tuple(f"fig{i}" for i in range(1, 11))
# Points per curve in the CLI sweeps, by scenario.  A scenario-2 cell costs
# about a tenth of a scenario-1 cell; more points give s2_cells_per_s a few
# seconds of timed work per run instead of under one.
POINTS = {1: 2, 2: 6}
MC_SAMPLES = 50_000     # samples per Monte Carlo cell
SHIFT_DB = 2.0          # largest seeded shift of each preset axis endpoint

# oracle_quad: the HD curves of fig3 and the wt HD curve of fig5, each at one
# U_d drawn from every stratum.  Within these strata scipy's adaptive
# quadrature makes the same number of integrand calls for every U_d (the mt
# curve drops from 165 to 105 calls between 30 and 30.5 dB, wt from 225 to
# 195 near 5 dB), so every seed gives a round of the same work.
ORACLE_CURVES = (("fig3", "wt/s0=1"), ("fig3", "st/s0=1"),
                 ("fig3", "mt/s0=1"), ("fig5", "wt/s=1"))
ORACLE_STRATA_DB = ((5.5, 8.0), (31.0, 33.0))
ORACLE_CALLS = {1: ("sop1_lower", "sop1_exact_quadrature", "sop1_asymptotic"),
                2: ("sop2_lower", "sop2_exact_quadrature", "sop2_asymptotic")}

# The CSV schema is part of the CLI's behaviour contract.
CSV_HEADER = ("axis_name,axis_value,metric,evaluator,value,"
              "std_error,n_samples,error_flag")
# Monotonicity slack along an SNR axis: the contour engine works to 1e-11
# relative per integral, and a metric sums a few dozen of them.
MONOTONE_REL = 1e-9
MONOTONE_ABS = 1e-12
# Exact quadrature bounds the closed-form lower bound from above (acceptance
# criterion c6) to the quadrature's own absolute tolerance.
BOUND_SLACK = 1e-7


def _db(x: float) -> float:
    return 10.0 ** (x / 10.0)


@dataclass
class Row:
    curve: str
    axis_value: str
    metric: str
    evaluator: str
    value: float | None
    std_error: float | None
    n_samples: int | None
    error_flag: str
    raw: str


@dataclass
class CliTask:
    name: str
    scenario: int
    argv: tuple
    curves: int

    @property
    def cells(self) -> int:
        return self.curves * POINTS[self.scenario]

    def run(self) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(self.argv))
        return f"# exit {rc}\n" + buf.getvalue()


@dataclass
class LibTask:
    name: str
    scenario: int
    function: str
    cfg: object
    cells: int = 1

    def run(self) -> str:
        fn = getattr(rfso_secrecy, self.function)
        try:
            value = float(fn(self.cfg))
        except RfsoError as exc:
            return f"{self.name},,{type(exc).__name__}\n"
        return f"{self.name},{value!r},\n"


def _cli_tasks(seed: int, evaluator: str, jobs: int) -> list:
    rng = random.Random(seed)
    tasks = []
    for name in PRESETS:
        preset = rfso_secrecy.figure_preset(name)
        start = preset.sweep.start + round(rng.uniform(-SHIFT_DB, SHIFT_DB), 3)
        stop = preset.sweep.stop + round(rng.uniform(-SHIFT_DB, SHIFT_DB), 3)
        scenario = 1 if isinstance(preset.curves[0][1], Scenario1Config) else 2
        argv = ["--preset", name, "--evaluators", evaluator,
                "--points", str(POINTS[scenario]), f"--start={start:.3f}",
                f"--stop={stop:.3f}", "--jobs", str(jobs)]
        if evaluator == "mc":
            argv += ["--seed", str(seed), "--mc-samples", str(MC_SAMPLES)]
        tasks.append(CliTask(name, scenario, tuple(argv), len(preset.curves)))
    return tasks


def _oracle_tasks(seed: int) -> list:
    rng = random.Random(seed)
    curves = []
    for preset_name, label in ORACLE_CURVES:
        cfg = dict(rfso_secrecy.figure_preset(preset_name).curves)[label]
        curves.append((f"{preset_name}:{label}", cfg))
    tasks = []
    for lo, hi in ORACLE_STRATA_DB:
        ud_db = round(rng.uniform(lo, hi), 3)
        for label, cfg in curves:
            point = replace(cfg, fso_main=cfg.fso_main.with_electrical_snr(
                _db(ud_db)))
            scenario = 1 if isinstance(cfg, Scenario1Config) else 2
            for function in ORACLE_CALLS[scenario]:
                tasks.append(LibTask(f"{label}@Ud={ud_db:.3f}:{function}",
                                     scenario, function, point))
    return tasks


def build_tasks(workload: str, seed: int) -> list:
    """Every input of one round, built from the seed alone."""
    if workload == "sweep_closed":
        return _cli_tasks(seed, "closed", jobs=1)
    if workload == "sweep_closed_jobs2":
        return _cli_tasks(seed, "closed", jobs=2)
    if workload == "sweep_mc":
        return _cli_tasks(seed, "mc", jobs=1)
    if workload == "oracle_quad":
        return _oracle_tasks(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output parsing and checks
# ---------------------------------------------------------------------------

def _float(text: str):
    return float(text) if text else None


def parse_rows(task, text: str) -> list:
    """Rows of one task's output, or ValueError when its shape is wrong."""
    if isinstance(task, LibTask):
        name, value, flag = text.rstrip("\n").split(",")
        return [Row(task.name, "", task.function, "library", _float(value),
                    None, None, flag, text)]
    lines = text.splitlines()
    if len(lines) < 2 or lines[1] != CSV_HEADER:
        raise ValueError("missing CSV header")
    rows, curve = [], "config"
    for line in lines[2:]:
        if line.startswith("# curve: "):
            curve = line[len("# curve: "):]
            continue
        fields = line.split(",")
        if len(fields) != 8:
            raise ValueError(f"malformed CSV row {line!r}")
        rows.append(Row(curve, fields[1], fields[2], fields[3],
                        _float(fields[4]), _float(fields[5]),
                        int(fields[6]) if fields[6] else None, fields[7],
                        line))
    if len(rows) != task.cells:
        raise ValueError(f"{len(rows)} rows, expected {task.cells}")
    return rows


def _bad_value(row: Row) -> bool:
    return (row.error_flag != "" or row.value is None
            or not math.isfinite(row.value) or not 0.0 <= row.value <= 1.0)


def _not_monotone(metric: str, prev: float, value: float) -> bool:
    slack = MONOTONE_REL * max(abs(prev), abs(value)) + MONOTONE_ABS
    if metric.startswith("sop"):
        return value > prev + slack     # outage falls as the SNR grows
    return value < prev - slack         # SPSC rises as the SNR grows


def check_task(task, text: str, problems: list):
    """(rows, indices of failed cells) of one task; problems get one line per
    failure.  Output that cannot be parsed fails every cell of the task."""
    try:
        rows = parse_rows(task, text)
    except ValueError as exc:
        problems.append(f"{task.name}: {exc}")
        return [], set(range(task.cells))
    failed = set()
    for i, row in enumerate(rows):
        if _bad_value(row):
            failed.add(i)
            problems.append(f"{task.name}: bad cell {row.raw!r}")
    for i in range(1, len(rows)):
        prev, row = rows[i - 1], rows[i]
        if (row.evaluator == "closed" and prev.curve == row.curve
                and i not in failed and i - 1 not in failed
                and _not_monotone(row.metric, prev.value, row.value)):
            failed.add(i)
            problems.append(f"{task.name}: {row.curve} not monotone at "
                            f"{row.axis_value}: {prev.value!r} -> "
                            f"{row.value!r}")
    return rows, failed


def check_bounds(results, problems: list) -> set:
    """oracle_quad: the exact quadrature is not below the lower bound.
    Returns the indices (into results) of failed cells."""
    lower = {}
    failed = set()
    for task, rows in results:
        if isinstance(task, LibTask) and task.function.endswith("_lower"):
            point = task.name.rsplit(":", 1)[0]
            lower[point] = rows[0].value if rows else None
    for i, (task, rows) in enumerate(results):
        if not (isinstance(task, LibTask) and rows
                and task.function.endswith("_exact_quadrature")):
            continue
        bound = lower.get(task.name.rsplit(":", 1)[0])
        exact = rows[0].value
        if bound is None or exact is None:
            continue
        if exact < bound - BOUND_SLACK:
            failed.add(i)
            problems.append(f"{task.name}: quadrature {exact!r} below the "
                            f"lower bound {bound!r}")
    return failed


# ---------------------------------------------------------------------------
# fingerprint of the default seed
# ---------------------------------------------------------------------------

FINGERPRINT_REL = 1e-11     # closed forms stay this close to the recorded run
QUADRATURE_REL = 1e-9       # the oracles' own relative tolerance
MC_SIGMAS = 5.0


def fingerprint_settings() -> dict:
    """Inputs that the recorded values depend on besides the seed, as they
    read back from JSON."""
    return {"seed": DEFAULT_SEED, "points": [POINTS[1], POINTS[2]],
            "mc_samples": MC_SAMPLES,
            "shift_db": SHIFT_DB,
            "oracle_strata_db": [list(s) for s in ORACLE_STRATA_DB]}


def _close(value, recorded, rel: float, printed_digits: int | None) -> bool:
    if value is None or recorded is None:
        return value is recorded
    slack = rel * abs(recorded)
    if printed_digits and recorded:
        # the CSV rounds to this many significant digits
        slack += 10.0 ** (math.floor(math.log10(abs(recorded)))
                          - printed_digits + 1)
    return abs(value - recorded) <= slack


def _near_closed_form(row: Row, cf) -> bool:
    """An MC row within MC_SIGMAS standard errors of the closed form; the
    error is the larger of the row's own and the one the closed form implies,
    so a row with no hits still has a nonzero error."""
    if row.value is None or cf is None or not row.n_samples:
        return False
    se = max(row.std_error or 0.0, math.sqrt(cf * (1.0 - cf) / row.n_samples))
    return abs(row.value - cf) <= MC_SIGMAS * se


def check_fingerprint(workload: str, results, fingerprint: dict,
                      problems: list) -> set:
    """Compare one round on the default seed with the recorded one.

    Closed-form rows stay within FINGERPRINT_REL of the record, Monte Carlo
    rows are byte-identical and within MC_SIGMAS standard errors of the
    recorded closed form, and oracle values stay within their tolerance.
    Returns (task index, row index) pairs of failed cells.
    """
    if fingerprint.get("settings") != fingerprint_settings():
        problems.append("fingerprint was recorded with other settings")
        return {(i, j) for i, (task, _) in enumerate(results)
                for j in range(task.cells)}
    section = "sweep_closed" if workload.startswith("sweep_closed") \
        else workload
    failed = set()
    for i, (task, rows) in enumerate(results):
        text = fingerprint[section].get(task.name)
        if text is None:
            problems.append(f"{task.name}: not in the fingerprint")
            failed.update((i, j) for j in range(task.cells))
            continue
        recorded = parse_rows(task, text)
        if workload == "sweep_mc":
            closed = parse_rows(task, fingerprint["sweep_closed"][task.name])
        for j, (row, ref) in enumerate(zip(rows, recorded)):
            if (row.curve, row.axis_value, row.metric) != \
                    (ref.curve, ref.axis_value, ref.metric):
                ok = False
            elif workload == "sweep_mc":
                ok = row.raw == ref.raw and _near_closed_form(row,
                                                              closed[j].value)
            elif isinstance(task, LibTask):
                rel = (QUADRATURE_REL if "quadrature" in task.function
                       else FINGERPRINT_REL)
                ok = _close(row.value, ref.value, rel, None)
            else:
                ok = _close(row.value, ref.value, FINGERPRINT_REL, 12)
            if not ok:
                failed.add((i, j))
                problems.append(f"{task.name}: differs from the fingerprint: "
                                f"{row.raw!r} vs {ref.raw!r}")
    return failed
