"""Command-line sweep runner.

Reads a scenario + sweep from a key=value config file or a named preset,
evaluates the requested metrics with the requested evaluators over one axis,
and emits CSV (schema: axis_name, axis_value, metric, evaluator, value,
std_error, n_samples, error_flag).  Output is byte-stable for fixed inputs
and seed.  Exit codes: 0 success, 2 configuration error, 3 at least one
cell failed to evaluate (failed cells carry an error flag and the sweep
continues).
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Sequence

import numpy as np

from . import montecarlo, secrecy
from .channels import DggLink, EtaMuLink, RngStream, TURBULENCE_PRESETS
from .errors import ConfigError, ParameterError, RfsoError
from .presets import AXES, EVALUATORS, METRICS, SweepSpec, _db, figure_preset
from .secrecy import Scenario1Config, Scenario2Config

__all__ = ["ResultRow", "load_config", "run_sweep", "main"]

CSV_HEADER = ("axis_name,axis_value,metric,evaluator,value,"
              "std_error,n_samples,error_flag")


@dataclass(frozen=True)
class ResultRow:
    axis_name: str
    axis_value: float
    metric: str
    evaluator: str
    value: float | None
    std_error: float | None
    n_samples: int | None
    error_flag: str = ""

    def to_csv(self) -> str:
        return ",".join([
            self.axis_name,
            f"{self.axis_value:.12g}",
            self.metric,
            self.evaluator,
            "" if self.value is None else f"{self.value:.12g}",
            "" if self.std_error is None else f"{self.std_error:.6g}",
            "" if self.n_samples is None else str(self.n_samples),
            self.error_flag,
        ])


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = {
    "scenario", "eta0", "mu0", "phi_sr_db", "eta_e", "mu_e", "phi_se_db",
    "turbulence", "a1", "a2", "b1", "b2", "omega1", "omega2", "lambda1",
    "lambda2", "eps", "s0", "Ud_db", "se", "Ue_db", "target_rate",
}
_SWEEP_KEYS = {
    "axis", "start", "stop", "points", "metrics", "evaluators",
    "mc_samples", "seed",
}
_DGG_EXPLICIT = ("a1", "a2", "b1", "b2", "omega1", "omega2",
                 "lambda1", "lambda2")


def _parse_kv(path: str):
    sections = {"scenario": {}, "sweep": {}}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip().lower()
                if name not in sections:
                    raise ConfigError(f"{path}:{lineno}: unknown section "
                                      f"[{name}]")
                current = name
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            if current is None:
                raise ConfigError(f"{path}:{lineno}: key outside a "
                                  "[scenario] or [sweep] section")
            key, value = (s.strip() for s in line.split("=", 1))
            allowed = _SCENARIO_KEYS if current == "scenario" else _SWEEP_KEYS
            if key not in allowed:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in "
                                  f"[{current}]")
            if key in sections[current]:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            sections[current][key] = value
    return sections["scenario"], sections["sweep"]


_REQUIRED = object()


def _need(d: dict, key: str, conv, what: str, default=_REQUIRED):
    """d[key] converted by conv; a missing key gives the default, or is an
    error when there is none, and so is a value conv rejects."""
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} for {what}")
        return default
    try:
        return conv(d[key])
    except ValueError as e:
        raise ConfigError(f"key {key!r}: {e}") from None


def _build_scenario(sc: dict):
    which = _need(sc, "scenario", int, "any scenario")
    if which not in (1, 2):
        raise ConfigError("scenario must be 1 or 2")
    eta0 = _need(sc, "eta0", float, "the main RF link")
    mu0 = _need(sc, "mu0", int, "the main RF link")
    phi_sr = _db(_need(sc, "phi_sr_db", float, "the main RF link"))
    rate = _need(sc, "target_rate", float, "the scenario", 0.5)

    if "turbulence" in sc:
        if any(k in sc for k in _DGG_EXPLICIT):
            raise ConfigError("give either turbulence = st|mt|wt or the "
                              "explicit DGG parameters, not both")
        name = sc["turbulence"].lower()
        if name not in TURBULENCE_PRESETS:
            raise ConfigError(f"unknown turbulence preset {name!r}")
        dgg_kw = dict(TURBULENCE_PRESETS[name])
    else:
        missing = [k for k in _DGG_EXPLICIT if k not in sc]
        if missing:
            raise ConfigError("explicit DGG parameters incomplete; missing "
                              + ", ".join(missing))
        dgg_kw = {k: _need(sc, k, int if k.startswith("lambda") else float,
                           "the FSO link")
                  for k in _DGG_EXPLICIT}
    eps = _need(sc, "eps", float, "the FSO link")
    s0 = _need(sc, "s0", int, "the FSO link")
    ud = _db(_need(sc, "Ud_db", float, "the FSO link"))
    fso_main = DggLink(eps=eps, detection=s0, electrical_snr=ud, **dgg_kw)
    rf_main = EtaMuLink(eta0, mu0, phi_sr)

    if which == 1:
        for k in ("se", "Ue_db"):
            if k in sc:
                raise ConfigError(f"key {k!r} belongs to scenario 2")
        eta_e = _need(sc, "eta_e", float, "the RF eavesdropper")
        mu_e = _need(sc, "mu_e", int, "the RF eavesdropper")
        phi_se = _db(_need(sc, "phi_se_db", float, "the RF eavesdropper"))
        return Scenario1Config(rf_main=rf_main,
                               rf_eve=EtaMuLink(eta_e, mu_e, phi_se),
                               fso_main=fso_main, target_rate=rate)
    for k in ("eta_e", "mu_e", "phi_se_db"):
        if k in sc:
            raise ConfigError(f"key {k!r} belongs to scenario 1")
    se = _need(sc, "se", int, "the FSO eavesdropper")
    ue = _db(_need(sc, "Ue_db", float, "the FSO eavesdropper"))
    fso_eve = DggLink(eps=eps, detection=se, electrical_snr=ue, **dgg_kw)
    return Scenario2Config(rf_main=rf_main, fso_main=fso_main,
                           fso_eve=fso_eve, target_rate=rate)


def _comma_list(text: str) -> tuple:
    """The non-empty, stripped items of a comma-separated list."""
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _build_sweep(sw: dict) -> SweepSpec:
    kwargs = dict(
        axis=_need(sw, "axis", str, "the sweep"),
        start=_need(sw, "start", float, "the sweep"),
        stop=_need(sw, "stop", float, "the sweep"),
        points=_need(sw, "points", int, "the sweep"),
    )
    for key, conv in (("metrics", _comma_list), ("evaluators", _comma_list),
                      ("mc_samples", int), ("seed", int)):
        if key in sw:
            kwargs[key] = _need(sw, key, conv, "the sweep")
    return SweepSpec(**kwargs)


def load_config(path: str):
    """Parse a config file into (scenario config, sweep spec); unknown keys
    are errors."""
    sc, sw = _parse_kv(path)
    cfg = _build_scenario(sc)
    sweep = _build_sweep(sw)
    _validate_compat(cfg, sweep)
    return cfg, sweep


def _validate_compat(cfg, sweep: SweepSpec):
    is1 = isinstance(cfg, Scenario1Config)
    for m in sweep.metrics:
        if is1 and m in ("sop2", "spsc2"):
            raise ConfigError(f"metric {m!r} needs a scenario-2 config")
        if not is1 and m in ("sop1", "spsc1"):
            raise ConfigError(f"metric {m!r} needs a scenario-1 config")
    if is1 and sweep.axis == "Ue_db":
        raise ConfigError("axis Ue_db needs a scenario-2 config")
    if not is1 and sweep.axis == "phi_se_db":
        raise ConfigError("axis phi_se_db needs a scenario-1 config")
    if not any(_cell_supported(m, e) for m in sweep.metrics
               for e in sweep.evaluators):
        raise ConfigError("no valid (metric, evaluator) combination: "
                          "asymptotic/exact_quadrature apply to SOP metrics")


# ---------------------------------------------------------------------------
# sweep evaluation
# ---------------------------------------------------------------------------

def _with_axis(cfg, axis: str, value: float):
    if axis == "phi_sr_db":
        return replace(cfg, rf_main=cfg.rf_main.with_avg_snr(_db(value)))
    if axis == "phi_se_db":
        return replace(cfg, rf_eve=cfg.rf_eve.with_avg_snr(_db(value)))
    if axis == "Ud_db":
        return replace(cfg,
                       fso_main=cfg.fso_main.with_electrical_snr(_db(value)))
    if axis == "Ue_db":
        return replace(cfg,
                       fso_eve=cfg.fso_eve.with_electrical_snr(_db(value)))
    if axis == "target_rate":
        return replace(cfg, target_rate=float(value))
    if axis == "eps":
        eps = float(value)
        if isinstance(cfg, Scenario2Config):
            return replace(cfg, fso_main=cfg.fso_main.with_eps(eps),
                           fso_eve=cfg.fso_eve.with_eps(eps))
        return replace(cfg, fso_main=cfg.fso_main.with_eps(eps))
    raise ConfigError(f"unknown axis {axis!r}")


def _check_axis_range(sweep: SweepSpec, curves):
    """ConfigError unless every curve's config accepts both ends of the
    sweep (_with_axis).  Each parameter's domain is an interval, so every
    point between the ends is valid too."""
    for v in (sweep.start, sweep.stop):
        try:
            for _, cfg in curves:
                _with_axis(cfg, sweep.axis, v)
        except ParameterError as exc:
            raise ConfigError(f"{sweep.axis} = {v:g} is outside its "
                              f"domain: {exc}") from None


# a closed or asymptote cell's entry builds its plan (secrecy._Plan; an SOP
# asymptote's is its lower bound's), which _run_curves hands to the driver
_CLOSED = {"sop1": secrecy._sop1_plan, "sop2": secrecy._sop2_plan,
           "spsc1": secrecy._spsc1_plan, "spsc2": secrecy._spsc2_plan}
_ASYM = {"sop1": partial(secrecy._sop1_plan, label="sop1_asymptotic"),
         "sop2": partial(secrecy._sop2_plan, label="sop2_asymptotic")}
_QUAD = {"sop1": secrecy.sop1_exact_quadrature,
         "sop2": secrecy.sop2_exact_quadrature}
# the MC evaluator estimates the same quantity the closed form computes:
# lower-bound event for SOP metrics, the crossing event for SPSC; an entry
# builds the cell's estimator steps, which montecarlo._count_hits walks
_MC = {"sop1": montecarlo._sop1, "sop2": montecarlo._sop2,
       "spsc1": montecarlo._spsc1, "spsc2": montecarlo._spsc2}
# metric -> plan builder (a point's config to its plan, which is data) or
# public function per evaluator; the functions sit in module-level dicts
# because perfbench's tracer patches functions in a module's dicts one
# level deep
_EVALUATORS = {"closed": _CLOSED, "asymptotic": _ASYM,
               "exact_quadrature": _QUAD, "mc": _MC}


def _cell_supported(metric: str, evaluator: str) -> bool:
    return metric in _EVALUATORS[evaluator]


def _evaluate_cells(cells, cfgs, sweep: SweepSpec) -> dict:
    """(value, std_error, n_samples), or the RfsoError that stopped it, of
    each cell (curve, grid index, axis value, metric, evaluator) of one
    task: a quadrature cell, or the MC cells of every curve at one grid
    index.  Those all start from RngStream(sweep.seed, index), the stream
    each has alone, and montecarlo._count_hits walks them together: each
    distinct generator call is made once, every count is the cell's own,
    and a failure stays with its cell."""
    results, steps = {}, {}
    for cell in cells:
        n, _, v, metric, evaluator = cell
        try:
            cfg = _with_axis(cfgs[n], sweep.axis, v)
            if evaluator == "mc":
                steps[cell] = _MC[metric](cfg)
            else:
                results[cell] = _EVALUATORS[evaluator][metric](cfg), None, None
        except RfsoError as exc:
            results[cell] = exc
    if steps:
        hits = montecarlo._count_hits(list(steps.values()), sweep.mc_samples,
                                      RngStream(sweep.seed, cells[0][1]))
        for cell, count in zip(steps, hits):
            if isinstance(count, RfsoError):
                results[cell] = count
            else:
                est = montecarlo.MCEstimate.from_counts(count,
                                                        sweep.mc_samples)
                results[cell] = est.value, est.std_error, est.n_samples
    return results


def _run_curves(cfgs, sweep: SweepSpec, jobs: int = 1) -> list:
    """Evaluate the sweep grid on each curve config; returns each curve's
    rows.

    The closed-form cells of all the curves are one flat list of (curve,
    plan) in one secrecy._evaluate call: a curve's plans share each contour
    integral's evaluation, and the curves share integrands and stacked
    passes, with every value the one its curve gives alone.  The asymptote
    cells are one more such call, served by residues.  The rest are tasks
    (_evaluate_cells): each quadrature cell is one, and the MC cells of
    all the curves at one grid index, which share a stream, are one.  The
    tasks run one at a time, or in a pool of `jobs` threads when jobs > 1.
    Rows come out in deterministic (axis point, metric, evaluator) order
    regardless of evaluation order; failed cells carry an error flag
    instead of aborting the sweep.
    """
    values = np.linspace(sweep.start, sweep.stop, sweep.points)
    cells = []
    for n, cfg in enumerate(cfgs):
        _validate_compat(cfg, sweep)
        grid = [(float(v), metric, evaluator) for v in values
                for metric in sweep.metrics for evaluator in sweep.evaluators
                if _cell_supported(metric, evaluator)]
        cells += [(n, index, *point) for index, point in enumerate(grid)]

    def row(cell, result):
        """The cell's row from its (value, std_error, n_samples), or from the
        RfsoError that stopped it."""
        _, _, v, metric, evaluator = cell
        if isinstance(result, RfsoError):
            return ResultRow(sweep.axis, v, metric, evaluator, None, None,
                             None, error_flag=type(result).__name__)
        return ResultRow(sweep.axis, v, metric, evaluator, *result)

    rows = {}
    for kind in ("closed", "asymptotic"):
        plans = {}
        for cell in cells:
            n, _, v, metric, evaluator = cell
            if evaluator == kind:
                try:
                    plans[cell] = n, _EVALUATORS[kind][metric](_with_axis(
                        cfgs[n], sweep.axis, v))
                except RfsoError as exc:
                    rows[cell] = row(cell, exc)
        results = secrecy._evaluate(list(plans.values()),
                                    residues=kind != "closed")
        for cell, result in zip(plans, results):
            rows[cell] = row(cell, result if isinstance(result, RfsoError)
                             else (result, None, None))
    tasks, streams = [], {}
    for cell in cells:
        if cell[4] == "exact_quadrature":
            tasks.append([cell])
        elif cell[4] == "mc":
            streams.setdefault(cell[1], []).append(cell)
    tasks += streams.values()
    evaluate = partial(_evaluate_cells, cfgs=cfgs, sweep=sweep)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(evaluate, tasks))
    else:
        done = map(evaluate, tasks)
    for results in done:
        rows.update((cell, row(cell, result))
                    for cell, result in results.items())
    return [[rows[cell] for cell in cells if cell[0] == n]
            for n in range(len(cfgs))]


def run_sweep(cfg, sweep: SweepSpec, jobs: int = 1):
    """Evaluate the sweep grid on one curve (_run_curves); returns (rows,
    any_failure)."""
    rows, = _run_curves([cfg], sweep, jobs)
    return rows, any(r.error_flag for r in rows)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rfso-secrecy",
        description="Sweep secrecy metrics of a dual-hop RF-FSO link.")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--preset",
                   help="named preset (fig1..fig10, st, mt, wt, lognormal)")
    p.add_argument("--axis", choices=AXES)
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--metrics", type=_comma_list,
                   help="comma list: " + ",".join(METRICS))
    p.add_argument("--evaluators", type=_comma_list,
                   help="comma list: " + ",".join(EVALUATORS))
    p.add_argument("--mc-samples", type=int, dest="mc_samples")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default="-", help="output path or - for stdout")
    return p


def _override_sweep(sweep: SweepSpec, args) -> SweepSpec:
    """The sweep with every field its flag gives replaced (the flags' dests
    are SweepSpec's field names)."""
    kw = {f.name: getattr(args, f.name) for f in fields(SweepSpec)
          if getattr(args, f.name) is not None}
    return replace(sweep, **kw) if kw else sweep


def main(argv: Sequence[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        if (args.config is None) == (args.preset is None):
            raise ConfigError("exactly one of --config or --preset required")
        if args.config is not None:
            cfg, sweep = load_config(args.config)
            curves = (("config", cfg),)
        else:
            preset = figure_preset(args.preset)
            curves, sweep = preset.curves, preset.sweep
        sweep = _override_sweep(sweep, args)
        for _, cfg in curves:
            _validate_compat(cfg, sweep)
        _check_axis_range(sweep, curves)
        out = (sys.stdout if args.out == "-"
               else open(args.out, "w", encoding="utf-8", newline="\n"))
    except (RfsoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    lines = [CSV_HEADER]
    failed = False
    results = _run_curves([cfg for _, cfg in curves], sweep, jobs=args.jobs)
    for (label, _), rows in zip(curves, results):
        if len(curves) > 1:
            lines.append(f"# curve: {label}")
        failed = failed or any(r.error_flag for r in rows)
        lines.extend(r.to_csv() for r in rows)
    out.write("\n".join(lines) + "\n")
    if out is not sys.stdout:
        out.close()
    return 3 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
