"""Config parsing, sweep mechanics, CSV stability, exit codes."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rfso_secrecy import (RngStream, cli, estimate_sop1, estimate_sop2,
                          estimate_spsc1, estimate_spsc2, secrecy)
from rfso_secrecy.channels import TURBULENCE_PRESETS
from rfso_secrecy.cli import ResultRow, load_config, main, run_sweep
from rfso_secrecy.errors import AccuracyError, ConfigError, RfsoError
from rfso_secrecy.presets import SweepSpec, figure_preset
from rfso_secrecy.secrecy import Scenario1Config, Scenario2Config
from rfso_secrecy.specfun import MellinBarnesIntegral

GOOD_CONFIG = """\
# example configuration
[scenario]
scenario = 2
eta0 = 5
mu0 = 1
phi_sr_db = 12
turbulence = st
eps = 1
s0 = 1
Ud_db = 20
se = 1
Ue_db = -10
target_rate = 0.5

[sweep]
axis = Ud_db
start = 0
stop = 40
points = 21
metrics = spsc2
evaluators = closed,mc
mc_samples = 2000
seed = 99
"""


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "scenario.cfg"
    p.write_text(GOOD_CONFIG)
    return str(p)


def test_load_config_round_trip(config_file):
    cfg, sweep = load_config(config_file)
    assert isinstance(cfg, Scenario2Config)
    assert cfg.fso_main.electrical_snr == pytest.approx(100.0)
    assert cfg.fso_eve.electrical_snr == pytest.approx(0.1)
    assert sweep.points == 21 and sweep.metrics == ("spsc2",)


def test_wt_preset_parameters_expand():
    preset = figure_preset("wt")
    link = preset.curves[0][1].fso_main
    assert (link.a1, link.a2) == (2.1, 2.1)
    assert (link.b1, link.b2) == (4.0, 4.5)
    assert (link.omega1, link.omega2) == (1.07, 1.06)
    assert (link.lambda1, link.lambda2) == (1, 1)


def test_st_mt_presets_expand():
    st_link = figure_preset("st").curves[0][1].fso_main
    assert (st_link.lambda1, st_link.lambda2) == (17, 9)
    assert (st_link.b1, st_link.b2) == (0.5, 1.8)
    assert (st_link.omega1, st_link.omega2) == (1.51, 1.0)
    assert st_link.a2 == 1.0
    mt_link = figure_preset("mt").curves[0][1].fso_main
    assert (mt_link.lambda1, mt_link.lambda2) == (28, 13)
    assert (mt_link.b1, mt_link.b2) == (0.55, 2.35)
    assert (mt_link.omega1, mt_link.omega2) == (1.58, 0.97)


@pytest.mark.parametrize("old,new,fragment", [
    ("target_rate = 0.5", "target_rate = 0.5\nvolume = 11", "unknown key"),
    ("scenario = 2", "scenario = 3", "scenario must be 1 or 2"),
    ("target_rate = 0.5", "target_rate = 0.5\neta_e = 5",
     "belongs to scenario 1"),
    ("target_rate = 0.5", "target_rate = 0.5\ntarget_rate = 1",
     "duplicate key"),
    ("turbulence = st", "turbulence = st\na1 = 2.0", "not both"),
])
def test_config_rejections(tmp_path, old, new, fragment):
    p = tmp_path / "bad.cfg"
    p.write_text(GOOD_CONFIG.replace(old, new))
    with pytest.raises(ConfigError) as exc:
        load_config(str(p))
    assert fragment in str(exc.value)


_EXPLICIT_DGG = "\n".join(f"{k} = {v}"
                          for k, v in TURBULENCE_PRESETS["st"].items())


@pytest.mark.parametrize("key,bad,fragment", [
    ("target_rate", "half", "'target_rate'"),
    ("mc_samples", "many", "'mc_samples'"), ("seed", "x1", "'seed'"),
    ("a1", "one", "'a1'"), ("b2", "1.8.1", "'b2'"),
    ("omega2", "1,0", "'omega2'"), ("lambda1", "1.5", "'lambda1'"),
    ("lambda2", "nine", "'lambda2'"),
    ("target_rate", "nan", "target_rate must"),
    ("target_rate", "inf", "target_rate must"),
])
def test_cli_bad_value_exits_2_naming_the_key(tmp_path, capsys, key, bad,
                                              fragment):
    """A value its key's conversion or range check rejects, optional and
    explicit DGG keys included, is a configuration error (exit 2) that names
    the key."""
    text = GOOD_CONFIG.replace("turbulence = st", _EXPLICIT_DGG)
    text = re.sub(rf"^{key} = .*$", f"{key} = {bad}", text, flags=re.M)
    assert f"{key} = {bad}" in text
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    assert main(["--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def test_config_error_carries_line_number(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[scenario]\nscenario = 2\nnot a kv line\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(p))
    assert ":3:" in str(exc.value)


def test_metric_scenario_compatibility(config_file):
    cfg, sweep = load_config(config_file)
    from dataclasses import replace
    with pytest.raises(ConfigError):
        run_sweep(cfg, replace(sweep, metrics=("sop1",)))


def test_sweep_cardinality(config_file):
    cfg, sweep = load_config(config_file)
    from dataclasses import replace
    sweep = replace(sweep, points=21, mc_samples=500)
    rows, failed = run_sweep(cfg, sweep)
    assert len(rows) == 42  # 21 points x 1 metric x 2 evaluators
    assert not failed
    mc_rows = [r for r in rows if r.evaluator == "mc"]
    assert all(r.n_samples == 500 and r.std_error is not None
               for r in mc_rows)
    closed = [r for r in rows if r.evaluator == "closed"]
    assert all(r.std_error is None and 0 <= r.value <= 1 for r in closed)


def test_asymptote_gap_shrinks_along_axis():
    preset = figure_preset("fig3")
    cfg = preset.curves[0][1]  # wt / s0 = 1
    sweep = SweepSpec(axis="Ud_db", start=10.0, stop=40.0, points=4,
                      metrics=("sop1",), evaluators=("closed", "asymptotic"))
    rows, failed = run_sweep(cfg, sweep)
    assert not failed
    closed = [r.value for r in rows if r.evaluator == "closed"]
    asym = [r.value for r in rows if r.evaluator == "asymptotic"]
    gaps = [abs(a - c) for a, c in zip(asym, closed)]
    assert gaps[-1] <= gaps[0] + 1e-12


def test_unsupported_cells_are_skipped(config_file):
    cfg, sweep = load_config(config_file)
    from dataclasses import replace
    sweep = replace(sweep, metrics=("sop2", "spsc2"),
                    evaluators=("closed", "asymptotic"), points=2)
    rows, failed = run_sweep(cfg, sweep)
    # spsc2 has no asymptotic form: 2 points x (2 closed + 1 asymptotic)
    assert len(rows) == 6
    assert not failed


def test_failed_cells_flag_and_exit_code(config_file, tmp_path, monkeypatch):
    def boom(cfg, options=None):
        raise RfsoError("synthetic failure")
    monkeypatch.setitem(cli._CLOSED, "spsc2", boom)
    out = tmp_path / "rows.csv"
    code = main(["--config", config_file, "--points", "2",
                 "--evaluators", "closed", "--out", str(out)])
    assert code == 3
    text = out.read_text()
    assert "RfsoError" in text


# each closed form evaluated on one point alone
_SINGLE = {"sop1": secrecy.sop1_lower, "sop2": secrecy.sop2_lower,
           "spsc1": secrecy.spsc1, "spsc2": secrecy.spsc2}
# and each asymptote
_SINGLE_ASYMPTOTE = {"sop1": secrecy.sop1_asymptotic,
                     "sop2": secrecy.sop2_asymptotic}


@pytest.mark.parametrize("name, evaluator", [
    *(pytest.param(f"fig{i}", "closed", id=f"fig{i}") for i in range(1, 11)),
    *(pytest.param(f"fig{i}", "asymptotic", id=f"fig{i}-asymptotic")
      for i in (3, 5, 6, 7, 9, 10))])
@pytest.mark.filterwarnings("ignore::rfso_secrecy.errors.ClampExcessWarning")
def test_batched_closed_cells_equal_single_cell_values(name, evaluator):
    """A curve's closed cells are one batch, whose merged contour calls
    group ln-arguments of neighbouring points together: each row stays
    within 1e-13 relative of the public function on the same point (or
    1e-14 absolute: spsc1 at phi_sr = 0 dB on fig1 is a sum of terms near
    1 that cancel to 0.0126, so a 1e-14 relative change of its blocks moves
    it by 2.8e-13 relative).  So does a curve's batch of asymptote cells,
    whose merged residue calls sum each argument's poles in another order
    than a lone call; a row is flagged exactly where the public asymptote
    raises, with its error class (fig6's wt curve at U_d = 0 dB)."""
    preset = figure_preset(name)
    sweep = replace(preset.sweep, points=5, evaluators=(evaluator,))
    single_of = _SINGLE if evaluator == "closed" else _SINGLE_ASYMPTOTE
    flagged = []
    for label, cfg in preset.curves:
        rows, failed = run_sweep(cfg, sweep)
        assert len(rows) == 5 * len(set(sweep.metrics) & set(single_of))
        for r in rows:
            point = cli._with_axis(cfg, sweep.axis, r.axis_value)
            try:
                single = single_of[r.metric](point)
            except RfsoError as exc:
                assert (r.error_flag, r.value) == (type(exc).__name__, None)
                flagged.append(r)
                continue
            assert r.error_flag == ""
            assert r.value == pytest.approx(single, rel=1e-13, abs=1e-14), (
                label, r)
        assert failed == any(r.error_flag for r in rows)
    assert bool(flagged) == ((name, evaluator) == ("fig6", "asymptotic"))


@pytest.mark.parametrize("preset, label, metrics", [
    ("fig5", "wt/s=1", ("sop2", "spsc2")),
    ("fig3", "mt/s0=1", ("sop1", "spsc1")),
])
def test_failure_in_a_merged_call_stays_with_its_cell(preset, label, metrics,
                                                      monkeypatch):
    """value_many raises whenever one point's first sop ln-argument is in
    the call: the merged call raises, its requests run again one plan at a
    time, and only that point's sop row carries the flag; the other rows
    equal their single-cell values (scenario 2 exactly, since each of its
    cells makes one call)."""
    cfg = dict(figure_preset(preset).curves)[label]
    sweep = SweepSpec(axis="Ud_db", start=0.0, stop=40.0, points=5,
                      metrics=metrics, evaluators=("closed",))
    bad_point = 20.0
    plan = cli._CLOSED[metrics[0]](cli._with_axis(cfg, "Ud_db", bad_point))
    bad = plan.requests[0][1][0]
    original = MellinBarnesIntegral.value_many

    def flaky(self, ln_arguments, *args, **kwargs):
        if np.any(np.asarray(ln_arguments) == bad):
            raise AccuracyError("synthetic", best_estimate=0.0,
                                error_bound=1.0)
        return original(self, ln_arguments, *args, **kwargs)
    monkeypatch.setattr(MellinBarnesIntegral, "value_many", flaky)
    rows, failed = run_sweep(cfg, sweep)
    assert failed
    for r in rows:
        if (r.axis_value, r.metric) == (bad_point, metrics[0]):
            assert r.error_flag == "AccuracyError" and r.value is None
            continue
        assert r.error_flag == ""
        single = _SINGLE[r.metric](cli._with_axis(cfg, "Ud_db", r.axis_value))
        if isinstance(cfg, Scenario2Config):
            assert r.value == single, r
        else:
            assert r.value == pytest.approx(single, rel=1e-13, abs=1e-14), r


def test_failure_in_a_cross_curve_pass_stays_with_its_cell(tmp_path,
                                                          monkeypatch):
    """fig1's three curves share one FSO link, so main stacks their calls
    in one pass.  value_many raises whenever one curve's first spsc1
    ln-argument at one point is in the call: the stacked pass raises, its
    calls run again one at a time, then that call's requests, and only that
    row carries the flag; every row equals its curve's own run_sweep row."""
    preset = figure_preset("fig1")
    sweep = replace(preset.sweep, points=5)
    (label, cfg), bad_point = preset.curves[1], 20.0

    def ln_args(curve, v):
        plan = cli._CLOSED["spsc1"](cli._with_axis(curve, sweep.axis, v))
        return np.concatenate([ln_w for _, ln_w, _ in plan.requests])
    # an argument of no other cell (the curves' unit terms coincide)
    others = np.concatenate([
        ln_args(curve, v) for name, curve in preset.curves
        for v in np.linspace(sweep.start, sweep.stop, sweep.points)
        if (name, v) != (label, bad_point)])
    bad = next(x for x in ln_args(cfg, bad_point) if x not in others)
    original = MellinBarnesIntegral.value_many
    stacked_raised = []

    def flaky(self, ln_arguments, *args, **kwargs):
        if np.any(np.asarray(ln_arguments) == bad):
            stacked_raised.append(self._sizes is not None)
            raise AccuracyError("synthetic", best_estimate=0.0,
                                error_bound=1.0)
        return original(self, ln_arguments, *args, **kwargs)
    monkeypatch.setattr(MellinBarnesIntegral, "value_many", flaky)
    out = tmp_path / "fig1.csv"
    assert main(["--preset", "fig1", "--points", "5", "--out",
                 str(out)]) == 3
    assert stacked_raised[0]
    lines = [cli.CSV_HEADER]
    for name, curve in preset.curves:
        lines.append(f"# curve: {name}")
        rows, failed = run_sweep(curve, sweep)
        assert failed == (name == label)
        for r in rows:
            flagged = (name, r.axis_value) == (label, bad_point)
            assert r.error_flag == ("AccuracyError" if flagged else ""), r
        lines.extend(r.to_csv() for r in rows)
    assert out.read_text() == "\n".join(lines) + "\n"


def _count_integrands(monkeypatch) -> list:
    """A list that gains an entry at each MellinBarnesIntegral built."""
    built = []
    init = MellinBarnesIntegral.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)
    monkeypatch.setattr(MellinBarnesIntegral, "__init__", counted)
    return built


def test_building_a_plan_constructs_no_integrand(monkeypatch):
    """A plan's requests are factor lists: every closed and asymptote plan
    builder, on a point of every fig1-fig10 curve, builds no integrand."""
    points = []
    for i in range(1, 11):
        preset = figure_preset(f"fig{i}")
        points += [(metric, cli._with_axis(cfg, preset.sweep.axis,
                                           preset.sweep.stop))
                   for _, cfg in preset.curves
                   for metric in preset.sweep.metrics]
    built = _count_integrands(monkeypatch)
    plans = [builders[metric](cfg) for metric, cfg in points
             for builders in (cli._CLOSED, cli._ASYM) if metric in builders]
    assert len(plans) > len(points) and all(plan.requests for plan in plans)
    assert built == []


def test_a_closed_sweep_builds_each_integrand_once(monkeypatch):
    """fig3's six curves along U_d at 21 points: every sop1 cell of a curve
    asks for the same tail family's factors, so the closed sweep builds six
    integrands, one per curve."""
    preset = figure_preset("fig3")
    sweep = replace(preset.sweep, points=21, evaluators=("closed",))
    cfgs = [cfg for _, cfg in preset.curves]
    built = _count_integrands(monkeypatch)
    results = cli._run_curves(cfgs, sweep)
    assert len(cfgs) == 6 and len(built) == 6
    assert all(len(rows) == 21 and not any(r.error_flag for r in rows)
               for rows in results)


# the CLI's preset table, --evaluators closed,asymptotic --points 21, as the
# previous engine printed it: "## <preset> exit <code>", then the CSV
_PRESET_TABLE = Path(__file__).parent / "data" / "preset_table_21.txt"


def _recorded_presets():
    table, name = {}, None
    for line in _PRESET_TABLE.read_text().splitlines():
        if line.startswith("## "):
            name, _, code = line[3:].split()
            table[name] = (int(code), [])
        else:
            table[name][1].append(line)
    return table


@pytest.mark.parametrize("name", [f"fig{i}" for i in range(1, 11)])
def test_preset_table_matches_the_record(name, tmp_path):
    """Every preset at 21 points, closed form and asymptote, against the
    recorded table: each value within 1e-11 relative plus one unit in its
    12th printed digit (the benchmark fingerprint's rule), every other
    field, the error flags among them, and the exit code exactly (fig6
    exits 3 on its overflowing asymptotes)."""
    code, recorded = _recorded_presets()[name]
    out = tmp_path / f"{name}.csv"
    assert main(["--preset", name, "--evaluators", "closed,asymptotic",
                 "--points", "21", "--out", str(out)]) == code
    lines = out.read_text().splitlines()
    assert len(lines) == len(recorded)
    for line, ref in zip(lines, recorded):
        got, want = line.split(","), ref.split(",")
        if ref == cli.CSV_HEADER or ref.startswith("#") or not want[4]:
            assert line == ref
            continue
        assert got[:4] + got[5:] == want[:4] + want[5:], (line, ref)
        value, value_ref = float(got[4]), float(want[4])
        slack = 1e-11 * abs(value_ref) + (10.0 ** (
            math.floor(math.log10(abs(value_ref))) - 11) if value_ref else 0)
        assert abs(value - value_ref) <= slack, (line, ref)


def test_overflowing_asymptote_flags_its_rows_and_exits_3(tmp_path):
    """sop1_asymptotic on wt HD at U_d = 0 dB and eps 30..100 overflows a
    residue: the asymptote rows carry AccuracyError and the closed rows
    values, and the run exits 3 (an untyped ValueError ended it with a
    traceback)."""
    p = tmp_path / "overflow.cfg"
    p.write_text(
        "[scenario]\nscenario = 1\neta0 = 50\nmu0 = 3\nphi_sr_db = 10\n"
        "eta_e = 50\nmu_e = 3\nphi_se_db = 0\nturbulence = wt\neps = 30\n"
        "s0 = 1\nUd_db = 0\ntarget_rate = 0.5\n"
        "[sweep]\naxis = eps\nstart = 30\nstop = 100\npoints = 2\n"
        "metrics = sop1\nevaluators = closed,asymptotic\n")
    out = tmp_path / "rows.csv"
    assert main(["--config", str(p), "--out", str(out)]) == 3
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[3] for r in rows] == ["closed", "asymptotic"] * 2
    for r in rows:
        if r[3] == "closed":
            assert r[-1] == "" and 0.0 <= float(r[4]) <= 1.0, r
        else:
            assert r[-1] == "AccuracyError" and r[4] == "", r


@pytest.mark.filterwarnings("ignore::rfso_secrecy.errors.ClampExcessWarning")
def test_overflow_in_a_merged_residue_call_stays_with_its_cell(
        tmp_path, monkeypatch):
    """The config of the test above along U_d: the three points' sop1
    asymptotes make one residue call per family count, the calls one point
    alone makes, and the 0 dB point's residue overflows in it.  Only the
    0 dB asymptote row carries AccuracyError; the 10 and 20 dB rows equal
    their public values, and the run exits 3."""
    p = tmp_path / "overflow.cfg"
    p.write_text(
        "[scenario]\nscenario = 1\neta0 = 50\nmu0 = 3\nphi_sr_db = 10\n"
        "eta_e = 50\nmu_e = 3\nphi_se_db = 0\nturbulence = wt\neps = 30\n"
        "s0 = 1\nUd_db = 0\ntarget_rate = 0.5\n"
        "[sweep]\naxis = Ud_db\nstart = 0\nstop = 20\npoints = 3\n"
        "metrics = sop1\nevaluators = closed,asymptotic\n")
    cfg, _ = load_config(str(p))
    calls = []
    original = MellinBarnesIntegral.residue

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(MellinBarnesIntegral, "residue", counted)
    with pytest.raises(AccuracyError):
        secrecy.sop1_asymptotic(cfg)
    alone = len(calls)
    out = tmp_path / "rows.csv"
    assert main(["--config", str(p), "--out", str(out)]) == 3
    assert len(calls) == 2 * alone
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[1], r[3]) for r in rows] == [
        (v, e) for v in ("0", "10", "20") for e in ("closed", "asymptotic")]
    for r in rows:
        if r[3] == "closed":
            assert r[-1] == "" and 0.0 <= float(r[4]) <= 1.0, r
        elif r[1] == "0":
            assert r[-1] == "AccuracyError" and r[4] == "", r
        else:
            single = secrecy.sop1_asymptotic(cli._with_axis(
                cfg, "Ud_db", float(r[1])))
            assert r[-1] == "" and float(r[4]) == pytest.approx(
                single, rel=1e-11), r


def test_cli_byte_stability(config_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = main(["--config", config_file, "--points", "3",
                     "--mc-samples", "1500", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_parallel_jobs_identical_output(config_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["--config", config_file, "--points", "3", "--mc-samples", "1000",
          "--out", str(a)])
    main(["--config", config_file, "--points", "3", "--mc-samples", "1000",
          "--jobs", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_preset_with_overrides(tmp_path):
    """Every sweep flag replaces its field of the preset's sweep: the CSV is
    the preset's curves run on the sweep the flags spell out."""
    out = tmp_path / "fig2.csv"
    code = main(["--preset", "fig2", "--axis", "Ue_db", "--start", "-5",
                 "--stop", "30", "--points", "2", "--metrics", "sop2, spsc2",
                 "--evaluators", "closed,mc", "--mc-samples", "500",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == cli.CSV_HEADER
    assert "# curve: Ue_db=30" in text
    sweep = SweepSpec(axis="Ue_db", start=-5.0, stop=30.0, points=2,
                      metrics=("sop2", "spsc2"), evaluators=("closed", "mc"),
                      mc_samples=500, seed=7)
    lines = [cli.CSV_HEADER]
    for label, cfg in figure_preset("fig2").curves:
        lines.append(f"# curve: {label}")
        lines.extend(r.to_csv() for r in run_sweep(cfg, sweep)[0])
    assert text == "\n".join(lines) + "\n"


def test_cli_rejects_flag_conflicts(config_file, capsys):
    assert main([]) == 2
    assert main(["--config", config_file, "--preset", "fig1"]) == 2
    assert main(["--preset", "nonexistent"]) == 2
    err = capsys.readouterr().err
    assert "unknown preset" in err


def test_cli_unknown_flag_exits_2(config_file):
    with pytest.raises(SystemExit) as exc:
        main(["--config", config_file, "--frobnicate"])
    assert exc.value.code == 2


def test_cli_rejects_overflowing_eta_mu_config(tmp_path, capsys):
    p = tmp_path / "big_mu.cfg"
    p.write_text(GOOD_CONFIG.replace("eta0 = 5\nmu0 = 1",
                                     "eta0 = 0.5\nmu0 = 200"))
    assert main(["--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "coefficient" in err


@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_cli_unwritable_out_exits_2_before_any_cell(tmp_path, capsys,
                                                    monkeypatch, where):
    out = tmp_path if where == "a directory" else tmp_path / "no" / "x.csv"
    # the output must be opened before any cell is evaluated
    monkeypatch.setattr(cli, "_run_curves", None)
    assert main(["--preset", "fig2", "--points", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["--preset", "fig6", "--axis", "eps", "--start", "-1", "--stop", "1"],
    ["--preset", "fig6", "--axis", "target_rate", "--start", "-1"],
    ["--preset", "fig6", "--axis", "Ud_db", "--stop", "4000"],
    ["--preset", "fig1", "--axis", "phi_se_db", "--start", "-4000"],
    ["--preset", "fig2", "--axis", "Ue_db", "--stop", "inf"],
    # eps^2 and 2^rate overflow there
    ["--preset", "fig6", "--axis", "eps", "--start", "1", "--stop", "1e200"],
    ["--preset", "fig6", "--axis", "target_rate", "--stop", "2000"],
    ["--preset", "fig7", "--axis", "target_rate", "--stop", "600"],
    # eps^2 is subnormal there
    ["--preset", "fig6", "--axis", "eps", "--start", "1e-200", "--stop", "1"],
    # past the domain's end EPS_MAX = 2^64
    ["--preset", "fig6", "--axis", "eps", "--start", "1", "--stop", "1e50"],
])
def test_cli_axis_outside_the_parameter_domain_exits_2(capsys, monkeypatch,
                                                        argv):
    monkeypatch.setattr(cli, "_run_curves", None)
    assert main(argv + ["--points", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_failing_quadrature_cell_flags_only_its_row(tmp_path, monkeypatch):
    """fig5 at 3 points with closed and quadrature cells: the quadrature
    cells run one at a time (in a pool under --jobs 2), and one that raises
    AccuracyError, on the wt/s=2 curve at U_d = 20 dB, flags only its own
    row; the run exits 3, every other row equals an unpatched run's, and
    --jobs 2 writes the same bytes."""
    argv = ["--preset", "fig5", "--points", "3", "--evaluators",
            "closed,exact_quadrature"]
    clean = tmp_path / "clean.csv"
    assert main(argv + ["--out", str(clean)]) == 0
    preset = figure_preset("fig5")
    label, cfg = preset.curves[-1]

    def link(cfg):
        f = cfg.fso_main
        return f.a1, f.b1, f.detection, f.electrical_snr
    bad = link(cli._with_axis(cfg, "Ud_db", 20.0))
    quadrature = cli._QUAD["sop2"]

    def failing(cfg):
        if link(cfg) == bad:
            raise AccuracyError("synthetic", best_estimate=0.5,
                                error_bound=1.0)
        return quadrature(cfg)
    monkeypatch.setitem(cli._QUAD, "sop2", failing)
    texts = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 3
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    want = clean.read_text().splitlines()
    got = texts[0].splitlines()
    assert len(got) == len(want)
    curve, flagged = None, []
    for g, w in zip(got, want):
        if g.startswith("# curve: "):
            curve = g[len("# curve: "):]
        if g != w:
            flagged.append((curve, g))
    assert flagged == [
        (label, "Ud_db,20,sop2,exact_quadrature,,,,AccuracyError")]


def test_cli_scenario2_eps_axis_sets_both_links(capsys):
    """fig2 along eps from 1 to 6.7 at 3 points exits 0, and every row is
    spsc2 of its curve's config with both FSO links at that eps (the
    scenario-2 branch of _with_axis)."""
    assert main(["--preset", "fig2", "--axis", "eps", "--start", "1",
                 "--stop", "6.7", "--points", "3"]) == 0
    curves = dict(figure_preset("fig2").curves)
    rows = []
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("# curve: "):
            cfg, points = curves[line[len("# curve: "):]], iter(
                np.linspace(1.0, 6.7, 3))
        elif line.startswith("eps,"):
            eps = next(points)
            want = secrecy.spsc2(replace(cfg,
                                         fso_main=cfg.fso_main.with_eps(eps),
                                         fso_eve=cfg.fso_eve.with_eps(eps)))
            assert line == f"eps,{eps:.12g},spsc2,closed,{want:.12g},,,", line
            rows.append(line)
    assert len(rows) == 3 * len(curves)


def test_cli_large_eps_axis_gives_values(capsys):
    """fig6 along eps from 1e3 to 1e4: every closed-form row is a value in
    [0, 1] and the run exits 0 (each eps = 1e4 row was an AccuracyError,
    and the run exited 3, while the pointing factor's offset eps^2/tau
    entered as a difference of two log-gammas)."""
    assert main(["--preset", "fig6", "--axis", "eps", "--start", "1000",
                 "--stop", "10000", "--points", "2", "--evaluators",
                 "closed"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if line.startswith("eps,")]
    assert len(rows) == 12
    for row in rows:
        assert row[-1] == "" and 0.0 <= float(row[4]) <= 1.0, row


@pytest.mark.parametrize("scenario", [1, 2])
@pytest.mark.parametrize("ud_db", ["4000", "inf", "nan"])
def test_cli_non_finite_snr_in_config_exits_2(tmp_path, capsys, scenario,
                                              ud_db):
    text = GOOD_CONFIG.replace("Ud_db = 20", f"Ud_db = {ud_db}")
    if scenario == 1:
        text = (text.replace("scenario = 2", "scenario = 1")
                .replace("se = 1\nUe_db = -10",
                         "eta_e = 5\nmu_e = 1\nphi_se_db = 0")
                .replace("spsc2", "spsc1"))
    p = tmp_path / "bad_snr.cfg"
    p.write_text(text)
    assert main(["--config", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_scenario1_config_near_eta_one_has_no_error_rows(tmp_path):
    """Both RF links at eta 0.875, mu 3, whose two-branch sums cancel: the
    closed forms come from the Gamma mixture, and no cell fails."""
    p = tmp_path / "near_one.cfg"
    p.write_text(
        "[scenario]\nscenario = 1\neta0 = 0.875\nmu0 = 3\n"
        "phi_sr_db = 10\neta_e = 0.875\nmu_e = 3\nphi_se_db = 0\n"
        "turbulence = st\neps = 1\ns0 = 1\nUd_db = 20\n"
        "target_rate = 0.5\n"
        "[sweep]\naxis = Ud_db\nstart = 0\nstop = 40\npoints = 3\n"
        "metrics = sop1,spsc1\nevaluators = closed,asymptotic\n")
    out = tmp_path / "rows.csv"
    assert main(["--config", str(p), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    closed = [r for r in rows if r[3] in ("closed", "asymptotic")]
    assert len(closed) == 9  # 3 points x (2 closed + 1 asymptotic)
    assert all(r[-1] == "" and r[4] for r in closed)


def test_lognormal_preset_reports_unreachable(capsys):
    assert main(["--preset", "lognormal"]) == 2
    assert "unreachable" in capsys.readouterr().err


def test_all_figure_presets_construct():
    for name in [f"fig{i}" for i in range(1, 11)] + ["st", "mt", "wt"]:
        preset = figure_preset(name)
        assert preset.curves
        for label, cfg in preset.curves:
            assert isinstance(cfg, (Scenario1Config, Scenario2Config))
            for metric in preset.sweep.metrics:
                needs2 = metric in ("sop2", "spsc2")
                assert needs2 == isinstance(cfg, Scenario2Config)


def test_every_preset_end_to_end_with_mc():
    """Each figure preset must run end to end and its closed-form curve must
    agree with a 10^5-sample Monte Carlo run at 3 sigma (confirmed on an
    independent stream if a single cell trips by chance)."""
    import math
    from dataclasses import replace
    names = [f"fig{i}" for i in range(1, 11)] + ["st", "mt", "wt"]
    for name in names:
        preset = figure_preset(name)
        sweep = replace(preset.sweep, points=2, start=12.0, stop=28.0,
                        evaluators=("closed", "mc"), mc_samples=100_000,
                        seed=20262)
        for label, cfg in preset.curves:
            rows, failed = run_sweep(cfg, sweep)
            assert not failed, (name, label)
            closed = {(r.axis_value, r.metric): r.value for r in rows
                      if r.evaluator == "closed"}
            for r in rows:
                if r.evaluator != "mc":
                    continue
                ref = closed[(r.axis_value, r.metric)]
                se = max(r.std_error,
                         math.sqrt(max(ref * (1 - ref), 0) / r.n_samples))
                if abs(r.value - ref) > 3 * se:
                    retry = replace(sweep, seed=62202)
                    rows2, _ = run_sweep(cfg, retry)
                    again = [x for x in rows2
                             if x.evaluator == "mc"
                             and x.axis_value == r.axis_value
                             and x.metric == r.metric][0]
                    assert abs(again.value - ref) <= 3 * se, (name, label, r)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", [f"fig{i}" for i in range(1, 11)])
def test_mc_cells_sharing_a_stream_equal_their_own_estimates(name, jobs,
                                                             tmp_path):
    """The MC cells of all a preset's curves at one grid index share the
    stream RngStream(seed, index) and are drawn together; the CSV is still,
    byte for byte, what each cell's own estimate_* call gives, at either
    --jobs.  fig9's Rayleigh (mu 1) and eta-mu (mu 2) curves part at
    their first draw, fig6's eps curves share their Gamma draws and fig2's
    eavesdroppers share everything but the last map."""
    estimators = {"sop1": estimate_sop1, "sop2": estimate_sop2,
                  "spsc1": estimate_spsc1, "spsc2": estimate_spsc2}
    preset = figure_preset(name)
    sweep, seed, n = preset.sweep, 23, 3000
    path = tmp_path / "mc.csv"
    assert main(["--preset", name, "--evaluators", "mc", "--points", "2",
                 "--mc-samples", str(n), "--seed", str(seed),
                 "--jobs", str(jobs), "--out", str(path)]) == 0
    lines = [cli.CSV_HEADER]
    grid = [(float(v), metric)
            for v in np.linspace(sweep.start, sweep.stop, 2)
            for metric in sweep.metrics]
    for label, cfg in preset.curves:
        if len(preset.curves) > 1:
            lines.append(f"# curve: {label}")
        for index, (v, metric) in enumerate(grid):
            est = estimators[metric](cli._with_axis(cfg, sweep.axis, v), n,
                                     RngStream(seed, index))
            lines.append(ResultRow(sweep.axis, v, metric, "mc", est.value,
                                   est.std_error, est.n_samples).to_csv())
    assert path.read_text() == "\n".join(lines) + "\n"


def test_result_row_formatting():
    row = ResultRow("Ud_db", 12.0, "sop1", "mc", 0.25, 0.001, 1000)
    assert row.to_csv() == "Ud_db,12,sop1,mc,0.25,0.001,1000,"
    row = ResultRow("eps", 1.0, "sop1", "closed", None, None, None, "Boom")
    assert row.to_csv().endswith(",,,Boom")
