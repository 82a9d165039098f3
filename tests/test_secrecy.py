"""Closed-form secrecy metrics against their oracles."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rfso_secrecy import (EtaMuLink, RngStream, Scenario1Config,
                          Scenario2Config, dgg_from_preset, estimate_sop1,
                          estimate_sop2, estimate_spsc1, estimate_spsc2,
                          sop1_asymptotic, sop1_exact_quadrature, sop1_lower,
                          sop2_asymptotic, sop2_exact_quadrature, sop2_lower,
                          spsc1, spsc2)
from rfso_secrecy.errors import (AccuracyError, ClampExcessWarning,
                                 ParameterError, RfsoError)
from rfso_secrecy.presets import figure_preset
from rfso_secrecy.secrecy import _clamp_unit

from conftest import db, paper_dgg_form


@pytest.fixture(autouse=True)
def no_clamp_excess():
    """Any metric drifting outside [0,1] beyond the flag threshold is a bug."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", ClampExcessWarning)
        yield


def _sc1(eta0=50.0, mu0=3, sr_db=10.0, eta_e=50.0, mu_e=3, se_db=0.0,
         turb="wt", eps=1.0, s0=1, ud_db=20.0, rate=0.5):
    return Scenario1Config(
        rf_main=EtaMuLink(eta0, mu0, db(sr_db)),
        rf_eve=EtaMuLink(eta_e, mu_e, db(se_db)),
        fso_main=dgg_from_preset(turb, eps=eps, detection=s0,
                                 electrical_snr=db(ud_db)),
        target_rate=rate)


def _sc2(eta0=5.0, mu0=1, sr_db=12.0, turb="st", eps=1.0, s0=1, ud_db=20.0,
         se=1, ue_db=-10.0, rate=0.5):
    return Scenario2Config(
        rf_main=EtaMuLink(eta0, mu0, db(sr_db)),
        fso_main=dgg_from_preset(turb, eps=eps, detection=s0,
                                 electrical_snr=db(ud_db)),
        fso_eve=dgg_from_preset(turb, eps=eps, detection=se,
                                electrical_snr=db(ue_db)),
        target_rate=rate)


# ---------------------------------------------------------------------------
# cross-identities between independent code paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(),                                  # WT, heterodyne
    dict(turb="st", mu0=1, mu_e=1),          # dense-ladder turbulence
    dict(turb="mt", s0=2, mu0=2, mu_e=2),    # IM/DD, 84-term ladders
])
def test_complement_identity_scenario1(kwargs):
    cfg = _sc1(rate=0.0, **kwargs)
    assert sop1_lower(cfg) == pytest.approx(1.0 - spsc1(cfg), abs=1e-8)


@pytest.mark.parametrize("kwargs", [
    dict(),
    dict(turb="wt", s0=2, se=2),
    dict(turb="mt", eps=6.7),
])
def test_complement_identity_scenario2(kwargs):
    cfg = _sc2(rate=0.0, **kwargs)
    assert sop2_lower(cfg) == pytest.approx(1.0 - spsc2(cfg), abs=1e-8)


def test_lower_bound_equals_closed_form_quadrature():
    """The bound drops the rate shift; at rate 0 the exact integral and the
    closed form are the same number, reached by disjoint code paths."""
    cfg = _sc1(rate=0.0)
    assert sop1_exact_quadrature(cfg) == pytest.approx(sop1_lower(cfg),
                                                       abs=1e-7)
    cfg2 = _sc2(rate=0.0)
    assert sop2_exact_quadrature(cfg2) == pytest.approx(sop2_lower(cfg2),
                                                        abs=1e-7)


@pytest.mark.parametrize("rate", [0.2, 0.5, 1.0])
def test_bound_direction_scenario1(rate):
    cfg = _sc1(rate=rate)
    assert sop1_lower(cfg) <= sop1_exact_quadrature(cfg) + 1e-7


@pytest.mark.parametrize("rate", [0.2, 0.5, 1.0])
def test_bound_direction_scenario2(rate):
    cfg = _sc2(rate=rate)
    assert sop2_lower(cfg) <= sop2_exact_quadrature(cfg) + 1e-7


def test_closed_form_matches_quadrature_oracle_scenario1():
    """At rate > 0 the lower bound still equals the no-shift integral."""
    from rfso_secrecy.dualhop import DualHopChannel, min_combine_cdf
    from rfso_secrecy.channels import eta_mu_pdf
    from scipy.integrate import quad
    cfg = _sc1(rate=0.5)
    phi1 = cfg.phi1
    ch = DualHopChannel(cfg.rf_main, cfg.fso_main)
    val, _ = quad(lambda g: (min_combine_cdf(ch, phi1 * g)
                             * float(eta_mu_pdf(cfg.rf_eve, g))),
                  0, np.inf, limit=300, epsabs=1e-11)
    assert sop1_lower(cfg) == pytest.approx(val, abs=1e-8)


def _quad_reference(cfg):
    """The exact outage by scipy's scalar adaptive quadrature, one
    integrand call per node, to tolerances far below the oracles'."""
    from scipy.integrate import quad
    from rfso_secrecy.channels import dgg_cdf, dgg_pdf, eta_mu_pdf
    from rfso_secrecy.dualhop import DualHopChannel, min_combine_cdf
    tight = dict(epsabs=1e-15, epsrel=1e-12, limit=2000)
    if isinstance(cfg, Scenario1Config):
        phi1 = cfg.phi1
        ch = DualHopChannel(cfg.rf_main, cfg.fso_main)
        return quad(lambda g: (min_combine_cdf(ch, phi1 * g + phi1 - 1.0)
                               * float(eta_mu_pdf(cfg.rf_eve, g))),
                    0, np.inf, **tight)[0]
    phi2 = cfg.phi2
    rf_fail = 1.0 - float(cfg.rf_main.survival(phi2 - 1.0))
    val = quad(lambda g: (float(dgg_cdf(cfg.fso_main, phi2 * g + phi2 - 1.0))
                          * float(dgg_pdf(cfg.fso_eve, g))),
               0, np.inf, **tight)[0]
    return val * (1.0 - rf_fail) + rf_fail


@pytest.mark.parametrize("ud_db", [5.836, 32.695])
@pytest.mark.parametrize("preset,label", [
    ("fig3", "wt/s0=1"), ("fig3", "st/s0=1"), ("fig3", "mt/s0=1"),
    ("fig5", "wt/s=1")])
def test_quadrature_oracles_match_scalar_quad(preset, label, ud_db):
    """The batched Gauss-Kronrod oracles against scipy.integrate.quad on the
    fig3 HD curves and the fig5 wt curve, in both U_d strata of the
    benchmark's oracle workload.  They return a Python float."""
    cfg = dict(figure_preset(preset).curves)[label]
    cfg = replace(cfg, fso_main=cfg.fso_main.with_electrical_snr(db(ud_db)))
    oracle = (sop1_exact_quadrature if isinstance(cfg, Scenario1Config)
              else sop2_exact_quadrature)
    got = oracle(cfg)
    assert type(got) is float
    assert got == pytest.approx(_quad_reference(cfg), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("ud_db", [5.836, 32.695])
@pytest.mark.parametrize("preset,label", [
    ("fig3", "wt/s0=1"), ("fig3", "st/s0=1"), ("fig3", "mt/s0=1"),
    ("fig5", "wt/s=1")])
def test_quadrature_oracles_take_at_most_two_passes(monkeypatch, preset,
                                                     label, ud_db):
    """The cells of test_quadrature_oracles_match_scalar_quad: from the
    first partition of 8 intervals each oracle reaches its tolerance in at
    most two Gauss-Kronrod passes (from [0, 1] alone it took 4 or 5)."""
    from rfso_secrecy import secrecy
    passes = []
    gk15 = secrecy._gk15
    monkeypatch.setattr(secrecy, "_gk15",
                        lambda *args: passes.append(1) or gk15(*args))
    cfg = dict(figure_preset(preset).curves)[label]
    cfg = replace(cfg, fso_main=cfg.fso_main.with_electrical_snr(db(ud_db)))
    (sop1_exact_quadrature if isinstance(cfg, Scenario1Config)
     else sop2_exact_quadrature)(cfg)
    assert 1 <= len(passes) <= 2


@pytest.mark.parametrize("label,ud_db", [
    ("wt/s0=1", 28.0), ("mt/s0=1", 34.0), ("st/s0=1", 40.0)])
def test_sop1_oracle_on_fig3_rows_matches_scalar_quad(label, ud_db):
    """Three rows of the fig3 21-point sweep that a start from [0, 1] left
    about 2e-10 relative off scalar quad, inside its 1e-9 relative
    tolerance: the start from 8 intervals resolves them to 1e-11."""
    cfg = dict(figure_preset("fig3").curves)[label]
    cfg = replace(cfg, fso_main=cfg.fso_main.with_electrical_snr(db(ud_db)))
    assert sop1_exact_quadrature(cfg) == pytest.approx(
        _quad_reference(cfg), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("phi_sr_db", [0.0, 40.0])
@pytest.mark.parametrize("label", ["rayleigh/k", "rayleigh/double-weibull"])
def test_sop1_oracle_sees_the_rayleigh_surrogate_spike(label, phi_sr_db):
    """fig9's Rayleigh eavesdropper is EtaMuLink(1e-6, 1, .), whose density
    carries a term -1e-6 * lam e^(-lam g) with lam = 3.2e6: a spike 3e-7
    wide at g = 0 that the nodes of [0, 1/8] miss, leaving the oracle off
    by 2e-7 to 5e-7 with no error flagged.  The oracle's first partition
    has edges at the eavesdropper's decay scales; the reference is scalar
    quad split at 1e-5 and 1, so that its nodes see the spike too."""
    from scipy.integrate import quad
    from rfso_secrecy.channels import eta_mu_pdf
    from rfso_secrecy.dualhop import DualHopChannel, min_combine_cdf
    cfg = dict(figure_preset("fig9").curves)[label]
    cfg = replace(cfg, rf_main=cfg.rf_main.with_avg_snr(db(phi_sr_db)))
    phi1 = cfg.phi1
    ch = DualHopChannel(cfg.rf_main, cfg.fso_main)

    def f(g):
        return (min_combine_cdf(ch, phi1 * g + phi1 - 1.0)
                * float(eta_mu_pdf(cfg.rf_eve, g)))

    tight = dict(epsabs=1e-15, epsrel=1e-12, limit=2000)
    ref = sum(quad(f, lo, hi, **tight)[0]
              for lo, hi in ((0.0, 1e-5), (1e-5, 1.0), (1.0, np.inf)))
    assert sop1_exact_quadrature(cfg) == pytest.approx(ref, abs=1e-9)


def test_quadrature_oracle_extrapolates_singular_density(monkeypatch):
    """fig5 st IM/DD: the eavesdropper's density grows like g^-0.53 at
    g = 0, where bisection alone takes 50 to 70 passes.  The reference is
    scalar quad on (0, 1) and (1, inf) apart, where its own extrapolation
    converges (on (0, inf) at once it reports roundoff in the table)."""
    from scipy.integrate import quad
    from rfso_secrecy import secrecy
    from rfso_secrecy.channels import dgg_cdf, dgg_pdf
    passes = []
    gk15 = secrecy._gk15
    monkeypatch.setattr(secrecy, "_gk15",
                        lambda *args: passes.append(1) or gk15(*args))
    cfg = dict(figure_preset("fig5").curves)["st/s=2"]
    cfg = replace(cfg, fso_main=cfg.fso_main.with_electrical_snr(db(5.836)))
    phi2 = cfg.phi2

    def f(g):
        return (float(dgg_cdf(cfg.fso_main, phi2 * g + phi2 - 1.0))
                * float(dgg_pdf(cfg.fso_eve, g)))

    tight = dict(epsabs=1e-16, epsrel=1e-13, limit=2000)
    val = quad(f, 0, 1, **tight)[0] + quad(f, 1, np.inf, **tight)[0]
    rf_fail = 1.0 - float(cfg.rf_main.survival(phi2 - 1.0))
    ref = val * (1.0 - rf_fail) + rf_fail
    assert sop2_exact_quadrature(cfg) == pytest.approx(ref, abs=1e-10)
    assert len(passes) <= 30


def test_quadrature_oracle_extrapolation_stands_density_noise(monkeypatch):
    """The cell of test_quadrature_oracle_extrapolates_singular_density
    with 3e-14 relative noise (seeded) on every dgg_pdf value, a few times
    the contour engine's rounding: the oracle moves by less than 1e-10.  The
    epsilon table amplifies its totals' noise; with the spread of the last
    four extrapolations counted once, a newest one that noise threw off by
    1.1e-10 passed the acceptance test."""
    from rfso_secrecy import secrecy
    cfg = dict(figure_preset("fig5").curves)["st/s=2"]
    cfg = replace(cfg, fso_main=cfg.fso_main.with_electrical_snr(db(5.836)))
    clean = sop2_exact_quadrature(cfg)
    pdf = secrecy.dgg_pdf
    for seed in range(3):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(secrecy, "dgg_pdf", lambda link, g: pdf(
            link, g) * (1.0 + 3e-14 * rng.uniform(-1.0, 1.0, np.shape(g))))
        assert sop2_exact_quadrature(cfg) == pytest.approx(clean, abs=1e-10)


def test_quadrature_oracle_raises_below_reachable_tolerance():
    cfg = dict(figure_preset("fig3").curves)["wt/s0=1"]
    with pytest.raises(AccuracyError) as exc:
        sop1_exact_quadrature(cfg, abs_tol=1e-30)
    assert 0.0 < exc.value.best_estimate < 1.0
    assert exc.value.error_bound > 1e-30


def _agrees_with_mc(value, estimator, cfg, stream):
    """value within 3 sigma of a 10^5-sample Monte Carlo estimate; a trip
    must repeat on an independent stream to count (a real bias trips
    both)."""
    for seed in (2026, 6202):
        est = estimator(cfg, 100_000, RngStream(seed, stream))
        se = max(est.std_error,
                 math.sqrt(max(value * (1.0 - value), 0.0) / est.n_samples))
        if abs(value - est.value) <= 3.0 * se:
            return True
    return False


def test_eta_near_one_matches_oracles():
    """Near eta = 1 the two-branch weights cancel far beyond double
    precision; both links take the Gamma mixture, and the scenario-1 sums
    agree with the quadrature and Monte Carlo oracles."""
    cfg = _sc1(eta0=0.97, mu0=4, eta_e=0.97, mu_e=4)
    lower = sop1_lower(cfg)
    assert lower <= sop1_exact_quadrature(cfg) + 1e-7
    assert _agrees_with_mc(lower, estimate_sop1, cfg, 10)
    assert _agrees_with_mc(spsc1(cfg), estimate_spsc1, cfg, 11)
    assert np.isfinite(sop1_asymptotic(cfg))


def test_clamp_unit_rejects_a_large_rounding_bound():
    """A closed-form sum whose rounding bound exceeds _CLAMP_FLAG is not a
    usable probability: AccuracyError carries the sum and its bound."""
    assert _clamp_unit(0.25, "sum", 1e-9) == 0.25
    with pytest.raises(AccuracyError) as info:
        _clamp_unit(0.25, "sum", 2e-9)
    assert isinstance(info.value, RfsoError)
    assert info.value.best_estimate == 0.25
    assert info.value.error_bound == 2e-9


@pytest.mark.parametrize("eps", [30.0, 100.0])
def test_sop1_asymptote_with_an_overflowing_residue_raises_accuracy_error(
        eps):
    """wt HD at U_d = 0 dB: a leading residue of some Laplace members
    overflows at the pointing pole, and a term of the asymptote's sum is
    not finite.  That is AccuracyError carrying the sum of the finite
    terms, with no RuntimeWarning (it was ValueError: -inf + inf in
    fsum)."""
    cfg = _sc1(eps=eps, ud_db=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(AccuracyError) as info:
            sop1_asymptotic(cfg)
        assert 0.0 <= sop1_lower(cfg) <= 1.0
    assert np.isfinite(info.value.best_estimate)
    assert info.value.error_bound == np.inf


_ETA = st.floats(0.05, 0.9) | st.floats(0.9, 1.1) | st.floats(1.1, 20.0)


@given(eta0=_ETA, mu0=st.integers(1, 8), eta_e=_ETA, mu_e=st.integers(1, 8))
@example(eta0=0.7, mu0=4, eta_e=0.7, mu_e=4)
@example(eta0=0.875, mu0=3, eta_e=0.875, mu_e=3)
@example(eta0=0.5, mu0=8, eta_e=0.5, mu_e=8)
@example(eta0=2.0, mu0=8, eta_e=2.0, mu_e=8)
@settings(max_examples=6, deadline=None)
def test_scenario1_closed_forms_on_the_eta_mu_domain(eta0, mu0, eta_e, mu_e):
    """sop1_lower bounds the exact outage from below and, with spsc1, agrees
    with Monte Carlo for every eta the constructor accepts, near eta = 1
    and up to mu = 8 included; the examples are links whose two-branch sums
    used to exceed the rounding-bound guard."""
    # eta = 1 itself is rejected by the constructor
    assume(abs(1.0 / eta0 - eta0) > 4e-9 and abs(1.0 / eta_e - eta_e) > 4e-9)
    cfg = Scenario1Config(
        rf_main=EtaMuLink(eta0, mu0, db(10.0)),
        rf_eve=EtaMuLink(eta_e, mu_e, db(0.0)),
        fso_main=dgg_from_preset("st", eps=1.0, detection=1,
                                 electrical_snr=db(20.0)),
        target_rate=0.5)
    lower = sop1_lower(cfg)
    assert lower <= sop1_exact_quadrature(cfg) + 1e-7
    assert _agrees_with_mc(lower, estimate_sop1, cfg, 20)
    assert _agrees_with_mc(spsc1(cfg), estimate_spsc1, cfg, 21)


# ---------------------------------------------------------------------------
# limiting behaviour
# ---------------------------------------------------------------------------

def test_vanishing_eavesdropper_scenario1():
    cfg = _sc1(se_db=-80.0)
    assert sop1_lower(cfg) == pytest.approx(0.0, abs=1e-4)
    assert spsc1(cfg) == pytest.approx(1.0, abs=1e-4)


def test_vanishing_eavesdropper_scenario2():
    cfg = _sc2(ue_db=-80.0, rate=0.0)
    assert spsc2(cfg) == pytest.approx(1.0, abs=1e-4)


def test_sop2_floor_is_rf_outage_when_eavesdropper_vanishes():
    """With the FSO eavesdropper gone, only the first hop can fail the rate."""
    cfg = _sc2(ue_db=-120.0)
    floor = 1.0 - float(cfg.rf_main.survival(cfg.phi2 - 1.0))
    assert sop2_lower(cfg) == pytest.approx(floor, abs=1e-4)


def test_sop2_exact_quadrature_severe_pointing_mt():
    """Moderate turbulence with mild pointing error, exact event vs MC."""
    cfg = _sc2(eta0=2.0, mu0=1, sr_db=10.0, turb="mt", eps=6.7, ue_db=-12.0)
    est = estimate_sop2(cfg, 200_000, RngStream(2024, 77), exact_event=True)
    assert abs(sop2_exact_quadrature(cfg) - est.value) <= 3 * est.std_error


@pytest.mark.parametrize("turb,eps", [("st", 3e-3), ("wt", 1e-3)])
def test_strong_pointing_error(turb, eps):
    """Pointing error this strong leaves the CDF integrands a strip eps^2/tau
    about 5e-7 wide: the law still sums to 1, and the scenario-1 lower
    bound stays below the exact-event quadrature."""
    from rfso_secrecy.channels import dgg_cdf, dgg_survival
    link = dgg_from_preset(turb, eps=eps, detection=1, electrical_snr=db(20.0))
    gamma = np.array([1e-6, 1e-3, 1.0, 100.0])
    np.testing.assert_allclose(
        dgg_cdf(link, gamma) + dgg_survival(link, gamma), 1.0,
        rtol=0.0, atol=1e-13)
    cfg = Scenario1Config(EtaMuLink(20.0, 2, 1e4), EtaMuLink(20.0, 2, 1.0),
                          link.with_electrical_snr(1e6))
    assert sop1_lower(cfg) <= sop1_exact_quadrature(cfg) + 1e-7


def test_spsc2_symmetry_anchor():
    for turb, s in (("st", 1), ("wt", 2)):
        fso = dgg_from_preset(turb, eps=1.0, detection=s,
                              electrical_snr=db(20))
        cfg = Scenario2Config(rf_main=EtaMuLink(5.0, 1, 10.0),
                              fso_main=fso, fso_eve=fso, target_rate=0.5)
        assert spsc2(cfg) == pytest.approx(0.5, abs=1e-8)


def test_scenario2_rejects_mismatched_shapes():
    with pytest.raises(ParameterError):
        Scenario2Config(
            rf_main=EtaMuLink(5.0, 1, 10.0),
            fso_main=dgg_from_preset("st", eps=1.0, detection=1,
                                     electrical_snr=10.0),
            fso_eve=dgg_from_preset("wt", eps=1.0, detection=1,
                                    electrical_snr=1.0),
            target_rate=0.5)
    with pytest.raises(ParameterError):
        _sc1(rate=-0.1)


# ---------------------------------------------------------------------------
# Monte Carlo agreement (moderate n here; the full matrix runs in acceptance)
# ---------------------------------------------------------------------------

def test_sop1_matches_monte_carlo():
    cfg = _sc1()
    est = estimate_sop1(cfg, 300_000, RngStream(2024, 0))
    assert abs(sop1_lower(cfg) - est.value) <= 3 * est.std_error


def test_sop1_exact_event_matches_quadrature():
    cfg = _sc1()
    est = estimate_sop1(cfg, 300_000, RngStream(2024, 1), exact_event=True)
    assert abs(sop1_exact_quadrature(cfg) - est.value) <= 3 * est.std_error


def test_spsc1_matches_monte_carlo():
    cfg = _sc1(eta0=20.0, mu0=2, eta_e=20.0, mu_e=2, ud_db=10.0, sr_db=10.0)
    est = estimate_spsc1(cfg, 300_000, RngStream(2024, 2))
    assert abs(spsc1(cfg) - est.value) <= 3 * est.std_error


def test_sop2_matches_monte_carlo():
    cfg = _sc2()
    est = estimate_sop2(cfg, 300_000, RngStream(2024, 3))
    assert abs(sop2_lower(cfg) - est.value) <= 3 * est.std_error


def test_sop2_exact_event_matches_quadrature():
    cfg = _sc2()
    est = estimate_sop2(cfg, 300_000, RngStream(2024, 4), exact_event=True)
    assert abs(sop2_exact_quadrature(cfg) - est.value) <= 3 * est.std_error


def test_spsc2_matches_monte_carlo():
    cfg = _sc2(ue_db=-10.0)
    est = estimate_spsc2(cfg, 300_000, RngStream(2024, 5))
    assert abs(spsc2(cfg) - est.value) <= 3 * est.std_error


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def test_sop1_asymptote_tightens(fig3_cfg):
    gaps = []
    for ud_db in (40.0, 50.0, 60.0, 70.0, 80.0):
        cfg = Scenario1Config(
            rf_main=fig3_cfg.rf_main, rf_eve=fig3_cfg.rf_eve,
            fso_main=fig3_cfg.fso_main.with_electrical_snr(db(ud_db)),
            target_rate=0.5)
        lo = sop1_lower(cfg)
        asym = sop1_asymptotic(cfg)
        gaps.append(abs(asym - lo) / lo)
    assert gaps[-1] <= 0.01
    floor = 1e-9  # below this the gap is quadrature noise, not structure
    for a, b in zip(gaps, gaps[1:]):
        assert b <= max(a, floor)


def test_sop2_asymptote_tightens(fig5_cfg):
    gaps = []
    for ud_db in (40.0, 50.0, 60.0, 70.0, 80.0):
        cfg = Scenario2Config(
            rf_main=fig5_cfg.rf_main,
            fso_main=fig5_cfg.fso_main.with_electrical_snr(db(ud_db)),
            fso_eve=fig5_cfg.fso_eve, target_rate=0.5)
        lo = sop2_lower(cfg)
        asym = sop2_asymptotic(cfg)
        gaps.append(abs(asym - lo) / lo)
    assert gaps[-1] <= 0.01
    floor = 1e-9
    for a, b in zip(gaps, gaps[1:]):
        assert b <= max(a, floor)


def test_sop1_asymptote_slope(fig3_cfg):
    """The distance to the outage floor falls off as U_d^(-tau*min(j4))."""
    floor_cfg = Scenario1Config(
        rf_main=fig3_cfg.rf_main, rf_eve=fig3_cfg.rf_eve,
        fso_main=fig3_cfg.fso_main.with_electrical_snr(db(160.0)),
        target_rate=0.5)
    floor = sop1_asymptotic(floor_cfg)
    link = fig3_cfg.fso_main
    expected_slope = -link.tau * min(paper_dgg_form(link).j4)
    uds = (40.0, 50.0)
    corr = []
    for ud_db in uds:
        cfg = Scenario1Config(
            rf_main=fig3_cfg.rf_main, rf_eve=fig3_cfg.rf_eve,
            fso_main=fig3_cfg.fso_main.with_electrical_snr(db(ud_db)),
            target_rate=0.5)
        corr.append(sop1_asymptotic(cfg) - floor)
    slope = (np.log10(corr[1]) - np.log10(corr[0]))
    assert slope == pytest.approx(expected_slope, rel=0.02)


@pytest.mark.parametrize("figure,asymptote,lower,pinned", [
    # double Weibull: j4 = [eps^2/tau, 1, 1], two equal ladders
    ("fig9", sop1_asymptotic, sop1_lower,
     {20.0: 0.30906785721371666, 60.0: 0.30901661242106515,
      70.0: 0.3090166124204896, 80.0: 0.3090166124204844}),
    # K distribution at eps = 1: eps^2/tau = b1 = 1
    ("fig10", sop2_asymptotic, sop2_lower,
     {20.0: 0.08730461513869969, 60.0: 0.061154194478389545,
      70.0: 0.06114655172724126, 80.0: 0.061145649024852644}),
])
def test_asymptote_double_pole_ladders(figure, asymptote, lower, pinned):
    """Integer-spaced ladders make some leading residues double poles, which
    the residue routine expands exactly, with no warning.  The pinned values
    were recorded with the expanded parameter vectors."""
    label = "rayleigh/double-weibull" if figure == "fig9" else "rayleigh/k"
    cfg = dict(figure_preset(figure).curves)[label]
    gaps = []
    for ud_db, want in pinned.items():
        point = replace(cfg, fso_main=cfg.fso_main.with_electrical_snr(
            db(ud_db)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = asymptote(point)
        assert not [w for w in caught
                    if issubclass(w.category, ClampExcessWarning)]
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-9)
        if ud_db >= 60.0:
            gaps.append(abs(got - lower(point)))
    assert gaps[2] <= gaps[1] <= gaps[0] <= 1e-10


def test_double_pole_asymptote_stable_under_ulp_moves():
    """The K-distribution crossing has double leading poles; its asymptote
    moves by rounding only when U_d moves by a few ulps."""
    cfg = dict(figure_preset("fig10").curves)["rayleigh/k"]
    ud = db(6.0)
    values = [sop2_asymptotic(replace(
        cfg, fso_main=cfg.fso_main.with_electrical_snr(ud * (1 + k * 2.2e-16))))
        for k in range(5)]
    assert 0.0 < values[0] < 1.0
    assert max(abs(v / values[0] - 1.0) for v in values) <= 1e-14


def test_sop2_asymptote_finite_on_dense_ladder():
    """84 residue terms at the moderate-turbulence IM/DD preset."""
    cfg = _sc2(turb="mt", s0=2, se=2, ud_db=60.0)
    v = sop2_asymptotic(cfg)
    assert np.isfinite(v) and 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# monotonicity grid
# ---------------------------------------------------------------------------

def test_sop1_monotone_in_parameters():
    base = dict(eta0=20.0, mu0=2, eta_e=20.0, mu_e=2)
    for axis, direction in (("sr_db", -1), ("ud_db", -1), ("se_db", +1),
                            ("rate", +1)):
        vals = []
        for x in np.linspace(2.0, 18.0, 5) if axis != "rate" else \
                np.linspace(0.1, 2.0, 5):
            kwargs = dict(base)
            kwargs[axis] = float(x)
            vals.append(sop1_lower(_sc1(**kwargs)))
        diffs = np.diff(vals) * direction
        assert np.all(diffs >= -1e-9), (axis, vals)


def test_sop2_monotone_in_parameters():
    for axis, direction in (("sr_db", -1), ("ud_db", -1), ("ue_db", +1),
                            ("rate", +1)):
        vals = []
        for x in np.linspace(2.0, 18.0, 5) if axis != "rate" else \
                np.linspace(0.1, 2.0, 5):
            kwargs = {axis: float(x)}
            vals.append(sop2_lower(_sc2(**kwargs)))
        diffs = np.diff(vals) * direction
        assert np.all(diffs >= -1e-9), (axis, vals)


def test_spsc_mirrored_monotonicity():
    vals1 = [spsc1(_sc1(eta0=20.0, mu0=2, eta_e=20.0, mu_e=2, sr_db=x))
             for x in np.linspace(0.0, 20.0, 5)]
    assert np.all(np.diff(vals1) >= -1e-9)
    vals2 = [spsc2(_sc2(ue_db=x)) for x in np.linspace(-20.0, 10.0, 5)]
    assert np.all(np.diff(vals2) <= 1e-9)


def test_target_rate_whose_threshold_overflows_rejected(fig3_cfg, fig5_cfg):
    """phi1 = 2^rate overflows from rate 1024 on and phi2 = 4^rate from 512:
    a ParameterError at construction, not an OverflowError later."""
    for cfg, limit in ((fig3_cfg, 1024.0), (fig5_cfg, 512.0)):
        with pytest.raises(ParameterError):
            replace(cfg, target_rate=limit)
        assert replace(cfg, target_rate=limit / 2).target_rate == limit / 2
