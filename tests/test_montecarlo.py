"""Monte Carlo estimators: reproducibility, stream algebra, statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfso_secrecy import (EtaMuLink, MCEstimate, RngStream, Scenario1Config,
                          Scenario2Config, dgg_from_preset, estimate_sop1,
                          estimate_sop2, estimate_spsc1, estimate_spsc2,
                          montecarlo, spsc2)
from rfso_secrecy.dualhop import instantaneous_sc_scenario2
from rfso_secrecy.errors import ParameterError

from conftest import (db, gaussian_eta_mu_sample, product_dgg_sample,
                      uniform_inverse_cdf_sample)


@pytest.fixture(scope="module")
def cfg1():
    return Scenario1Config(
        rf_main=EtaMuLink(20.0, 2, db(10)),
        rf_eve=EtaMuLink(20.0, 2, db(0)),
        fso_main=dgg_from_preset("wt", eps=1.0, detection=1,
                                 electrical_snr=db(10)),
        target_rate=0.5)


@pytest.fixture(scope="module")
def cfg2():
    return Scenario2Config(
        rf_main=EtaMuLink(5.0, 1, db(12)),
        fso_main=dgg_from_preset("st", eps=1.0, detection=1,
                                 electrical_snr=db(20)),
        fso_eve=dgg_from_preset("st", eps=1.0, detection=1,
                                electrical_snr=db(-10)),
        target_rate=0.5)


def test_bit_for_bit_reproducibility(cfg1):
    a = estimate_sop1(cfg1, 20_000, RngStream(11, 5))
    b = estimate_sop1(cfg1, 20_000, RngStream(11, 5))
    assert a == b


def test_stream_partitioning_is_exact(cfg1):
    """k parallel streams must reproduce the concatenated run exactly."""
    whole = estimate_sop1(cfg1, 30_000, RngStream(21, 100), n_streams=3)
    # manual concatenation over the same per-stream seeds and sizes
    hits = 0
    for i, ni in enumerate((10_000, 10_000, 10_000)):
        part = estimate_sop1(cfg1, ni, RngStream(21, 100 + i))
        hits += round(part.value * ni)
    assert whole.value == hits / 30_000
    assert whole.n_samples == 30_000


def test_std_error_scaling(cfg1):
    """Standard error follows 1/sqrt(n) within 10% across three decades."""
    ns = (10_000, 100_000, 1_000_000)
    ests = [estimate_sop1(cfg1, n, RngStream(3, i)) for i, n in enumerate(ns)]
    for i in range(len(ns) - 1):
        ratio = ests[i].std_error / ests[i + 1].std_error
        assert ratio == pytest.approx(math.sqrt(ns[i + 1] / ns[i]), rel=0.10)


def test_doubling_n_halves_std_error(cfg1):
    a = estimate_sop1(cfg1, 50_000, RngStream(4, 0))
    b = estimate_sop1(cfg1, 100_000, RngStream(4, 1))
    assert a.std_error / b.std_error == pytest.approx(math.sqrt(2), rel=0.10)


def test_estimate_invariants(cfg1):
    est = estimate_sop1(cfg1, 10_000, RngStream(5, 0))
    assert est.ci95_low <= est.value <= est.ci95_high
    assert est.std_error == pytest.approx(
        math.sqrt(est.value * (1 - est.value) / est.n_samples))


@given(hits=st.integers(0, 50), n=st.integers(50, 10_000))
@settings(max_examples=80, deadline=None)
def test_interval_always_brackets_value(hits, n):
    hits = min(hits, n)
    est = MCEstimate.from_counts(hits, n)
    assert 0.0 <= est.ci95_low <= est.value <= est.ci95_high <= 1.0


def test_wilson_fallback_near_zero():
    est = MCEstimate.from_counts(1, 100_000)
    assert est.ci95_high > est.value  # normal interval would be degenerate
    assert est.ci95_low >= 0.0


def test_vanishing_eavesdropper_counts_zero():
    cfg = Scenario1Config(
        rf_main=EtaMuLink(20.0, 2, db(10)),
        rf_eve=EtaMuLink(20.0, 2, 1e-8),
        fso_main=dgg_from_preset("wt", eps=1.0, detection=1,
                                 electrical_snr=db(10)),
        target_rate=0.0)
    est = estimate_sop1(cfg, 50_000, RngStream(6, 0))
    assert est.value <= 3 * est.std_error + 1e-4


def test_identical_fso_links_give_half():
    fso = dgg_from_preset("st", eps=1.0, detection=1, electrical_snr=db(20))
    cfg = Scenario2Config(rf_main=EtaMuLink(5.0, 1, db(12)), fso_main=fso,
                          fso_eve=fso, target_rate=0.0)
    est = estimate_spsc2(cfg, 100_000, RngStream(7, 0))
    assert abs(est.value - 0.5) <= 3 * est.std_error


def test_exact_event_dominates_lower_event(cfg2):
    lower = estimate_sop2(cfg2, 100_000, RngStream(8, 0))
    exact = estimate_sop2(cfg2, 100_000, RngStream(8, 0), exact_event=True)
    assert exact.value >= lower.value  # same draws, shifted threshold


def test_inverse_cdf_route_agrees_with_physical(cfg2):
    """Two samplers with different failure modes must estimate the same
    probability."""
    a = estimate_spsc2(cfg2, 100_000, RngStream(9, 0))
    b = estimate_spsc2(cfg2, 100_000, RngStream(9, 50), inverse_cdf_fso=True)
    tol = 3 * math.hypot(a.std_error, b.std_error) + 2e-3
    assert abs(a.value - b.value) <= tol
    assert abs(a.value - spsc2(cfg2)) <= 3 * a.std_error


def test_spsc1_estimator_runs(cfg1):
    est = estimate_spsc1(cfg1, 50_000, RngStream(10, 0), n_streams=2)
    assert 0.0 <= est.value <= 1.0


def test_rejects_bad_counts(cfg1):
    with pytest.raises(ParameterError):
        estimate_sop1(cfg1, 0, RngStream(1, 0))
    with pytest.raises(ParameterError):
        estimate_sop1(cfg1, 100, RngStream(1, 0), n_streams=0)


def _reference_estimate(metric, cfg, n, rng, exact_event=False, n_streams=1,
                        inverse_cdf_fso=False):
    """The estimators as they counted before the walk, on the frozen
    samplers: each substream draws its links in the estimator's order."""
    fso = uniform_inverse_cdf_sample if inverse_cdf_fso else product_dgg_sample
    eta_mu = gaussian_eta_mu_sample
    base, extra = divmod(n, n_streams)
    hits = 0
    for i in range(n_streams):
        sub, ni = RngStream(rng.seed, rng.stream_id + i), base + (i < extra)
        if metric in ("sop1", "spsc1"):
            g_d = np.minimum(eta_mu(cfg.rf_main, sub, ni),
                             fso(cfg.fso_main, sub, ni))
            g_re = eta_mu(cfg.rf_eve, sub, ni)
            if metric == "spsc1":
                event = g_d > g_re
            else:
                shift = cfg.phi1 - 1.0 if exact_event else 0.0
                event = g_d <= cfg.phi1 * g_re + shift
        elif metric == "sop2":
            g_r0 = eta_mu(cfg.rf_main, sub, ni)
            g_d0 = fso(cfg.fso_main, sub, ni)
            g_de = fso(cfg.fso_eve, sub, ni)
            if exact_event:
                event = (instantaneous_sc_scenario2(g_r0, g_d0, g_de)
                         < cfg.target_rate)
            else:
                event = (g_r0 <= cfg.phi2 - 1.0) | (g_d0 <= cfg.phi2 * g_de)
        else:
            event = fso(cfg.fso_main, sub, ni) > fso(cfg.fso_eve, sub, ni)
        hits += int(np.count_nonzero(event))
    return MCEstimate.from_counts(hits, n)


_ESTIMATORS = {"sop1": estimate_sop1, "sop2": estimate_sop2,
               "spsc1": estimate_spsc1, "spsc2": estimate_spsc2}
_OPTIONS = [{"n_streams": 3}, {"inverse_cdf_fso": True},
            {"exact_event": True}, {"exact_event": True, "n_streams": 3,
                                    "inverse_cdf_fso": True}]


@pytest.mark.parametrize("metric,options", [
    pytest.param(metric, options, id=f"{metric}-{','.join(options)}")
    for metric in _ESTIMATORS for options in _OPTIONS
    if metric.startswith("sop") or "exact_event" not in options])
def test_estimators_equal_the_frozen_samplers(metric, options, cfg1, cfg2):
    """Every estimator, over substreams, on the exact event and with the
    inverse-CDF FSO draw, counts what it counted on the samplers before
    their split into draws and maps."""
    cfg = cfg1 if metric.endswith("1") else cfg2
    n, rng = 20_001, RngStream(17, 40)
    assert (_ESTIMATORS[metric](cfg, n, rng, **options)
            == _reference_estimate(metric, cfg, n, rng, **options))


def test_cells_on_one_stream_keep_their_own_counts_and_failures(cfg2):
    """Cells that start from one stream share draws where their generator
    calls agree, and still count what each counts alone.  An inverse-CDF
    link that no grid spans fails where its cell's steps are built, so no
    walk ever holds it."""
    narrow = Scenario2Config(
        rf_main=cfg2.rf_main,
        fso_main=cfg2.fso_main.with_eps(3e-3),
        fso_eve=cfg2.fso_eve.with_eps(3e-3), target_rate=0.5)
    with pytest.raises(ParameterError, match="no grid spans it"):
        montecarlo._spsc2(narrow, inverse_cdf_fso=True)
    cells = [montecarlo._spsc2(cfg2, inverse_cdf_fso=True),
             montecarlo._sop2(cfg2), montecarlo._spsc2(cfg2),
             montecarlo._sop2(narrow, exact_event=True)]
    n = 5000
    hits = montecarlo._count_hits(cells, n, RngStream(3, 9))
    alone = [estimate_spsc2(cfg2, n, RngStream(3, 9), inverse_cdf_fso=True),
             estimate_sop2(cfg2, n, RngStream(3, 9)),
             estimate_spsc2(cfg2, n, RngStream(3, 9)),
             estimate_sop2(narrow, n, RngStream(3, 9), exact_event=True)]
    for count, est in zip(hits, alone, strict=True):
        assert MCEstimate.from_counts(count, n) == est


def test_inverse_cdf_tables_are_built_once_per_estimate(cfg2, monkeypatch):
    """An estimate over eight substreams builds each inverse-CDF link's
    CDF table once, with its steps, and reuses it on every substream, with
    the counts of the frozen sampler, which builds a table per draw."""
    builds = []

    def table(link):
        builds.append(link)
        return table_of(link)

    table_of = montecarlo._cdf_table
    monkeypatch.setattr(montecarlo, "_cdf_table", table)
    n, rng = 8000, RngStream(5, 2)
    est = estimate_spsc2(cfg2, n, rng, n_streams=8, inverse_cdf_fso=True)
    assert [id(link) for link in builds] == [id(cfg2.fso_main),
                                             id(cfg2.fso_eve)]
    assert est == _reference_estimate("spsc2", cfg2, n, rng, n_streams=8,
                                      inverse_cdf_fso=True)
