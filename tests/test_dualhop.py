"""DF min-combination and instantaneous secrecy-capacity clamps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rfso_secrecy import (DualHopChannel, EtaMuLink, RngStream,
                          dgg_from_preset, dgg_cdf, dgg_sample, eta_mu_cdf,
                          eta_mu_sample, instantaneous_sc_scenario1,
                          instantaneous_sc_scenario2, min_combine_cdf,
                          min_combine_pdf)
from rfso_secrecy.errors import ParameterError

from conftest import ks_statistic


@pytest.fixture(scope="module")
def channel():
    return DualHopChannel(
        rf=EtaMuLink(20.0, 2, 10.0),
        fso=dgg_from_preset("wt", eps=1.0, detection=1, electrical_snr=10.0))


def test_cdf_matches_inclusion_exclusion(channel):
    """1 - S_rf S_fso against F_rf + F_fso - F_rf F_fso."""
    for g in np.logspace(-2, 2.5, 25):
        a = float(min_combine_cdf(channel, g))
        Fr = float(eta_mu_cdf(channel.rf, g))
        Ff = float(dgg_cdf(channel.fso, g))
        assert a == pytest.approx(Fr + Ff - Fr * Ff, abs=1e-10)


def test_cdf_bounds_and_monotonicity(channel):
    g = np.logspace(-2, 2.5, 40)
    F = min_combine_cdf(channel, g)
    Fr = eta_mu_cdf(channel.rf, g)
    Ff = dgg_cdf(channel.fso, g)
    assert np.all(F >= np.maximum(Fr, Ff) - 1e-12)
    assert np.all(F <= Fr + Ff + 1e-12)
    assert np.all(np.diff(F) >= -1e-12)
    assert float(min_combine_cdf(channel, 0.0)) == 0.0


def test_cdf_decreases_with_either_hop_snr(channel):
    g = 5.0
    base = float(min_combine_cdf(channel, g))
    better_rf = DualHopChannel(rf=channel.rf.with_avg_snr(20.0),
                               fso=channel.fso)
    better_fso = DualHopChannel(
        rf=channel.rf, fso=channel.fso.with_electrical_snr(20.0))
    assert float(min_combine_cdf(better_rf, g)) <= base + 1e-12
    assert float(min_combine_cdf(better_fso, g)) <= base + 1e-12


def test_pdf_matches_cdf_derivative(channel):
    for g in np.linspace(0.5, 30.0, 8):
        h = 1e-5 * g
        deriv = (float(min_combine_cdf(channel, g + h))
                 - float(min_combine_cdf(channel, g - h))) / (2 * h)
        pdf = float(min_combine_pdf(channel, g))
        if pdf > 1e-12:
            assert deriv == pytest.approx(pdf, rel=1e-4)


def test_pdf_normalizes(channel):
    mass, _ = quad(lambda g: float(min_combine_pdf(channel, g)), 0, np.inf,
                   limit=300, epsabs=1e-9)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_empirical_min_agrees(channel):
    n = 100_000
    gr = eta_mu_sample(channel.rf, RngStream(5, 0), n)
    gf = dgg_sample(channel.fso, RngStream(5, 1), n)
    s = np.sort(np.minimum(gr, gf))
    grid = np.exp(np.linspace(np.log(s[0] * 0.9), np.log(s[-1] * 1.1), 800))
    F = min_combine_cdf(channel, grid)
    assert ks_statistic(s, np.interp(s, grid, F)) <= 0.01


def test_domain_errors(channel):
    with pytest.raises(ParameterError):
        min_combine_cdf(channel, -1.0)
    with pytest.raises(ParameterError):
        min_combine_pdf(channel, 0.0)
    with pytest.raises(ParameterError):
        instantaneous_sc_scenario1(-1.0, 0.0)


def test_sc1_point_values():
    assert float(instantaneous_sc_scenario1(3.0, 1.0)) == pytest.approx(1.0)
    assert float(instantaneous_sc_scenario1(1.0, 3.0)) == 0.0
    assert float(instantaneous_sc_scenario1(2.7, 2.7)) == 0.0


def test_sc2_point_values():
    assert float(instantaneous_sc_scenario2(3.0, 3.0, 1.0)) == pytest.approx(0.5)
    assert float(instantaneous_sc_scenario2(5.0, 2.0, 2.0)) == 0.0
    assert float(instantaneous_sc_scenario2(0.0, 10.0, 1.0)) == 0.0


@given(gd=st.floats(0, 1e6), ge=st.floats(0, 1e6))
@settings(max_examples=100, deadline=None)
def test_sc1_nonnegative_and_clamped(gd, ge):
    v = float(instantaneous_sc_scenario1(gd, ge))
    assert v >= 0.0
    if gd <= ge:
        assert v == 0.0


@given(gr=st.floats(0, 1e6), gd=st.floats(0, 1e6), ge=st.floats(0, 1e6))
@settings(max_examples=100, deadline=None)
def test_sc2_nonnegative_and_clamped(gr, gd, ge):
    v = float(instantaneous_sc_scenario2(gr, gd, ge))
    assert v >= 0.0
    if gd <= ge or gr == 0.0:
        assert v == 0.0
