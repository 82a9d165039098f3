"""Channel models: normalization, reductions, samplers."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc

from rfso_secrecy import (DggLink, EtaMuLink, RngStream, channels, dgg_cdf,
                          dgg_from_preset, dgg_pdf, dgg_sample,
                          dgg_sample_inverse_cdf, eta_mu_cdf, eta_mu_pdf,
                          eta_mu_sample, special_case)
from rfso_secrecy.channels import EPS_MAX, TURBULENCE_PRESETS, dgg_survival
from rfso_secrecy.errors import (AccuracyError, ParameterError,
                                 UnsupportedCaseError)

from conftest import (gamma_gamma_pointing_pdf, gaussian_eta_mu_sample,
                      ks_statistic, paper_dgg_form, product_dgg_sample,
                      uniform_inverse_cdf_sample)


# ---------------------------------------------------------------------------
# eta-mu RF hop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eta,mu,phi", [(0.5, 1, 1.0), (5.0, 2, 4.0),
                                        (20.0, 2, 10.0), (50.0, 4, 10.0)])
def test_eta_mu_pdf_normalizes(eta, mu, phi):
    link = EtaMuLink(eta, mu, phi)
    mass, err = quad(lambda g: float(eta_mu_pdf(link, g)), 0, np.inf,
                     limit=200)
    assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("eta,mu,phi", [(0.5, 1, 1.0), (20.0, 2, 10.0),
                                        (50.0, 3, 10.0)])
def test_eta_mu_cdf_matches_pdf_derivative(eta, mu, phi):
    link = EtaMuLink(eta, mu, phi)
    for g in np.linspace(0.3, 4.0 * phi, 9):
        h = 1e-5 * max(g, 1.0)
        deriv = float(eta_mu_cdf(link, g + h) - eta_mu_cdf(link, g - h)) / (2 * h)
        pdf = float(eta_mu_pdf(link, g))
        if pdf > 1e-12:
            assert deriv == pytest.approx(pdf, rel=1e-4)


def test_eta_mu_cdf_range_and_limits():
    link = EtaMuLink(20.0, 2, 10.0)
    assert float(eta_mu_cdf(link, 0.0)) == pytest.approx(0.0, abs=1e-12)
    assert float(eta_mu_cdf(link, 1e6)) == pytest.approx(1.0, abs=1e-12)
    g = np.linspace(0, 100, 300)
    F = eta_mu_cdf(link, g)
    assert np.all(np.diff(F) >= -1e-13)
    assert np.all((F >= -1e-12) & (F <= 1 + 1e-12))


def test_eta_mu_decay_rates_positive():
    for eta in (0.05, 0.5, 5.0, 500.0):
        link = EtaMuLink(eta, 3, 2.0)
        assert link.decay[1] > 0 and link.decay[2] > 0


def test_eta_mu_pdf_vanishes_at_infinity():
    link = EtaMuLink(5.0, 2, 1.0)
    assert float(eta_mu_pdf(link, 400.0)) < 1e-100


def test_eta_mu_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        EtaMuLink(1.0, 1, 1.0)  # expansion singular at eta = 1
    with pytest.raises(ParameterError):
        EtaMuLink(1.0 + 1e-12, 1, 1.0)  # still inside the guard band
    with pytest.raises(ParameterError):
        EtaMuLink(2.0, 1.5, 1.0)  # non-integer mu
    with pytest.raises(ParameterError):
        EtaMuLink(2.0, 1, -1.0)
    with pytest.raises(ParameterError):
        eta_mu_pdf(EtaMuLink(2.0, 1, 1.0), -0.5)


@pytest.mark.parametrize("eta,mu", [(1e-6, 60), (0.5, 200), (2.0, 150),
                                    (1.0 - 3e-9, 40)])
def test_eta_mu_coefficient_overflow_is_a_parameter_error(eta, mu):
    """Two-branch coefficients outside double range (float powers such as
    K**mu overflow, or underflow into a division by zero) are rejected with
    a ParameterError naming the coefficient, not an OverflowError."""
    with pytest.raises(ParameterError,
                       match=r"coefficient (coeff_A|X\[\d, \d+\]|Y\[\d, \d+\])"):
        EtaMuLink(eta, mu, 1.0)


@pytest.mark.parametrize("eta,mu", [
    (50.0, 3), (20.0, 2), (5.0, 1), (0.3, 4),
    pytest.param(1e-6, 2, marks=pytest.mark.xfail(strict=True, reason=(
        "k - K cancels at the eta = 1e-6 surrogate: decay[1] and the "
        "weights carry a 7.6e-12 relative error; computing (1 + eta)/2 "
        "exactly moves fig9/fig10 closed forms by up to 2.4e-10, past the "
        "recorded benchmark fingerprint")))])
def test_two_branch_terms_sum_to_one(eta, mu):
    """A well-conditioned link keeps the two-branch terms: shapes 1..mu at
    each of the two decay rates, weights summing to 1 (the survival at 0)."""
    link = EtaMuLink(eta, mu, 3.0)
    w, n, lam = link.terms
    assert sorted(set(lam)) == sorted(link.decay.values())
    for rate in set(lam):
        assert sorted(n[lam == rate]) == list(range(1, mu + 1))
    assert w.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.abs(w).sum() <= 1e3


@pytest.mark.parametrize("eta,mu", [(0.97, 4), (0.875, 3), (0.5, 8),
                                    (2.0, 8), (1.0 + 1e-6, 2)])
def test_mixture_terms_drop_at_most_the_series_tolerance(eta, mu):
    """A link whose two-branch weights cancel takes the Gamma mixture:
    shapes 1..N at the larger decay rate, non-negative weights (zero below
    2mu) summing to 1 less a tail of at most 2^-56."""
    link = EtaMuLink(eta, mu, 3.0)
    w, n, lam = link.terms
    assert np.all(lam == max(link.decay.values()))
    assert list(n) == list(range(1, n.size + 1))
    assert np.all(w[:2 * mu - 1] == 0.0) and np.all(w[2 * mu - 1:] > 0.0)
    tail = 1.0 - math.fsum(w)
    assert -1e-15 <= tail <= 2.0**-56 + 1e-15


@given(eta=(st.floats(0.05, 0.9) | st.floats(0.9, 1.2)
            | st.floats(1.2, 100.0)).filter(
                lambda eta: abs(1.0 / eta - eta) / 4.0 > 1e-9),
       mu=st.integers(1, 4), c=st.sampled_from([2.0, 10.0]))
@example(eta=0.875, mu=3, c=10.0)
@example(eta=0.9, mu=4, c=2.0)
@settings(max_examples=40, deadline=None)
def test_eta_mu_mean_snr_scaling(eta, mu, c):
    """Scale family: F with mean c*phi at c*gamma equals F with mean phi at
    gamma.  Asserted across the distribution bulk and across every eta the
    constructor accepts: near eta = 1 the alternating two-branch expansion
    cancels (errors up to 1e-3), which the Gamma-mixture form avoids."""
    base = EtaMuLink(eta, mu, 1.7)
    scaled = EtaMuLink(eta, mu, 1.7 * c)
    for g in (0.3 * 1.7, 1.7, 5.0 * 1.7):
        assert float(eta_mu_cdf(scaled, c * g)) == pytest.approx(
            float(eta_mu_cdf(base, g)), abs=1e-12)


def _mp_gamma_sum_pdf(mp, eta, mu, phi):
    """Density of Gamma(mu, rate a) + Gamma(mu, rate b), the eta-mu SNR law
    (a = mu(1 + eta)/phi, b = a/eta), as the closed-form convolution
    a^mu b^mu g^(2mu-1) e^(-b g) 1F1(mu; 2mu; (b - a) g) / Gamma(2mu)."""
    eta, phi = mp.mpf(eta), mp.mpf(phi)
    a = mu * (1 + eta) / phi
    b = a / eta
    return lambda g: (a**mu * b**mu / mp.gamma(2 * mu) * g**(2 * mu - 1)
                      * mp.exp(-b * g) * mp.hyp1f1(mu, 2 * mu, (b - a) * g))


@pytest.mark.parametrize("eta", [0.875, 0.95, 0.99, 1.05])
@pytest.mark.parametrize("mu", [3, 4, 8])
def test_eta_mu_near_one_matches_mpmath_convolution(eta, mu):
    """CDF and survival near eta = 1, where the two-branch coefficients
    cancel by factors up to 6e33, against the 40-digit convolution."""
    mp = pytest.importorskip("mpmath")
    phi = 1.7
    link = EtaMuLink(eta, mu, phi)
    with mp.workdps(40):
        pdf = _mp_gamma_sum_pdf(mp, eta, mu, phi)
        for g in (0.05 * phi, 0.3 * phi, phi, 5.0 * phi):
            F = mp.quad(pdf, [0, g])
            assert float(eta_mu_cdf(link, g)) == pytest.approx(float(F),
                                                               abs=1e-14)
            assert float(link.survival(g)) == pytest.approx(float(1 - F),
                                                            abs=1e-14)


@pytest.mark.parametrize("eta,mu", [(50.0, 3), (100.0, 4), (0.875, 3)])
def test_eta_mu_pdf_near_zero_matches_mpmath(eta, mu):
    """Relative accuracy of the density near 0, where the two-branch terms
    cancel even for well-conditioned links."""
    mp = pytest.importorskip("mpmath")
    link = EtaMuLink(eta, mu, 1.0)
    with mp.workdps(40):
        pdf = _mp_gamma_sum_pdf(mp, eta, mu, 1.0)
        for g in (1e-6, 1e-3):
            assert float(eta_mu_pdf(link, g)) == pytest.approx(
                float(pdf(mp.mpf(g))), rel=1e-12, abs=0.0)


def test_rayleigh_reduction():
    link = special_case("Rayleigh", avg_snr=1.0)
    g = np.linspace(0.0, 12.0, 400)
    ref = 1.0 - np.exp(-g)
    assert np.max(np.abs(eta_mu_cdf(link, g) - ref)) <= 1e-5
    # CDF at ln 2 is exactly one half for unit-mean Rayleigh power
    assert float(eta_mu_cdf(link, math.log(2.0))) == pytest.approx(0.5,
                                                                   abs=1e-5)
    # density approaches e^-g / phi outside the vanishing boundary layer
    assert float(eta_mu_pdf(link, 0.01)) == pytest.approx(math.exp(-0.01),
                                                          rel=2e-4)


def test_nakagami_reduction():
    m, phi = 3, 5.0
    link = special_case("NakagamiM", m=m, avg_snr=phi)
    g = np.linspace(0.0, 40.0, 400)
    ref = gammainc(m, m * g / phi)
    assert np.max(np.abs(eta_mu_cdf(link, g) - ref)) <= 1e-5


def test_unsupported_rf_cases():
    with pytest.raises(UnsupportedCaseError):
        special_case("OneSidedGaussian", avg_snr=1.0)
    with pytest.raises(UnsupportedCaseError):
        special_case("Hoyt", avg_snr=1.0)
    with pytest.raises(UnsupportedCaseError):
        special_case("NakagamiM", m=0.5, avg_snr=1.0)


def test_eta_mu_sampler_statistics():
    link = EtaMuLink(20.0, 2, 10.0)
    rng = RngStream(seed=101, stream_id=0)
    n = 100_000
    s = eta_mu_sample(link, rng, n)
    assert s.mean() == pytest.approx(10.0, abs=3 * s.std() / math.sqrt(n))
    s.sort()
    assert ks_statistic(s, eta_mu_cdf(link, s)) <= 0.006


@pytest.mark.parametrize("eta,mu", [(0.5, 1), (5.0, 4)])
def test_eta_mu_sampler_ks_more_shapes(eta, mu):
    link = EtaMuLink(eta, mu, 3.0)
    s = np.sort(eta_mu_sample(link, RngStream(7, 3), 100_000))
    assert ks_statistic(s, eta_mu_cdf(link, s)) <= 0.006


def test_eta_mu_sampler_deterministic():
    link = EtaMuLink(5.0, 2, 1.0)
    a = eta_mu_sample(link, RngStream(42, 9), 10)
    b = eta_mu_sample(link, RngStream(42, 9), 10)
    assert np.array_equal(a, b)
    c = eta_mu_sample(link, RngStream(42, 10), 10)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n", [10, 50_000])
@pytest.mark.parametrize("eta,mu", [(20.0, 1), (0.3, 2), (5.0, 3), (50.0, 4),
                                    (1e-6, 1), (1e-6, 2)])
def test_eta_mu_sampler_equals_the_gaussian_construction(eta, mu, n):
    """Split into standard normals and a per-link map, the sampler still
    gives the bytes of gen.normal(0, sigma) for P then Q, for mu 1 to 4
    and at the eta = 1e-6 surrogate of the Rayleigh and Nakagami rows."""
    link = EtaMuLink(eta, mu, 7.0)
    assert np.array_equal(eta_mu_sample(link, RngStream(13, mu), n),
                          gaussian_eta_mu_sample(link, RngStream(13, mu), n))


def test_eta_mu_sampler_keeps_the_chunk_order():
    """Past 2^20 rows the draws come in chunks, P then Q in each: at
    2^20 + 3 the last three rows come from a second pair of blocks."""
    link = EtaMuLink(20.0, 1, 3.0)
    n = (1 << 20) + 3
    assert np.array_equal(eta_mu_sample(link, RngStream(4, 2), n),
                          gaussian_eta_mu_sample(link, RngStream(4, 2), n))


def _wide_squares(rows, cols, seed):
    """Squares spread over 40 decades, so that sums taken in different
    orders round differently."""
    gen = np.random.default_rng(seed)
    return (gen.standard_normal((rows, cols))
            * 10.0 ** gen.uniform(-20, 20, (rows, cols))) ** 2


@pytest.mark.parametrize("k", [*range(1, 21), 64, 127, 128, 129])
def test_column_sums_follow_numpy_reduction_order(k):
    """_add_columns adds column by column in the order x.sum(axis=1) adds
    a row, numpy's pairwise_sum: left to right below 8 columns, 8 partial
    sums from 8 to 128; past 128 it is x.sum(axis=1).  A numpy release that
    changes that order fails here."""
    x = _wide_squares(2000, k, k)
    assert np.array_equal(channels._add_columns(x), x.sum(axis=1))
    if k >= 8:   # the data tells the orders apart
        in_turn = x[:, 0].copy()
        for j in range(1, k):
            in_turn += x[:, j]
        assert not np.array_equal(in_turn, x.sum(axis=1))


@pytest.mark.parametrize("mu,n", [
    (mu, n) for mu in range(1, 9)
    for n in (10, channels._TILE_ROWS + 5, 50_000)] + [(70, 10), (70, 9000)])
def test_eta_mu_map_equals_its_scratch_block_form(mu, n):
    """The eta-mu map, which adds its squares column by column in tiles of
    rows, gives the bytes of the whole-block form (scale*z)**2 summed by
    rows, for mu 1 to 8: 2mu columns on both sides of numpy's switch to 8
    partial sums; mu 70's 140 columns take numpy's own sum.  The normals
    it reads are left as they are."""
    link = EtaMuLink(20.0, mu, 7.0)
    gen = np.random.default_rng(mu)
    zp, zq = (gen.standard_normal((n, 2 * mu)) for _ in range(2))
    copies = zp.copy(), zq.copy()
    c = link.avg_snr / (2.0 * mu * (1.0 + link.eta))
    block = ((math.sqrt(link.eta * c) * zp) ** 2).sum(axis=1)
    block += ((math.sqrt(c) * zq) ** 2).sum(axis=1)
    assert np.array_equal(channels._eta_mu_snr(link, (zp, zq)), block)
    assert np.array_equal(zp, copies[0]) and np.array_equal(zq, copies[1])


_MAP_LINKS = [
    dgg_from_preset(t, eps=eps, detection=s, electrical_snr=10.0)
    for t in ("st", "mt", "wt") for s in (1, 2) for eps in (1.0, 6.7)] + [
    special_case("KDistribution", b2=1.8, eps=6.7, detection=1,
                 electrical_snr=3.0),
    special_case("DoubleWeibull", eps=1.0, detection=2, electrical_snr=3.0),
    special_case("GammaGamma", b1=2.296, b2=1.822, eps=1.0, detection=1,
                 electrical_snr=3.0)]


@pytest.mark.parametrize("link", _MAP_LINKS, ids=repr)
def test_dgg_map_equals_its_expression(link):
    """The DGG map, which takes its powers and products in place, gives the
    bytes of U*(Ix*Iy*Ip/c)^s written out, and leaves the variates (shared
    by every link of a draw) as they are."""
    gen = np.random.default_rng(11)
    variates = (gen.standard_gamma(link.b1, 50_000),
                gen.standard_gamma(link.b2, 50_000), gen.random(50_000))
    copies = [v.copy() for v in variates]
    g1, g2, v = variates
    Ix = ((1.0 / link.b1) * g1) ** (1.0 / link.a1)
    Iy = ((1.0 / link.b2) * g2) ** (1.0 / link.a2)
    Ip = v ** (1.0 / link.eps**2)
    expected = (link.electrical_snr
                * (Ix * Iy * Ip / link.sampler_scale()) ** link.s)
    assert np.array_equal(channels._dgg_snr(link, variates), expected)
    assert all(np.array_equal(a, b) for a, b in zip(variates, copies))


# ---------------------------------------------------------------------------
# DGG FSO hop
# ---------------------------------------------------------------------------

def test_dgg_pdf_normalizes_wt():
    for s in (1, 2):
        link = dgg_from_preset("wt", eps=1.0, detection=s, electrical_snr=10.0)
        mass, err = quad(lambda g: float(dgg_pdf(link, g)), 0, np.inf,
                         limit=300, epsabs=1e-9)
        assert mass == pytest.approx(1.0, abs=1e-6)


def test_dgg_pdf_normalizes_st_eps():
    link = dgg_from_preset("st", eps=6.7, detection=1, electrical_snr=10.0)
    mass, err = quad(lambda g: float(dgg_pdf(link, g)), 0, np.inf,
                     limit=300, epsabs=1e-9)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_dgg_cdf_properties(st_link):
    assert float(dgg_cdf(st_link, 0.0)) == 0.0
    g = np.logspace(-6, 6, 60) * st_link.electrical_snr
    F = dgg_cdf(st_link, g)
    assert np.all(np.isfinite(F))
    assert np.all(np.diff(F) >= -1e-12)
    assert np.all((F >= 0) & (F <= 1 + 1e-12))
    assert F[-1] == pytest.approx(1.0, abs=1e-9)


def test_dgg_cdf_matches_pdf_derivative(wt_link):
    U = wt_link.electrical_snr
    for g in np.linspace(0.1 * U, 3.0 * U, 11):
        h = 1e-5 * g
        deriv = (float(dgg_cdf(wt_link, g + h))
                 - float(dgg_cdf(wt_link, g - h))) / (2 * h)
        pdf = float(dgg_pdf(wt_link, g))
        if pdf > 1e-12:
            assert deriv == pytest.approx(pdf, rel=1e-4)


def test_dgg_snr_distribution_free_of_omega_scales():
    """omega1/omega2 rescale irradiance only; the SNR law renormalizes by the
    mean, so the SNR distribution cannot depend on them."""
    a = DggLink(2.1, 2.1, 4.0, 4.5, 1.07, 1.06, 1, 1, 1.0, "hd", 10.0)
    b = DggLink(2.1, 2.1, 4.0, 4.5, 3.33, 0.21, 1, 1, 1.0, "hd", 10.0)
    for g in (0.3, 5.0, 40.0):
        assert float(dgg_cdf(a, g)) == pytest.approx(float(dgg_cdf(b, g)),
                                                     rel=1e-12)


@pytest.mark.parametrize("eta,mu,phi", [
    (float("nan"), 1, 1.0), (float("inf"), 1, 1.0), (1.0, float("nan"), 1.0),
    (2.0, float("inf"), 1.0), (2.0, 2, float("inf")), (2.0, 2, float("nan"))])
def test_eta_mu_rejects_non_finite_parameters(eta, mu, phi):
    with pytest.raises(ParameterError):
        EtaMuLink(eta, mu, phi)


@pytest.mark.parametrize("name", ["a1", "b2", "omega1", "lambda1", "eps",
                                  "electrical_snr"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_dgg_rejects_non_finite_parameters(name, bad):
    kw = dict(TURBULENCE_PRESETS["wt"], eps=1.0, detection=1,
              electrical_snr=10.0)
    kw[name] = bad
    with pytest.raises(ParameterError):
        DggLink(**kw)


@pytest.mark.parametrize("preset", ["st", "wt"])
@pytest.mark.parametrize("s", [1, 2])
def test_link_at_another_snr_shares_its_integrands(preset, s):
    """with_electrical_snr keeps the integrands, normaliser and log-scale
    (they depend only on the shape, eps and detection), gives the laws of
    a link built at that SNR bit for bit, and rejects the SNRs the
    constructor rejects."""
    link = dgg_from_preset(preset, eps=6.7, detection=s, electrical_snr=10.0)
    moved = link.with_electrical_snr(3e3)
    built = dgg_from_preset(preset, eps=6.7, detection=s,
                            electrical_snr=3e3)
    assert moved.electrical_snr == 3e3 and link.electrical_snr == 10.0
    for name in ("_pdf_mb", "_cdf_mb", "_sf_mb"):
        assert getattr(moved, name) is getattr(link, name)
    assert (moved.ln_norm, moved.ln_scale) == (built.ln_norm, built.ln_scale)
    g = np.logspace(-2, 2, 7) * 3e3
    for law in (dgg_pdf, dgg_cdf, dgg_survival):
        np.testing.assert_array_equal(law(moved, g), law(built, g))
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            link.with_electrical_snr(bad)


def test_dgg_laws_reject_nan_and_take_infinity_as_an_endpoint(wt_link):
    for law in (dgg_pdf, dgg_cdf, dgg_survival):
        for gamma in (float("nan"), [1.0, float("nan")]):
            with pytest.raises(ParameterError):
                law(wt_link, gamma)
    assert dgg_cdf(wt_link, np.inf) == 1.0
    assert dgg_survival(wt_link, np.inf) == 0.0
    assert dgg_pdf(wt_link, np.inf) == 0.0
    g = np.array([0.0, wt_link.electrical_snr, np.inf])
    F, S = dgg_cdf(wt_link, g), dgg_survival(wt_link, g)
    assert (F[0], F[2], S[0], S[2]) == (0.0, 1.0, 1.0, 0.0)
    assert F[1] + S[1] == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_array_equal(dgg_pdf(wt_link, g[1:]),
                                  [dgg_pdf(wt_link, g[1]), 0.0])


@pytest.mark.xfail(strict=True, raises=AccuracyError, reason=(
    "ROADMAP direction 15: the saddle of the half-open strip runs so far "
    "out that the gamma factor arguments (7.7e12 at 1e14) trip the 1e11 "
    "guard of _truncation"))
@pytest.mark.parametrize("gamma", [1e14, 1e20])
@pytest.mark.parametrize("law", [dgg_pdf, dgg_survival])
def test_dgg_small_side_far_out_is_zero(wt_link, law, gamma):
    """On wt HD (eps 1, U = 100) the density and the survival are 0 to
    double precision from gamma = 1e12 on, where the laws return 0.0."""
    assert law(wt_link, 1e12) == 0.0
    assert law(wt_link, gamma) == 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP direction 15: dgg_cdf returns 1.0000000000000002 at "
    "gamma = 1e20"))
def test_dgg_cdf_far_out_is_at_most_one(wt_link):
    """On wt HD (eps 1, U = 100) the CDF at gamma = 1e20 is a probability."""
    assert dgg_cdf(wt_link, 1e20) <= 1.0


def _irradiance_moment(link, r):
    """E[I^r] from the generalized-Gamma moments Gamma(b + r/a)/Gamma(b)
    b^(-r/a) of the two irradiance factors and the pointing factor
    eps^2/(eps^2 + r)."""
    out = link.eps**2 / (link.eps**2 + r)
    for a, b in ((link.a1, link.b1), (link.a2, link.b2)):
        out *= math.exp(math.lgamma(b + r / a) - math.lgamma(b)
                        - (r / a) * math.log(b))
    return out


@pytest.mark.parametrize("preset", ["st", "mt", "wt"])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("eps", [1.0, 6.7])
def test_dgg_survival_integrates_to_the_mean_snr(preset, s, eps):
    """int_0^inf survival = E[SNR] = U E[I^s]/E[I]^s (U for HD): the
    normaliser and the log-scale of the law's Mellin-Barnes integrand
    against the irradiance moments.  The integral runs over ln(g/U)."""
    U = 100.0
    link = dgg_from_preset(preset, eps=eps, detection=s, electrical_snr=U)
    mean, _ = quad(lambda x: float(dgg_survival(link, U * math.exp(x)))
                   * U * math.exp(x), -40.0, 15.0, points=[0.0], limit=200,
                   epsabs=0.0, epsrel=1e-12)
    expected = U * _irradiance_moment(link, s) / _irradiance_moment(link, 1)**s
    assert mean == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("preset", ["st", "mt", "wt"])
@pytest.mark.parametrize("s", [1, 2])
def test_dgg_sampler_scale_is_the_mean_irradiance(preset, s):
    for eps in (1.0, 6.7):
        link = dgg_from_preset(preset, eps=eps, detection=s,
                               electrical_snr=100.0)
        assert link.sampler_scale() == pytest.approx(
            _irradiance_moment(link, 1), rel=1e-14)


def test_dgg_rejects_inconsistent_ladder():
    with pytest.raises(ParameterError):
        DggLink(1.86, 1.0, 0.5, 1.8, 1.51, 1.0, 17, 9, 1.0, "hd", 10.0)
    with pytest.raises(ParameterError):
        DggLink(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1, 1, 1.0, 3, 10.0)
    with pytest.raises(ParameterError):
        dgg_pdf(dgg_from_preset("wt", eps=1.0, detection=1,
                                electrical_snr=1.0), 0.0)


@pytest.mark.parametrize("s", [1, 2])
def test_dgg_reduces_to_gamma_gamma(s):
    b1, b2, eps, U = 2.296, 1.822, 1.0, 10.0
    link = special_case("GammaGamma", b1=b1, b2=b2, eps=eps, detection=s,
                        electrical_snr=U)
    for g in (0.5, 2.0, 10.0, 40.0):
        ref = gamma_gamma_pointing_pdf(g, b1, b2, eps, s, U)
        assert float(dgg_pdf(link, g)) == pytest.approx(ref, rel=1e-8)


def test_k_distribution_case():
    link = special_case("KDistribution", b2=1.8, eps=1.0, detection=1,
                        electrical_snr=10.0)
    # K distribution == Gamma-Gamma with one shape equal to 1
    for g in (1.0, 10.0):
        ref = gamma_gamma_pointing_pdf(g, 1.0, 1.8, 1.0, 1, 10.0)
        assert float(dgg_pdf(link, g)) == pytest.approx(ref, rel=1e-8)


def test_double_weibull_case_normalizes():
    link = special_case("DoubleWeibull", eps=1.0, detection=1,
                        electrical_snr=5.0)
    mass, _ = quad(lambda g: float(dgg_pdf(link, g)), 0, np.inf, limit=300,
                   epsabs=1e-9)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_lognormal_unreachable():
    with pytest.raises(UnsupportedCaseError):
        special_case("Lognormal")


def _sorted_with_grid_cdf(link, samples):
    s = np.sort(samples)
    grid = np.exp(np.linspace(math.log(s[0] * 0.9), math.log(s[-1] * 1.1),
                              900))
    F = dgg_cdf(link, grid)
    return s, np.interp(s, grid, F)


@pytest.mark.parametrize("preset,s", [("wt", 1), ("st", 1), ("mt", 2)])
def test_dgg_sampler_ks(preset, s):
    link = dgg_from_preset(preset, eps=1.0, detection=s, electrical_snr=10.0)
    draws = dgg_sample(link, RngStream(55, 1), 100_000)
    srt, F = _sorted_with_grid_cdf(link, draws)
    assert ks_statistic(srt, F) <= 0.01


def test_dgg_sampler_deterministic():
    link = dgg_from_preset("wt", eps=1.0, detection=1, electrical_snr=10.0)
    a = dgg_sample(link, RngStream(3, 4), 10)
    b = dgg_sample(link, RngStream(3, 4), 10)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [10, 50_000])
@pytest.mark.parametrize("link", _MAP_LINKS, ids=repr)
def test_dgg_sampler_equals_the_product_construction(link, n):
    """Split into standard Gamma and uniform draws and a per-link map, the
    sampler still gives the bytes of gen.gamma(b, 1/b) and gen.uniform."""
    assert np.array_equal(dgg_sample(link, RngStream(21, 3), n),
                          product_dgg_sample(link, RngStream(21, 3), n))


@pytest.mark.parametrize("n", [10, 50_000])
@pytest.mark.parametrize("preset,s", [("wt", 1), ("st", 2)])
def test_inverse_cdf_sampler_equals_its_uniform_draw(preset, s, n):
    link = dgg_from_preset(preset, eps=1.0, detection=s, electrical_snr=10.0)
    assert np.array_equal(
        dgg_sample_inverse_cdf(link, RngStream(8, 1), n),
        uniform_inverse_cdf_sample(link, RngStream(8, 1), n))


def test_gamma_gamma_sampler_against_direct_product():
    """The reduced sampler must match a from-scratch product-of-two-Gammas
    draw in distribution (two-sample KS)."""
    eps_large = 2e5  # effectively no pointing error
    link = special_case("GammaGamma", b1=2.296, b2=1.822, eps=eps_large,
                        detection=1, electrical_snr=10.0)
    n = 100_000
    ours = np.sort(dgg_sample(link, RngStream(9, 0), n))
    gen = np.random.default_rng(1234)
    ia = gen.gamma(2.296, 1 / 2.296, n) * gen.gamma(1.822, 1 / 1.822, n)
    theirs = np.sort(10.0 * ia / ia.mean())
    # two-sample KS statistic
    data = np.concatenate([ours, theirs])
    idx = np.argsort(data, kind="mergesort")
    flags = np.concatenate([np.ones(n), -np.ones(n)])[idx]
    d = np.max(np.abs(np.cumsum(flags))) / n
    assert d <= 0.01


def test_inverse_cdf_sampler_ks(wt_link):
    draws = dgg_sample_inverse_cdf(wt_link, RngStream(77, 0), 50_000)
    srt, F = _sorted_with_grid_cdf(wt_link, draws)
    assert ks_statistic(srt, F) <= 0.012


def test_inverse_cdf_sampler_walks_its_grid_down_to_the_floor():
    """wt HD at eps 0.5: the CDF is 6.8e-4 at U*1e-12, above the grid's
    1e-9 floor, and 3.2e-82 at the smallest positive double, so the grid's
    lower end walks down in steps of 1e-3 until the CDF falls below the
    floor.  The samples follow dgg_cdf: their KS distance is below
    1.36/sqrt(n), the 5% critical value."""
    link = dgg_from_preset("wt", eps=0.5, detection=1, electrical_snr=100.0)
    assert (dgg_cdf(link, 100.0 * 1e-12) > 1e-9
            > dgg_cdf(link, np.nextafter(0.0, 1.0)))
    n = 2000
    draws = np.sort(dgg_sample_inverse_cdf(link, RngStream(5, 0), n))
    assert ks_statistic(draws, dgg_cdf(link, draws)) < 1.36 / math.sqrt(n)


@pytest.mark.parametrize("eps", [3e-3, 1e-2, 0.1])
def test_inverse_cdf_sampler_rejects_a_cdf_above_its_floor_at_zero(eps):
    """A narrow pointing beam leaves the st CDF above 1e-9 down to the
    smallest positive double (it falls like g^(eps^2/s) toward 0): no grid
    spans the law, and the search stops there with a ParameterError that
    points to the physical sampler."""
    link = dgg_from_preset("st", eps=eps, detection=1, electrical_snr=100.0)
    with pytest.raises(ParameterError, match="dgg_sample"):
        dgg_sample_inverse_cdf(link, RngStream(1, 0), 10)


def test_turbulence_presets_consistent():
    for name in ("st", "mt", "wt"):
        link = dgg_from_preset(name, eps=1.0, detection=1, electrical_snr=1.0)
        assert link.lambda1 * link.a2 == pytest.approx(link.lambda2 * link.a1)
        # the paper's G-form expands each factor of K(s*v) into |slope|
        # unit-slope ones
        paper = paper_dgg_form(link)
        # (the two gamma factors and the pointing factor, the first
        # linear one)
        mb = link._cdf_mb
        assert len(paper.j4) == sum(b for _, b in mb.numer) + mb.linear[0][1]
        assert len(paper.j3) == link.s


def test_eps_whose_square_overflows_rejected():
    """eps^2 overflows from 2^512 on, past the domain's end EPS_MAX = 2^64:
    a ParameterError, not an untyped OverflowError; just below EPS_MAX the
    link builds."""
    for eps in (2.0**512, EPS_MAX):
        with pytest.raises(ParameterError):
            dgg_from_preset("wt", eps=eps, detection=1, electrical_snr=100.0)
    dgg_from_preset("wt", eps=np.nextafter(EPS_MAX, 0.0), detection=1,
                    electrical_snr=100.0)


def test_eps_whose_square_underflows_rejected():
    """Below 2^-511 eps^2 is subnormal or 0 and 1/eps^2 overflows: a
    ParameterError, not an untyped ValueError from log(eps^2) nor a link
    whose laws run out of nodes; from 2^-511 on the link builds."""
    for eps in (2.0**-512, 1e-200):
        with pytest.raises(ParameterError):
            dgg_from_preset("wt", eps=eps, detection=1, electrical_snr=100.0)
    link = dgg_from_preset("wt", eps=2.0**-511, detection=1,
                           electrical_snr=100.0)
    assert math.isfinite(link.ln_norm) and math.isfinite(link.ln_scale)


def test_eps_past_the_domain_end_rejected_at_once():
    """At eps = 1e100 the pointing factor's offset eps^2/tau ~ 5e199 no
    longer costs a gamma function, but the integrals ~ 1/eps^2 and the
    normaliser ~ eps^2 carry ln eps^2 = 460 through the log domain (CDF +
    survival - 1 reaches 1e-13 near eps = 1e70), and past 1e135 the
    integrals sink below the absolute tolerance: the domain ends at
    EPS_MAX = 2^64, and the constructor rejects eps past it at once."""
    start = time.perf_counter()
    for eps in (1e100, 1e150, 2.0**64):
        with pytest.raises(ParameterError, match="eps must be in"):
            dgg_from_preset("wt", eps=eps, detection=1, electrical_snr=100.0)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("preset", ["st", "mt", "wt"])
@pytest.mark.parametrize("s", [1, 2])
def test_cdf_and_survival_sum_to_one_across_the_eps_domain(preset, s):
    """CDF + survival = 1 within 1e-13 from eps = 1e-2 to the domain's end,
    over eight decades of gamma/U at U = 1, 100 and 1e4: the pointing
    factor 1/(eps^2/tau + s*v) is exact at any eps (as a difference of two
    log-gammas at offsets eps^2/tau it lost 1e-11 at eps = 1e3, and from
    1e4 on the contour ran to its node budget)."""
    for eps in (1e-2, 0.1, 1.0, 6.7, 1e2, 1e3, 1e4, 1e6, 1e8, 1e12, 1e16,
                np.nextafter(EPS_MAX, 0.0)):
        for u in (1.0, 100.0, 1e4):
            link = dgg_from_preset(preset, eps=eps, detection=s,
                                   electrical_snr=u)
            g = u * np.logspace(-4, 4, 9)
            total = dgg_cdf(link, g) + dgg_survival(link, g)
            np.testing.assert_allclose(total, 1.0, rtol=0.0, atol=1e-13,
                                       err_msg=f"eps {eps}, U {u}")


def test_large_eps_cdf_matches_mpmath():
    """wt HD at eps = 1e4, U = 100: the CDF at gamma = 1 and 100 against
    the Mellin-Barnes line integral of Gamma(b1 + v) Gamma(b2 + v) /
    ((eps^2/tau + v)(-v)) at 30 digits by mpmath.quad, on the engine's
    line (any line in the strip gives the same integral)."""
    mp = pytest.importorskip("mpmath")
    link = dgg_from_preset("wt", eps=1e4, detection=1, electrical_snr=100.0)
    with mp.workdps(30):
        e2, tau = mp.mpf(10) ** 8, mp.mpf(21) / 10
        b1, b2 = mp.mpf(4), mp.mpf(9) / 2
        norm = e2 / (tau * mp.gamma(b1) * mp.gamma(b2))
        for g in (1.0, 100.0):
            ln_z = float(link.ln_cdf_argument(g))
            c = mp.mpf(float(link._cdf_mb._saddle([ln_z], 0)[0]))

            def f(t):
                v = c + 1j * t
                return mp.re(mp.gamma(b1 + v) * mp.gamma(b2 + v)
                             / ((e2 / tau + v) * (-v)) * mp.exp(-v * ln_z))

            ref = norm * mp.quad(f, [0, 1, 4, 16, 64, mp.inf]) / mp.pi
            assert dgg_cdf(link, g) == pytest.approx(float(ref), rel=1e-13)
