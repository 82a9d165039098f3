"""Shared fixtures and small statistical helpers."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from rfso_secrecy import (EtaMuLink, Scenario1Config, Scenario2Config,
                          channels, dgg_from_preset)
from rfso_secrecy.specfun import delta_expand, delta_expand_list


def db(x):
    return 10.0 ** (x / 10.0)


def ks_statistic(samples, cdf_values):
    """Two-sided Kolmogorov-Smirnov distance for pre-sorted samples."""
    n = len(samples)
    F = np.asarray(cdf_values)
    i = np.arange(n)
    return float(np.max(np.maximum(F - i / n, (i + 1) / n - F)))


def gamma_gamma_pointing_pdf(g, b1, b2, eps, s, U):
    """Independent oracle: Gamma-Gamma irradiance with pointing error,
    composed by direct quadrature of the product density."""
    e2 = eps * eps

    def f_ia(x):
        if x <= 0:
            return 0.0
        return (2.0 * (b1 * b2) ** ((b1 + b2) / 2)
                * x ** ((b1 + b2) / 2 - 1.0)
                * kv(b1 - b2, 2.0 * math.sqrt(b1 * b2 * x))
                / (math.gamma(b1) * math.gamma(b2)))

    def f_i(y):
        val, _ = quad(lambda u: u ** (e2 - 2.0) * f_ia(y / u), 0.0, 1.0,
                      limit=200, epsabs=1e-13, epsrel=1e-12)
        return e2 * val

    c = e2 / (e2 + 1.0)  # E[I] for unit-mean Gamma-Gamma
    i_of_g = c * (g / U) ** (1.0 / s)
    di_dg = c * (g / U) ** (1.0 / s - 1.0) / (s * U)
    return f_i(i_of_g) * di_dg


def paper_dgg_form(link):
    """The paper's Meijer G-form of a DGG link's laws, the reference for the
    link's own Mellin-Barnes integrands:

        pdf(g) = exp(B1)/(s g) G^{m,0}_{1,m}(x_pdf | j2; j1),
        CDF(g) = exp(B3) G^{k,1}_{s+1,k+1}(x_cdf | 1, j3; j4, 0),
        survival(g) = exp(B3) G^{k+1,0}_{s+1,k+1}(x_cdf | j3, 1; j4, 0),

    ln x_pdf = ln_pdf_argument(g) and ln x_cdf = ln_cdf_argument(g),

    m = 1 + lambda1 + lambda2 and k = s*m the lengths of the expanded
    vectors j1 = [eps^2/tau] + psi, psi the ladders Delta(lambda2, b1) and
    Delta(lambda1, b2), j4 = Delta(s, j1), j2 = 1 + eps^2/tau and j3 =
    Delta(s, j2); the constants are kept as logs, with B2 t^tau in place of
    B2 (the omega scales cancel from it)."""
    s, tau, e2 = link.s, link.tau, link.eps**2
    lam1, lam2, b1, b2 = link.lambda1, link.lambda2, link.b1, link.b2
    psi = delta_expand(lam2, b1) + delta_expand(lam1, b2)
    j1, j2 = [e2 / tau] + psi, 1.0 + e2 / tau
    log_zeta = sum(math.lgamma(1.0 / tau + x) for x in psi)
    log_B1 = (math.log(e2) + (b1 - 0.5) * math.log(lam2)
              + (b2 - 0.5) * math.log(lam1)
              + (1.0 - (lam1 + lam2) / 2.0) * math.log(2.0 * math.pi)
              - math.lgamma(b1) - math.lgamma(b2))
    log_B2t_tau = tau * (log_B1 + log_zeta - math.log(1.0 + e2))
    log_B3 = (math.log(e2) + (b1 - 0.5) * math.log(lam2)
              + (b2 - 0.5) * math.log(lam1)
              + (1.0 - s * (lam1 + lam2) / 2.0) * math.log(2.0 * math.pi)
              + (b1 + b2 - 2.0) * math.log(s)
              - math.log(tau) - math.lgamma(b1) - math.lgamma(b2))
    log_B4 = s * (log_B2t_tau - (lam1 + lam2) * math.log(s))
    lnU = math.log(link.electrical_snr)
    return SimpleNamespace(
        j1=j1, j2=j2, j3=delta_expand(s, j2), j4=delta_expand_list(s, j1),
        log_B1=log_B1, log_B2t_tau=log_B2t_tau, log_B3=log_B3, log_B4=log_B4,
        ln_pdf_argument=lambda g: log_B2t_tau + (tau / s) * (np.log(g) - lnU),
        ln_cdf_argument=lambda g: log_B4 + tau * (np.log(g) - lnU))


def gaussian_eta_mu_sample(link, rng, n):
    """The eta-mu sampler as it drew before its split into standard draws
    and a per-link map, frozen as the reference for its bytes: the physical
    Gaussian construction, per chunk of at most 2^20 rows a gen.normal
    block of 2mu in-phase columns with variance eta*c, then one of 2mu
    quadrature columns with variance c, squared and summed by rows."""
    gen = rng.generator
    c = link.avg_snr / (2.0 * link.mu * (1.0 + link.eta))
    out = np.empty(n)
    done = 0
    while done < n:
        m = min(n - done, 1 << 20)
        P = gen.normal(0.0, math.sqrt(link.eta * c), size=(m, 2 * link.mu))
        Q = gen.normal(0.0, math.sqrt(c), size=(m, 2 * link.mu))
        out[done:done + m] = (P * P).sum(axis=1) + (Q * Q).sum(axis=1)
        done += m
    return out


def product_dgg_sample(link, rng, n):
    """The physical DGG sampler as it drew before the split, frozen as the
    reference for its bytes: gen.gamma(b, 1/b)^(1/a) for each irradiance
    factor, then gen.uniform()^(1/eps^2) for the pointing factor."""
    gen = rng.generator
    Ix = gen.gamma(link.b1, 1.0 / link.b1, size=n) ** (1.0 / link.a1)
    Iy = gen.gamma(link.b2, 1.0 / link.b2, size=n) ** (1.0 / link.a2)
    Ip = gen.uniform(size=n) ** (1.0 / link.eps**2)
    return (link.electrical_snr
            * (Ix * Iy * Ip / link.sampler_scale()) ** link.s)


def uniform_inverse_cdf_sample(link, rng, n):
    """The inverse-CDF sampler's draw as it was before the split,
    gen.uniform(), through the sampler's own CDF table."""
    return channels._inverse_cdf_snr(link, rng.generator.uniform(size=n))


@pytest.fixture(scope="session")
def wt_link():
    return dgg_from_preset("wt", eps=1.0, detection=1, electrical_snr=db(20))


@pytest.fixture(scope="session")
def st_link():
    return dgg_from_preset("st", eps=1.0, detection=1, electrical_snr=db(20))


@pytest.fixture(scope="session")
def mt_link_imdd():
    return dgg_from_preset("mt", eps=1.0, detection=2, electrical_snr=db(20))


@pytest.fixture(scope="session")
def fig3_cfg(wt_link):
    """Scenario-1 reference configuration (WT / heterodyne), U_d = 20 dB."""
    return Scenario1Config(rf_main=EtaMuLink(50.0, 3, db(10)),
                           rf_eve=EtaMuLink(50.0, 3, db(0)),
                           fso_main=wt_link, target_rate=0.5)


@pytest.fixture(scope="session")
def fig5_cfg(st_link):
    """Scenario-2 reference configuration (ST / heterodyne), U_d = 20 dB."""
    return Scenario2Config(
        rf_main=EtaMuLink(5.0, 1, db(12)),
        fso_main=st_link,
        fso_eve=dgg_from_preset("st", eps=1.0, detection=1,
                                electrical_snr=db(-10)),
        target_rate=0.5)
