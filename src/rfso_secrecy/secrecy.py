"""Closed-form secrecy metrics, their asymptotics, and quadrature oracles.

Scenario 1: the eavesdropper taps the RF hop; the legitimate SNR is the DF
minimum of both hops.  Scenario 2: the first hop is secure and the
eavesdropper taps the FSO hop through an identically shaped DGG channel.

Every closed form here is a finite sum of Mellin-Barnes integrals.  The
integrals whose kernels mix the RF exponential decay with the FSO
G-function carry one gamma factor of non-unit slope Gamma(z - tau*v): the
Laplace transform of a G-function in gamma^tau only collapses to a plain
Meijer G when tau = 1, so the slope-tau kernel is evaluated directly.  (It
reduces exactly to the plain-G expression for the Gamma-Gamma special cases,
where tau = 1.)  Each metric has an independent quadrature oracle in this
module and a Monte Carlo oracle in :mod:`rfso_secrecy.montecarlo`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import exp, fsum, lgamma, log

import numpy as np
from scipy.integrate import quad

from .channels import DggLink, EtaMuLink, dgg_cdf, dgg_pdf, eta_mu_pdf
from .dualhop import DualHopChannel, min_combine_cdf
from .errors import AccuracyError, ClampExcessWarning, ParameterError
from .specfun import (EvalOptions, MellinBarnesIntegral, TIGHT_OPTIONS,
                      integer_spaced_ladders)

__all__ = [
    "Scenario1Config",
    "Scenario2Config",
    "sop1_lower",
    "sop1_asymptotic",
    "sop1_exact_quadrature",
    "sop2_lower",
    "sop2_asymptotic",
    "sop2_exact_quadrature",
    "spsc1",
    "spsc2",
]

# Metrics outside [0,1] by more than this raise a ClampExcessWarning; the
# test suite fails on any excess beyond 1e-6.  A closed-form sum whose own
# rounding bound exceeds it raises AccuracyError instead.
_CLAMP_FLAG = 1e-9
_EPS = 2.0**-53


@dataclass(frozen=True)
class Scenario1Config:
    """Main RF + FSO links, RF eavesdropper, target secrecy rate (bits/s/Hz)."""

    rf_main: EtaMuLink
    rf_eve: EtaMuLink
    fso_main: DggLink
    target_rate: float = 0.5

    def __post_init__(self):
        if self.target_rate < 0:
            raise ParameterError("target_rate must be >= 0")

    @property
    def phi1(self) -> float:
        return 2.0 ** self.target_rate


@dataclass(frozen=True)
class Scenario2Config:
    """Main RF + FSO links, FSO eavesdropper sharing the main link's DGG
    shape (detection type and electrical SNR may differ)."""

    rf_main: EtaMuLink
    fso_main: DggLink
    fso_eve: DggLink
    target_rate: float = 0.5

    def __post_init__(self):
        if self.target_rate < 0:
            raise ParameterError("target_rate must be >= 0")
        if self.fso_main.shape_key() != self.fso_eve.shape_key():
            raise ParameterError(
                "fso_main and fso_eve must share all DGG shape parameters "
                "(a, b, omega, lambda, eps); only detection and electrical "
                "SNR may differ")

    @property
    def phi2(self) -> float:
        return 2.0 ** (2.0 * self.target_rate)


def _clamp_unit(x: float, label: str, rounding_bound: float = 0.0) -> float:
    """Clamp x to [0, 1].  rounding_bound bounds the rounding error of the
    sum that produced x; past _CLAMP_FLAG x is not a usable probability
    (the two-branch coefficients of an eta-mu link near eta = 1 cancel)."""
    if rounding_bound > _CLAMP_FLAG:
        raise AccuracyError(
            f"{label}: the rounding bound of the eta-mu two-branch sum "
            f"exceeds {_CLAMP_FLAG:g} (eta too close to 1 for this closed "
            "form)", best_estimate=x, error_bound=rounding_bound)
    excess = max(0.0 - x, x - 1.0, 0.0)
    if excess > _CLAMP_FLAG:
        warnings.warn(f"{label} clamped to [0,1]; excess {excess:.3e}",
                      ClampExcessWarning, stacklevel=3)
    return min(1.0, max(0.0, x))


# ---------------------------------------------------------------------------
# scenario 1
# ---------------------------------------------------------------------------

def _sop1_terms(cfg: Scenario1Config, fso_tail):
    """Shared assembly for the scenario-1 outage sum: returns the unclamped
    sum and the bound 2^-53 * |A_0 A_e| * sum|terms| on its rounding error.

    fso_tail(count, ln_w_array) must return the values of the size-(4,) FSO
    integral block for each (N0, Ne) pair at z1 = 1..count, shape (count, 4):
    either the full slope-tau kernel (lower bound) or its leading residues
    (asymptote).
    """
    rf0, rfe, fso = cfg.rf_main, cfg.rf_eve, cfg.fso_main
    phi1 = cfg.phi1
    lnphi = log(phi1)
    tau = fso.tau
    B3 = exp(fso.log_B3)
    pairs = [(N0, Ne) for N0 in (1, 2) for Ne in (1, 2)]
    F = {pair: phi1 * rf0.decay[pair[0]] + rfe.decay[pair[1]]
         for pair in pairs}

    ln_w = np.array([fso.log_B4 + tau * (lnphi - log(fso.electrical_snr)
                                         - log(F[p])) for p in pairs])
    g_cache = {}
    for z1, vals in enumerate(fso_tail(rf0.mu + rfe.mu - 1, ln_w), start=1):
        for p, v in zip(pairs, vals):
            g_cache[(z1, p)] = float(v)

    terms = []
    for N0, Ne in pairs:
        for v in range(rf0.mu):
            for w in range(rfe.mu):
                for x in range(rf0.mu - v):
                    z1 = rfe.mu - w + x
                    Fp = F[(N0, Ne)]
                    coeff = ((rf0.decay[N0] * phi1) ** x / exp(lgamma(x + 1))
                             * rfe.X[(Ne, w)] * rf0.Y[(N0, v)] / Fp ** z1)
                    inner = exp(lgamma(z1)) - B3 * g_cache[(z1, (N0, Ne))]
                    terms.append(coeff * inner)
    scale = rf0.coeff_A * rfe.coeff_A
    return (1.0 - scale * fsum(terms),
            _EPS * abs(scale) * fsum(abs(t) for t in terms))


def _sop1_tail(fso: DggLink, z1: int, j4_ladders) -> MellinBarnesIntegral:
    """The FSO block of the scenario-1 outage sum: the survival kernel
    against the Laplace kernel Gamma(z1 - tau*v)."""
    return MellinBarnesIntegral.from_ladders(
        j4_ladders + [(1, 0.0, -1.0), (1, float(z1), -fso.tau)],
        [(1, 1.0, -1.0)] + fso.j3_ladders)


def _leading_residues(make, ladders, ln_w, tol):
    """Sum of the residues of make(ladders) at the first p poles of each of
    its leading numerator factors, the ladders (p, q) in order: the leading
    pole of every ladder entry.

    Ladders with an entry an integer away from an earlier ladder's (a double
    pole) have every entry moved by +1e-6 and by -1e-6, and the two sums are
    averaged.
    """
    bad = integer_spaced_ladders(ladders, tol)
    if bad:
        warnings.warn("integer-spaced residue parameters; perturbing by 1e-6",
                      ClampExcessWarning, stacklevel=3)
    total = 0.0
    shifts = (1e-6, -1e-6) if bad else (0.0,)
    for d in shifts:
        moved = [(p, q + d * p if i in bad else q)
                 for i, (p, q) in enumerate(ladders)]
        mb = make(moved)
        total += sum(mb.residue(i, k, ln_w)
                     for i, (p, _) in enumerate(moved) for k in range(p))
    return total / len(shifts)


def sop1_lower(cfg: Scenario1Config,
               options: EvalOptions = TIGHT_OPTIONS) -> float:
    """Lower-bound secure outage probability for the RF-side eavesdropper."""
    fso = cfg.fso_main

    def tail(count, ln_w):
        # the Gamma(z1 - tau*v) family z1 = 1..count on one contour
        return _sop1_tail(fso, 1, fso.j4_ladders).value_many(
            ln_w, options, count=count).reshape(count, -1)

    value, bound = _sop1_terms(cfg, tail)
    return _clamp_unit(value, "sop1_lower", bound)


def sop1_asymptotic(cfg: Scenario1Config,
                    options: EvalOptions = TIGHT_OPTIONS) -> float:
    """High-electrical-SNR asymptote: leading residue of each FSO block.

    The residue at the smallest lower parameter dominates, so the distance
    to the outage floor falls off like U_d^(-tau*min(j4)).
    """
    fso = cfg.fso_main

    def tail(count, ln_w):
        return [_leading_residues(lambda lad: _sop1_tail(fso, z1, lad),
                                  fso.j4_ladders, ln_w,
                                  options.pole_separation_tol)
                for z1 in range(1, count + 1)]

    value, bound = _sop1_terms(cfg, tail)
    return _clamp_unit(value, "sop1_asymptotic", bound)


def sop1_exact_quadrature(cfg: Scenario1Config, abs_tol: float = 1e-7) -> float:
    """Exact outage probability by adaptive quadrature of
    int F_d(phi1*g + phi1 - 1) f_re(g) dg; the closed form bounds it below."""
    phi1 = cfg.phi1
    shift = phi1 - 1.0
    channel = DualHopChannel(cfg.rf_main, cfg.fso_main)

    def integrand(g):
        return (min_combine_cdf(channel, phi1 * g + shift)
                * float(eta_mu_pdf(cfg.rf_eve, g)))

    val, err = quad(integrand, 0.0, np.inf, limit=300,
                    epsabs=abs_tol * 1e-2, epsrel=1e-9)
    if err > abs_tol:
        raise AccuracyError("outage quadrature did not reach tolerance",
                            best_estimate=val, error_bound=err)
    return _clamp_unit(val, "sop1_exact_quadrature")


def _spsc1_survival(fso: DggLink, z: int) -> MellinBarnesIntegral:
    """The survival block of spsc1, int g^(z-1) e^(-lam g) (1 - F_fso)(g) dg
    without the lam^-z: the survival kernel against Gamma(z - tau*v)."""
    return MellinBarnesIntegral.from_ladders(
        fso.j4_ladders + [(1, 0.0), (1, float(z), -fso.tau)],
        [(1, 1.0)] + fso.j3_ladders)


def _spsc1_density(fso: DggLink, z: int) -> MellinBarnesIntegral:
    """The density block of spsc1, int g^(z-1) e^(-lam g) f_fso-kernel(g) dg
    without the lam^-z: the density kernel against Gamma(z - tau*v/s)."""
    return MellinBarnesIntegral.from_ladders(
        fso.j1_ladders + [(1, float(z), -fso.tau / fso.s)], [(1, fso.j2)])


def spsc1(cfg: Scenario1Config, options: EvalOptions = TIGHT_OPTIONS) -> float:
    """Probability of strictly positive secrecy capacity, RF eavesdropper:
    Pr(min-combined SNR > eavesdropper SNR)."""
    rf0, rfe, fso = cfg.rf_main, cfg.rf_eve, cfg.fso_main
    tau, s = fso.tau, fso.s
    B3 = exp(fso.log_B3)
    B1s = exp(fso.log_B1) / s
    lnU = log(fso.electrical_snr)

    lam_single = {N0: rf0.decay[N0] for N0 in (1, 2)}
    lam_pair = {(N0, Ne): rf0.decay[N0] + rfe.decay[Ne]
                for N0 in (1, 2) for Ne in (1, 2)}

    def survival_blocks(count, lams):
        """{z: survival block at each lam}, z = 1..count: one family."""
        ln_w = np.array([fso.log_B4 - tau * lnU - tau * log(l) for l in lams])
        vals = _spsc1_survival(fso, 1).value_many(ln_w, options, count=count)
        return dict(enumerate(B3 * vals.reshape(count, -1), start=1))

    def density_blocks(count, lams):
        """{z: density block at each lam}, z = 0..count-1: one family."""
        ln_w = np.array([fso.log_B2t_tau - (tau / s) * (lnU + log(l))
                         for l in lams])
        vals = _spsc1_density(fso, 0).value_many(ln_w, options, count=count)
        return dict(enumerate(B1s * vals.reshape(count, -1)))

    lams1 = [lam_single[1], lam_single[2]]
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    lams2 = [lam_pair[p] for p in pairs]

    R1 = survival_blocks(rf0.mu, lams1)
    R2 = density_blocks(rf0.mu, lams1)
    R3 = survival_blocks(rf0.mu + rfe.mu - 1, lams2)
    R4 = density_blocks(rf0.mu + rfe.mu - 1, lams2)

    terms = []
    for i0, N0 in enumerate((1, 2)):
        l0 = rf0.decay[N0]
        for v in range(rf0.mu):
            z2 = rf0.mu - v
            terms.append(rf0.X[(N0, v)] * R1[z2][i0] / l0**z2)
            for x in range(rf0.mu - v):
                terms.append(l0**x / exp(lgamma(x + 1)) * rf0.Y[(N0, v)]
                             * R2[x][i0] / l0**x)
            for ie, (Np, Ne) in enumerate(pairs):
                if Np != N0:
                    continue
                H = lam_pair[(N0, Ne)]
                le = rfe.decay[Ne]
                for w in range(rfe.mu):
                    for y in range(rfe.mu - w):
                        z3 = z2 + y
                        outer = (-rfe.coeff_A * le**y / exp(lgamma(y + 1))
                                 * rfe.Y[(Ne, w)])
                        terms.append(outer * rf0.X[(N0, v)]
                                     * R3[z3][ie] / H**z3)
                        for x in range(rf0.mu - v):
                            z4 = x + y
                            terms.append(outer * l0**x / exp(lgamma(x + 1))
                                         * rf0.Y[(N0, v)] * R4[z4][ie] / H**z4)
    return _clamp_unit(rf0.coeff_A * fsum(terms), "spsc1",
                       _EPS * abs(rf0.coeff_A) * fsum(abs(t) for t in terms))


# ---------------------------------------------------------------------------
# scenario 2
# ---------------------------------------------------------------------------

def _crossing(cfg: Scenario2Config, main_j4_ladders) -> MellinBarnesIntegral:
    """Integrand of Pr(main FSO SNR <= phi * eavesdropper FSO SNR): the
    eavesdropper's survival kernel against the main link's CDF kernel,
    whose ladders enter with slope -1 (the main j4 ladders lead)."""
    main, eve = cfg.fso_main, cfg.fso_eve
    return MellinBarnesIntegral.from_ladders(
        [(p, q, -1.0) for p, q in main_j4_ladders] + eve.j4_ladders
        + [(1, 0.0)],
        [(1, 1.0)] + eve.j3_ladders
        + [(p, q, -1.0) for p, q in main.j3_ladders])


def _crossing_ln_z(cfg: Scenario2Config, phi: float) -> float:
    main, eve = cfg.fso_main, cfg.fso_eve
    return (eve.log_B4 - main.log_B4
            + main.tau * (log(main.electrical_snr)
                          - log(eve.electrical_snr) - log(phi)))


def _fso_crossing_integral(cfg: Scenario2Config, phi: float,
                           options: EvalOptions) -> float:
    """Pr(main FSO SNR <= phi * eavesdropper FSO SNR) as one G-value."""
    main, eve = cfg.fso_main, cfg.fso_eve
    mb = _crossing(cfg, main.j4_ladders)
    return (exp(main.log_B3 + eve.log_B3)
            * mb.value(_crossing_ln_z(cfg, phi), options))


def sop2_lower(cfg: Scenario2Config,
               options: EvalOptions = TIGHT_OPTIONS) -> float:
    """Lower-bound secure outage probability for the FSO-side eavesdropper."""
    phi2 = cfg.phi2
    rf_ok = float(cfg.rf_main.survival(phi2 - 1.0))
    fso_ok = 1.0 - _fso_crossing_integral(cfg, phi2, options)
    return _clamp_unit(1.0 - rf_ok * fso_ok, "sop2_lower")


def sop2_asymptotic(cfg: Scenario2Config,
                    options: EvalOptions = TIGHT_OPTIONS) -> float:
    """High-U_d asymptote: large-argument expansion of the crossing
    G-function over the leading poles of the main link's ladders (right
    poles, so the integral is minus their residue sum)."""
    main, eve = cfg.fso_main, cfg.fso_eve
    phi2 = cfg.phi2
    S = -_leading_residues(lambda lad: _crossing(cfg, lad), main.j4_ladders,
                           _crossing_ln_z(cfg, phi2),
                           options.pole_separation_tol)
    crossing = exp(main.log_B3 + eve.log_B3) * float(S)
    rf_ok = float(cfg.rf_main.survival(phi2 - 1.0))
    return _clamp_unit(1.0 - rf_ok * (1.0 - crossing), "sop2_asymptotic")


def sop2_exact_quadrature(cfg: Scenario2Config, abs_tol: float = 1e-7) -> float:
    """Exact outage probability for scenario 2 by adaptive quadrature."""
    phi2 = cfg.phi2
    shift = phi2 - 1.0
    rf_fail = 1.0 - float(cfg.rf_main.survival(shift))

    def integrand(g):
        return (float(dgg_cdf(cfg.fso_main, phi2 * g + shift))
                * float(dgg_pdf(cfg.fso_eve, g)))

    val, err = quad(integrand, 0.0, np.inf, limit=300,
                    epsabs=abs_tol * 1e-2, epsrel=1e-9)
    if err > abs_tol:
        raise AccuracyError("outage quadrature did not reach tolerance",
                            best_estimate=val, error_bound=err)
    return _clamp_unit(val * (1.0 - rf_fail) + rf_fail, "sop2_exact_quadrature")


def spsc2(cfg: Scenario2Config, options: EvalOptions = TIGHT_OPTIONS) -> float:
    """Probability of strictly positive secrecy capacity, FSO eavesdropper:
    Pr(main FSO SNR > eavesdropper FSO SNR)."""
    return _clamp_unit(1.0 - _fso_crossing_integral(cfg, 1.0, options),
                       "spsc2")
