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
from math import exp, fsum, log

import numpy as np
from scipy.special import gammaln, xlogy

from .channels import DggLink, EtaMuLink, dgg_cdf, dgg_pdf, eta_mu_pdf
from .dualhop import DualHopChannel, min_combine_cdf
from .errors import AccuracyError, ClampExcessWarning, ParameterError
from .specfun import EvalOptions, MellinBarnesIntegral, TIGHT_OPTIONS

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

# The Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK qk15i, Piessens et al.
# 1983): the 15 Kronrod nodes, their weights, and the 7-point Gauss weights
# at the nodes the two rules share (0 elsewhere).
_GK_X = np.array([0.991455371120812639206854697526329,
                  0.949107912342758524526189684047851,
                  0.864864423359769072789712788640926,
                  0.741531185599394439863864773280788,
                  0.586087235467691130294144845693013,
                  0.405845151377397166906606412076961,
                  0.207784955007898467600689403773245])
_GK_X = np.concatenate([-_GK_X, [0.0], _GK_X[::-1]])
_GK_WK = np.array([0.022935322010529224963732008058970,
                   0.063092092629978553290700663189204,
                   0.104790010322250183839876322541518,
                   0.140653259715525918745189590510238,
                   0.169004726639267902826583426598550,
                   0.190350578064785409913256402421014,
                   0.204432940075298892414161999234649])
_GK_WK = np.concatenate([_GK_WK, [0.209482141084727828012999174891714],
                         _GK_WK[::-1]])
_GK_WG = np.array([0.0, 0.129484966168869693270611432679082,
                   0.0, 0.279705391489276667901467771423780,
                   0.0, 0.381830050505118944950369775488975, 0.0])
_GK_WG = np.concatenate([_GK_WG, [0.417959183673469387755102040816327],
                         _GK_WG[::-1]])
# Subinterval budget of the oracles' quadrature (QUADPACK's limit).
_QUAD_LIMIT = 300


@dataclass(frozen=True)
class Scenario1Config:
    """Main RF + FSO links, RF eavesdropper, target secrecy rate (bits/s/Hz)."""

    rf_main: EtaMuLink
    rf_eve: EtaMuLink
    fso_main: DggLink
    target_rate: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.target_rate < np.inf:
            raise ParameterError("target_rate must be finite and >= 0")

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
        if not 0.0 <= self.target_rate < np.inf:
            raise ParameterError("target_rate must be finite and >= 0")
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
    (the sum's terms cancel beyond what double precision carries)."""
    if rounding_bound > _CLAMP_FLAG:
        raise AccuracyError(
            f"{label}: the rounding bound of the closed-form sum exceeds "
            f"{_CLAMP_FLAG:g} (its terms cancel)",
            best_estimate=x, error_bound=rounding_bound)
    excess = max(0.0 - x, x - 1.0, 0.0)
    if excess > _CLAMP_FLAG:
        warnings.warn(f"{label} clamped to [0,1]; excess {excess:.3e}",
                      ClampExcessWarning, stacklevel=3)
    return min(1.0, max(0.0, x))


def _gk15(f, a, b):
    """The 7/15 rule on each t-interval [a, b] of [0, 1] for int_0^inf f(g)
    dg under g = t/(1 - t): one call f(g) at the 15 nodes of every
    interval.  That is QUADPACK's map (1 - t)/t with t -> 1 - t, so the
    nodes next to g = 0, where the DGG densities are singular, keep their
    full relative precision.  Returns the Kronrod values and QUADPACK's
    error estimates (the Kronrod-Gauss difference, scaled by the
    integrand's variation and floored at 50 ulp of its magnitude)."""
    h = 0.5 * (b - a)
    t = (0.5 * (a + b))[:, None] + h[:, None] * _GK_X
    y = f((t / (1.0 - t)).ravel()).reshape(t.shape) / (1.0 - t)**2
    resk = y @ _GK_WK
    resabs = np.abs(y) @ _GK_WK * h
    resasc = np.abs(y - 0.5 * resk[:, None]) @ _GK_WK * h
    err = np.abs(resk - y @ _GK_WG) * h
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where((resasc != 0) & (err != 0),
                       resasc * np.minimum(1.0, (200.0 * err / resasc)**1.5),
                       err)
    return resk * h, np.maximum(err, 50.0 * np.finfo(float).eps * resabs)


def _epsilon(s) -> float:
    """Wynn's epsilon algorithm on the sequence s (QUADPACK's extrapolation,
    Wynn 1956): the last entry of the highest even column of its table,
    which is exact on a constant plus up to len(s)//2 geometric terms."""
    prev, cur = np.zeros(len(s) + 1), np.asarray(s, dtype=float)
    best = cur[-1]
    for column in range(1, len(s)):
        d = np.diff(cur)
        if not d.all():
            break
        prev, cur = cur, prev[1:cur.size] + 1.0 / d
        if column % 2 == 0:
            best = cur[-1]
    return float(best)


def _integrate(f, abs_tol: float) -> float:
    """int_0^inf f(g) dg for a vectorised f, globally adaptive to the
    tolerance max(abs_tol/100, 1e-9 |I|) in at most _QUAD_LIMIT intervals.
    Each pass bisects the intervals that carry the most error, the fewest
    that leave the others' errors within an eighth of the tolerance (the
    rule of scipy's quad_vec), and evaluates all their nodes in one call.

    An integrable singularity at g = 0 (a DGG density ~ g^(k/s - 1))
    leaves the error in the interval at t = 0 alone, and bisection only
    shrinks it by 2^(1 - k/s) a pass.  While passes bisect that interval
    alone, their totals go through _epsilon, as QUADPACK's qagi does; the
    extrapolation's error is the spread of its last four results plus the
    error of the other intervals.  Raises AccuracyError when the smaller
    error estimate ends above abs_tol."""
    a, b = np.zeros(1), np.ones(1)
    val, err = _gk15(f, a, b)
    totals, extrapolated = [], []
    best = (np.inf, np.nan)
    while True:
        total, bound = fsum(val), fsum(err)
        best = min(best, (bound, total))
        tol = max(abs_tol * 1e-2, 1e-9 * abs(total))
        if best[0] <= tol or val.size >= _QUAD_LIMIT:
            break
        order = np.argsort(-err, kind="stable")
        rest = np.append(np.cumsum(err[order][::-1])[::-1], 0.0)
        k = min(max(1, int(np.argmax(rest <= 0.125 * tol))),
                _QUAD_LIMIT - val.size)
        split, keep = order[:k], order[k:]
        if k == 1 and a[split[0]] == 0.0:
            totals.append(total)
            extrapolated.append(_epsilon(totals[-50:]))
            if len(extrapolated) >= 4:
                r = extrapolated[-1]
                spread = sum(abs(r - x) for x in extrapolated[-4:-1])
                best = min(best, (spread + bound - err[split[0]], r))
        else:
            totals, extrapolated = [], []
        mid = 0.5 * (a[split] + b[split])
        a = np.concatenate([a[keep], a[split], mid])
        b = np.concatenate([b[keep], mid, b[split]])
        new_val, new_err = _gk15(f, a[keep.size:], b[keep.size:])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
    bound, total = best
    if not bound <= abs_tol:
        raise AccuracyError("outage quadrature did not reach tolerance",
                            best_estimate=total, error_bound=bound)
    return total


# ---------------------------------------------------------------------------
# scenario 1
# ---------------------------------------------------------------------------

def _poisson_grid(link: EtaMuLink):
    """The link's Gamma terms (w, n, lam) as Poisson kernels
    Pois(x; lam g) = (lam g)^x e^(-lam g) / x!, x = n - 1:

        pdf(g) = sum w lam Pois(x; lam g),  survival(g) = sum W Pois(x; lam g),

    W the weight of the shapes above x at the same rate (at each rate the
    shapes run 1..N).  Returns (lam, x, w, W)."""
    w, n, lam = link.terms
    W = ((lam == lam[:, None]) & (n >= n[:, None])) @ w
    return lam, n - 1, w, W


def _pairs(x, alpha, y, beta):
    """Pois(x; alpha g) Pois(y; beta g) = c Pois(x + y; H g), H = alpha +
    beta, for the main grid (x, alpha) against the eavesdropper grid (y,
    beta): returns c, H and x + y, each of shape (x.size, y.size)."""
    x, alpha = x[:, None], alpha[:, None]
    H = alpha + beta
    log_c = (gammaln(x + y + 1) - gammaln(x + 1) - gammaln(y + 1)
             + xlogy(x, alpha / H) + xlogy(y, beta / H))
    return np.exp(log_c), H, x + y


def _family_at(family, ln_w, H, p):
    """Member p of a Laplace-kernel family at the rate H, for each pair.

    family(count, ln_w(rates)) evaluates members 0..count-1 at distinct
    rates, shape (count, rates.size); it runs once per distinct member
    count the rates need, so rates that need few members pay for few."""
    rates, at = np.unique(H, return_inverse=True)
    at = at.reshape(H.shape)
    count = np.zeros(rates.size, dtype=int)
    np.maximum.at(count, at, p + 1)
    values = np.empty((count.max(), rates.size))
    for K in np.unique(count):
        sel = count == K
        values[:K, sel] = np.reshape(family(K, ln_w(rates[sel])), (K, -1))
    return values[p, at]


def _sop1_terms(cfg: Scenario1Config, fso_tail):
    """Shared assembly for the scenario-1 outage sum: returns the unclamped
    sum and the bound 2^-53 * sum|terms| on its rounding error.

    1 - SOP1 = int f_e(g) S_0(phi g) S_d(phi g) dg is one sum over pairs of
    a main survival kernel and an eavesdropper density kernel, each pair a
    Gamma(p + 1, rate F) average of S_d(phi g), F = phi lam_0 + lam_e.
    That average is 1 - B3 (p + 1) T_p, and fso_tail(count, ln_w) must
    return T_p = _sop1_tail(fso, p + 1) for p < count at each ln_w,
    shape (count, ln_w.size): either the full slope-tau kernel (lower
    bound) or its leading residues (asymptote).
    """
    fso, phi1 = cfg.fso_main, cfg.phi1
    lam0, x0, _, W0 = _poisson_grid(cfg.rf_main)
    lame, xe, we, _ = _poisson_grid(cfg.rf_eve)
    c, F, p = _pairs(x0, phi1 * lam0, xe, lame)
    tail = _family_at(fso_tail, lambda rate: fso.log_B4 + fso.tau * (
        log(phi1) - log(fso.electrical_snr) - np.log(rate)), F, p)
    terms = ((W0[:, None] * we * c * lame / F)
             * (1.0 - exp(fso.log_B3) * (p + 1) * tail)).ravel()
    return 1.0 - fsum(terms), _EPS * fsum(np.abs(terms))


def _sop1_tail(fso: DggLink, z1: int) -> MellinBarnesIntegral:
    """The FSO block of the scenario-1 outage sum: the CDF kernel against
    the Laplace kernel Gamma(z1 - tau*v) / z1!.  Every Laplace kernel here
    comes divided by z!, as the members of the engine's families do, which
    keeps blocks of any z in double range."""
    return MellinBarnesIntegral.from_ladders(
        fso.j4_ladders + [(1, 0.0, -1.0), (1, 0.0, -fso.tau)],
        [(1, 1.0, -1.0)] + fso.j3_ladders)._member(z1)


def _distinct(values, tol: float) -> np.ndarray:
    """The values, in order, without those within tol of an earlier one."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    keep = np.diff(values[order], prepend=-np.inf) > tol
    return values[np.sort(order[keep])]


def _leading_residues(mb: MellinBarnesIntegral, ladders, ln_w, tol):
    """Sum of the residues of mb at the leading pole of every entry of the
    ladders (p, q) that lead its numerator: the first p poles -(a + k)/b of
    each leading factor Gamma(a + b*v), every distinct pole once (entries an
    integer apart from an earlier ladder's make a double pole)."""
    poles = np.concatenate([
        -(a + np.arange(p)) / b for (p, _), (a, b) in zip(ladders, mb.numer)])
    return mb.residue(_distinct(poles, tol), ln_w, tol).sum(axis=0)


def sop1_lower(cfg: Scenario1Config,
               options: EvalOptions = TIGHT_OPTIONS) -> float:
    """Lower-bound secure outage probability for the RF-side eavesdropper."""
    fso = cfg.fso_main

    def tail(count, ln_w):
        # the Gamma(z1 - tau*v) family z1 = 1..count on shared contours
        return _sop1_tail(fso, 1).value_many(ln_w, options, count=count)

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
        mb = _sop1_tail(fso, 0)
        return [_leading_residues(mb._member(z1), fso.j4_ladders, ln_w,
                                  options.pole_separation_tol)
                for z1 in range(1, count + 1)]

    value, bound = _sop1_terms(cfg, tail)
    return _clamp_unit(value, "sop1_asymptotic", bound)


def sop1_exact_quadrature(cfg: Scenario1Config, abs_tol: float = 1e-7) -> float:
    """Exact outage probability by adaptive quadrature of
    int F_d(phi1*g + phi1 - 1) f_re(g) dg; the closed form bounds it below.

    A globally adaptive Gauss-Kronrod 7/15 rule over (0, inf) (see
    _integrate) evaluates the integrand at all the nodes of one refinement
    pass together, aims at max(abs_tol/100, 1e-9 * value), and raises
    AccuracyError when its error estimate ends above abs_tol.  The eta-mu
    density comes first: where it is 0 the DGG term is not evaluated."""
    phi1 = cfg.phi1
    shift = phi1 - 1.0
    channel = DualHopChannel(cfg.rf_main, cfg.fso_main)

    def integrand(g):
        out = eta_mu_pdf(cfg.rf_eve, g)
        live = out != 0.0
        if np.any(live):
            out[live] *= min_combine_cdf(channel, phi1 * g[live] + shift)
        return out

    return _clamp_unit(_integrate(integrand, abs_tol),
                       "sop1_exact_quadrature")


def _spsc1_survival(fso: DggLink, z: int) -> MellinBarnesIntegral:
    """The survival block of spsc1, int g^(z-1) e^(-lam g) (1 - F_fso)(g) dg
    without the lam^-z and divided by z!: the survival kernel against
    Gamma(z - tau*v) / z!."""
    return MellinBarnesIntegral.from_ladders(
        fso.j4_ladders + [(1, 0.0), (1, 0.0, -fso.tau)],
        [(1, 1.0)] + fso.j3_ladders)._member(z)


def _spsc1_density(fso: DggLink, z: int) -> MellinBarnesIntegral:
    """The density block of spsc1, int g^(z-1) e^(-lam g) f_fso-kernel(g) dg
    without the lam^-z and divided by z!: the density kernel against
    Gamma(z - tau*v/s) / z!."""
    return MellinBarnesIntegral.from_ladders(
        fso.j1_ladders + [(1, 0.0, -fso.tau / fso.s)],
        [(1, fso.j2)])._member(z)


def spsc1(cfg: Scenario1Config, options: EvalOptions = TIGHT_OPTIONS) -> float:
    """Probability of strictly positive secrecy capacity, RF eavesdropper:
    Pr(min-combined SNR > eavesdropper SNR).

    With f_min = f_0 S_d + S_0 f_d the density of the minimum, SPSC1 is
    int f_min (1 - S_e) dg: one sum over pairs of a main kernel and a kernel
    of 1 - S_e (a unit term at rate 0, then -S_e's).  Each pair is a
    Gamma(p + 1, rate H) average of S_d (survival block) or a Poisson
    weight of f_d (density block), H = lam_0 + lam_e.
    """
    fso = cfg.fso_main
    tau, s = fso.tau, fso.s
    lnU = log(fso.electrical_snr)
    lam0, x0, w0, W0 = _poisson_grid(cfg.rf_main)
    lame, xe, _, We = _poisson_grid(cfg.rf_eve)
    c, H, p = _pairs(x0, lam0, np.append(0, xe), np.append(0.0, lame))
    c *= np.append(1.0, -We)
    survival = _family_at(
        lambda K, ln_w: _spsc1_survival(fso, 1).value_many(ln_w, options,
                                                           count=K),
        lambda rate: fso.log_B4 - tau * (lnU + np.log(rate)), H, p)
    density = _family_at(
        lambda K, ln_w: _spsc1_density(fso, 0).value_many(ln_w, options,
                                                          count=K),
        lambda rate: fso.log_B2t_tau - (tau / s) * (lnU + np.log(rate)), H, p)
    terms = np.concatenate([
        c * (w0 * lam0)[:, None] / H * exp(fso.log_B3) * (p + 1) * survival,
        c * W0[:, None] * (exp(fso.log_B1) / s) * density]).ravel()
    return _clamp_unit(fsum(terms), "spsc1", _EPS * fsum(np.abs(terms)))


# ---------------------------------------------------------------------------
# scenario 2
# ---------------------------------------------------------------------------

def _crossing(cfg: Scenario2Config) -> MellinBarnesIntegral:
    """Integrand of Pr(main FSO SNR <= phi * eavesdropper FSO SNR): the
    eavesdropper's survival kernel against the main link's CDF kernel,
    whose ladders enter with slope -1 (the main j4 ladders lead)."""
    main, eve = cfg.fso_main, cfg.fso_eve
    return MellinBarnesIntegral.from_ladders(
        [(p, q, -1.0) for p, q in main.j4_ladders] + eve.j4_ladders
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
    return (exp(main.log_B3 + eve.log_B3)
            * _crossing(cfg).value(_crossing_ln_z(cfg, phi), options))


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
    S = -float(_leading_residues(_crossing(cfg), main.j4_ladders,
                                 _crossing_ln_z(cfg, phi2),
                                 options.pole_separation_tol)[0])
    crossing = exp(main.log_B3 + eve.log_B3) * S
    rf_ok = float(cfg.rf_main.survival(phi2 - 1.0))
    return _clamp_unit(1.0 - rf_ok * (1.0 - crossing), "sop2_asymptotic")


def sop2_exact_quadrature(cfg: Scenario2Config, abs_tol: float = 1e-7) -> float:
    """Exact outage probability for scenario 2 by adaptive quadrature of
    int F_d(phi2*g + phi2 - 1) f_e(g) dg over the FSO eavesdropper density,
    combined with the RF outage; the rule and its tolerances are those of
    sop1_exact_quadrature."""
    phi2 = cfg.phi2
    shift = phi2 - 1.0
    rf_fail = 1.0 - float(cfg.rf_main.survival(shift))

    def integrand(g):
        return dgg_cdf(cfg.fso_main, phi2 * g + shift) * dgg_pdf(cfg.fso_eve, g)

    val = _integrate(integrand, abs_tol)
    return _clamp_unit(val * (1.0 - rf_fail) + rf_fail, "sop2_exact_quadrature")


def spsc2(cfg: Scenario2Config, options: EvalOptions = TIGHT_OPTIONS) -> float:
    """Probability of strictly positive secrecy capacity, FSO eavesdropper:
    Pr(main FSO SNR > eavesdropper FSO SNR)."""
    return _clamp_unit(1.0 - _fso_crossing_integral(cfg, 1.0, options),
                       "spsc2")
