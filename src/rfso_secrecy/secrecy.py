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

Each closed form at one point is a plan: its contour integrals as data
(factor lists and ln-arguments) and a finish step that turns their values
into the metric.  _evaluate, the one place that builds integrands, runs a
flat list of plans with one value_many call per integrand and curve, so a
curve's points share contour placement and, where their ln-arguments lie
close, nodes; the public closed forms are _evaluate on one plan.  An SOP
asymptote is its lower bound's plan, its integrals served by residues.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import exp, fsum, lgamma
from typing import Callable

import numpy as np
from scipy.special import gammaln, xlogy

from .channels import DggLink, EtaMuLink, dgg_cdf, dgg_pdf, eta_mu_pdf
from .dualhop import DualHopChannel, min_combine_cdf
from .errors import (AccuracyError, ClampExcessWarning, ParameterError,
                     RfsoError)
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
        if not 0.0 <= self.target_rate < 1024.0:
            raise ParameterError("target_rate must be >= 0 and below 1024, "
                                 "where phi1 = 2^rate stays finite")

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
        if not 0.0 <= self.target_rate < 512.0:
            raise ParameterError("target_rate must be >= 0 and below 512, "
                                 "where phi2 = 4^rate stays finite")
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


def _unit_sum(terms: np.ndarray, label: str, complement: bool = False):
    """fsum(terms), or 1 - fsum(terms) with complement, clamped to [0, 1]
    under the bound 2^-53 * sum|terms| on its rounding error.  A term that
    is not finite raises AccuracyError carrying the value of the finite
    terms."""
    finite = np.isfinite(terms)
    total = fsum(terms[finite])
    value = 1.0 - total if complement else total
    if not finite.all():
        raise AccuracyError(f"{label}: a term of the closed-form sum is not "
                            "finite", best_estimate=value, error_bound=np.inf)
    return _clamp_unit(value, label, _EPS * fsum(np.abs(terms)))


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


def _integrate(f, abs_tol: float, edges=()) -> float:
    """int_0^inf f(g) dg for a vectorised f, globally adaptive to the
    tolerance max(abs_tol/100, 1e-9 |I|) in at most _QUAD_LIMIT intervals.
    Each pass bisects the intervals that carry the most error, the fewest
    that leave the others' errors within an eighth of the tolerance (the
    rule of scipy's quad_vec), and evaluates all their nodes in one call.

    The first pass takes t in [0, 1] cut into 8 equal intervals, cut
    again at the caller's edges t = g/(1 + g), where it knows the
    integrand to change scale.  A call of the DGG laws costs about as much
    as a hundred further nodes (its contour placement), and a start from
    [0, 1] alone spent 4 to 5 passes on partitions it always refined to
    four intervals or more; from 8, a smooth integral takes 1 or 2 passes.

    An integrable singularity at g = 0 (a DGG density ~ g^(k/s - 1))
    leaves the error in the interval at t = 0 alone, and bisection only
    shrinks it by 2^(1 - k/s) a pass.  While passes bisect that interval
    alone, their totals go through _epsilon, as QUADPACK's qagi does; the
    extrapolation's error is four times the spread of its last four results
    plus the error of the other intervals.  The spread alone is QUADPACK's
    estimate; but the epsilon table amplifies the rounding of its totals,
    and a newest result that this throws off by e from three steady ones
    spreads by about 3e, so the factor holds e to a twelfth of the
    tolerance.  Raises AccuracyError when the smaller error estimate ends
    above abs_tol."""
    cuts = np.union1d(np.linspace(0.0, 1.0, 9), edges)
    a, b = cuts[:-1], cuts[1:]
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
                best = min(best, (4.0 * spread + bound - err[split[0]], r))
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
# closed-form plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Plan:
    """A closed form at one point.  Each request is a contour integral it
    needs, (factors, ln-arguments, family count), factors the float tuples
    (numer, denom, linear, log_const) MellinBarnesIntegral takes; finish
    turns their values, in request order, into the metric."""

    requests: list
    finish: Callable


def _evaluate(plans, options: EvalOptions = TIGHT_OPTIONS,
              residues: bool = False) -> list:
    """The metric of each (curve, plan) of plans, in order, or the RfsoError
    that stopped it.  With residues, every integral is its
    _leading_residues, not its contour value: the plans' asymptotes.

    The requests of one curve (any key) that share factors and family count
    are one call over all their ln-arguments, and each request takes its
    slice of the values; each distinct factor list is built once, as one
    MellinBarnesIntegral.  The calls whose integrands share a layout
    (MellinBarnesIntegral._layout) and family count are one stacked
    value_many pass, each call a row of its own (MellinBarnesIntegral._stack):
    arguments of different calls never share a contour group, so each value
    is the one its call gives alone, and curves are evaluated together as
    they would be apart.
    When a pass raises, its calls are evaluated again one at a time, and
    when a call raises, its requests one at a time, so the failure stays with
    the plans whose own request raises."""
    def request(slot):
        i, j = slot
        return plans[i][1].requests[j]

    merged = {}
    for i, (curve, plan) in enumerate(plans):
        for j, (factors, _, count) in enumerate(plan.requests):
            merged.setdefault((curve, factors, count), []).append((i, j))
    integrands = {factors: MellinBarnesIntegral(*factors)
                  for factors in {key[1] for key in merged}}
    passes = {}
    for n, ((_, factors, count), slots) in enumerate(merged.items()):
        passes.setdefault(n if residues
                          else (integrands[factors]._layout(), count),
                          []).append(slots)
    values = [[None] * len(plan.requests) for _, plan in plans]
    failed = {}

    def run(calls):
        """One pass over the calls, each the slots (plan, request) of one
        integrand: a stacked value_many, or the lone call's residues for
        each family member (MellinBarnesIntegral._members)."""
        slots = [slot for call in calls for slot in call]
        factors, _, count = request(slots[0])
        ln_w = [request(slot)[1] for slot in slots]
        lnz = np.concatenate(ln_w)
        try:
            if residues:
                mb = integrands[factors]
                out = np.array([_leading_residues(
                    mb._members(0, k), lnz, options.pole_separation_tol)
                    for k in range(count)])
                out = out if count > 1 else out[0]
            else:
                stack = MellinBarnesIntegral._stack(
                    [integrands[request(call[0])[0]] for call in calls],
                    [sum(request(slot)[1].size for slot in call)
                     for call in calls])
                out = stack.value_many(lnz, options, count=count)
        except RfsoError as exc:
            if len(calls) > 1:
                for call in calls:
                    run([call])
            elif len(slots) > 1:
                for slot in slots:
                    if slot[0] not in failed:
                        run([[slot]])
            else:
                failed[slots[0][0]] = exc
            return
        ends = np.cumsum([w.size for w in ln_w])[:-1]
        for (i, j), v in zip(slots, np.split(out, ends, axis=-1)):
            values[i][j] = v

    def finish(i):
        if i in failed:
            return failed[i]
        try:
            return plans[i][1].finish(values[i])
        except RfsoError as exc:
            return exc

    # a residue beyond double range is inf, and its plan's sum raises
    with np.errstate(**(dict(over="ignore", invalid="ignore") if residues
                        else {})):
        for calls in passes.values():
            run(calls)
        return [finish(i) for i in range(len(plans))]


def _evaluate_one(plan: _Plan, options: EvalOptions,
                  residues: bool = False) -> float:
    """The metric of one plan; raises the RfsoError that stopped it."""
    result, = _evaluate([(None, plan)], options, residues)
    if isinstance(result, RfsoError):
        raise result
    return result


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


def _family(factors, ln_w, H, p):
    """Member p of the Laplace-kernel family of the factors (_laplace) at
    the rate H, for each pair: returns one request of count max p + 1 over
    the distinct rates (members 0..max p at ln_w(rates)), and the gather
    that takes its values to the member values, of the shape of H."""
    rates, at = np.unique(H, return_inverse=True)
    count = int(p.max()) + 1

    def gather(values):
        return np.reshape(values[0], (count, -1))[p, at.reshape(H.shape)]
    return [(factors, ln_w(rates), count)], gather


def _sop1_plan(cfg: Scenario1Config, label: str = "sop1_lower") -> _Plan:
    """The scenario-1 outage sum.

    1 - SOP1 = int f_e(g) S_0(phi g) S_d(phi g) dg is one sum over pairs of
    a main survival kernel and an eavesdropper density kernel, each pair a
    Gamma(p + 1, rate F) average of S_d(phi g), F = phi lam_0 + lam_e.
    That average is 1 - (e^A / tau) (p + 1) T_p, A the link's ln_norm, at
    ln_w = fso.ln_cdf_argument(phi / F), T_p member p of the family
    _laplace(fso._cdf_factors, tau, 1): the full slope-tau kernel (lower
    bound), whose values the requests ask for, or its leading residues
    (asymptote).
    """
    fso, phi1 = cfg.fso_main, cfg.phi1
    lam0, x0, _, W0 = _poisson_grid(cfg.rf_main)
    lame, xe, we, _ = _poisson_grid(cfg.rf_eve)
    c, F, p = _pairs(x0, phi1 * lam0, xe, lame)
    requests, tail = _family(_laplace(fso._cdf_factors, fso.tau, 1),
                             lambda rate: fso.ln_cdf_argument(phi1 / rate),
                             F, p)
    weight = W0[:, None] * we * c * lame / F
    scale = exp(fso.ln_norm) / fso.tau * (p + 1)

    def finish(values):
        terms = weight * (1.0 - scale * tail(values))
        return _unit_sum(terms.ravel(), label, complement=True)
    return _Plan(requests, finish)


def _laplace(kernel, slope: float, z: int) -> tuple:
    """The factors of a Laplace block of the scenario-1 sums: a DGG link
    kernel's (_cdf_factors, _sf_factors or _pdf_factors, or an integrand's
    numer, denom and linear) against the Laplace kernel
    Gamma(z - slope*v) / z!.  Every Laplace kernel here comes divided by
    z!, as the members of the engine's families do, which keeps blocks of
    any z in double range."""
    return (kernel.numer + ((float(z), -float(slope)),), kernel.denom,
            kernel.linear, -lgamma(z + 1))


def _distinct(values, tol: float) -> np.ndarray:
    """The values, in order, without those within tol of an earlier one."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    keep = np.diff(values[order], prepend=-np.inf) > tol
    return values[np.sort(order[keep])]


def _leading_residues(mb: MellinBarnesIntegral, ln_w, tol):
    """The integral of mb from the residues at the leading poles of a DGG
    kernel K(s*v) or K(-s*v), whose factors lead mb's lists: the pole of
    its pointing factor 1/(a + b*v), the first linear one, and the |b| =
    s*lambda poles -(a + k)/b, k < |b|, of each of its two gamma factors
    Gamma(a + b*v), the first two numerator ones (one per ladder entry of
    the paper's G-form); every distinct pole once (poles of two factors
    that meet make a double pole): left poles for b > 0, whose residues
    add, right ones for b < 0, whose residues subtract."""
    a, b = mb.linear[0]
    poles = _distinct(np.concatenate([[-a / b]] + [
        -(q + np.arange(abs(p))) / p for q, p in mb.numer[:2]]), tol)
    return np.sign(b) * mb.residue(poles, ln_w, tol).sum(axis=0)


def sop1_lower(cfg: Scenario1Config,
               options: EvalOptions = TIGHT_OPTIONS) -> float:
    """Lower-bound secure outage probability for the RF-side eavesdropper."""
    return _evaluate_one(_sop1_plan(cfg), options)


def sop1_asymptotic(cfg: Scenario1Config,
                    options: EvalOptions = TIGHT_OPTIONS) -> float:
    """High-electrical-SNR asymptote: the lower bound's sum with each FSO
    block replaced by its leading residues (the factors of the law's K(s*v)
    lead).

    The residue at a leading pole v0 < 0 goes like U_d^(tau*v0) (times
    powers of ln U_d at a multiple pole), so the distance to the outage
    floor falls off like U_d^(tau*v0) at the pole nearest 0.  A residue
    beyond double range is inf, and the sum raises AccuracyError.
    """
    return _evaluate_one(_sop1_plan(cfg, "sop1_asymptotic"), options, True)


def sop1_exact_quadrature(cfg: Scenario1Config, abs_tol: float = 1e-7) -> float:
    """Exact outage probability by adaptive quadrature of
    int F_d(phi1*g + phi1 - 1) f_re(g) dg; the closed form bounds it below.

    A globally adaptive Gauss-Kronrod 7/15 rule over (0, inf) (see
    _integrate) evaluates the integrand at all the nodes of one refinement
    pass together, aims at max(abs_tol/100, 1e-9 * value), and raises
    AccuracyError when its error estimate ends above abs_tol.  The eta-mu
    density comes first: where it is 0 the DGG term is not evaluated.

    The first partition has edges at g = 4^j/lam, j = 0..3, for each decay
    rate lam of the eavesdropper's Gamma terms, where its density has its
    mass.  The Rayleigh surrogate eta = 1e-6 has a term of rate 1e6 times
    the other's, a spike at g = 0 too narrow for the nodes of [0, 1/8]."""
    rates = np.unique(cfg.rf_eve.terms[2])
    edges = 1.0 / (1.0 + np.outer(rates, 4.0 ** -np.arange(4)))
    phi1 = cfg.phi1
    shift = phi1 - 1.0
    channel = DualHopChannel(cfg.rf_main, cfg.fso_main)

    def integrand(g):
        out = eta_mu_pdf(cfg.rf_eve, g)
        live = out != 0.0
        if np.any(live):
            out[live] *= min_combine_cdf(channel, phi1 * g[live] + shift)
        return out

    return _clamp_unit(_integrate(integrand, abs_tol, edges),
                       "sop1_exact_quadrature")


def _spsc1_plan(cfg: Scenario1Config) -> _Plan:
    """The scenario-1 SPSC sum.

    With f_min = f_0 S_d + S_0 f_d the density of the minimum, SPSC1 is
    int f_min (1 - S_e) dg: one sum over pairs of a main kernel and a kernel
    of 1 - S_e (a unit term at rate 0, then -S_e's).  Each pair is a
    Gamma(p + 1, rate H) average of S_d (survival block, the survival
    kernel against Gamma(z - tau*v) / z!) or a Poisson weight of f_d
    (density block, the density kernel against Gamma(z - tau*v/s) / z!),
    H = lam_0 + lam_e, each without the H^-z."""
    fso = cfg.fso_main
    tau, s = fso.tau, fso.s
    lam0, x0, w0, W0 = _poisson_grid(cfg.rf_main)
    lame, xe, _, We = _poisson_grid(cfg.rf_eve)
    c, H, p = _pairs(x0, lam0, np.append(0, xe), np.append(0.0, lame))
    c *= np.append(1.0, -We)
    sf_requests, survival = _family(
        _laplace(fso._sf_factors, tau, 1),
        lambda rate: fso.ln_cdf_argument(1.0 / rate), H, p)
    pdf_requests, density = _family(
        _laplace(fso._pdf_factors, tau / s, 0),
        lambda rate: fso.ln_pdf_argument(1.0 / rate), H, p)

    def finish(values):
        terms = np.concatenate([
            c * (w0 * lam0)[:, None] / H * (exp(fso.ln_norm) / tau) * (p + 1)
            * survival(values[:1]),
            c * W0[:, None] * (exp(fso.ln_norm) / s) * density(values[1:])])
        return _unit_sum(terms.ravel(), "spsc1")
    return _Plan(sf_requests + pdf_requests, finish)


def spsc1(cfg: Scenario1Config, options: EvalOptions = TIGHT_OPTIONS) -> float:
    """Probability of strictly positive secrecy capacity, RF eavesdropper:
    Pr(min-combined SNR > eavesdropper SNR)."""
    return _evaluate_one(_spsc1_plan(cfg), options)


# ---------------------------------------------------------------------------
# scenario 2
# ---------------------------------------------------------------------------

def _crossing(cfg: Scenario2Config) -> tuple:
    """The factors of Pr(main FSO SNR <= phi * eavesdropper FSO SNR): the
    eavesdropper's survival integrand against the main link's K(s*v) (its
    CDF integrand without 1/(-v)) with every slope negated, whose factors
    lead."""
    main, eve = cfg.fso_main, cfg.fso_eve
    numer = (tuple((a, -b) for a, b in main._cdf_factors.numer)
             + eve._sf_factors.numer)
    linear = (tuple((a, -b) for a, b in main._cdf_factors.linear[:-1])
              + eve._sf_factors.linear)
    return numer, (), linear, 0.0


def _crossing_plan(cfg: Scenario2Config, phi: float, metric) -> _Plan:
    """A metric of the crossing probability Pr(main FSO SNR <= phi *
    eavesdropper FSO SNR), one G-value: metric(probability)."""
    main, eve = cfg.fso_main, cfg.fso_eve
    scale = exp(main.ln_norm + eve.ln_norm) / (main.tau * eve.tau)
    ln_z = eve.ln_cdf_argument(1.0) - main.ln_cdf_argument(phi)
    return _Plan([(_crossing(cfg), np.array([ln_z]), 1)],
                 lambda values: metric(scale * float(values[0][0])))


def _sop2_plan(cfg: Scenario2Config, label: str = "sop2_lower") -> _Plan:
    rf_ok = float(cfg.rf_main.survival(cfg.phi2 - 1.0))
    return _crossing_plan(cfg, cfg.phi2, lambda crossing: _clamp_unit(
        1.0 - rf_ok * (1.0 - crossing), label))


def sop2_lower(cfg: Scenario2Config,
               options: EvalOptions = TIGHT_OPTIONS) -> float:
    """Lower-bound secure outage probability for the FSO-side eavesdropper."""
    return _evaluate_one(_sop2_plan(cfg), options)


def sop2_asymptotic(cfg: Scenario2Config,
                    options: EvalOptions = TIGHT_OPTIONS) -> float:
    """High-U_d asymptote: the lower bound with the crossing G-function's
    large-argument expansion over the leading poles of the main link's
    factors (right poles, so the integral is minus their residue sum)."""
    return _evaluate_one(_sop2_plan(cfg, "sop2_asymptotic"), options, True)


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


def _spsc2_plan(cfg: Scenario2Config) -> _Plan:
    return _crossing_plan(cfg, 1.0,
                          lambda crossing: _clamp_unit(1.0 - crossing, "spsc2"))


def spsc2(cfg: Scenario2Config, options: EvalOptions = TIGHT_OPTIONS) -> float:
    """Probability of strictly positive secrecy capacity, FSO eavesdropper:
    Pr(main FSO SNR > eavesdropper FSO SNR)."""
    return _evaluate_one(_spsc2_plan(cfg), options)
