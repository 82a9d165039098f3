"""Meijer G engine: identities, robustness, error contracts."""

import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import loggamma

from rfso_secrecy.errors import (AccuracyError, DegenerateParameterError,
                                 ParameterError, PoleCollisionError)
from rfso_secrecy import dgg_cdf, dgg_from_preset, dgg_pdf, secrecy, specfun
from rfso_secrecy.channels import dgg_survival
from rfso_secrecy.specfun import (EvalOptions, MeijerGSpec,
                                  MellinBarnesIntegral, delta_expand,
                                  delta_expand_list, log_gamma_complex,
                                  meijer_g)

from conftest import paper_dgg_form

TIGHT = EvalOptions(target_abs_tol=1e-300, target_rel_tol=1e-12)


def _laplace(kernel, slope, z):
    """A scenario-1 Laplace block (secrecy._laplace's factors) as an
    integrand."""
    return MellinBarnesIntegral(*secrecy._laplace(kernel, slope, z))


def _crossing(cfg):
    """The scenario-2 crossing (secrecy._crossing's factors) as an
    integrand."""
    return MellinBarnesIntegral(*secrecy._crossing(cfg))


def g10(z):
    return MeijerGSpec(1, 0, 0, 1, (), (0.0,), z)


def g11(z):
    # G^{1,1}_{1,1}(z | 0; 0) = 1/(1+z)
    return MeijerGSpec(1, 1, 1, 1, (0.0,), (0.0,), z)


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------

def test_log_gamma_trivial_points():
    assert log_gamma_complex(1.0) == pytest.approx(0.0, abs=1e-15)
    # Gamma(1/2) = sqrt(pi)
    assert log_gamma_complex(0.5).real == pytest.approx(0.5723649429247001,
                                                        rel=1e-14)


def test_log_gamma_complex_point_frozen():
    # frozen from a 50-digit-precision reference evaluation
    got = log_gamma_complex(3.7 + 2.1j)
    assert got.real == pytest.approx(0.7853469580738222, rel=1e-13)
    assert got.imag == pytest.approx(2.5830129251152620, rel=1e-13)


def test_log_gamma_exp_consistency():
    from scipy.special import gamma as gamma_fn
    for z in [0.3, 1.7, 9.5, 30.0, 2.0 + 3.0j, 10.0 - 7.0j, -3.5 + 0.2j]:
        got = np.exp(log_gamma_complex(z))
        ref = gamma_fn(z)
        assert abs(got - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
def test_log_gamma_pole_rejected(z):
    with pytest.raises(ParameterError):
        log_gamma_complex(z)


# ---------------------------------------------------------------------------
# ladder expansions
# ---------------------------------------------------------------------------

def test_delta_expand_examples():
    assert delta_expand(1, 3.4) == [3.4]
    assert delta_expand(2, 1.0) == [0.5, 1.0]
    assert delta_expand(3, 0.5) == pytest.approx([1 / 6, 1 / 2, 5 / 6])


def test_delta_expand_list_examples():
    assert delta_expand_list(1, [0.3, 4.0]) == [0.3, 4.0]
    assert delta_expand_list(2, [1.0]) == [0.5, 1.0]
    assert delta_expand_list(2, [0.476, 4.0]) == pytest.approx(
        [0.238, 0.738, 2.0, 2.5])


@given(p=st.integers(1, 20), q=st.floats(-5, 5), sigma=st.integers(1, 4),
       extra=st.lists(st.floats(0.01, 10), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_delta_expand_properties(p, q, sigma, extra):
    out = delta_expand(p, q)
    assert len(out) == p
    assert out[0] == pytest.approx(q / p)
    steps = np.diff(out)
    assert np.allclose(steps, 1.0 / p)
    combined = delta_expand_list(sigma, extra)
    assert len(combined) == sigma * len(extra)


def test_delta_expand_rejects_bad_input():
    with pytest.raises(ParameterError):
        delta_expand(0, 1.0)
    with pytest.raises(ParameterError):
        delta_expand_list(2, [])


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def test_identity_exponential_grid():
    zs = np.logspace(-2, np.log10(50.0), 40)
    worst = max(abs(meijer_g(g10(z), TIGHT) - math.exp(-z)) / math.exp(-z)
                for z in zs)
    assert worst <= 1e-10


def test_identity_reciprocal_grid():
    zs = np.logspace(-2, np.log10(50.0), 40)
    worst = max(abs(meijer_g(g11(z), TIGHT) - 1 / (1 + z)) * (1 + z)
                for z in zs)
    assert worst <= 1e-10


def test_point_values():
    assert meijer_g(g10(1.0), TIGHT) == pytest.approx(math.exp(-1), rel=1e-12)
    assert meijer_g(g11(1.0), TIGHT) == pytest.approx(0.5, rel=1e-12)


def _bessel_k0_series(x, terms=60):
    """Independent series oracle: K0 from its ascending series."""
    euler = 0.57721566490153286060651209008240243
    q = (x / 2.0) ** 2
    i0 = 1.0
    term = 1.0
    for k in range(1, terms):
        term *= q / (k * k)
        i0 += term
    s = 0.0
    term = 1.0
    hk = 0.0
    for k in range(1, terms):
        term *= q / (k * k)
        hk += 1.0 / k
        s += term * hk
    return -(math.log(x / 2.0) + euler) * i0 + s


@pytest.mark.parametrize("z", [0.25, 1.0, 2.0, 9.0])
def test_identity_bessel(z):
    spec = MeijerGSpec(2, 0, 0, 2, (), (0.0, 0.0), z)
    ref = 2.0 * _bessel_k0_series(2.0 * math.sqrt(z))
    assert meijer_g(spec, TIGHT) == pytest.approx(ref, rel=1e-8)


def test_bessel_nonzero_order_vs_scipy():
    from scipy.special import kv
    # G^{2,0}_{0,2}(z | -; b1, b2) = 2 z^((b1+b2)/2) K_{b1-b2}(2 sqrt z)
    for z in (0.25, 0.8):
        spec = MeijerGSpec(2, 0, 0, 2, (), (0.3, 0.0), z)
        ref = 2.0 * z**0.15 * kv(0.3, 2.0 * math.sqrt(z))
        assert meijer_g(spec, TIGHT) == pytest.approx(float(ref), rel=1e-10)


def test_meijer_g_with_upper_parameter_vs_mpmath():
    """G^{3,1}_{1,3}(0.4 | 0.2; 0.5, 0.1, 1.3) against mpmath at 30 digits."""
    mp = pytest.importorskip("mpmath")
    spec = MeijerGSpec(3, 1, 1, 3, (0.2,), (0.5, 0.1, 1.3), 0.4)
    with mp.workdps(30):
        ref = float(mp.meijerg([[0.2], []], [[0.5, 0.1, 1.3], []], 0.4))
    assert meijer_g(spec, TIGHT) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("preset", ["st", "mt", "wt"])
@pytest.mark.parametrize("detection", [1, 2])
def test_law_integrands_match_paper_expanded_form(preset, detection):
    """A DGG link's laws, each from its own Mellin-Barnes integrand of two
    gamma factors and one or two linear ones, equal the paper's G-forms
    over the expanded parameter vectors with its constants B1, B3 and
    arguments."""
    link = dgg_from_preset(preset, eps=1.0, detection=detection,
                           electrical_snr=100.0)
    paper = paper_dgg_form(link)
    expanded = {
        dgg_pdf: MellinBarnesIntegral([(j, 1.0) for j in paper.j1],
                                      [(paper.j2, 1.0)]),
        dgg_cdf: MellinBarnesIntegral(
            [(j, 1.0) for j in paper.j4] + [(0.0, -1.0)],
            [(1.0, -1.0)] + [(j, 1.0) for j in paper.j3]),
        dgg_survival: MellinBarnesIntegral(
            [(j, 1.0) for j in paper.j4] + [(0.0, 1.0)],
            [(1.0, 1.0)] + [(j, 1.0) for j in paper.j3]),
    }
    for mb, linear in ((link._pdf_mb, 1), (link._cdf_mb, 2),
                       (link._sf_mb, 2)):
        assert (len(mb.numer), len(mb.denom), len(mb.linear)) == (2, 0,
                                                                  linear)
    gamma = link.electrical_snr * np.logspace(-4, 2, 9)
    for law, reference in expanded.items():
        if law is dgg_pdf:
            ref = (math.exp(paper.log_B1) / (link.s * gamma)
                   * reference.value_many(paper.ln_pdf_argument(gamma)))
        else:
            ref = math.exp(paper.log_B3) * reference.value_many(
                paper.ln_cdf_argument(gamma))
        np.testing.assert_allclose(law(link, gamma), ref, rtol=1e-12, atol=0.0)


# mt IM/DD survival G-values, eps = 1, U = 20 dB, at gamma/U = 1e2, 1e3, 1e4:
# mpmath.meijerg([[], [1, *j3]], [[*j4, 0], []], exp(ln_x)) at 50 digits
# (about 15 s each, hence frozen)
_MT_IMDD_SURVIVAL_G = {1e2: 7.3199992406939065e27,
                       1e3: 1.7478010025467406e24,
                       1e4: 1.4629247408843119e16}


def test_truncation_height_covers_large_slope_mass(mt_link_imdd):
    """Deep upper tail of the mt IM/DD survival: its slope mass (factors of
    slopes 2, 26 and 56, the 84 ladder entries of the paper's G-form)
    leaves the Stirling truncation height too low by itself; exp(B3) times
    the G-values, frozen mpmath values at 50 digits."""
    link = mt_link_imdd
    B3 = math.exp(paper_dgg_form(link).log_B3)
    for ratio, ref in _MT_IMDD_SURVIVAL_G.items():
        got = dgg_survival(link, ratio * link.electrical_snr)
        assert got == pytest.approx(B3 * ref, rel=1e-12)


def _saddle_cases():
    """(integrand, label) for every contour integrand family of a link."""
    from rfso_secrecy import EtaMuLink, Scenario2Config
    for preset in ("st", "mt", "wt"):
        for detection in (1, 2):
            link = dgg_from_preset(preset, eps=1.0, detection=detection,
                                   electrical_snr=100.0)
            cfg = Scenario2Config(rf_main=EtaMuLink(5.0, 1, 10.0),
                                  fso_main=link,
                                  fso_eve=link.with_electrical_snr(0.1))
            tag = f"{preset}-{link.detection}"
            yield link._pdf_mb, tag + " pdf"
            yield link._cdf_mb, tag + " cdf"
            yield link._sf_mb, tag + " survival"
            for z1 in (1, 4):
                yield (_laplace(link._cdf_mb, link.tau, z1),
                       tag + " sop1 tail")
            yield _crossing(cfg), tag + " crossing"


def _denominator_cases():
    """(integrand, label) for meijer_g integrands with a denominator: the
    paper's CDF and survival G-forms of each link (conftest.paper_dgg_form)
    and a G^{3,1}_{1,3}."""
    from rfso_secrecy.specfun import _spec_factors
    for preset in ("st", "mt", "wt"):
        for detection in (1, 2):
            link = dgg_from_preset(preset, eps=1.0, detection=detection,
                                   electrical_snr=100.0)
            paper, s = paper_dgg_form(link), link.s
            k = len(paper.j4)
            tag = f"{preset}-{link.detection} G-form"
            yield _spec_factors(MeijerGSpec(
                k, 1, s + 1, k + 1, (1.0, *paper.j3), (*paper.j4, 0.0),
                1.0)), tag + " cdf"
            yield _spec_factors(MeijerGSpec(
                k + 1, 0, s + 1, k + 1, (*paper.j3, 1.0), (*paper.j4, 0.0),
                1.0)), tag + " survival"
    yield _spec_factors(MeijerGSpec(3, 1, 1, 3, (0.2,), (0.5, 0.1, 1.3),
                                    0.4)), "G^{3,1}_{1,3}"


def _bisect(f, lo, hi):
    """Reference root finder: plain bisection to the last representable
    midpoint."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _reference_saddle(mb, x, member=0):
    """Saddle of family member `member` at log-argument x by bisection of
    the derivative on the placement's bracket: member 0's strip less
    min(2% of it, 0.02) at a finite pair of poles, else from 1e-3 past the
    pole to the first doubling of max(|pole| + 1, 1) past the root."""
    off = mb._na.copy()
    off[:, -1] += member

    def h(c):
        return float(mb._dlog(np.array([c]), off)[0][0]) - x
    L, R = mb.strip
    if np.isfinite(L) and np.isfinite(R):
        margin = 0.02 * min(R - L, 1.0)
        lo, hi = L + margin, R - margin
    elif np.isfinite(L):
        lo, hi = L + 1e-3, max(L + 1.0, 1.0)
        while h(hi) <= 0:
            lo, hi = hi, 2.0 * hi
    else:
        lo, hi = min(R - 1.0, -1.0), R - 1e-3
        while h(lo) >= 0:
            lo, hi = 2.0 * lo, lo
    if h(lo) >= 0:
        return lo
    if h(hi) <= 0:
        return hi
    return _bisect(h, lo, hi)


def _mirrored(mb):
    """The integrand with every slope negated: a right-open strip becomes
    a left-open one."""
    return MellinBarnesIntegral([(a, -b) for a, b in mb.numer],
                                [(a, -b) for a, b in mb.denom],
                                [(a, -b) for a, b in mb.linear])


def test_saddle_matches_reference_bisection():
    """The placement's saddle lies inside the strip and on the root that
    bisection of the same bracket finds, for every integrand family, for
    meijer_g integrands with a denominator (whose part of the derivative
    enters the Newton step by a secant), and for their mirror images
    (finite, right-open and left-open strips) across 120 units of
    log-argument."""
    ln_args = np.linspace(-60.0, 60.0, 13)
    cases = list(_saddle_cases()) + list(_denominator_cases())
    cases += [(_mirrored(mb), label + " mirrored") for mb, label in cases
              if not np.isfinite(mb.strip[1])]
    assert {tuple(np.isfinite(mb.strip)) for mb, _ in cases} == {
        (True, True), (True, False), (False, True)}
    for mb, label in cases:
        L, R = mb.strip
        for x, c in zip(ln_args, mb._saddle(ln_args, 0)):
            assert L < c < R, (label, x)
            ref = _reference_saddle(mb, x)
            assert abs(c - ref) <= 1e-10 * (1.0 + abs(c)), (label, x)


def test_saddles_placed_together_equal_placed_alone():
    """Placing the saddles of a call together gives each the saddle it gets
    alone (up to the rounding of a matrix product's rows): on finite,
    right-open and left-open strips, for every member of a family, in
    member 0's strip and in the member's own (the bracket a masked pair
    gets: member 0 of the member's row of _members)."""
    ln_args = np.linspace(-60.0, 60.0, 7)
    cases = [(mb, 1) for mb, _ in _saddle_cases()]
    cases += [(_mirrored(mb), 1) for mb, _ in _saddle_cases()
              if not np.isfinite(mb.strip[1])]
    cases += [(base, len(members)) for base, members, _ in _family_cases()]
    for mb, count in cases:
        members = np.repeat(np.arange(count), ln_args.size)
        args = np.tile(ln_args, count)
        own = mb._members(0, np.arange(count))
        for together, alone in (
                (mb._saddle(args, members), lambda x, k: mb._saddle(x, k)),
                (own._saddle(args, 0, row=members),
                 lambda x, k: mb._members(0, k)._saddle(x, 0))):
            np.testing.assert_allclose(
                together, [alone([x], k)[0] for x, k in zip(args, members)],
                rtol=1e-14, atol=0)
            for k in range(count):
                np.testing.assert_allclose(alone(ln_args, k),
                                           together[members == k],
                                           rtol=1e-14, atol=0)


def _trapezoid_levels(mb, ln_args, c, T, opts):
    """The mapped trapezoid's levels 64, 128, ... in s on [0, S], on the line
    t = alpha*sinh(s), alpha the distance from c to the nearest pole, each
    summed from scratch, and the node count of each; the first level that
    the acceptance rule takes ends the list.  The rule: a level passes when
    its change from the level before is within the tolerance, or, from the
    third level on, when that change times its ratio to the change before
    (the geometric rate) is within a hundredth of it."""
    x = np.concatenate([(mb._na + mb._nb * c) / np.abs(mb._nb),
                        (mb._la + mb._lb * c) / np.abs(mb._lb)], axis=1)
    alpha = min(float(np.min(x)), T)
    S = np.arcsinh(T / alpha)
    levels, changes = [], []
    n = 64
    while True:
        s = np.linspace(0.0, S, n + 1)
        w = alpha * np.cosh(s) * (S / n)
        w[[0, -1]] *= 0.5
        f = np.exp(mb._log_integrand(c + 1j * alpha * np.sinh(s))[None]
                   - (c + 1j * alpha * np.sinh(s))[None] * ln_args[:, None])
        levels.append(((f.real * w).sum(axis=1) / np.pi, n + 1))
        if len(levels) > 1:
            vals = levels[-1][0]
            tol = np.maximum(opts.target_abs_tol,
                             opts.target_rel_tol * np.abs(vals))
            changes.append(np.abs(vals - levels[-2][0]))
            ok = changes[-1] <= tol
            if len(changes) > 1:
                ok |= changes[-1] ** 2 / changes[-2] <= 0.01 * tol
            if ok.all():
                return levels
        n *= 2


def test_low_height_doubles_and_redoes_the_level(st_link, monkeypatch):
    """A truncation height that fails its check at the first level's node
    c + iT doubles and evaluates the level again: T/20 fails five times
    and passes at 1.6 T, where the next level's 64 midpoints follow; the
    value equals the one from the estimated height."""
    mb = st_link._sf_mb
    ln_args = np.array([float(st_link.ln_cdf_argument(st_link.electrical_snr))])
    ref = mb.value_many(ln_args)
    low = mb._truncation
    monkeypatch.setattr(mb, "_truncation",
                        lambda c, k, row: low(c, k, row) / 20.0)
    nodes = []
    log_family = mb._log_family
    monkeypatch.setattr(mb, "_log_family", lambda v, k, row: nodes.append(
        v.size) or log_family(v, k, row))
    np.testing.assert_allclose(mb.value_many(ln_args), ref, rtol=1e-12,
                               atol=0.0)
    assert nodes[:7] == [65] * 6 + [64]


def _group_nodes(mb, monkeypatch, ln_args, c, T, opts):
    """A contour group's values on the line through c truncated at T, and
    the gamma-pass nodes it evaluated."""
    nodes = []
    log_integrand = mb._log_integrand
    monkeypatch.setattr(mb, "_log_integrand", lambda v, row: nodes.append(
        v.size) or log_integrand(v, row))
    out, far = mb._value_group(ln_args, [ln_args.size], np.array([c]),
                               np.array([T]), opts)
    assert not far.any()
    return out[0], sum(nodes)


def test_group_stops_at_first_passing_doubling(st_link, monkeypatch):
    """A contour group evaluates the nodes of the first level its rule
    accepts, derived by hand in _trapezoid_levels, and returns that level's
    values: no confirming level."""
    mb = st_link._sf_mb
    # one group of three nearby log-arguments
    ln_args = (st_link.ln_cdf_argument(st_link.electrical_snr)
               + np.array([-1.0, 0.0, 1.0]))
    opts = EvalOptions()
    c = float(mb._saddle([np.median(ln_args)], 0)[0])
    T = float(mb._truncation([c], 0)[0])
    levels = _trapezoid_levels(mb, ln_args, c, T, opts)
    out, nodes = _group_nodes(mb, monkeypatch, ln_args, c, T, opts)
    assert nodes == levels[-1][1]
    np.testing.assert_allclose(out, levels[-1][0], rtol=1e-13, atol=0.0)


def test_group_rate_accepts_before_the_change(monkeypatch):
    """The wt HD survival group at ln z = -16.33 of the oracle_quad workload:
    the geometric rate of the changes accepts its fourth level, 513 nodes,
    whose change alone is above the tolerance (the change-only rule took
    1025).  The value is G^{4,0}_{2,4}(z | 1, j3; j4, 0) by mpmath.meijerg
    at 50 digits."""
    mb = dgg_from_preset("wt", eps=1.0, detection=1,
                         electrical_snr=100.0)._sf_mb
    ln_args = np.array([-16.33])
    opts = specfun.TIGHT_OPTIONS
    c = float(mb._saddle(ln_args, 0)[0])
    T = float(mb._truncation([c], 0)[0])
    levels = _trapezoid_levels(mb, ln_args, c, T, opts)
    assert [n for _, n in levels] == [65, 129, 257, 513]
    change = np.abs(levels[-1][0] - levels[-2][0])
    assert np.all(change > opts.target_rel_tol * np.abs(levels[-1][0]))
    out, nodes = _group_nodes(mb, monkeypatch, ln_args, c, T, opts)
    assert nodes == 513
    np.testing.assert_allclose(out, levels[-1][0], rtol=1e-13, atol=0.0)
    assert out[0] == pytest.approx(146.541188572294211048272346926,
                                   rel=1e-12)


def _groups(mb, lnz, member=0):
    """Index arrays of value_many's groups on the integrand mb: the
    arguments in order, each group closed before the first argument whose
    span from the group's first, in the saddle c of the member times in
    ln z, passes ln _MAX_CANCELLATION."""
    order = np.argsort(lnz, kind="stable")
    z = lnz[order]
    c = mb._saddle(z, member)
    bound = math.log(specfun._MAX_CANCELLATION)
    out, start = [], 0
    for i in range(1, lnz.size + 1):
        if i == lnz.size or (c[i] - c[start]) * (z[i] - z[start]) > bound:
            out.append(order[start:i])
            start = i
    return out


@pytest.mark.parametrize("preset,s", [("wt", 1), ("st", 2)])
def test_lockstep_call_equals_one_call_per_group(preset, s, monkeypatch):
    """dgg_survival over eight decades of gamma, and the link's survival
    Laplace family of three members (a sop1 tail's) at the same
    log-arguments: the groups of one call step through the trapezoid
    levels together, and every value equals the one its group gives in a
    call of its own, bit for bit.  The law's groups serve every argument
    in one pass; the family's send pairs to their own saddles, in a second
    pass."""
    link = dgg_from_preset(preset, eps=1.0, detection=s, electrical_snr=100.0)
    g = np.logspace(-4, 4, 60) * link.electrical_snr
    lnz = link.ln_cdf_argument(g)
    family = _laplace(link._sf_mb, link.tau, 1)
    passes = []
    value_group = MellinBarnesIntegral._value_group

    def recorded(self, lnz, size, c, T, options, count=1, row=0):
        passes.append(len(size))
        return value_group(self, lnz, size, c, T, options, count, row)

    monkeypatch.setattr(MellinBarnesIntegral, "_value_group", recorded)
    together = dgg_survival(link, g)
    groups = _groups(link._sf_mb, lnz)
    assert passes == [len(groups)] and len(groups) > 5
    alone = np.empty_like(together)
    for idx in groups:
        alone[idx] = dgg_survival(link, g[idx])
    np.testing.assert_array_equal(together, alone)
    passes.clear()
    together = family.value_many(lnz, count=3)
    groups = _groups(family, lnz, 1)
    assert len(passes) == 2 and passes[0] == len(groups) > 1
    alone = np.empty_like(together)
    for idx in groups:
        alone[:, idx] = family.value_many(lnz[idx], count=3)
    np.testing.assert_array_equal(together, alone)


def _grouping_cases():
    """(label, integrand, family count, log-arguments): the st/mt/wt x
    HD/IM-DD laws and the fig3 sop1 tail families over ln z in [-60, 60]
    (wt's densities and HD survival to 50: past it their gamma arguments
    pass 1e11 and raise AccuracyError, the xfails of direction 15)."""
    from rfso_secrecy import figure_preset
    lnz = np.linspace(-60.0, 60.0, 49)
    for preset in ("st", "mt", "wt"):
        for s in (1, 2):
            link = dgg_from_preset(preset, eps=1.0, detection=s,
                                   electrical_snr=100.0)
            for law in ("_pdf_mb", "_cdf_mb", "_sf_mb"):
                top = 50.0 if preset == "wt" and (
                    law == "_pdf_mb" or (s, law) == (1, "_sf_mb")) else 60.0
                yield (f"{preset}/{s}{law}", getattr(link, law), 1,
                       lnz[lnz <= top])
    for label, cfg in figure_preset("fig3").curves:
        link = cfg.fso_main
        yield (f"fig3 {label} tail", _laplace(link._cdf_mb, link.tau, 1), 3,
               lnz)


def test_groups_are_bounded_by_their_saddles(monkeypatch):
    """value_many's groups on the paper's laws and the sop1 tail families:
    each is the run the rule closes (_groups), so its span in the middle
    member's saddle times its span in ln z is within ln _MAX_CANCELLATION;
    its line is its median argument's saddle; on it every argument's
    log-magnitude excess over its own saddle, phi(c) = Re g(c) - c ln z,
    is within the same bound, and no pair cancels past _MAX_CANCELLATION
    (none goes to a pass of its own); and every value equals the one the
    argument gives alone, within 1e-13 relative."""
    bound = math.log(specfun._MAX_CANCELLATION)
    calls = []
    value_group = MellinBarnesIntegral._value_group

    def recorded(self, lnz, size, c, T, options, count=1, row=0):
        out, far = value_group(self, lnz, size, c, T, options, count, row)
        calls.append((lnz, size, c, far))
        return out, far

    monkeypatch.setattr(MellinBarnesIntegral, "_value_group", recorded)
    for label, mb, count, lnz in _grouping_cases():
        calls.clear()
        merged = mb.value_many(lnz, count=count)
        (z, size, c, far), = calls
        member = (count - 1) // 2
        assert [idx.size for idx in _groups(mb, lnz, member)] == list(size)
        assert not far.any(), label
        phi = mb._members(0, member)._log_integrand
        for zg, line in zip(np.split(z, np.cumsum(size)[:-1]), c):
            own = mb._saddle(zg, member)
            assert (own[-1] - own[0]) * (zg[-1] - zg[0]) <= bound, label
            assert line == own[(zg.size - 1) // 2], label
            excess = (phi(np.array([line])).real - line * zg
                      - (phi(own).real - own * zg))
            assert excess.max() <= bound, label
        alone = np.stack([mb.value_many([x], count=count)
                          for x in lnz], axis=-1).reshape(merged.shape)
        np.testing.assert_allclose(merged, alone, rtol=1e-13, atol=0.0,
                                   err_msg=label)


def _nodes_by_line(mb, monkeypatch):
    """Gamma-pass nodes per line, keyed by its abscissa c (a row of the
    pass's nodes c + i*t)."""
    nodes = {}
    log_integrand = mb._log_integrand

    def counted(v, row):
        for line in np.atleast_2d(v):
            nodes[line[0].real] = nodes.get(line[0].real, 0) + line.size
        return log_integrand(v, row)

    monkeypatch.setattr(mb, "_log_integrand", counted)
    return nodes


def test_lockstep_groups_keep_their_own_node_counts(monkeypatch):
    """wt HD survival groups that accept at 513, 257 and 129 nodes in one
    call: each drops out when it accepts, so the gamma pass evaluates each
    line at as many nodes as a call of its own does."""
    one, other = (dgg_from_preset("wt", eps=1.0, detection=1,
                                  electrical_snr=100.0)._sf_mb
                  for _ in range(2))
    lnz = np.array([-16.33, -2.0, 2.0, 5.0, 8.0])
    together = _nodes_by_line(one, monkeypatch)
    one.value_many(lnz)
    alone = _nodes_by_line(other, monkeypatch)
    for x in lnz:
        other.value_many([x])
    assert together == alone
    assert sorted(set(together.values())) == [129, 257, 513]


def _stacked_cases():
    """(label, integrands of one layout, each row's log-arguments, family
    count, options): the integrands a preset's closed forms stack."""
    from rfso_secrecy import figure_preset
    from rfso_secrecy.specfun import _spec_factors
    fig5 = [cfg for _, cfg in figure_preset("fig5").curves]
    yield ("fig5 crossings", [_crossing(cfg) for cfg in fig5],
           [np.array([-30.0 + 7.0 * i, -2.0 + i, 1.5, 20.0 - 3.0 * i])
            for i in range(len(fig5))], 1, specfun.TIGHT_OPTIONS)
    # under a 128-node budget the wt s0 = 2 family's group at ln w = -12
    # and 4 does not converge, and its pairs go to their own saddles
    links = [cfg.fso_main for _, cfg in figure_preset("fig3").curves]
    yield ("fig3 sop1 tails", [_laplace(link._cdf_mb, link.tau, 1)
                               for link in links],
           [np.array([-8.0, -1.0, 5.0]), np.array([-12.0, 4.0, 12.0])]
           + [np.array([-12.0, -1.0, 3.5, 9.0])] * 4, 3,
           replace(specfun.TIGHT_OPTIONS, max_quadrature_nodes=128))
    for law in ("_cdf_mb", "_sf_mb"):
        yield (f"wt and st {law}", [getattr(links[i], law) for i in (0, 4)],
               [np.array([-20.0, -3.0, 0.0, 2.5, 14.0]),
                np.array([-9.0, 1.0, 30.0])], 1, specfun.TIGHT_OPTIONS)
    yield ("meijer_g with a denominator", [_spec_factors(MeijerGSpec(
        2, 1, 2, 3, a, b, 1.0)) for a, b in (((0.3, 1.7), (0.1, 0.6, 0.9)),
                                             ((0.5, 2.2), (0.2, 0.3, 1.4)))],
           [np.array([-6.0, 0.0, 4.5]), np.array([-1.0, 3.0])], 1, TIGHT)
    # a family longer than _FAMILY_RUN, as a mixture eta-mu link asks for
    yield ("count 10 survival families", [_laplace(links[i]._sf_mb,
                                                   links[i].tau, 1)
                                          for i in (1, 3)],
           [np.array([-40.0, -5.0, 0.0]), np.array([-3.0, 12.0])], 10,
           specfun.TIGHT_OPTIONS)


def test_stacked_pass_equals_separate_calls(monkeypatch):
    """One stacked value_many pass over integrands of one layout gives each
    row's values bit for bit as that integrand's own call does: the fig5
    crossings, the fig3 sop1 tail families (some pairs on their own
    saddles), two links' CDF and survival laws, meijer_g integrands with a
    denominator, and families longer than _FAMILY_RUN."""
    placed = []
    saddle = MellinBarnesIntegral._saddle

    def recorded(self, lnz, member, row=0):
        placed.append(None)
        return saddle(self, lnz, member, row)

    monkeypatch.setattr(MellinBarnesIntegral, "_saddle", recorded)
    for label, rows, ln_args, count, opts in _stacked_cases():
        assert len({mb._layout() for mb in rows}) == 1, label
        placed.clear()
        stack = MellinBarnesIntegral._stack(rows, [a.size for a in ln_args])
        got = stack.value_many(np.concatenate(ln_args), opts, count=count)
        # pairs on their own saddles: a placement past one per run
        runs = -(-count // specfun._FAMILY_RUN)
        assert (len(placed) > runs) == label.startswith("fig3"), label
        alone = np.concatenate([mb.value_many(a, opts, count=count)
                                for mb, a in zip(rows, ln_args)], axis=-1)
        assert np.array_equal(got, alone), label


def test_low_height_doubles_only_its_own_line(st_link, monkeypatch):
    """Three lines placed together, the middle one's truncation height cut
    to a twentieth: only that line fails the check at c + iT, doubling five
    times and redoing its first level alone, then joins the others' next
    levels; they keep their heights, nodes and values to the bit."""
    mb = st_link._sf_mb
    lnz = (float(st_link.ln_cdf_argument(st_link.electrical_snr))
           + np.array([-60.0, 0.0, 60.0]))
    ref = mb.value_many(lnz)
    low = mb._truncation
    monkeypatch.setattr(mb, "_truncation", lambda c, k, row: low(
        c, k, row) / np.where(np.arange(np.size(c)) == 1, 20.0, 1.0))
    shapes = []
    log_family = mb._log_family
    monkeypatch.setattr(mb, "_log_family", lambda v, k, row: shapes.append(
        v.shape) or log_family(v, k, row))
    got = mb.value_many(lnz)
    assert shapes[:7] == [(3, 65)] + [(1, 65)] * 5 + [(3, 64)]
    np.testing.assert_array_equal(got[[0, 2]], ref[[0, 2]])
    assert got[1] == pytest.approx(ref[1], rel=1e-12)


def test_lone_integrand_group_accuracy_error_propagates():
    """Gamma(v), the integrand of exp(-z), at z = e^-5 and 40 in two groups
    under a 128-node budget: the group at 40 converges on its first two
    levels, the one at e^-5 does not, and its AccuracyError leaves the
    call with that group's estimate and error bound."""
    mb = MellinBarnesIntegral([(0.0, 1.0)])
    opts = EvalOptions(max_quadrature_nodes=128)
    lnz = np.array([-5.0, math.log(40.0)])
    assert mb.value(lnz[1], opts) == pytest.approx(math.exp(-40.0), rel=1e-10)
    with pytest.raises(AccuracyError) as exc:
        mb.value_many(lnz, opts)
    best, bound = exc.value.best_estimate, exc.value.error_bound
    assert best.shape == (1,) and 0.0 < bound < 1e-5
    assert best[0] == pytest.approx(math.exp(-math.exp(-5.0)), abs=10 * bound)


def test_value_many_rejects_non_finite_log_arguments(wt_link):
    """NaN and infinite log-arguments are a ParameterError before any
    grouping, alone or next to finite ones, for lone integrands and
    families; no arguments give an empty result."""
    lone = wt_link._sf_mb
    family = _laplace(wt_link._sf_mb, wt_link.tau, 1)
    for bad in (math.nan, math.inf, -math.inf):
        for args in ([bad], [0.0, bad]):
            with pytest.raises(ParameterError):
                lone.value_many(args)
            with pytest.raises(ParameterError):
                family.value_many(args, count=5)
    assert lone.value_many([]).shape == (0,)
    assert family.value_many([], count=5).shape == (5, 0)
    assert family.value_many([], count=10).shape == (10, 0)


def _family_cases(count=5):
    """(family base, per-member integrands, label): the Gamma(z - tau*v)
    families of the scenario-1 closed forms, `count` members each; past
    _FAMILY_RUN members, the st and wt spsc1 families only."""
    long = count > specfun._FAMILY_RUN
    for preset in ("st", "wt") if long else ("st", "mt", "wt"):
        for detection in (1, 2):
            link = dgg_from_preset(preset, eps=1.0, detection=detection,
                                   electrical_snr=100.0)
            tag = f"{preset}-{link.detection}"
            for kernel, slope, z0, name in (
                    (link._cdf_mb, link.tau, 1, "sop1 tail"),
                    (link._sf_mb, link.tau, 1, "spsc1 survival"),
                    (link._pdf_mb, link.tau / link.s, 0, "spsc1 density")):
                if long and name == "sop1 tail":
                    continue
                yield (_laplace(kernel, slope, z0),
                       [_laplace(kernel, slope, z)
                        for z in range(z0, z0 + count)],
                       f"{tag} {name}")


def test_family_matches_members():
    """One family evaluation equals evaluating every member on its own, for
    every scenario-1 family across 120 units of log-argument; and for 20
    members, whose runs of 8, 8 and 4 are each evaluated on the base raised
    by _members, on the st and wt spsc1 families.  There the wt IM/DD
    density's members from 13 on fall below double range at ln w = 50 and
    60, and a value under the engine's absolute tolerance is held to it."""
    ln_args = np.linspace(-60.0, 60.0, 13)
    for count, atol in ((5, 0.0), (20, specfun.TIGHT_OPTIONS.target_abs_tol)):
        for base, members, label in _family_cases(count):
            family = base.value_many(ln_args, count=count)
            assert family.shape == (count, ln_args.size)
            for k, member in enumerate(members):
                np.testing.assert_allclose(
                    family[k], member.value_many(ln_args), rtol=1e-12,
                    atol=atol, err_msg=f"{label}, member {k}")


def test_scaled_members_equal_the_log_recurrence():
    """A family's members come out of the node pass as complex values E_k
    on log-scales: at count 8, on three groups of 129 nodes from the axis
    up to each group's truncation height (the lines through the middle
    member's saddles at ln w = -60, 0 and 60), exp(scale_k) E_k equals the
    log recurrence exp(g_0 + sum_{j<k} log((a + j + b*v)/(a + j + 1)))
    within 1e-13 of member k's largest modulus, for every scenario-1 family
    on st/mt/wt x HD/IM-DD.  The st HD survival's and density's saddles at
    ln w = 60 sit on their brackets' margins, next to a pole."""
    ln_w, count, pinned = np.array([-60.0, 0.0, 60.0]), 8, 0
    for base, _, label in _family_cases(count):
        c = base._saddle(ln_w, (count - 1) // 2)
        T = base._truncation(c, count - 1)
        v = c[:, None] + 1j * np.linspace(0.0, 1.0, 129) * T[:, None]
        members, scale = base._log_family(v, count)
        assert members.shape == (count, 3, 129) and scale.shape == (count, 3)
        a, b = base._na[0, -1], base._nb[0, -1]
        j = a + np.arange(count - 1)[:, None, None]
        ref = base._log_integrand(v) + np.concatenate([
            np.zeros((1, *v.shape)),
            np.cumsum(np.log((j + b * v) / (j + 1)), axis=0)])
        np.testing.assert_allclose(np.abs(members).max(axis=-1), 1.0,
                                   rtol=1e-15, err_msg=label)
        err = np.abs(members - np.exp(ref - scale[..., None])).max()
        assert err <= 1e-13, (label, err)
        L, R = (float(e[0]) for e in base._strips(0))
        if label.startswith("st-hd ") and "sop1" not in label:
            margin = 0.02 * min(R - L, 1.0)
            assert c[2] == pytest.approx(R - margin, rel=1e-12), label
            pinned += 1
    assert pinned == 2


def _one_gamma_pass(mb, v):
    """The log-integrand at the nodes v as one loggamma call over every
    gamma factor, summed over the factor axis, less one log per linear
    factor."""
    lg = loggamma(mb._a[0] + mb._b[0] * v[..., None])
    n = len(mb.numer)
    g = lg[..., :n].sum(axis=-1) - lg[..., n:].sum(axis=-1)
    for a, b in mb.linear:
        g -= np.log(a + b * v)
    return g + mb._log_consts[0]


def test_log_integrand_equals_one_factor_at_a_time(st_link, fig5_cfg):
    """The node pass's log-integrand (one loggamma call per gamma factor,
    one log of the product of the linear factors) against the sum of its
    factors' logs, one at a time, for t up to 1e4: on the fig5 crossing (4
    gamma and 3 linear factors) and a meijer_g integrand with a
    denominator, the real part within 1e-13 (1 + |Re|) and the imaginary
    part within as much mod 2 pi.  With at most 3 gamma factors and one
    linear factor it is, bit for bit, one loggamma pass summed over the
    factor axis less one log, on a row array as on row 0."""
    from rfso_secrecy.specfun import _spec_factors
    t = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 400)])
    crossing = _crossing(fig5_cfg)
    assert (len(crossing.numer), len(crossing.linear)) == (4, 3)
    for mb in (crossing, _spec_factors(MeijerGSpec(
            2, 1, 2, 3, (0.3, 1.7), (0.1, 0.6, 0.9), 1.0))):
        v = mb._saddle(np.array([-5.0, 0.0, 5.0]), 0)[:, None] + 1j * t
        ref = np.full(v.shape, mb._log_consts[0], dtype=complex)
        for (a, b), sign in zip(mb.numer + mb.denom, mb._sign):
            ref += sign * loggamma(a + b * v)
        for a, b in mb.linear:
            ref -= np.log(a + b * v)
        got = mb._log_integrand(v)
        bound = 1e-13 * (1.0 + np.abs(ref.real))
        assert np.all(np.abs(got.real - ref.real) <= bound)
        phase = (got.imag - ref.imag + np.pi) % (2.0 * np.pi) - np.pi
        assert np.all(np.abs(phase) <= bound)
    for mb in (st_link._pdf_mb, _laplace(st_link._pdf_mb, st_link.tau, 3)):
        assert len(mb.numer) <= 3 and len(mb.linear) == 1
        v = mb._saddle(np.array([-5.0, 0.0, 5.0]), 0)[:, None] + 1j * t
        np.testing.assert_array_equal(mb._log_integrand(v),
                                      _one_gamma_pass(mb, v))
        np.testing.assert_array_equal(mb._log_integrand(
            v, np.zeros(3, dtype=int)), _one_gamma_pass(mb, v))


def _with_gamma_pairs(mb):
    """mb with each linear factor 1/(a + b*v) written as the gamma ratio
    Gamma(a + b*v)/Gamma(1 + a + b*v), ahead of the numerator factor a
    family raises."""
    return MellinBarnesIntegral(
        [*mb.linear, *mb.numer],
        [*mb.denom, *((a + 1.0, b) for a, b in mb.linear)],
        log_const=mb._log_consts[0])


def test_linear_factors_equal_gamma_pairs():
    """Every scenario-1 family, alone and as five members, equals the same
    integrand with its linear factors as explicit gamma pairs across 120
    units of log-argument: one is exact where the other differences two
    log-gammas."""
    ln_args = np.linspace(-60.0, 60.0, 13)
    for base, _, label in _family_cases():
        assert len(base.numer) == 3 and not base.denom
        pairs = _with_gamma_pairs(base)
        for count in (1, 5):
            np.testing.assert_allclose(
                base.value_many(ln_args, count=count),
                pairs.value_many(ln_args, count=count), rtol=1e-13, atol=0.0,
                err_msg=f"{label}, count {count}")


def test_linear_factor_residues_equal_gamma_pairs():
    """Residues with linear factors equal those of the explicit gamma pairs
    at simple poles (a linear factor's own, a gamma factor's) and at double
    poles (a linear pole on a gamma pole): Gamma(v) Gamma(5/2 - v) / ((1 +
    v)(1/2 + 2v)), and the wt sop1 tail block at eps^2/tau = 4, where the
    pointing pole meets Gamma(4 + v)'s first."""
    ln_z = np.array([-20.0, -3.0, 0.0, 7.5, 30.0])
    link = dgg_from_preset("wt", eps=math.sqrt(8.4), detection=1,
                           electrical_snr=100.0)
    for mb, poles, double in (
            (MellinBarnesIntegral([(0.0, 1.0), (2.5, -1.0)],
                                  linear=[(1.0, 1.0), (0.5, 2.0)]),
             [0.0, -0.25, -1.0, -2.0, 2.5], -1.0),
            (_laplace(link._cdf_mb, link.tau, 1),
             [-4.0, -4.5, -5.0, 1.0 / link.tau], -4.0)):
        got = mb.residue(poles, ln_z)
        assert np.all(got != 0.0)
        np.testing.assert_allclose(got, _with_gamma_pairs(mb).residue(
            poles, ln_z), rtol=1e-13, atol=0.0)
        # the double pole's residue carries ln z: it is not a simple one's
        i = poles.index(double)
        ratio = got[i] * np.exp(double * ln_z)
        assert np.ptp(ratio) > 1e-3 * np.abs(ratio).max()


def test_family_group_shares_one_gamma_pass(st_link, monkeypatch):
    """A family group evaluates the gamma factors once per trapezoid level,
    not once per member."""
    mb = _laplace(st_link._sf_mb, st_link.tau, 1)
    # one group, near the members' saddles: all of them stay on the contour
    ln_args = np.array([-61.0, -60.0, -59.0])
    members = [_laplace(st_link._sf_mb, st_link.tau, z).value_many(ln_args)
               for z in range(1, 6)]
    nodes = []
    log_integrand = mb._log_integrand
    monkeypatch.setattr(mb, "_log_integrand", lambda v, row: nodes.append(
        v.size) or log_integrand(v, row))
    # no member may leave the shared contour
    monkeypatch.setattr(MellinBarnesIntegral, "_members", None)
    family = mb.value_many(ln_args, count=5)
    levels = len(nodes) - 1
    assert levels >= 1
    # the trapezoid levels; the first holds the truncation height's check
    assert nodes == [65] + [64 << i for i in range(levels)]
    np.testing.assert_allclose(family, members, rtol=1e-12, atol=0.0)


def test_narrow_strip_family_values():
    """A family whose first member's strip (0, eps) is as narrow as the
    strong-pointing-error CDF integrands': every member on the mapped
    trapezoid; exact values Gamma(beta) (1 + z)^-beta / (1 + eps)_k, beta =
    eps + k (member k is divided by (a + 1)_k, a = eps the base offset)."""
    ln_args = np.log([0.5, 2.0])
    for eps in (5e-7, 1e-10):
        base = MellinBarnesIntegral([(0.0, 1.0), (eps, -1.0)])
        family = base.value_many(ln_args, TIGHT, count=3)
        for k in range(3):
            ref = (math.gamma(eps + 1) / (eps + k)
                   * (1.0 + np.exp(ln_args)) ** -(eps + k))
            np.testing.assert_allclose(family[k], ref, rtol=1e-12, atol=0.0,
                                       err_msg=f"eps {eps}, member {k}")


def test_mpmath_cross_check_dense_parameters(st_link):
    """Strong-turbulence CDF G-value against an arbitrary-precision oracle."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    paper = paper_dgg_form(st_link)
    k = len(paper.j4)
    for gamma in (3.0, 40.0):
        ln_x = st_link.ln_cdf_argument(gamma)
        spec = MeijerGSpec(k, 1, st_link.s + 1, k + 1, (1.0, *paper.j3),
                           (*paper.j4, 0.0), math.exp(ln_x))
        ref = float(mp.meijerg([[1.0], paper.j3], [paper.j4, [0.0]],
                               mp.exp(ln_x)))
        assert meijer_g(spec, TIGHT) == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# robustness and contracts
# ---------------------------------------------------------------------------

def test_log_domain_robustness_dense_parameters(mt_link_imdd):
    """The mt IM/DD CDF (84 lower parameters in the paper's G-form), SNR
    ratios across 16 decades: finite, sane.

    The raw G arguments span exp(+-800) here, far outside double range, so
    the sweep runs through the engine's log-argument interface (the one the
    channel CDF uses); the float-argument front end is exercised on the
    paper's G-form where the argument is representable.
    """
    link = mt_link_imdd
    ratios = np.logspace(-8, 8, 9)
    vals = dgg_cdf(link, ratios * link.electrical_snr)
    assert np.all(np.isfinite(vals))
    # the pointing-error tail is heavy (exponent eps^2/s), not exponential,
    # so even gamma/U = 1e-8 keeps a few 1e-4 of mass below it
    assert 0.0 < vals[0] < 1e-3
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(vals) >= -1e-12)
    # representable-argument case through the public front end
    paper = paper_dgg_form(link)
    k = len(paper.j4)
    x = math.exp(float(paper.ln_cdf_argument(link.electrical_snr)))
    spec = MeijerGSpec(k, 1, link.s + 1, k + 1, (1.0, *paper.j3),
                       (*paper.j4, 0.0), x)
    got = math.exp(paper.log_B3) * meijer_g(spec)
    assert got == pytest.approx(float(vals[4]), rel=1e-9)


def test_determinism_and_permutation_invariance(st_link):
    link, paper = st_link, paper_dgg_form(st_link)
    k, x = len(paper.j4), 0.37
    spec = MeijerGSpec(k, 1, link.s + 1, k + 1, (1.0, *paper.j3),
                       (*paper.j4, 0.0), x)
    v1 = meijer_g(spec)
    v2 = meijer_g(spec)
    assert v1 == v2  # bit-identical
    b_perm = tuple(reversed(paper.j4)) + (0.0,)
    spec_p = MeijerGSpec(k, 1, link.s + 1, k + 1, (1.0, *paper.j3), b_perm,
                         x)
    assert meijer_g(spec_p) == v1  # parameter groups are order-free


def test_pole_collision_rejected():
    with pytest.raises(PoleCollisionError):
        MeijerGSpec(1, 1, 1, 1, (1.0,), (0.0,), 1.0)
    with pytest.raises(PoleCollisionError):
        MeijerGSpec(1, 1, 1, 1, (2.0,), (0.0,), 1.0)


def test_interlaced_poles_rejected():
    spec = MeijerGSpec(1, 1, 1, 1, (1.7,), (0.0,), 1.0)  # passes validation
    with pytest.raises(DegenerateParameterError):
        meijer_g(spec)


def test_narrow_strip_arc_contour():
    # admissible strip of width 5e-7, on the same mapped trapezoid as any
    # other strip; exact value: Gamma(1-a+b) z^b (1+z)^(a-b-1)
    eps = 5e-7
    a = 1.0 - eps
    for z in (0.5, 2.0):
        spec = MeijerGSpec(1, 1, 1, 1, (a,), (0.0,), z)
        ref = math.exp(math.lgamma(eps)) * (1.0 + z) ** (a - 1.0)
        assert meijer_g(spec, TIGHT) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("beta", [1e-3, 1e-4, 1e-5, 1e-8, 1e-12, 1e-16])
def test_narrow_strip_gamma_pair(beta):
    """Gamma(v) Gamma(beta - v): the line runs between two poles a distance
    beta apart, and the mapped trapezoid resolves them in a few levels
    however narrow the strip; exact value Gamma(beta) (1 + z)^-beta."""
    mb = MellinBarnesIntegral([(0.0, 1.0), (beta, -1.0)])
    z = np.array([0.5, 2.0, 50.0])
    ref = math.gamma(beta) * (1.0 + z) ** -beta
    np.testing.assert_allclose(mb.value_many(np.log(z)), ref,
                               rtol=1e-13, atol=0.0)


def test_unresolvable_strip_raises():
    """A strip a few ulps wide puts the line on a pole, and a subnormal one
    overflows the map's height ratio T/d: both raise the typed error of a
    strip with no separating contour.  A strip 1e-300 wide still
    evaluates."""
    for numer in ([(-1.0, 1.0), (1.0 + 5e-15, -1.0)],
                  [(0.0, 1.0), (1e-310, -1.0)]):
        with pytest.raises(DegenerateParameterError):
            MellinBarnesIntegral(numer).value(0.0)
    mb = MellinBarnesIntegral([(0.0, 1.0), (1e-300, -1.0)])
    assert mb.value(math.log(2.0)) == pytest.approx(
        math.gamma(1e-300) * 3.0 ** -1e-300, rel=1e-13)


def test_wt_survival_group_node_count(monkeypatch):
    """A wt HD survival group at a log-argument the oracle_quad workload's
    quadrature reaches: its line passes d = 0.059 from the nearest pole and
    runs to T = 21.5 (T/d = 363), where a uniform trapezoid in t needs 4097
    nodes.  The mapped one takes 513, the truncation height's check
    included; the value is G^{4,0}_{2,4}(z | 1, j3; j4, 0) by
    mpmath.meijerg at 50 digits."""
    link = dgg_from_preset("wt", eps=1.0, detection=1, electrical_snr=100.0)
    mb = link._sf_mb
    nodes = []
    log_integrand = mb._log_integrand
    monkeypatch.setattr(mb, "_log_integrand", lambda v, row: nodes.append(
        v.size) or log_integrand(v, row))
    out = mb.value(-16.16985022502494)
    assert sum(nodes) <= 513
    assert out == pytest.approx(146.539715467697320726020585032, rel=1e-12)


def test_spread_group_masks_cancelling_arguments(monkeypatch):
    """Fifteen wt HD survival arguments (ln z 4.68 to 8.33) whose values run
    from 4e-3 down to 2e-45, as the quadrature oracles' batched nodes give:
    no shared contour serves them all, and the saddle rule splits them into
    six groups with nothing masked.  Forced into one group on the median
    argument's saddle (every argument's grouping saddle set to it), the
    arguments whose sums cancel on that line leave the convergence test:
    _value_group masks them, value_many sends each to its own saddle, the
    call takes a few hundred gamma-pass nodes (264,480 when such a group
    doubled to the node budget, raised AccuracyError and was split), and
    every value equals a one-at-a-time evaluation."""
    link = dgg_from_preset("wt", eps=1.0, detection=1, electrical_snr=100.0)
    mb = link._sf_mb
    lnz = np.array([4.677, 4.801, 4.889, 4.935, 4.954, 5.001, 5.098, 5.248,
                    5.451, 5.713, 6.042, 6.448, 6.947, 7.561, 8.328])
    ref = np.array([mb.value(x) for x in lnz])
    assert ref[-1] < 1e-40 < 1e-3 < ref[0]
    # on the class: the pairs on their own saddles run on a copy of mb
    groups = []
    value_group = MellinBarnesIntegral._value_group

    def recorded(self, z, size, *args):
        out = value_group(self, z, size, *args)
        groups.append((self is mb, list(size), int(out[1].sum())))
        return out

    monkeypatch.setattr(MellinBarnesIntegral, "_value_group", recorded)
    np.testing.assert_allclose(mb.value_many(lnz), ref, rtol=1e-12, atol=0.0)
    assert groups == [(True, [8, 2, 2, 1, 1, 1], 0)]
    groups.clear()
    saddle = MellinBarnesIntegral._saddle

    def median_saddle(self, z, *args, **kwargs):
        c = saddle(self, z, *args, **kwargs)
        return np.full(c.size, c[c.size // 2]) if self is mb else c

    monkeypatch.setattr(MellinBarnesIntegral, "_saddle", median_saddle)
    nodes = []
    log_integrand = MellinBarnesIntegral._log_integrand
    monkeypatch.setattr(MellinBarnesIntegral, "_log_integrand",
                        lambda self, v, row: nodes.append(v.size)
                        or log_integrand(self, v, row))
    got = mb.value_many(lnz)
    (lone, size, far), own = groups[0], groups[1:]
    assert lone and size == [15] and far > 0
    assert own == [(False, [1] * far, 0)]
    assert sum(nodes) < 4096
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_narrow_strip_double_pole_matches_mpmath():
    """Gamma(v) Gamma(eps - v)^2 has the strip (0, eps) and double poles
    at eps + k: G^{1,2}_{2,1}(z | 1-eps, 1-eps; 0)."""
    mp = pytest.importorskip("mpmath")
    for eps in (5e-7, 1e-10):
        mb = MellinBarnesIntegral([(0.0, 1.0), (eps, -1.0), (eps, -1.0)])
        with mp.workdps(30):
            a = 1 - mp.mpf(eps)
            for z in (0.3, 1.0, 2.0, 7.0):
                ref = float(mp.meijerg([[a, a], []], [[0], []], z))
                assert mb.value(math.log(z), TIGHT) == pytest.approx(
                    ref, rel=1e-12)


# Gamma ladders (p, q, slope) with exact rational parameters, and poles where
# several of their factors meet: orders 2 and 3, non-unit slopes, ladders
# that collapse with a constant and a shift, and denominator poles that lower
# the order (case "lowered": 3 - 1 at v = -1).
_MULTIPOLE_CASES = {
    "slopes 2, 1/2": ([(1, F(3, 5), 2), (1, F(3, 20), F(1, 2)),
                       (1, F(13, 10), -1)], [(1, F(2, 5), 1)],
                      [F(-3, 10), F(-23, 10)]),
    "order 3": ([(1, 0, 1), (1, 1, 1), (1, 3, 3), (1, F(1, 4), -1)],
                [(1, F(1, 3), 1)], [F(-1), F(-2)]),
    "lowered": ([(1, 0, 1), (1, 1, 1), (1, 2, 2), (1, F(7, 10), F(-1, 3))],
                [(1, F(1, 2), F(1, 2)), (1, F(1, 5), 1)], [F(-1), F(-2)]),
    "ladders": ([(2, F(6, 5), 1), (1, F(1, 10), 1), (1, F(1, 2), -1)],
                [(3, F(1, 2), 1)], [F(-11, 10), F(-21, 10)]),
}


def _mp_residue(mp, numer, denom, pole, ln_z, r=F(1, 20), n=64):
    """(1/2 pi i) times the integral of the expanded ladders' integrand
    around a circle of radius r about the pole: the trapezoid rule, exact
    to about (r / distance to the next pole)^n."""
    def q(x):
        return mp.mpf(x.numerator) / x.denominator

    def f(v):
        out = mp.exp(-v * ln_z)
        for p, a, b in numer:
            for i in range(p):
                out *= mp.gamma(q(F(a + i, p)) + q(F(b)) * v)
        for p, a, b in denom:
            for i in range(p):
                out /= mp.gamma(q(F(a + i, p)) + q(F(b)) * v)
        return out

    w = [mp.expjpi(2 * mp.mpf(j) / n) for j in range(n)]
    return (q(r) / n * mp.fsum(f(q(pole) + q(r) * u) * u for u in w)).real


@pytest.mark.parametrize("case", sorted(_MULTIPOLE_CASES))
def test_multiple_pole_residues_match_mpmath(case):
    mp = pytest.importorskip("mpmath")
    numer, denom, poles = _MULTIPOLE_CASES[case]
    def expanded(ladders):
        return [(float(F(a + i, p)), float(b))
                for p, a, b in ladders for i in range(p)]
    mb = MellinBarnesIntegral(expanded(numer), expanded(denom))
    ln_z = np.array([-20.0, -3.0, 0.0, 7.5, 30.0, 60.0])
    got = mb.residue([float(v) for v in poles], ln_z)
    assert got.shape == (len(poles), ln_z.size)
    with mp.workdps(50):
        ref = np.array([[float(_mp_residue(mp, numer, denom, v, mp.mpf(x)))
                         for x in ln_z] for v in poles])
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)


def test_accuracy_error_carries_best_estimate():
    opts = EvalOptions(max_quadrature_nodes=64)
    with pytest.raises(AccuracyError) as exc:
        meijer_g(MeijerGSpec(1, 0, 0, 1, (), (0.0,), 40.0), opts)
    assert exc.value.best_estimate is not None


def test_family_group_accuracy_error_falls_back_to_member_saddles(
        monkeypatch):
    """The wt HD survival's scenario-1 Laplace family (z = 1..5, eps = 1,
    U = 100) at ln w = 10 under a 128-node budget: the shared contour does
    not converge, so the group masks every pair, the middle member's too,
    whose saddle carries the line; each member then converges on its own
    saddle within that budget, to the family's default-budget values."""
    link = dgg_from_preset("wt", eps=1.0, detection=1, electrical_snr=100.0)
    mb = _laplace(link._sf_mb, link.tau, 1)
    ref = mb.value_many([10.0], specfun.TIGHT_OPTIONS, count=5)
    passes = []
    value_group = MellinBarnesIntegral._value_group

    def recorded(self, lnz, size, c, T, options, count=1, row=0):
        out, far = value_group(self, lnz, size, c, T, options, count, row)
        passes.append((count, c.size, "masked" if far.all() else "converged"))
        return out, far

    monkeypatch.setattr(MellinBarnesIntegral, "_value_group", recorded)
    got = mb.value_many([10.0], replace(specfun.TIGHT_OPTIONS,
                                        max_quadrature_nodes=128), count=5)
    # the pairs go through one pass, each pair its own group
    assert passes == [(5, 1, "masked"), (1, 5, "converged")]
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)


def test_invalid_options_rejected():
    with pytest.raises(ParameterError):
        EvalOptions(target_abs_tol=0.0)
    with pytest.raises(ParameterError):
        EvalOptions(max_quadrature_nodes=32)


def test_invalid_spec_rejected():
    with pytest.raises(ParameterError):
        MeijerGSpec(2, 0, 0, 1, (), (0.0,), 1.0)  # m > q
    with pytest.raises(ParameterError):
        MeijerGSpec(1, 0, 0, 1, (), (0.0,), -1.0)  # bad argument
    with pytest.raises(ParameterError):
        MeijerGSpec(1, 0, 1, 1, (), (0.0,), 1.0)  # a-list length mismatch
