"""Meijer G engine: identities, robustness, error contracts."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfso_secrecy.errors import (AccuracyError, DegenerateParameterError,
                                 ParameterError, PoleCollisionError)
from rfso_secrecy import dgg_from_preset, specfun
from rfso_secrecy.specfun import (EvalOptions, MeijerGSpec,
                                  MellinBarnesIntegral, delta_expand,
                                  delta_expand_list, log_gamma_complex,
                                  meijer_g)

TIGHT = EvalOptions(target_abs_tol=1e-300, target_rel_tol=1e-12)


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


def test_residue_and_contour_paths_agree():
    # separated non-integer-spaced lower parameters, small argument: the
    # series fast path applies; a huge separation tolerance forces the
    # contour route instead
    spec = MeijerGSpec(2, 0, 0, 2, (), (0.3, 0.0), 0.25)
    fast = meijer_g(spec, TIGHT)
    forced = meijer_g(spec, EvalOptions(target_abs_tol=1e-300,
                                        target_rel_tol=1e-12,
                                        pole_separation_tol=10.0))
    assert fast == pytest.approx(forced, rel=1e-10)


@pytest.mark.parametrize("preset", ["st", "mt", "wt"])
@pytest.mark.parametrize("detection", [1, 2])
def test_gauss_collapsed_ladders_match_expanded(preset, detection):
    """A DGG link's collapsed integrands (one gamma factor per ladder)
    equal the integrands over the expanded parameter vectors."""
    link = dgg_from_preset(preset, eps=1.0, detection=detection,
                           electrical_snr=100.0)
    j1 = ([link.eps**2 / link.tau] + delta_expand(link.lambda2, link.b1)
          + delta_expand(link.lambda1, link.b2))
    j3 = delta_expand(link.s, link.j2)
    j4 = delta_expand_list(link.s, j1)
    expanded = {
        "_pdf_mb": MellinBarnesIntegral([(j, 1.0) for j in j1],
                                        [(link.j2, 1.0)]),
        "_cdf_mb": MellinBarnesIntegral(
            [(j, 1.0) for j in j4] + [(0.0, -1.0)],
            [(1.0, -1.0)] + [(j, 1.0) for j in j3]),
        "_sf_mb": MellinBarnesIntegral(
            [(j, 1.0) for j in j4] + [(0.0, 1.0)],
            [(1.0, 1.0)] + [(j, 1.0) for j in j3]),
    }
    gamma = link.electrical_snr * np.logspace(-4, 2, 9)
    for name, reference in expanded.items():
        collapsed = getattr(link, name)
        assert len(collapsed.numer) + len(collapsed.denom) <= 6
        ln_args = (link.ln_pdf_argument(gamma) if name == "_pdf_mb"
                   else link.ln_cdf_argument(gamma))
        np.testing.assert_allclose(collapsed.value_many(ln_args),
                                   reference.value_many(ln_args),
                                   rtol=1e-12, atol=0.0)


# mt IM/DD survival G-values, eps = 1, U = 20 dB, at gamma/U = 1e2, 1e3, 1e4:
# mpmath.meijerg([[], [1, *j3]], [[*j4, 0], []], exp(ln_x)) at 50 digits
# (about 15 s each, hence frozen)
_MT_IMDD_SURVIVAL_G = {1e2: 7.3199992406939065e27,
                       1e3: 1.7478010025467406e24,
                       1e4: 1.4629247408843119e16}


def test_truncation_height_covers_large_slope_mass(mt_link_imdd):
    """Deep upper tail of the mt IM/DD survival G-value: its slope mass (84
    ladder entries) leaves the Stirling truncation height too low by itself;
    frozen mpmath values at 50 digits."""
    link = mt_link_imdd
    for ratio, ref in _MT_IMDD_SURVIVAL_G.items():
        ln_x = float(link.ln_cdf_argument(ratio * link.electrical_snr))
        assert link._sf_mb.value(ln_x) == pytest.approx(ref, rel=1e-12)


def _saddle_cases():
    """(integrand, label) for every contour integrand family of a link."""
    from rfso_secrecy import EtaMuLink, Scenario2Config
    from rfso_secrecy.secrecy import _crossing, _sop1_tail
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
                yield _sop1_tail(link, z1), tag + " sop1 tail"
            yield _crossing(cfg), tag + " crossing"


def _bisect(f, lo, hi, args=(), **_):
    """Reference root finder: plain bisection to the last representable
    midpoint."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid, *args) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_saddle_matches_reference_bisection(monkeypatch):
    """Brent's saddle lies inside the strip and on the root that bisection
    of the same bracket finds, for every integrand family across 120
    units of log-argument."""
    from rfso_secrecy import specfun
    ln_args = np.linspace(-60.0, 60.0, 13)
    cases = list(_saddle_cases())
    got = [[mb._saddle(x) for x in ln_args] for mb, _ in cases]
    monkeypatch.setattr(specfun, "brentq", _bisect)
    for (mb, label), saddles in zip(cases, got):
        L, R = mb.strip
        for x, c in zip(ln_args, saddles):
            assert L < c < R, (label, x)
            ref = mb._saddle(x)
            assert abs(c - ref) <= 1e-10 * (1.0 + abs(c)), (label, x)


def test_group_stops_at_first_passing_doubling(st_link, monkeypatch):
    """A contour group evaluates the nodes of the first doubling whose
    change passes the tolerance, and returns that level's values: no
    confirming doubling."""
    mb = st_link._sf_mb
    # one group: the log-arguments span less than 4
    ln_args = (st_link.ln_cdf_argument(st_link.electrical_snr)
               + np.array([-1.0, 0.0, 1.0]))
    c = mb._saddle(float(np.median(ln_args)))
    T = mb._truncation(c)
    # reference: the trapezoid levels 64, 128, ... in s on [0, S], on the
    # line t = alpha*sinh(s), alpha the distance from c to the nearest pole
    x = mb._na + mb._nb * c
    alpha = min(float(np.min(x / np.abs(mb._nb))), T)
    S = np.arcsinh(T / alpha)
    opts = EvalOptions()
    n = 64
    s = np.linspace(0.0, S, n + 1)
    v = c + 1j * alpha * np.sinh(s)
    jac = alpha * np.cosh(s)
    jac[[0, -1]] *= 0.5
    g = mb._log_integrand(v)
    vals = mb._assemble(v, g, jac * (S / n), ln_args)
    while True:
        n *= 2
        s_new = (np.arange(n // 2) + 0.5) * (S / (n // 2))
        v_new = c + 1j * alpha * np.sinh(s_new)
        v = np.concatenate([v, v_new])
        jac = np.concatenate([jac, alpha * np.cosh(s_new)])
        g = np.concatenate([g, mb._log_integrand(v_new)])
        prev, vals = vals, mb._assemble(v, g, jac * (S / n), ln_args)
        if np.all(np.abs(vals - prev)
                  <= np.maximum(opts.target_abs_tol,
                                opts.target_rel_tol * np.abs(vals))):
            break
    n_pass = n

    nodes = []
    log_integrand = mb._log_integrand
    monkeypatch.setattr(mb, "_truncation", lambda _c: T)
    monkeypatch.setattr(mb, "_log_integrand",
                        lambda v: nodes.append(v.size) or log_integrand(v))
    out = mb.value_many(ln_args, opts)
    assert sum(nodes) == n_pass + 1
    np.testing.assert_array_equal(out, vals)


def _family_cases():
    """(family base, per-member integrands, label): the Gamma(z - tau*v)
    families of the scenario-1 closed forms, five members each."""
    from rfso_secrecy.secrecy import _spsc1_density, _spsc1_survival, _sop1_tail
    for preset in ("st", "mt", "wt"):
        for detection in (1, 2):
            link = dgg_from_preset(preset, eps=1.0, detection=detection,
                                   electrical_snr=100.0)
            tag = f"{preset}-{link.detection}"
            yield (_sop1_tail(link, 1),
                   [_sop1_tail(link, z) for z in range(1, 6)],
                   tag + " sop1 tail")
            yield (_spsc1_survival(link, 1),
                   [_spsc1_survival(link, z) for z in range(1, 6)],
                   tag + " spsc1 survival")
            yield (_spsc1_density(link, 0),
                   [_spsc1_density(link, z) for z in range(0, 5)],
                   tag + " spsc1 density")


def test_family_matches_members():
    """One family evaluation equals evaluating every member on its own, for
    every scenario-1 family across 120 units of log-argument."""
    ln_args = np.linspace(-60.0, 60.0, 13)
    for base, members, label in _family_cases():
        family = base.value_many(ln_args, count=len(members))
        assert family.shape == (len(members), ln_args.size)
        for k, member in enumerate(members):
            np.testing.assert_allclose(family[k], member.value_many(ln_args),
                                       rtol=1e-12, atol=0.0,
                                       err_msg=f"{label}, member {k}")


def test_family_group_shares_one_gamma_pass(st_link, monkeypatch):
    """A family group evaluates the gamma factors once per trapezoid level
    (plus the truncation grid), not once per member."""
    from rfso_secrecy.secrecy import _spsc1_survival
    mb = _spsc1_survival(st_link, 1)
    # one group, near the members' saddles: all of them stay on the contour
    ln_args = np.array([-61.0, -60.0, -59.0])
    members = [_spsc1_survival(st_link, z).value_many(ln_args)
               for z in range(1, 6)]
    nodes = []
    log_integrand = mb._log_integrand
    monkeypatch.setattr(mb, "_log_integrand",
                        lambda v: nodes.append(v.size) or log_integrand(v))
    # no member may leave the shared contour
    monkeypatch.setattr(MellinBarnesIntegral, "_member", None)
    family = mb.value_many(ln_args, count=5)
    levels = len(nodes) - 2
    assert levels >= 1
    assert nodes == ([len(specfun._TRUNCATION_GRID) + 1, 65]
                     + [64 << i for i in range(levels)])
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
    for gamma in (3.0, 40.0):
        ln_x = st_link.ln_cdf_argument(gamma)
        spec = MeijerGSpec(st_link.delta_order, 1, st_link.s + 1,
                           st_link.delta_order + 1,
                           (1.0, *st_link.j3), (*st_link.j4, 0.0),
                           math.exp(ln_x))
        ref = float(mp.meijerg([[1.0], st_link.j3], [st_link.j4, [0.0]],
                               mp.exp(ln_x)))
        assert meijer_g(spec, TIGHT) == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# robustness and contracts
# ---------------------------------------------------------------------------

def test_log_domain_robustness_dense_parameters(mt_link_imdd):
    """84 lower parameters, SNR ratios across 16 decades: finite, sane.

    The raw G arguments span exp(+-800) here, far outside double range, so
    the sweep runs through the engine's log-argument interface (the same one
    the channel CDF uses); the float-argument front end is exercised where
    the argument is representable.
    """
    link = mt_link_imdd
    ratios = np.logspace(-8, 8, 9)
    ln_args = link.ln_cdf_argument(ratios * link.electrical_snr)
    vals = math.exp(link.log_B3) * link._cdf_mb.value_many(ln_args)
    assert np.all(np.isfinite(vals))
    # the pointing-error tail is heavy (exponent eps^2/s), not exponential,
    # so even gamma/U = 1e-8 keeps a few 1e-4 of mass below it
    assert 0.0 < vals[0] < 1e-3
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(vals) >= -1e-12)
    # representable-argument case through the public front end
    x = math.exp(float(link.ln_cdf_argument(link.electrical_snr)))
    spec = MeijerGSpec(link.delta_order, 1, link.s + 1, link.delta_order + 1,
                       (1.0, *link.j3), (*link.j4, 0.0), x)
    got = math.exp(link.log_B3) * meijer_g(spec)
    assert got == pytest.approx(float(vals[4]), rel=1e-9)


def test_determinism_and_permutation_invariance(st_link):
    link = st_link
    x = 0.37
    spec = MeijerGSpec(link.delta_order, 1, link.s + 1, link.delta_order + 1,
                       (1.0, *link.j3), (*link.j4, 0.0), x)
    v1 = meijer_g(spec)
    v2 = meijer_g(spec)
    assert v1 == v2  # bit-identical
    b_perm = tuple(reversed(link.j4)) + (0.0,)
    spec_p = MeijerGSpec(link.delta_order, 1, link.s + 1,
                         link.delta_order + 1, (1.0, *link.j3), b_perm, x)
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
    # admissible strip of width 5e-7 triggers the arc-deformed contour;
    # exact value: Gamma(1-a+b) z^b (1+z)^(a-b-1)
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
    nodes.  The mapped one takes at most 513; the value is
    G^{4,0}_{2,4}(z | 1, j3; j4, 0) by mpmath.meijerg at 50 digits."""
    link = dgg_from_preset("wt", eps=1.0, detection=1, electrical_snr=100.0)
    mb = link._sf_mb
    nodes = []
    log_integrand = mb._log_integrand
    monkeypatch.setattr(mb, "_log_integrand",
                        lambda v: nodes.append(v.size) or log_integrand(v))
    out = mb.value(-16.16985022502494)
    # the first gamma pass is the truncation grid
    assert nodes[0] == len(specfun._TRUNCATION_GRID) + 1
    assert sum(nodes[1:]) <= 513
    assert out == pytest.approx(146.539715467697320726020585032, rel=1e-12)


def test_spread_group_masks_cancelling_arguments(monkeypatch):
    """One group of wt HD survival arguments (ln z 4.68 to 8.33, a span
    under 4) whose values run from 4e-3 down to 2e-45, as the quadrature
    oracles' batched nodes give: no shared contour serves them all.  The
    arguments whose sums cancel on it leave the convergence test and go to
    their own saddles, so the group takes a few hundred gamma-pass nodes
    (264,480 when it doubled to the node budget, raised AccuracyError and
    was split), and every value equals a one-at-a-time evaluation."""
    link = dgg_from_preset("wt", eps=1.0, detection=1, electrical_snr=100.0)
    mb = link._sf_mb
    lnz = np.array([4.677, 4.801, 4.889, 4.935, 4.954, 5.001, 5.098, 5.248,
                    5.451, 5.713, 6.042, 6.448, 6.947, 7.561, 8.328])
    ref = np.array([mb.value(x) for x in lnz])
    assert ref[-1] < 1e-40 < 1e-3 < ref[0]
    nodes = []
    log_integrand = mb._log_integrand
    monkeypatch.setattr(mb, "_log_integrand",
                        lambda v: nodes.append(v.size) or log_integrand(v))
    got = mb.value_many(lnz)
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
    mb = MellinBarnesIntegral.from_ladders(
        [(p, float(a), float(b)) for p, a, b in numer],
        [(p, float(a), float(b)) for p, a, b in denom])
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
