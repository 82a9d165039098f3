"""Fading-channel models for the two hops.

RF hop: eta-mu multipath fading (integer mu).  Its SNR is the sum of two
independent Gamma(mu) variables whose scales are in the ratio eta : 1.  A
link's law is a list of Gamma terms (weight w, integer shape n, rate lam):
density sum w lam^n g^(n-1) e^(-lam g) / Gamma(n), survival sum w Q(n,
lam g).  The two-branch list has 2mu terms at the two decay rates, with
weights of alternating sign that grow like powers of 1/K, K = (1/eta -
eta)/4; the positive Gamma mixture of Moschopoulos (1985), with rates a <=
b, is SNR ~ Gamma(2mu + J, rate b), J ~ NegBin(mu, a/b), and converges
fastest where the two-branch list cancels (eta near 1).  The closed-form
secrecy sums read one list per link, point evaluations recompute the
points where the two-branch sum cancels from the mixture.

FSO hop: double generalized Gamma (DGG) turbulence with a pointing-error
factor and either heterodyne (s=1) or intensity-modulation/direct-detection
(s=2) conversion to electrical SNR.  Its density, CDF and survival are
Mellin-Barnes integrals built from the law's own Mellin transform, two
gamma factors and one or two linear factors each, evaluated through
:mod:`rfso_secrecy.specfun`.

All stored SNRs are linear; dB conversion happens at the CLI boundary only.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from math import exp, isfinite, lgamma, log, log1p, sqrt
from typing import Callable, Iterator, NamedTuple

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln, xlogy

from .errors import ParameterError, UnsupportedCaseError
from .specfun import MellinBarnesIntegral

__all__ = [
    "EtaMuLink",
    "DggLink",
    "RngStream",
    "TURBULENCE_PRESETS",
    "eta_mu_pdf",
    "eta_mu_cdf",
    "eta_mu_sample",
    "dgg_pdf",
    "dgg_cdf",
    "dgg_sample",
    "dgg_sample_inverse_cdf",
    "special_case",
]

# Surrogate for the eta -> 0 (or infinity) limits of the table reductions.
# The distance of the eta-mu law to the Rayleigh / Nakagami-m limit laws
# shrinks like eta, so 1e-6 keeps the sup-error of the reductions near 1e-6;
# there the two-branch coefficients have kappa = 1 (no cancellation).
ETA_LIMIT_SURROGATE = 1e-6

# The pointing-error ratio's domain: eps^2 and 1/eps^2 are finite normal
# doubles from EPS_MIN on.  The laws carry ln eps^2 through the log domain
# (the pointing factor and ln_norm), whose rounding grows like ln eps: CDF +
# survival - 1 reaches 3e-14 at EPS_MAX and 1e-13 near eps = 1e70, and past
# 1e135 the integrals ~ 1/eps^2 sink below TIGHT_OPTIONS' absolute tolerance.
EPS_MIN, EPS_MAX = 2.0**-511, 2.0**64

# The two-branch sums lose about log10(sum|term| / |sum|) digits to
# cancellation; up to this ratio their rounding error stays near 1e-13
# relative.  Points whose terms exceed it use the Gamma mixture.
_COND_MAX = 1e3
# Truncation tolerance of the mixture series: absolute on the neglected
# NegBin weight, relative on the neglected terms where those decay.
_SERIES_TOL = 2.0**-56

# Turbulence fits for the DGG model.  lambda1/lambda2 must equal a1/a2
# exactly for the law's integer slopes, so a1 is stored as that ratio (the
# quoted field fits 1.86 and 2.17 are what the integer pairs 17/9 and 28/13
# approximate).
TURBULENCE_PRESETS = {
    "st": dict(a1=17.0 / 9.0, a2=1.0, b1=0.5, b2=1.8,
               omega1=1.51, omega2=1.0, lambda1=17, lambda2=9),
    "mt": dict(a1=28.0 / 13.0, a2=1.0, b1=0.55, b2=2.35,
               omega1=1.58, omega2=0.97, lambda1=28, lambda2=13),
    "wt": dict(a1=2.1, a2=2.1, b1=4.0, b2=4.5,
               omega1=1.07, omega2=1.06, lambda1=1, lambda2=1),
}


@dataclass
class RngStream:
    """Deterministic random stream: identical (seed, stream_id) pairs
    reproduce identical sample sequences."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        self._gen = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=self.seed,
                                   spawn_key=(self.stream_id,))))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def substreams(self, count: int) -> Iterator["RngStream"]:
        for i in range(count):
            yield RngStream(self.seed, self.stream_id + i)


class EtaMuLink:
    """One eta-mu faded RF hop (main channel or eavesdropper).

    eta is the in-phase/quadrature power ratio, mu the integer number of
    multipath cluster pairs, avg_snr the linear mean SNR.  eta = 1 (|K| <=
    1e-9) is rejected: the two-branch weights are singular there.

    terms = (w, n, lam), the Gamma-term list of the closed-form secrecy
    sums, has shapes 1..N in order at each rate (zero weights included).
    The two-branch weights sum to 1, but the sum of their magnitudes grows
    without bound as eta -> 1 and with mu, and sums over them lose that
    many digits; past 1e3 the link takes the mixture Gamma(2mu + J, rate
    b), J ~ NegBin(mu, p), a <= b the decay rates, p = a/b, truncated where
    the weight left is below 2^-56.  Point evaluations apply the same test
    point by point (_evaluate).  The mixture's survival and CDF are
    accurate to about 1e-17 absolute and its density to that times b; in
    the lower tail the CDF and density keep full relative accuracy.
    """

    def __init__(self, eta: float, mu: int, avg_snr: float):
        if not 0 < eta < np.inf:
            raise ParameterError("eta must be positive and finite")
        if not (0 < mu < np.inf and mu == int(mu)):
            raise ParameterError(
                "mu must be a positive integer; the exponential-sum expansion "
                "of the eta-mu density does not admit non-integer mu")
        if not 0 < avg_snr < np.inf:
            raise ParameterError("avg_snr must be positive and finite")
        self.eta = float(eta)
        self.mu = int(mu)
        self.avg_snr = float(avg_snr)
        self.k = (2.0 + 1.0 / self.eta + self.eta) / 4.0
        self.bigK = (1.0 / self.eta - self.eta) / 4.0
        if abs(self.bigK) <= 1e-9:
            raise ParameterError(
                "eta too close to 1: the two-branch expansion degenerates "
                "(use a value away from 1, e.g. the table-reduction surrogates)")
        mu = self.mu
        k, K, phi = self.k, self.bigK, self.avg_snr
        self.decay = {1: 2.0 * mu * (k - K) / phi, 2: 2.0 * mu * (k + K) / phi}

        def finite(value: float) -> float:
            if not isfinite(value):
                raise OverflowError
            return value

        # the weight of shape mu - v at rate decay[N] is coeff_A * Y[N, v];
        # float ** and exp raise on overflow, a product overflows to inf
        name = "coeff_A"
        w = []
        try:
            A = finite(k**mu / (K**mu * exp(lgamma(mu))))
            for N, shifted in ((1, k - K), (2, k + K)):
                for v in range(mu):
                    name = f"Y[{N}, {v}]"
                    sgn = (-1.0)**v if N == 1 else (-1.0)**mu
                    w.append(finite(A * finite(sgn * (
                        exp(lgamma(mu + v) - lgamma(v + 1)) * K**(-v)
                        / (2.0**(mu + v) * shifted**(mu - v))))))
        except (OverflowError, ZeroDivisionError):
            raise ParameterError(
                f"eta = {self.eta}, mu = {mu}: the two-branch coefficient "
                f"{name} is outside double range (mu too large, or eta too "
                "close to 0, 1 or infinity)") from None
        shapes = np.arange(mu, 0, -1)
        self._branches = (np.array(w), np.concatenate([shapes, shapes]),
                          np.repeat([self.decay[1], self.decay[2]], mu))
        # the decay rates are in the ratio eta : 1
        self._mix_rate = max(self.decay.values())
        self._mix_p = min(self.eta, 1.0 / self.eta)
        if np.abs(self._branches[0]).sum() <= _COND_MAX:
            self.terms = self._branches
        else:
            weights = np.array([wj for wj, _ in self._negbin()])
            self.terms = (np.concatenate([np.zeros(2 * mu - 1), weights]),
                          np.arange(1, 2 * mu + weights.size),
                          np.full(2 * mu - 1 + weights.size, self._mix_rate))

    def with_avg_snr(self, avg_snr: float) -> "EtaMuLink":
        return EtaMuLink(self.eta, self.mu, avg_snr)

    def survival(self, gamma) -> np.ndarray:
        """P(SNR > gamma); complement of the CDF, shared with the secrecy sums."""
        g = np.asarray(gamma, dtype=float)
        out = self._evaluate("sf", g)
        # the two-branch weights sum to 1 only to rounding, and the mixture
        # drops a weight below 2^-56; pin the exact endpoint
        return np.where(g == 0.0, 1.0, out)[()]

    def _evaluate(self, kind: str, g: np.ndarray):
        """Density ("pdf"), distribution ("cdf") or survival ("sf") at g:
        the two-branch sum where its terms' magnitudes stay within _COND_MAX
        of it, the mixture elsewhere (and where the two-branch terms
        overflow).  A scalar g gives a scalar.  g = infinity gives the
        law's limit (density and survival 0, distribution 1) exactly; a
        negative or NaN g raises ParameterError.

        CDF points that fail the check are first retried in the
        lower-incomplete-gamma two-branch form, which on links away from
        eta = 1 cancels only near g = 0.  The mixture needs about
        mu/p + b*g terms, p = min(eta, 1/eta), so it cannot take the lower
        tail of links far from eta = 1: at the eta = 1e-6 surrogate, b*g
        reaches 5e5 where 1 - survival cancels.
        """
        if not np.all(g >= 0):
            raise ParameterError("gamma must be >= 0 (and not NaN)")
        top = g == np.inf
        if np.any(top):
            out = self._evaluate(kind, np.where(top, 0.0, g))
            return np.where(top, float(kind == "cdf"), out)[()]
        out, mag = self._two_branch(kind, g)
        bad = ~(mag <= _COND_MAX * np.abs(out))
        if not np.any(bad):
            return out
        out, mag, bad, gs = np.atleast_1d(out, mag, bad, g)
        if kind == "cdf":
            out[bad], mag[bad] = self._two_branch("lower", gs[bad])
            bad = ~(mag <= _COND_MAX * np.abs(out))
        if np.any(bad):
            out[bad] = self._mixture(kind, gs[bad])
        return out.reshape(g.shape)[()]

    def _two_branch(self, kind: str, g: np.ndarray):
        """Two-branch sum over its terms (w, n, lam) and the sum of the
        terms' magnitudes.  kind "cdf" is 1 - survival; "lower" is the same
        CDF as sum w P(n, lam g)."""
        if kind == "cdf":
            out, mag = self._two_branch("sf", g)
            return 1.0 - out, 1.0 + mag
        w, n, lam = self._branches
        t = _gamma_terms(kind, w, n, lam, lam * g[..., None])
        return t.sum(axis=-1), np.abs(t).sum(axis=-1)

    def _negbin(self):
        """NegBin(mu, p) weights w_j with the ratios r_j = w_{j+1}/w_j =
        q(mu + j)/(j + 1), up to the first j whose remaining weight is below
        _SERIES_TOL: r_j falls with j, so once r_j < 1 the weights left sum
        to at most w_j r_j/(1 - r_j)."""
        mu, q = self.mu, 1.0 - self._mix_p
        w, j = self._mix_p**mu, 0
        while True:
            r = q * (mu + j) / (j + 1)
            yield w, r
            if r < 1.0 and w * r <= _SERIES_TOL * (1.0 - r):
                return
            w *= r
            j += 1

    def _mixture(self, kind: str, g: np.ndarray) -> np.ndarray:
        """Sum over j of w_j * (Gamma(2mu + j, rate b) pdf, cdf or sf at g),
        w_j = NegBin(mu, p) weights, truncated as in _negbin.  For the pdf
        and cdf the term ratio is also at most r_j x/n (n the current shape,
        x = b g; n + 1 for the cdf), which bounds the terms left relative to
        the sum where x is small."""
        b, mu = self._mix_rate, self.mu
        x = b * g
        out = np.zeros_like(x)
        for j, (w, r) in enumerate(self._negbin()):
            n = 2 * mu + j
            t = _gamma_terms(kind, w, n, b, x)
            out += t
            if kind != "sf":
                R = r * x / (n + 1 if kind == "cdf" else n)
                if np.all((R < 1.0)
                          & (t * R <= _SERIES_TOL * (1.0 - R) * out)):
                    break
        return out

    def __repr__(self):
        return (f"EtaMuLink(eta={self.eta}, mu={self.mu}, "
                f"avg_snr={self.avg_snr})")


def _gamma_terms(kind: str, w, n, lam, x):
    """w times the Gamma(n, rate lam) density ("pdf"), survival ("sf") or
    distribution (otherwise) at g = x/lam."""
    if kind == "pdf":
        return w * lam * np.exp(xlogy(n - 1, x) - x - gammaln(n))
    return w * (gammaincc(n, x) if kind == "sf" else gammainc(n, x))


def eta_mu_pdf(link: EtaMuLink, gamma) -> np.ndarray:
    """Density of the instantaneous SNR."""
    return link._evaluate("pdf", np.asarray(gamma, dtype=float))


def eta_mu_cdf(link: EtaMuLink, gamma) -> np.ndarray:
    """Distribution of the instantaneous SNR."""
    return link._evaluate("cdf", np.asarray(gamma, dtype=float))


class _Sampler(NamedTuple):
    """A sampler split into its generator calls and a map.

    draws(generator, shape, n) makes the calls for n SNRs of data whose
    shape(data) is `shape`, and yields their standard variates in chunks of
    rows; snr(data, chunk) maps one chunk to the SNRs, where data is what
    the map reads of a link: the link itself or, for the inverse-CDF draw,
    its CDF table, built before any draw (_cdf_table).  The map reads only
    key(data).  Data of one shape make the same calls, so a draw from one
    generator state serves them all (montecarlo._count_hits)."""

    shape: Callable
    key: Callable
    draws: Callable
    snr: Callable


def _draw(gen: np.random.Generator, draws, shape, n: int, maps: dict):
    """One draw of n rows from gen, mapped once per key of maps, which
    holds (snr, data) for each key; the result holds, for each key, the
    SNRs snr gives for data.  The variates are freed on return."""
    out = {key: [] for key in maps}
    for chunk in draws(gen, shape, n):
        for key, (snr, data) in maps.items():
            out[key].append(snr(data, chunk))
    return {key: v[0] if len(v) == 1 else np.concatenate(v)
            for key, v in out.items()}


def _sample(sampler: _Sampler, data, rng: RngStream, n: int) -> np.ndarray:
    """n SNRs of data (a link, or its table) from the sampler's draws on
    rng."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    snr, = _draw(rng.generator, sampler.draws, sampler.shape(data), n,
                 {None: (sampler.snr, data)}).values()
    return snr


def _normal_pairs(gen: np.random.Generator, mu: int, n: int):
    """Two (m, 2mu) standard-normal blocks, in chunks of m <= 2^20 rows."""
    for done in range(0, n, 1 << 20):
        m = min(n - done, 1 << 20)
        yield (gen.standard_normal((m, 2 * mu)),
               gen.standard_normal((m, 2 * mu)))


# Rows per tile of the eta-mu map: a tile's squares stay in cache while
# its columns are added.
_TILE_ROWS = 8192


def _add_columns(x: np.ndarray) -> np.ndarray:
    """The columns of x added in numpy's add.reduce order along a row
    (pairwise_sum), so the sums equal x.sum(axis=1) bit for bit: left to
    right below 8 columns; from 8 to 128, 8 partial sums over the columns
    j mod 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    columns left over; past 128, where numpy splits a row in halves, numpy's
    own sum.  The partial sums are paired as they are made, so at most four
    live."""
    k = x.shape[1]
    if k > 128:
        return x.sum(axis=1)
    if k < 8:
        s = _add_in_turn(x, range(k))
        return s.copy() if k == 1 else s
    tail = k - k % 8
    stack = []
    for m in range(8):
        stack.append(_add_in_turn(x, range(m, tail, 8)))
        while m & 1:
            top = stack.pop()
            stack[-1] = stack[-1] + top
            m >>= 1
    s, = stack
    for j in range(tail, k):
        s += x[:, j]
    return s


def _add_in_turn(x: np.ndarray, cols: range) -> np.ndarray:
    """The columns cols of x added left to right; one column is a view."""
    if len(cols) == 1:
        return x[:, cols[0]]
    s = x[:, cols[0]] + x[:, cols[1]]
    for j in cols[2:]:
        s += x[:, j]
    return s


def _eta_mu_snr(link: EtaMuLink, normals) -> np.ndarray:
    """The SNRs of one chunk: the in-phase block scaled to variance eta*c
    and the quadrature block to c (gen.normal(0, sigma) is 0 + sigma*z),
    squared, and each block's squares summed by rows as x.sum(axis=1) sums
    them (_add_columns), one tile of rows at a time."""
    c = link.avg_snr / (2.0 * link.mu * (1.0 + link.eta))
    zp, zq = normals
    n, k = zp.shape
    out = np.empty(n)
    t = np.empty((min(n, _TILE_ROWS), k))
    for lo in range(0, n, _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, n)
        x = t[:hi - lo]
        np.multiply(sqrt(link.eta * c), zp[lo:hi], out=x)
        x *= x
        p = _add_columns(x)
        np.multiply(sqrt(c), zq[lo:hi], out=x)
        x *= x
        np.add(p, _add_columns(x), out=out[lo:hi])
    return out


_ETA_MU = _Sampler(shape=lambda link: link.mu,
                   key=lambda link: (link.eta, link.mu, link.avg_snr),
                   draws=_normal_pairs, snr=_eta_mu_snr)


def eta_mu_sample(link: EtaMuLink, rng: RngStream, n: int) -> np.ndarray:
    """Draw SNRs from the physical Gaussian construction.

    The density with parameter mu corresponds to 2*mu in-phase plus 2*mu
    quadrature Gaussian components (mu counts cluster *pairs*); drawing only
    mu of each yields a visibly different law, so mind the factor of two.
    Variances are scaled so the sample mean equals avg_snr.
    """
    return _sample(_ETA_MU, link, rng, n)


class _Factors(NamedTuple):
    """The factors of a DGG law's Mellin-Barnes integrand, as
    MellinBarnesIntegral takes them."""

    numer: tuple
    denom: tuple
    linear: tuple


class DggLink:
    """One DGG-faded FSO hop with pointing error and detection law.

    Shape pairs (a1, b1), (a2, b2) with scales omega1, omega2 describe the
    two irradiance factors; lambda1/lambda2 (integers) must equal a1/a2
    exactly.  eps is the pointing-error ratio, detection "hd" (s=1) or
    "imdd" (s=2), electrical_snr U the linear electrical SNR of the hop:
    SNR = U (I/E[I])^s for the irradiance I.

    The laws come from their Mellin transform, by the generalized-Gamma
    moments Gamma(b + r/a)/Gamma(b) b^(-r/a) and the pointing factor's
    eps^2/(eps^2 + r); with tau = a2*lambda1, so that 1/a1 = lambda2/tau,

        E[(SNR/U)^(tau*v/s)] = exp(ln_norm - v*ln_scale) K(v) / tau,
        K(v) = Gamma(b1 + lambda2 v) Gamma(b2 + lambda1 v) / (eps^2/tau + v),

    ln_scale = tau ln E[I] + lambda2 ln b1 + lambda1 ln b2 (free of the
    omega scales).  The pointing factor 1/(eps^2/tau + v) is the paper's
    gamma ratio Gamma(eps^2/tau + v)/Gamma(1 + eps^2/tau + v) (DLMF
    5.5.1), kept as a linear factor of the integrand.  Mellin
    inversion gives the density from K(v) (_pdf_factors, at
    ln_pdf_argument), the CDF and survival from K(s*v) times 1/(-v) and
    1/v, the ratios Gamma(-/+v)/Gamma(1 -/+ v) (_cdf_factors, _sf_factors,
    at ln_cdf_argument): two gamma factors and one or two linear ones
    each.  A law's integrand (_pdf_mb, _cdf_mb, _sf_mb) is built on its
    first evaluation; the closed forms read only its factors.  The paper's
    G-form expands each factor Gamma(q + p*v) into a ladder of p unit-slope
    factors; the link keeps the factors, and the tests keep the G-form as
    their reference.
    """

    def __init__(self, a1, a2, b1, b2, omega1, omega2, lambda1, lambda2,
                 eps, detection, electrical_snr):
        for name, val in (("a1", a1), ("a2", a2), ("b1", b1), ("b2", b2),
                          ("omega1", omega1), ("omega2", omega2), ("eps", eps),
                          ("electrical_snr", electrical_snr)):
            if not 0 < val < np.inf:
                raise ParameterError(f"{name} must be positive and finite")
        if not all(0 < lam < np.inf and lam == int(lam)
                   for lam in (lambda1, lambda2)):
            raise ParameterError("lambda1, lambda2 must be positive integers")
        if abs(lambda1 * a2 - lambda2 * a1) > 1e-9 * lambda1 * a2:
            raise ParameterError(
                "lambda1/lambda2 must equal a1/a2 (the law's gamma slopes "
                "lambda2 = tau/a1, lambda1 = tau/a2 require it exactly)")
        if detection in ("hd", 1):
            self.detection, self.s = "hd", 1
        elif detection in ("imdd", 2):
            self.detection, self.s = "imdd", 2
        else:
            raise ParameterError("detection must be 'hd' (s=1) or 'imdd' (s=2)")

        self.a1, self.a2 = float(a1), float(a2)
        self.b1, self.b2 = float(b1), float(b2)
        self.omega1, self.omega2 = float(omega1), float(omega2)
        self.lambda1, self.lambda2 = int(lambda1), int(lambda2)
        self.eps = float(eps)
        if not EPS_MIN <= self.eps < EPS_MAX:
            raise ParameterError(
                f"eps must be in [{EPS_MIN:.6g}, {EPS_MAX:.6g}) (2^-511 to "
                "2^64), where eps^2 and 1/eps^2 are normal doubles and the "
                "laws keep their relative accuracy")
        self.electrical_snr = float(electrical_snr)

        lam1, lam2, e2 = self.lambda1, self.lambda2, self.eps**2
        b1, b2, tau = self.b1, self.b2, self.a2 * lam1
        self.tau = tau

        def kernel(k):
            # the factors of K(k*v): two gamma factors, and the pointing
            # factor 1/(eps^2/tau + k*v) first among the linear ones
            return ((b1, k * lam2), (b2, k * lam1)), ((e2 / tau, k),)

        numer, linear = kernel(1.0)
        self._pdf_factors = _Factors(numer, (), linear)
        numer, linear = kernel(float(self.s))
        self._cdf_factors = _Factors(numer, (), linear + ((0.0, -1.0),))
        self._sf_factors = _Factors(numer, (), linear + ((0.0, 1.0),))
        self._integrands = {}
        self.ln_norm = log(e2) - lgamma(b1) - lgamma(b2)
        self.ln_scale = tau * (-log1p(1.0 / e2)
                               + lgamma(b1 + lam2 / tau) - lgamma(b1)
                               + lgamma(b2 + lam1 / tau) - lgamma(b2))

    def _integrand(self, law: str) -> MellinBarnesIntegral:
        """The integrand of law "pdf", "cdf" or "sf", built on its first
        use into the holder that with_electrical_snr's copies share
        (setdefault: threads that build it at once all get the first)."""
        mb = self._integrands.get(law)
        if mb is None:
            mb = self._integrands.setdefault(law, MellinBarnesIntegral(
                *getattr(self, f"_{law}_factors")))
        return mb

    _pdf_mb = property(lambda self: self._integrand("pdf"))
    _cdf_mb = property(lambda self: self._integrand("cdf"))
    _sf_mb = property(lambda self: self._integrand("sf"))

    # -- derived scale quantities -------------------------------------------

    def shape_key(self):
        return (self.a1, self.a2, self.b1, self.b2, self.omega1, self.omega2,
                self.lambda1, self.lambda2, self.eps)

    def with_electrical_snr(self, u: float) -> "DggLink":
        """The link at electrical SNR u: the integrands, ln_norm and
        ln_scale depend only on the shape, eps and detection, so the new
        link shares this one's."""
        u = self._checked_snr(u)
        link = copy(self)
        link.electrical_snr = u
        return link

    @staticmethod
    def _checked_snr(u: float) -> float:
        """u as an electrical SNR, or ParameterError unless it is positive
        and finite: the domain of with_electrical_snr."""
        if not 0 < u < np.inf:
            raise ParameterError("electrical_snr must be positive and finite")
        return float(u)

    def with_eps(self, eps: float) -> "DggLink":
        return DggLink(self.a1, self.a2, self.b1, self.b2, self.omega1,
                       self.omega2, self.lambda1, self.lambda2, eps,
                       self.detection, self.electrical_snr)

    def ln_pdf_argument(self, gamma):
        return (self.ln_scale
                + (self.tau / self.s) * (np.log(gamma) - log(self.electrical_snr)))

    def ln_cdf_argument(self, gamma):
        return (self.s * self.ln_scale
                + self.tau * (np.log(gamma) - log(self.electrical_snr)))

    def sampler_scale(self) -> float:
        """E[I], the scale c of the physical sampler SNR = U*(I/c)^s, from
        the generalized-Gamma moments Gamma(b + 1/a)/Gamma(b) b^(-1/a) of the
        two irradiance factors and the pointing factor's eps^2/(eps^2 + 1)."""
        return exp(lgamma(self.b1 + 1.0 / self.a1) - lgamma(self.b1)
                   - log(self.b1) / self.a1
                   + lgamma(self.b2 + 1.0 / self.a2) - lgamma(self.b2)
                   - log(self.b2) / self.a2 - log1p(1.0 / self.eps**2))

    def __repr__(self):
        return (f"DggLink(a1={self.a1:.6g}, a2={self.a2:.6g}, b1={self.b1}, "
                f"b2={self.b2}, lambda=({self.lambda1},{self.lambda2}), "
                f"eps={self.eps}, detection={self.detection!r}, "
                f"U={self.electrical_snr:.6g})")


def dgg_pdf(link: DggLink, gamma) -> np.ndarray:
    """Density of the electrical SNR on the FSO hop (0 at infinity)."""
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    if not np.all(g > 0):
        raise ParameterError("gamma must be > 0 (and not NaN)")
    out = np.zeros_like(g)
    finite = g < np.inf
    x = g[finite]
    vals = link._pdf_mb.value_many(link.ln_pdf_argument(x))
    out[finite] = exp(link.ln_norm) / link.s * vals / x
    return out if np.ndim(gamma) else float(out[0])


def _dgg_distribution(link: DggLink, gamma, mb: MellinBarnesIntegral,
                      at_zero: float) -> np.ndarray:
    """exp(ln_norm)/tau times the value of mb at ln_cdf_argument(gamma),
    gamma >= 0: the CDF (mb = link._cdf_mb, at_zero = 0) or the survival
    (link._sf_mb, 1), exact at the endpoints gamma = 0 and infinity; NaN is
    rejected."""
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    if not np.all(g >= 0):
        raise ParameterError("gamma must be >= 0 (and not NaN)")
    out = np.where(g == 0, at_zero, 1.0 - at_zero)
    inside = (g > 0) & (g < np.inf)
    if np.any(inside):
        vals = mb.value_many(link.ln_cdf_argument(g[inside]))
        out[inside] = exp(link.ln_norm) / link.tau * vals
    return out if np.ndim(gamma) else float(out[0])


def dgg_cdf(link: DggLink, gamma) -> np.ndarray:
    """Distribution of the electrical SNR on the FSO hop."""
    return _dgg_distribution(link, gamma, link._cdf_mb, 0.0)


def dgg_survival(link: DggLink, gamma) -> np.ndarray:
    """P(SNR > gamma) through the complementary-CDF G-form (not 1 - cdf), so
    the deep upper tail keeps relative accuracy."""
    return _dgg_distribution(link, gamma, link._sf_mb, 1.0)


def _dgg_key(link: DggLink):
    return link.shape_key(), link.s, link.electrical_snr


def _gamma_pair_uniform(gen: np.random.Generator, shape, n: int):
    """Standard-Gamma draws of shapes b1 and b2, then uniforms, n each."""
    b1, b2 = shape
    yield gen.standard_gamma(b1, n), gen.standard_gamma(b2, n), gen.random(n)


def _dgg_snr(link: DggLink, variates) -> np.ndarray:
    """SNR = U*(Ix*Iy*Ip/c)^s from the standard variates: the irradiances
    Gamma(b, 1/b)^(1/a) (gen.gamma(b, 1/b) is (1/b)*standard_gamma(b)) and
    the pointing factor V^(1/eps^2).  The powers and products are taken in
    place on the map's own two arrays; the variates serve every link of
    the draw and are left as they are."""
    g1, g2, v = variates
    x = np.multiply(1.0 / link.b1, g1)
    x **= 1.0 / link.a1
    y = np.multiply(1.0 / link.b2, g2)
    y **= 1.0 / link.a2
    x *= y
    np.copyto(y, v)
    y **= 1.0 / link.eps**2
    x *= y
    x /= link.sampler_scale()
    x **= link.s
    x *= link.electrical_snr
    return x


_DGG = _Sampler(shape=lambda link: (link.b1, link.b2), key=_dgg_key,
                draws=_gamma_pair_uniform, snr=_dgg_snr)


def dgg_sample(link: DggLink, rng: RngStream, n: int) -> np.ndarray:
    """Physical sampler: product of two generalized-Gamma irradiances and a
    pointing-error factor V^(1/eps^2), mapped through SNR = U*(I/c)^s."""
    return _sample(_DGG, link, rng, n)


def _uniforms(gen: np.random.Generator, shape, n: int):
    """n uniforms on [0, 1): gen.uniform() is 0 + 1*random()."""
    yield gen.random(n)


def _cdf_table(link: DggLink, grid_points: int = 4096):
    """The link's CDF on a log grid of SNRs, as (F, grid) with F made
    nondecreasing: the inverse-CDF sampler's table."""
    # the grid's ends, searched no further than the finite positive doubles:
    # where the first candidate fails, the last one decides in one call
    # whether any does (each candidate is its own contour group, so a call
    # over the whole ladder costs as much as the walk)
    first, last = np.nextafter(0.0, 1.0), np.finfo(float).max
    med = link.electrical_snr
    lo, hi = max(med * 1e-12, first), min(med * 1e12, last)
    if dgg_cdf(link, lo) > 1e-9:
        if dgg_cdf(link, first) > 1e-9:
            raise ParameterError(
                f"{link!r}: the CDF stays above 1e-9 down to the smallest "
                "positive double, so no grid spans it; use dgg_sample")
        lo = max(lo * 1e-3, first)
        while dgg_cdf(link, lo) > 1e-9:
            lo = max(lo * 1e-3, first)
    if dgg_cdf(link, hi) < 1.0 - 1e-9:
        if dgg_cdf(link, last) < 1.0 - 1e-9:
            raise ParameterError(
                f"{link!r}: the CDF stays below 1 - 1e-9 up to the largest "
                "double, so no grid spans it; use dgg_sample")
        hi = min(hi * 1e3, last)
        while dgg_cdf(link, hi) < 1.0 - 1e-9:
            hi = min(hi * 1e3, last)
    grid = np.exp(np.linspace(log(lo), log(hi), grid_points))
    return np.maximum.accumulate(dgg_cdf(link, grid)), grid


def _inverse_cdf_snr(table, u) -> np.ndarray:
    """The SNRs at CDF levels u, interpolated in a link's CDF table."""
    return np.interp(u, *table)


# its data is a link's CDF table, whose identity is its key: the steps
# that hold a table keep it alive for the whole walk
_DGG_INVERSE_CDF = _Sampler(shape=lambda table: None, key=id,
                            draws=_uniforms, snr=_inverse_cdf_snr)


def dgg_sample_inverse_cdf(link: DggLink, rng: RngStream, n: int,
                           grid_points: int = 4096) -> np.ndarray:
    """Inverse-CDF sampler through the analytic distribution.

    Slower and grid-limited (~1e-4 accuracy), but independent of the physical
    product construction: disagreement between the two samplers localizes a
    defect to the distribution model rather than the secrecy algebra.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    return _sample(_DGG_INVERSE_CDF, _cdf_table(link, grid_points), rng, n)


def special_case(name: str, **params):
    """Named reductions of the two fading families.

    RF side: Rayleigh / NakagamiM (eta -> 0 surrogate), OneSidedGaussian and
    Hoyt are rejected (mu = 0.5 is not representable).  FSO side:
    DoubleWeibull, GammaGamma, KDistribution; Lognormal is rejected (its
    a -> 0, b -> infinity limit is numerically unreachable here).
    """
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key == "rayleigh":
        return EtaMuLink(ETA_LIMIT_SURROGATE, 1, params["avg_snr"])
    if key in ("nakagamim", "nakagami"):
        m = params["m"]
        if m != int(m):
            raise UnsupportedCaseError(
                "Nakagami-m requires integer m here (mu must be integer)")
        return EtaMuLink(ETA_LIMIT_SURROGATE, int(m), params["avg_snr"])
    if key in ("onesidedgaussian", "hoyt", "nakagamiq"):
        raise UnsupportedCaseError(
            f"{name}: requires mu = 0.5, which the integer-mu expansion "
            "cannot represent")
    if key == "doubleweibull":
        return DggLink(a1=params.get("a1", 2.1), a2=params.get("a2", 2.1),
                       b1=1.0, b2=1.0,
                       omega1=params.get("omega1", 1.07),
                       omega2=params.get("omega2", 1.06),
                       lambda1=params.get("lambda1", 1),
                       lambda2=params.get("lambda2", 1),
                       eps=params["eps"], detection=params["detection"],
                       electrical_snr=params["electrical_snr"])
    if key == "gammagamma":
        return DggLink(a1=1.0, a2=1.0, b1=params["b1"], b2=params["b2"],
                       omega1=1.0, omega2=1.0, lambda1=1, lambda2=1,
                       eps=params["eps"], detection=params["detection"],
                       electrical_snr=params["electrical_snr"])
    if key == "kdistribution":
        return DggLink(a1=1.0, a2=1.0, b1=1.0, b2=params.get("b2", 1.8),
                       omega1=1.0, omega2=1.0, lambda1=1, lambda2=1,
                       eps=params["eps"], detection=params["detection"],
                       electrical_snr=params["electrical_snr"])
    if key == "lognormal":
        raise UnsupportedCaseError(
            "Lognormal: the a1, a2 -> 0 with b1, b2 -> infinity limit is "
            "numerically unreachable in this parameterization")
    raise UnsupportedCaseError(f"unknown special case {name!r}")


def dgg_from_preset(preset: str, eps: float, detection,
                    electrical_snr: float) -> DggLink:
    """Construct a DGG link from one of the st/mt/wt turbulence presets."""
    try:
        kw = TURBULENCE_PRESETS[preset.lower()]
    except KeyError:
        raise ParameterError(f"unknown turbulence preset {preset!r}") from None
    return DggLink(eps=eps, detection=detection,
                   electrical_snr=electrical_snr, **kw)
