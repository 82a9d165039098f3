"""Meijer G-function evaluation and gamma-family helpers.

The evaluator works on the Mellin-Barnes representation

    (1/2*pi*i) * int  prod Gamma(a_j + B_j v) / prod Gamma(c_j + D_j v) * z^(-v) dv

taken along a vertical line whose abscissa is placed at the (real-axis)
saddle point of the integrand.  Saddle placement is what preserves relative
accuracy when the result is exponentially small; a fixed abscissa loses all
significant digits to cancellation as soon as |log z| is large.  The line
integral over v = c + i*t is a trapezoid sum in s under t = alpha*sinh(s),
alpha the distance from c to the nearest pole, which puts the nodes where
the poles pinch the line.  That is the one path for every strip, however
narrow; a strip too narrow for a double-precision line between its poles
raises DegenerateParameterError.

Plain Meijer G-functions are the special case where every slope is +/-1;
meijer_g evaluates them on the same contour (there is no residue-series
path: the residues serve only the asymptotes).  The DGG parameter vectors
are gamma ladders prod_{i<p} Gamma((q+i)/p + v), up to 56 entries long;
Gauss's multiplication formula collapses each into one factor Gamma(q +
p*v) of slope p (MellinBarnesIntegral.from_ladders).
The Laplace-transform kernels Gamma(z - tau*v) have non-integer slope; the
engine treats every slope identically, and evaluates integrands that differ
only in the integer z as one family on a shared contour.  Gamma products
accumulate in the log domain, where G-values far outside double range stay
representable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, factorial, lgamma, log, pi
from typing import Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import (digamma, gammaln, gammasgn, loggamma, polygamma,
                           zeta)

from .errors import (AccuracyError, DegenerateParameterError, ParameterError,
                     PoleCollisionError)

__all__ = [
    "EvalOptions",
    "MeijerGSpec",
    "MellinBarnesIntegral",
    "TIGHT_OPTIONS",
    "delta_expand",
    "delta_expand_list",
    "log_gamma_complex",
    "meijer_g",
]

# Off-axis probe used when a denominator gamma argument sits near a real pole.
_PROBE = 0.25j
# Multiples of Stirling's truncation height tried until the integrand has
# decayed (up to 170x).
_TRUNCATION_GRID = 1.25 ** np.arange(24)
# A family member whose trapezoid sum cancels more than this (sum w|f| over
# |sum w Re f|) on the shared contour is evaluated on its own saddle: its
# rounding noise, ~1e-13 times this factor, would pass the tolerance test.
_MAX_CANCELLATION = 16.0
# Families share one contour per run of this many members: the top member
# sets the height and node count, which grow with its index (O(K^2) work).
_FAMILY_RUN = 8


@dataclass(frozen=True)
class EvalOptions:
    """Accuracy controls for a single Meijer G / Mellin-Barnes evaluation."""

    target_abs_tol: float = 1e-12
    target_rel_tol: float = 1e-10
    max_quadrature_nodes: int = 1 << 18
    pole_separation_tol: float = 1e-8

    def __post_init__(self):
        if not (self.target_abs_tol > 0 and self.target_rel_tol > 0
                and self.pole_separation_tol > 0):
            raise ParameterError("all tolerances must be strictly positive")
        if self.max_quadrature_nodes < 64:
            raise ParameterError("max_quadrature_nodes must be >= 64")


# Options used by the channel/secrecy formulas: effectively relative-error
# driven, so probabilities stay accurate next to 0 and 1.
TIGHT_OPTIONS = EvalOptions(target_abs_tol=1e-280, target_rel_tol=1e-11)


@dataclass(frozen=True)
class MeijerGSpec:
    """Order and parameters of one Meijer G evaluation G^{m,n}_{p,q}(z | a; b)."""

    m: int
    n: int
    p: int
    q: int
    a_params: tuple
    b_params: tuple
    argument: float

    def __post_init__(self):
        object.__setattr__(self, "a_params", tuple(float(x) for x in self.a_params))
        object.__setattr__(self, "b_params", tuple(float(x) for x in self.b_params))
        if min(self.m, self.n, self.p, self.q) < 0:
            raise ParameterError("orders m, n, p, q must be non-negative")
        if self.m > self.q or self.n > self.p:
            raise ParameterError("Meijer G orders require m <= q and n <= p")
        if len(self.a_params) != self.p or len(self.b_params) != self.q:
            raise ParameterError("parameter list lengths must equal p and q")
        if not (self.argument > 0):
            raise ParameterError("argument must be a positive real")
        for a in self.a_params[:self.n]:
            for b in self.b_params[:self.m]:
                d = a - b
                if d >= 0.5 and abs(d - round(d)) < 1e-12:
                    raise PoleCollisionError(
                        f"a={a} and b={b} differ by a positive integer; "
                        "the defining contour does not exist")


def log_gamma_complex(z: complex) -> complex:
    """Principal-branch log-gamma for complex z (poles rejected)."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise ParameterError(f"log-gamma pole at z={z.real}")
    return complex(loggamma(z))


def delta_expand(p: int, q: float) -> list:
    """[q/p, (q+1)/p, ..., (q+p-1)/p] -- the p-point arithmetic ladder."""
    if p != int(p) or p < 1:
        raise ParameterError("p must be a positive integer")
    p = int(p)
    return [(q + i) / p for i in range(p)]


def delta_expand_list(sigma: int, values: Sequence[float]) -> list:
    """Concatenation of delta_expand(sigma, x) over x in values."""
    values = list(values)
    if not values:
        raise ParameterError("values must be non-empty")
    out = []
    for x in values:
        out.extend(delta_expand(sigma, x))
    return out


class MellinBarnesIntegral:
    """A gamma-product contour integrand with positive real argument.

    numer / denom are sequences of (offset, slope) pairs, each standing for a
    factor Gamma(offset + slope*v).  The vertical-line integral converges iff
    the numerator slope mass exceeds the denominator's; the admissible strip
    is bounded by the rightmost ascending-factor pole and the leftmost
    descending-factor pole.  value / value_many raise when either condition
    fails; the residues exist regardless.
    """

    def __init__(self, numer, denom=()):
        self.numer = tuple((float(a), float(b)) for a, b in numer)
        self.denom = tuple((float(a), float(b)) for a, b in denom)
        if not self.numer:
            raise ParameterError("at least one numerator gamma factor required")
        if any(b == 0 for _, b in self.numer + self.denom):
            raise ParameterError("gamma factor slopes must be nonzero")
        L, R = -np.inf, np.inf
        for a, b in self.numer:
            if b > 0:
                L = max(L, -a / b)
            else:
                R = min(R, a / (-b))
        self.strip = (L, R)
        self.decay = (pi / 2.0) * (sum(abs(b) for _, b in self.numer)
                                   - sum(abs(b) for _, b in self.denom))
        # log-integrand terms _log_const - _ln_shift*v of collapsed ladders
        self._log_const = 0.0
        self._ln_shift = 0.0
        self._na = np.array([a for a, _ in self.numer])
        self._nb = np.array([b for _, b in self.numer])
        self._da = np.array([a for a, _ in self.denom])
        self._db = np.array([b for _, b in self.denom])

    @classmethod
    def from_ladders(cls, numer, denom=()):
        """The integrand whose factors are gamma ladders.

        Each entry (p, q) or (p, q, slope) of numer / denom stands for the
        ladder prod_{i<p} Gamma((q+i)/p + slope*v), slope 1 if omitted; p = 1
        is one plain factor.
        Gauss's multiplication formula (DLMF 5.5.6),

            prod_{i<p} Gamma(w + (q+i)/p)
                = (2 pi)^((p-1)/2) p^(1/2 - q - p*w) Gamma(p*w + q),

        collapses each ladder into the single factor Gamma(q + p*slope*v)
        times a constant and p^(-p*slope*v); values and residues equal those
        of the expanded ladders at the same log-arguments.
        """
        def collapse(ladders):
            factors, const, shift = [], 0.0, 0.0
            for p, q, *slope in ladders:
                if p != int(p) or p < 1:
                    raise ParameterError("ladder length p must be a positive "
                                         "integer")
                b = p * (slope[0] if slope else 1.0)
                factors.append((q, b))
                const += 0.5 * (p - 1) * log(2.0 * pi) + (0.5 - q) * log(p)
                shift += b * log(p)
            return factors, const, shift

        num, num_const, num_shift = collapse(numer)
        den, den_const, den_shift = collapse(denom)
        integral = cls(num, den)
        integral._log_const = num_const - den_const
        integral._ln_shift = num_shift - den_shift
        return integral

    def log_kernel(self, v: float) -> float:
        """log |prod Gamma(numer) / prod Gamma(denom)| at a real v: the
        log-integrand without z^-v."""
        return float(self._log_const - self._ln_shift * v
                     + sum(gammaln(a + b * v) for a, b in self.numer)
                     - sum(gammaln(a + b * v) for a, b in self.denom))

    def residue(self, poles, ln_arguments,
                tol: float = EvalOptions.pole_separation_tol):
        """Residues of the integrand at the distinct poles v0, shape (poles,
        arguments), for poles of any order.

        A factor Gamma(a + b*v) has a pole at v0 where a + b*v0 is within
        tol*|b| of some -k; the order m of v0 is the count of numerator
        factors with a pole there less that of denominator factors, and the
        residue is zero where m <= 0.  In delta = v - v0 a pole factor is
        (-1)^k (pi y / sin pi y) / (y Gamma(1 + k - y)), y = b*delta (DLMF
        5.5.3), with ln(pi y / sin pi y) = sum zeta(2n) y^(2n) / n (DLMF
        4.22.1); every log Gamma is a polygamma Taylor series (DLMF 5.15),
        and z^-v = z^-v0 e^(-delta ln z).  The integrand is then
        delta^-m exp(sum c_j delta^j), whose delta^(m-1) coefficient comes
        from e_n = sum j c_j e_(n-j) / n; at m = 1 it is 1.
        """
        v0 = np.atleast_1d(np.asarray(poles, dtype=float))[:, None]
        lnz = np.atleast_1d(np.asarray(ln_arguments, dtype=float))
        b = np.concatenate([self._nb, self._db])
        side = np.concatenate([np.ones(self._nb.size),
                               -np.ones(self._db.size)])
        x = np.concatenate([self._na, self._da]) + b * v0
        k = np.round(-x)
        pole = (k >= 0) & (np.abs(x + k) <= tol * np.abs(b))
        m = pole @ side
        # a pole factor adds (-1)^k / (k! b) to the delta^-m coefficient and
        # log Gamma(1 + k - y) to the series, a regular one Gamma(x) and
        # log Gamma(x + y); the logs add up one factor at a time
        xc = np.where(pole, k + 1.0, x)
        lg = gammaln(xc)
        lg = np.cumsum(np.concatenate([
            self._log_const - self._ln_shift * v0,
            side * np.where(pole, -lg - np.log(np.abs(b)), lg)], axis=1),
            axis=1)[:, -1:]
        sg = np.where(pole, np.where(k % 2, -1.0, 1.0) * np.sign(b),
                      gammasgn(xc)).prod(axis=1, keepdims=True)
        out = sg * np.exp(lg - v0 * lnz)
        order = int(m.max(initial=1))
        if order > 1:
            c = [None]
            for j in range(1, order):
                t = (np.where(pole, (-1.0) ** (j + 1), 1.0)
                     * polygamma(j - 1, xc) / factorial(j))
                if j % 2 == 0:
                    t = t + pole * 2.0 * zeta(j) / j
                c.append((side * t * b**j).sum(axis=1, keepdims=True))
            c[1] = c[1] - self._ln_shift - lnz
            e = [np.ones_like(out)]
            for n in range(1, order):
                e.append(sum(j * c[j] * e[n - j] for j in range(1, n + 1)) / n)
            out = out * np.stack(e)[np.maximum(m - 1, 0).astype(int),
                                    np.arange(m.size)]
        return np.where(m[:, None] > 0, out, 0.0)

    # -- contour placement -------------------------------------------------

    def _dlog(self, c: float, lnz: float, member: int = 0) -> float:
        """d/dc of the log-integrand magnitude of a family member on the
        real axis."""
        out = -lnz - self._ln_shift
        x = self._na + self._nb * c
        # numerator arguments are positive everywhere inside the strip
        out += float(self._nb @ digamma(np.maximum(x, 1e-12)))
        if self._da.size:
            xd = self._da + self._db * c + _PROBE
            out -= float(self._db @ digamma(xd).real)
        if member:
            a, b = self.numer[-1]
            x = a + b * c
            out += sum(b / (x + j) for j in range(member))
        return out

    def _saddle(self, lnz: float, member: int = 0) -> float:
        """Saddle of family member `member`, bracketed in member 0's strip
        (the narrowest: raising the offset only moves poles outward) at
        min(2% of it, 0.02) from either pole: a saddle clipped further off
        leaves the trapezoid sum cancelling."""
        L, R = self.strip
        if np.isfinite(L) and np.isfinite(R):
            margin = 0.02 * min(R - L, 1.0)
            lo, hi = L + margin, R - margin
        elif np.isfinite(L):
            lo = L + 1e-3
            hi = max(L + 1.0, 1.0)
            for _ in range(400):
                if self._dlog(hi, lnz, member) > 0:
                    break
                hi *= 2.0
        else:
            hi = R - 1e-3
            lo = min(R - 1.0, -1.0)
            for _ in range(400):
                if self._dlog(lo, lnz, member) < 0:
                    break
                lo *= 2.0
        if self._dlog(lo, lnz, member) >= 0:
            return lo
        if self._dlog(hi, lnz, member) <= 0:
            return hi
        return brentq(self._dlog, lo, hi, args=(lnz, member), xtol=1e-12,
                      rtol=4.0 * np.finfo(float).eps)

    def _truncation(self, c: float, member: int = 0) -> float:
        """Height T with |f(c + iT)| <= e^-50 |f(c)| for family member
        `member`, negligible for ~1e-15 work.  Stirling's estimate ignores
        ln|slope| and log Gamma(x_j), decisive for a large slope mass, so one
        gamma pass over a geometric grid raises it to the first height where
        log |f| has dropped by 50.  The lower members have dropped further
        there: |(x + ibt)_k| grows with t and with k for x > 0."""
        rho = float((self._na + self._nb * c - 0.5).sum()) + member
        if self._da.size:
            rho -= float((self._da + self._db * c - 0.5).sum())
        lam = 50.0
        T = (lam + max(rho, 0.0) * log(2.0)) / self.decay
        for _ in range(4):
            T = (lam + max(rho, 0.0) * np.log1p(abs(T))) / self.decay
        heights = max(T, 4.0 / self.decay) * _TRUNCATION_GRID
        g = self._log_family(c + 1j * np.concatenate([[0.0], heights]),
                             member + 1)[-1]
        # a NaN drop (f(c) not finite) keeps Stirling's guess
        low = ~(g[1:].real - g[0].real > -lam)
        return float(heights[np.argmax(low)] if low.any() else heights[-1])

    def _log_integrand(self, v: np.ndarray) -> np.ndarray:
        out = self._log_const - self._ln_shift * v
        for a, b in self.numer:
            out += loggamma(a + b * v)
        for a, b in self.denom:
            out -= loggamma(a + b * v)
        return out

    def _log_family(self, v: np.ndarray, count: int) -> np.ndarray:
        """Log-integrands of family members 0..count-1 at the nodes v, shape
        (count, v.size), from one gamma pass: by Gamma(x + 1) = x Gamma(x)
        (DLMF 5.5.1) member k is member k-1 times (a + k - 1 + b*v)/(a + k)."""
        g = self._log_integrand(v)
        if count == 1:
            return g[None]
        a, b = self.numer[-1]
        j = a + np.arange(count - 1)[:, None]
        steps = np.log((j + b * v) / (j + 1))
        return np.concatenate([g[None], g + np.cumsum(steps, axis=0)])

    def _member(self, k: int) -> "MellinBarnesIntegral":
        """Family member k on its own: the last numerator factor Gamma(a +
        b*v) raised to Gamma(a + k + b*v), the integrand divided by
        Gamma(a + k + 1)/Gamma(a + 1)."""
        a, b = self.numer[-1]
        member = MellinBarnesIntegral(self.numer[:-1] + ((a + k, b),),
                                      self.denom)
        member._log_const = self._log_const - lgamma(a + k + 1) + lgamma(a + 1)
        member._ln_shift = self._ln_shift
        return member

    # -- evaluation --------------------------------------------------------

    def value(self, ln_argument: float,
              options: EvalOptions = TIGHT_OPTIONS) -> float:
        return float(self.value_many(np.array([float(ln_argument)]), options)[0])

    def value_many(self, ln_arguments, options: EvalOptions = TIGHT_OPTIONS,
                   count: int = 1):
        """Evaluate at several log-arguments with one gamma pass per group of
        nearby arguments (they share contour and nodes).

        With count > 1, evaluate the family whose member k has the last
        numerator factor Gamma(a + b*v) raised to Gamma(a + k + b*v) and
        divided by (a + 1)_k (a > -1), which keeps long families in double
        range, on one contour per group and run of _FAMILY_RUN members; the
        result gets a leading member axis.
        A (member, argument) pair the group's contour does not serve (its sum
        cancels too much, see _assemble) is evaluated on its own
        saddle, and so is every pair of a family group that raises
        AccuracyError; a lone integrand's AccuracyError propagates.
        """
        if self.decay <= 0:
            raise ParameterError("contour integral diverges: numerator slope "
                                 "mass does not dominate the denominator")
        L, R = self.strip
        if L >= R:
            raise DegenerateParameterError(
                "numerator pole families interlace; no separating contour")
        lnz = np.atleast_1d(np.asarray(ln_arguments, dtype=float))
        if count > _FAMILY_RUN:
            return np.concatenate([
                self._member(k).value_many(lnz, options, min(
                    _FAMILY_RUN, count - k)).reshape(-1, lnz.size)
                for k in range(0, count, _FAMILY_RUN)])
        out = np.empty((count, lnz.size))
        order = np.argsort(lnz, kind="stable")
        start = 0
        for i in range(1, lnz.size + 1):
            if i == lnz.size or lnz[order[i]] - lnz[order[start]] > 4.0:
                idx = order[start:i]
                try:
                    out[:, idx], far = self._value_group(lnz[idx], options,
                                                         count)
                except AccuracyError:
                    if count == 1:
                        raise
                    far = np.ones((count, idx.size), dtype=bool)
                for k, j in zip(*np.nonzero(far)):
                    member = self._member(k) if count > 1 else self
                    out[k, idx[j]] = member._value_group(
                        lnz[idx[j]:idx[j] + 1], options)[0][0, 0]
                start = i
        return out if count > 1 else out[0]

    def _value_group(self, lnz: np.ndarray, options: EvalOptions,
                     count: int = 1):
        """Values of family members 0..count-1, shape (count, lnz.size), on
        the contour through the middle member's saddle at the median
        argument, and the mask, of the same shape, of the values this
        contour does not serve (see _assemble); they are to be discarded."""
        c = self._saddle(float(np.median(lnz)), (count - 1) // 2)
        T = self._truncation(c, count - 1)

        # the trapezoid in s on [0, S], t = alpha*sinh(s): the poles nearest
        # the line, at t = +-i*d, map to Im s = +-pi/2 whatever d, so they no
        # longer set the error rate and a level needs O(log(T/d)) nodes where
        # a uniform grid in t needs O(T/d)
        d = float(np.min((self._na + self._nb * c) / np.abs(self._nb)))
        alpha = min(d, T)
        S = float(np.arcsinh(T / alpha)) if alpha > 0 else np.inf
        if not np.isfinite(S):
            # a strip a few ulps wide puts c on a pole, a subnormal one
            # overflows T/alpha
            raise DegenerateParameterError(
                f"strip {self.strip} too narrow for a line between its "
                "poles; no separating contour")
        n = 64
        s = np.linspace(0.0, S, n + 1)
        v = c + 1j * alpha * np.sinh(s)
        # Jacobian alpha*cosh(s), halved at the two ends
        jac = alpha * np.cosh(s)
        jac[[0, -1]] *= 0.5
        g = self._log_family(v, count)
        prev = None
        while True:
            vals, ratio = self._assemble(v, g, jac * (S / n), lnz)
            far = ratio > _MAX_CANCELLATION
            # the trapezoid converges geometrically on an analytic integrand
            # (Trefethen & Weideman 2014): the finer level's error is far
            # below its change from the coarser one
            if prev is not None and np.all(
                    (np.abs(vals - prev)
                     <= np.maximum(options.target_abs_tol,
                                   options.target_rel_tol * np.abs(vals)))
                    | far):
                return vals, far
            n *= 2
            if n > options.max_quadrature_nodes:
                bound = (float(np.max(np.abs(vals - prev)))
                         if prev is not None else np.inf)
                raise AccuracyError(
                    "contour quadrature did not converge within "
                    f"{options.max_quadrature_nodes} nodes",
                    best_estimate=vals if count > 1 else vals[0],
                    error_bound=bound)
            s_new = (np.arange(n // 2) + 0.5) * (S / (n // 2))
            v2 = c + 1j * alpha * np.sinh(s_new)
            v = np.concatenate([v, v2])
            jac = np.concatenate([jac, alpha * np.cosh(s_new)])
            g = np.concatenate([g, self._log_family(v2, count)], axis=1)
            prev = vals

    @staticmethod
    def _assemble(v, g, w, lnz):
        """Quadrature sums (1/pi) sum w Re f at the nodes v with weights w
        (the mapped trapezoid's, Jacobian included) of each member (rows of
        g) at each argument, and their cancellation ratios sum w|f| / |sum w
        Re f|, both of shape (members, arguments).  Past _MAX_CANCELLATION
        the ratio amplifies rounding in f more than the level-to-level
        change can see: the contour runs far off the saddle of such a pair
        (its value lies decades below the group's).  A lone (member,
        argument) pair gets ratio 0: the contour is already its own.  Node
        order is irrelevant for the rule but fixed, so results are
        reproducible bit for bit."""
        out = np.empty((len(g), lnz.size))
        ratio = np.zeros_like(out)
        for k, gk in enumerate(g):
            for j, lz in enumerate(lnz):
                lf = gk - v * lz
                M = float(lf.real.max())
                e = np.exp(lf - M)
                s = float(np.sum(w * e.real))
                if out.size > 1:
                    ratio[k, j] = float(w @ np.abs(e)) / abs(s) if s else np.inf
                mag = M + log(abs(s) / pi) if s != 0.0 else -np.inf
                if mag > 709.0:
                    raise AccuracyError(
                        "contour integral overflowed double precision",
                        best_estimate=np.sign(s) * np.inf, error_bound=np.inf)
                out[k, j] = np.sign(s) * exp(mag) if np.isfinite(mag) else 0.0
        return out, ratio


# -- Meijer G front end ------------------------------------------------------


def _spec_factors(spec: MeijerGSpec):
    """Express the G-function as gamma factors of the contour variable.

    Parameter groups are sorted first, which makes evaluation invariant (bit
    for bit) under permutations inside each group.
    """
    bm = sorted(spec.b_params[:spec.m])
    bq = sorted(spec.b_params[spec.m:])
    an = sorted(spec.a_params[:spec.n])
    ap = sorted(spec.a_params[spec.n:])
    numer = [(b, 1.0) for b in bm] + [(1.0 - a, -1.0) for a in an]
    denom = [(1.0 - b, -1.0) for b in bq] + [(a, 1.0) for a in ap]
    return MellinBarnesIntegral(numer, denom)


def meijer_g(spec: MeijerGSpec, options: EvalOptions | None = None) -> float:
    """Evaluate G^{m,n}_{p,q}(z | a; b) for positive real z on the contour
    of every other integrand (MellinBarnesIntegral.value).

    Deterministic for fixed inputs.  Raises AccuracyError (carrying the best
    estimate and an error bound) when the node budget runs out, and
    PoleCollisionError / DegenerateParameterError for inadmissible parameters.
    """
    return _spec_factors(spec).value(log(spec.argument),
                                     options or EvalOptions())
