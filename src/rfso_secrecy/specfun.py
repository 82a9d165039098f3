"""Meijer G-function evaluation and gamma-family helpers.

The evaluator works on the Mellin-Barnes representation

    (1/2*pi*i) * int  prod Gamma(a_j + B_j v) / prod Gamma(c_j + D_j v)
                      / prod (e_j + F_j v) * z^(-v) dv

taken along a vertical line whose abscissa is placed at the (real-axis)
saddle point of the integrand.  The linear factors 1/(e + F v) are the
gamma ratios Gamma(e + F v)/Gamma(1 + e + F v) (DLMF 5.5.1) that the DGG
laws carry; they are kept in a list of their own and enter exactly, as a
log, with no gamma function, so every DGG law has two gamma factors and no
denominator.  Saddle placement is what preserves relative accuracy when the
result is exponentially small; a fixed abscissa loses all significant
digits to cancellation as soon as |log z| is large.  A value_many call
places the saddles of all its arguments in one vectorised, safeguarded
Newton iteration (trigamma on the numerator factors, exact on the linear
ones; a secant on a denominator's, which only meijer_g's integrands have),
groups the arguments whose saddles are close enough for one line to serve
them all, and takes the heights of the groups' lines from Stirling's
formula (exact for the linear factors), checked at the first trapezoid
level's node c + iT (a line that fails doubles its height).  The line
integral over v = c + i*t is a trapezoid sum in s under t = alpha*sinh(s),
alpha the distance from c to the nearest pole, which puts the nodes where
the poles pinch the line.  The
sums are updated level by level as the nodes double and accepted when the
change from the level before, or the geometric rate of the last two
changes, puts the error within tolerance.  The groups of a call step
through the levels together: each level is one gamma pass over the (groups
x nodes) array of its nodes, each sum runs over one group's row of nodes,
so no value depends on the other groups, and a group drops out when it
accepts.  The integrand itself is indexed the same way: every per-integrand
quantity (offsets, slopes, linear factors, log-constant, strip, decay)
carries a row axis and each line the row of its integrand, so one pass
serves the groups of a stack of integrands of one layout (_stack), and a
lone integrand is its one-row case.  That is the one path for every strip,
however narrow; a strip too narrow for a double-precision line between its
poles raises DegenerateParameterError.

Plain Meijer G-functions are the special case where every slope is +/-1;
meijer_g evaluates them on the same contour (there is no residue-series
path: the residues serve only the asymptotes), and is what the denominator
machinery (the probe-shifted digamma and the secant of _saddle) serves.
The factors of the DGG laws have integer slopes s*lambda, the
Laplace-transform kernels Gamma(z - tau*v) non-integer ones; the engine
treats every slope identically, and evaluates integrands that differ only
in the integer z as one family on a shared contour.  Gamma products
accumulate in the log domain, where G-values far outside double range stay
representable; a family's members come out of one complex exp per node as
complex values, each on a log-scale of its own.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from functools import reduce
from math import factorial, isfinite, lgamma, log, pi
from typing import Sequence

import numpy as np
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

# Off-axis probe used when a denominator gamma argument sits near a real pole
# (meijer_g's integrands; the DGG laws have no denominator).
_PROBE = 0.25j
# The doublings a half-open strip's saddle search tries per digamma pass,
# and the points a finite bracket's first pass takes.
_DOUBLINGS = 2.0 ** np.arange(16)
_QUARTERS = np.linspace(0.0, 1.0, 5)
# A family member whose trapezoid sum cancels more than this (sum w|f| over
# |sum w Re f|) on the shared contour is evaluated on its own saddle: its
# rounding noise, ~1e-13 times this factor, would pass the tolerance test.
_MAX_CANCELLATION = 16.0
# Families share one contour per run of this many members: the top member
# sets the height and node count, which grow with its index (O(K^2) work).
_FAMILY_RUN = 8
# The per-integrand arrays of MellinBarnesIntegral, indexed by row (_stack).
_ROWS = ("_rest", "_decay", "_log_consts", "_na", "_nb", "_da", "_db", "_la",
         "_lb", "_a", "_b", "_slope")


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
    factor Gamma(offset + slope*v); linear ones (a, b) each stand for a
    factor 1/(a + b*v), the gamma ratio Gamma(a + b*v)/Gamma(1 + a + b*v)
    (DLMF 5.5.1) with its one pole, taken as a log and no gamma function.
    The vertical-line integral converges iff the numerator slope mass
    exceeds the denominator's (a linear factor adds none); the admissible
    strip is bounded by the rightmost ascending-factor pole and the leftmost
    descending-factor pole, a linear factor's included.  value / value_many
    raise when either condition fails; the residues exist regardless.
    log_const is added to the log-integrand (a family member's scaling, see
    _members).
    """

    def __init__(self, numer, denom=(), linear=(), log_const: float = 0.0):
        self.numer = tuple((float(a), float(b)) for a, b in numer)
        self.denom = tuple((float(a), float(b)) for a, b in denom)
        self.linear = tuple((float(a), float(b)) for a, b in linear)
        if not self.numer:
            raise ParameterError("at least one numerator gamma factor required")
        if any(b == 0 for _, b in self.numer + self.denom + self.linear):
            raise ParameterError("factor slopes must be nonzero")
        # the strip of all but the last numerator factor, the one a family
        # raises (see _strips)
        L, R = -np.inf, np.inf
        for a, b in self.numer[:-1] + self.linear:
            if b > 0:
                L = max(L, -a / b)
            else:
                R = min(R, a / (-b))
        a, b = self.numer[-1]
        self.strip = (max(L, -a / b), R) if b > 0 else (L, min(R, a / (-b)))
        self.decay = (pi / 2.0) * (sum(abs(b) for _, b in self.numer)
                                   - sum(abs(b) for _, b in self.denom))
        # the pass's per-integrand quantities, each with a leading row axis:
        # one row here, one per integrand in a stack (see _stack)
        self._rest = np.array([[L, R]])
        self._decay = np.array([self.decay])
        self._log_consts = np.array([float(log_const)])
        self._na = np.array([[a for a, _ in self.numer]])
        self._nb = np.array([[b for _, b in self.numer]])
        self._da = np.array([[a for a, _ in self.denom]])
        self._db = np.array([[b for _, b in self.denom]])
        self._la = np.array([[a for a, _ in self.linear]])
        self._lb = np.array([[b for _, b in self.linear]])
        # offsets and slopes of all gamma factors, and their signs
        # (numerator +1), which a stack's rows share
        self._a = np.concatenate([self._na, self._da], axis=1)
        self._b = np.concatenate([self._nb, self._db], axis=1)
        self._sign = np.concatenate([np.ones(len(self.numer)),
                                     -np.ones(len(self.denom))])
        self._slope = np.abs(self._b)
        self._sizes = None

    def _layout(self):
        """What the integrands of one stack share: the factor counts and
        which ends of the strip are finite, which fix the shapes and the
        branches of the pass."""
        return (len(self.numer), len(self.denom), len(self.linear),
                isfinite(self.strip[0]), isfinite(self.strip[1]))

    @classmethod
    def _stack(cls, integrands, sizes) -> "MellinBarnesIntegral":
        """Integrands of one _layout as the rows of one: its value_many takes
        sizes[i] log-arguments of row i, one row after another, and evaluates
        them in one pass, each on its own row's integrand.  Groups never span
        rows, so every value is the one its row gives alone, to the bit.  Its
        public attributes are its first row's; a lone integrand is its own
        stack."""
        layout = integrands[0]._layout()
        assert all(mb._layout() == layout for mb in integrands[1:]), \
            "a stack's integrands share one layout"
        if len(integrands) == 1:
            return integrands[0]
        out = copy(integrands[0])
        for name in _ROWS:
            setattr(out, name, np.concatenate([getattr(mb, name)
                                               for mb in integrands]))
        out._sizes = tuple(sizes)
        return out

    def _members(self, row, member) -> "MellinBarnesIntegral":
        """The stack (with no sizes) whose row i is row row[i] raised to
        family member k = member[i] (arrays that broadcast): its last
        numerator factor Gamma(a + b*v) is Gamma(a + k + b*v)/(a + 1)_k."""
        row, member = np.atleast_1d(*np.broadcast_arrays(row, member))
        out = copy(self)
        for name in _ROWS:
            setattr(out, name, getattr(self, name)[row])
        a = out._na[:, -1].tolist()
        out._na[:, -1] += member
        out._a[:, len(self.numer) - 1] += member
        out._log_consts = np.array([
            c - lgamma(x + k + 1) + lgamma(x + 1) if k else c
            for c, x, k in zip(out._log_consts.tolist(), a, member.tolist())])
        out._sizes = None
        return out

    def residue(self, poles, ln_arguments,
                tol: float = EvalOptions.pole_separation_tol):
        """Residues at the distinct poles v0, of any order: shape (poles,
        arguments), or (rows, poles, arguments) for a stack of several rows.

        A factor Gamma(a + b*v) has a pole at v0 where a + b*v0 is within
        tol*|b| of some -k, a linear factor 1/(a + b*v) where it is within
        tol*|b| of 0; the order m of v0 is the count of numerator and linear
        factors with a pole there less that of denominator factors, and the
        residue is zero where m <= 0.  In delta = v - v0 a pole factor is
        (-1)^k (pi y / sin pi y) / (y Gamma(1 + k - y)), y = b*delta (DLMF
        5.5.3), with ln(pi y / sin pi y) = sum zeta(2n) y^(2n) / n (DLMF
        4.22.1); every log Gamma is a polygamma Taylor series (DLMF 5.15),
        a linear pole factor is 1/(b delta), a regular one has -ln(x +
        b*delta) = -ln x + sum (-b/x)^j / j (DLMF 4.6.1), and z^-v = z^-v0
        e^(-delta ln z).  The integrand is then delta^-m exp(sum c_j
        delta^j), whose delta^(m-1) coefficient comes from e_n = sum j c_j
        e_(n-j) / n; at m = 1 it is 1.
        """
        v0 = np.atleast_1d(np.asarray(poles, dtype=float))[:, None]
        lnz = np.atleast_1d(np.asarray(ln_arguments, dtype=float))
        b, side, lb = self._b[:, None, :], self._sign, self._lb[:, None, :]
        x = self._a[:, None, :] + b * v0
        k = np.round(-x)
        pole = (k >= 0) & (np.abs(x + k) <= tol * np.abs(b))
        xl = self._la[:, None, :] + lb * v0
        lpole = np.abs(xl) <= tol * np.abs(lb)
        m = (pole @ side + lpole.sum(axis=-1)).astype(int)
        # a pole factor adds (-1)^k / (k! b) to the delta^-m coefficient and
        # log Gamma(1 + k - y) to the series, a regular one Gamma(x) and
        # log Gamma(x + y); a linear factor 1/b or 1/x; the logs add up one
        # factor at a time
        xc = np.where(pole, k + 1.0, x)
        rl = np.where(lpole, lb, xl)
        lg = gammaln(xc)
        lg = np.cumsum(np.concatenate([
            np.repeat(self._log_consts[:, None, None], len(v0), axis=1),
            side * np.where(pole, -lg - np.log(np.abs(b)), lg),
            -np.log(np.abs(rl))], axis=-1), axis=-1)[..., -1:]
        sg = (np.where(pole, np.where(k % 2, -1.0, 1.0) * np.sign(b),
                       gammasgn(xc)).prod(axis=-1, keepdims=True)
              * np.sign(rl).prod(axis=-1, keepdims=True))
        out = sg * np.exp(lg - v0 * lnz)
        order = int(m.max(initial=1))
        if order > 1:
            c = [None]
            for j in range(1, order):
                t = (np.where(pole, (-1.0) ** (j + 1), 1.0)
                     * polygamma(j - 1, xc) / factorial(j))
                if j % 2 == 0:
                    t = t + pole * 2.0 * zeta(j) / j
                c.append((side * t * b**j).sum(axis=-1, keepdims=True)
                         + np.where(lpole, 0.0, (-lb / rl)**j / j).sum(
                             axis=-1, keepdims=True))
            c[1] = c[1] - lnz
            e = [np.ones_like(out)]
            for n in range(1, order):
                e.append(sum(j * c[j] * e[n - j] for j in range(1, n + 1)) / n)
            out = out * np.choose(m[..., None] - 1, e, mode="clip")
        out = np.where(m[..., None] > 0, out, 0.0)
        return out if len(out) > 1 else out[0]

    # -- contour placement -------------------------------------------------

    def _strips(self, member, row=slice(None)):
        """Strips (L, R) of family members `member` of the rows `row` (arrays
        that broadcast; all rows by default): member k raises the last
        numerator offset a to a + k, which moves that factor's poles
        outward."""
        a, b = self._na[row, -1], self._nb[row, -1]
        L, R = self._rest[row].T
        end = -(a + member) / b
        return (np.where(b > 0, np.maximum(L, end), L),
                np.where(b > 0, R, np.minimum(R, end)))

    def _dlog(self, c, off, row=0):
        """d/dc of the log-integrand magnitude on the real axis at c, less
        the -ln z term, for the numerator offsets `off` (rows of a family
        member's offsets) of the rows `row`; its denominator part; and the
        derivative of its numerator and linear parts, by the trigamma psi'(x)
        = zeta(2, x) (DLMF 25.11.12) and a linear factor's exact b^2/x^2 (its
        part of the derivative is -b/x).  The denominator part is the real
        part of scipy's complex digamma at arguments moved off the axis by
        _PROBE, whose trigamma scipy lacks; only meijer_g's integrands have
        a denominator.  Sums over factors run row by row, so no value
        depends on the batch (a matrix product's rounding does)."""
        # numerator and linear arguments are positive everywhere inside the
        # strip
        nb = self._nb[row]
        x = np.maximum(off + c[:, None] * nb, 1e-12)
        h = (digamma(x) * nb).sum(axis=-1)
        slope = (zeta(2.0, x) * nb**2).sum(axis=-1)
        if self._la.size:
            lb = self._lb[row]
            r = lb / np.maximum(self._la[row] + c[:, None] * lb, 1e-12)
            h = h - r.sum(axis=-1)
            slope = slope + (r * r).sum(axis=-1)
        den = np.zeros(c.size)
        if self._da.size:
            xd = self._da[row] + c[:, None] * self._db[row]
            den = (digamma(xd + _PROBE).real * self._db[row]).sum(axis=-1)
        return h - den, den, slope

    def _saddle(self, lnz, member, row=0):
        """Saddles of family members `member` of the rows `row` at the
        log-arguments lnz, placed together (arrays that broadcast).  Each
        point iterates on its own, so its saddle does not depend on the
        others, to the bit.

        The bracket is member 0's strip (the family's: raising the offset
        only moves poles outward; a pair's own is its _members row's), less
        min(2% of it, 0.02) at either pole, since a saddle clipped further
        off leaves the trapezoid sum cancelling.  The derivative less ln z
        does not depend on the argument, so one digamma pass over each
        (row, member)'s abscissae serves every point: the bracket's ends and
        quarter points, or, in a half-open strip, 1e-3 past its pole and 16
        doublings outward (as many more passes as the search needs).
        Inside the sub-bracket a safeguarded Newton iteration runs on h/u,
        h = _dlog - ln z and u = 1/(c - L) + 1/(R - c) over the solved
        member's strip, which cancels h's poles at its ends; h' is exact for
        the numerator and linear factors.  A denominator part (meijer_g's
        integrands only) enters h' by a secant through the last two
        iterates, and a step that leaves the bracket bisects it instead."""
        lnz = np.asarray(lnz, dtype=float).ravel()
        zero = np.zeros(lnz.size, dtype=int)
        member, row = member + zero, row + zero
        # one key per distinct (row, member), and each point's key
        span = member.max(initial=0) + 1
        keys = row * span + member
        if (keys == keys[0]).all():
            keys, inv = keys[:1], zero
        else:
            keys, inv = np.unique(keys, return_inverse=True)
        krow, keys = np.divmod(keys, span)
        Lh, Rh = self._strips(keys, krow)
        L, R = self._strips(0, krow)
        off = self._na[krow] + np.zeros((keys.size, 1))
        off[:, -1] += keys
        # one pass over each key's abscissae: a finite bracket's ends and
        # quarter points, a half-open one's start and first 16 doublings
        finite = isfinite(self.strip[0]) and isfinite(self.strip[1])
        if finite:
            sgn, margin = 1.0, 0.02 * np.minimum(R - L, 1.0)
            P = (L + margin)[:, None] + np.outer(R - L - 2.0 * margin,
                                                 _QUARTERS)
        else:
            sgn = 1.0 if isfinite(self.strip[0]) else -1.0
            end = L if sgn > 0 else R
            P = np.column_stack([end + sgn * 1e-3, np.outer(sgn * np.maximum(
                sgn * end + 1.0, 1.0), _DOUBLINGS)])
        # huge gamma arguments overflow here before _truncation rejects them
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            K, D, N = (e.reshape(P.shape) for e in self._dlog(
                P.ravel(), np.repeat(off, P.shape[1], axis=0),
                np.repeat(krow, P.shape[1])))
            while True:
                H = K[inv] - lnz[:, None]
                past = sgn * H[:, 1:] > 0
                found = past.any(axis=1)
                if found.all() or finite or P.shape[1] > 400:
                    break
                new = P[:, -1:] * 2.0 * _DOUBLINGS
                P = np.column_stack([P, new])
                K, D, N = (np.column_stack([e, f.reshape(new.shape)])
                           for e, f in zip((K, D, N), self._dlog(
                               new.ravel(), np.repeat(off, 16, axis=0),
                               np.repeat(krow, 16))))
            # the first abscissa past the root, and the one before it
            j = np.where(found, past.argmax(axis=1), P.shape[1] - 2) + 1
            a, b = (j - 1, j) if sgn > 0 else (j, j - 1)
            rows = np.arange(lnz.size)
            lo, hi, hlo, hhi = P[inv, a], P[inv, b], H[rows, a], H[rows, b]
            c = np.where(hlo >= 0, lo, hi)
            act = np.nonzero((hlo < 0) & (hhi > 0))[0]
            if act.size < lnz.size:
                inv, a, b, lnz = inv[act], a[act], b[act], lnz[act]
                lo, hi, hlo, hhi = lo[act], hi[act], hlo[act], hhi[act]
            off, row, Lh, Rh = off[inv], krow[inv], Lh[inv], Rh[inv]
            dp = D[inv, a]

            def newton(x, h, slope):
                il, ir = 1.0 / (x - Lh), 1.0 / (Rh - x)
                u = il + ir
                dphi = slope * u - h * (ir * ir - il * il)
                return x - h * u / dphi, dphi

            # the secant of the denominator part starts on the bracket; the
            # iteration from Newton's step off either end, else regula falsi
            xp, dslope = lo.copy(), (D[inv, b] - dp) / (hi - lo)
            x, xh = newton(np.array([lo, hi]), np.array([hlo, hhi]),
                           np.array([N[inv, a], N[inv, b]]) - dslope)[0]
            x = np.where((x > lo) & (x < hi), x, np.where(
                (xh > lo) & (xh < hi), xh,
                lo - hlo * (hi - lo) / (hhi - hlo)))
            for _ in range(100):
                h, den, nslope = self._dlog(x, off, row)
                h -= lnz
                neg = h < 0
                np.copyto(lo, x, where=neg)
                np.copyto(hi, x, where=~neg)
                dslope = (den - dp) / (x - xp)
                xn, dphi = newton(x, h, nslope - dslope)
                done = np.abs(xn - x) <= 1e-7 * (1.0 + np.abs(x))
                if done.all():
                    c[act] = np.minimum(np.maximum(xn, lo), hi)
                    return c
                if done.any():
                    c[act[done]] = np.minimum(np.maximum(xn, lo), hi)[done]
                    keep = ~done
                    act, lo, hi, x, den, xn, off, row, lnz, Lh, Rh, dphi = (
                        e[keep] for e in (act, lo, hi, x, den, xn, off, row,
                                          lnz, Lh, Rh, dphi))
                xp, dp = x, den
                x = np.where((xn > lo) & (xn < hi) & (dphi > 0), xn,
                             0.5 * (lo + hi))
        c[act] = 0.5 * (lo + hi)
        return c

    @staticmethod
    def _spike(x, xl):
        """log Gamma(x) - log Gamma(max(x, 1)) summed over the last axis of
        numerator arguments x, and ln max(x, 1) - ln x over that of linear
        arguments xl: a factor near its pole (0 < x < 1) spikes at t = 0 over
        a width ~x that carries little of the integral, so the truncation
        height measures the integrand's drop from Gamma(1) (or 1/1) there."""
        return ((gammaln(x) - gammaln(np.maximum(x, 1.0))).sum(axis=-1)
                - np.log(np.minimum(xl, 1.0)).sum(axis=-1))

    def _truncation(self, c, member, row=0):
        """Heights T, one per line c, at which |f(c + iT)| has dropped to
        e^-51 |f(c)| (less the _spike) for family members `member` of the
        rows `row` (arrays that broadcast): negligible for ~1e-15 work, with
        a margin of 1 for the check of _value_group.  For each gamma factor
        Stirling's formula at w = x + i|b|T, ln|Gamma(w)| ~ (x - 1/2) ln|w| -
        |b|T arg w - x + ln(2 pi)/2 (DLMF 5.11.1), against log Gamma(x) on
        the axis; for each linear factor its exact -ln|x + i*b*T| against -ln
        x.  For large T the drop is rho ln T + sum (x - 1/2) ln|b| + ln(2
        pi)/2 - log Gamma(x) - decay*T (signed sums over numerator less
        denominator factors, a linear factor adding -ln|b|T + ln x); its root
        starts Newton's iteration on the full form, concave in T, whose
        iterates stay above the root.  The lower members have dropped further
        there: |(x + ibt)_k| grows with t and with k for x > 0."""
        c = np.asarray(c, dtype=float).ravel()
        n, sg = self._na.shape[1], self._sign
        x = self._a[row] + c[:, None] * self._b[row]
        x[:, n - 1] += member
        lb, slope, decay = self._lb[row], self._slope[row], self._decay[row]
        xl, bl = self._la[row] + c[:, None] * lb, np.abs(lb)
        if np.abs(x).max(initial=0.0) > 1e11:
            # log Gamma(x) rounds by about |x ln x| ulps of 1: past 1e-3,
            # the log-integrand is noise no contour resolves (a linear
            # factor's log rounds by an ulp at any size)
            raise AccuracyError(
                f"gamma factor arguments up to {np.abs(x).max():.3g} leave "
                "the log-integrand's rounding error above 1e-3",
                best_estimate=np.nan, error_bound=np.inf)
        # sums over factors run row by row, and each line stops at its own
        # last step, so no height depends on the other lines
        with np.errstate(invalid="ignore", divide="ignore"):
            lg0 = ((gammaln(x) * sg).sum(axis=1) - np.log(xl).sum(axis=1)
                   - self._spike(x[:, :n], xl))
        stirling = 0.5 * log(2.0 * pi) * (n - self._da.shape[1])
        C = (((x - 0.5) * (sg * np.log(slope))).sum(axis=1)
             - np.log(bl).sum(axis=-1) + stirling - lg0)
        rho, target = ((x - 0.5) * sg).sum(axis=1) - self._lb.shape[1], 51.0
        T = np.maximum((target + C) / decay, 1.0)
        for _ in range(2):
            T = np.maximum(T - (decay * T - rho * np.log(T) - target - C)
                           / (decay - rho / T), 1e-3)
        done = np.zeros(T.size, dtype=bool)
        for _ in range(30):
            y = slope * T[:, None]
            r2 = x * x + y * y
            ang = np.arctan2(y, x)
            yl = bl * T[:, None]
            hl = np.hypot(xl, yl)
            drop = ((((x - 0.5) * 0.5 * np.log(r2) - y * ang - x) * sg).sum(
                axis=1) - np.log(hl).sum(axis=1) + stirling - lg0)
            step = (drop + target) / -(
                ((ang + 0.5 * y / r2) * (sg * slope)).sum(axis=1)
                + (bl * (yl / hl) / hl).sum(axis=1))
            T = np.where(done, T, np.where(T > step, T - step, 0.5 * T))
            done |= np.abs(step) <= 0.02 * T
            if done.all():
                return T
        return T

    def _log_integrand(self, v: np.ndarray, row=0) -> np.ndarray:
        """The log-integrand of the rows `row` (one per row of nodes, or one
        for all) at the nodes v: one loggamma pass per gamma factor over
        every node, accumulated in factor order (the numerators, less the
        sum of the denominators), and one complex log of the product of the
        linear factors, whose imaginary part is their phase mod 2 pi."""
        a, b = self._a[row][..., None], self._b[row][..., None]
        g, *lg = [loggamma(a[..., j, :] + b[..., j, :] * v)
                  for j in range(a.shape[-2])]
        for x in lg[:len(self.numer) - 1]:
            g += x
        if self.denom:
            g -= sum(lg[len(self.numer) - 1:])
        la, lb = self._la[row][..., None], self._lb[row][..., None]
        if self.linear:
            g -= np.log(reduce(np.multiply, [la[..., j, :] + lb[..., j, :] * v
                                             for j in range(la.shape[-2])]))
        return g + self._log_consts[row][..., None]

    def _log_family(self, v: np.ndarray, count: int, row=0):
        """Family members 0..count-1 of the rows `row` at the nodes v (groups
        x nodes), shape (count, *v.shape), and their log-scales, shape
        (count, groups).  One member is its log-integrand g, on the scale
        max Re g.  A family is complex values from one gamma pass and one
        complex exp: E_0 = exp(g - m), m = max Re g, and by Gamma(x + 1) = x
        Gamma(x) (DLMF 5.5.1) E_k = E_(k-1) (a + k - 1 + b*v)/(a + k); member
        k is E_k/M_k on the scale m + ln M_k, M_k its largest modulus.  A
        run has at most _FAMILY_RUN members and gamma arguments below 1e11
        (_truncation), so |E_k| stays below about 1e77, and where E_0
        underflows every member lies e^-550 below its largest value."""
        g = self._log_integrand(v, row)
        m = g.real.max(axis=-1)
        if count == 1:
            return g[None], m[None]
        a, b = self._na[row, -1][..., None], self._nb[row, -1][..., None]
        j = np.arange(count - 1)[:, None, None] + a
        e = np.empty((count, *v.shape), dtype=complex)
        e[0] = np.exp(g - m[..., None])
        e[1:].real = (j + b * v.real) / (j + 1)
        e[1:].imag = b / (j + 1) * v.imag
        np.cumprod(e, axis=0, out=e)
        top = np.abs(e).max(axis=-1)
        return e * (1.0 / top)[..., None], m + np.log(top)

    # -- evaluation --------------------------------------------------------

    def value(self, ln_argument: float,
              options: EvalOptions = TIGHT_OPTIONS) -> float:
        return float(self.value_many(np.array([float(ln_argument)]), options)[0])

    def value_many(self, ln_arguments, options: EvalOptions = TIGHT_OPTIONS,
                   count: int = 1):
        """Evaluate at several log-arguments: each group of arguments shares
        a contour and its nodes, and the groups of a call step through the
        trapezoid levels together (see _value_group).  The arguments run in
        order and a group closes before the first whose span from the
        group's first, in the saddle c times in ln z, passes ln
        _MAX_CANCELLATION; its line is its median argument's saddle.  phi(c)
        = Re g(c) - c ln z is convex, so an argument's log-magnitude on
        another's saddle line exceeds its own minimum by at most |dc| |d ln
        z|: the log of the cancellation ratio that _values tests.  The
        arguments of a stack's rows (see _stack) group row by row, and each
        group is evaluated on its row's integrand.

        With count > 1, evaluate the family whose member k has the last
        numerator factor Gamma(a + b*v) raised to Gamma(a + k + b*v) and
        divided by (a + 1)_k (a > -1), which keeps long families in double
        range, on one contour per group and run of _FAMILY_RUN members; the
        result gets a leading member axis.
        A (member, argument) pair the group's contour does not serve (its sum
        cancels too much, see _values) is evaluated on its own saddle, and so
        is every pair of a family group that does not converge: all of them
        in one pass, each its own group on member 0 of its (row, member)'s
        row of _members.  A lone integrand's AccuracyError propagates.
        """
        if (self._decay <= 0).any():
            raise ParameterError("contour integral diverges: numerator slope "
                                 "mass does not dominate the denominator")
        if np.greater_equal(*self._strips(0)).any():
            raise DegenerateParameterError(
                "numerator pole families interlace; no separating contour")
        lnz = np.atleast_1d(np.asarray(ln_arguments, dtype=float))
        if not np.isfinite(lnz).all():
            raise ParameterError("log-arguments must be finite")
        if not lnz.size:
            return np.empty((count, 0)) if count > 1 else np.empty(0)
        if count > _FAMILY_RUN:
            runs = []
            for k in range(0, count, _FAMILY_RUN):
                run = self._members(np.arange(self._decay.size), k)
                run._sizes = self._sizes
                runs.append(run.value_many(lnz, options, min(
                    _FAMILY_RUN, count - k)).reshape(-1, lnz.size))
            return np.concatenate(runs)
        sizes = self._sizes or (lnz.size,)
        row = np.repeat(np.arange(len(sizes)), sizes)
        order = np.lexsort((lnz, row))
        z, zr = lnz[order], row[order]
        # the middle member's saddle of every argument, placed together
        cz = self._saddle(z, (count - 1) // 2, row=zr)
        zs, cs, rs = z.tolist(), cz.tolist(), zr.tolist()
        span, first = log(_MAX_CANCELLATION), [0]
        for i in range(1, z.size):
            f = first[-1]
            if rs[i] != rs[f] or (cs[i] - cs[f]) * (zs[i] - zs[f]) > span:
                first.append(i)
        bounds = np.array(first + [z.size])
        size = bounds[1:] - bounds[:-1]
        mid = bounds[:-1] + (size - 1) // 2
        row, c = zr[bounds[:-1]], cz[mid]
        vals, far = self._value_group(z, size, c,
                                      self._truncation(c, count - 1, row),
                                      options, count, row)
        k, j = np.nonzero(far)
        if k.size:
            # one row per distinct (row, member), each pair its own group
            keys, at = np.unique(zr[j] * count + k, return_inverse=True)
            own = self._members(*np.divmod(keys, count))
            c = own._saddle(z[j], 0, row=at)
            vals[k, j] = own._value_group(
                z[j], np.ones(k.size, dtype=int), c,
                own._truncation(c, 0, at), options, 1, at)[0][0]
        out = np.empty_like(vals)
        out[:, order] = vals
        return out if count > 1 else out[0]

    def _value_group(self, lnz: np.ndarray, size: np.ndarray, c: np.ndarray,
                     T: np.ndarray, options: EvalOptions, count: int = 1,
                     row=0):
        """Values of family members 0..count-1 at the log-arguments lnz,
        shape (count, lnz.size), where lnz holds the groups' arguments one
        group after another, size[i] of them on group i's line through c[i]
        truncated at height T[i] and on the integrand of row row[i]; and the
        mask, of the same shape, of the values their contour does not serve
        (see _values), which are to be discarded.

        The groups step through the trapezoid levels together: one gamma
        pass over the (groups x nodes) array of a level's nodes.  Each group
        keeps its own height check, acceptance and scale per member, the
        largest of the members' log-scales (_log_family) so far, to which a
        higher level rescales its sums; it drops out when it accepts, and
        every sum runs over one row of nodes, so no value depends on the
        other groups (a matrix product's rounding does).  A
        group that overflows or runs out of nodes raises AccuracyError for a
        lone integrand; for a family it puts all its pairs in the mask."""
        c, T = np.asarray(c, dtype=float), np.array(T, dtype=float)
        size = np.asarray(size)
        row = row + np.zeros(c.size, dtype=int)
        na, nb, la, lb = self._na[row], self._nb[row], self._la[row], \
            self._lb[row]
        x = na + nb * c[:, None]
        xl = la + lb * c[:, None]
        # a strip a few ulps wide leaves c on a pole or so near one that
        # a + b*c rounds by more than 1e-3 of itself; a subnormal one
        # overflows T/alpha
        for off, b, arg in ((na, nb, x), (la, lb, xl)):
            if not np.all(arg > 2e-13 * (np.abs(off)
                                         + np.abs(b * c[:, None]))):
                raise self._degenerate()
        d = np.min(np.concatenate([x / np.abs(nb), xl / np.abs(lb)], axis=1),
                   axis=1)
        x[:, -1] += count - 1
        spike = self._spike(x, xl)
        n = 64

        def first_level(c, d, T, spike, row):
            # the trapezoid in s on [0, S], t = alpha*sinh(s): the poles
            # nearest the line, at t = +-i*d, map to Im s = +-pi/2 whatever
            # d, so they no longer set the error rate and a level needs
            # O(log(T/d)) nodes where a uniform grid in t needs O(T/d)
            alpha = np.minimum(d, T)
            S = np.arcsinh(T / alpha)
            if not np.isfinite(S).all():
                raise self._degenerate()
            s = np.arange(n + 1) * (S / n)[:, None]
            s[:, -1] = S
            t = alpha[:, None] * np.sinh(s)
            g, top = self._log_family(c[:, None] + 1j * t, count, row)
            # the height's check on the level's last node: the top member
            # has dropped by 50 from the axis at c + iT (a NaN drop passes)
            h = g[-1][:, [0, -1]]
            with np.errstate(invalid="ignore", divide="ignore"):
                h = h.real if count == 1 else np.log(np.abs(h))
                low = h[:, 1] - (h[:, 0] - spike) > -50.0
            return (alpha, S, s, t, g, top), low

        (alpha, S, s, t, g, scale), low = first_level(c, d, T, spike, row)
        # a line that fails doubles T and redoes the level, up to 8 times
        redo = np.arange(c.size)
        for _ in range(8):
            if not np.count_nonzero(low):
                break
            redo = redo[low]
            T[redo] *= 2.0
            (alpha[redo], S[redo], s[redo], t[redo], g[:, redo],
             scale[:, redo]), low = first_level(c[redo], d[redo], T[redo],
                                                spike[redo], row[redo])
        # Jacobian alpha*cosh(s), halved at the two ends
        w = alpha[:, None] * np.cosh(s)
        w[:, 0] *= 0.5
        w[:, -1] *= 0.5

        def layout(size):
            # the groups' first arguments, and each argument's group (the
            # index that takes a group's row to its arguments): one group
            # broadcasts instead
            return np.cumsum(size) - size, (
                np.repeat(np.arange(size.size), size) if size.size > 1
                else slice(None))

        first, at = layout(size)
        # a lone (member, argument) pair's sum counts no mass: the contour
        # is already its own
        Sm = np.where(size * count > 1, S, 0.0)
        out = np.empty((count, lnz.size))
        far = np.empty((count, lnz.size), dtype=bool)
        pos, Sa, cz = slice(None), S[at], c[at] * lnz
        sums, mass = self._assemble(t, g, w, lnz, at, scale, scale)
        prev = change = None
        while True:
            vals, ratio, over = self._values(
                sums * (Sa / n), (mass * (Sm / n))[:, at],
                scale[:, at] - cz)
            cancel = ratio > _MAX_CANCELLATION
            # the trapezoid converges geometrically on an analytic integrand
            # (Trefethen & Weideman 2014): the finer level's error is far
            # below its change from the coarser one, and from the third level
            # on the rate of the last two changes predicts it
            done = bad = np.zeros(size.size, dtype=bool)
            if prev is not None:
                tol = np.maximum(options.target_abs_tol,
                                 options.target_rel_tol * np.abs(vals))
                last, change = change, np.abs(vals - prev)
                ok = (change <= tol) | cancel
                if last is not None:
                    # predicted error change * (change / last) <= tol / 100
                    ok |= change <= 0.1 * np.sqrt(tol) * np.sqrt(last)
                done = np.logical_and.reduceat(ok.all(axis=0), first)
            if np.count_nonzero(over):
                bad = np.logical_or.reduceat(over.any(axis=0), first)
            if 2 * n > options.max_quadrature_nodes:
                bad = bad | ~done
            stop = done | bad
            if np.count_nonzero(stop):
                if np.count_nonzero(bad):
                    if count == 1:
                        # the first group that failed
                        i = np.repeat(np.arange(size.size) == np.argmax(bad),
                                      size)
                        budget = options.max_quadrature_nodes
                        raise AccuracyError(
                            "contour integral overflowed double precision"
                            if over[:, i].any() else "contour quadrature did "
                            f"not converge within {budget} nodes",
                            best_estimate=vals[0, i], error_bound=np.inf
                            if prev is None else float(np.max(change[0, i])))
                    cancel |= np.repeat(bad, size)
                if stop.all():
                    out[:, pos], far[:, pos] = vals, cancel
                    return out, far
                # record the groups that stop, go on with the others
                end, keep = np.repeat(stop, size), ~stop
                pos = np.arange(out.shape[1])[pos]
                out[:, pos[end]], far[:, pos[end]] = (vals[:, end],
                                                      cancel[:, end])
                arg = ~end
                size = size[keep]
                first, at = layout(size)
                c, row, alpha, S, Sm, scale, mass = (
                    c[keep], row[keep], alpha[keep], S[keep], Sm[keep],
                    scale[:, keep], mass[:, keep])
                pos, lnz, Sa, cz = pos[arg], lnz[arg], S[at], cz[arg]
                sums, vals = sums[:, arg], vals[:, arg]
                if change is not None:
                    change = change[:, arg]
            n *= 2
            # the new level's midpoints: S_2n = S_n/2 + (S/2n) * their sum
            s = (np.arange(n // 2) + 0.5) * (S / (n // 2))[:, None]
            t = alpha[:, None] * np.sinh(s)
            g, top = self._log_family(c[:, None] + 1j * t, count, row)
            if (top > scale).any():
                rescale = np.exp(scale - np.maximum(scale, top))
                scale = np.maximum(scale, top)
                sums, mass = sums * rescale[:, at], mass * rescale
            new_sums, new_mass = self._assemble(
                t, g, alpha[:, None] * np.cosh(s), lnz, at, scale, top)
            sums, mass, prev = sums + new_sums, mass + new_mass, vals

    def _degenerate(self):
        return DegenerateParameterError(
            f"strip {self.strip} too narrow for a line between its poles; no "
            "separating contour")

    @staticmethod
    def _assemble(t, g, w, lnz, row, scale, top):
        """Trapezoid sums sum w Re f at the nodes c + i*t (rows of t, one per
        group) with weights w, of each member (first axis of g, see
        _log_family, on the scales top) at each argument on its group's row
        (t[row]), shape (members, arguments), and sum w |f| of each member
        and group, on the scale exp(scale - c ln z) of the member and group.
        On the line Re v = c, so |f| = exp(Re g - c ln z): one member is
        scaled once by a = w exp(Re g - scale), and each argument adds only
        a cos(Im g - t ln z); a family member E is scaled once to e = E w
        exp(top - scale), and each argument adds Re e cos(t ln z) + Im e
        sin(t ln z), so that the members share the tables in t ln z.  Each
        sum runs over one row of nodes in a fixed order, so results are
        reproducible bit for bit and free of the other groups."""
        tz = t[row] * lnz[:, None]
        if g.shape[0] == 1:
            a = w * np.exp(g.real - scale[..., None])
            f = a[:, row] * np.cos(g.imag[:, row] - tz)
            return f.sum(axis=-1), a.sum(axis=-1)
        e = g * (w * np.exp(top - scale)[..., None])
        f = e.real[:, row] * np.cos(tz) + e.imag[:, row] * np.sin(tz)
        return f.sum(axis=-1), np.abs(e).sum(axis=-1)

    @staticmethod
    def _values(sums, mass, log_scale):
        """Values (1/pi) exp(log_scale) * sums of the trapezoid sums; their
        cancellation ratios sum w|f| / |sum w Re f|; and the mask of values
        past double range.  Past _MAX_CANCELLATION the ratio amplifies
        rounding in f more than the level-to-level change can see: the
        contour runs far off the saddle of such a pair (its value lies
        decades below the group's)."""
        a = np.abs(sums)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mag = log_scale + np.log(a / pi)
            return np.copysign(np.exp(mag), sums), mass / a, mag > 709.0


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
