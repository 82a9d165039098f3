"""Outside-in tracer for the rfso_secrecy package.

The tracer never edits the package.  While installed it replaces the public
functions of each module (and the scipy kernels the contour engine calls
through its module globals) with thin wrappers that count calls and time
them, and it puts the originals back on uninstall.  A function object is
replaced wherever the package holds a reference to it: in every module
namespace and in module-level dicts such as the CLI's evaluator tables.

Each wrapped call is a span with a key.  A span's self time is its duration
minus the part covered by child spans.  Child spans run either in the same
thread, or, under the CLI's thread pool, in a worker thread while the main
thread waits inside the parent; the latter are merged as intervals so that
overlapping workers are not counted twice.  A call nested inside a span with
the same key is folded into the outer span.

Counters live in one dict per thread and are summed on read, so no lock is
taken on the hot path.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

# Closed-form metric functions whose time is also split by turbulence family
# and detection type.
CLOSED_FORMS = {"sop1_lower": "sop1", "spsc1": "spsc1",
                "sop2_lower": "sop2", "spsc2": "spsc2"}
SECRECY_FUNCTIONS = ("sop1_lower", "sop1_asymptotic", "sop1_exact_quadrature",
                     "spsc1", "sop2_lower", "sop2_asymptotic",
                     "sop2_exact_quadrature", "spsc2")
MC_FUNCTIONS = ("estimate_sop1", "estimate_sop2", "estimate_spsc1",
                "estimate_spsc2")

# Counters that must repeat exactly for the same inputs.
DETERMINISTIC_SUFFIXES = (".calls", ".args", ".evals", ".samples", ".count")
DETERMINISTIC_KEYS = ("specfun.integrals", "specfun.groups",
                      "specfun.accuracy_errors", "specfun.factors_sum",
                      "specfun.nodes_sum")


def is_deterministic(key: str) -> bool:
    return key in DETERMINISTIC_KEYS or key.endswith(DETERMINISTIC_SUFFIXES)


class _Frame:
    __slots__ = ("key", "child_s", "xchild", "evals")

    def __init__(self, key):
        self.key = key
        self.child_s = 0.0   # time of same-thread child spans
        self.xchild = []     # (start, end) of child spans in other threads
        self.evals = 0       # loggamma elements evaluated directly inside


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.stats = defaultdict(int)


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _size(x) -> int:
    size = getattr(x, "size", None)
    if size is None:
        try:
            return len(x)
        except TypeError:
            return 1
    return int(size)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def turbulence_family(link) -> str:
    """st / mt / wt when the link carries a turbulence preset, else special."""
    from rfso_secrecy.channels import TURBULENCE_PRESETS
    shape = (link.a1, link.a2, link.b1, link.b2, link.omega1, link.omega2,
             link.lambda1, link.lambda2)
    for name, kw in TURBULENCE_PRESETS.items():
        if shape == (kw["a1"], kw["a2"], kw["b1"], kw["b2"], kw["omega1"],
                     kw["omega2"], kw["lambda1"], kw["lambda2"]):
            return name
    return "special"


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._undo = []
        self._main = None
        self.missing = []   # patch targets the package no longer has

    # -- state ---------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def totals(self) -> dict:
        """Sum of every counter over all threads so far."""
        out = defaultdict(int)
        with self._lock:
            states = list(self._states)
        for st in states:
            for k, v in list(st.stats.items()):
                out[k] += v
        return dict(out)

    # -- wrapper kinds -------------------------------------------------------

    def span(self, key, fn, extra=None, calls_name="calls"):
        """Timed span: <key>.<calls_name>, <key>.s, <key>.self_s."""
        tracer = self
        k_calls, k_s = f"{key}.{calls_name}", f"{key}.s"
        k_self = f"{key}.self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack and stack[-1].key == key:
                return fn(*args, **kwargs)
            if stack:
                parent, same_thread = stack[-1], True
            else:
                main = tracer._main
                parent = (main.stack[-1] if main is not None
                          and main is not st and main.stack else None)
                same_thread = False
            frame = _Frame(key)
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                stats = st.stats
                stats[k_calls] += 1
                stats[k_s] += d
                stats[k_self] += (d - frame.child_s
                                  - _union_length(frame.xchild))
                if extra is not None:
                    extra(stats, args, kwargs, frame, d)
                if parent is not None:
                    if same_thread:
                        parent.child_s += d
                    else:
                        parent.xchild.append((t0, t1))
        return wrapper

    def counter(self, key, fn, error_type=None, error_key=None):
        """Untimed call counter; the time stays with the enclosing span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = tracer._state().stats
            stats[key] += 1
            if error_type is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except error_type:
                stats[error_key] += 1
                raise
        return wrapper

    def kernel(self, key, fn, count_nodes=False):
        """Leaf numeric kernel: <key>.calls, <key>.evals, <key>.s."""
        tracer = self
        k_calls, k_evals, k_s = f"{key}.calls", f"{key}.evals", f"{key}.s"

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            t0 = perf_counter()
            out = fn(x, *args, **kwargs)
            d = perf_counter() - t0
            st = tracer._state()
            n = _size(x)
            stats = st.stats
            stats[k_calls] += 1
            stats[k_evals] += n
            stats[k_s] += d
            if st.stack:
                top = st.stack[-1]
                top.child_s += d
                if count_nodes:
                    top.evals += n
            return out
        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner[name] if isinstance(owner, dict)
                           else owner.__dict__[name]))
        if isinstance(owner, dict):
            owner[name] = value
        else:
            setattr(owner, name, value)

    def _patch_attr(self, owner, name, make):
        """Replace one attribute (a class method or a module global)."""
        if name not in vars(owner):
            self.missing.append(f"{owner.__name__}.{name}")
            return
        self._set(owner, name, make(vars(owner)[name]))

    def _patch_function(self, module, name, make):
        """Replace a module function at every reference the package holds."""
        original = vars(module).get(name)
        if original is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rfso_secrecy"
                                   or mod_name.startswith("rfso_secrecy.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._set(value, k, wrapper)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self):
        from rfso_secrecy import (channels, cli, dualhop, montecarlo, presets,
                                  secrecy, specfun)
        from rfso_secrecy.errors import AccuracyError

        self._main = self._state()
        self.missing = []

        # specfun: the contour engine and the scipy kernels it calls
        self._patch_attr(specfun, "loggamma", lambda f: self.kernel(
            "specfun.loggamma", f, count_nodes=True))
        self._patch_attr(specfun, "digamma", lambda f: self.kernel(
            "specfun.digamma", f))
        mb = specfun.MellinBarnesIntegral
        self._patch_attr(mb, "__init__", lambda f: self.counter(
            "specfun.integrals", f))
        self._patch_attr(mb, "_value_group", lambda f: self.counter(
            "specfun.groups", f, AccuracyError, "specfun.accuracy_errors"))

        def value_many_extra(stats, args, kwargs, frame, d):
            integral = args[0]
            factors = len(integral.numer) + len(integral.denom)
            stats["specfun.value_many.args"] += _size(
                _arg(args, kwargs, 1, "ln_arguments"))
            stats["specfun.factors_sum"] += factors
            stats["specfun.nodes_sum"] += frame.evals // max(factors, 1)
        self._patch_attr(mb, "value_many", lambda f: self.span(
            "specfun.value_many", f, value_many_extra))

        # channels
        self._patch_attr(channels.DggLink, "__init__", lambda f: self.span(
            "channels.dgg_link", f, calls_name="count"))
        self._patch_attr(channels.EtaMuLink, "__init__", lambda f: self.span(
            "channels.eta_mu", f))
        self._patch_attr(channels.EtaMuLink, "survival", lambda f: self.span(
            "channels.eta_mu", f))
        for name in ("eta_mu_pdf", "eta_mu_cdf"):
            self._patch_function(channels, name, lambda f: self.span(
                "channels.eta_mu", f))

        def args_extra(key):
            def extra(stats, args, kwargs, frame, d):
                stats[f"{key}.args"] += _size(_arg(args, kwargs, 1, "gamma"))
            return extra
        for name in ("dgg_cdf", "dgg_survival", "dgg_pdf"):
            key = f"channels.{name}"
            self._patch_function(channels, name, lambda f, key=key: self.span(
                key, f, args_extra(key)))

        def samples_extra(key):
            def extra(stats, args, kwargs, frame, d):
                stats[f"{key}.samples"] += int(_arg(args, kwargs, 2, "n"))
            return extra
        for name in ("dgg_sample", "eta_mu_sample"):
            key = f"channels.{name}"
            self._patch_function(channels, name, lambda f, key=key: self.span(
                key, f, samples_extra(key)))

        # dualhop
        self._patch_function(dualhop, "min_combine_cdf", lambda f: self.span(
            "dualhop.min_combine_cdf", f))

        # secrecy: every public metric, closed forms also by family/detection
        def family_extra(metric):
            def extra(stats, args, kwargs, frame, d):
                link = _arg(args, kwargs, 0, "cfg").fso_main
                stats[f"secrecy.{metric}.{turbulence_family(link)}_"
                      f"{link.detection}.s"] += d
            return extra
        for name in SECRECY_FUNCTIONS:
            extra = (family_extra(CLOSED_FORMS[name])
                     if name in CLOSED_FORMS else None)
            self._patch_function(secrecy, name, lambda f, name=name,
                                 extra=extra: self.span(
                                     f"secrecy.{name}", f, extra))

        # montecarlo, cli, presets
        for name in MC_FUNCTIONS:
            self._patch_function(montecarlo, name, lambda f, name=name:
                                 self.span(f"montecarlo.{name}", f))
        self._patch_function(cli, "main", lambda f: self.span("cli.main", f))
        self._patch_function(presets, "figure_preset", lambda f: self.span(
            "presets.figure_preset", f))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._main = None
