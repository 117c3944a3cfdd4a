"""In-memory tracing of sphmult's public functions, from outside the package.

``Tracer.install()`` replaces each target function by a wrapper in every
loaded ``sphmult`` module namespace that holds it, so calls made inside
the package through ``from .specfun import gamma``-style imports are seen
as well.  ``uninstall()`` puts the originals back.  Nothing in ``src/`` is
edited.

A wrapper returns exactly what the wrapped call returned and re-raises
the exception it raised, after counting it.  Each call is a span (name,
start, end, parent span, op id); self time is the span's duration minus
the time covered by its child spans.  Very hot leaves (``HOT_LEAVES``)
keep the same per-function counts and self time but store no span of
their own: their time is charged to the enclosing span as child time, so
memory stays bounded.  Stored spans are capped at ``max_spans``.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

HOT_LEAVES = frozenset(
    {"specfun.gamma", "specfun.bessel_k", "groups.classify", "tree.multiply"}
)

HYP2F1_REGIONS = ("pfaff", "series", "unit")

# Functions whose arguments and results are sampled for the accuracy
# columns; the sample keeps every k-th call, k doubling as it fills.
SAMPLED = frozenset({"specfun.gamma", "specfun.bessel_k"}) | {
    f"specfun.hyp2f1.{r}" for r in HYP2F1_REGIONS
}
SAMPLE_SIZE = 32


def hyp2f1_region(z) -> str:
    """Argument region of a 2F1 call, as the dispatcher in specfun sees it."""
    z = complex(z)
    if abs(z) <= 0.75:
        return "series"
    return "pfaff" if z.real < 0 else "unit"


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _count_nodes(args, kwargs, stat):
    """Swap the integrand (first argument) for one that counts abscissas."""
    f = args[0]

    def counted(xs):
        stat.counters["nodes"] = stat.counters.get("nodes", 0) + _size(xs)
        return f(xs)

    return (counted,) + tuple(args[1:]), kwargs


def _observe_points(stat, args, kwargs, result):
    stat.counters["points"] = stat.counters.get("points", 0) + _size(result)


def _observe_words(stat, args, kwargs, result):
    stat.counters["words"] = stat.counters.get("words", 0) + sum(map(len, result))


def _observe_pairs(stat, args, kwargs, result):
    from sphmult import tree  # the package is loaded whenever this runs

    spec, x, y = args[0], args[1], args[2]
    pairs = tree.sphere_size(spec, len(x)) * tree.sphere_size(spec, len(y))
    c = stat.counters
    c["pairs"] = c.get("pairs", 0) + pairs
    c["kept"] = c.get("kept", 0) + sum(result.values())


def _observe_method(stat, args, kwargs, result):
    key = "method." + result.method.value
    stat.counters[key] = stat.counters.get(key, 0) + 1


# (module, attribute, metric name or None for the 2F1 region split,
#  argument hook, result hook)
TARGETS = [
    ("specfun", "gamma", "specfun.gamma", None, None),
    ("specfun", "_hyp2f1_zw", None, None, None),
    ("specfun", "bessel_k", "specfun.bessel_k", None, None),
    ("specfun", "bessel_k_many", "specfun.bessel_k_many", None, _observe_points),
    ("specfun", "bessel_product_moment", "specfun.bessel_product_moment", None, None),
    ("specfun", "weber_schafheitlin_rhs", "specfun.weber_schafheitlin_rhs", None, None),
    ("quadrature", "integrate", "quadrature.integrate", _count_nodes, None),
    ("quadrature", "composite", "quadrature.composite", _count_nodes, None),
    ("groups", "classify", "groups.classify", None, None),
    ("spherical", "phi", "spherical.phi", None, _observe_method),
    ("spherical", "phi_lorentz_integral", "spherical.phi_lorentz_integral", None, None),
    ("spherical", "phi_lorentz_hyp2", "spherical.phi_lorentz_hyp2", None, None),
    ("spherical", "cb_norm_lorentz", "spherical.cb_norm_lorentz", None, None),
    ("spherical", "c_function", "spherical.c_function", None, None),
    ("spherical", "multiplier_l1_norm", "spherical.multiplier_l1_norm", None, None),
    ("spherical", "phi_on_na", "spherical.phi_on_na", None, None),
    ("spherical", "bessel_vector", "spherical.bessel_vector", None, None),
    ("lorentz", "phi_via_rho", "lorentz.phi_via_rho", None, None),
    ("lorentz", "fhat_check", "lorentz.fhat_check", None, None),
    ("lorentz", "coefficient_pairing", "lorentz.coefficient_pairing", None, None),
    ("lorentz", "sphere_quadrature", "lorentz.sphere_quadrature", None, None),
    ("tree", "spheres", "tree.spheres", None, _observe_words),
    ("tree", "multiply", "tree.multiply", None, None),
    ("tree", "radial_convolve", "tree.radial_convolve", None, None),
    ("tree", "bz_counts", "tree.bz_counts", None, _observe_pairs),
    ("tree", "multiplicative_shell_function", "tree.multiplicative_shell_function", None, None),
    ("tree", "radialize", "tree.radialize", None, None),
]

FUNCTION_NAMES = [t[2] for t in TARGETS if t[2] is not None]
FUNCTION_NAMES[1:1] = [f"specfun.hyp2f1.{r}" for r in HYP2F1_REGIONS]


class Stat:
    """Per-function totals: calls, self time, failures and work counters."""

    __slots__ = ("calls", "self_s", "fail", "fail_by_class", "counters", "sample", "stride")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.fail = 0
        self.fail_by_class: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.sample: list = []
        self.stride = 1

    def merge(self, other: "Stat"):
        self.calls += other.calls
        self.self_s += other.self_s
        self.fail += other.fail
        for k, v in other.fail_by_class.items():
            self.fail_by_class[k] = self.fail_by_class.get(k, 0) + v
        for k, v in other.counters.items():
            self.counters[k] = self.counters.get(k, 0) + v
        self.sample.extend(other.sample)

    def keep(self, item):
        if self.calls % self.stride:
            return
        self.sample.append(item)
        if len(self.sample) >= 2 * SAMPLE_SIZE:
            del self.sample[1::2]
            self.stride *= 2


class _ThreadState:
    __slots__ = ("stack", "spans", "stats")

    def __init__(self):
        self.stack: list = []  # open frames: [start, time covered by children]
        self.spans: list = []  # ids of open stored spans
        self.stats: dict[str, Stat] = {}


class Tracer:
    def __init__(self, clock=time.perf_counter, max_spans: int = 200_000):
        self._clock = clock
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._restore: list = []
        self._ids = itertools.count()
        self.op_id = -1
        self.max_spans = max_spans
        self.dropped_spans = 0
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_cols = {
            "id": array("q"), "name": array("H"), "start": array("d"),
            "end": array("d"), "parent": array("q"), "op": array("q"),
        }
        self.missing: list[str] = []

    # -- state -----------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def stats(self) -> dict[str, Stat]:
        """Totals over every thread that called a wrapped function."""
        out: dict[str, Stat] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, stat in st.stats.items():
                out.setdefault(name, Stat()).merge(stat)
        return out

    # -- spans -----------------------------------------------------------
    def _record(self, span_id, name, start, end, parent):
        cols = self.span_cols
        if len(cols["id"]) >= self.max_spans:
            self.dropped_spans += 1
            return
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        cols["id"].append(span_id)
        cols["name"].append(idx)
        cols["start"].append(start)
        cols["end"].append(end)
        cols["parent"].append(parent)
        cols["op"].append(self.op_id)

    def write_spans(self, path):
        cols = self.span_cols
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,name,start_s,end_s,parent_id,op_id\n")
            for i in range(len(cols["id"])):
                fh.write(
                    f"{cols['id'][i]},{self.names[cols['name'][i]]},{cols['start'][i]!r},"
                    f"{cols['end'][i]!r},{cols['parent'][i]},{cols['op'][i]}\n"
                )

    # -- the call path -----------------------------------------------------
    def call(self, name, fn, args, kwargs, prepare=None, observe=None):
        """Run fn(*args, **kwargs) as a span named ``name``."""
        state = self._state()
        stat = state.stats.get(name)
        if stat is None:
            stat = state.stats[name] = Stat()
        if prepare is not None:
            args, kwargs = prepare(args, kwargs, stat)
        stored = name not in HOT_LEAVES
        span_id = -1
        if stored:
            span_id = next(self._ids)
            parent = state.spans[-1] if state.spans else -1
            state.spans.append(span_id)
        frame = [0.0, 0.0]
        state.stack.append(frame)
        failure = None
        frame[0] = self._clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            failure = exc
            raise
        finally:
            end = self._clock()
            state.stack.pop()
            duration = end - frame[0]
            stat.calls += 1
            stat.self_s += duration - frame[1]
            if state.stack:
                state.stack[-1][1] += duration
            if failure is not None:
                stat.fail += 1
                cls = type(failure).__name__
                stat.fail_by_class[cls] = stat.fail_by_class.get(cls, 0) + 1
            if stored:
                state.spans.pop()
                self._record(span_id, name, frame[0], end, parent)
        if observe is not None:
            observe(stat, args, kwargs, result)
        if name in SAMPLED:
            stat.keep((args, kwargs, result))
        return result

    def _wrap(self, fn, name, prepare, observe):
        call = self.call
        if name is None:  # the 2F1 dispatcher: name by argument region
            @functools.wraps(fn)
            def wrapper(a, b, c, z, *rest, **kwargs):
                label = "specfun.hyp2f1." + hyp2f1_region(z)
                return call(label, fn, (a, b, c, z) + rest, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return call(name, fn, args, kwargs, prepare, observe)
        return wrapper

    # -- installation ------------------------------------------------------
    def install(self):
        """Wrap every target in every loaded sphmult module that holds it."""
        import sphmult  # noqa: F401  (loads the package modules)

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "sphmult" or k.startswith("sphmult."))]
        for mod_name, attr, name, prepare, observe in TARGETS:
            home = sys.modules.get("sphmult." + mod_name)
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, prepare, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore = []
