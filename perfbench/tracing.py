"""Per-layer tracing of pviso from outside the package.

``Tracer.install()`` replaces the public functions of each layer module
by wrappers at every name a pviso module holds them under, so a call
through ``from .flow import integrate`` is caught as well as one through
the defining module.  ``uninstall()`` puts the originals back.  Spans
(name, start, end, parent) and call counts stay in memory until
``dump()``.

A name that is missing from its module is skipped and reported, and every
metric that needs it is left out of ``metrics()`` instead of reading 0.
Work done under a layer that was entered is charged to the outermost
layer below ``cli`` on the call stack: the refine of a lattice command
counts as ``flow``, its Newton transports as ``transcendents``.  Counts
over no work (a layer the workload never enters) read 0, and so do
ratios over such counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer module -> (names to wrap, or None for every function in __all__, mode)
LAYERS = {
    "ode": (("integrate_rk54",), "ode"),
    "flow": (("integrate", "refine_from_series"), "span"),
    "monodromy": (("monodromy", "normalized_frame"), "span"),
    "transcendents": (None, "span"),
    "tau": (None, "span"),
    "series": (None, "span"),
    "closedform": (None, "span"),
    "special": (None, "span"),
    "linalg": (None, "count"),  # hot helpers: counts only, no spans
    "cli": (("main",), "span"),
}


class Span:
    __slots__ = ("id", "name", "layer", "parent", "start", "end", "nfev", "field_s", "length")

    def __init__(self, id_, name, layer, parent):
        self.id, self.name, self.layer, self.parent = id_, name, layer, parent
        self.start = self.end = 0.0
        self.nfev, self.field_s, self.length = 0, 0.0, 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: Counter = Counter()
        self.wrapped: set[str] = set()
        self.missing: list[str] = []
        self._patched: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _open(self, name, layer):
        span = Span(len(self.spans), name, layer, self.stack[-1].id if self.stack else None)
        self.spans.append(span)
        self.stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self.stack.pop()

    def _wrap(self, layer, name, fn, mode):
        key = f"{layer}.{name}"
        if mode == "count":
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        if mode == "ode":
            # integrate_rk54(f, t0, t1, ...): time every call of the field f
            @functools.wraps(fn)
            def integrator(f, t0, t1, *args, **kwargs):
                span = self._open(key, layer)
                span.length = float(t1) - float(t0)

                def field(*a):
                    t = perf_counter()
                    out = f(*a)
                    span.field_s += perf_counter() - t
                    span.nfev += 1
                    return out

                try:
                    return fn(field, t0, t1, *args, **kwargs)
                finally:
                    self._close(span)

            return integrator

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = self._open(key, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return spanned

    def install(self) -> None:
        originals = {}
        for layer, (names, mode) in LAYERS.items():
            try:
                mod = importlib.import_module(f"pviso.{layer}")
            except ImportError:
                self.missing.append(f"pviso.{layer}")
                continue
            if names is None:
                names = [
                    n for n in getattr(mod, "__all__", ())
                    if inspect.isfunction(getattr(mod, n, None))
                    and getattr(mod, n).__module__ == mod.__name__
                ]
            for name in names:
                fn = getattr(mod, name, None)
                if not inspect.isfunction(fn):
                    self.missing.append(f"{layer}.{name}")
                    continue
                originals[id(fn)] = (fn, self._wrap(layer, name, fn, mode))
                self.wrapped.add(f"{layer}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname != "pviso" and not modname.startswith("pviso."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def _layer_wrapped(self, layer: str) -> bool:
        return any(k.startswith(layer + ".") for k in self.wrapped)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        spans = self.spans
        child_s = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start

        def dur(s):
            return s.end - s.start

        def self_s(s):
            return dur(s) - child_s[s.id]

        def chain(s):
            while s is not None:
                yield s
                s = spans[s.parent] if s.parent is not None else None

        def owner(s):
            out = s.layer
            for a in chain(s):
                if a.layer != "cli":
                    out = a.layer
            return out

        def ratio(a, b):
            return a / b if b else 0.0

        named = defaultdict(list)
        for s in spans:
            named[s.name].append(s)
        odes = named["ode.integrate_rk54"]
        by_owner = defaultdict(list)
        for s in odes:
            by_owner[owner(s)].append(s)

        def nfev(group):
            return sum(s.nfev for s in group)

        def field_us(group):
            return 1e6 * ratio(sum(s.field_s for s in group), nfev(group))

        has = self.wrapped.__contains__
        m = {}
        if has("ode.integrate_rk54"):
            m["ode.calls"] = (len(odes), "count")
            m["ode.nfev"] = (nfev(odes), "count")
            m["ode.overhead_us_per_fev"] = (
                1e6 * ratio(sum(dur(s) - s.field_s for s in odes), nfev(odes)), "us")
        if has("flow.refine_from_series"):
            m["flow.refine_calls"] = (len(named["flow.refine_from_series"]), "count")
        if has("flow.integrate"):
            m["flow.integrate_calls"] = (len(named["flow.integrate"]), "count")
            m["flow.integrate_self_s"] = (sum(map(self_s, named["flow.integrate"])), "s")
        if has("ode.integrate_rk54") and self._layer_wrapped("flow"):
            group = by_owner["flow"]
            m["flow.nfev"] = (nfev(group), "count")
            m["flow.nfev_per_length"] = (ratio(nfev(group), sum(s.length for s in group)), "fev/len")
            m["flow.field_us"] = (field_us(group), "us")
        mono = named["monodromy.monodromy"]
        if has("monodromy.monodromy"):
            m["monodromy.calls"] = (len(mono), "count")
            m["monodromy.self_s"] = (sum(map(self_s, mono)), "s")
            if has("ode.integrate_rk54"):
                group = by_owner["monodromy"]
                m["monodromy.transfers"] = (len(group), "count")
                m["monodromy.nfev"] = (nfev(group), "count")
                m["monodromy.nfev_per_transfer"] = (ratio(nfev(group), len(group)), "count")
                m["monodromy.field_us"] = (field_us(group), "us")
        if has("monodromy.normalized_frame"):
            m["monodromy.frame_s"] = (sum(map(dur, named["monodromy.normalized_frame"])), "s")
        roots = named["transcendents.refine_root"]
        if has("transcendents.refine_root"):
            under_root = defaultdict(list)
            for s in spans:
                if any(a.name == "transcendents.refine_root" for a in chain(s)):
                    under_root[s.name].append(s)
            m["transcendents.refine_root_calls"] = (len(roots), "count")
            m["transcendents.refine_root_self_s"] = (sum(map(self_s, roots)), "s")
            if has("flow.integrate"):
                m["transcendents.integrate_per_root"] = (
                    ratio(len(under_root["flow.integrate"]), len(roots)), "count")
            if has("ode.integrate_rk54"):
                m["transcendents.nfev_per_root"] = (
                    ratio(nfev(under_root["ode.integrate_rk54"]), len(roots)), "count")
        for layer in ("series", "closedform", "special"):
            if self._layer_wrapped(layer):
                entries = [s for s in spans if s.layer == layer
                           and (s.parent is None or spans[s.parent].layer != layer)]
                m[f"{layer}.calls"] = (len(entries), "count")
                m[f"{layer}.us_per_call"] = (1e6 * ratio(sum(map(dur, entries)), len(entries)), "us")
        if self._layer_wrapped("linalg"):
            m["linalg.calls"] = (sum(v for k, v in self.counts.items() if k.startswith("linalg.")), "count")
        if self._layer_wrapped("tau"):
            taus = [s for s in spans if s.layer == "tau"]
            entries = [s for s in taus if s.parent is None or spans[s.parent].layer != "tau"]
            m["tau.calls"] = (len(entries), "count")
            m["tau.self_s"] = (sum(map(self_s, taus)), "s")
        if has("cli.main"):
            m["cli.self_s"] = (sum(map(self_s, named["cli.main"])), "s")
        return m

    def dump(self) -> dict:
        """Spans as [id, name, start, end, parent, nfev] rows, plus counts."""
        return {
            "wrapped": sorted(self.wrapped),
            "missing": self.missing,
            "counts": dict(self.counts),
            "spans": [[s.id, s.name, s.start, s.end, s.parent, s.nfev] for s in self.spans],
        }
