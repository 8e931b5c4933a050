"""Span and counter wrappers around the public calls of each pntbounds layer.

Spans are recorded from outside the program: ``install`` replaces each
declared function at every module (and class) that binds it, so calls
that go through ``from .regimes import bracket_nu2`` style aliases are
seen as well.  Spans stay in memory as tuples and are written once, at
the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (layer, module, attribute): a span around every call.  Attributes with a
# dot are class members.  Calls too cheap to time without distorting them
# are only counted (COUNTED below).
SPANNED = [
    ("primes", "pntbounds.primes", "build_sieve"),
    ("primes", "pntbounds.primes", "verify_pointwise"),
    ("primes", "pntbounds.primes", "li"),
    ("engine", "pntbounds.engine", "compute_row"),
    ("engine", "pntbounds.engine", "compute_default_rows"),
    ("engine", "pntbounds.engine", "medium_bound"),
    ("engine", "pntbounds.engine", "large_bound"),
    ("engine", "pntbounds.engine", "vk_bound"),
    ("engine", "pntbounds.engine", "optimize"),
    ("engine", "pntbounds.engine", "certify_monotone"),
    ("engine", "pntbounds.engine", "regime_compare"),
    ("engine", "pntbounds.engine", "piecewise_coverage"),
    ("regimes", "pntbounds.regimes", "bracket_nu2"),
    ("regimes", "pntbounds.regimes", "bracket_nu3"),
    ("zdensity", "pntbounds.zdensity", "load_table"),
    ("zfr", "pntbounds.zfr", "envelope_crossovers"),
    ("derived", "pntbounds.derived", "theta_constants"),
    ("derived", "pntbounds.derived", "pi_constants_classical"),
    ("derived", "pntbounds.derived", "pi_constants_vk"),
]
COUNTED = [
    ("regimes", "pntbounds.regimes", "vk_decay_arg"),
    ("zdensity", "pntbounds.zdensity", "DensityTable.coeffs"),
    ("extnum", "pntbounds.extnum", "ExtReal.exp_of"),
]
LAYERS = ["primes", "engine", "regimes", "zdensity", "zfr", "derived"]


class Tracer:
    """In-memory span recorder: (id, parent id, layer, name, start, end)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = [0]
        self._next = 1
        self._patched: list[tuple[object, str, object]] = []

    def span(self, layer: str, name: str):
        return _Span(self, layer, name)

    def wrap(self, layer: str, name: str, fn, timed: bool):
        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self.counts[name] += 1
            with _Span(self, layer, name):
                return fn(*args, **kwargs)
        return spanned

    def install(self) -> None:
        """Patch every binding of each declared name (undone by ``uninstall``)."""
        for specs, timed in ((SPANNED, True), (COUNTED, False)):
            for layer, modname, attr in specs:
                name = f"{modname.rsplit('.', 1)[1]}.{attr.rsplit('.', 1)[-1]}"
                mod = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        self._patch(cls, meth, staticmethod(self.wrap(layer, name, raw.__func__, timed)))
                    else:
                        self._patch(cls, meth, self.wrap(layer, name, raw, timed))
                    continue
                original = getattr(mod, attr)
                wrapped = self.wrap(layer, name, original, timed)
                for other_name, other in list(sys.modules.items()):
                    if other is None or not other_name.startswith("pntbounds"):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def declared(self) -> list[str]:
        return [f"{m.rsplit('.', 1)[1]}.{a.rsplit('.', 1)[-1]}" for _, m, a in SPANNED + COUNTED]

    def missing(self) -> list[str]:
        """Declared wrappers that never fired (a missed binding shows here)."""
        return [n for n in self.declared() if self.counts[n] == 0]

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


class _Span:
    __slots__ = ("tracer", "layer", "name", "sid", "parent", "t0")

    def __init__(self, tracer: Tracer, layer: str, name: str) -> None:
        self.tracer, self.layer, self.name = tracer, layer, name

    def __enter__(self):
        tr = self.tracer
        self.sid, tr._next = tr._next, tr._next + 1
        self.parent = tr._stack[-1]
        tr._stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((self.sid, self.parent, self.layer, self.name, self.t0, t1))
        return False


def self_times(spans) -> dict[str, float]:
    """Per-layer self time: span duration minus the time its children cover."""
    child = Counter()
    for _sid, parent, _layer, _name, t0, t1 in spans:
        child[parent] += t1 - t0
    out: Counter[str] = Counter()
    for sid, _parent, layer, _name, t0, t1 in spans:
        out[layer] += (t1 - t0) - child[sid]
    return dict(out)


def alternate(run_once, seconds: float) -> tuple[float, float]:
    """Call ``run_once(k, traced)`` for cycle k untraced and traced, in ABBA
    order so that machine drift cancels, until ``seconds`` pass.  Each call
    returns its time; the result is (untraced total, traced total)."""
    total = {False: 0.0, True: 0.0}
    k, t_start = 0, time.perf_counter()
    while k == 0 or time.perf_counter() - t_start < seconds:
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            total[traced] += run_once(k, traced)
        k += 1
    return total[False], total[True]


def write(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
