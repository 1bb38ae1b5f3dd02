"""Per-layer spans recorded from outside the program.

``install`` replaces every public function of the traced levyhedge modules
with a timing wrapper, at every import site: a function imported into
another module (``hedging.transform``, ``cli.char_fn``, the ``mmm_cumulant``
global that the characteristic-function closure in ``fourier`` calls) is
wrapped there too.  Nothing under ``src/`` is edited.

Each span is keyed ``<module>.<function>[.<qualifier>]`` by the module that
defines the function, and aggregated in memory into calls, busy time (outer
spans only, so recursion is not counted twice), self time (busy time minus
the time of child spans) and, where the wrapper knows how to count them,
points (array elements evaluated).
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("fourier", "levy_core", "models", "hedging", "oracle_mc",
                  "calibration", "cli")
# |log chi| at which fourier.transform switches its head to QAWO rules
_OSC_THRESHOLD = 0.25


class Stat:
    __slots__ = ("calls", "busy_s", "self_s", "points", "depth")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.points = 0
        self.depth = 0


class Tracer:
    """Aggregated spans; ``enabled`` gates recording without unwrapping."""

    def __init__(self):
        self.enabled = False
        self.stats = defaultdict(Stat)
        self.counters = defaultdict(int)
        self._children = []   # child-span time of each open span

    def reset(self):
        self.stats.clear()
        self.counters.clear()
        self._children.clear()

    def span(self, key, fn, args, kwargs, points=0):
        stat = self.stats[key]
        self._children.append(0.0)
        stat.depth += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stat.depth -= 1
            child = self._children.pop()
            if self._children:
                self._children[-1] += dt
            stat.calls += 1
            stat.self_s += dt - child
            stat.points += points
            if stat.depth == 0:
                stat.busy_s += dt


def _transform_key(args, kwargs):
    kind = kwargs["kind"] if "kind" in kwargs else args[0]
    chi = kwargs["chi"] if "chi" in kwargs else args[2]
    regime = "osc" if abs(math.log(chi)) >= _OSC_THRESHOLD else "atm"
    return f"fourier.transform.{kind}.{regime}"


def _cumulant_points(args, kwargs):
    z = kwargs["z"] if "z" in kwargs else args[1]
    return getattr(z, "size", 1)


def _wrap(tracer, name, fn):
    if name == "fourier.transform":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.span(_transform_key(args, kwargs), fn, args, kwargs)
    elif name == "levy_core.mmm_cumulant":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.span(name, fn, args, kwargs,
                               _cumulant_points(args, kwargs))
    elif name == "calibration.calibrate":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            result = tracer.span(name, fn, args, kwargs)
            tracer.counters[name + ".iterations"] += result.iterations
            return result
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.span(name, fn, args, kwargs)
    return wrapper


def install(tracer: Tracer) -> int:
    """Wrap the public functions of TRACED_MODULES wherever levyhedge
    modules hold them; returns the number of bindings replaced."""
    wrappers = {}
    for short in TRACED_MODULES:
        mod = sys.modules["levyhedge." + short]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = _wrap(tracer, f"{short}.{attr}", obj)
    replaced = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "levyhedge"
                               or modname.startswith("levyhedge.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                replaced += 1
    return replaced
