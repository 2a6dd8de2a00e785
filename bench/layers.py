"""Per-layer spans and counts, taken by wrapping floqtools' public functions.

Tracer.install() replaces every public function of the layer modules with a
timing wrapper, under every name that points at it: a module that did
`from ._linops import chain_matmul` looks the name up in its own namespace,
so that entry is replaced too, or its calls would go uncounted.
Tracer.uninstall() puts the originals back. Nothing under src/ changes.

Each layer is named after its module without the leading underscore, so
`floqtools._linops.chain_matmul` is `linops.chain_matmul`. Self time is a
span's duration minus the time of the wrapped calls made inside it.
"""
from __future__ import annotations

import importlib
import inspect
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("profiles", "_linops", "hill", "planar_charge", "propagator",
           "spin_resonance", "cli")

# Units of work a call performs, read from its arguments or result.
WORK = {
    "profiles.integration_segments": ("segments", lambda a, k, r: len(r[0])),
    "linops.oscillator_blocks": ("blocks", lambda a, k, r: np.size(a[0] if a else k["betas"])),
    "linops.chain_matmul": ("matrices", lambda a, k, r: len(a[0] if a else k["mats"])),
    "propagator.evolve": ("steps", lambda a, k, r: _evolve_steps(a, k)),
}

# Root finders whose cost is the monodromy evaluations made inside them.
ROOT_FINDERS = ("hill.find_loop_beta", "planar_charge.stability_threshold",
                "planar_charge.polish_loop_beta1")
EVALUATION = "hill.monodromy"


def _evolve_steps(args, kwargs):
    n = args[2] if len(args) > 2 else kwargs.get("n_steps")
    if n is None:
        from floqtools import propagator
        n = inspect.unwrap(propagator.default_steps)()
    return int(n)


def layer_name(module_name, func_name):
    return f"{module_name.rsplit('.', 1)[-1].lstrip('_')}.{func_name}"


class Tracer:
    """Calls, self and total seconds, and work counts per wrapped function."""

    def __init__(self):
        self.modules = [importlib.import_module(f"floqtools.{m}") for m in MODULES]
        self.modules.append(importlib.import_module("floqtools"))
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.work = Counter()
        self._stack = []
        self._originals = {}   # id(original) -> (original, wrapper)
        self._patched = []     # (module, attribute, original)
        for module in self.modules[:-1]:
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    self._originals[id(obj)] = (obj, self._wrap(
                        obj, layer_name(module.__name__, attr)))

    def reset(self):
        for counter in (self.calls, self.self_s, self.total_s, self.work):
            counter.clear()

    def install(self):
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                entry = self._originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in self._patched:
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name):
        stack = self._stack
        calls, self_s, total_s, work = self.calls, self.self_s, self.total_s, self.work
        counter = WORK.get(name)
        finder = name in ROOT_FINDERS

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            before = calls[EVALUATION] if finder else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - child[0]
                total_s[name] += elapsed
            if counter is not None:
                work[f"{name}.{counter[0]}"] += counter[1](args, kwargs, result)
            if finder:
                work[f"{name}.evals"] += calls[EVALUATION] - before
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def table(self):
        """{layer: {calls, self_ms, total_ms, <work>...}} for every layer called."""
        out = {}
        for name in sorted(self.calls):
            row = {"calls": self.calls[name],
                   "self_ms": 1e3 * self.self_s[name],
                   "total_ms": 1e3 * self.total_s[name]}
            for key, value in self.work.items():
                if key.rsplit(".", 1)[0] == name:
                    row[key.rsplit(".", 1)[1]] = value
            out[name] = row
        return out
