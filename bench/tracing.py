"""Spans recorded from the benchmark's side of each call into the package.

The package itself is not changed.  ``Tracer.install`` replaces every public
function of the package modules (the names in each module's ``__all__``,
plus ``cli.run``) with a wrapper that records a span, in every package
namespace that holds it, so calls between modules are seen too.
``uninstall`` puts the originals back.  Spans stay in memory and are written
out once, at the end of the run.
"""
from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# powerlog is left out: it exports only a class, so it has no function to wrap
LAYERS = ("accumulate", "evaluation", "exact", "finite_part", "integral",
          "series", "zeta", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end]
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()

    def _wrap(self, name, fn):
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self, package: str = "cesaro") -> None:
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        namespaces = [importlib.import_module(package), *modules.values()]
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ["run"]):
                fn = getattr(mod, attr)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._patched.append((ns, key, fn))
                            setattr(ns, key, traced)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    def layer_totals(self) -> dict:
        """Per layer: span count and self time (s), children subtracted."""
        child_time = defaultdict(float)
        for sid, parent, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, _parent, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            if layer not in LAYERS:
                continue
            calls[layer] += 1
            self_s[layer] += (end - start) - child_time[sid]
        return {"calls": dict(calls), "self_s": dict(self_s)}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)
