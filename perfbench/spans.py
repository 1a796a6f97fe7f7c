"""Span tracing from outside the program.

``Tracer.install()`` replaces every public function of incomedyn's modules
with a wrapper that records a span (name, start, end, parent) around the
call.  The wrapper is put wherever the package refers to the original, so
calls between modules and inside one module are traced too.  The program's
own files are not changed; ``uninstall()`` puts the originals back.

Spans stay in memory.  The first ``keep`` are kept whole; every span is
counted in per-name totals of calls, time and self time (a span's duration
minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time

from incomedyn import cli, distlib, estimate, fpsolve, poverty, simulate, survey
import incomedyn

LAYERS = (simulate, distlib, estimate, survey, fpsolve, poverty, cli)
# calls from a layer into scipy that the per-layer counts need
FOREIGN = ((fpsolve, "solve_banded", "scipy.solve_banded"),)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.spans = []          # (id, parent id, name, start ns, end ns)
        self.totals = {}         # name -> [calls, total ns, self ns]
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0]      # id, ns covered by children
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer._record(frame[0], parent[0] if parent else None, name,
                               start, end, duration - frame[1])
        return traced

    def _record(self, sid, parent, name, start, end, self_ns) -> None:
        with self._lock:
            tot = self.totals.setdefault(name, [0, 0, 0])
            tot[0] += 1
            tot[1] += end - start
            tot[2] += self_ns
            if len(self.spans) < self.keep:
                self.spans.append((sid, parent, name, start, end))

    def install(self) -> None:
        wrappers = {}
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in LAYERS + (incomedyn,):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(mod, attr, wrappers[id(obj)][1])
        for mod, attr, name in FOREIGN:
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr)))

    def _patch(self, mod, attr, new) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._patches):
            setattr(mod, attr, old)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def count(self, name: str) -> int:
        return self.totals.get(name, [0])[0]

    def self_ns(self, layer: str) -> int:
        return sum(t[2] for name, t in self.totals.items() if layer_of(name) == layer)

    def layer_self_ms(self) -> dict:
        layers = sorted({layer_of(name) for name in self.totals})
        return {layer: self.self_ns(layer) / 1e6 for layer in layers}

    def write(self, path, extra: dict) -> None:
        payload = {
            "spans_kept": len(self.spans),
            "spans_total": sum(t[0] for t in self.totals.values()),
            "layer_self_ms": self.layer_self_ms(),
            "by_name": {name: {"calls": c, "total_ms": tot / 1e6, "self_ms": s / 1e6}
                        for name, (c, tot, s) in sorted(self.totals.items())},
            **extra,
            "spans": [{"id": i, "parent": p, "name": n, "start_ns": s, "end_ns": e}
                      for i, p, n, s, e in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
