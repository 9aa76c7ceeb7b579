"""Wrapping the program's callables in place, with or without spans.

`Patcher` is the one interception mechanism of the benchmark: it wraps a
method or a module function (and every alias of it in the program's
package), runs an `after(result, args)` hook when the call returns, and
undoes every wrap on `uninstall`. `Tracer` is a Patcher that also records
a span around each wrapped call.

Spans are kept as parallel lists (name, start, end, parent index) and
only written out when the run ends. A layer's self time is its span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path


class Patcher:
    """Wraps callables in place; `uninstall` undoes every wrap.

    Used as a context manager, it calls `install` on entry (subclasses add
    their patches there) and `uninstall` on exit.
    """

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        pass

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def wrap(self, fn, name: str | None, after):
        """fn with after(result, args) run once it returns; `name` is the
        span a Tracer records around the call."""
        if after is None:
            return fn

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args)
            return result

        return wrapped

    def patch_method(self, cls, attr: str, name: str | None = None,
                     after=None) -> None:
        """Wrap a method defined on cls itself (not an inherited one)."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, after))

    def patch_function(self, module, attr: str, name: str | None = None,
                       after=None) -> None:
        """Wrap a module function and every alias of it imported by name
        into another loaded module of the same package."""
        original = getattr(module, attr)
        replacement = self.wrap(original, name, after)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != package:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Tracer(Patcher):
    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.samples: dict[str, list[float]] = {}
        self.tag = ""  # label the workload sets, e.g. the architecture
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str | None, after):
        """fn in a span named `name`; after(result, args) runs outside it."""
        if name is None:
            return super().wrap(fn, name, after)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result, args)
            return result

        return traced

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    # -- reporting -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self seconds per span name."""
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        totals: dict[str, float] = {}
        for idx, name in enumerate(self.names):
            own = self.ends[idx] - self.starts[idx] - child[idx]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        """Write every span as [name, start, end, parent] rows."""
        origin = self.starts[0] if self.starts else 0.0
        rows = [[n, round(s - origin, 7), round(e - origin, 7), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends,
                                      self.parents)]
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s",
                                               "parent"], "spans": rows}))
