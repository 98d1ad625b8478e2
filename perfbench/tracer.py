"""Spans around the public functions of a package, recorded from outside it.

`Tracer.installed()` replaces every public function of the package's
modules (the names in each module's ``__all__``), every public method of
the classes listed there, and the constructors named in ``constructors``
with a timing wrapper.  A function re-exported under the same object in
several modules (``from .selection import register``) is replaced in each of
them, so internal calls are timed too.  Leaving the context puts every
original attribute back.

Each call records one span: name, start, end and the index of the span that
was open when it started (its parent).  Spans stay in memory until
`write_spans` is called.  Hooks, keyed by span name, see the arguments,
result and exception of each call and return counter increments, for
counts a span cannot express (GMRES steps, pencil dimensions, failures).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, package, constructors=(), hooks=None):
        self.package = package
        self.constructors = set(constructors)
        self.hooks = dict(hooks or {})
        self.spans = []  # [name, start, end, parent, op]
        self.counters = Counter()
        self.op = 0
        self._stack = []
        self._saved = []

    # -- installation -------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        mods = [m for name, m in sorted(sys.modules.items())
                if name.startswith(prefix) and m is not None]
        return [self.package] + mods

    def targets(self):
        """(owner, attribute, original, span name) for every wrapped site."""
        modules = self._modules()
        found = []
        seen_classes = set()
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name in getattr(mod, "__all__", ()):
                obj = mod.__dict__.get(name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    span = f"{short}.{name}"
                    for owner in modules:
                        for attr, val in vars(owner).items():
                            if val is obj:
                                found.append((owner, attr, obj, span))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for klass in obj.__mro__:
                        if (klass in seen_classes
                                or not klass.__module__.startswith(self.package.__name__)):
                            continue
                        seen_classes.add(klass)
                        kshort = klass.__module__.rsplit(".", 1)[1]
                        for attr, val in vars(klass).items():
                            if not inspect.isfunction(val):
                                continue
                            if attr == "__init__":
                                span = f"{kshort}.{klass.__name__}"
                                if span not in self.constructors:
                                    continue
                            elif attr.startswith("_"):
                                continue
                            else:
                                span = f"{kshort}.{klass.__name__}.{attr}"
                            found.append((klass, attr, val, span))
        return found

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        hook = self.hooks.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            spans.append(record)
            stack.append(idx)
            result = exc = None
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:  # recorded for the hook, re-raised
                exc = e
                raise
            finally:
                record[2] = clock()
                stack.pop()
                if hook is not None:
                    tracer.counters.update(hook(args, kwargs, result, exc))

        return wrapper

    @contextlib.contextmanager
    def installed(self, op):
        """Trace calls made inside the block as operation `op`."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.op = op
        try:
            for owner, attr, original, span in self.targets():
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)
            self._stack.clear()

    # -- analysis -----------------------------------------------------

    def write_spans(self, path):
        """Write every span as one JSON line (gzip), times in seconds."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "op": op, "name": name,
                                    "start": start - t0, "end": end - t0,
                                    "parent": parent}))
                f.write("\n")


def covered(interval, children):
    """Length of the part of `interval` covered by the union of `children`."""
    lo, hi = interval
    total = 0.0
    cur_lo = cur_hi = None
    for c_lo, c_hi in sorted(children):
        c_lo, c_hi = max(c_lo, lo), min(c_hi, hi)
        if c_hi <= c_lo:
            continue
        if cur_hi is None or c_lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = c_lo, c_hi
        else:
            cur_hi = max(cur_hi, c_hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [(s[2] - s[1]) - covered((s[1], s[2]), children.get(i, ()))
            for i, s in enumerate(spans)]


def layer_stats(spans, key=None):
    """{layer: {"calls", "s", "self_s"}} with layer = key(span name).

    "s" is the time inside spans with no ancestor of the same layer, so a
    nested or recursive call is not timed twice.  The default layer is the
    span name itself.
    """
    key = key or (lambda name: name)
    selfs = self_times(spans)
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = key(name)
        st = stats[layer]
        st["calls"] += 1
        st["self_s"] += selfs[i]
        p = parent
        while p >= 0 and key(spans[p][0]) != layer:
            p = spans[p][3]
        if p < 0:
            st["s"] += end - start
    return dict(stats)


def module_of(name):
    """Module part of a span name ("linsolve.gmres" -> "linsolve")."""
    return name.split(".", 1)[0]
