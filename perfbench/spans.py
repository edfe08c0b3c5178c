"""In-memory span recorder that wraps the l1svm package's module attributes.

Nothing in `src/` knows about tracing: `Tracer.install` replaces each named
function in every loaded `l1svm` module (and in module-level dicts such as
`checks.SUITES`) with a wrapper that records one span per call.  Module
globals are looked up at call time, so calls from inside the package, such
as `project_l1_l2` calling `project_l1`, are recorded too.  Targets that no
longer exist are skipped, so their metrics read zero instead of failing.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, note=None):
        """Return `fn` recording a span per call; `note(args, kwargs, result)` adds attrs."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(Span(name, perf_counter(), 0.0, parent))
            stack.append(idx)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                span = spans[idx]
                span.end = perf_counter()
                stack.pop()
                if note is not None and done:
                    span.attrs = note(args, kwargs, result)

        return traced

    def install(self, package: str, targets: dict) -> None:
        """Wrap each `"module.attr"` of `targets` (mapped to a note function or None)."""
        for qualname, note in targets.items():
            mod_name, attr = qualname.rsplit(".", 1)
            fn = getattr(sys.modules.get(f"{package}.{mod_name}"), attr, None)
            if callable(fn):
                self._undo += rebind(package, fn, self.wrap(qualname, fn, note))

    def uninstall(self) -> None:
        for table, key, fn in reversed(self._undo):
            table[key] = fn
        self._undo.clear()


def rebind(package: str, old, new) -> list:
    """Point every reference to `old` in the package's modules, and in their
    module-level dicts, at `new`.  Returns (table, key, old) entries to undo it."""
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        tables = [vars(mod)] + [v for v in vars(mod).values() if isinstance(v, dict)]
        for table in tables:
            for key, value in list(table.items()):
                if value is old:
                    table[key] = new
                    undo.append((table, key, old))
    return undo


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for ch in sorted(children.get(i, ()), key=lambda c: c.start):
            s, e = max(ch.start, sp.start), min(ch.end, sp.end)
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out.append(sp.duration - covered)
    return out


def nesting_violations(spans: list[Span], slack: float = 1e-6) -> list[str]:
    """Parents whose direct children add up to more time than the parent itself took."""
    child_total: dict[int, float] = {}
    for sp in spans:
        if sp.parent >= 0:
            child_total[sp.parent] = child_total.get(sp.parent, 0.0) + sp.duration
    return [f"{spans[i].name}: children {t:.6f} s > span {spans[i].duration:.6f} s"
            for i, t in child_total.items() if t > spans[i].duration + slack]


def dump(spans: list[Span], path, extra: dict | None = None) -> None:
    names = sorted({sp.name for sp in spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[sp.name], sp.start, sp.end, sp.parent, sp.attrs] for sp in spans]
    with open(path, "w") as fh:
        json.dump({"names": names, "spans": rows, "extra": extra or {}}, fh)


def load(path) -> tuple[list[Span], dict]:
    with open(path) as fh:
        doc = json.load(fh)
    names = doc["names"]
    return [Span(names[n], s, e, p, a) for n, s, e, p, a in doc["spans"]], doc["extra"]


def merge(groups) -> list[Span]:
    """Concatenate span lists from several processes, re-basing parent indices."""
    out: list[Span] = []
    for spans in groups:
        base = len(out)
        out.extend(Span(sp.name, sp.start, sp.end, sp.parent + base if sp.parent >= 0 else -1,
                        sp.attrs) for sp in spans)
    return out
