"""Spans recorded from outside the package.

``Tracer.install`` wraps each function named in ``layers.TRACED`` at
every place the package looks it up: the attribute of the defining
module, every other ``mpdagid`` module that bound the same object by
name (``from .meek import close``), and the class attribute for methods
and constructors.  A wrapper records nothing unless an operation is
active, so the benchmark's own checks stay out of the trace.  Spans stay
in memory until ``write``.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

from layers import TRACED


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.error: Optional[str] = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self.dags = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        count_dags = name == "oracle.enumerate_dags"

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count_dags:
                self.dags += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "mpdagid" or k.startswith("mpdagid.")]
        for name, _ in TRACED:
            module, *path = name.split(".")
            holder = importlib.import_module(f"mpdagid.{module}")
            for part in path[:-1]:
                holder = getattr(holder, part)
            target = getattr(holder, path[-1])
            if isinstance(target, type):
                self._set(target, "__init__", self._wrap(name, target.__init__))
            elif isinstance(holder, type):
                raw = holder.__dict__[path[-1]]
                if isinstance(raw, classmethod):
                    self._set(holder, path[-1], classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(holder, path[-1], self._wrap(name, raw))
            else:
                wrapped = self._wrap(name, target)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is target:
                            self._set(m, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "op", "error"))
            for i, s in enumerate(self.spans):
                out.writerow((i, s.name, f"{s.start:.9f}", f"{s.end:.9f}", s.parent, s.op, s.error or ""))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Calls and self seconds per traced function, plus derived counters."""
    spans = tracer.spans
    calls: Counter = Counter(s.name for s in spans)
    self_s: Counter = Counter()
    for s, t in zip(spans, self_times(spans)):
        self_s[s.name] += t
    out: dict[str, float] = {}
    for name, _ in TRACED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    closes = [s for s in spans if s.name == "meek.close"]
    out["meek.close.inconsistent"] = sum(s.error == "InconsistentKnowledgeError" for s in closes)

    def in_enumeration(s: Span) -> bool:
        while s.parent >= 0:
            s = spans[s.parent]
            if s.name == "oracle.enumerate_dags":
                return True
        return False

    branch = [s for s in closes if in_enumeration(s)]
    dead = sum(s.error == "InconsistentKnowledgeError" for s in branch)
    out["oracle.enumerate_dags.dags"] = tracer.dags
    out["oracle.enumerate_dags.dead_branch_ratio"] = dead / len(branch) if branch else 0.0
    models = calls["oracle.random_model"]
    out["oracle.joint_table.calls_per_model"] = calls["oracle.joint_table"] / models if models else 0.0
    return out
