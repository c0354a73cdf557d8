"""Outside-in tracer: spans and counts recorded around the program's
public functions, from inside the benchmark process.

Nothing under ``src/`` is edited. :meth:`Tracer.wrap` replaces a function
on every module or class that binds it with a wrapper that records a
span (name, start, end, parent span, operation) and, optionally, counts
taken from the call's arguments and result. A name that no longer exists
where it is expected raises at install time, so a later rename cannot
turn a layer's numbers into silent zeros.

Spans stay in memory; :meth:`Tracer.summary` derives per-operation self
time (a span's duration minus the time its child spans cover) and
:meth:`Tracer.dump` writes them out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    op: tuple[str, int] | None = None  # (operation kind, operation id)
    child_s: float = 0.0  # time covered by direct children

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))  # (kind, name) -> n
    ops: dict = field(default_factory=lambda: defaultdict(int))  # kind -> #ops
    _stack: list[int] = field(default_factory=list)
    _op: tuple[str, int] | None = None
    _patches: list[tuple[object, str, object]] = field(default_factory=list)
    names: list[str] = field(default_factory=list)  # span names wrapped
    enabled: bool = False

    # -- installing wrappers ---------------------------------------------------

    def wrap(self, name: str, sites: list[str], attr: str, pre=None, post=None) -> None:
        """Wrap ``attr`` on every site (``"pkg.module"`` or
        ``"pkg.module:Class"``) with one span-recording wrapper.

        All sites must currently bind the *same* function, so that the
        wrapper sees every call whichever import path the caller used.
        ``pre(args, kwargs)`` runs before the call; ``post(tracer, args,
        kwargs, result, pre_value)`` after it, to record counts.
        """
        owners = []
        for site in sites:
            mod_name, _, cls_name = site.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            if attr not in vars(owner):
                raise AttributeError(f"traced name {site}.{attr} no longer exists")
            owners.append(owner)
        original = vars(owners[0])[attr]
        for site, owner in zip(sites, owners):
            if vars(owner)[attr] is not original:
                raise AttributeError(f"{site}.{attr} is not the same function as {sites[0]}.{attr}")

        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            pre_value = pre(args, kwargs) if pre else None
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post:
                post(tracer, args, kwargs, result, pre_value)
            return result

        self.names.append(name)
        for owner in owners:
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self._op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def count(self, name: str, n: float = 1) -> None:
        kind = self._op[0] if self._op else "none"
        self.counts[(kind, name)] += n

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the current stack."""
        return any(self.spans[i].name == name for i in self._stack)

    @contextmanager
    def op(self, kind: str, op_id: int):
        """Attribute every span and count inside to one operation (a query,
        a build, an open); the operation itself is a root span."""
        self._op = (kind, op_id)
        self.ops[kind] += 1
        idx = self._open(kind)
        try:
            yield
        finally:
            self._close(idx)
            self._op = None

    # -- reading ---------------------------------------------------------------

    def summary(self, kind: str) -> dict[str, dict[str, float]]:
        """Per span name, over operations of ``kind``: calls, self ms and
        total ms, each divided by the number of such operations."""
        n = max(1, self.ops[kind])
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0.0, "ms": 0.0, "total_ms": 0.0})
        for s in self.spans:
            if s.op is None or s.op[0] != kind:
                continue
            row = out[s.name]
            row["calls"] += 1 / n
            row["ms"] += s.self_s * 1e3 / n
            row["total_ms"] += (s.end - s.start) * 1e3 / n
        return out

    def counts_per_op(self, kind: str) -> dict[str, float]:
        n = max(1, self.ops[kind])
        return defaultdict(float, {k: v / n for (kd, k), v in self.counts.items() if kd == kind})

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "op": list(s.op) if s.op else None,
                    "start_ms": round(s.start * 1e3, 4), "end_ms": round(s.end * 1e3, 4),
                    "self_ms": round(s.self_s * 1e3, 4),
                }) + "\n")
