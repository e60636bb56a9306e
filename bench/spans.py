"""In-memory spans around calls into hypcross's public functions.

A span is one call: its name ``<module>.<function>``, its start and end on
the ``time.perf_counter`` clock, the index of the span it ran inside (its
parent), the thread that ran it, and optional attributes.  Spans stay in
memory while the run lasts; ``Tracer.dump`` writes them out at the end.

The library is not edited.  ``Tracer.patch`` swaps a module attribute for a
wrapper that records a span and restores the original on exit, so a call
that a hypcross module makes through that attribute is traced too.  A span
opened on a worker thread that holds no open span of its own takes as parent
the innermost span open on the thread that made the tracer, which is the
caller blocked on the pool.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time

FIELDS = ("name", "start", "end", "parent", "thread", "attrs")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: dict | None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = None
        rec = [name, 0.0, 0.0, parent, threading.get_ident(), attrs]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list, exc: BaseException | None) -> None:
        rec[2] = time.perf_counter()
        self._stack().pop()
        if exc is not None:
            rec[5] = {**(rec[5] or {}), "error": type(exc).__name__}

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        rec = self._open(name, attrs)
        try:
            yield rec
        except BaseException as exc:
            self._close(rec, exc)
            raise
        self._close(rec, None)

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` with every call recorded as a span; ``attrs(*args)``, if
        given, supplies the span's attributes from the call's arguments.
        Written out rather than through ``span`` because it runs around
        calls of a few microseconds."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, attrs(*args) if attrs else None)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(rec, exc)
                raise
            self._close(rec, None)
            return out

        return traced

    @contextlib.contextmanager
    def patch(self, targets):
        """Trace ``(module, attribute, span name, attrs)`` targets while the
        block runs; the original attributes come back on exit."""
        saved = []
        try:
            for module, attr, name, attrs in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, attrs))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": FIELDS, "spans": self.spans}, fh)


COST_CALLS = 20_000


def call_cost() -> float:
    """Seconds that a traced call adds to an untraced one, measured on a
    function that does nothing, with a tracer of its own."""
    noop = lambda: None  # noqa: E731
    traced = Tracer().wrap(noop, "bench.noop")
    t0 = time.perf_counter()
    for _ in range(COST_CALLS):
        noop()
    t1 = time.perf_counter()
    for _ in range(COST_CALLS):
        traced()
    return ((time.perf_counter() - t1) - (t1 - t0)) / COST_CALLS


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the summed durations of its direct
    children.  Children that ran in parallel on pool threads can sum to more
    than their parent, so a self time can be negative."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _, _), c in zip(spans, child)]


def by_root(spans: list[list]) -> dict[int, list[int]]:
    """Index of each root span -> indices of every span below it.  A span is
    stored when it opens, so its parent always comes before it."""
    root_of: list[int] = []
    groups: dict[int, list[int]] = {}
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent is None:
            root_of.append(i)
            groups[i] = []
        else:
            root_of.append(root_of[parent])
            groups[root_of[parent]].append(i)
    return groups
