"""Wall-clock spans for the perf benchmark: shims, a span store, self time.

The benchmark records spans from its own files, never from inside
``src/``: :meth:`Tracer.wrap` replaces a public function or method with
a shim that times every call and restores the original on
:meth:`Tracer.uninstall`.  A span holds its name, start, end, the span
that caused it and a tag — the request id or unit index it belongs to,
inherited from the parent unless the shim derives its own.  Parents are
tracked per asyncio task through a context variable, so two
connections served by one event loop never adopt each other's spans.

Spans stay in memory; :meth:`Tracer.dump` writes them as JSON lines
when the workload ends.  A span's *self time* is its duration minus the
part of that interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    """One timed call."""

    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    tag: Any
    attrs: Optional[Dict[str, Any]]

    @property
    def duration(self) -> float:
        """Wall seconds from call to return."""
        return self.end - self.start


class Tracer:
    """An in-memory span store plus the shims that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perf_span", default=(None, None)
        )
        self._patched: List[tuple] = []

    def _enter(self, args, tag_fn):
        parent, parent_tag = self._current.get()
        span_id = next(self._ids)
        tag = tag_fn(args) if tag_fn is not None else parent_tag
        token = self._current.set((span_id, tag))
        return token, span_id, parent, tag

    def _record(self, token, span_id, parent, name, start, tag, attrs) -> None:
        end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(Span(span_id, parent, name, start, end, tag, attrs))

    @contextlib.contextmanager
    def span(self, name: str, tag: Any = None):
        """One span around a block (a unit of work), tagged ``tag``."""
        token, span_id, parent, span_tag = self._enter(None, lambda _: tag)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._record(token, span_id, parent, name, start, span_tag, None)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag: Optional[Callable[[tuple], Any]] = None,
        attrs: Optional[Callable[[tuple, Any], Dict[str, Any]]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``tag(args)`` derives the span's tag (default: the parent's);
        ``attrs(args, result)`` adds fields such as byte counts once the
        call returns (not on an exception).
        """
        original = getattr(owner, attr)
        own = owner.__dict__.get(attr) if isinstance(owner, type) else original
        if inspect.iscoroutinefunction(original):

            async def shim(*args, **kwargs):
                token, span_id, parent, span_tag = self._enter(args, tag)
                start = time.perf_counter()
                extra = None
                try:
                    result = await original(*args, **kwargs)
                    extra = attrs(args, result) if attrs else None
                    return result
                finally:
                    self._record(
                        token, span_id, parent, name, start, span_tag, extra
                    )
        else:

            def shim(*args, **kwargs):
                token, span_id, parent, span_tag = self._enter(args, tag)
                start = time.perf_counter()
                extra = None
                try:
                    result = original(*args, **kwargs)
                    extra = attrs(args, result) if attrs else None
                    return result
                finally:
                    self._record(
                        token, span_id, parent, name, start, span_tag, extra
                    )

        functools.update_wrapper(shim, original)
        setattr(owner, attr, shim)
        self._patched.append((owner, attr, own))

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, own in reversed(self._patched):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patched.clear()

    def dump(self, path, src: str) -> None:
        """Append the spans to ``path`` as JSON lines labelled ``src``."""
        with open(path, "a", encoding="utf-8") as fp:
            for span in self.spans:
                row = dict(span._asdict(), src=src)
                fp.write(json.dumps(row, sort_keys=True) + "\n")


def load_spans(path) -> Dict[str, List[Span]]:
    """Spans written by :meth:`Tracer.dump`, grouped by their ``src``.

    Span ids are unique within one process only, so each dump carries a
    ``src`` field naming its process and round.
    """
    groups: Dict[str, List[Span]] = defaultdict(list)
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            row = json.loads(line)
            src = row.pop("src", "")
            groups[src].append(Span(**{k: row[k] for k in Span._fields}))
    return dict(groups)


def covered(start: float, end: float, intervals: Iterable[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """``span id -> self seconds``: duration minus what children cover.

    Concurrent children (two requests on one loop) may overlap; their
    union is subtracted once, so self time never goes negative.
    """
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(
            span.start, span.end, children.get(span.id, ())
        )
        for span in spans
    }


def layer_table(groups: Dict[str, List[Span]]) -> str:
    """Per-span-name calls, total and self seconds across all groups."""
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    for spans in groups.values():
        selfs = self_times(spans)
        for span in spans:
            calls[span.name] += 1
            total[span.name] += span.duration
            own[span.name] += selfs[span.id]
    width = max([len(n) for n in calls] + [4])
    lines = [f"{'span':<{width}}  {'calls':>8}  {'total_s':>10}  {'self_s':>10}"]
    for name in sorted(calls, key=lambda n: -own[n]):
        lines.append(
            f"{name:<{width}}  {calls[name]:>8}  {total[name]:>10.4f}  "
            f"{own[name]:>10.4f}"
        )
    return "\n".join(lines)
