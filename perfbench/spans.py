"""In-memory span recorder and self-time arithmetic.

A span is one call into a layer: name, start, end, parent span, the op
it belongs to, and a few attributes read from the call (engine, PCG
iterations, scenario count...).  Spans are appended to a list while a
run is traced and written out once at the end; nothing here touches
the program under test.  Stdlib only, so the arithmetic can be tested
without numpy.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into the span list, -1 for a top-level span
    op: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``attrs(args, kwargs, result) -> dict`` read after a traced call.
AttrFn = Callable[[tuple, dict, Any], dict]


class Tracer:
    """Collects nested spans on one thread.

    ``active`` gates recording: a wrapped call made while it is False
    costs one attribute test.  ``op`` tags every span with the id of
    the benchmark op that caused it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter(), parent=parent, op=self.op)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(
        self, name: str, fn: Callable, attrs: AttrFn | None = None
    ) -> Callable:
        """A traced stand-in for ``fn``.

        Generator functions get one span per resumption, so a span
        only covers time spent inside the generator's own frames.
        """
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    if not tracer.active:
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    else:
                        index = tracer._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(index)
                        tracer.spans[index].attrs["items"] = 1
                    yield item

            gen_wrapper.__wrapped_by_tracer__ = fn
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if attrs is not None:
                tracer.spans[index].attrs.update(attrs(args, kwargs, result))
            return result

        wrapper.__wrapped_by_tracer__ = fn
        return wrapper


def dump_spans(spans: list[Span], path: str) -> None:
    with open(path, "w") as handle:
        json.dump([asdict(s) for s in spans], handle)


def load_spans(path: str, op: int, offset: int) -> list[Span]:
    """Spans written by :func:`dump_spans` in another process, tagged
    with the op that process ran and re-indexed to follow ``offset``
    spans already collected."""
    with open(path) as handle:
        spans = [Span(**raw) for raw in json.load(handle)]
    for span in spans:
        span.op = op
        if span.parent >= 0:
            span.parent += offset
    return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover.

    Children are merged as intervals clipped to the parent, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(
            children.get(index, ()), key=lambda i: spans[i].start
        ):
            lo = max(spans[child].start, reach)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.duration - covered)
    return result


def top_level_time(spans: list[Span]) -> dict[int, float]:
    """Per op, the time covered by its top-level spans."""
    per_op: dict[int, float] = {}
    for span in spans:
        if span.parent < 0:
            per_op[span.op] = per_op.get(span.op, 0.0) + span.duration
    return per_op
