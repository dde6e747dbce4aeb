"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's side only: ``Tracer.wrap`` swaps a
module attribute (the name capnet calls a function through) for a wrapper
that opens a span around each call. Each span keeps its name, start, end,
parent span and operation id; the list is written out once the run ends.

A span name is ``<layer>.<what>``. A span's self time is its duration minus
the part of its interval that its child spans cover; a layer's self time
sums the self times of its spans, so it is the layer's time not covered by
another layer.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Phase:
    """A stretch of the run (set-up, one pass): its span range and counters."""

    name: str
    first: int
    end: int | None = None
    counters: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phases: list[Phase] = []
        self.gauges: dict[str, float] = {}
        self.op = "setup"
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.start_phase("setup")

    def start_phase(self, name: str) -> None:
        self.finish()
        self.phases.append(Phase(name, len(self.spans)))

    def finish(self) -> None:
        if self.phases and self.phases[-1].end is None:
            self.phases[-1].end = len(self.spans)

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def count(self, name: str, amount: float = 1) -> None:
        self.phases[-1].counters[name] += amount

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``on_result(tracer, args, kwargs, result)`` records counters from a
        successful call.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


# -- arithmetic ----------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered(span.start, span.end, children[i])
        for i, span in enumerate(spans)
    ]


def outermost(spans: list[Span]) -> list[bool]:
    """True for each span that no ancestor of the same name encloses."""
    flags = []
    for span in spans:
        ancestor = span.parent
        while ancestor is not None and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        flags.append(ancestor is None)
    return flags
