"""In-memory span tracing around calls into the wsvad layers.

The tracer wraps module-level names (and one method) from the outside, so
the package itself carries no timing code. Each call through a wrapped name
records a span: name, start, end, the index of the enclosing span and the
benchmark phase that was active. Spans stay in memory until the run ends.
Times are read from ``time.process_time``: CPU seconds of this process,
which leave out time the operating system or the host gives to others.
A span's self time is its duration minus the time its direct children
cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from time import process_time

NO_PARENT = -1


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    calls_by_phase: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    total_s_by_phase: dict[str, float] = field(default_factory=lambda: defaultdict(float))


class Tracer:
    """Records spans for every call through the names it has wrapped."""

    def __init__(self):
        self.clock = process_time
        # each span: [name, start, end, parent index, phase]
        self.spans: list[list] = []
        self.phase = "setup"
        # (counter name, phase) -> running total
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is the span name, a callable mapping (args, kwargs) to one,
        or None to record no span. ``before(args, kwargs)`` runs ahead of
        the span and ``after(result)`` once it has closed, so neither is
        counted in the layer's time.
        """
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if name is None:
                result = original(*args, **kwargs)
            else:
                span_name = name(args, kwargs) if callable(name) else name
                rec = [span_name, 0.0, 0.0, stack[-1] if stack else NO_PARENT, self.phase]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def record(self, span_name: str, start: float, end: float) -> None:
        """Add a span measured by the caller, as a child of the open span."""
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append([span_name, start, end, parent, self.phase])

    def count(self, counter: str, amount: float) -> None:
        self.counts[(counter, self.phase)] += amount

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def layer_stats(self) -> dict[str, LayerStats]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent != NO_PARENT:
                child_time[parent] += end - start
        stats: dict[str, LayerStats] = defaultdict(LayerStats)
        for i, (name, start, end, _, phase) in enumerate(self.spans):
            s = stats[name]
            s.calls += 1
            s.total_s += end - start
            s.self_s += end - start - child_time[i]
            s.calls_by_phase[phase] += 1
            s.total_s_by_phase[phase] += end - start
        return stats

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "phase": phase}) + "\n")
