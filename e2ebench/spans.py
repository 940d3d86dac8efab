"""Outside-in span tracing for the traced benchmark run.

The program has no span model of its own yet, so the traced run wraps
the layers' public entry points from here: each wrapper records a
``(name, start, end, parent, circuit)`` span in memory and the run
writes them out at the end.  Wrappers are installed on the attribute the
caller looks up (a class method, or a function as the calling module
imported it) and removed again by :meth:`SpanRecorder.uninstall`; the
untraced runs never install any.

A span's *self time* is its duration minus the durations of its direct
children.  The self times of all spans add up to the inclusive time of
the top-level spans, which is how the layer table shows how much of the
timed wall clock the wrapped layers cover.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    """One traced call; ``parent`` indexes the recorder's span list."""

    name: str
    start: float
    end: float
    parent: int
    circuit: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span list plus the wrappers that fill it."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        #: Label stamped on every span opened from now on.
        self.circuit = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, func, on_result=None):
        """``func`` wrapped so that each call records a span ``name``.

        ``on_result`` (optional) sees every return value, which is how
        the run counts work that only the return value reveals.
        """
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(Span(name, clock(), 0.0, parent, self.circuit))
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by its wrapper."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``{name: {"calls", "inclusive_s", "self_s"}}`` summed over spans."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["inclusive_s"] += span.duration
        row["self_s"] += own
    return table


def top_level_seconds(spans: list[Span]) -> float:
    """Inclusive time of the spans nobody else opened (= sum of self times)."""
    return sum(span.duration for span in spans if span.parent < 0)


def format_layer_table(table: dict[str, dict[str, float]], wall_s: float) -> str:
    """Text table sorted by self time, with each layer's share of ``wall_s``."""
    lines = [f"{'span':<20} {'calls':>7} {'inclusive_s':>12} {'self_s':>10} {'self%':>6}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"{name:<20} {row['calls']:>7} {row['inclusive_s']:>12.4f} "
            f"{row['self_s']:>10.4f} {share:>6.1f}"
        )
    return "\n".join(lines)
