"""Perf observability: nested timed spans with self time, plus counters.

The replication flow's performance claims (the paper's "<5% of VPR
place+route runtime", Section VII-A) should be measured, not asserted.
This module provides the process-wide registry that every layer —
placer, embedder, incremental STA, legalizer, router, flow phases —
reports into:

* **spans** — :meth:`PerfRegistry.timer` records the ``with`` body as a
  named span (start, duration, process CPU time, optional arguments).
  Spans nest, and a span's *self time* is its duration minus the
  durations of the spans directly inside it, so the self times of a run
  add up to the time of its top-level spans.  :func:`span_table` turns a
  span list into the per-name ``{"calls", "inclusive_s", "self_s"}``
  table that :meth:`PerfRegistry.snapshot`, :meth:`PerfRegistry.format`
  and ``python -m repro trace-view`` all print;
* **counters** — monotonically increasing event counts (labels pushed /
  popped / pruned, STA nodes re-propagated vs. total, ripple moves);
* **maxes** — running maxima of gauges such as ``peak_rss_mb``.

A Chrome ``trace_event`` file is a window onto the same spans:
:meth:`PerfRegistry.trace` writes the spans closed inside its ``with``
body as complete (``"X"``) events, loadable in ``chrome://tracing`` or
Perfetto.

The registry is *disabled by default* and every instrumentation point is
guarded by one attribute test, so production runs pay one attribute
load + branch per span site.  Enable it explicitly::

    from repro.perf import PERF
    PERF.enable()
    ... run the flow ...
    print(PERF.format())

``python -m repro run --perf``, ``python -m repro.bench.runner overhead
--perf-json out.json`` and ``scripts/bench_perf.py`` all enable it (the
harness takes one snapshot per phase; see ``BENCH_perf.json``).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.paths import ensure_parent_dir

TRACE_FORMAT = "chrome-trace-event"


class PerfRegistry:
    """Process-wide span/counter registry (single-threaded updates).

    Every update happens in the process that owns the registry, so it
    never needs locking on the hot path.
    """

    __slots__ = ("enabled", "_spans", "_counters", "_maxes")

    def __init__(self) -> None:
        self.enabled = False
        #: Closed spans ``(name, start, duration, cpu, args)``, in seconds
        #: of ``time.perf_counter`` / ``time.process_time``, closing order.
        self._spans: list[tuple] = []
        self._counters: dict[str, int] = defaultdict(int)
        self._maxes: dict[str, float] = {}

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._spans.clear()
        self._counters.clear()
        self._maxes.clear()

    # -- recording -----------------------------------------------------

    def add(self, name: str, amount: int = 1) -> None:
        """Bump a counter (call sites guard with ``if PERF.enabled``)."""
        self._counters[name] += amount

    def record_max(self, name: str, value: float) -> None:
        """Keep the running maximum of a gauge (e.g. ``peak_rss_mb``).

        Unlike counters, max gauges merge across workers by taking the
        largest observation, which is what "peak RSS over the whole
        campaign" means when every worker reports its own peak.
        """
        current = self._maxes.get(name)
        if current is None or value > current:
            self._maxes[name] = value

    @contextmanager
    def timer(self, name: str, **args):
        """Record the ``with`` body as a span ``name`` with ``args``.

        Yields the span's argument dict, so the body can attach what it
        learns on the way (``None`` when disabled: a no-op, but still a
        valid context manager).  An exception closes the span with its
        type under ``args["error"]`` and propagates.
        """
        if not self.enabled:
            yield None
            return
        start = time.perf_counter()
        cpu = time.process_time()
        try:
            yield args
        except BaseException as exc:
            args["error"] = type(exc).__name__
            raise
        finally:
            self._spans.append(
                (
                    name,
                    start,
                    time.perf_counter() - start,
                    time.process_time() - cpu,
                    args or None,
                )
            )

    @contextmanager
    def trace(self, path, metadata: dict | None = None):
        """Write the spans closed inside the ``with`` body to ``path``.

        The file is Chrome ``trace_event`` JSON whose clock starts when
        the body does, stamped with this process's pid.  ``path=None``
        traces nothing.  A disabled registry records for the body only
        and is then handed back exactly as it was; an enabled one keeps
        the body's spans and counters, so ``--perf`` and ``--trace``
        combine.  The file is written even when the body raises.
        """
        if path is None:
            yield
            return
        was_enabled = self.enabled
        if not was_enabled:
            saved = (self._spans, self._counters, self._maxes)
            self._spans, self._counters, self._maxes = [], defaultdict(int), {}
            self.enabled = True
        first = len(self._spans)
        origin = time.perf_counter()
        pid = os.getpid()
        try:
            yield
        finally:
            spans = self._spans[first:]
            if not was_enabled:
                self.enabled = False
                self._spans, self._counters, self._maxes = saved
            _write_chrome_trace(path, spans, origin, pid, metadata)

    # -- reporting -----------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready copy: ``{"counters", "timers", "maxes"}``.

        ``timers`` is the :func:`span_table` of every recorded span.
        """
        return {
            "counters": dict(sorted(self._counters.items())),
            "timers": dict(sorted(span_table(self._spans).items())),
            "maxes": {k: round(v, 3) for k, v in sorted(self._maxes.items())},
        }

    def write_snapshot(self, path) -> None:
        """Dump :meth:`snapshot` as JSON, creating parent directories.

        The benchmark runner's ``--perf-json`` and the campaign workers'
        per-task files in ``DIR/perf/`` are written here.
        """
        with open(ensure_parent_dir(path), "w") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def format(self) -> str:
        """Human-readable report (``repro run --perf``, ``overhead``)."""
        lines = []
        if self._spans:
            lines.append("perf spans (seconds, by self time):")
            table = format_span_table(span_table(self._spans))
            lines.extend("  " + line for line in table.splitlines())
        if self._counters:
            lines.append("perf counters:")
            width = max(len(k) for k in self._counters)
            for name, count in sorted(self._counters.items()):
                lines.append(f"  {name:<{width}}  {count:>12}")
        if self._maxes:
            lines.append("perf maxes:")
            width = max(len(k) for k in self._maxes)
            for name, value in sorted(self._maxes.items()):
                lines.append(f"  {name:<{width}}  {value:>12.3f}")
        return "\n".join(lines) if lines else "perf registry: no events recorded"


def span_table(spans) -> dict[str, dict]:
    """``{name: {"calls", "inclusive_s", "self_s"}}`` summed over ``spans``.

    ``spans`` holds sequences starting ``(name, start, duration)`` in
    seconds.  A span's self time is its duration minus the durations of
    its direct children, the spans nested inside it with no span in
    between, so the ``self_s`` column sums to the total duration of the
    top-level spans.  Nesting is read from the intervals alone, which is
    what lets a Chrome trace's events and the registry's own spans share
    this one definition.
    """
    table: dict[str, dict] = {}
    open_spans: list[tuple[float, dict]] = []  # (end, row) of ancestors
    for span in sorted(spans, key=lambda span: (span[1], -span[2])):
        name, start, duration = span[0], span[1], span[2]
        while open_spans and open_spans[-1][0] <= start:
            open_spans.pop()
        row = table.get(name)
        if row is None:
            row = table[name] = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        row["calls"] += 1
        row["inclusive_s"] += duration
        row["self_s"] += duration
        if open_spans:
            open_spans[-1][1]["self_s"] -= duration
        open_spans.append((start + duration, row))
    return table


def format_span_table(table: dict[str, dict], limit: int | None = None) -> str:
    """Text table of :func:`span_table` rows by descending self time.

    ``limit`` keeps the first N rows; the closing ``total`` row sums every
    row's calls and self time (the time the top-level spans cover).
    Inclusive times overlap, so their column has no total.
    """
    rows = sorted(table.items(), key=lambda item: (-item[1]["self_s"], item[0]))
    width = max([len("total"), *(len(name) for name in table)])
    lines = [f"{'span':<{width}}  {'calls':>8}  {'inclusive_s':>12}  {'self_s':>12}"]
    for name, row in rows[:limit]:
        lines.append(
            f"{name:<{width}}  {row['calls']:>8}  "
            f"{row['inclusive_s']:>12.6f}  {row['self_s']:>12.6f}"
        )
    calls = sum(row["calls"] for row in table.values())
    self_s = sum(row["self_s"] for row in table.values())
    lines.append(f"{'total':<{width}}  {calls:>8}  {'':>12}  {self_s:>12.6f}")
    return "\n".join(lines)


def trace_span_table(trace: dict) -> dict[str, dict]:
    """The :func:`span_table` of a Chrome trace's complete (``X``) events."""
    return span_table(
        (event["name"], event["ts"] / 1e6, event.get("dur", 0.0) / 1e6)
        for event in trace.get("traceEvents", ())
        if event.get("ph") == "X"
    )


def _write_chrome_trace(path, spans, origin: float, pid: int, metadata) -> None:
    """Write ``spans`` as Chrome ``trace_event`` JSON, times from ``origin``."""
    events = [
        {
            "name": name,
            "ph": "X",
            "ts": (start - origin) * 1e6,
            "dur": duration * 1e6,
            "pid": pid,
            "tid": 1,
            "args": {**(args or {}), "cpu_ms": round(cpu * 1e3, 3)},
        }
        for name, start, duration, cpu, args in spans
    ]
    events.sort(key=lambda event: (event["ts"], -event["dur"]))
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"format": TRACE_FORMAT, **(metadata or {})},
    }
    with open(ensure_parent_dir(path), "w") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def sample_peak_rss() -> float:
    """This process's lifetime peak RSS in MB (children folded in).

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS; normalize to
    MB so the ``peak_rss_mb`` gauge means the same thing everywhere.
    """
    import resource
    import sys

    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    divisor = (1 << 20) if sys.platform == "darwin" else (1 << 10)
    return round(peak / divisor, 3)


#: The process-wide registry instrumentation points report into.
PERF = PerfRegistry()
