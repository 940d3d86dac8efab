"""Lightweight perf observability: counters and phase timers.

The replication flow's performance claims (the paper's "<5% of VPR
place+route runtime", Section VII-A) should be measured, not asserted.
This module provides a process-wide registry that the hot paths —
embedder, incremental STA, legalizer, router, flow phases — report into:

* **counters** — monotonically increasing event counts (labels pushed /
  popped / pruned, STA nodes re-propagated vs. total, ripple moves);
* **timers** — cumulative wall time per named phase, via the
  :meth:`PerfRegistry.timer` context manager.

The registry is *disabled by default* and every instrumentation point is
guarded by a cheap truthiness test, so production runs pay one attribute
load + branch per event.  Enable it explicitly::

    from repro.perf import PERF
    PERF.enable()
    ... run the flow ...
    print(json.dumps(PERF.snapshot(), indent=2))

``python -m repro.bench.runner overhead --perf-json out.json`` and
``scripts/bench_perf.py`` both enable the registry and dump the snapshot
as JSON (see ``BENCH_perf.json`` for the committed trajectory).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class PerfRegistry:
    """Process-wide counter/timer registry (single-threaded updates).

    Every update happens in the process that owns the registry, so it
    never needs locking on the hot path.
    """

    __slots__ = ("enabled", "tracer", "_counters", "_timers", "_maxes")

    def __init__(self) -> None:
        self.enabled = False
        #: Optional :class:`repro.trace.SpanTracer`; when set, every
        #: :meth:`timer` block also emits a trace span (the tracer layers
        #: on the registry's call sites instead of duplicating them).
        self.tracer = None
        self._counters: dict[str, int] = defaultdict(int)
        self._timers: dict[str, float] = defaultdict(float)
        self._maxes: dict[str, float] = {}

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._counters.clear()
        self._timers.clear()
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
    def timer(self, name: str):
        """Accumulate the wall time of the ``with`` body under ``name``.

        No-op (but still a valid context manager) when disabled.
        """
        tracer = self.tracer
        if not self.enabled and tracer is None:
            yield
            return
        if tracer is not None:
            tracer.begin(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            if self.enabled:
                self._timers[name] += time.perf_counter() - start
            if tracer is not None:
                tracer.end()

    # -- reporting -----------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready copy: ``{"counters": {...}, "timers": {...}}``."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "timers": {k: round(v, 6) for k, v in sorted(self._timers.items())},
            "maxes": {k: round(v, 3) for k, v in sorted(self._maxes.items())},
        }

    def write_snapshot(self, path) -> None:
        """Dump :meth:`snapshot` as JSON, creating parent directories.

        Campaign workers use this to drop a per-task perf snapshot into
        the campaign directory's ``perf/`` subdir.
        """
        import json

        from repro.paths import ensure_parent_dir

        with open(ensure_parent_dir(path), "w") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def format(self) -> str:
        """Human-readable report (the ``overhead`` experiment prints it)."""
        lines = []
        if self._timers:
            lines.append("perf timers (cumulative seconds):")
            width = max(len(k) for k in self._timers)
            for name, seconds in sorted(self._timers.items()):
                lines.append(f"  {name:<{width}}  {seconds:10.4f}")
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
