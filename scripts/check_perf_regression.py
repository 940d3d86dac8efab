#!/usr/bin/env python
"""Perf-regression gate: compare a bench_perf run against the baseline.

Usage::

    python scripts/check_perf_regression.py bench_perf_quick.json \
        --baseline BENCH_perf.json --threshold 0.30

Fails (exit 1) when any phase present in both files is slower than
``baseline * (1 + threshold)``.  Absolute times differ between the
committed full-size baseline and a ``--quick`` CI run, so the gate only
compares same-shape runs: the baseline's ``phases`` column when both
runs declare the same ``meta.quick`` flag, else the ``quick_phases``
column recorded in the committed baseline (regenerate with
``scripts/bench_perf.py --quick`` and merge under that key).  With no
comparable column the gate passes with a notice rather than comparing
apples to oranges.

The routing hot-path spans (``--gate-timers``, default
``route.negotiate`` and ``route.wmin``) are gated the same way by their
inclusive time in the ``wmin`` phase's own span table, against the
baseline's ``phase_perf`` (same-shape runs) or ``quick_phase_perf``
(quick run vs committed full baseline) column.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


#: The phase whose span table the ``--gate-timers`` spans are read from.
GATE_PHASE = "wmin"


def load_phases(path: Path) -> dict:
    data = json.loads(path.read_text())
    return data


def _phase_timers(report: dict, column: str) -> dict[str, dict]:
    """The :data:`GATE_PHASE` span table of ``report[column]`` ({} if absent)."""
    return report.get(column, {}).get(GATE_PHASE, {}).get("timers", {})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path, help="bench_perf JSON of this run")
    parser.add_argument(
        "--baseline", type=Path, default=Path("BENCH_perf.json"),
        help="committed baseline JSON",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.30,
        help="allowed slowdown fraction per phase (0.30 = +30%%)",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.005,
        help="ignore phases whose baseline is below this (sub-millisecond "
        "phases are timer noise at any relative threshold)",
    )
    parser.add_argument(
        "--gate-timers",
        default="route.negotiate,route.wmin",
        metavar="CSV",
        help="spans gated like phases, by their inclusive time in the "
        f"{GATE_PHASE} phase (empty to disable)",
    )
    args = parser.parse_args(argv)

    current = load_phases(args.current)
    baseline = load_phases(args.baseline)
    cur_phases: dict[str, float] = current.get("phases", {})

    # Pick the comparable baseline column: same-shape run if recorded
    # (quick CI runs vs the committed full-size numbers are not
    # comparable in absolute terms).
    cur_quick = bool(current.get("meta", {}).get("quick"))
    base_quick = bool(baseline.get("meta", {}).get("quick"))
    if cur_quick == base_quick:
        prefix = ""
    elif cur_quick and "quick_phases" in baseline:
        prefix = "quick_"
    else:
        print(
            f"perf gate: no comparable baseline column "
            f"(run quick={cur_quick}, baseline quick={base_quick}, "
            f"no quick_phases recorded) — skipping gate"
        )
        return 0
    column = prefix + "phases"
    base_phases: dict[str, float] = baseline.get(column, {})

    failures = []
    width = max((len(name) for name in cur_phases), default=5)
    print(f"perf gate vs {args.baseline} [{column}], "
          f"threshold +{args.threshold:.0%}")
    print(f"{'phase':<{width}}  {'baseline':>10}  {'current':>10}  ratio")
    for name, cur_s in sorted(cur_phases.items()):
        base_s = base_phases.get(name)
        if not base_s:
            print(f"{name:<{width}}  {'-':>10}  {cur_s:>10.4f}  (new phase)")
            continue
        ratio = cur_s / base_s
        flag = ""
        if base_s < args.min_seconds:
            flag = "  (below --min-seconds, not gated)"
        elif ratio > 1.0 + args.threshold:
            failures.append((name, base_s, cur_s, ratio))
            flag = "  REGRESSION"
        print(f"{name:<{width}}  {base_s:>10.4f}  {cur_s:>10.4f}  "
              f"{ratio:>5.2f}x{flag}")

    # Named spans (the routing hot paths) are gated like phases, by
    # their inclusive time in the one phase that runs a W_min search on
    # its own, read from each run's per-phase span table.
    gated_timers = [t for t in args.gate_timers.split(",") if t]
    base_timers = _phase_timers(baseline, prefix + "phase_perf")
    cur_timers = _phase_timers(current, "phase_perf")
    if gated_timers and base_timers:
        for name in gated_timers:
            cur_s = cur_timers.get(name, {}).get("inclusive_s")
            base_s = base_timers.get(name, {}).get("inclusive_s")
            if cur_s is None or not base_s:
                print(f"timer {name}: not present in both runs, not gated")
                continue
            ratio = cur_s / base_s
            flag = ""
            if base_s < args.min_seconds:
                flag = "  (below --min-seconds, not gated)"
            elif ratio > 1.0 + args.threshold:
                failures.append((f"timer {name}", base_s, cur_s, ratio))
                flag = "  REGRESSION"
            print(f"timer {name} [{GATE_PHASE}]: {base_s:.4f}s -> {cur_s:.4f}s  "
                  f"{ratio:.2f}x{flag}")

    if failures:
        print()
        for name, base_s, cur_s, ratio in failures:
            print(
                f"FAIL: {name} regressed {ratio:.2f}x "
                f"({base_s:.4f}s -> {cur_s:.4f}s, "
                f"limit {1.0 + args.threshold:.2f}x)",
                file=sys.stderr,
            )
        return 1
    print("perf gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
