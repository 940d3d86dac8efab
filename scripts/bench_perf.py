#!/usr/bin/env python
"""Perf-trajectory harness: micro-benchmark the flow's hot paths.

Runs the placer / embedder / STA / legalizer / flow / routing
micro-benchmarks (beside the placer, the workloads of
``benchmarks/bench_components.py``) and writes ``BENCH_perf.json`` with
per-phase wall times plus the perf-counter registry, so successive PRs
have a committed perf trajectory to compare against.

Usage::

    PYTHONPATH=src python scripts/bench_perf.py                # full run
    PYTHONPATH=src python scripts/bench_perf.py --quick        # CI smoke
    PYTHONPATH=src python scripts/bench_perf.py --out BENCH_perf.json \
        --baseline /tmp/before.json   # embed a prior run as "before"

Each phase is timed as the best of ``--repeats`` runs (min is the right
statistic for wall-clock micro-benchmarks: noise is strictly additive).
The raw per-repeat samples and their median are recorded alongside the
min (``samples`` / ``phases_median``), so a reader can judge how noisy
each committed number was without re-running the harness.  Each phase
also stores the perf registry's span table and counters for its own
work (``phase_perf``), the registry being reset as the phase starts.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall time; the raw samples land on ``_best_of.samples``
    (each phase_* function calls this exactly once per invocation)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    _best_of.samples = samples
    return min(samples)


def _median(samples: list[float]) -> float:
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ----------------------------------------------------------------------
# Workloads (mirror benchmarks/bench_components.py)
# ----------------------------------------------------------------------


def _placed_circuit(luts: int = 400, seed: int = 3):
    from repro.arch.fpga import FpgaArch
    from repro.bench.generator import CircuitSpec, generate_circuit
    from repro.place.initial import random_placement

    spec = CircuitSpec(
        "bench", luts=luts, inputs=30, outputs=30, ff_fraction=0.1, depth=9
    )
    netlist = generate_circuit(spec, scale=1.0)
    arch = FpgaArch.min_square_for(netlist.num_logic_blocks, netlist.num_pads)
    placement = random_placement(netlist, arch, seed=seed)
    return netlist, placement


def phase_sta_full(repeats: int, quick: bool) -> float:
    from repro.timing.sta import analyze

    netlist, placement = _placed_circuit(luts=120 if quick else 400)
    return _best_of(lambda: analyze(netlist, placement), repeats)


def phase_place(repeats: int, quick: bool) -> float:
    """Timing-driven placement at the Table I/II runner's effort (0.25)."""
    from repro.place.timing_driven import place_timing_driven

    netlist, placement = _placed_circuit(luts=120 if quick else 400)
    return _best_of(
        lambda: place_timing_driven(
            netlist, placement.arch, seed=1, inner_scale=0.25
        ),
        repeats,
    )


def phase_sta_after_move(repeats: int, quick: bool) -> float:
    """Timing refresh cost after single-cell moves (the legalizer's loop).

    Moves a cell and asks :class:`repro.timing.incremental.IncrementalSTA`
    for a fresh, complete timing view, then moves it back.
    """
    from repro.timing.incremental import IncrementalSTA

    netlist, placement = _placed_circuit(luts=120 if quick else 400)
    luts = [c.cell_id for c in netlist.cells.values() if c.is_lut]
    moves = luts[: 10 if quick else 40]
    free = placement.free_logic_slots()

    def run() -> None:
        sta = IncrementalSTA(netlist, placement)
        sta.analysis()
        for i, cid in enumerate(moves):
            cell = netlist.cells[cid]
            original = placement.slot_of(cid)
            placement.place(cell, free[i % len(free)])
            sta.analysis()
            placement.place(cell, original)
            sta.analysis()
        sta.detach()

    return _best_of(run, repeats)


def _bench_tree(leaves: int):
    from repro.arch.delay import LinearDelayModel
    from repro.arch.fpga import FpgaArch
    from repro.core.embedding_graph import GridEmbeddingGraph
    from repro.core.topology import FaninTree

    model = LinearDelayModel(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    arch = FpgaArch(12, 12, delay_model=model)
    graph = GridEmbeddingGraph(arch, include_pads=False)
    tree = FaninTree()
    nodes = [
        tree.add_leaf(graph.vertex_at((1 + (i % 3), 1 + i)), arrival=0.0)
        for i in range(leaves)
    ]
    while len(nodes) > 1:
        nodes = [
            tree.add_internal(nodes[i : i + 2], gate_delay=1.0)
            for i in range(0, len(nodes) - 1, 2)
        ] + (nodes[-1:] if len(nodes) % 2 else [])
    tree.set_root(nodes[0], gate_delay=0.0, vertex=graph.vertex_at((11, 6)))
    return graph, tree


def phase_embedder(leaves: int, repeats: int) -> float:
    from repro.core.embedder import EmbedderOptions, FaninTreeEmbedder

    graph, tree = _bench_tree(leaves)
    embedder = FaninTreeEmbedder(
        graph, options=EmbedderOptions(max_labels_per_vertex=6)
    )
    result = embedder.embed(tree)
    assert len(result.root_front) >= 1
    return _best_of(lambda: embedder.embed(tree), repeats)


def phase_embedder_lex3(repeats: int) -> float:
    from repro.arch.delay import LinearDelayModel
    from repro.arch.fpga import FpgaArch
    from repro.core.embedder import EmbedderOptions, FaninTreeEmbedder
    from repro.core.embedding_graph import GridEmbeddingGraph
    from repro.core.signatures import LexScheme
    from repro.core.topology import FaninTree

    model = LinearDelayModel(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    arch = FpgaArch(10, 10, delay_model=model)
    graph = GridEmbeddingGraph(arch, include_pads=False)
    tree = FaninTree()
    leaves = [
        tree.add_leaf(graph.vertex_at((1, 1 + i)), arrival=float(i % 3))
        for i in range(6)
    ]
    mid1 = tree.add_internal(leaves[:3], gate_delay=1.0)
    mid2 = tree.add_internal(leaves[3:], gate_delay=1.0)
    top = tree.add_internal([mid1, mid2], gate_delay=1.0)
    tree.set_root(top, gate_delay=0.0, vertex=graph.vertex_at((9, 5)))
    embedder = FaninTreeEmbedder(
        graph, scheme=LexScheme(3), options=EmbedderOptions(max_labels_per_vertex=6)
    )
    return _best_of(lambda: embedder.embed(tree), repeats)


def phase_flow_micro(repeats: int, quick: bool) -> float:
    """A few full optimizer iterations on a generated circuit."""
    from repro.arch.fpga import FpgaArch
    from repro.bench.generator import CircuitSpec, generate_circuit
    from repro.core.config import ReplicationConfig
    from repro.core.flow import optimize_replication
    from repro.place.initial import random_placement

    spec = CircuitSpec(
        "flowbench",
        luts=60 if quick else 150,
        inputs=16,
        outputs=16,
        ff_fraction=0.15,
        depth=7,
    )

    def run() -> None:
        netlist = generate_circuit(spec, scale=1.0)
        arch = FpgaArch.min_square_for(netlist.num_logic_blocks, netlist.num_pads)
        placement = random_placement(netlist, arch, seed=1)
        config = ReplicationConfig(
            max_iterations=2 if quick else 6,
            patience=2,
            max_tree_nodes=24,
            max_labels_per_vertex=6,
        )
        optimize_replication(netlist, placement, config)

    return _best_of(run, repeats)


def _routing_circuit(quick: bool):
    """The placed circuit every route phase works on."""
    return _placed_circuit(luts=120 if quick else 400, seed=7)


def phase_route_winf(repeats: int, quick: bool) -> float:
    from repro.route.pathfinder import route_design

    # Unbounded tracks: no width to pick, so no W_min search.
    netlist, placement = _routing_circuit(quick)
    return _best_of(
        lambda: route_design(netlist, placement, math.inf, max_iterations=1),
        repeats,
    )


def phase_route_lowstress(repeats: int, quick: bool) -> float:
    """Negotiated routing at the low-stress width (W_min + 20%)."""
    from repro.route.metrics import find_min_channel_width
    from repro.route.pathfinder import route_design

    netlist, placement = _routing_circuit(quick)
    min_width = find_min_channel_width(netlist, placement)
    width = max(min_width + 1, math.ceil(min_width * 1.2))
    return _best_of(lambda: route_design(netlist, placement, width), repeats)


def phase_wmin(repeats: int, quick: bool) -> float:
    """Full W_min search on the routing circuit (the dominant route phase)."""
    from repro.route.metrics import find_min_channel_width

    netlist, placement = _routing_circuit(quick)
    return _best_of(
        lambda: find_min_channel_width(netlist, placement), repeats
    )


def phase_netlist_load(repeats: int, quick: bool) -> float:
    """Cold-load an array-backed netlist from a pre-built store.

    The store is built once outside the timed body (streamed suite
    circuit); each repeat opens a fresh connection and materializes the
    flat id-indexed vectors in one pass — the exact work a zero-copy
    campaign worker does per task.
    """
    import tempfile

    from repro.bench.suite import ensure_suite_design
    from repro.netlist.store import NetlistStore

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "netlists.sqlite"
        store = NetlistStore(path)
        key = ensure_suite_design(
            store, "tseng" if quick else "alu4", 0.08 if quick else 1.0
        )
        return _best_of(lambda: NetlistStore(path).load_array(key), repeats)


def phase_legalizer(repeats: int, quick: bool) -> float:
    """Legalize a deliberately overfull placement.

    Mirrors the production call site (core flow): the legalizer gets a
    shared :class:`IncrementalSTA` instead of falling back to full
    re-analysis per move.  Circuit generation is hoisted out of the
    timed body — each run legalizes a fresh *copy* of the same overfull
    placement, so the timer sees only legalization work.
    """
    from repro.place.legalizer import TimingDrivenLegalizer
    from repro.timing.incremental import IncrementalSTA

    netlist, placement = _placed_circuit(luts=80 if quick else 200, seed=5)
    luts = [c for c in netlist.cells.values() if c.is_lut]
    # Stack a handful of cells onto already-occupied slots.
    squeeze = luts[: 4 if quick else 10]
    target = placement.slot_of(luts[-1].cell_id)
    for cell in squeeze:
        placement.place(cell, target)

    def run() -> None:
        overfull = placement.copy()
        sta = IncrementalSTA(netlist, overfull)
        try:
            TimingDrivenLegalizer(netlist, overfull, sta=sta).legalize()
        finally:
            sta.detach()

    return _best_of(run, repeats)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

PHASES = (
    "place",
    "sta_full",
    "sta_after_move",
    "embedder_tree6",
    "embedder_tree12",
    "embedder_lex3",
    "netlist_load",
    "legalizer",
    "flow_micro",
    "route_winf",
    "route_lowstress",
    "wmin",
)


def run_phases(
    repeats: int, quick: bool
) -> tuple[dict[str, float], dict[str, list[float]], dict[str, dict]]:
    """Returns ``(best-of timings, per-repeat samples, perf)`` per phase.

    The perf registry is reset at the start of each phase, so a phase's
    ``perf`` entry (its span table and counters) holds that phase's
    work alone, over all its repeats and its setup.
    """
    from repro.perf import PERF

    timings: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    perf: dict[str, dict] = {}

    def record(name: str, phase, *args) -> None:
        PERF.reset()
        timings[name] = phase(*args)
        samples[name] = [round(v, 6) for v in _best_of.samples]
        snapshot = PERF.snapshot()
        perf[name] = {
            "counters": snapshot["counters"],
            "timers": snapshot["timers"],
        }

    # Millisecond-scale phases get extra repeats: at ~10ms a single
    # scheduler hiccup dominates best-of-3, which is what made earlier
    # committed numbers drift run to run.
    micro = max(repeats, 9)
    PERF.enable()
    try:
        record("place", phase_place, repeats, quick)
        record("sta_full", phase_sta_full, repeats, quick)
        record("sta_after_move", phase_sta_after_move, repeats, quick)
        record("embedder_tree6", phase_embedder, 6, micro)
        record("embedder_tree12", phase_embedder, 12, micro)
        record("embedder_lex3", phase_embedder_lex3, micro)
        record("netlist_load", phase_netlist_load, micro, quick)
        record("legalizer", phase_legalizer, micro, quick)
        record("flow_micro", phase_flow_micro, max(1, repeats - 1), quick)
        record("route_winf", phase_route_winf, repeats, quick)
        record("route_lowstress", phase_route_lowstress, max(1, repeats - 1), quick)
        # The search is end-to-end (many negotiations per run), so it gets
        # the fewest repeats.
        record("wmin", phase_wmin, max(1, repeats - 2), quick)
    finally:
        PERF.disable()
    return timings, samples, perf


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("BENCH_perf.json"))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick", action="store_true", help="small sizes (CI smoke run)"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="prior bench_perf JSON to embed as the 'before' column",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="print only, do not write --out"
    )
    args = parser.parse_args(argv)

    from repro.perf import sample_peak_rss

    timings, samples, perf = run_phases(args.repeats, args.quick)

    report: dict = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "quick": args.quick,
            "repeats": args.repeats,
            "baseline_notes": (
                "ms-scale phases (embedder_*, legalizer) run with extra "
                "repeats and the legalizer phase now mirrors production "
                "(IncrementalSTA, generation hoisted out of the timed "
                "body); their numbers re-baseline at these semantics"
            ),
        },
        "phases": timings,
        "phases_median": {
            name: round(_median(vals), 6) for name, vals in samples.items()
        },
        "samples": samples,
        "phase_perf": perf,
        "maxes": {"peak_rss_mb": sample_peak_rss()},
    }

    width = max(len(name) for name in timings)
    if args.baseline is not None and args.baseline.exists():
        before = json.loads(args.baseline.read_text())
        before_phases = before.get("phases", before)
        report["baseline"] = before_phases
        speedups = {}
        print(f"{'phase':<{width}}  {'before':>10}  {'after':>10}  speedup")
        for name, after_s in timings.items():
            before_s = before_phases.get(name)
            if before_s:
                speedups[name] = before_s / after_s if after_s else math.inf
                print(
                    f"{name:<{width}}  {before_s:>10.4f}  {after_s:>10.4f}  "
                    f"{speedups[name]:>6.2f}x"
                )
            else:
                print(f"{name:<{width}}  {'-':>10}  {after_s:>10.4f}")
        report["speedup"] = speedups
    else:
        print(f"{'phase':<{width}}  {'seconds':>10}")
        for name, seconds in timings.items():
            print(f"{name:<{width}}  {seconds:>10.4f}")

    if not args.no_write:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
