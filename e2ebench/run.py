"""End-to-end benchmark of the replication reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload rt-flow --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``rt-flow``,
``lex3-flow`` and ``table1-store``.  One run is one process and one
closed-loop client: it sets up the workload's designs, then runs passes
over all of them back to back (each circuit placed, routed and, on the
flow workloads, replicated and re-routed, with ``jobs=1``) until
``--seconds`` of pipeline time have been measured, at least one pass.
After each circuit, outside the timed region, the outputs are checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one
pass with span wrappers around every layer and prints the per-layer
metrics instead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

# Set-up is measured from here, before any repro import.
_STARTED = time.perf_counter()
_STARTED_CPU = time.process_time()

import argparse
import heapq
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
STATE_DIR = BENCH_DIR / ".state"

#: Set-ups per run: this process plus fresh ``--setup-only`` interpreters,
#: all before the timed passes; ``setup_s`` is their median CPU time.
SETUP_SAMPLES = 7

#: ``wall_ref_s`` scales each circuit's wall time by ``REF_PROBE_S``
#: over the host probe timed around it.  The probe takes about 0.04 s
#: while the shared host is quick, so ``wall_ref_s`` reads close to the
#: quick host's wall clock.
REF_PROBE_S = 0.04


def host_probe_s() -> float:
    """Time a fixed workload that does not use the program: Dijkstra
    over a 150 x 150 grid with seeded weights, the dict, heap
    and float work the router and embedder are made of.  The shared
    host's speed drifts by up to 2x within minutes; timing this next to
    every circuit measures the drift the circuit ran under."""
    start = time.perf_counter()
    rng = random.Random(7)
    weight = {(x, y): 1.0 + rng.random() for x in range(150) for y in range(150)}
    dist = {(0, 0): 0.0}
    heap = [(0.0, (0, 0))]
    while heap:
        d, (x, y) = heapq.heappop(heap)
        if d > dist[x, y]:
            continue
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nxt in weight and d + weight[nxt] < dist.get(nxt, math.inf):
                dist[nxt] = d + weight[nxt]
                heapq.heappush(heap, (dist[nxt], nxt))
    return time.perf_counter() - start


def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    that ``BENCHMARK.json`` declares; the run prints exactly these."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


#: Per-layer metric -> ``repro.perf`` counter(s) it sums.
PERF_COUNTERS = {
    "timing.refreshes": ("sta.refreshes",),
    "timing.nodes_repropagated": ("sta.nodes_repropagated",),
    "timing.nodes_total": ("sta.nodes_total",),
    "core.labels_pushed": ("embedder.labels_pushed",),
    "core.labels_popped": ("embedder.labels_popped",),
    "core.labels_pruned": ("embedder.labels_pruned",),
    "route.wmin_probes": (
        "route.wmin.cold_probes", "route.wmin.warm_probes", "route.wmin.replay_probes",
    ),
    "route.iterations": ("route.iterations",),
    "route.search_pops": ("route.search_pops",),
    "route.search_pushes": ("route.search_pushes",),
    "route.nets_routed": ("route.nets_routed",),
    "route.nets_ripped": ("route.nets_ripped",),
}

#: Per-layer time metric -> span whose summed self time it reports.
SELF_TIMES = {
    "netlist.clone_s": "netlist.clone",
    "place.anneal_s": "place",
    "place.sta_s": "place.sta",
    "place.legalize_s": "place.legalize",
    "place.copy_s": "place.copy",
    "timing.incremental_s": "timing.incremental",
    "timing.spt_s": "timing.spt",
    "core.tree_s": "core.tree",
    "core.embed_s": "core.embed",
    "core.apply_s": "core.apply",
    "core.unify_s": "core.unify",
    "route.wmin_s": "route.wmin",
    "route.lowstress_s": "route.lowstress",
    "route.winf_s": "route.winf",
    "route.sta_s": "route.sta",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="End-to-end replication benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up once, print its set-up time and exit",
    )
    return parser.parse_args(argv)


def import_workloads():
    """Import the benchmark's workload module against this checkout's ``src``."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no program sources at {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import workloads
    import repro

    if Path(repro.__file__).resolve().parent != (SRC_DIR / "repro").resolve():
        raise SystemExit(f"e2ebench: imported repro from {repro.__file__}, not {SRC_DIR}")
    return workloads


class Pass:
    """One pass over every design: outcomes, failures, times, perf counts."""

    def __init__(self) -> None:
        self.outcomes = []
        self.failures: list[tuple[str, list[str]]] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        #: Wall time at the reference host speed (``REF_PROBE_S``).
        self.wall_ref_s = 0.0
        #: Every host probe of the pass: one before the first circuit
        #: and one after each.
        self.probes_s: list[float] = []
        self.counters: dict[str, int] = {}


def run_pass(wl, workload, designs, recorder=None, checks=None):
    """Run and check every design once; only the pipeline is timed."""
    from repro.perf import PERF

    checks = wl.CHECKS if checks is None else checks
    result = Pass()
    result.probes_s.append(host_probe_s())
    for design in designs:
        if recorder is not None:
            recorder.circuit = design.label
            PERF.reset()
            PERF.enable()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            out = wl.run_design(design, workload)
        except Exception as exc:  # a crashing circuit is a failed circuit
            out = None
            failed = [f"pipeline ({type(exc).__name__}: {exc})"]
        elapsed = time.perf_counter() - wall0
        result.wall_s += elapsed
        result.cpu_s += time.process_time() - cpu0
        result.probes_s.append(host_probe_s())
        host_s = (result.probes_s[-2] + result.probes_s[-1]) / 2
        result.wall_ref_s += elapsed * REF_PROBE_S / host_s
        if recorder is not None:
            PERF.disable()
            for name, count in PERF.snapshot()["counters"].items():
                result.counters[name] = result.counters.get(name, 0) + count
            PERF.reset()
        if out is not None:
            out.pipeline_s = elapsed
            failed = wl.failed_checks(design, out, checks)
            # Drop the design objects; metrics and the guard need scalars only.
            out.placed, out.routed, out.final_netlist = [], [], None
            result.outcomes.append(out)
        if failed:
            result.failures.append((design.label, failed))
    return result


def failed_share(done: Pass, circuits: int) -> float:
    """Share of a pass's circuits that crashed or failed a check."""
    return len(done.failures) / circuits


def setup_samples(workload_name, seed, first):
    """This run's ``(cpu_s, wall_s)`` set-up plus ``SETUP_SAMPLES - 1``
    from fresh ``--setup-only`` interpreters, run one after another."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((sample["cpu_s"], sample["wall_s"]))
    return samples


def guard(wl, workload, seed, signature):
    """Compare this run's work with the first run of the same seed and code.

    The record lives under ``.state/`` and is keyed by a digest of the
    program and benchmark sources, so it only ever compares runs of one
    code version.  Returns ``(ok, message)``.
    """
    digest = wl.source_digest(SRC_DIR / "repro", BENCH_DIR)
    path = STATE_DIR / "guard" / f"{workload.name}-{seed}-{digest}.json"
    if path.exists():
        first = json.loads(path.read_text())
        if first != signature:
            return False, f"work differs from the first run of seed {seed} ({path.name})"
        return True, f"same work as the first run of seed {seed}"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(signature))
    os.replace(tmp, path)
    return True, f"first run of seed {seed}: work recorded"


def per_layer_metrics(passes, traced, spans_mod, recorder, counts, setup_times):
    """Every per-layer metric of the traced pass, by the tables above."""
    spans = recorder.spans
    table = spans_mod.layer_table(spans)

    def self_s(span):
        return table.get(span, {}).get("self_s", 0.0)

    values = {name: self_s(span) for name, span in SELF_TIMES.items()}
    for name, counters in PERF_COUNTERS.items():
        values[name] = sum(traced.counters.get(counter, 0) for counter in counters)
    outs = traced.outcomes
    iterations = sum(o.iterations for o in outs)
    flow_s = table.get("core.flow", {}).get("inclusive_s", 0.0)
    place_route_s = sum(o.place_route_s for o in outs)
    values.update({
        "netlist.generate_s": setup_times.generate_s,
        "netlist.store_build_s": setup_times.store_build_s,
        "netlist.load_s": setup_times.load_s,
        "netlist.clones": table.get("netlist.clone", {}).get("calls", 0),
        "place.sta_calls": table.get("place.sta", {}).get("calls", 0),
        "place.moves_accepted": sum(o.moves_accepted for o in outs),
        "place.ripple_moves": counts.get("place.ripple_moves", 0),
        "core.flow_s": flow_s,
        "core.iterations": iterations,
        "core.progress_ratio": sum(o.progressed for o in outs) / iterations if iterations else 0.0,
        "core.reverted": sum(o.reverted for o in outs),
        "core.tree_nodes": counts.get("core.tree_nodes", 0),
        "core.us_per_label": (
            1e6 * values["core.embed_s"] / values["core.labels_popped"]
            if values["core.labels_popped"] else 0.0
        ),
        "core.replicated": sum(o.cells_replicated for o in outs),
        "core.unified": sum(o.cells_unified for o in outs),
        "core.overhead_ratio": flow_s / place_route_s if place_route_s else 0.0,
        "host.wait_s": traced.wall_s - traced.cpu_s,
        "host.wall_s": statistics.median(p.wall_s for p in passes),
        "host.probe_s": statistics.median(t for p in passes for t in p.probes_s),
        "trace.unattributed_s": traced.wall_s - spans_mod.top_level_seconds(spans),
        "trace.overhead": traced.wall_ref_s / statistics.median(p.wall_ref_s for p in passes),
    })
    return values, table


def emit(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    wl = import_workloads()
    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"e2ebench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    seed = wl.DEFAULT_SEED if args.seed is None else args.seed

    STATE_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE_DIR))
    try:
        designs, setup_times = wl.build_designs(workload, seed, work_dir)
        setup = (time.process_time() - _STARTED_CPU, time.perf_counter() - _STARTED)
        if args.setup_only:
            print(json.dumps({"cpu_s": setup[0], "wall_s": setup[1]}))
            return 0
        return measure(args, wl, workload, seed, designs, setup_times, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, wl, workload, seed, designs, setup_times, setup) -> int:
    print(f"e2ebench {workload.name}: seed {seed}, {len(designs)} circuits "
          f"({', '.join(workload.circuits)} x{workload.draws} @ scale {workload.scale:g})")
    if not args.trace:
        samples = setup_samples(workload.name, seed, setup)
        print("  set-up CPU s: " + ", ".join(f"{cpu:.3f}" for cpu, _ in samples))
        print("  set-up wall s: " + ", ".join(f"{wall:.3f}" for _, wall in samples))
    passes = []
    while not passes or sum(p.wall_s for p in passes) < args.seconds:
        passes.append(run_pass(wl, workload, designs))
        done = passes[-1]
        print(f"  pass {len(passes)}: {done.wall_s:.3f} s pipeline, "
              f"{done.wall_s - done.cpu_s:.3f} s not on CPU, "
              f"probe {statistics.median(done.probes_s):.4f} s, "
              f"{done.wall_ref_s:.3f} s at reference speed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = None
    if args.trace:
        import spans as spans_mod

        recorder = spans_mod.SpanRecorder()
        counts: dict = {}
        wl.install_tracing(recorder, counts)
        try:
            traced = run_pass(wl, workload, designs, recorder=recorder)
        finally:
            recorder.uninstall()
        trace_path = STATE_DIR / f"trace-{workload.name}-{seed}.json"
        trace_path.write_text(json.dumps([vars(span) for span in recorder.spans]))

    every = passes + ([traced] if traced else [])
    first = [out.signature() for out in passes[0].outcomes]
    same_in_run = all([o.signature() for o in p.outcomes] == first for p in every)
    guard_ok, guard_msg = guard(wl, workload, seed, first)
    failures = [(n, label, failed) for n, p in enumerate(every, 1) for label, failed in p.failures]
    attempted = len(designs) * len(every)

    for out in passes[0].outcomes:
        line = (f"  {out.label:<12} cells {out.cells:>4}  W_min {out.min_width:>2}  "
                f"W_inf {out.w_inf:7.3f} ns  place+route {out.place_route_s:6.2f} s  "
                f"total {out.pipeline_s:6.2f} s")
        if out.replicated:
            line += (f"  W_inf x{out.rep_w_inf / out.w_inf:.4f}  W_min {out.rep_min_width:>2}"
                     f"  it {out.iterations:>2}"
                     f"  rep {out.cells_replicated}/{out.cells_unified}")
        print(line)
    for n, label, failed in failures:
        print(f"  FAILED pass {n} {label}: {', '.join(failed)}")
    print(f"  failed_share {failed_share(passes[0], len(designs)):.4f} (first pass)")
    print(f"  same work across passes: {same_in_run}; guard: {guard_msg}")

    correct = not failures and same_in_run and guard_ok
    if traced is None:
        metrics = wl.quality_metrics(passes[0].outcomes)
        metrics.update({
            "setup_s": statistics.median(cpu for cpu, _ in samples),
            "wall_ref_s": statistics.median(p.wall_ref_s for p in passes),
            "peak_rss_mb": peak_rss_mb,
        })
        emit(correct, attempted, len(failures), metrics, metric_units("end_to_end"))
    else:
        metrics, table = per_layer_metrics(
            passes, traced, spans_mod, recorder, counts, setup_times
        )
        print(spans_mod.format_layer_table(table, traced.wall_s))
        print(f"  traced pass {traced.wall_s:.3f} s, unattributed "
              f"{metrics['trace.unattributed_s']:.4f} s, overhead x{metrics['trace.overhead']:.4f}")
        emit(correct, attempted, len(failures), metrics, metric_units("per_layer"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
