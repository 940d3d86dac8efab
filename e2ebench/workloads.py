"""Workloads, set-up, the timed per-circuit pipeline and its output checks.

A workload is a list of suite circuits, each drawn ``draws`` times from
the run's seed.  Every draw re-generates the circuit through
``CircuitSpec.seed`` and uses the same derived value as placement seed,
so the program only ever sees generated inputs.  Each circuit then goes
through the public calls ``repro.bench.runner`` makes for Tables I/II:
timing-driven placement, a cold W_min search, low-stress and W-infinity
routing with routed STA, and (flow workloads) the replication flow on a
copy followed by re-routing the replicated design.  Unlike the runner,
which re-routes at the baseline's low-stress width, the replicated
design gets a cold W_min search of its own and is routed at its own
low-stress width: at these scales the baseline's width leaves a single
spare track, and some replicated designs need one more (README.md).

The calls go through module attributes (``timing_driven.place_...``),
so the traced run can wrap them in place; see :func:`install_tracing`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.arch.fpga import FpgaArch
from repro.bench import runner
from repro.bench.generator import generate_circuit, generate_into
from repro.bench.suite import SPEC_BY_NAME
from repro.core import embedder, flow
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import check_equivalence as simulates_alike
from repro.netlist.store import NetlistStore
from repro.place import legalizer, timing_driven
from repro.place.placement import Placement
from repro.route import metrics as route_metrics
from repro.timing import incremental, sta

#: VPR ``inner_num`` the Table I/II runner uses for every baseline.
INNER_SCALE = 0.25

#: Seed used when ``--seed`` is not given.  README.md names a held-out
#: seed, kept out of tuning, for confirming later claims.
DEFAULT_SEED = 1

#: Slack (ns) of the delay check; the flow itself counts a change below
#: this as no improvement.
DELAY_EPS = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    circuits: tuple[str, ...]
    scale: float
    draws: int
    #: ``repro.bench.runner`` algorithm key, or ``None`` for the Table I
    #: baseline without replication.
    algorithm: str | None
    #: Cap on flow iterations.  The flow is deterministic, so a capped
    #: run is exactly the first ``iterations`` iterations of the Table II
    #: run; the cap keeps one circuit's work from swinging with how long
    #: its flow happens to keep progressing.
    iterations: int | None
    #: Stream the circuits into a fresh netlist store and load them back
    #: as read-only ``ArrayNetlist`` views.
    store: bool

    def flow_config(self):
        """Table II's effort-1.0 flow settings, with the iteration cap."""
        config = runner.replication_config(self.algorithm)
        config.max_iterations = self.iterations
        return config


#: Why each workload was chosen: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rt-flow", ("dsip", "des", "bigkey"), 0.04, 2, "rt", 4, False),
        Workload("lex3-flow", ("dsip", "bigkey"), 0.04, 4, "lex-3", 2, False),
        Workload("table1-store", ("s38584.1", "frisc"), 0.04, 3, None, None, True),
    )
}


def draw_seed(seed: int, draw: int) -> int:
    """Circuit and placement seed of one draw of a run seeded ``seed``."""
    return seed * 1000 + draw


@dataclass
class Design:
    """One generated circuit, ready for the pipeline."""

    name: str
    draw: int
    seed: int
    scale: float
    netlist: object  # Netlist, or ArrayNetlist for store workloads
    arch: FpgaArch

    @property
    def label(self) -> str:
        return f"{self.name}#{self.draw}"

    def spec(self):
        return dataclasses.replace(SPEC_BY_NAME[self.name], seed=self.seed)

    def reference(self) -> Netlist:
        """A freshly generated in-memory copy, for the equivalence check."""
        return generate_circuit(self.spec(), scale=self.scale)


@dataclass
class SetupTimes:
    generate_s: float = 0.0
    store_build_s: float = 0.0
    load_s: float = 0.0


def build_designs(
    workload: Workload, seed: int, store_dir: Path | None = None
) -> tuple[list[Design], SetupTimes]:
    """Generate (and for store workloads build and load) every design.

    Store workloads stream each circuit through ``generate_into`` into a
    fresh ``netlists.sqlite`` under ``store_dir``; the generation time is
    then part of the store build time.
    """
    clock = time.perf_counter
    times = SetupTimes()
    store = NetlistStore(store_dir / "netlists.sqlite") if workload.store else None
    designs = []
    for draw in range(workload.draws):
        for name in workload.circuits:
            design = Design(name, draw, draw_seed(seed, draw), workload.scale, None, None)
            spec = design.spec()
            if store is None:
                start = clock()
                design.netlist = generate_circuit(spec, scale=workload.scale)
                times.generate_s += clock() - start
                design.arch = FpgaArch.min_square_for(
                    num_logic_blocks=design.netlist.num_logic_blocks,
                    num_pads=design.netlist.num_pads,
                    lut_size=4,
                )
            else:
                key = f"{name}@{workload.scale:g}/{design.seed}"
                start = clock()
                with store.stream_builder(key, spec.name, 4) as builder:
                    generated = clock()
                    generate_into(builder, spec, scale=workload.scale, lut_size=4)
                    times.generate_s += clock() - generated
                loaded = clock()
                times.store_build_s += loaded - start
                design.netlist = store.load_array(key)
                design.arch = store.min_square_arch(key)
                times.load_s += clock() - loaded
            designs.append(design)
    return designs, times


# ----------------------------------------------------------------------
# The timed pipeline
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one circuit's pipeline produced; checks and metrics read it."""

    label: str
    cells: int
    min_width: int
    w_inf: float
    w_ls: float
    wirelength: int
    place_route_s: float
    moves_accepted: int
    #: Wall time of the whole pipeline for this circuit.
    pipeline_s: float = 0.0
    #: (what, netlist, placement) pairs the placement check inspects.
    placed: list = field(default_factory=list)
    #: (what, RoutingResult) pairs of the finite-width routes.
    routed: list = field(default_factory=list)
    final_netlist: object = None
    replicated: bool = False
    iterations: int = 0
    progressed: int = 0
    reverted: int = 0
    cells_replicated: int = 0
    cells_unified: int = 0
    initial_delay: float = 0.0
    final_delay: float = 0.0
    rep_w_inf: float = 0.0
    rep_min_width: int = 0
    rep_wirelength: int = 0
    rep_cells: int = 0

    def signature(self) -> list:
        """Deterministic work and quality values (the same-work guard)."""
        return [
            self.label, self.cells, self.min_width, repr(self.w_inf),
            repr(self.w_ls), self.wirelength, self.moves_accepted,
            self.iterations, self.progressed, self.reverted,
            self.cells_replicated, self.cells_unified,
            repr(self.initial_delay), repr(self.final_delay),
            repr(self.rep_w_inf), self.rep_min_width, self.rep_wirelength,
            self.rep_cells,
        ]


def run_design(design: Design, workload: Workload) -> Outcome:
    """Place, route and (flow workloads) replicate and re-route one design."""
    netlist, arch = design.netlist, design.arch
    start = time.perf_counter()
    placement, stats = timing_driven.place_timing_driven(
        netlist, arch, seed=design.seed, inner_scale=INNER_SCALE
    )
    min_width = route_metrics.find_min_channel_width(netlist, placement)
    low = route_metrics.route_low_stress(netlist, placement, min_width=min_width)
    infinite = route_metrics.route_infinite(netlist, placement)
    place_route_s = time.perf_counter() - start
    out = Outcome(
        label=design.label,
        cells=netlist.num_cells,
        min_width=min_width,
        w_inf=route_metrics.routed_critical_delay(netlist, placement, infinite).critical_delay,
        w_ls=route_metrics.routed_critical_delay(netlist, placement, low).critical_delay,
        wirelength=low.total_wirelength,
        place_route_s=place_route_s,
        moves_accepted=stats.moves_accepted,
        placed=[("baseline", netlist, placement)],
        routed=[("baseline", low)],
        final_netlist=netlist,
    )
    if workload.algorithm is None:
        return out

    rep_netlist = netlist.clone()
    rep_placement = placement.copy()
    result = flow.optimize_replication(rep_netlist, rep_placement, workload.flow_config())
    rep_min_width = route_metrics.find_min_channel_width(rep_netlist, rep_placement)
    rep_low = route_metrics.route_low_stress(
        rep_netlist, rep_placement, min_width=rep_min_width
    )
    rep_inf = route_metrics.route_infinite(rep_netlist, rep_placement)
    out.rep_w_inf = route_metrics.routed_critical_delay(
        rep_netlist, rep_placement, rep_inf
    ).critical_delay
    out.rep_min_width = rep_min_width
    out.rep_wirelength = rep_low.total_wirelength
    out.rep_cells = rep_netlist.num_cells
    out.replicated = True
    out.iterations = len(result.history)
    out.progressed = sum(1 for record in result.history if record.progressed)
    out.reverted = sum(1 for record in result.history if record.note == "reverted")
    out.cells_replicated = result.total_replicated
    out.cells_unified = result.total_unified
    out.initial_delay = result.initial_delay
    out.final_delay = result.final_delay
    out.placed.append(("replicated", rep_netlist, rep_placement))
    out.routed.append(("replicated", rep_low))
    out.final_netlist = rep_netlist
    return out


# ----------------------------------------------------------------------
# Output checks (run after each circuit, outside the timed region)
# ----------------------------------------------------------------------


def check_equivalence(design: Design, out: Outcome) -> bool:
    """The netlist the run ends with simulates like a fresh generation."""
    return simulates_alike(design.reference(), out.final_netlist)


def check_placement(design: Design, out: Outcome) -> bool:
    """Every placement is complete and has no overfull slot."""
    for _what, netlist, placement in out.placed:
        placement.assert_complete(netlist)
        if not placement.is_legal():
            return False
    return True


def check_routing(design: Design, out: Outcome) -> bool:
    """Every low-stress route succeeded with zero remaining overuse."""
    return all(
        routing.success and routing.remaining_overuse == 0
        for _what, routing in out.routed
    )


def check_delay(design: Design, out: Outcome) -> bool:
    """The replicated design is no slower than the baseline it came from.

    Both delays come from a fresh static timing analysis of the netlists
    and placements the run ends with, not from the flow's own report.
    """
    if not out.replicated:
        return True
    (_, base_netlist, base_placement), (_, rep_netlist, rep_placement) = out.placed
    before = sta.analyze(base_netlist, base_placement).critical_delay
    after = sta.analyze(rep_netlist, rep_placement).critical_delay
    return after <= before + DELAY_EPS


CHECKS = (
    ("equivalence", check_equivalence),
    ("placement", check_placement),
    ("routing", check_routing),
    ("delay", check_delay),
)


def failed_checks(design: Design, out: Outcome, checks=CHECKS) -> list[str]:
    """Names of the checks ``out`` fails; an exception counts as a failure."""
    failed = []
    for name, check in checks:
        try:
            ok = check(design, out)
        except Exception as exc:  # a crashing check is a failed check
            failed.append(f"{name} ({type(exc).__name__}: {exc})")
            continue
        if not ok:
            failed.append(name)
    return failed


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 1.0


def quality_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Geomean ratios (replicated / baseline) and baseline sums.

    Without replication the design is its own baseline, so the ratios
    are exactly 1.
    """
    flows = [out for out in outcomes if out.replicated]
    return {
        "w_inf_norm": geomean([o.rep_w_inf / o.w_inf for o in flows]),
        "wirelength_norm": geomean([o.rep_wirelength / o.wirelength for o in flows]),
        "blocks_norm": geomean([o.rep_cells / o.cells for o in flows]),
        "w_inf_ns": sum(o.w_inf for o in outcomes),
        "min_width": sum(o.min_width for o in outcomes),
    }


# ----------------------------------------------------------------------
# Traced run: wrappers at the layers' public entry points
# ----------------------------------------------------------------------


def install_tracing(recorder, counts: dict) -> None:
    """Wrap every layer entry point the pipeline reaches.

    ``counts`` collects work that only return values reveal (tree
    nodes, ripple moves).  Module-level functions are wrapped where the
    caller looks them up: ``repro.core.flow`` for the flow's helpers,
    ``repro.place.timing_driven`` for the placer's STA, and the public
    modules for the calls this pipeline makes itself.
    """

    def tree_nodes(info) -> None:
        if info is not None:
            counts["core.tree_nodes"] = counts.get("core.tree_nodes", 0) + len(info.tree)

    def ripple_moves(result) -> None:
        counts["place.ripple_moves"] = counts.get("place.ripple_moves", 0) + result.ripple_moves

    for owner, attr, name, hook in (
        (Netlist, "clone", "netlist.clone", None),
        (timing_driven, "place_timing_driven", "place", None),
        (timing_driven, "analyze", "place.sta", None),
        (legalizer.TimingDrivenLegalizer, "legalize", "place.legalize", ripple_moves),
        (Placement, "copy", "place.copy", None),
        (incremental.IncrementalSTA, "analysis", "timing.incremental", None),
        (flow, "build_spt", "timing.spt", None),
        (flow, "optimize_replication", "core.flow", None),
        (flow, "build_replication_tree", "core.tree", tree_nodes),
        (embedder.FaninTreeEmbedder, "embed", "core.embed", None),
        (flow, "apply_embedding", "core.apply", None),
        (flow, "postprocess_unification", "core.unify", None),
        (route_metrics, "find_min_channel_width", "route.wmin", None),
        (route_metrics, "route_low_stress", "route.lowstress", None),
        (route_metrics, "route_infinite", "route.winf", None),
        (route_metrics, "routed_critical_delay", "route.sta", None),
    ):
        recorder.install(owner, attr, name, hook)


def source_digest(*roots: Path) -> str:
    """Hash of every ``.py`` file under ``roots`` (keys the guard records)."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
