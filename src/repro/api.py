"""High-level facade: the stable public API of the package.

One import gives the whole flow as five composable calls plus resume::

    from repro import api

    design = api.load_design(circuit="tseng", scale=0.08)
    placed = api.place(design, seed=1)
    opt = api.optimize(design, placed.placement, run_dir="runs/tseng")
    routed = api.route(design, placed.placement)
    print(api.evaluate(design, placed.placement))

Each call returns a small typed result object instead of a tuple, so
callers never have to remember positional conventions.  ``optimize``
optionally wires in the observability stack — a per-iteration JSONL
journal, a Chrome trace, and periodic checkpoints — by pointing it at a
*run directory*; ``resume`` picks a killed run back up from the last
checkpoint and finishes it bit-identically.

Run-directory layout (all files optional except the checkpoint)::

    run_dir/
      config.json       # RunConfig.to_dict() (written by ``repro run``)
      journal.jsonl     # one flushed line per iteration (+ start/result)
      checkpoint.json   # latest flow state (atomic replace)
      trace.json        # Chrome trace_event JSON (with --trace)
      result.json       # final summary + replication-config hash
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.arch.fpga import FpgaArch
from repro.core.checkpoint import (
    Checkpointer,
    FlowState,
    checkpoint_config,
    config_hash,
    load_checkpoint,
)
from repro.core.config import ReplicationConfig, RunConfig
from repro.core.flow import (
    IterationRecord,
    OptimizationResult,
    ReplicationOptimizer,
)
from repro.core.journal import FlowJournal
from repro.netlist.blif import read_blif, write_blif
from repro.netlist.netlist import Netlist
from repro.netlist.validate import validate_netlist
from repro.perf import PERF
from repro.place.hpwl import total_wirelength
from repro.place.placement import Placement
from repro.place.serialize import placement_from_json, placement_to_json
from repro.place.timing_driven import place_timing_driven
from repro.route.metrics import (
    route_infinite,
    route_low_stress,
    routed_critical_delay,
)
from repro.timing.sta import analyze

CONFIG_FILE = "config.json"
JOURNAL_FILE = "journal.jsonl"
TRACE_FILE = "trace.json"
RESULT_FILE = "result.json"


# ----------------------------------------------------------------------
# Typed results
# ----------------------------------------------------------------------


@dataclass
class Design:
    """A netlist bound to the architecture it will be placed on."""

    netlist: Netlist
    arch: FpgaArch
    source: str = ""

    @property
    def name(self) -> str:
        return self.netlist.name


@dataclass
class PlaceResult:
    """Outcome of :func:`place`."""

    placement: Placement
    critical_delay: float
    seconds: float = 0.0
    moves_accepted: int = 0


@dataclass
class OptimizeResult:
    """Outcome of :func:`optimize` / :func:`resume`.

    Wraps the core :class:`OptimizationResult` and records where the
    run's artifacts (journal, trace, checkpoint) were written.
    """

    result: OptimizationResult
    seconds: float = 0.0
    run_dir: Path | None = None

    # -- conveniences mirroring the wrapped result ---------------------

    @property
    def netlist(self) -> Netlist:
        return self.result.netlist

    @property
    def placement(self) -> Placement:
        return self.result.placement

    @property
    def initial_delay(self) -> float:
        return self.result.initial_delay

    @property
    def final_delay(self) -> float:
        return self.result.final_delay

    @property
    def improvement(self) -> float:
        return self.result.improvement

    @property
    def iterations(self) -> list[IterationRecord]:
        return self.result.history

    @property
    def replicated(self) -> int:
        return self.result.total_replicated

    @property
    def unified(self) -> int:
        return self.result.total_unified


@dataclass
class RouteResult:
    """Outcome of :func:`route`: routed timing at two channel widths."""

    w_inf: float
    w_ls: float
    channel_width: int
    wirelength: int
    seconds: float = 0.0


@dataclass
class EvalResult:
    """Placement-level metrics of a (netlist, placement) pair."""

    critical_delay: float
    wirelength: float
    cells: int
    luts: int
    pads: int
    legal: bool = True


# ----------------------------------------------------------------------
# The five calls
# ----------------------------------------------------------------------


def load_design(
    circuit: str | None = None,
    *,
    blif: str | Path | None = None,
    scale: float = 0.08,
    lut_size: int = 4,
) -> Design:
    """Load a design from a suite circuit name or a BLIF file.

    Exactly one of ``circuit``/``blif`` must be given.  The architecture
    is the paper's protocol: the minimum square FPGA that fits the logic
    and the perimeter pads.
    """
    if (circuit is None) == (blif is None):
        raise ValueError("give exactly one of circuit= or blif=")
    if blif is not None:
        path = Path(blif)
        netlist = read_blif(path.read_text())
        arch = FpgaArch.min_square_for(
            netlist.num_logic_blocks, netlist.num_pads, lut_size=lut_size
        )
        source = str(path)
    else:
        from repro.bench.suite import suite_circuit

        netlist, arch = suite_circuit(circuit, scale=scale, lut_size=lut_size)
        source = f"suite:{circuit}@{scale:g}"
    validate_netlist(netlist)
    return Design(netlist=netlist, arch=arch, source=source)


def place(
    design: Design,
    *,
    seed: int = 0,
    effort: float = 0.3,
    placement_json: str | Path | None = None,
) -> PlaceResult:
    """Timing-driven SA placement (or load a saved placement file)."""
    start = time.perf_counter()
    if placement_json is not None:
        placement = placement_from_json(
            design.netlist, Path(placement_json).read_text(), arch=design.arch
        )
        placement.assert_complete(design.netlist)
        moves = 0
    else:
        placement, stats = place_timing_driven(
            design.netlist, design.arch, seed=seed, inner_scale=effort
        )
        moves = stats.moves_accepted
    delay = analyze(design.netlist, placement).critical_delay
    return PlaceResult(
        placement=placement,
        critical_delay=delay,
        seconds=time.perf_counter() - start,
        moves_accepted=moves,
    )


def optimize(
    design: Design,
    placement: Placement,
    *,
    config: ReplicationConfig | RunConfig | None = None,
    run_dir: str | Path | None = None,
    trace: str | Path | bool = False,
    checkpoint_every: int = 0,
) -> OptimizeResult:
    """Run the replication flow; optionally journal/trace/checkpoint.

    Args:
        config: A :class:`ReplicationConfig`, or a :class:`RunConfig`
            whose algorithm/effort dials are resolved through
            :meth:`RunConfig.replication_config`; ``None`` = defaults.
        run_dir: Run directory receiving ``journal.jsonl`` (always, when
            set), ``checkpoint.json`` (with ``checkpoint_every``) and
            ``trace.json`` (with ``trace=True``).
        trace: ``True`` to trace into ``run_dir/trace.json``, or an
            explicit path (which does not require a run directory).
        checkpoint_every: Checkpoint the full flow state every N
            completed iterations (0 = off; requires ``run_dir``).

    The input netlist/placement are updated in place to the best
    solution found, exactly like :func:`repro.core.flow.optimize_replication`.
    """
    if isinstance(config, RunConfig):
        config = config.replication_config()
    if config is None:
        config = ReplicationConfig()
    if checkpoint_every and run_dir is None:
        raise ValueError("checkpoint_every needs run_dir")

    run_path = _prepare_run_dir(run_dir)
    trace_path = _trace_path(trace, run_path)
    journal = (
        FlowJournal(run_path / JOURNAL_FILE) if run_path is not None else None
    )
    checkpointer = (
        Checkpointer(run_path, every=checkpoint_every, config=config)
        if checkpoint_every
        else None
    )

    start = time.perf_counter()
    trace_metadata = {"design": design.source, "config_hash": config_hash(config)}
    try:
        with PERF.trace(trace_path, metadata=trace_metadata):
            optimizer = ReplicationOptimizer(design.netlist, placement, config)
            result = optimizer.run(journal=journal, checkpointer=checkpointer)
    finally:
        if journal is not None:
            journal.close()
    seconds = time.perf_counter() - start
    # Mirror the best snapshot back into the caller's objects.
    design.netlist.assign_from(result.netlist)
    placement.assign_from(result.placement)
    out = OptimizeResult(result=result, seconds=seconds, run_dir=run_path)
    if run_path is not None:
        _write_result(run_path, out, config)
    return out


def route(design: Design, placement: Placement) -> RouteResult:
    """Low-stress + infinite routing with routed-timing STA.

    Every routing call runs in the caller's process.
    """
    start = time.perf_counter()
    low = route_low_stress(design.netlist, placement)
    infinite = route_infinite(design.netlist, placement)
    w_ls = routed_critical_delay(design.netlist, placement, low)
    w_inf = routed_critical_delay(design.netlist, placement, infinite)
    return RouteResult(
        w_inf=w_inf.critical_delay,
        w_ls=w_ls.critical_delay,
        channel_width=low.channel_width,
        wirelength=w_ls.wirelength,
        seconds=time.perf_counter() - start,
    )


def evaluate(design: Design, placement: Placement) -> EvalResult:
    """Placement-level critical delay, wirelength and size metrics."""
    analysis = analyze(design.netlist, placement)
    return EvalResult(
        critical_delay=analysis.critical_delay,
        wirelength=total_wirelength(design.netlist, placement),
        cells=design.netlist.num_cells,
        luts=design.netlist.num_logic_blocks,
        pads=design.netlist.num_pads,
        legal=placement.is_legal(),
    )


# ----------------------------------------------------------------------
# Resume
# ----------------------------------------------------------------------


def resume(
    run_dir: str | Path,
    *,
    trace: str | Path | bool = False,
) -> OptimizeResult:
    """Resume a checkpointed run and finish it.

    Loads ``checkpoint.json`` from ``run_dir``, restores the flow state
    (netlist, placement, ε map, history, patience counters) and the
    :class:`ReplicationConfig` it was saved under, re-enters the loop at
    the next iteration and runs to completion.  The continuation is
    bit-identical to the uninterrupted run.  The journal is re-opened in
    append mode, and further checkpoints keep landing in the same file.
    """
    run_path = Path(run_dir)
    payload = load_checkpoint(run_path)
    state = FlowState.from_payload(payload)
    config = checkpoint_config(payload)
    every = payload.get("checkpoint_every") or 1

    journal = FlowJournal(run_path / JOURNAL_FILE, mode="a")
    checkpointer = Checkpointer(run_path, every=every, config=config)
    trace_path = _trace_path(trace, run_path)
    start = time.perf_counter()
    trace_metadata = {"resumed": True, "config_hash": config_hash(config)}
    try:
        with PERF.trace(trace_path, metadata=trace_metadata):
            optimizer = ReplicationOptimizer(state.netlist, state.placement, config)
            result = optimizer.run(
                journal=journal, checkpointer=checkpointer, resume_state=state
            )
    finally:
        journal.close()
    out = OptimizeResult(
        result=result, seconds=time.perf_counter() - start, run_dir=run_path
    )
    _write_result(run_path, out, config)
    return out


# ----------------------------------------------------------------------
# Campaigns (matrix experiment orchestration)
# ----------------------------------------------------------------------


def campaign_run(
    campaign_dir: str | Path,
    *,
    circuits: str | list[str] = "all",
    algorithms: str | list[str] = "local,rt,lex-3",
    seeds: list[int] | tuple[int, ...] = (0,),
    scale: float = 0.08,
    effort: float = 1.0,
    jobs: int = 1,
    perf: bool = False,
    trace: bool = False,
    echo=None,
):
    """Start a new campaign: build the task matrix and execute it.

    The matrix (circuits × algorithms × seeds, baselines feeding
    variants) is recorded in ``campaign_dir/campaign.sqlite`` before any
    work starts; every task outcome lands there as it completes, so the
    campaign can be killed at any point and picked up with
    :func:`campaign_resume`.  Returns a
    :class:`repro.campaign.CampaignSummary`.

    Each task runs once: a failed task keeps its traceback in its row,
    its dependents are skipped, and :func:`campaign_resume` runs them
    again.  The scheduler streams every design into
    ``campaign_dir/netlists.sqlite`` up front and workers open it
    read-only: task payloads and result rows carry store keys, never a
    serialized netlist (each worker's peak RSS is recorded in the
    campaign store's ``task_stats`` table).  Invalid settings
    (``jobs`` < 1, an unknown algorithm, ...) raise :class:`ValueError`
    before anything is written.
    """
    from repro.bench.suite import resolve_names
    from repro.campaign import (
        CampaignConfig,
        CampaignScheduler,
        CampaignStore,
        build_matrix,
    )

    config = CampaignConfig(
        circuits=resolve_names(circuits),
        algorithms=(
            [token.strip() for token in algorithms.split(",")]
            if isinstance(algorithms, str)
            else list(algorithms)
        ),
        seeds=list(seeds),
        scale=scale,
        effort=effort,
        jobs=jobs,
        perf=perf,
        trace=trace,
    )
    store = CampaignStore.in_dir(campaign_dir)
    if store.task_rows():
        raise ValueError(
            f"campaign at {campaign_dir} already has tasks; "
            f"use campaign_resume()"
        )
    store.set_meta("config", config.to_dict())
    store.add_tasks(build_matrix(config))
    return CampaignScheduler(store, config, echo=echo).run()


def campaign_resume(campaign_dir: str | Path, *, jobs: int | None = None, echo=None):
    """Resume a killed/failed campaign: run once more every task not ``done``.

    Completed tasks are never re-executed — their rows are reused
    as-is.  ``jobs`` optionally overrides the stored worker count
    (results are identical either way); below 1 it raises
    :class:`ValueError` before any task row changes, as a missing
    netlist store named by the stored config raises
    :class:`~repro.campaign.store.CampaignStoreError`.
    """
    from repro.campaign import CampaignScheduler, CampaignStore
    from repro.campaign.report import load_config

    store = CampaignStore.open_existing(campaign_dir)
    config = load_config(store)
    if jobs is not None:
        config = replace(config, jobs=jobs)
    scheduler = CampaignScheduler(store, config, echo=echo)
    store.reset_incomplete()
    return scheduler.run()


def campaign_status(campaign_dir: str | Path) -> str:
    """Human-readable progress of a campaign directory."""
    from repro.campaign import CampaignStore, render_status

    return render_status(CampaignStore.open_existing(campaign_dir))


def campaign_report(
    campaign_dir: str | Path,
    experiment: str = "table2",
    *,
    seed: int | None = None,
    allow_partial: bool = False,
) -> str:
    """Render a results table from the store (see :mod:`repro.campaign.report`).

    For a completed matrix the text is byte-identical to the sequential
    ``repro bench`` output for the same circuits/algorithms/seed.
    """
    from repro.campaign import CampaignStore, render_report

    return render_report(
        CampaignStore.open_existing(campaign_dir),
        experiment,
        seed=seed,
        allow_partial=allow_partial,
    )


# ----------------------------------------------------------------------
# Run-directory plumbing
# ----------------------------------------------------------------------


def _prepare_run_dir(run_dir) -> Path | None:
    if run_dir is None:
        return None
    path = Path(run_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _trace_path(trace, run_path: Path | None) -> Path | None:
    if trace is False or trace is None:
        return None
    if trace is True:
        if run_path is None:
            raise ValueError("trace=True needs run_dir (or pass a path)")
        return run_path / TRACE_FILE
    return Path(trace)


def _write_result(run_path: Path, out: OptimizeResult, config) -> None:
    payload = {
        "initial_delay": out.initial_delay,
        "final_delay": out.final_delay,
        "improvement": out.improvement,
        "iterations": len(out.iterations),
        "replicated": out.replicated,
        "unified": out.unified,
        "terminated_early": out.result.terminated_early,
        "seconds": round(out.seconds, 3),
        "config_hash": config_hash(config),
    }
    (run_path / RESULT_FILE).write_text(json.dumps(payload, indent=2) + "\n")


def write_outputs(
    design: Design,
    placement: Placement,
    *,
    out_blif: str | Path | None = None,
    out_placement: str | Path | None = None,
) -> None:
    """Persist the optimized netlist/placement in interchange formats."""
    if out_blif is not None:
        Path(out_blif).write_text(write_blif(design.netlist))
    if out_placement is not None:
        Path(out_placement).write_text(
            placement_to_json(design.netlist, placement)
        )
