"""The main optimization loop (Section IV, Fig. 10-11).

Per iteration: STA -> pick the critical sink -> build its ε-SPT ->
induce the replication tree -> embed -> pick the cheapest fast-enough
solution -> extract (replicate/relocate) -> post-process unification ->
timing-driven legalization.  Around that, the details of Sections V and
VI:

* ε starts at zero and grows on non-improvement (the flow is fully
  deterministic, so retrying the same tree would be pointless, V-B);
* the best netlist/placement snapshot is kept, since FF relocation may
  pass through intermediate degradations (V-D);
* when a critical FF sink repeats without improvement, its location is
  freed for one embedding and the chosen solution must not penalize
  other paths touching that FF by more than a configured fraction (V-D);
* running out of free slots terminates early (the paper hits this on
  its densest circuits, VII-B).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.checkpoint import FlowState
from repro.core.config import ReplicationConfig
from repro.core.embedder import EmbedderOptions, FaninTreeEmbedder
from repro.core.embedding_graph import GridEmbeddingGraph
from repro.core.extraction import apply_embedding
from repro.core.replication_tree import (
    ReplicationTreeInfo,
    build_replication_tree,
    make_placement_cost,
)
from repro.core.solutions import Label
from repro.core.unification import postprocess_unification
from repro.netlist.equivalence import EquivalenceIndex
from repro.netlist.netlist import Netlist
from repro.perf import PERF
from repro.place.legalizer import TimingDrivenLegalizer
from repro.place.placement import Placement
from repro.timing.bounds import delay_lower_bound
from repro.timing.incremental import IncrementalSTA
from repro.timing.spt import build_spt
from repro.timing.sta import Endpoint


@dataclass
class IterationRecord:
    """Per-iteration statistics (drives Fig. 14 and EXPERIMENTS.md)."""

    iteration: int
    sink: Endpoint
    epsilon: float
    delay_before: float
    delay_after: float
    replicated: int
    unified: int
    replicated_cum: int
    unified_cum: int
    ff_relocated: bool = False
    note: str = ""
    sink_improved: bool = False

    @property
    def improved(self) -> bool:
        return self.delay_after < self.delay_before - 1e-9

    @property
    def progressed(self) -> bool:
        """True if the clock period or this sink's own path improved.

        Several endpoints are often tied at the critical delay; fixing
        one at a time leaves the period unchanged for a few iterations
        even though real progress is being made, so progress — not just
        period reduction — is what drives ε growth and patience.
        """
        return self.improved or self.sink_improved


@dataclass
class OptimizationResult:
    """Outcome of :meth:`ReplicationOptimizer.run`."""

    netlist: Netlist
    placement: Placement
    initial_delay: float
    final_delay: float
    history: list[IterationRecord] = field(default_factory=list)
    terminated_early: bool = False

    @property
    def improvement(self) -> float:
        """Fractional critical-delay reduction (0.14 = 14% faster)."""
        if self.initial_delay <= 0:
            return 0.0
        return 1.0 - self.final_delay / self.initial_delay

    @property
    def iterations(self) -> list[IterationRecord]:
        """Alias for :attr:`history` (the journal mirrors these records)."""
        return self.history

    @property
    def total_replicated(self) -> int:
        return self.history[-1].replicated_cum if self.history else 0

    @property
    def total_unified(self) -> int:
        return self.history[-1].unified_cum if self.history else 0


class ReplicationOptimizer:
    """Placement-coupled replication engine over a placed netlist.

    The input netlist/placement are *modified in place* during the run;
    the returned result carries the best snapshot seen (which is also
    copied back into the inputs at the end).
    """

    def __init__(
        self,
        netlist: Netlist,
        placement: Placement,
        config: ReplicationConfig | None = None,
    ) -> None:
        self.netlist = netlist
        self.placement = placement
        self.config = config if config is not None else ReplicationConfig()
        self._sta: IncrementalSTA | None = None
        #: Per-iteration observability extras (tree size, embedding-front
        #: size, legalizer work) gathered by the helpers and journaled.
        self._iter_stats: dict = {}
        self.graph = GridEmbeddingGraph(
            placement.arch,
            wire_cost_per_unit=self.config.wire_cost_per_unit,
            include_pads=True,
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(
        self,
        *,
        journal=None,
        checkpointer=None,
        resume_state: FlowState | None = None,
    ) -> OptimizationResult:
        """Run the loop; optionally journal, checkpoint, and/or resume.

        Args:
            journal: A :class:`repro.core.journal.FlowJournal` (or
                anything with ``event``/``iteration``) receiving one
                flushed JSONL entry per iteration.
            checkpointer: A :class:`repro.core.checkpoint.Checkpointer`;
                the full flow state is saved after every N-th completed
                iteration, so a killed run restarts mid-loop.
            resume_state: A restored :class:`FlowState`, continued in
                place — the loop re-enters at ``resume_state.iteration +
                1`` and the continuation is bit-identical to the
                uninterrupted run.
        """
        config = self.config
        # One incremental STA engine serves the whole run: it tracks
        # every replicate/rewire/unify/move through listener events and
        # re-propagates only the affected cone at each analysis point.
        sta = self._sta = IncrementalSTA(self.netlist, self.placement)
        with PERF.timer("flow.sta"):
            analysis = sta.analysis()
        if resume_state is None:
            delay = analysis.critical_delay
            state = FlowState(
                iteration=-1,
                initial_delay=delay,
                best_delay=delay,
                best_netlist=self.netlist.clone(),
                best_placement=self.placement.copy(),
            )
        else:
            state = resume_state
        # Checkpoints save the netlist and placement the loop works on.
        state.netlist, state.placement = self.netlist, self.placement

        if journal is not None:
            journal.event(
                "start",
                initial_delay=state.initial_delay,
                iteration=state.iteration + 1,
                resumed=resume_state is not None,
                cells=self.netlist.num_cells,
                max_iterations=config.max_iterations,
            )

        try:
            terminated_early = self._loop(
                state, sta=sta, journal=journal, checkpointer=checkpointer
            )
        except BaseException as exc:
            # Crash path: leave readable artifacts behind.  The journal
            # line is flushed before re-raising, and the STA is detached
            # so the caller's netlist is not left with stale listeners.
            if journal is not None:
                journal.event("crash", error=repr(exc))
            sta.detach()
            self._sta = None
            raise

        # Hand back the best snapshot (Section V-D: "we save the best
        # solution seen ... so that we can always report the best").
        # Detach the engine first: the optimizer's netlist/placement
        # references are about to be swapped out from under it.
        sta.detach()
        self._sta = None
        self.netlist = state.best_netlist
        self.placement = state.best_placement
        result = OptimizationResult(
            netlist=state.best_netlist,
            placement=state.best_placement,
            initial_delay=state.initial_delay,
            final_delay=state.best_delay,
            history=state.history,
            terminated_early=terminated_early,
        )
        if journal is not None:
            journal.event(
                "result",
                initial_delay=result.initial_delay,
                final_delay=result.final_delay,
                improvement=result.improvement,
                iterations=len(result.history),
                replicated=result.total_replicated,
                unified=result.total_unified,
                terminated_early=result.terminated_early,
            )
        return result

    def _loop(self, state: FlowState, *, sta, journal, checkpointer) -> bool:
        """The iteration loop proper; returns ``terminated_early``.

        ``state`` is the checkpoint's own :class:`FlowState`: the loop
        updates it in place and hands it to the checkpointer as it is.
        """
        config = self.config
        history = state.history
        epsilon = state.epsilon
        terminated_early = False
        for iteration in range(state.iteration + 1, config.max_iterations):
            iter_start = time.perf_counter()
            self._iter_stats = {}
            with PERF.timer("flow.sta"):
                analysis = sta.analysis()
            delay_before = analysis.critical_delay
            sink = analysis.critical_endpoint
            if sink is None:
                break
            with PERF.timer("flow.iteration", iteration=iteration) as span:
                relocate_ff = (
                    config.allow_ff_relocation
                    and sink == state.last_sink
                    and not state.last_improved
                    and self.netlist.cells[sink[0]].is_ff
                )

                sink_arrival_before = analysis.endpoint_arrival.get(sink, 0.0)
                eps = epsilon.get(sink, 0.0)

                note = ""
                replicated = unified = 0
                info = self._replication_tree(analysis, sink, eps, relocate_ff)
                if info is None:
                    note = "trivial tree"
                else:
                    self._iter_stats["tree_nodes"] = len(info.tree)
                    self._iter_stats["tree_movable"] = info.num_movable
                    snapshot_nl = self.netlist.clone()
                    snapshot_pl = self.placement.copy()
                    with PERF.timer("flow.embed"):
                        picked = self._embed_and_pick(
                            info, analysis, delay_before, relocate_ff
                        )
                    if picked is None:
                        note = "no embedding"
                    else:
                        embedding, label = picked
                        with PERF.timer("flow.apply"):
                            replicated, unified = self._apply(info, embedding, label)
                        # Intermediate degradation is tolerated (Section V-D
                        # keeps the best snapshot for exactly this reason) —
                        # legalization after a replication batch routinely
                        # costs a little elsewhere before later iterations
                        # win it back.  Only runaway steps are rolled back.
                        limit = delay_before * (1.0 + config.degradation_allowance)
                        with PERF.timer("flow.sta"):
                            degraded = sta.analysis().critical_delay > limit + 1e-9
                        if degraded and not relocate_ff:
                            self.netlist.assign_from(snapshot_nl)
                            self.placement.assign_from(snapshot_pl)
                            replicated = unified = 0
                            note = "reverted"

                with PERF.timer("flow.sta"):
                    analysis = sta.analysis()
                delay_after = analysis.critical_delay
                sink_arrival_after = analysis.endpoint_arrival.get(
                    sink, sink_arrival_before
                )
                state.replicated_cum += replicated
                # Fig. 14 semantics: "unified" counts copies that were created
                # and later merged away, i.e. creations minus copies alive.
                net_alive = EquivalenceIndex(self.netlist).total_replicas()
                state.unified_cum = max(
                    state.unified_cum, max(0, state.replicated_cum - net_alive)
                )
                unified = state.unified_cum - (
                    history[-1].unified_cum if history else 0
                )
                record = IterationRecord(
                    iteration=iteration,
                    sink=sink,
                    epsilon=eps,
                    delay_before=delay_before,
                    delay_after=delay_after,
                    replicated=replicated,
                    unified=unified,
                    replicated_cum=state.replicated_cum,
                    unified_cum=state.unified_cum,
                    ff_relocated=relocate_ff,
                    note=note,
                    sink_improved=(
                        delay_after <= delay_before + 1e-9
                        and sink_arrival_after < sink_arrival_before - 1e-9
                    ),
                )
                history.append(record)
                if span is not None:
                    span.update(
                        sink=list(sink),
                        note=note,
                        delay_before=delay_before,
                        delay_after=delay_after,
                        replicated=replicated,
                        unified=unified,
                    )
            if journal is not None:
                journal.iteration(
                    record,
                    wall_seconds=round(time.perf_counter() - iter_start, 6),
                    **self._iter_stats,
                )

            if delay_after < state.best_delay - 1e-9:
                state.best_delay = delay_after
                state.best_netlist = self.netlist.clone()
                state.best_placement = self.placement.copy()

            state.iteration = iteration
            state.last_improved = record.progressed
            state.last_sink = sink
            if record.progressed:
                state.no_improve = 0
            else:
                state.no_improve += 1
                epsilon[sink] = eps + config.epsilon_step_fraction * delay_before
                if state.no_improve > config.patience:
                    break
            if not self.placement.free_logic_slots() and not self.placement.is_legal():
                terminated_early = True  # out of slots for replication
                break

            if checkpointer is not None and checkpointer.due(iteration):
                with PERF.timer("flow.checkpoint"):
                    checkpointer.save(state)
                if journal is not None:
                    journal.event("checkpoint", iteration=iteration)
        return terminated_early

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------

    def _replication_tree(
        self, analysis, sink: Endpoint, eps: float, movable_root: bool
    ) -> ReplicationTreeInfo | None:
        """The sink's replication tree, or ``None`` if nothing can move."""
        spt = build_spt(self.netlist, analysis, sink)
        info = build_replication_tree(
            self.netlist,
            self.placement,
            self.graph,
            analysis,
            spt,
            eps,
            self.config,
            movable_root=movable_root,
        )
        if info is None or info.num_movable == 0:
            return None
        return info

    def _embed_and_pick(
        self,
        info: ReplicationTreeInfo,
        analysis,
        current_delay: float,
        relocate_ff: bool,
    ):
        config = self.config
        model = self.placement.arch.delay_model
        cost_fn = make_placement_cost(
            self.netlist, self.placement, self.graph, config, info, analysis=analysis
        )
        options = EmbedderOptions(
            connection_delay=model.connection_delay,
            delay_bound=current_delay * (1.0 + config.delay_bound_slack),
            max_labels_per_vertex=config.max_labels_per_vertex,
            max_cohabiting_children=config.max_cohabiting_children,
        )
        embedder = FaninTreeEmbedder(
            self.graph, scheme=config.scheme, placement_cost=cost_fn, options=options
        )
        result = embedder.embed(info.tree)
        self._iter_stats["embed_candidates"] = len(result.root_front)
        if not len(result.root_front):
            return None
        if relocate_ff:
            label = self._pick_relocation(info, result, analysis, current_delay)
        else:
            # "The cheapest solution that is fast enough" (Section II-C):
            # fast enough means at the precomputed circuit delay lower
            # bound; when nothing reaches it, pick() falls back to the
            # cheapest solution within a small margin of the fastest.
            bound = delay_lower_bound(self.netlist, self.placement)
            label = result.pick(delay_bound=bound)
        if label is None:
            return None
        return result, label

    def _pick_relocation(
        self, info: ReplicationTreeInfo, result, analysis, current_delay: float
    ) -> Label | None:
        """FF relocation pick (Section V-D): fastest arrival whose move
        does not penalize other paths touching the FF too much."""
        config = self.config
        model = self.placement.arch.delay_model
        sink_id = info.endpoint[0]
        sink = self.netlist.cells[sink_id]
        allowance = current_delay * (1.0 + config.ff_relocation_slack)

        fanouts = self.netlist.fanout_pins(sink_id)
        candidates = []
        for label in result.root_candidates:
            placements = result.extract_placements(label)
            slot = self.graph.slot_at(placements[info.tree.root.index])
            worst_other = 0.0
            for fan_id, fan_pin in fanouts:
                fan = self.netlist.cells[fan_id]
                wire = model.wire_delay(
                    self.placement.arch.distance(slot, self.placement.slot_of(fan_id))
                )
                if fan.is_timing_end and not fan.is_lut:
                    path = model.launch_delay(True) + wire + model.capture_delay(fan.is_ff)
                else:
                    req = analysis.required.get(fan_id)
                    if req is None or req == float("inf"):
                        continue
                    downstream = analysis.critical_delay - req + model.cell_delay(True)
                    path = model.launch_delay(True) + wire + downstream
                worst_other = max(worst_other, path)
            if worst_other <= allowance:
                primary = result.scheme.primary(label.key)
                # Balance the sink's arrival against the paths launched
                # from the relocated FF: minimizing the max is what makes
                # one relocation land mid-corridor instead of ping-ponging
                # the imbalance to the other side.
                candidates.append((max(primary, worst_other), primary, label.cost, label))
        if not candidates:
            return None
        candidates.sort(key=lambda item: (item[0], item[1], item[2]))
        return candidates[0][3]

    def _apply(self, info: ReplicationTreeInfo, embedding, label: Label) -> tuple[int, int]:
        """Extract, unify and legalize; returns (replicated, unified)."""
        config = self.config
        sta = self._sta
        outcome = apply_embedding(
            self.netlist, self.placement, self.graph, info, embedding, label,
        )
        # Aggressive unification budgets each pin move against a single
        # STA's slacks; many moves can jointly overdraw (the wiring
        # overshoot Section VIII worries about).  Guard it: if the pass
        # degrades the critical delay, roll back and redo with strict
        # improvement-only moves (which can never degrade arrivals).
        before_unify = sta.analysis().critical_delay
        if config.aggressive_unification:
            snapshot_nl = self.netlist.clone()
            snapshot_pl = self.placement.copy()
            unify = postprocess_unification(
                self.netlist, self.placement, aggressive=True, sta=sta
            )
            if sta.analysis().critical_delay > before_unify + 1e-9:
                self.netlist.assign_from(snapshot_nl)
                self.placement.assign_from(snapshot_pl)
                unify = postprocess_unification(
                    self.netlist, self.placement, aggressive=False, sta=sta
                )
        else:
            unify = postprocess_unification(
                self.netlist, self.placement, aggressive=False, sta=sta
            )
        legalizer = TimingDrivenLegalizer(
            self.netlist,
            self.placement,
            alpha=config.legalizer_alpha,
            sta=sta,
        )
        with PERF.timer("flow.legalize"):
            legal = legalizer.legalize()
        self._iter_stats["legalizer_moves"] = legal.ripple_moves
        self._iter_stats["legalizer_displacement"] = legal.displacement
        unified = len(unify.retired) + len(unify.deleted) + len(legal.unifications)
        return len(outcome.replicated), len(outcome.swept) + unified


def optimize_replication(
    netlist: Netlist,
    placement: Placement,
    config: ReplicationConfig | None = None,
) -> OptimizationResult:
    """One-call API: run the replication flow and return the result.

    The inputs are modified in place to the best solution found.
    """
    optimizer = ReplicationOptimizer(netlist, placement, config)
    result = optimizer.run()
    # Mirror the best snapshot back into the caller's objects.
    netlist.assign_from(result.netlist)
    placement.assign_from(result.placement)
    return result
