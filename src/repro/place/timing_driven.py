"""Timing-driven placement in the style of T-VPlace [18].

The paper's experimental baseline is "a timing-driven placement from VPR
(Marquardt et al., 2000)".  This module reproduces that algorithm's
structure on our substrate: simulated annealing over swap/displace moves
whose cost is a normalized blend of

* **wiring cost** — per-net q(n)-corrected bounding-box half-perimeter;
* **timing cost** — per-connection ``delay * criticality ** exponent``,
  with criticalities refreshed by a full STA at every temperature.

``place_wirelength_driven`` runs the same engine with the timing weight
zeroed (the configuration [1] accidentally compared against, per the
paper's footnote 5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.arch.fpga import FpgaArch, Slot
from repro.netlist.netlist import Netlist
from repro.perf import PERF
from repro.place.annealer import AnnealStats, anneal
from repro.place.hpwl import crossing_factor
from repro.place.initial import random_placement
from repro.place.placement import Placement
from repro.timing.sta import analyze


@dataclass(slots=True)
class _Move:
    """A proposed displace (``cell_b is None``) or swap, costed once.

    Besides the deltas, :meth:`PlacementEvaluator._score` keeps the
    affected nets and connections and their new costs, in the order
    :meth:`PlacementEvaluator.commit` applies them.
    """

    cell_a: int
    slot_a: Slot
    cell_b: int | None
    slot_b: Slot
    delta_bb: float
    delta_timing: float
    nets: set[int]
    net_costs: list[float]
    conns: set[int]
    conn_costs: list[float]


class PlacementEvaluator:
    """Incremental cost model plugged into :func:`repro.place.annealer.anneal`.

    Each proposal is costed once: :meth:`_score` computes the new
    bounding-box cost of every net and the new cost of every connection
    the move touches, and :meth:`commit` applies those stored values, so
    a move must be committed (or dropped) before the next is proposed.
    The results are bit-identical to costing through a moved-cell
    overlay and recomputing on commit: the same RNG calls, the same
    set-iteration order, and ``sum()`` wherever a total is summed (from
    Python 3.12 ``sum()`` of floats is compensated, so a ``+=`` loop
    would round differently).
    """

    def __init__(
        self,
        netlist: Netlist,
        placement: Placement,
        timing_tradeoff: float = 0.5,
        criticality_exponent: float = 8.0,
    ) -> None:
        self.netlist = netlist
        self.placement = placement
        self.arch = placement.arch
        self.timing_tradeoff = timing_tradeoff
        self.criticality_exponent = criticality_exponent

        arch = self.arch
        model = arch.delay_model
        self._pad_slots = arch.pad_slots()
        #: Pad-move targets per (pad slot, range limit).
        self._pad_targets: dict[tuple[Slot, int], list[Slot]] = {}
        self._movable = sorted(netlist.cells)
        self._cells = dict(netlist.cells.items())
        self._pads = {cid for cid, cell in self._cells.items() if cell.ctype.is_pad}
        #: Wire delay by Manhattan distance; the pad ring makes the
        #: longest connection ``width + height + 2``.
        self._wire_delay = [
            model.wire_delay(d) for d in range(arch.width + arch.height + 3)
        ]
        # Per-net static data.
        self._net_terminals: dict[int, list[int]] = {}
        self._net_q: dict[int, float] = {}
        for net_id, net in netlist.nets.items():
            terminals = ([net.driver] if net.driver is not None else []) + [
                cid for cid, _pin in net.sinks
            ]
            self._net_terminals[net_id] = terminals
            self._net_q[net_id] = crossing_factor(len(terminals))
        # Connections (driver, sink) for the timing cost, and for the
        # criticality refresh each sink's capture delay (``None`` unless
        # the path ends there) and intrinsic delay.
        self._conns: list[tuple[int, int]] = []
        self._conn_sink: list[tuple[float | None, float]] = []
        for net in netlist.nets.values():
            if net.driver is None:
                continue
            for sink, _pin in net.sinks:
                cell = self._cells[sink]
                capture = None
                if cell.is_timing_end and not cell.is_lut:
                    capture = model.capture_delay(cell.is_ff)
                self._conns.append((net.driver, sink))
                self._conn_sink.append((capture, model.cell_delay(cell.is_lut)))
        self._cell_nets: dict[int, list[int]] = {cid: [] for cid in netlist.cells}
        for net_id, terminals in self._net_terminals.items():
            for cid in set(terminals):
                self._cell_nets[cid].append(net_id)
        self._cell_conns: dict[int, list[int]] = {cid: [] for cid in netlist.cells}
        for index, (u, v) in enumerate(self._conns):
            self._cell_conns[u].append(index)
            if v != u:
                self._cell_conns[v].append(index)
        # A set's iteration order depends on how it was built, and the
        # cost sums follow it: a displace iterates these ``set(list)``s,
        # a swap merges the second cell's into a fresh ``set(list)``.
        self._cell_net_set = {cid: set(n) for cid, n in self._cell_nets.items()}
        self._cell_conn_set = {cid: set(c) for cid, c in self._cell_conns.items()}

        self._weights = [1.0] * len(self._conns)
        self._net_cost: dict[int, float] = {}
        self._conn_cost = [0.0] * len(self._conns)
        self.bb_cost = 0.0
        self.timing_cost = 0.0
        self._bb_norm = 1.0
        self._timing_norm = 1.0
        self.last_analysis = None
        self._refresh_weights()
        self._recompute_costs()

    # ------------------------------------------------------------------
    # Full (per-temperature) cost passes
    # ------------------------------------------------------------------

    def _recompute_costs(self) -> None:
        slots = self.placement.slot_map()
        net_q = self._net_q
        net_cost: dict[int, float] = {}
        for nid, terminals in self._net_terminals.items():
            xmin = ymin = 1 << 30
            xmax = ymax = -(1 << 30)
            for cid in terminals:
                x, y = slots[cid]
                if x < xmin:
                    xmin = x
                if x > xmax:
                    xmax = x
                if y < ymin:
                    ymin = y
                if y > ymax:
                    ymax = y
            if xmax < xmin:
                net_cost[nid] = 0.0
            else:
                net_cost[nid] = net_q[nid] * ((xmax - xmin) + (ymax - ymin))
        self._net_cost = net_cost
        self.bb_cost = sum(net_cost.values())
        weights = self._weights
        wire_delay = self._wire_delay
        conn_cost = self._conn_cost
        for index, (u, v) in enumerate(self._conns):
            xu, yu = slots[u]
            xv, yv = slots[v]
            conn_cost[index] = weights[index] * wire_delay[abs(xu - xv) + abs(yu - yv)]
        self.timing_cost = sum(conn_cost)
        self._bb_norm = max(self.bb_cost, 1e-9)
        self._timing_norm = max(self.timing_cost, 1e-9)

    def _refresh_weights(self) -> None:
        """Weight each connection by ``criticality ** exponent``.

        The criticality is :meth:`TimingAnalysis.criticality`'s
        expression, evaluated in one loop over the connections.
        """
        if self.timing_tradeoff <= 0.0 or not self._conns:
            return
        analysis = analyze(self.netlist, self.placement)
        self.last_analysis = analysis
        critical = analysis.critical_delay
        arrival = analysis.arrival
        required = analysis.required
        exponent = self.criticality_exponent
        slots = self.placement.slot_map()
        wire_delay = self._wire_delay
        weights = self._weights
        if critical <= 0:
            weights[:] = [0.0**exponent] * len(weights)
            return
        for index, (u, v) in enumerate(self._conns):
            xu, yu = slots[u]
            xv, yv = slots[v]
            at_input = arrival[u] + wire_delay[abs(xu - xv) + abs(yu - yv)]
            capture, cell_delay = self._conn_sink[index]
            if capture is None:
                required_in = required[v] - cell_delay
            else:
                required_in = critical - capture
            crit = 1.0 - (required_in - at_input) / critical
            # max(0.0, min(1.0, crit)), comparison for comparison.
            crit = crit if crit < 1.0 else 1.0
            crit = crit if crit > 0.0 else 0.0
            weights[index] = crit**exponent

    # ------------------------------------------------------------------
    # MoveEvaluator protocol
    # ------------------------------------------------------------------

    def propose(self, rng: random.Random, range_limit: int) -> _Move | None:
        cell_a = self._movable[rng.randrange(len(self._movable))]
        slot_a = self.placement.slot_of(cell_a)
        if cell_a in self._pads:
            key = (slot_a, range_limit)
            nearby = self._pad_targets.get(key)
            if nearby is None:
                reach = 2 * range_limit
                nearby = [
                    s
                    for s in self._pad_slots
                    if s != slot_a and self.arch.distance(s, slot_a) <= reach
                ]
                self._pad_targets[key] = nearby
            if not nearby:
                return None
            slot_b = nearby[rng.randrange(len(nearby))]
            capacity = self.arch.pads_per_slot
        else:
            x0, y0 = slot_a
            x = rng.randint(max(1, x0 - range_limit), min(self.arch.width, x0 + range_limit))
            y = rng.randint(max(1, y0 - range_limit), min(self.arch.height, y0 + range_limit))
            slot_b = (x, y)
            if slot_b == slot_a:
                return None
            capacity = self.arch.clb_capacity

        occupants = self.placement.cells_at(slot_b)
        cell_b: int | None = None
        if len(occupants) >= capacity:
            cell_b = occupants[rng.randrange(len(occupants))]
        return self._score(cell_a, slot_a, cell_b, slot_b)

    def _score(
        self, cell_a: int, slot_a: Slot, cell_b: int | None, slot_b: Slot
    ) -> _Move:
        """Cost moving ``cell_a`` to ``slot_b`` (and ``cell_b`` to ``slot_a``).

        The two moved cells are taken from the arguments; every other
        terminal is read from the live placement.
        """
        if cell_b is None:
            other = -1  # never a cell id
            nets = self._cell_net_set[cell_a]
            conns = self._cell_conn_set[cell_a]
        else:
            other = cell_b
            nets = set(self._cell_nets[cell_a])
            nets |= self._cell_net_set[cell_b]
            conns = set(self._cell_conns[cell_a])
            conns |= self._cell_conn_set[cell_b]
        slots = self.placement.slot_map()

        net_terminals = self._net_terminals
        net_q = self._net_q
        net_cost = self._net_cost
        net_costs: list[float] = []
        bb_deltas: list[float] = []
        for nid in nets:
            xmin = ymin = 1 << 30
            xmax = ymax = -(1 << 30)
            for cid in net_terminals[nid]:
                if cid == cell_a:
                    x, y = slot_b
                elif cid == other:
                    x, y = slot_a
                else:
                    x, y = slots[cid]
                if x < xmin:
                    xmin = x
                if x > xmax:
                    xmax = x
                if y < ymin:
                    ymin = y
                if y > ymax:
                    ymax = y
            # ``nid`` has the moved cell as a terminal, so it is nonempty.
            new = net_q[nid] * ((xmax - xmin) + (ymax - ymin))
            net_costs.append(new)
            bb_deltas.append(new - net_cost[nid])

        all_conns = self._conns
        weights = self._weights
        wire_delay = self._wire_delay
        conn_cost = self._conn_cost
        conn_costs: list[float] = []
        timing_deltas: list[float] = []
        for index in conns:
            u, v = all_conns[index]
            if u == cell_a:
                xu, yu = slot_b
            elif u == other:
                xu, yu = slot_a
            else:
                xu, yu = slots[u]
            if v == cell_a:
                xv, yv = slot_b
            elif v == other:
                xv, yv = slot_a
            else:
                xv, yv = slots[v]
            new = weights[index] * wire_delay[abs(xu - xv) + abs(yu - yv)]
            conn_costs.append(new)
            timing_deltas.append(new - conn_cost[index])

        return _Move(
            cell_a, slot_a, cell_b, slot_b, sum(bb_deltas), sum(timing_deltas),
            nets, net_costs, conns, conn_costs,
        )

    def delta_cost(self, move: _Move) -> float:
        lam = self.timing_tradeoff
        return lam * move.delta_timing / self._timing_norm + (1.0 - lam) * (
            move.delta_bb / self._bb_norm
        )

    def commit(self, move: _Move) -> None:
        """Apply ``move`` and the costs :meth:`_score` stored on it.

        Valid only for the last move proposed: any other commit or a
        temperature refresh in between would leave those costs stale.
        """
        self.placement.place(self._cells[move.cell_a], move.slot_b)
        if move.cell_b is not None:
            self.placement.place(self._cells[move.cell_b], move.slot_a)
        net_cost = self._net_cost
        bb_cost = self.bb_cost
        for nid, new in zip(move.nets, move.net_costs):
            bb_cost += new - net_cost[nid]
            net_cost[nid] = new
        self.bb_cost = bb_cost
        conn_cost = self._conn_cost
        timing_cost = self.timing_cost
        for index, new in zip(move.conns, move.conn_costs):
            timing_cost += new - conn_cost[index]
            conn_cost[index] = new
        self.timing_cost = timing_cost

    def on_temperature(self) -> None:
        self._refresh_weights()
        self._recompute_costs()

    def current_cost(self) -> float:
        lam = self.timing_tradeoff
        return lam * self.timing_cost / self._timing_norm + (1.0 - lam) * (
            self.bb_cost / self._bb_norm
        )

    def cost_scale(self) -> float:
        num_nets = max(len(self._net_terminals), 1)
        return self.current_cost() / num_nets


def place_timing_driven(
    netlist: Netlist,
    arch: FpgaArch,
    seed: int = 0,
    inner_scale: float = 1.0,
    timing_tradeoff: float = 0.5,
    criticality_exponent: float = 8.0,
) -> tuple[Placement, AnnealStats]:
    """Produce a timing-driven placement (our VPR stand-in).

    Args:
        netlist: Design to place.
        arch: Target FPGA.
        seed: Determinism seed.
        inner_scale: SA effort dial (VPR ``inner_num``); tests use small
            values, benchmarks ~1.0.
        timing_tradeoff: λ blending timing vs wiring cost.
        criticality_exponent: Sharpness of the criticality weighting.
    """
    with PERF.timer("place"):
        placement = random_placement(netlist, arch, seed=seed)
        evaluator = PlacementEvaluator(
            netlist,
            placement,
            timing_tradeoff=timing_tradeoff,
            criticality_exponent=criticality_exponent,
        )
        stats = anneal(
            evaluator,
            num_items=netlist.num_cells,
            max_range=max(arch.width, arch.height),
            seed=seed + 1,
            inner_scale=inner_scale,
        )
    return placement, stats


def place_wirelength_driven(
    netlist: Netlist,
    arch: FpgaArch,
    seed: int = 0,
    inner_scale: float = 1.0,
) -> tuple[Placement, AnnealStats]:
    """Pure bounding-box-driven placement (timing weight zero)."""
    return place_timing_driven(
        netlist, arch, seed=seed, inner_scale=inner_scale, timing_tradeoff=0.0
    )
