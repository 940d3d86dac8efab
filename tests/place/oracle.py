"""Parity oracle for the timing-driven placer's cost model.

:class:`PlacementEvaluator` here is the original evaluator of
``repro.place.timing_driven``: every proposal builds a ``moved`` overlay
and costs the affected nets and connections through it, and ``commit``
recomputes those same costs from the updated placement.  The production
evaluator costs each move once and must replay this one bit for bit:
the same RNG calls, the same set-iteration order and the same ``sum()``
calls, so annealing with either gives the same slot for every cell, the
same ``AnnealStats`` and bit-equal final costs.

Keep it byte-for-byte stable: it is what the parity tests measure the
production evaluator against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.arch.fpga import Slot
from repro.netlist.netlist import Netlist
from repro.place.hpwl import crossing_factor
from repro.place.placement import Placement
from repro.timing.sta import analyze


@dataclass
class _Move:
    """A proposed displace (``cell_b is None``) or swap."""

    cell_a: int
    slot_a: Slot
    cell_b: int | None
    slot_b: Slot
    delta_bb: float = 0.0
    delta_timing: float = 0.0


class PlacementEvaluator:
    """Incremental cost model plugged into :func:`repro.place.annealer.anneal`."""

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

        self._pad_slots = self.arch.pad_slots()
        self._movable = sorted(netlist.cells)
        # Per-net static data.
        self._net_terminals: dict[int, list[int]] = {}
        self._net_q: dict[int, float] = {}
        for net_id, net in netlist.nets.items():
            terminals = ([net.driver] if net.driver is not None else []) + [
                cid for cid, _pin in net.sinks
            ]
            self._net_terminals[net_id] = terminals
            self._net_q[net_id] = crossing_factor(len(terminals))
        # Connections for the timing cost.
        self._conns: list[tuple[int, int, int]] = []
        for net in netlist.nets.values():
            if net.driver is None:
                continue
            for sink, pin in net.sinks:
                self._conns.append((net.driver, sink, pin))
        self._cell_nets: dict[int, list[int]] = {cid: [] for cid in netlist.cells}
        for net_id, terminals in self._net_terminals.items():
            for cid in set(terminals):
                self._cell_nets[cid].append(net_id)
        self._cell_conns: dict[int, list[int]] = {cid: [] for cid in netlist.cells}
        for index, (u, v, _pin) in enumerate(self._conns):
            self._cell_conns[u].append(index)
            if v != u:
                self._cell_conns[v].append(index)

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
    # Cost primitives
    # ------------------------------------------------------------------

    def _net_bb_cost(self, net_id: int, moved: dict[int, Slot]) -> float:
        xmin = ymin = 1 << 30
        xmax = ymax = -(1 << 30)
        for cid in self._net_terminals[net_id]:
            x, y = moved.get(cid) or self.placement.slot_of(cid)
            xmin = min(xmin, x)
            xmax = max(xmax, x)
            ymin = min(ymin, y)
            ymax = max(ymax, y)
        if xmax < xmin:
            return 0.0
        return self._net_q[net_id] * ((xmax - xmin) + (ymax - ymin))

    def _connection_cost(self, index: int, moved: dict[int, Slot]) -> float:
        u, v, _pin = self._conns[index]
        slot_u = moved.get(u) or self.placement.slot_of(u)
        slot_v = moved.get(v) or self.placement.slot_of(v)
        delay = self.arch.delay_model.wire_delay(self.arch.distance(slot_u, slot_v))
        return self._weights[index] * delay

    def _recompute_costs(self) -> None:
        self._net_cost = {nid: self._net_bb_cost(nid, {}) for nid in self._net_terminals}
        self.bb_cost = sum(self._net_cost.values())
        for index in range(len(self._conns)):
            self._conn_cost[index] = self._connection_cost(index, {})
        self.timing_cost = sum(self._conn_cost)
        self._bb_norm = max(self.bb_cost, 1e-9)
        self._timing_norm = max(self.timing_cost, 1e-9)

    def _refresh_weights(self) -> None:
        if self.timing_tradeoff <= 0.0 or not self._conns:
            return
        analysis = analyze(self.netlist, self.placement)
        self.last_analysis = analysis
        for index, (u, v, pin) in enumerate(self._conns):
            crit = analysis.criticality(u, v, pin)
            self._weights[index] = crit**self.criticality_exponent

    # ------------------------------------------------------------------
    # MoveEvaluator protocol
    # ------------------------------------------------------------------

    def propose(self, rng: random.Random, range_limit: int) -> _Move | None:
        cell_id = self._movable[rng.randrange(len(self._movable))]
        cell = self.netlist.cells[cell_id]
        slot_a = self.placement.slot_of(cell_id)
        if cell.ctype.is_pad:
            nearby = [
                s
                for s in self._pad_slots
                if s != slot_a and self.arch.distance(s, slot_a) <= 2 * range_limit
            ]
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
        move = _Move(cell_id, slot_a, cell_b, slot_b)
        self._score(move)
        return move

    def _score(self, move: _Move) -> None:
        moved: dict[int, Slot] = {move.cell_a: move.slot_b}
        if move.cell_b is not None:
            moved[move.cell_b] = move.slot_a
        nets = set(self._cell_nets[move.cell_a])
        conns = set(self._cell_conns[move.cell_a])
        if move.cell_b is not None:
            nets |= set(self._cell_nets[move.cell_b])
            conns |= set(self._cell_conns[move.cell_b])
        move.delta_bb = sum(
            self._net_bb_cost(nid, moved) - self._net_cost[nid] for nid in nets
        )
        move.delta_timing = sum(
            self._connection_cost(i, moved) - self._conn_cost[i] for i in conns
        )

    def delta_cost(self, move: _Move) -> float:
        lam = self.timing_tradeoff
        return lam * move.delta_timing / self._timing_norm + (1.0 - lam) * (
            move.delta_bb / self._bb_norm
        )

    def commit(self, move: _Move) -> None:
        self.placement.place(self.netlist.cells[move.cell_a], move.slot_b)
        if move.cell_b is not None:
            self.placement.place(self.netlist.cells[move.cell_b], move.slot_a)
        nets = set(self._cell_nets[move.cell_a])
        conns = set(self._cell_conns[move.cell_a])
        if move.cell_b is not None:
            nets |= set(self._cell_nets[move.cell_b])
            conns |= set(self._cell_conns[move.cell_b])
        for nid in nets:
            new = self._net_bb_cost(nid, {})
            self.bb_cost += new - self._net_cost[nid]
            self._net_cost[nid] = new
        for index in conns:
            new = self._connection_cost(index, {})
            self.timing_cost += new - self._conn_cost[index]
            self._conn_cost[index] = new

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
