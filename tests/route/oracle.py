"""Parity oracles for the router and the W_min search.

* The **reference router** — the original tuple-keyed PathFinder:
  :class:`RoutingGraph` keyed by ``Slot`` tuples and canonical
  ``Segment`` pairs, one plain Dijkstra per sink, a full re-route of
  every net per negotiation iteration.  ``repro.route.pathfinder``'s
  indexed router must replay it bit-for-bit under ``W∞`` and in exact
  mode, and never fail at a width where it succeeds.
* The **reference W_min protocol** — :func:`galloping_bisect` over cold
  ``route_design`` probes.  ``repro.route.wmin``'s scan up from the
  demand lower bound must return exactly its width (and raise exactly
  where it raises).

Keep both byte-for-byte stable: they are what the parity tests measure
the production code against.
"""

from __future__ import annotations

import math
from collections import defaultdict
from heapq import heappop, heappush

from repro.arch.fpga import FpgaArch, Slot
from repro.netlist.netlist import Netlist
from repro.place.placement import Placement
from repro.route.pathfinder import (
    NetRoute,
    RoutingResult,
    _routable_nets,
    _tree_hops,
    route_design,
)
from repro.route.rrgraph import Segment


def segment(a: Slot, b: Slot) -> Segment:
    """Canonical (order-independent) key for the channel between a and b."""
    return (a, b) if a <= b else (b, a)


class RoutingGraph:
    """Grid routing graph with per-segment occupancy and history costs."""

    def __init__(self, arch: FpgaArch, channel_width: float) -> None:
        self.arch = arch
        self.channel_width = channel_width
        self._neighbours: dict[Slot, list[Slot]] = {}
        self.usage: dict[Segment, int] = defaultdict(int)
        self.history: dict[Segment, float] = defaultdict(float)

        slots = set(arch.logic_slots()) | set(arch.pad_slots())
        for slot in slots:
            x, y = slot
            self._neighbours[slot] = [
                n
                for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                if n in slots
            ]

    def neighbours(self, slot: Slot) -> list[Slot]:
        return self._neighbours[slot]

    def slots(self) -> list[Slot]:
        return sorted(self._neighbours)

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------

    def occupy(self, seg: Segment) -> None:
        self.usage[seg] += 1

    def release(self, seg: Segment) -> None:
        self.usage[seg] -= 1
        if self.usage[seg] <= 0:
            del self.usage[seg]

    def overuse(self, seg: Segment) -> int:
        over = self.usage.get(seg, 0) - self.channel_width
        return int(over) if over > 0 else 0

    def total_overuse(self) -> int:
        return sum(
            int(used - self.channel_width)
            for used in self.usage.values()
            if used > self.channel_width
        )

    def total_wirelength(self) -> int:
        """Total occupied segments (with multiplicity) — routed wire."""
        return sum(self.usage.values())

    def congestion_cost(self, seg: Segment, present_factor: float) -> float:
        """PathFinder cost of using one more track of this segment."""
        base = 1.0
        present = self.usage.get(seg, 0)
        over = max(0.0, present + 1 - self.channel_width)
        return (base + self.history.get(seg, 0.0)) * (1.0 + present_factor * over)

    def accrue_history(self, increment: float = 1.0) -> None:
        """Add history cost on every currently over-used segment."""
        for seg, used in self.usage.items():
            if used > self.channel_width:
                self.history[seg] += increment * (used - self.channel_width)


# ======================================================================
# Reference router
# ======================================================================


def route_design_reference(
    netlist: Netlist,
    placement: Placement,
    channel_width: float,
    max_iterations: int = 20,
    present_factor: float = 0.5,
    present_growth: float = 1.6,
    timing_driven: bool = True,
) -> RoutingResult:
    """``route_design``'s signature, routed by the reference router."""
    nets = _routable_nets(netlist, placement, timing_driven)
    return _route_design_reference(
        placement.arch, nets, channel_width,
        max_iterations, present_factor, present_growth,
    )


def _route_design_reference(
    arch: FpgaArch,
    nets: list[tuple[int, Slot, list[Slot], dict[Slot, float]]],
    channel_width: float,
    max_iterations: int,
    present_factor: float,
    present_growth: float,
) -> RoutingResult:
    graph = RoutingGraph(arch, channel_width)
    routes: dict[int, NetRoute] = {}

    pres = present_factor
    iterations = 0
    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        for net_id, source, sinks, crits in nets:
            old = routes.pop(net_id, None)
            if old is not None:
                for seg in old.segments:
                    graph.release(seg)
            routes[net_id] = _route_net_reference(
                graph, net_id, source, sinks, pres, crits
            )
            for seg in routes[net_id].segments:
                graph.occupy(seg)
        if graph.total_overuse() == 0:
            break
        graph.accrue_history()
        pres *= present_growth
    success = graph.total_overuse() == 0
    return RoutingResult(
        success=success,
        iterations=iterations,
        channel_width=channel_width,
        routes=routes,
        total_wirelength=graph.total_wirelength(),
        remaining_overuse=graph.total_overuse(),
    )


def _route_net_reference(
    graph: RoutingGraph,
    net_id: int,
    source: Slot,
    sinks: list[Slot],
    present_factor: float,
    criticality: dict[Slot, float] | None = None,
) -> NetRoute:
    """Grow the net's route tree sink by sink, most critical first.

    For a sink with criticality ``c`` the expansion cost per segment is
    ``c + (1 - c) * congestion`` and the wavefront is seeded with each
    tree node's hop distance from the source scaled by ``c`` — a critical
    sink therefore prefers a short *source-to-sink* path over merely
    hugging the existing trunk (VPR's timing-driven routing trade-off).
    """
    criticality = criticality or {}
    route = NetRoute(net_id=net_id, source=source)
    tree: set[Slot] = {source}
    tree_segments: set[Segment] = set()
    hops_from_source: dict[Slot, int] = {source: 0}
    remaining = sorted(sinks, key=lambda s: (-criticality.get(s, 0.0), s))

    for target in remaining:
        if target in tree:
            continue
        crit = criticality.get(target, 0.0)
        came_from = _dijkstra_to_target(
            graph, tree, target, present_factor, crit, hops_from_source
        )
        if came_from is None:
            break  # disconnected graph (cannot happen on grids)
        parents = came_from
        cursor = target
        path = [cursor]
        while cursor not in tree:
            parent = parents[cursor]
            seg = segment(parent, cursor)
            if seg not in tree_segments:
                tree_segments.add(seg)
                route.segments.append(seg)
            cursor = parent
            path.append(cursor)
        # ``cursor`` is the attachment point; fill hop distances forward.
        base = hops_from_source[cursor]
        for offset, slot in enumerate(reversed(path)):
            hops_from_source.setdefault(slot, base + offset)
            tree.add(slot)

    route.sink_hops = _tree_hops(route, source, set(sinks))
    return route


def _dijkstra_to_target(
    graph: RoutingGraph,
    tree: set[Slot],
    target: Slot,
    present_factor: float,
    crit: float,
    hops_from_source: dict[Slot, int],
):
    """Cheapest blended-cost path from the route tree to ``target``.

    Seeds carry ``crit * hops_from_source`` so that, for critical sinks,
    attaching deep in the tree is correctly charged for the source-side
    delay it implies.
    """
    heap: list[tuple[float, Slot]] = []
    best: dict[Slot, float] = {}
    for slot in tree:
        seed = crit * hops_from_source.get(slot, 0)
        if seed < best.get(slot, math.inf):
            best[slot] = seed
            heappush(heap, (seed, slot))
    parents: dict[Slot, Slot] = {}
    while heap:
        cost, slot = heappop(heap)
        if cost > best.get(slot, math.inf):
            continue
        if slot == target:
            return parents
        for neighbour in graph.neighbours(slot):
            congestion = graph.congestion_cost(segment(slot, neighbour), present_factor)
            step = crit + (1.0 - crit) * congestion
            new_cost = cost + step
            if new_cost < best.get(neighbour, math.inf) - 1e-12:
                best[neighbour] = new_cost
                parents[neighbour] = slot
                heappush(heap, (new_cost, neighbour))
    return None


# ======================================================================
# Reference W_min protocol
# ======================================================================


def galloping_bisect(success_at, max_width: int) -> int:
    """The reference W_min protocol: gallop 1, 2, 4, ... then bisect.

    ``success_at(width) -> bool`` probes one channel width.  This is the
    original ``find_min_channel_width`` control flow factored out so a
    synthetic oracle can property-test it: assuming routability is
    monotone in width, it returns the exact boundary, and it raises
    ``RuntimeError`` when every galloped width up to ``max_width``
    fails (so a boundary above the largest power-of-two probe
    ``<= max_width`` raises).
    """
    low, high = 1, 1
    while high <= max_width:
        if success_at(high):
            break
        low = high + 1
        high *= 2
    else:
        raise RuntimeError(f"unroutable even at channel width {max_width}")
    # Invariant: high routes, widths below low fail.
    while low < high:
        mid = (low + high) // 2
        if success_at(mid):
            high = mid
        else:
            low = mid + 1
    return high


def min_channel_width_reference(
    netlist: Netlist,
    placement: Placement,
    max_width: int = 128,
    max_iterations: int = 16,
) -> int:
    """W_min by cold galloping bisection: one full negotiation per probe."""

    def success_at(width: int) -> bool:
        return route_design(netlist, placement, width, max_iterations).success

    return galloping_bisect(success_at, max_width)
