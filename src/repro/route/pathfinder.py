"""Negotiated-congestion routing (PathFinder) over the grid graph.

Each net is routed as a Steiner-ish tree grown by repeated shortest-path
searches from the partially built tree to the nearest unreached sink.
Congested segments get progressively more expensive across iterations
(present-sharing) and accumulate history cost, until either no segment
is over-used (success) or the iteration limit is hit (failure at this
channel width).

Setting ``channel_width`` to ``math.inf`` gives the paper's
infinite-resource routing ``W∞`` — every net routes on its shortest
tree, no congestion — which [18] argues is a good placement-evaluation
metric; a finite width gives the low-stress ``W_ls`` protocol.

The router runs on the integer-indexed
:class:`~repro.route.rrgraph.IndexedRoutingGraph`: per-sink heap searches
expand over CSR neighbour arrays inside a bounding window that grows on
failure, congested iterations read a per-iteration priced cost vector
and key their heap with an admissible Manhattan-distance A* lookahead,
and negotiation after the first iteration is *incremental* — only nets
crossing an over-used segment are ripped up and re-routed, every other
route tree is reused in place.

**Parity.**  The original tuple-keyed router is kept as a parity oracle
in ``tests/route/oracle.py``.  Under ``W∞`` (and any uniform-cost
search: no over-use, no history) every edge costs the same
``crit + (1-crit) * 1.0`` step, the heap is keyed by cost alone and the
search is an exact replay of the reference Dijkstra: integer slot ids
are assigned in ascending ``Slot``-tuple order, so the ``(cost, id)``
heap pops in the reference's ``(cost, slot)`` order, the same ``1e-12``
strict-improvement rule applies, and neighbours are probed in the same
(+x, -x, +y, -y) order.  There the lookahead only gates pushes: once
the target's key is bounded, an entry whose cost plus the lookahead
floor exceeds that bound is never pushed, which removes only entries
that can neither reach the target in time nor parent into its chain,
so the surviving entries pop in the same order.  W∞ results are
therefore bit-identical — segments, per-net wirelength and sink hops —
which ``tests/route/test_parity.py`` enforces.  (Bounding the search
window is exact here: every optimal parent chain in a uniform-cost grid
is a monotone staircase between two points of the tree∪target bounding
box, so no node outside the window can appear on, or parent into, a
realized route.)  Congested iterations are where A* reorders the
search; there the heuristics (lookahead tie-breaking, bounded windows,
incremental rip-up) can steer negotiation onto a different — very
occasionally worse — trajectory.  The router therefore *never reports
failure on its own authority*: if the heuristic schedule ends with
residual over-use, it re-runs once in **exact mode** (heap keyed by
cost, full-grid windows, full re-route every iteration), which replays
the reference router decision-for-decision, with the same push gate as
the uniform regime.  Consequently the router fails at a channel width
only if the reference router also fails there, and the negotiated
minimum channel width is never worse than the reference router's
(property-tested in ``tests/route/test_parity.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from repro.arch.fpga import FpgaArch, Slot
from repro.netlist.netlist import Netlist
from repro.perf import PERF
from repro.place.placement import Placement
from repro.route.rrgraph import IndexedRoutingGraph, Segment


@dataclass
class NetRoute:
    """Route tree of one net: segments used and per-sink hop distances."""

    net_id: int
    source: Slot
    segments: list[Segment] = field(default_factory=list)
    #: Hops from the source to each sink slot through the route tree.
    sink_hops: dict[Slot, int] = field(default_factory=dict)

    @property
    def wirelength(self) -> int:
        return len(self.segments)


@dataclass
class RoutingResult:
    """Outcome of :func:`route_design`."""

    success: bool
    iterations: int
    channel_width: float
    routes: dict[int, NetRoute] = field(default_factory=dict)
    total_wirelength: int = 0
    remaining_overuse: int = 0


def route_design(
    netlist: Netlist,
    placement: Placement,
    channel_width: float,
    max_iterations: int = 20,
    present_factor: float = 0.5,
    present_growth: float = 1.6,
    timing_driven: bool = True,
) -> RoutingResult:
    """Route every net; negotiate congestion until legal or give up.

    With ``timing_driven`` (the default, matching the VPR flow the paper
    evaluates with), each sink's expansion cost blends congestion with
    path delay *from the source through the tree*, weighted by the
    sink's placement-level criticality — so critical connections route
    near-directly instead of detouring through shared Steiner trunks.
    """
    nets = _routable_nets(netlist, placement, timing_driven)
    return _route_design_fast(
        placement.arch, nets, channel_width,
        max_iterations, present_factor, present_growth,
    )


def _routable_nets(
    netlist: Netlist, placement: Placement, timing_driven: bool = True
) -> list[tuple[int, Slot, list[Slot], dict[Slot, float]]]:
    """Nets with at least one sink on a different slot, largest first.

    Each net also carries per-sink-slot criticalities (max over the
    connections terminating on that slot) from a placement-level STA.
    """
    analysis = None
    if timing_driven:
        from repro.timing.sta import analyze

        analysis = analyze(netlist, placement)
    nets = []
    for net_id, net in netlist.nets.items():
        if net.driver is None or not net.sinks:
            continue
        source = placement.slot_of(net.driver)
        crits: dict[Slot, float] = {}
        for cid, pin in net.sinks:
            slot = placement.slot_of(cid)
            if slot == source:
                continue
            crit = (
                analysis.criticality(net.driver, cid, pin)
                if analysis is not None
                else 0.0
            )
            crits[slot] = max(crits.get(slot, 0.0), crit)
        sinks = sorted(crits)
        if sinks:
            nets.append((net_id, source, sinks, crits))
    # Route high-fanout nets first (they are hardest to negotiate).
    nets.sort(key=lambda item: (-len(item[2]), item[0]))
    return nets


def _tree_hops(route: NetRoute, source: Slot, sinks: set[Slot]) -> dict[Slot, int]:
    """Hop count from the source to each sink through the route tree."""
    adjacency: dict[Slot, list[Slot]] = {}
    for a, b in route.segments:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    hops = {source: 0}
    stack = [source]
    while stack:
        slot = stack.pop()
        for neighbour in adjacency.get(slot, ()):
            if neighbour not in hops:
                hops[neighbour] = hops[slot] + 1
                stack.append(neighbour)
    return {slot: hops[slot] for slot in sinks if slot in hops}


# ======================================================================
# Indexed search: A* lookahead, incremental negotiation
# ======================================================================


#: Window inflation around bbox(tree ∪ target).  Margin 1 is provably
#: lossless for uniform-cost searches; congested searches may detour and
#: get a wider berth (tuned on the benchmark suite's W_min).
_UNIFORM_MARGIN = 1
_CONGESTED_MARGIN = 3


class _SearchState:
    """Reusable per-graph scratch arrays for the indexed searches.

    Validity is tracked with generation stamps so a new search (or a new
    net's tree) never pays an O(slots) clear.
    """

    __slots__ = (
        "best", "parent", "parent_seg", "stamp", "gen",
        "tree_stamp", "hops", "tree_gen", "seg_stamp",
        "pops", "pushes", "stale", "retries",
    )

    def __init__(self, num_slots: int, num_segments: int) -> None:
        self.best = [0.0] * num_slots
        self.parent = [-1] * num_slots
        self.parent_seg = [-1] * num_slots
        self.stamp = [0] * num_slots
        self.gen = 0
        self.tree_stamp = [0] * num_slots
        self.hops = [0] * num_slots
        self.tree_gen = 0
        self.seg_stamp = [0] * num_segments
        self.pops = 0
        self.pushes = 0
        self.stale = 0
        self.retries = 0


def _search_to_target(
    ig: IndexedRoutingGraph,
    state: _SearchState,
    tree_nodes: list[int],
    target: int,
    crit: float,
    bbox: tuple[int, int, int, int],
    uniform: bool,
    exact: bool,
    ub: float = math.inf,
) -> bool:
    """One tree-to-sink search; returns True when ``target`` was reached.

    The search is confined to ``bbox`` (grown by the caller on
    failure).  When the graph currently has neither over-use nor history
    — every edge costs the uniform ``crit + (1-crit)`` step — the heap
    is keyed by cost alone and this is an exact replay of the reference
    Dijkstra (see module docstring); exact mode is keyed the same way.
    Otherwise an admissible Manhattan lookahead (per-hop floor, deflated
    by 1e-12 against float round-up) keys the heap and steers the
    expansion toward the sink.  Congested searches read per-segment
    congestion from the graph's priced cost cache (``ig.seg_cost``),
    which the caller must have refreshed at the current present-sharing
    factor.

    ``ub`` is an optional incumbent upper bound on the target's final
    heap key (see :func:`_route_net_fast`): the push gate starts from it
    instead of +inf, so entries provably popping after the target are
    never pushed at all.
    """
    xs, ys = ig.xs, ig.ys
    adj = ig.adj
    cost_arr = ig.seg_cost
    best, parent, parent_seg = state.best, state.parent, state.parent_seg
    stamp = state.stamp
    hops = state.hops
    gen = state.gen + 1
    state.gen = gen
    bx0, bx1, by0, by1 = bbox
    tx, ty = xs[target], ys[target]
    one_minus = 1.0 - crit
    # Admissible per-hop floor: every edge costs >= crit + (1-crit)*1.0
    # (congestion cost is >= 1.0 always); the 1e-12 deflation keeps the
    # Manhattan product a strict lower bound under float round-up.
    hstep = (crit + one_minus) * (1.0 - 1e-12)
    keyed = not (uniform or exact)
    push = heappush
    pop = heappop

    # Heap-churn control: every pop is counted (so ``pops <= pushes`` is
    # a conservation invariant), entries dominated by the per-node best
    # array are skipped as *stale* before any expansion work, and — once
    # the target's key is bounded by ``tbest`` — dead entries are never
    # pushed at all.  An entry is dead when it would pop strictly after
    # the target's heap entry (``(f, v) > (tbest, target)`` in heap
    # order) or, in the searches keyed by cost alone, when even the
    # lookahead floor cannot bring it to the target within ``tbest``
    # (``c + h(v) > tbest + 1e-9``): the lookahead then gates pushes
    # instead of keying the heap, so surviving entries keep their keys
    # and their pop order.  The per-node arrays are still written for a
    # dead entry, so domination tests behave exactly as if it sat in the
    # heap; every node on the realized parent chain has ``c + h <=`` the
    # target's final key ``<= tbest``, and a dead entry's successors are
    # dead too (the floor is consistent), so a dead entry never
    # influences the realized parent chain.  ``tbest`` starts from the
    # caller's incumbent bound ``ub`` (+inf when none): any entry above
    # a valid upper bound on the target's final key is equally dead on
    # arrival, so the gate engages from the very first push instead of
    # only after the target is first reached.  Pruning is thus exact,
    # not heuristic, whenever ``ub`` upper-bounds the search's own
    # optimum (guaranteed in exact mode; see the window caveat in
    # :func:`_route_net_fast` for heuristic windows).  Seeds are built
    # in bulk and heapified (pop order is key order, and keys are unique
    # in the slot id, so heapify vs sequential pushes is pop-for-pop
    # identical) and pass the same gates.
    tbest = ub if not uniform else math.inf  # target's current heap key bound
    tlim = tbest + 1e-9  # lookahead gate of the cost-keyed searches
    heap: list = []
    add = heap.append
    for t in tree_nodes:
        seed = crit * hops[t]
        stamp[t] = gen
        best[t] = seed
        parent[t] = -1
        if seed > tbest or (seed == tbest and t > target):
            continue  # would pop after the target: dead entry
        dx = xs[t] - tx
        dy = ys[t] - ty
        h = (dx if dx >= 0 else -dx) + (dy if dy >= 0 else -dy)
        if keyed:
            f = seed + h * hstep
            if f > tbest or (f == tbest and t > target):
                continue
            add((f, t, seed))
        elif seed + h * hstep <= tlim:
            add((seed, t))
    heapify(heap)
    pushes = len(heap)

    pops = 0
    stale = 0
    found = False
    if uniform:
        # Uniform regime: congestion cost is exactly 1.0 on every edge,
        # so the step collapses to a per-search constant (same float as
        # the general expression with congestion == 1.0).
        step = crit + one_minus * 1.0
        while heap:
            g, u = pop(heap)
            pops += 1
            if g > best[u]:
                stale += 1
                continue
            if u == target:
                found = True
                break
            c = g + step
            for v, s, x, y in adj[u]:
                if x < bx0 or x > bx1 or y < by0 or y > by1:
                    continue
                if stamp[v] != gen:
                    stamp[v] = gen
                elif c >= best[v] - 1e-12:
                    continue
                best[v] = c
                parent[v] = u
                parent_seg[v] = s
                if c > tbest or (c == tbest and v > target):
                    continue  # would pop after the target: dead entry
                if v == target:
                    tbest = c
                    tlim = c + 1e-9
                else:
                    dx = x - tx
                    dy = y - ty
                    h = (dx if dx >= 0 else -dx) + (dy if dy >= 0 else -dy)
                    if c + h * hstep > tlim:
                        continue  # cannot reach the target within tbest
                push(heap, (c, v))
                pushes += 1
    elif exact:
        # Exact mode always searches the whole grid (see
        # :func:`_route_net_fast`), so there is no window test.
        while heap:
            g, u = pop(heap)
            pops += 1
            if g > best[u]:
                stale += 1
                continue
            if u == target:
                found = True
                break
            for v, s, x, y in adj[u]:
                c = g + (crit + one_minus * cost_arr[s])
                if stamp[v] != gen:
                    stamp[v] = gen
                elif c >= best[v] - 1e-12:
                    continue
                best[v] = c
                parent[v] = u
                parent_seg[v] = s
                if c > tbest or (c == tbest and v > target):
                    continue  # would pop after the target: dead entry
                if v == target:
                    tbest = c
                    tlim = c + 1e-9
                else:
                    dx = x - tx
                    dy = y - ty
                    h = (dx if dx >= 0 else -dx) + (dy if dy >= 0 else -dy)
                    if c + h * hstep > tlim:
                        continue  # cannot reach the target within tbest
                push(heap, (c, v))
                pushes += 1
    else:
        while heap:
            _f, u, g = pop(heap)
            pops += 1
            if g > best[u]:
                stale += 1
                continue
            if u == target:
                found = True
                break
            for v, s, x, y in adj[u]:
                if x < bx0 or x > bx1 or y < by0 or y > by1:
                    continue
                c = g + (crit + one_minus * cost_arr[s])
                if stamp[v] != gen:
                    stamp[v] = gen
                elif c >= best[v] - 1e-12:
                    continue
                best[v] = c
                parent[v] = u
                parent_seg[v] = s
                dx = x - tx
                dy = y - ty
                f = c + ((dx if dx >= 0 else -dx) + (dy if dy >= 0 else -dy)) * hstep
                if f > tbest or (f == tbest and v > target):
                    continue  # would pop after the target: dead entry
                if v == target:
                    tbest = c
                push(heap, (f, v, c))
                pushes += 1
    state.pops += pops
    state.pushes += pushes
    state.stale += stale
    return found


def _route_net_fast(
    ig: IndexedRoutingGraph,
    state: _SearchState,
    net_id: int,
    source: int,
    sinks: list[int],
    present_factor: float,
    criticality: dict[int, float],
    exact: bool = False,
    old_links: dict[int, tuple[int, int]] | None = None,
) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """Route one net over the indexed graph.

    Returns the segment ids in append order (the reference router's
    walk-back order) and the route tree's links: every tree slot mapped
    to its ``(parent slot, segment id)`` toward ``source`` (the source
    itself to ``(-1, -1)``), as the walk-backs name them.

    ``exact`` disables the congested-regime heuristics (the
    lookahead-keyed heap and bounded windows) so every search replays
    the reference Dijkstra.

    ``old_links`` are the links of the net's just-ripped-up route.  For
    a congested search they supply an *incumbent upper bound*: the old
    source→sink path, re-priced under the current costs in the search's
    own accumulation order, is a feasible solution, so the target's
    final key cannot exceed its cost (plus ``hops * 1e-12`` slack for
    the strict-improvement rule).  Seeding the push gate with that bound
    prunes heap traffic from the first push.  The bound is an exact
    optimization whenever the old path lies inside the search window —
    always true in exact mode (full grid); a heuristic window that clips
    the old path can at worst force the existing full-grid retry, never
    an incorrect route.
    """
    xs, ys = ig.xs, ig.ys
    arch = ig.arch
    grid_x1, grid_y1 = arch.width + 1, arch.height + 1
    tgen = state.tree_gen + 1
    state.tree_gen = tgen
    tstamp = state.tree_stamp
    hops = state.hops
    seg_stamp = state.seg_stamp
    parent, parent_seg = state.parent, state.parent_seg

    tree_nodes = [source]
    tstamp[source] = tgen
    hops[source] = 0
    segments: list[int] = []
    links = {source: (-1, -1)}
    # Tree bounding box, maintained as nodes join.
    bx0 = bx1 = xs[source]
    by0 = by1 = ys[source]

    remaining = sorted(sinks, key=lambda s: (-criticality[s], s))
    for target in remaining:
        if tstamp[target] == tgen:
            continue
        crit = criticality[target]
        tx, ty = xs[target], ys[target]
        wx0 = bx0 if bx0 < tx else tx
        wx1 = bx1 if bx1 > tx else tx
        wy0 = by0 if by0 < ty else ty
        wy1 = by1 if by1 > ty else ty
        # While costs are uniform (no over-use, no history) the window
        # at margin 1 is provably lossless; congested searches may need
        # to detour outside the tree∪target box, so they start wider —
        # and in exact mode they get the whole grid, like the reference.
        uniform = ig.uniform_cost()
        ub = math.inf
        if uniform:
            margin = _UNIFORM_MARGIN
            window = (wx0 - margin, wx1 + margin, wy0 - margin, wy1 + margin)
        else:
            if exact:
                window = (0, grid_x1, 0, grid_y1)
            else:
                margin = _CONGESTED_MARGIN
                window = (wx0 - margin, wx1 + margin, wy0 - margin, wy1 + margin)
            # Congested searches read the priced cost cache;
            # refresh lazily if stale (first congested net of an
            # iteration, or a mid-iteration uniform→congested flip).
            if ig.seg_cost is None or ig._cost_pres != present_factor:
                ig.refresh_costs(present_factor)
            if old_links is not None and target in old_links:
                # Incumbent bound: re-price the old source→sink path in
                # the search's own accumulation order (docstring above).
                path_segs: list[int] = []
                cursor = target
                while cursor != source:
                    cursor, s = old_links[cursor]
                    path_segs.append(s)
                cost_arr = ig.seg_cost
                one_minus = 1.0 - crit
                bound = 0.0
                for s in reversed(path_segs):
                    bound += crit + one_minus * cost_arr[s]
                ub = bound + len(path_segs) * 1e-12
        found = _search_to_target(
            ig, state, tree_nodes, target, crit,
            window, uniform, exact, ub,
        )
        if not found and window != (0, grid_x1, 0, grid_y1):
            # Safety net: grow to the full grid (heuristic windows can
            # need it when the incumbent bound clips a detour; uniform
            # searches never do — the grid is connected, costs finite).
            state.retries += 1
            found = _search_to_target(
                ig, state, tree_nodes, target, crit,
                (0, grid_x1, 0, grid_y1), uniform, exact, ub,
            )
        if not found:
            break  # disconnected graph (cannot happen on grids)
        cursor = target
        path = [cursor]
        while tstamp[cursor] != tgen:
            s = parent_seg[cursor]
            if seg_stamp[s] != tgen:
                seg_stamp[s] = tgen
                segments.append(s)
            up = parent[cursor]
            links[cursor] = (up, s)
            cursor = up
            path.append(cursor)
        # ``cursor`` is the attachment point; fill hop distances forward.
        base = hops[cursor]
        offset = len(path) - 1
        for node in path:
            if tstamp[node] != tgen:
                tstamp[node] = tgen
                hops[node] = base + offset
                tree_nodes.append(node)
                x, y = xs[node], ys[node]
                if x < bx0:
                    bx0 = x
                elif x > bx1:
                    bx1 = x
                if y < by0:
                    by0 = y
                elif y > by1:
                    by1 = y
            offset -= 1
    return segments, links


def _ripup_targets(ig: IndexedRoutingGraph, items, routes: dict[int, list[int]]):
    """Nets whose current route crosses an over-used segment."""
    flags = ig.overuse_flags()
    return [item for item in items if any(flags[s] for s in routes[item[0]])]


def _build_net_route(
    ig: IndexedRoutingGraph,
    net_id: int,
    source: Slot,
    sinks: list[Slot],
    seg_ids: list[int],
) -> NetRoute:
    seg_slots = ig.seg_slots
    route = NetRoute(
        net_id=net_id,
        source=source,
        segments=[seg_slots[s] for s in seg_ids],
    )
    route.sink_hops = _tree_hops(route, source, set(sinks))
    return route


def _route_design_fast(
    arch: FpgaArch,
    nets: list[tuple[int, Slot, list[Slot], dict[Slot, float]]],
    channel_width: float,
    max_iterations: int,
    present_factor: float,
    present_growth: float,
    exact: bool = False,
) -> RoutingResult:
    ig = IndexedRoutingGraph(arch, channel_width)
    state = _SearchState(ig.num_slots, ig.num_segments)
    index = ig.slot_index
    items = [
        (
            net_id,
            index[source],
            [index[s] for s in sinks],
            {index[s]: c for s, c in crits.items()},
        )
        for net_id, source, sinks, crits in nets
    ]

    seg_routes: dict[int, list[int]] = {}
    tree_links: dict[int, dict[int, tuple[int, int]]] = {}
    routed = 0
    ripped = 0
    pres = present_factor
    iterations = 0
    prev_overuse = None
    full_reroute = True
    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        if full_reroute:
            targets = items
            if iteration > 1:
                ripped += len(targets)
        else:
            # Incremental negotiation: rip up and re-route only nets
            # crossing an over-used segment; every other tree is reused.
            targets = _ripup_targets(ig, items, seg_routes)
            ripped += len(targets)
        with PERF.timer("route.negotiate"):
            if not ig.uniform_cost():
                ig.refresh_costs(pres)
            for net_id, src, sink_ids, crit_ids in targets:
                old = seg_routes.get(net_id)
                if old is not None:
                    for s in old:
                        ig.release(s)
                segs, tree_links[net_id] = _route_net_fast(
                    ig, state, net_id, src, sink_ids, pres, crit_ids,
                    exact, tree_links.get(net_id),
                )
                seg_routes[net_id] = segs
                routed += 1
                for s in segs:
                    ig.occupy(s)
        overuse = ig.total_overuse()
        if overuse == 0:
            break
        # Incremental rip-up is the normal schedule; when over-use stops
        # strictly improving, negotiation has wedged on the reduced
        # move set, so the next iteration re-routes everything (the
        # reference schedule) to let congestion-free nets shift too.
        full_reroute = exact or (
            prev_overuse is not None and overuse >= prev_overuse
        )
        prev_overuse = overuse
        ig.accrue_history()
        pres *= present_growth

    if ig.total_overuse() != 0 and not exact:
        # The heuristic schedule wedged; replay the reference schedule
        # exactly before conceding the width (see module docstring).
        if PERF.enabled:
            PERF.add("route.nets_routed", routed)
            PERF.add("route.nets_ripped", ripped)
            PERF.add("route.search_pops", state.pops)
            PERF.add("route.search_pushes", state.pushes)
            PERF.add("route.search_stale", state.stale)
            PERF.add("route.bbox_retries", state.retries)
            PERF.add("route.iterations", iterations)
            PERF.add("route.exact_fallbacks", 1)
        return _route_design_fast(
            arch, nets, channel_width,
            max_iterations, present_factor, present_growth, exact=True,
        )

    routes = {
        net_id: _build_net_route(ig, net_id, source, sinks, seg_routes[net_id])
        for net_id, source, sinks, _crits in nets
    }
    if PERF.enabled:
        PERF.add("route.nets_routed", routed)
        PERF.add("route.nets_ripped", ripped)
        PERF.add("route.search_pops", state.pops)
        PERF.add("route.search_pushes", state.pushes)
        PERF.add("route.search_stale", state.stale)
        PERF.add("route.bbox_retries", state.retries)
        PERF.add("route.iterations", iterations)
    success = ig.total_overuse() == 0
    return RoutingResult(
        success=success,
        iterations=iterations,
        channel_width=channel_width,
        routes=routes,
        total_wirelength=ig.total_wirelength(),
        remaining_overuse=ig.total_overuse(),
    )
