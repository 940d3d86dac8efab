"""W_min search: a cold scan up from the demand lower bound.

Section VII's evaluation protocol needs ``W_min`` — the smallest channel
width the router can legally route — for every circuit.  The reference
protocol gallops cold ``route_design`` probes up from width 1 (1, 2,
4, ...) and bisects the last gap; it is kept as a parity oracle in
``tests/route/oracle.py``.  :func:`find_min_channel_width` returns its
width with fewer probes:

1. **The bound is a certificate.**  :func:`demand_lower_bound` proves
   every width below it unroutable for *any* router: a slot whose ``k``
   incident nets must share its ``deg`` adjacent channels forces
   ``w >= ceil(k / deg)``, and a grid cut that ``c`` nets must cross on
   ``s`` crossing segments forces ``w >= ceil(c / s)``.  No width below
   the bound is probed; the certificate answers for it.

2. **The scan.**  From the bound upward, each width gets one cold probe
   — the router call ``route_design`` makes, with its default
   negotiation constants, on the net list built once per search — and
   the first width that routes is returned.  Each verdict therefore
   equals ``route_design(netlist, placement, width, max_iterations)
   .success``.  The scan shares one assumption with the reference
   bisection: routability is monotone in width (if ``w`` routes, so
   does every wider width).  Under it both return the same boundary.
   When the bound itself routes, one probe decides the search.

3. **The kept raise.**  The reference gallop probes powers of two only,
   so it raises when ``W_min`` exceeds the largest power of two
   ``<= max_width`` (:func:`_gallop_ceiling`), even when ``W_min`` itself
   is ``<= max_width``.  The scan stops at the same ceiling and raises
   the same ``RuntimeError``.  At the default ``max_width`` of 128 the
   ceiling is ``max_width`` itself.

Every probe runs in the caller's process.  With ``repro.perf`` enabled
a search counts ``route.wmin.searches`` once and ``route.wmin.cold_probes``
once per probe, and runs as one ``route.wmin`` span.
"""

from __future__ import annotations

import math

from repro.arch.fpga import Slot
from repro.netlist.netlist import Netlist
from repro.perf import PERF
from repro.place.placement import Placement
from repro.route.pathfinder import _routable_nets, _route_design_fast
from repro.route.rrgraph import IndexedRoutingGraph

#: Negotiation constants — ``route_design``'s defaults, so every probe
#: is the call the reference protocol makes at that width.
_PRESENT_FACTOR = 0.5
_PRESENT_GROWTH = 1.6

#: Net tuples as produced by ``pathfinder._routable_nets``.
NetItem = tuple[int, Slot, list[Slot], dict[Slot, float]]


def _gallop_ceiling(max_width: int) -> int:
    """Largest width the reference gallop ever probes (its raise line)."""
    high = 1
    while high * 2 <= max_width:
        high *= 2
    return high


def demand_lower_bound(ig: IndexedRoutingGraph, nets: list[NetItem]) -> int:
    """Provable lower bound on any legal channel width.

    Certificates (each valid for *any* router, including every probe the
    reference protocol makes, so skipping widths below the bound never
    changes a verdict):

    * **terminal incidence** — a net's route tree is connected and
      non-empty, so it uses at least one of the ``deg(t)`` channel
      segments incident to each of its terminal slots ``t``; ``k``
      distinct nets with a terminal on ``t`` therefore need
      ``w >= ceil(k / deg(t))``.
    * **bisection cuts** — a net whose terminals straddle the vertical
      cut between columns ``x`` and ``x + 1`` must cross one of that
      cut's segments (one per row), so ``c`` straddling nets on ``s``
      crossing segments need ``w >= ceil(c / s)``; likewise for
      horizontal cuts.
    """
    index = ig.slot_index
    grid_x = ig.arch.width + 1
    grid_y = ig.arch.height + 1
    counts = [0] * ig.num_slots
    vdiff = [0] * (grid_x + 2)
    hdiff = [0] * (grid_y + 2)
    for _net_id, source, sinks, _crits in nets:
        terminals = {index[source]}
        terminals.update(index[s] for s in sinks)
        min_x = min_y = math.inf
        max_x = max_y = -math.inf
        for t in terminals:
            counts[t] += 1
            x, y = ig.xs[t], ig.ys[t]
            if x < min_x:
                min_x = x
            if x > max_x:
                max_x = x
            if y < min_y:
                min_y = y
            if y > max_y:
                max_y = y
        if max_x > min_x:  # crosses every vertical cut in [min_x, max_x - 1]
            vdiff[min_x] += 1
            vdiff[max_x] -= 1
        if max_y > min_y:
            hdiff[min_y] += 1
            hdiff[max_y] -= 1

    bound = 1
    nbr_ptr = ig.nbr_ptr
    for i, k in enumerate(counts):
        if k:
            degree = nbr_ptr[i + 1] - nbr_ptr[i]
            if degree:
                need = -(-k // degree)
                if need > bound:
                    bound = need

    vcap = [0] * (grid_x + 2)
    hcap = [0] * (grid_y + 2)
    for a, b in ig.seg_slots:
        if a[0] != b[0]:  # horizontal segment crosses the cut at x = a[0]
            vcap[a[0]] += 1
        else:  # vertical segment crosses the cut at y = a[1]
            hcap[a[1]] += 1
    for diff, cap, limit in ((vdiff, vcap, grid_x), (hdiff, hcap, grid_y)):
        crossing = 0
        for cut in range(limit + 1):
            crossing += diff[cut]
            if crossing and cap[cut]:
                need = -(-crossing // cap[cut])
                if need > bound:
                    bound = need
    return bound


def find_min_channel_width(
    netlist: Netlist,
    placement: Placement,
    max_width: int = 128,
    max_iterations: int = 16,
) -> int:
    """Smallest routable channel width, per the reference probe protocol.

    Scans cold probes up from :func:`demand_lower_bound` and returns the
    first width that routes; raises ``RuntimeError`` when none up to the
    reference gallop's ceiling does (see the module docstring).
    """
    with PERF.timer("route.wmin"):
        arch = placement.arch
        nets = _routable_nets(netlist, placement, True)
        bound = demand_lower_bound(IndexedRoutingGraph(arch, math.inf), nets)
        if PERF.enabled:
            PERF.add("route.wmin.searches")
        for width in range(bound, _gallop_ceiling(max_width) + 1):
            if PERF.enabled:
                PERF.add("route.wmin.cold_probes")
            routed = _route_design_fast(
                arch, nets, width, max_iterations,
                _PRESENT_FACTOR, _PRESENT_GROWTH,
            )
            if routed.success:
                return width
        raise RuntimeError(f"unroutable even at channel width {max_width}")
