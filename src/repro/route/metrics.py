"""Post-route evaluation: W_min search, low-stress routing, routed STA.

Section VII's protocol, after [18]:

* ``W_min`` — the smallest channel width the router can legally route;
* **low-stress** routing — "the FPGA has about 20% more routing
  resources available than the minimum required" (``W_ls``);
* **infinite-resource** routing — unbounded tracks (``W∞``), "a good
  placement evaluation metric";
* post-route critical path from actual route-tree hop distances.

Every routing call runs in the caller's process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.netlist.netlist import Netlist
from repro.perf import PERF
from repro.place.placement import Placement
from repro.route.pathfinder import RoutingResult, route_design
from repro.route.wmin import find_min_channel_width_fast


@dataclass
class RoutedTiming:
    """Critical path measured on actual routes."""

    critical_delay: float
    wirelength: int


def find_min_channel_width(
    netlist: Netlist,
    placement: Placement,
    max_width: int = 128,
    max_iterations: int = 16,
    start_width: int | None = None,
) -> int:
    """Smallest routable channel width, per the reference probe protocol.

    Runs the warm-started, bound-pruned search in
    :mod:`repro.route.wmin`; ``start_width`` seeds the search with a
    prior result (e.g. this circuit's width from an earlier run)
    without affecting the returned width.
    """
    with PERF.timer("route.wmin"):
        return find_min_channel_width_fast(
            netlist,
            placement,
            max_width=max_width,
            max_iterations=max_iterations,
            start_width=start_width,
        )


def route_low_stress(
    netlist: Netlist,
    placement: Placement,
    min_width: int | None = None,
    stress_margin: float = 0.2,
    start_width: int | None = None,
) -> RoutingResult:
    """Route with ~20% spare tracks over the minimum ([18]'s low stress)."""
    if min_width is None:
        min_width = find_min_channel_width(
            netlist, placement, start_width=start_width
        )
    width = max(min_width + 1, math.ceil(min_width * (1.0 + stress_margin)))
    with PERF.timer("route.lowstress"):
        return route_design(netlist, placement, width)


def route_infinite(netlist: Netlist, placement: Placement) -> RoutingResult:
    """Route with unbounded resources (every net on a shortest tree)."""
    with PERF.timer("route.winf"):
        return route_design(netlist, placement, math.inf, max_iterations=1)


def routed_critical_delay(
    netlist: Netlist,
    placement: Placement,
    routing: RoutingResult,
) -> RoutedTiming:
    """STA where each connection's delay comes from its actual route.

    A connection's interconnect delay is its route-tree hop count times
    the per-unit wire delay, plus the fixed switch overhead (zero for
    co-located cells), mirroring the placement-level estimator but on
    real (possibly detoured) routes.
    """
    model = placement.arch.delay_model

    def connection_delay(driver: int, sink: int, net_id: int) -> float:
        src = placement.slot_of(driver)
        dst = placement.slot_of(sink)
        if src == dst:
            return 0.0
        route = routing.routes.get(net_id)
        hops = None
        if route is not None:
            hops = route.sink_hops.get(dst)
        if hops is None:
            hops = placement.arch.distance(src, dst)  # unrouted fallback
        return model.connection_delay + model.wire_delay_per_unit * hops

    arrival: dict[int, float] = {}
    critical = 0.0
    for cid in netlist.combinational_order():
        cell = netlist.cells[cid]
        if cell.is_timing_start:
            arrival[cid] = model.launch_delay(cell.is_ff)
        if cell.is_lut:
            best = 0.0
            for net_id in cell.inputs:
                if net_id is None:
                    continue
                driver = netlist.nets[net_id].driver
                assert driver is not None
                best = max(best, arrival[driver] + connection_delay(driver, cid, net_id))
            arrival[cid] = best + model.cell_delay(True)
    for cell in netlist.cells.values():
        if not cell.is_timing_end or not cell.inputs:
            continue
        net_id = cell.inputs[0]
        if net_id is None:
            continue
        driver = netlist.nets[net_id].driver
        assert driver is not None
        path = (
            arrival[driver]
            + connection_delay(driver, cell.cell_id, net_id)
            + model.capture_delay(cell.is_ff)
        )
        critical = max(critical, path)
    return RoutedTiming(critical_delay=critical, wirelength=routing.total_wirelength)
