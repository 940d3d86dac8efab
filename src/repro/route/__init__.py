"""Routing substrate: grid routing graph, PathFinder, evaluation metrics."""

from repro.route.metrics import (
    RoutedTiming,
    find_min_channel_width,
    route_infinite,
    route_low_stress,
    routed_critical_delay,
)
from repro.route.pathfinder import NetRoute, RoutingResult, route_design
from repro.route.rrgraph import IndexedRoutingGraph, Segment
from repro.route.wmin import demand_lower_bound

__all__ = [
    "IndexedRoutingGraph",
    "NetRoute",
    "RoutedTiming",
    "RoutingResult",
    "Segment",
    "demand_lower_bound",
    "find_min_channel_width",
    "route_design",
    "route_infinite",
    "route_low_stress",
    "routed_critical_delay",
]
