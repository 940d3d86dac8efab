"""Quickstart: place a circuit, run placement-coupled replication, route.

Builds a suite circuit (calibrated to the MCNC design ``seq``), places
it with the timing-driven annealer, runs the paper's replication flow,
and reports placement-level and post-route critical delays.

Run:  python examples/quickstart.py [scale]
"""

import sys

from repro import (
    ReplicationConfig,
    analyze,
    place_timing_driven,
    route_infinite,
    routed_critical_delay,
    total_wirelength,
    validate_netlist,
)
from repro.bench import suite_circuit
from repro.core.flow import optimize_replication


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    netlist, arch = suite_circuit("seq", scale=scale)
    print(f"circuit: {netlist.name} — {netlist.num_logic_blocks} logic blocks, "
          f"{netlist.num_pads} pads on a {arch} FPGA")

    placement, stats = place_timing_driven(netlist, arch, seed=1, inner_scale=0.3)
    before = analyze(netlist, placement)
    print(f"timing-driven placement: critical delay {before.critical_delay:.2f} ns "
          f"({stats.moves_accepted} accepted moves)")
    wire_before = total_wirelength(netlist, placement)

    result = optimize_replication(netlist, placement, ReplicationConfig())
    validate_netlist(netlist)
    print(
        f"replication flow: {result.final_delay:.2f} ns "
        f"({result.improvement:.1%} faster, {result.total_replicated} replicated, "
        f"{result.total_unified} unified, {len(result.history)} iterations)"
    )
    wire_after = total_wirelength(netlist, placement)
    print(f"estimated wirelength: {wire_before:.0f} -> {wire_after:.0f}")

    routing = route_infinite(netlist, placement)
    timing = routed_critical_delay(netlist, placement, routing)
    print(
        f"post-route (infinite resources): {timing.critical_delay:.2f} ns, "
        f"{timing.wirelength} routed segments"
    )


if __name__ == "__main__":
    main()
