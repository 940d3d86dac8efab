"""FF relocation (Section V-D): rebalancing register-bounded paths.

An FF parked at the far end of its corridor makes the launch-side path
short and the capture-side path long; no amount of combinational
replication helps because the FF location is the binding constraint.
When the critical FF sink repeats without improvement, the flow frees
its location (simultaneous sink placement, via the S-Tree property) and
the embedder places it mid-corridor.

Run:  python examples/ff_relocation.py
"""

from repro import (
    FpgaArch,
    Netlist,
    Placement,
    ReplicationConfig,
    analyze,
)
from repro.arch import LinearDelayModel
from repro.core.flow import optimize_replication

MODEL = LinearDelayModel(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def corridor():
    netlist = Netlist("corridor")
    a = netlist.add_input("a")
    g1 = netlist.add_lut("g1", 1, 0b01)
    ff = netlist.add_ff("ff")
    g2 = netlist.add_lut("g2", 1, 0b01)
    out = netlist.add_output("out")
    netlist.connect(a, g1, 0)
    netlist.connect(g1, ff, 0)
    netlist.connect(ff, g2, 0)
    netlist.connect(g2, out, 0)

    arch = FpgaArch(9, 9, delay_model=MODEL)
    placement = Placement(arch)
    placement.place(a, (0, 5))
    placement.place(g1, (3, 5))
    placement.place(ff, (9, 5))  # lopsided: D path long, Q path short
    placement.place(g2, (9, 6))
    placement.place(out, (10, 6))
    return netlist, placement


def paths(netlist, placement):
    analysis = analyze(netlist, placement)
    ff = netlist.cell_by_name("ff")
    out = netlist.cell_by_name("out")
    d_path = analysis.endpoint_arrival[(ff.cell_id, 0)]
    q_path = analysis.endpoint_arrival[(out.cell_id, 0)]
    return d_path, q_path, placement.slot_of(ff.cell_id)


def main() -> None:
    netlist, placement = corridor()
    d0, q0, slot0 = paths(netlist, placement)
    print(f"before: FF at {slot0}   D-path {d0:.1f}   Q-path {q0:.1f}   "
          f"period {max(d0, q0):.1f}")

    result = optimize_replication(
        netlist, placement, ReplicationConfig(allow_ff_relocation=True)
    )
    d1, q1, slot1 = paths(netlist, placement)
    print(f"after:  FF at {slot1}   D-path {d1:.1f}   Q-path {q1:.1f}   "
          f"period {max(d1, q1):.1f}")
    relocations = sum(1 for record in result.history if record.ff_relocated)
    print(f"({relocations} FF-relocation iteration(s); best period "
          f"{result.final_delay:.1f}, {result.improvement:.0%} faster)")


if __name__ == "__main__":
    main()
