"""The paper's motivating scenario (Figs. 1-3): straightening by replication.

Two demonstrations:

1. The staircase of Fig. 3 — a critical chain pulled off its corridor by
   side loads, locally monotone everywhere, so *local* replication
   (Beraudo-Lillis) has no candidates while RT-Embedding straightens it
   to the distance lower bound.
2. Path-monotonicity statistics before/after, the quantity the paper
   uses to argue replication's potential.

Run:  python examples/path_straightening.py
"""

from repro import (
    FpgaArch,
    Netlist,
    Placement,
    ReplicationConfig,
    analyze,
    delay_lower_bound,
)
from repro.arch import LinearDelayModel
from repro.baselines import best_of_runs
from repro.core.flow import optimize_replication
from repro.timing import critical_path_stats

MODEL = LinearDelayModel(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def staircase():
    """s -> g1 -> g2 -> t along row 1; g1/g2 pulled to row 6 by side loads."""
    netlist = Netlist("staircase")
    s = netlist.add_input("s")
    g1 = netlist.add_lut("g1", 1, 0b01)
    g2 = netlist.add_lut("g2", 1, 0b01)
    t = netlist.add_output("t")
    o1 = netlist.add_output("o1")
    o2 = netlist.add_output("o2")
    netlist.connect(s, g1, 0)
    netlist.connect(g1, g2, 0)
    netlist.connect(g2, t, 0)
    netlist.connect(g1, o1, 0)
    netlist.connect(g2, o2, 0)

    arch = FpgaArch(10, 10, delay_model=MODEL)
    placement = Placement(arch)
    placement.place(s, (0, 1))
    placement.place(t, (11, 1))
    placement.place(o1, (3, 11))
    placement.place(o2, (7, 11))
    placement.place(g1, (3, 6))
    placement.place(g2, (7, 6))
    return netlist, placement


def report(tag, netlist, placement):
    analysis = analyze(netlist, placement)
    stats = critical_path_stats(netlist, placement, analysis)
    print(
        f"{tag}: critical {analysis.critical_delay:5.1f}  "
        f"path detour ratio {stats['ratio']:.2f}  "
        f"locally-nonmonotone cells {int(stats['locally_nonmonotone'])}"
    )
    return analysis.critical_delay


def main() -> None:
    netlist, placement = staircase()
    bound = delay_lower_bound(netlist, placement)
    print(f"distance lower bound on the clock period: {bound:.1f}\n")
    report("initial placement   ", netlist, placement)

    # Local replication [1]: no locally non-monotone cells -> stalls.
    local_nl, local_pl = staircase()
    local = best_of_runs(local_nl, local_pl, runs=3, seed=0)
    report("local replication   ", local_nl, local_pl)

    # RT-Embedding: replicates g1/g2 along the corridor.
    rt_nl, rt_pl = staircase()
    result = optimize_replication(rt_nl, rt_pl, ReplicationConfig())
    final = report("RT-Embedding        ", rt_nl, rt_pl)

    print(
        f"\nRT-Embedding replicated {result.total_replicated} cells and "
        f"reached {'the lower bound' if abs(final - bound) < 1e-6 else f'{final:.1f}'}"
    )
    for cell in rt_nl.luts():
        print(f"  {cell.name:>6} at {rt_pl.slot_of(cell.cell_id)}")


if __name__ == "__main__":
    main()
