"""Flow behaviour at 100% density (the paper's early-termination case).

Section VII-B: "for circuits ex5p, apex4, seq, spla, and ex1010, we ran
out of free slots for replication and thus had to terminate early".
With zero free logic slots, replication is impossible: the flow may only
relocate-within-equivalents, must stay legal, and must terminate rather
than spin.
"""

import pytest

from repro import FpgaArch, ReplicationConfig, analyze
from repro.arch import LinearDelayModel
from repro.bench.families import comb_tree
from repro.core.flow import optimize_replication
from repro.netlist import check_equivalence, validate_netlist
from repro.place import Placement

SIMPLE = LinearDelayModel(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def fully_dense_instance():
    """comb_tree(3) has 7 LUTs: place on a 7-slot-free... no — a grid
    exactly the size of the logic (zero free slots)."""
    netlist = comb_tree(3)  # 7 LUTs
    arch = FpgaArch(3, 3, delay_model=SIMPLE)  # 9 slots
    # Fill the two spare slots with extra logic so density is 100%.
    extra_in = netlist.add_input("xin")
    for i in range(2):
        lut = netlist.add_lut(f"fill{i}", 1, 0b01)
        netlist.connect(extra_in, lut, 0)
        netlist.connect(lut, netlist.add_output(f"xout{i}"), 0)
    placement = Placement(arch)
    pads = iter(arch.pad_slots())
    for pad in netlist.primary_inputs() + netlist.primary_outputs():
        placement.place(pad, next(pads))
    for cell, slot in zip(netlist.luts(), arch.logic_slots()):
        placement.place(cell, slot)
    return netlist, placement


class TestDenseTermination:
    def test_flow_terminates_and_stays_legal(self):
        netlist, placement = fully_dense_instance()
        assert placement.free_logic_slots() == []
        reference = netlist.clone()
        before = analyze(netlist, placement).critical_delay
        result = optimize_replication(
            netlist, placement, ReplicationConfig(max_iterations=12, patience=3)
        )
        assert placement.is_legal()
        assert result.final_delay <= before + 1e-9
        assert check_equivalence(reference, netlist)
        validate_netlist(netlist)

    def test_no_net_replication_possible(self):
        netlist, placement = fully_dense_instance()
        cells_before = netlist.num_cells
        optimize_replication(
            netlist, placement, ReplicationConfig(max_iterations=12, patience=3)
        )
        # With zero free slots every extra copy must have been unified
        # away again (or never created).
        assert netlist.num_cells <= cells_before
        assert placement.is_legal()
