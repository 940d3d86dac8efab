"""Flow behaviour on multi-LUT CLBs (Section II-A's hierarchical FPGAs).

With ``clb_capacity > 1`` some gate "overlap" is legitimate sharing of a
CLB; the embedder's cohabitation budget, the placement container and the
legalizer must all honour the larger capacity.
"""

import pytest

from repro import FpgaArch, ReplicationConfig, analyze
from repro.arch import LinearDelayModel
from repro.bench.families import comb_tree
from repro.core.flow import optimize_replication
from repro.netlist import check_equivalence, validate_netlist
from repro.place import Placement, random_placement

SIMPLE = LinearDelayModel(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)


class TestCapacityTwo:
    def arch(self, side=4):
        return FpgaArch(side, side, clb_capacity=2, delay_model=SIMPLE)

    def test_two_cells_per_slot_is_legal(self):
        netlist = comb_tree(2)
        arch = self.arch()
        placement = Placement(arch)
        luts = netlist.luts()
        pads = iter(arch.pad_slots())
        for pad in netlist.primary_inputs() + netlist.primary_outputs():
            placement.place(pad, next(pads))
        for index, cell in enumerate(luts):
            placement.place(cell, (1 + index // 4, 1 + (index % 4) // 2))
        assert placement.is_legal()  # pairs share slots legally
        assert max(placement.occupancy(s) for s in arch.logic_slots()) == 2

    def test_colocated_cells_have_zero_wire_delay(self):
        netlist = comb_tree(2)
        arch = self.arch()
        placement = random_placement(netlist, arch, seed=0)
        first, second = netlist.luts()[:2]
        placement.place(first, (2, 2))
        placement.place(second, (2, 2))
        analysis = analyze(netlist, placement)
        assert analysis.connection_delay(first.cell_id, second.cell_id) == 0.0

    def test_flow_respects_capacity(self):
        netlist = comb_tree(3)
        arch = self.arch(side=4)
        placement = random_placement(netlist, arch, seed=4)
        reference = netlist.clone()
        result = optimize_replication(
            netlist, placement, ReplicationConfig(max_iterations=8, patience=3)
        )
        assert placement.is_legal()
        for slot in arch.logic_slots():
            assert placement.occupancy(slot) <= 2
        assert result.final_delay <= result.initial_delay + 1e-9
        assert check_equivalence(reference, netlist)
        validate_netlist(netlist)

    def test_min_square_accounts_for_capacity(self):
        arch = FpgaArch.min_square_for(
            num_logic_blocks=18, num_pads=8, clb_capacity=2
        )
        assert arch.clb_capacity == 2
        assert arch.logic_capacity >= 18
        assert arch.width <= 4  # 3x3x2 = 18 fits exactly

    def test_embedder_cohabitation_budget(self):
        """With capacity 2, one branching child per join is acceptable."""
        from repro.core import EmbedderOptions, FaninTreeEmbedder, GridEmbeddingGraph
        from repro.core.topology import FaninTree

        arch = self.arch(side=5)
        graph = GridEmbeddingGraph(arch, include_pads=False)
        tree = FaninTree()
        leaf = tree.add_leaf(graph.vertex_at((1, 1)), arrival=0.0)
        g1 = tree.add_internal([leaf], gate_delay=1.0)
        g2 = tree.add_internal([g1], gate_delay=1.0)
        tree.set_root(g2, gate_delay=0.0, vertex=graph.vertex_at((5, 5)))
        result = FaninTreeEmbedder(
            graph, options=EmbedderOptions(max_cohabiting_children=1)
        ).embed(tree)
        assert len(result.root_front) >= 1
