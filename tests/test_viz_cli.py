"""Tests for visualization, placement serialization and the CLI."""

import pytest

from repro import FpgaArch, analyze, place_timing_driven
from repro.arch import LinearDelayModel
from repro.bench.families import chain, comb_tree
from repro.cli import main as cli_main
from repro.place import Placement
from repro.place.serialize import placement_from_json, placement_to_json
from repro.viz import render_critical_path, render_history, render_placement, render_trade_off
from tests.conftest import diamond_netlist, place_in_row

SIMPLE = LinearDelayModel(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)


class TestRenderPlacement:
    def test_grid_dimensions(self):
        nl = diamond_netlist()
        arch = FpgaArch(5, 5, delay_model=SIMPLE)
        placement = place_in_row(nl, arch)
        text = render_placement(nl, placement)
        rows = text.splitlines()[:-1]  # drop the legend
        assert len(rows) == arch.height + 2
        assert all(len(row) == arch.width + 2 for row in rows)

    def test_occupancy_and_overfull_glyphs(self):
        nl = diamond_netlist()
        arch = FpgaArch(5, 5, delay_model=SIMPLE)
        placement = place_in_row(nl, arch)
        top = nl.cell_by_name("top")
        join = nl.cell_by_name("join")
        placement.place(top, (3, 3))
        placement.place(join, (3, 3))  # overfull (capacity 1)
        text = render_placement(nl, placement)
        assert "#" in text
        assert "1" in text

    def test_highlight_marks_path(self):
        nl = diamond_netlist()
        arch = FpgaArch(5, 5, delay_model=SIMPLE)
        placement = place_in_row(nl, arch)
        top = nl.cell_by_name("top")
        text = render_placement(nl, placement, highlight=[top.cell_id])
        assert "*" in text


class TestRenderOthers:
    def test_critical_path_listing(self):
        nl = diamond_netlist()
        arch = FpgaArch(5, 5, delay_model=SIMPLE)
        placement = place_in_row(nl, arch)
        analysis = analyze(nl, placement)
        text = render_critical_path(nl, placement, analysis)
        assert "critical path" in text
        for cid in analysis.critical_path():
            assert nl.cells[cid].name in text

    def test_trade_off_rendering(self):
        from repro.core import FaninTreeEmbedder, GridEmbeddingGraph
        from repro.core.topology import FaninTree

        arch = FpgaArch(5, 5, delay_model=SIMPLE)
        graph = GridEmbeddingGraph(arch, include_pads=False)
        tree = FaninTree()
        leaf = tree.add_leaf(graph.vertex_at((1, 1)), arrival=0.0)
        gate = tree.add_internal([leaf], gate_delay=1.0)
        tree.set_root(gate, vertex=graph.vertex_at((5, 5)))
        result = FaninTreeEmbedder(graph).embed(tree)
        text = render_trade_off(result)
        assert "trade-off" in text

    def test_history_rendering(self):
        from repro import ReplicationConfig
        from repro.core.flow import optimize_replication
        from tests.core.test_flow import staircase_instance

        nl, placement = staircase_instance()
        result = optimize_replication(nl, placement, ReplicationConfig(max_iterations=4))
        text = render_history(result.history)
        assert "iter" in text
        assert render_history([]) == "(no iterations)"


class TestPlacementSerialization:
    def test_round_trip(self):
        nl = diamond_netlist()
        arch = FpgaArch(5, 5, delay_model=SIMPLE)
        placement = place_in_row(nl, arch)
        text = placement_to_json(nl, placement)
        restored = placement_from_json(nl, text, arch=arch)
        for cid in placement.placed_cells():
            assert restored.slot_of(cid) == placement.slot_of(cid)

    def test_arch_reconstructed(self):
        nl = diamond_netlist()
        arch = FpgaArch(6, 6, clb_capacity=2)
        placement = place_in_row(nl, arch)
        restored = placement_from_json(nl, placement_to_json(nl, placement))
        assert restored.arch.width == 6
        assert restored.arch.clb_capacity == 2

    def test_unknown_cell_rejected(self):
        nl = diamond_netlist()
        arch = FpgaArch(5, 5)
        placement = place_in_row(nl, arch)
        text = placement_to_json(nl, placement)
        other = chain(3)
        with pytest.raises(ValueError):
            placement_from_json(other, text)

    def test_bad_version_rejected(self):
        nl = diamond_netlist()
        with pytest.raises(ValueError):
            placement_from_json(nl, '{"version": 99, "cells": {}}')


class TestCli:
    def test_suite_circuit_flow(self, capsys, tmp_path):
        out_blif = tmp_path / "out.blif"
        out_place = tmp_path / "out.place.json"
        code = cli_main([
            "run", "--circuit", "tseng", "--scale", "0.04", "--effort", "0.2",
            "--place-effort", "0.15",
            "--out-blif", str(out_blif), "--out-placement", str(out_place),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "replication" in output
        assert out_blif.exists()
        assert out_place.exists()

    def test_blif_input_and_reload(self, capsys, tmp_path):
        from repro.netlist.blif import write_blif

        design = tmp_path / "design.blif"
        design.write_text(write_blif(comb_tree(2)))
        place_file = tmp_path / "p.json"
        code = cli_main([
            "run", "--blif", str(design), "--algorithm", "none",
            "--place-effort", "0.15", "--out-placement", str(place_file),
        ])
        assert code == 0
        # Second run: reuse the placement, draw the grid, and route.
        code = cli_main([
            "run", "--blif", str(design), "--algorithm", "none",
            "--in-placement", str(place_file), "--draw", "--route",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "W_inf" in output


class TestFamilies:
    @pytest.mark.parametrize("seed", range(6))
    def test_families_valid_and_placeable(self, seed):
        from repro.bench.families import random_family_instance
        from repro.netlist import validate_netlist
        from repro.place import random_placement

        netlist = random_family_instance(seed)
        validate_netlist(netlist)
        arch = FpgaArch.min_square_for(netlist.num_logic_blocks, netlist.num_pads)
        placement = random_placement(netlist, arch, seed=seed)
        assert analyze(netlist, placement).critical_delay > 0

    def test_butterfly_is_maximally_reconvergent(self):
        from repro.bench.families import butterfly

        netlist = butterfly(3)
        # Every internal LUT has fanout 2 (feeds two next-stage nodes)...
        fanouts = [netlist.fanout_count(c) for c in netlist.luts()]
        assert max(fanouts) >= 2

    def test_shift_register_paths_are_register_bounded(self):
        from repro.bench.families import shift_register

        netlist = shift_register(4)
        assert netlist.num_ffs == 4
