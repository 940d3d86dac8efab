"""Tests for the SA placer (wirelength- and timing-driven)."""

import pytest

from repro.arch import FpgaArch
from repro.netlist import Netlist
from repro.perf import PERF
from repro.place import (
    place_timing_driven,
    place_wirelength_driven,
    random_placement,
    total_wirelength,
)
from repro.timing import analyze
from tests.conftest import diamond_netlist


def ladder_netlist(width: int = 4, depth: int = 4) -> Netlist:
    """A small mesh of 2-input LUTs: width parallel chains with coupling."""
    nl = Netlist("ladder")
    prev = [nl.add_input(f"i{k}") for k in range(width)]
    for level in range(depth):
        row = []
        for k in range(width):
            g = nl.add_lut(f"g{level}_{k}", 2, 0b0110)
            nl.connect(prev[k], g, 0)
            nl.connect(prev[(k + 1) % width], g, 1)
            row.append(g)
        prev = row
    for k in range(width):
        out = nl.add_output(f"o{k}")
        nl.connect(prev[k], out, 0)
    return nl


class TestRandomPlacement:
    def test_complete_and_legal(self):
        nl = ladder_netlist()
        arch = FpgaArch(6, 6)
        p = random_placement(nl, arch, seed=3)
        p.assert_complete(nl)
        assert p.is_legal()

    def test_deterministic(self):
        nl = ladder_netlist()
        arch = FpgaArch(6, 6)
        p1 = random_placement(nl, arch, seed=5)
        p2 = random_placement(nl, arch, seed=5)
        assert all(p1.slot_of(c) == p2.slot_of(c) for c in nl.cells)

    def test_capacity_respected(self):
        nl = ladder_netlist()
        arch = FpgaArch(6, 6)
        with pytest.raises(Exception):
            random_placement(nl, FpgaArch(1, 1), seed=0)
        assert random_placement(nl, arch, seed=0).is_legal()


class TestAnnealing:
    def test_wirelength_improves_over_random(self):
        nl = ladder_netlist()
        arch = FpgaArch(6, 6)
        before = total_wirelength(nl, random_placement(nl, arch, seed=11))
        placement, stats = place_wirelength_driven(nl, arch, seed=11, inner_scale=0.4)
        after = total_wirelength(nl, placement)
        assert after < before
        assert stats.moves_accepted > 0
        assert placement.is_legal()

    def test_timing_driven_improves_delay(self):
        nl = ladder_netlist()
        arch = FpgaArch(6, 6)
        random_delay = analyze(nl, random_placement(nl, arch, seed=23)).critical_delay
        placement, _stats = place_timing_driven(nl, arch, seed=23, inner_scale=0.4)
        assert analyze(nl, placement).critical_delay < random_delay

    def test_deterministic_runs(self):
        nl = diamond_netlist()
        arch = FpgaArch(4, 4)
        p1, _ = place_timing_driven(nl, arch, seed=7, inner_scale=0.3)
        p2, _ = place_timing_driven(nl, arch, seed=7, inner_scale=0.3)
        assert all(p1.slot_of(c) == p2.slot_of(c) for c in nl.cells)

    def test_result_is_legal_and_complete(self):
        nl = ladder_netlist(width=3, depth=3)
        arch = FpgaArch(5, 5)
        placement, _ = place_timing_driven(nl, arch, seed=1, inner_scale=0.3)
        placement.assert_complete(nl)
        assert placement.is_legal()


class TestPlaceSpan:
    def test_place_span_holds_the_placer_sta(self):
        """``place`` opens once per placement; the full STA refreshes sit
        inside it, so its self time is the anneal."""
        PERF.reset()
        PERF.enable()
        try:
            place_timing_driven(ladder_netlist(), FpgaArch(6, 6), seed=1,
                                inner_scale=0.2)
        finally:
            PERF.disable()
        timers = PERF.snapshot()["timers"]
        PERF.reset()
        place = timers["place"]
        assert place["calls"] == 1
        assert 0 < place["self_s"] < place["inclusive_s"]
        assert place["inclusive_s"] - place["self_s"] == pytest.approx(
            timers["sta.analyze"]["inclusive_s"], abs=1e-9
        )
