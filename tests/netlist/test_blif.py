"""Tests for BLIF serialization round-trips."""

import pytest

from repro.bench.generator import CircuitSpec, generate_circuit
from repro.netlist import check_equivalence, validate_netlist
from repro.netlist.blif import read_blif, write_blif
from repro.netlist.netlist import NetlistError
from tests.conftest import chain_netlist, diamond_netlist, sequential_netlist


class TestRoundTrip:
    @pytest.mark.parametrize(
        "make",
        [chain_netlist, diamond_netlist, sequential_netlist],
        ids=["chain", "diamond", "sequential"],
    )
    def test_functional_round_trip(self, make):
        original = make()
        text = write_blif(original)
        parsed = read_blif(text)
        validate_netlist(parsed)
        assert check_equivalence(original, parsed)

    def test_generated_circuit_round_trip(self):
        spec = CircuitSpec("blif", luts=30, inputs=6, outputs=5,
                           ff_fraction=0.2, depth=5)
        original = generate_circuit(spec)
        parsed = read_blif(write_blif(original))
        validate_netlist(parsed)
        assert check_equivalence(original, parsed, cycles=16, trials=2)

    def test_io_names_preserved(self):
        original = diamond_netlist()
        parsed = read_blif(write_blif(original))
        assert sorted(c.name for c in parsed.primary_inputs()) == sorted(
            c.name for c in original.primary_inputs()
        )
        assert sorted(c.name for c in parsed.primary_outputs()) == sorted(
            c.name for c in original.primary_outputs()
        )

    def test_latch_round_trip(self):
        original = sequential_netlist()
        parsed = read_blif(write_blif(original))
        assert parsed.num_ffs == original.num_ffs


class TestFormat:
    def test_header_sections(self):
        text = write_blif(diamond_netlist())
        assert text.startswith(".model")
        assert ".inputs" in text
        assert ".outputs" in text
        assert text.rstrip().endswith(".end")

    def test_dont_care_rows_parse(self):
        text = """
.model dc
.inputs a b
.outputs y
.names a b y
1- 1
-1 1
.end
"""
        netlist = read_blif(text)
        lut = netlist.luts()[0]
        # OR function: 0b1110 over minterms (a=bit0, b=bit1).
        assert lut.truth_table == 0b1110

    @pytest.mark.parametrize("text", ["", "garbage\n", ".model x\n.end\n"])
    def test_no_cells_is_an_error(self, text):
        with pytest.raises(NetlistError, match="has no cells"):
            read_blif(text)
"""Parsing notes: cover rows use '-' as don't-care, one output column."""
