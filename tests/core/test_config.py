"""Tests pinning paper-specified constants and config plumbing."""

import pytest

from repro import ReplicationConfig
from repro.core.flow import optimize_replication
from repro.core.signatures import LexScheme, MaxArrivalScheme
from repro.netlist import check_equivalence


class TestPaperConstants:
    def test_legalizer_alpha(self):
        """Section V-A: 'the value of α that we used ... was 0.95'."""
        assert ReplicationConfig().legalizer_alpha == pytest.approx(0.95)

    def test_near_critical_fraction(self):
        """Section V-A: timing cost applies 'within 40% in our experiments'."""
        from repro.place.legalizer import TimingDrivenLegalizer
        from repro.netlist import Netlist
        from repro.place import Placement
        from repro.arch import FpgaArch

        legalizer = TimingDrivenLegalizer(Netlist(), Placement(FpgaArch(2, 2)))
        assert legalizer.near_critical_fraction == pytest.approx(0.4)

    def test_default_scheme_is_rt(self):
        assert isinstance(ReplicationConfig().scheme, MaxArrivalScheme)

    def test_overlap_control_defaults_to_legalize_after(self):
        """Section II-A: 'In the experiments, we use the second approach.'"""
        assert ReplicationConfig().max_cohabiting_children is None

    def test_equivalent_discount_is_free(self):
        assert ReplicationConfig().cost_equivalent == 0.0

    def test_unification_defaults_aggressive(self):
        """Section VII-B: 'unification was designed to be very aggressive'."""
        assert ReplicationConfig().aggressive_unification is True


class TestConfigPlumbing:
    def test_overlap_control_flows_through(self):
        from tests.core.test_flow import staircase_instance

        netlist, placement = staircase_instance()
        reference = netlist.clone()
        config = ReplicationConfig(max_cohabiting_children=0, max_iterations=6)
        result = optimize_replication(netlist, placement, config)
        assert result.final_delay <= result.initial_delay + 1e-9
        assert check_equivalence(reference, netlist)

    def test_scheme_override(self):
        from tests.core.test_flow import staircase_instance

        netlist, placement = staircase_instance()
        config = ReplicationConfig(scheme=LexScheme(2), max_iterations=6)
        result = optimize_replication(netlist, placement, config)
        assert result.final_delay <= result.initial_delay + 1e-9

    def test_zero_iterations(self):
        from tests.core.test_flow import staircase_instance

        netlist, placement = staircase_instance()
        result = optimize_replication(netlist, placement, ReplicationConfig(max_iterations=0))
        assert result.history == []
        assert result.final_delay == pytest.approx(result.initial_delay)
