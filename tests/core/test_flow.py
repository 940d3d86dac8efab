"""End-to-end tests of the replication optimization flow (Section IV).

Two hand-built scenarios drive these tests:

* ``staircase_instance`` — the Fig. 3 phenomenon: a critical chain whose
  cells are pulled off the source-sink corridor by side fanouts, so the
  path is badly non-monotone while every local window looks fine.
  Replicating the chain (copies serve the critical sink, originals keep
  the side loads) must recover most of the detour.
* ``fig12_instance`` — the Figs. 1-2 motivating example; here the cross
  paths pin the achievable delay, so the flow must *not* degrade
  anything while straightening (the paper's own point in that figure is
  monotonicity at roughly equal wirelength, not delay).
* ``twin_staircase_instance`` — two mirror-image staircases whose sinks
  tie exactly at the critical delay, so fixing one sink leaves the
  period unchanged (the per-sink progress of Section V-B).
"""

import pytest

from repro.arch import FpgaArch, LinearDelayModel
from repro.core.config import ReplicationConfig
from repro.core.flow import ReplicationOptimizer, optimize_replication
from repro.core.signatures import LexScheme
from repro.netlist import (
    EquivalenceIndex,
    Netlist,
    check_equivalence,
    validate_netlist,
)
from repro.place import Placement
from repro.timing import analyze
from repro.timing.monotonicity import is_monotone

SIMPLE = LinearDelayModel(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def staircase_instance():
    """Critical chain s -> g1 -> g2 -> t with side fanouts o1, o2.

    g1/g2 sit high (row 6) to serve their top-edge side loads; the
    s -> t corridor runs along row 1, so the critical path detours by 10
    units.  Replication should free copies of g1/g2 to hug the corridor.
    """
    nl = Netlist("staircase")
    s = nl.add_input("s")
    g1 = nl.add_lut("g1", 1, 0b01)
    g2 = nl.add_lut("g2", 1, 0b01)
    t = nl.add_output("t")
    o1 = nl.add_output("o1")
    o2 = nl.add_output("o2")
    nl.connect(s, g1, 0)
    nl.connect(g1, g2, 0)
    nl.connect(g2, t, 0)
    nl.connect(g1, o1, 0)
    nl.connect(g2, o2, 0)

    arch = FpgaArch(10, 10, delay_model=SIMPLE)
    placement = Placement(arch)
    placement.place(s, (0, 1))
    placement.place(t, (11, 1))
    placement.place(o1, (3, 11))
    placement.place(o2, (7, 11))
    placement.place(g1, (3, 6))
    placement.place(g2, (7, 6))
    return nl, placement


def fig12_instance():
    """The Figs. 1-2 forced-nonmonotone instance, placed by hand."""
    nl = Netlist("fig12")
    a = nl.add_input("a")
    e = nl.add_input("e")
    c = nl.add_lut("c", 2, 0b0110)
    b = nl.add_output("b")
    d = nl.add_output("d")
    nl.connect(a, c, 0)
    nl.connect(e, c, 1)
    nl.connect(c, b, 0)
    nl.connect(c, d, 0)

    arch = FpgaArch(9, 9, delay_model=SIMPLE)
    placement = Placement(arch)
    placement.place(a, (0, 2))   # left, low
    placement.place(b, (0, 8))   # left, high
    placement.place(e, (10, 2))  # right, low
    placement.place(d, (10, 8))  # right, high
    placement.place(c, (5, 5))   # dead center
    return nl, placement


def twin_staircase_instance():
    """Two mirror-image non-monotone chains; their sinks tie exactly.

    Chain A runs along the top corridor (row 12) with its gates dragged
    toward the bottom edge by side loads; chain B is the vertical mirror.
    Every segment length matches between the chains, so the two sink
    arrivals are the *same float* and both endpoints sit at the critical
    delay.
    """
    nl = Netlist("twin-staircase")
    sa = nl.add_input("sa")
    g1a = nl.add_lut("g1a", 1, 0b01)
    g2a = nl.add_lut("g2a", 1, 0b01)
    ta = nl.add_output("ta")
    o1a = nl.add_output("o1a")
    o2a = nl.add_output("o2a")
    nl.connect(sa, g1a, 0)
    nl.connect(g1a, g2a, 0)
    nl.connect(g2a, ta, 0)
    nl.connect(g1a, o1a, 0)
    nl.connect(g2a, o2a, 0)

    sb = nl.add_input("sb")
    g1b = nl.add_lut("g1b", 1, 0b01)
    g2b = nl.add_lut("g2b", 1, 0b01)
    tb = nl.add_output("tb")
    o1b = nl.add_output("o1b")
    o2b = nl.add_output("o2b")
    nl.connect(sb, g1b, 0)
    nl.connect(g1b, g2b, 0)
    nl.connect(g2b, tb, 0)
    nl.connect(g1b, o1b, 0)
    nl.connect(g2b, o2b, 0)

    arch = FpgaArch(12, 12, delay_model=SIMPLE)
    placement = Placement(arch)
    # Chain A: corridor row 12, gates at row 7, side loads on the bottom.
    placement.place(sa, (0, 12))
    placement.place(ta, (13, 12))
    placement.place(o1a, (3, 0))
    placement.place(o2a, (7, 0))
    placement.place(g1a, (3, 7))
    placement.place(g2a, (7, 7))
    # Chain B: the mirror image (corridor row 1, gates row 6, loads top).
    placement.place(sb, (0, 1))
    placement.place(tb, (13, 1))
    placement.place(o1b, (3, 13))
    placement.place(o2b, (7, 13))
    placement.place(g1b, (3, 6))
    placement.place(g2b, (7, 6))
    return nl, placement


class TestStaircaseReplication:
    def test_replication_improves_delay(self):
        nl, placement = staircase_instance()
        before = analyze(nl, placement).critical_delay
        reference = nl.clone()
        result = optimize_replication(nl, placement, ReplicationConfig())
        after = analyze(nl, placement).critical_delay
        assert after < before
        assert result.final_delay == pytest.approx(after)
        assert check_equivalence(reference, nl)
        validate_netlist(nl)
        assert placement.is_legal()

    def test_replica_actually_created(self):
        nl, placement = staircase_instance()
        optimize_replication(nl, placement, ReplicationConfig())
        index = EquivalenceIndex(nl)
        assert index.total_replicas() >= 1

    def test_critical_path_straightened(self):
        nl, placement = staircase_instance()
        optimize_replication(nl, placement, ReplicationConfig())
        analysis = analyze(nl, placement)
        t = nl.cell_by_name("t")
        path = analysis.path_to_endpoint((t.cell_id, 0))
        assert is_monotone(placement, path)

    def test_reaches_corridor_bound(self):
        """The s->t path can reach its distance lower bound exactly."""
        from repro.timing import endpoint_lower_bound

        nl, placement = staircase_instance()
        optimize_replication(nl, placement, ReplicationConfig())
        analysis = analyze(nl, placement)
        t = nl.cell_by_name("t")
        bound = endpoint_lower_bound(nl, placement, (t.cell_id, 0))
        assert analysis.endpoint_arrival[(t.cell_id, 0)] == pytest.approx(bound)

    def test_deterministic(self):
        r1 = optimize_replication(*staircase_instance(), ReplicationConfig())
        r2 = optimize_replication(*staircase_instance(), ReplicationConfig())
        assert r1.final_delay == pytest.approx(r2.final_delay)
        assert r1.total_replicated == r2.total_replicated


class TestFig12NoDegradation:
    def test_delay_bound_already_tight(self):
        """Cross paths (a->d, e->b) pin the delay: flow must not hurt."""
        nl, placement = fig12_instance()
        before = analyze(nl, placement).critical_delay
        reference = nl.clone()
        result = optimize_replication(nl, placement, ReplicationConfig())
        assert result.final_delay <= before + 1e-9
        assert check_equivalence(reference, nl)
        assert placement.is_legal()


class TestFlowBookkeeping:
    def test_history_is_recorded(self):
        nl, placement = staircase_instance()
        result = optimize_replication(nl, placement, ReplicationConfig())
        assert result.history
        first = result.history[0]
        assert first.delay_before == pytest.approx(result.initial_delay)
        assert result.total_replicated >= 1

    def test_improvement_property(self):
        nl, placement = staircase_instance()
        result = optimize_replication(nl, placement, ReplicationConfig())
        assert 0.0 <= result.improvement < 1.0
        assert result.final_delay <= result.initial_delay + 1e-9

    def test_best_snapshot_returned_on_degradation(self):
        """Even if late iterations degrade, the best snapshot wins."""
        nl, placement = staircase_instance()
        result = optimize_replication(
            nl, placement, ReplicationConfig(max_iterations=40)
        )
        measured = analyze(nl, placement).critical_delay
        assert measured == pytest.approx(result.final_delay)
        for record in result.history:
            assert result.final_delay <= record.delay_after + 1e-9

    def test_max_iterations_respected(self):
        nl, placement = staircase_instance()
        result = optimize_replication(nl, placement, ReplicationConfig(max_iterations=2))
        assert len(result.history) <= 2

    def test_epsilon_grows_on_nonimprovement(self):
        nl, placement = staircase_instance()
        result = optimize_replication(nl, placement, ReplicationConfig())
        stuck = [r for r in result.history if not r.improved]
        if len(stuck) >= 2:
            assert stuck[-1].epsilon >= stuck[0].epsilon


class TestTiedEndpoints:
    """The one-sink loop on the twin staircase's two tied sinks."""

    def test_two_endpoints_tie_exactly(self):
        nl, placement = twin_staircase_instance()
        analysis = analyze(nl, placement)
        critical = analysis.critical_delay
        tied = [
            ep
            for ep, arrival in analysis.endpoint_arrival.items()
            if arrival == critical
        ]
        assert len(tied) == 2

    def test_one_sink_per_iteration(self):
        nl, placement = twin_staircase_instance()
        tied = {
            ep
            for ep, arrival in analyze(nl, placement).endpoint_arrival.items()
            if arrival == 25.0
        }
        reference = nl.clone()
        result = optimize_replication(nl, placement, ReplicationConfig())
        first, second = result.history[:2]
        # Iteration 0 fixes one sink while the other still sets the
        # period: it progresses only through its own sink's arrival.
        assert (first.delay_before, first.delay_after) == (25.0, 25.0)
        assert not first.improved
        assert first.sink_improved
        assert first.progressed
        assert first.epsilon == 0.0
        assert {first.sink, second.sink} == tied
        assert second.delay_after == 21.0
        assert second.improved
        assert result.final_delay == 21.0

        replicas = {
            cell.name: placement.get(cell.cell_id)
            for cell in nl.cells.values()
            if cell.name.endswith("_R")
        }
        assert replicas == {
            "g1a_R": (11, 12),
            "g2a_R": (12, 12),
            "g1b_R": (11, 1),
            "g2b_R": (12, 1),
        }
        assert check_equivalence(reference, nl)
        validate_netlist(nl)
        assert placement.is_legal()


class TestLexFlow:
    def test_lex3_at_least_as_good_as_rt(self):
        rt = optimize_replication(*staircase_instance(), ReplicationConfig())
        lex_nl, lex_pl = staircase_instance()
        lex = optimize_replication(
            lex_nl, lex_pl, ReplicationConfig(scheme=LexScheme(3))
        )
        assert lex.final_delay <= rt.final_delay + 1e-9
        assert check_equivalence(staircase_instance()[0], lex_nl)


class TestSequentialFlow:
    def make_corridor(self):
        """a -> g1 -> FF -> g2 -> out along a corridor, FF lopsided.

        The FF sits at the far end of the corridor: its D path is at its
        fixed-location bound, so only FF relocation (Section V-D) can
        rebalance the two timing paths.
        """
        nl = Netlist("corridor")
        a = nl.add_input("a")
        g1 = nl.add_lut("g1", 1, 0b01)
        ff = nl.add_ff("ff")
        g2 = nl.add_lut("g2", 1, 0b01)
        out = nl.add_output("out")
        nl.connect(a, g1, 0)
        nl.connect(g1, ff, 0)
        nl.connect(ff, g2, 0)
        nl.connect(g2, out, 0)
        arch = FpgaArch(9, 9, delay_model=SIMPLE)
        placement = Placement(arch)
        placement.place(a, (0, 5))
        placement.place(g1, (3, 5))
        placement.place(ff, (9, 5))  # lopsided: D path 10, Q path 3
        placement.place(g2, (9, 6))
        placement.place(out, (10, 6))
        return nl, placement

    def test_ff_relocation_rebalances(self):
        nl, placement = self.make_corridor()
        before = analyze(nl, placement).critical_delay
        reference = nl.clone()
        result = optimize_replication(
            nl,
            placement,
            ReplicationConfig(allow_ff_relocation=True, max_iterations=20),
        )
        assert result.final_delay < before
        ff = nl.cell_by_name("ff")
        # The FF must have moved toward the middle of the corridor.
        assert placement.slot_of(ff.cell_id)[0] < 9
        assert check_equivalence(reference, nl)
        assert any(r.ff_relocated for r in result.history)

    def test_without_relocation_ff_stays(self):
        nl, placement = self.make_corridor()
        result = optimize_replication(
            nl,
            placement,
            ReplicationConfig(allow_ff_relocation=False, max_iterations=10),
        )
        ff = nl.cell_by_name("ff")
        assert placement.slot_of(ff.cell_id) == (9, 5)
        assert not any(r.ff_relocated for r in result.history)
