"""Batched per-sink embedding (``batch_sinks > 1``) on tied endpoints.

``batch_sinks`` is an *algorithm* knob: >1 embeds several endpoints tied
at the critical delay against one STA snapshot per iteration and merges
the results in deterministic sink order.  Every sink is embedded in the
caller's process.  These tests pin the batch path on a hand-built
instance with two exactly-tied critical endpoints: it engages, keeps the
design valid, matches the serial loop's quality, and reproduces one
exact, pinned outcome.
"""

import pytest

from repro.arch import FpgaArch, LinearDelayModel
from repro.core.config import ReplicationConfig
from repro.core.flow import optimize_replication
from repro.netlist import Netlist, check_equivalence, validate_netlist
from repro.place import Placement
from repro.timing import analyze

SIMPLE = LinearDelayModel(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def twin_staircase_instance():
    """Two mirror-image non-monotone chains; their sinks tie exactly.

    Chain A runs along the top corridor (row 12) with its gates dragged
    toward the bottom edge by side loads; chain B is the vertical mirror.
    Every segment length matches between the chains, so the two sink
    arrivals are the *same float* and both endpoints sit at the critical
    delay — the situation ``batch_sinks > 1`` exists for.
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


def _state_fingerprint(netlist, placement, result):
    """Cell types and slots by name, the history, the final delay."""
    cells = {
        cell.name: (cell.ctype.name, placement.get(cell.cell_id))
        for cell in netlist.cells.values()
    }
    history = [
        (r.sink, r.note, r.replicated, r.unified, r.delay_after)
        for r in result.history
    ]
    return cells, history, result.final_delay


def test_two_endpoints_tie_exactly():
    nl, placement = twin_staircase_instance()
    analysis = analyze(nl, placement)
    critical = analysis.critical_delay
    tied = [
        ep
        for ep, arrival in analysis.endpoint_arrival.items()
        if arrival == critical
    ]
    assert len(tied) == 2


def test_batched_flow_valid_and_engaged():
    nl, placement = twin_staircase_instance()
    before = analyze(nl, placement).critical_delay
    reference = nl.clone()
    result = optimize_replication(
        nl, placement, ReplicationConfig(batch_sinks=2)
    )
    assert result.final_delay < before
    assert any("batch of" in r.note for r in result.history)
    assert check_equivalence(reference, nl)
    validate_netlist(nl)
    assert placement.is_legal()


def test_batched_matches_serial_quality():
    serial = optimize_replication(
        *twin_staircase_instance(), ReplicationConfig()
    )
    batched = optimize_replication(
        *twin_staircase_instance(), ReplicationConfig(batch_sinks=2)
    )
    assert batched.final_delay == pytest.approx(serial.final_delay)


#: ``_state_fingerprint`` of the twin staircase under ``batch_sinks=2``,
#: recorded when tied sinks could also be embedded in worker processes
#: (both paths produced it); any change to the batch path shows here.
PINNED_BATCH_FINGERPRINT = (
    {
        "sa": ("INPUT", (0, 12)),
        "g1a": ("LUT", (3, 7)),
        "g2a": ("LUT", (7, 7)),
        "ta": ("OUTPUT", (13, 12)),
        "o1a": ("OUTPUT", (3, 0)),
        "o2a": ("OUTPUT", (7, 0)),
        "sb": ("INPUT", (0, 1)),
        "g1b": ("LUT", (3, 6)),
        "g2b": ("LUT", (7, 6)),
        "tb": ("OUTPUT", (13, 1)),
        "o1b": ("OUTPUT", (3, 13)),
        "o2b": ("OUTPUT", (7, 13)),
        "g1a_R": ("LUT", (11, 12)),
        "g2a_R": ("LUT", (12, 12)),
        "g1b_R": ("LUT", (11, 1)),
        "g2b_R": ("LUT", (12, 1)),
    },
    [((3, 0), "batch of 2", 4, 0, 21.0)]
    + [((5, 0), "batch of 2", 0, 0, 21.0)] * 7,
    21.0,
)


def test_batched_fingerprint_pinned():
    """Netlist, placement, history and delay under ``batch_sinks=2``
    match the pinned values exactly."""
    nl, placement = twin_staircase_instance()
    result = optimize_replication(
        nl, placement, ReplicationConfig(batch_sinks=2)
    )
    assert _state_fingerprint(nl, placement, result) == PINNED_BATCH_FINGERPRINT
