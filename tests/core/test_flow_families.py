"""Flow integration across the structured circuit families.

Every family is run through the full replication flow with each scheme
variant; the invariants checked are the ones that must hold on *any*
input: function preserved, placement legal and complete, delay never
worse than the input, determinism.
"""

import pytest

from repro import FpgaArch, ReplicationConfig, analyze
from repro.arch import LinearDelayModel
from repro.bench.families import butterfly, comb_tree, fanout_star, mesh, shift_register
from repro.core.flow import optimize_replication
from repro.core.signatures import LexMcScheme, LexScheme
from repro.netlist import check_equivalence, validate_netlist
from repro.place import random_placement

SIMPLE = LinearDelayModel(1.0, 0.0, 1.0, 0.0, 0.0, 0.0)

FAMILIES = {
    "tree": lambda: comb_tree(3),
    "butterfly": lambda: butterfly(2),
    "mesh": lambda: mesh(3, 3),
    "star": lambda: fanout_star(5),
    "shift": lambda: shift_register(4),
}


def place(netlist, seed=0):
    arch = FpgaArch.min_square_for(
        netlist.num_logic_blocks + 4,  # leave some replication room
        netlist.num_pads,
        delay_model=SIMPLE,
    )
    return random_placement(netlist, arch, seed=seed)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_flow_invariants_per_family(family):
    netlist = FAMILIES[family]()
    placement = place(netlist)
    reference = netlist.clone()
    before = analyze(netlist, placement).critical_delay
    result = optimize_replication(
        netlist, placement, ReplicationConfig(max_iterations=10, patience=3)
    )
    validate_netlist(netlist)
    placement.assert_complete(netlist)
    assert placement.is_legal()
    assert result.final_delay <= before + 1e-9
    assert check_equivalence(reference, netlist, cycles=16, trials=2)


@pytest.mark.parametrize(
    "scheme",
    [LexScheme(2), LexScheme(3), LexMcScheme()],
    ids=["lex2", "lex3", "lexmc"],
)
def test_variants_on_reconvergent_family(scheme):
    netlist = butterfly(2)
    placement = place(netlist, seed=2)
    reference = netlist.clone()
    config = ReplicationConfig(scheme=scheme, max_iterations=8, patience=3)
    result = optimize_replication(netlist, placement, config)
    validate_netlist(netlist)
    assert result.final_delay <= result.initial_delay + 1e-9
    assert check_equivalence(reference, netlist, cycles=16, trials=2)


def test_mesh_gains_little():
    """A nearest-neighbour mesh placed well has little to straighten."""
    netlist = mesh(3, 3)
    placement = place(netlist, seed=5)
    result = optimize_replication(
        netlist, placement, ReplicationConfig(max_iterations=8, patience=3)
    )
    # Soundness is the requirement; big gains are not expected here.
    assert 0.0 <= result.improvement <= 1.0


def test_star_fanout_partitioning():
    """The fanout-star is the classic replication case: the hub splits."""
    netlist = fanout_star(6)
    placement = place(netlist, seed=1)
    reference = netlist.clone()
    result = optimize_replication(
        netlist, placement, ReplicationConfig(max_iterations=12, patience=4)
    )
    assert check_equivalence(reference, netlist, cycles=16, trials=2)
    assert result.final_delay <= result.initial_delay + 1e-9
