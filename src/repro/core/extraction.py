"""Applying a chosen embedding to the netlist and placement.

"The chosen solution from the tradeoff curve will guide the solution
extraction algorithm to determine which cells need to be replicated or
just relocated if no replication is necessary."  (Section IV.)

For every movable tree node the extractor checks the assigned slot:

* if the slot already holds a cell logically equivalent to the node's
  cell, that cell is *reused* — implicit unification, no replication;
* otherwise a replica is created (sharing the original's non-tree
  inputs, per the Section III construction) and placed there, possibly
  overfilling the slot (the legalizer resolves that later).

Tree connections are then rewired child-realization -> parent-realization,
the sink's input is moved to the root realization, and originals that
lost all fanout are swept recursively (they were effectively *moved*).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.embedder import EmbeddingResult
from repro.core.embedding_graph import GridEmbeddingGraph
from repro.core.replication_tree import ReplicationTreeInfo
from repro.core.solutions import Label
from repro.netlist.netlist import Netlist
from repro.place.placement import Placement


@dataclass
class ApplyResult:
    """What one embedding application did to the design."""

    replicated: list[int] = field(default_factory=list)
    reused: list[int] = field(default_factory=list)
    swept: list[int] = field(default_factory=list)
    moved_root: bool = False

    @property
    def net_new_cells(self) -> int:
        return len(self.replicated) - len(self.swept)


def apply_embedding(
    netlist: Netlist,
    placement: Placement,
    graph: GridEmbeddingGraph,
    info: ReplicationTreeInfo,
    result: EmbeddingResult,
    label: Label,
) -> ApplyResult:
    """Realize the embedding chosen by ``label``; returns statistics."""
    tree = info.tree
    placements = result.extract_placements(label)
    outcome = ApplyResult()

    # Pass 1: realize every movable node (reuse an equivalent cell at the
    # slot, or create a replica there).
    realized: dict[int, int] = {}
    for node_index, cell_id in info.node_cell.items():
        vertex = placements[node_index]
        slot = graph.slot_at(vertex)
        cell = netlist.cells[cell_id]
        equivalent_here = None
        for occupant_id in placement.cells_at(slot):
            occupant = netlist.cells.get(occupant_id)
            if occupant is not None and occupant.eq_class == cell.eq_class:
                equivalent_here = occupant_id
                break
        if equivalent_here is not None:
            realized[node_index] = equivalent_here
            outcome.reused.append(equivalent_here)
        else:
            replica = netlist.replicate_cell(cell)
            placement.place(replica, slot)
            realized[node_index] = replica.cell_id
            outcome.replicated.append(replica.cell_id)

    # Pass 2: rewire tree edges bottom-up: each internal node's realized
    # cell takes its tree inputs from the children's realizations.
    for node in tree.postorder():
        if node.index not in info.node_cell:
            continue
        parent_cell = realized[node.index]
        for child_index in node.children:
            source = realized.get(child_index)
            if source is None:
                source = info.leaf_cell[child_index]
            pin = info.child_pin[(node.index, child_index)]
            current = netlist.cells[parent_cell].inputs[pin]
            desired = netlist.cells[source].output
            assert desired is not None
            if current != desired:
                netlist.rewire_input(parent_cell, pin, source)

    # Pass 3: the sink takes its input from the root child's realization;
    # a movable root (FF relocation) is also moved to its chosen slot.
    root = tree.root
    sink_id = info.endpoint[0]
    child_index = root.children[0]
    source = realized.get(child_index, info.leaf_cell.get(child_index))
    assert source is not None
    pin = info.child_pin[(root.index, child_index)]
    if netlist.cells[sink_id].inputs[pin] != netlist.cells[source].output:
        netlist.rewire_input(sink_id, pin, source)
    if root.vertex is None:
        new_slot = graph.slot_at(placements[root.index])
        if placement.slot_of(sink_id) != new_slot:
            placement.place(netlist.cells[sink_id], new_slot)
            outcome.moved_root = True

    # Pass 4: sweep originals (and intermediates) that lost all fanout.
    seeds = list(info.node_cell.values()) + outcome.replicated
    outcome.swept = netlist.sweep_redundant(seeds)
    placement.prune_to(netlist)
    return outcome
