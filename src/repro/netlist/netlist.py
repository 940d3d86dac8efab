"""The mutable netlist container and the edits the replication flow needs.

Beyond construction, the class supports exactly the transformations the
paper performs:

* :meth:`Netlist.replicate_cell` — make a functional copy of a cell that
  initially shares all of the original's input nets and drives a fresh,
  empty output net (Section III: the replication-tree construction makes
  *temporary* copies; only copies that the embedder places away from an
  equivalent cell materialize).
* :meth:`Netlist.move_sink` — fanout partitioning: reassign one sink pin
  from one net to another (used when a replica takes over the critical
  branch, and by post-process unification, Section V-C).
* :meth:`Netlist.unify` — merge a cell into a logically equivalent cell,
  moving all of its fanout and deleting it.
* :meth:`Netlist.sweep_redundant` — recursively delete cells whose output
  drives nothing (Section V-C: "After deletion, we may have induced the
  same condition to its parent ... This test is applied recursively.").

All edits keep the cell/net cross-references consistent; call
:func:`repro.netlist.validate.validate_netlist` in tests to check.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator

from repro.netlist.cells import Cell, CellType
from repro.netlist.nets import Net, Pin


class NetlistError(Exception):
    """Raised on malformed netlist construction or illegal edits."""


class Netlist:
    """A single-clock LUT/FF/pad netlist.

    Cells and nets live in dicts keyed by id so deletion is cheap and ids
    stay stable across edits (the placement and timing layers key off
    cell ids).
    """

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self.cells: dict[int, Cell] = {}
        self.nets: dict[int, Net] = {}
        self._next_cell_id = 0
        self._next_net_id = 0
        self._names: set[str] = set()
        #: Edit listeners (e.g. the incremental STA).  Each exposes
        #: ``nl_cell_added / nl_cell_deleted / nl_connected /
        #: nl_disconnected / nl_bulk``.  Kept empty in normal use, so
        #: every notification costs one truthiness test.
        self._listeners: list = []

    # ------------------------------------------------------------------
    # Edit listeners
    # ------------------------------------------------------------------

    def add_listener(self, listener) -> None:
        """Register an edit listener (see :mod:`repro.timing.incremental`)."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def notify_bulk(self) -> None:
        """Signal a wholesale content replacement (rollbacks, snapshots)."""
        for listener in self._listeners:
            listener.nl_bulk()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _fresh_name(self, base: str) -> str:
        if base not in self._names:
            return base
        suffix = 1
        while f"{base}_{suffix}" in self._names:
            suffix += 1
        return f"{base}_{suffix}"

    def _add_cell(
        self,
        name: str,
        ctype: CellType,
        num_inputs: int,
        truth_table: int | None = None,
    ) -> Cell:
        name = self._fresh_name(name)
        cell = Cell(
            cell_id=self._next_cell_id,
            name=name,
            ctype=ctype,
            inputs=[None] * num_inputs,
            truth_table=truth_table,
        )
        self._next_cell_id += 1
        self.cells[cell.cell_id] = cell
        self._names.add(name)
        if self._listeners:
            for listener in self._listeners:
                listener.nl_cell_added(cell.cell_id)
        return cell

    def add_input(self, name: str) -> Cell:
        """Add a primary-input pad and its output net."""
        cell = self._add_cell(name, CellType.INPUT, 0)
        self._attach_output_net(cell)
        return cell

    def add_output(self, name: str) -> Cell:
        """Add a primary-output pad (one input pin, drives nothing)."""
        return self._add_cell(name, CellType.OUTPUT, 1)

    def add_lut(self, name: str, num_inputs: int, truth_table: int) -> Cell:
        """Add a LUT with ``num_inputs`` pins and the given truth table."""
        if num_inputs < 1:
            raise NetlistError("a LUT needs at least one input")
        if truth_table >> (1 << num_inputs):
            raise NetlistError(
                f"truth table 0x{truth_table:x} too wide for {num_inputs} inputs"
            )
        cell = self._add_cell(name, CellType.LUT, num_inputs, truth_table)
        self._attach_output_net(cell)
        return cell

    def add_ff(self, name: str) -> Cell:
        """Add a D flip-flop (one D input pin, one Q output net)."""
        cell = self._add_cell(name, CellType.FF, 1)
        self._attach_output_net(cell)
        return cell

    def _attach_output_net(self, cell: Cell) -> Net:
        net = Net(self._next_net_id, self._fresh_name(f"n_{cell.name}"), driver=cell.cell_id)
        self._next_net_id += 1
        self.nets[net.net_id] = net
        self._names.add(net.name)
        cell.output = net.net_id
        return net

    def connect(self, driver_cell: Cell | int, sink_cell: Cell | int, pin: int) -> None:
        """Connect ``driver_cell``'s output net to pin ``pin`` of ``sink_cell``."""
        driver = self._cell(driver_cell)
        sink = self._cell(sink_cell)
        if driver.output is None:
            raise NetlistError(f"cell {driver.name!r} has no output net")
        self.connect_net(driver.output, sink, pin)

    def connect_net(self, net: Net | int, sink_cell: Cell | int, pin: int) -> None:
        """Connect an existing net to pin ``pin`` of ``sink_cell``."""
        net = self._net(net)
        sink = self._cell(sink_cell)
        if not 0 <= pin < sink.num_inputs:
            raise NetlistError(f"cell {sink.name!r} has no pin {pin}")
        if sink.inputs[pin] is not None:
            raise NetlistError(f"pin {pin} of {sink.name!r} already connected")
        sink.inputs[pin] = net.net_id
        net.sinks.append((sink.cell_id, pin))
        if self._listeners:
            for listener in self._listeners:
                listener.nl_connected(net.driver, sink.cell_id, pin)

    def disconnect_pin(self, sink_cell: Cell | int, pin: int) -> None:
        """Disconnect pin ``pin`` of ``sink_cell`` from whatever drives it."""
        sink = self._cell(sink_cell)
        net_id = sink.inputs[pin]
        if net_id is None:
            raise NetlistError(f"pin {pin} of {sink.name!r} not connected")
        net = self.nets[net_id]
        net.remove_sink((sink.cell_id, pin))
        sink.inputs[pin] = None
        if self._listeners:
            for listener in self._listeners:
                listener.nl_disconnected(net.driver, sink.cell_id, pin)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def _cell(self, ref: Cell | int) -> Cell:
        if isinstance(ref, Cell):
            return ref
        try:
            return self.cells[ref]
        except KeyError:
            raise NetlistError(f"no cell with id {ref}") from None

    def _net(self, ref: Net | int) -> Net:
        if isinstance(ref, Net):
            return ref
        try:
            return self.nets[ref]
        except KeyError:
            raise NetlistError(f"no net with id {ref}") from None

    def cell_by_name(self, name: str) -> Cell:
        """Look up a cell by name (linear scan; for tests and examples)."""
        for cell in self.cells.values():
            if cell.name == name:
                return cell
        raise NetlistError(f"no cell named {name!r}")

    def fanin_cells(self, cell: Cell | int) -> list[int | None]:
        """Driver cell id per input pin (``None`` for unconnected pins)."""
        cell = self._cell(cell)
        result: list[int | None] = []
        for net_id in cell.inputs:
            if net_id is None:
                result.append(None)
            else:
                result.append(self.nets[net_id].driver)
        return result

    def fanout_pins(self, cell: Cell | int) -> list[Pin]:
        """Sink pins fed by the cell's output net (empty for OUTPUT pads)."""
        cell = self._cell(cell)
        if cell.output is None:
            return []
        return list(self.nets[cell.output].sinks)

    def fanout_count(self, cell: Cell | int) -> int:
        cell = self._cell(cell)
        if cell.output is None:
            return 0
        return self.nets[cell.output].fanout

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_luts(self) -> int:
        return sum(1 for c in self.cells.values() if c.is_lut)

    @property
    def num_ffs(self) -> int:
        return sum(1 for c in self.cells.values() if c.is_ff)

    @property
    def num_pads(self) -> int:
        return sum(1 for c in self.cells.values() if c.ctype.is_pad)

    @property
    def num_logic_blocks(self) -> int:
        """LUTs + FFs — cells occupying logic slots on the FPGA."""
        return self.num_luts + self.num_ffs

    def primary_inputs(self) -> list[Cell]:
        return [c for c in self.cells.values() if c.is_input_pad]

    def primary_outputs(self) -> list[Cell]:
        return [c for c in self.cells.values() if c.is_output_pad]

    def flip_flops(self) -> list[Cell]:
        return [c for c in self.cells.values() if c.is_ff]

    def luts(self) -> list[Cell]:
        return [c for c in self.cells.values() if c.is_lut]

    # ------------------------------------------------------------------
    # Topological traversal
    # ------------------------------------------------------------------

    def combinational_order(self) -> list[int]:
        """Cell ids in a topological order of the combinational graph.

        Timing start points (input pads, FFs) come first; LUTs follow in
        dependency order; OUTPUT pads last.  FF D-pin edges are sequential
        boundaries and do not constrain the order.  Raises
        :class:`NetlistError` on a combinational cycle.
        """
        indegree: dict[int, int] = {}
        for cell in self.cells.values():
            if cell.is_timing_start:
                indegree[cell.cell_id] = 0
            else:
                count = 0
                for net_id in cell.inputs:
                    if net_id is not None:
                        count += 1
                indegree[cell.cell_id] = count
        queue = deque(sorted(cid for cid, deg in indegree.items() if deg == 0))
        order: list[int] = []
        while queue:
            cid = queue.popleft()
            order.append(cid)
            cell = self.cells[cid]
            if cell.is_timing_end and not cell.is_timing_start:
                continue
            for sink_id, _pin in self.fanout_pins(cell):
                sink = self.cells[sink_id]
                if sink.is_timing_start:
                    continue  # FF D edge: sequential boundary
                indegree[sink_id] -= 1
                if indegree[sink_id] == 0:
                    queue.append(sink_id)
        if len(order) != len(self.cells):
            missing = set(self.cells) - set(order)
            raise NetlistError(f"combinational cycle among cells {sorted(missing)}")
        return order

    # ------------------------------------------------------------------
    # Replication-flow edits
    # ------------------------------------------------------------------

    def replicate_cell(self, cell: Cell | int) -> Cell:
        """Create a replica of ``cell`` sharing its inputs and eq-class.

        The replica drives a fresh output net with no sinks; the caller
        performs fanout partitioning via :meth:`move_sink`.  Pads cannot
        be replicated.
        """
        original = self._cell(cell)
        if original.ctype.is_pad:
            raise NetlistError(f"cannot replicate pad {original.name!r}")
        if original.is_ff:
            replica = self.add_ff(f"{original.name}_R")
        else:
            assert original.truth_table is not None
            replica = self.add_lut(
                f"{original.name}_R", original.num_inputs, original.truth_table
            )
        replica.eq_class = original.eq_class
        for pin, net_id in enumerate(original.inputs):
            if net_id is not None:
                self.connect_net(net_id, replica, pin)
        return replica

    def move_sink(self, pin: Pin, to_net: Net | int) -> None:
        """Reassign sink ``pin`` to be fed by ``to_net`` (fanout partition)."""
        sink_id, pin_index = pin
        self.disconnect_pin(sink_id, pin_index)
        self.connect_net(to_net, sink_id, pin_index)

    def rewire_input(self, sink_cell: Cell | int, pin: int, new_driver: Cell | int) -> None:
        """Point pin ``pin`` of ``sink_cell`` at ``new_driver``'s output."""
        driver = self._cell(new_driver)
        if driver.output is None:
            raise NetlistError(f"cell {driver.name!r} has no output net")
        sink = self._cell(sink_cell)
        if sink.inputs[pin] is not None:
            self.disconnect_pin(sink, pin)
        self.connect_net(driver.output, sink, pin)

    def unify(self, victim: Cell | int, survivor: Cell | int) -> None:
        """Merge ``victim`` into logically equivalent ``survivor``.

        All of the victim's fanout moves to the survivor's output net and
        the victim is deleted.  The two cells must share an equivalence
        class (Section V-C unification is only legal between replicas).
        """
        victim = self._cell(victim)
        survivor = self._cell(survivor)
        if victim.cell_id == survivor.cell_id:
            raise NetlistError("cannot unify a cell with itself")
        if victim.eq_class != survivor.eq_class:
            raise NetlistError(
                f"{victim.name!r} and {survivor.name!r} are not logically equivalent"
            )
        assert survivor.output is not None
        for pin in self.fanout_pins(victim):
            self.move_sink(pin, survivor.output)
        self.delete_cell(victim)

    def delete_cell(self, cell: Cell | int) -> None:
        """Delete a cell with no remaining fanout, detaching its pins."""
        cell = self._cell(cell)
        if self.fanout_count(cell) > 0:
            raise NetlistError(f"cell {cell.name!r} still has fanout")
        for pin_index, net_id in enumerate(cell.inputs):
            if net_id is not None:
                self.disconnect_pin(cell, pin_index)
        if cell.output is not None:
            net = self.nets.pop(cell.output)
            self._names.discard(net.name)
        del self.cells[cell.cell_id]
        self._names.discard(cell.name)
        if self._listeners:
            for listener in self._listeners:
                listener.nl_cell_deleted(cell.cell_id)

    def sweep_redundant(self, seeds: Iterable[int] | None = None) -> list[int]:
        """Recursively delete LUT/FF cells whose output drives nothing.

        Args:
            seeds: Cell ids to start from; defaults to all cells.  Only
                cells that are redundant (zero fanout and not an OUTPUT
                pad) are deleted; their fanins are then re-examined.

        Returns:
            Ids of deleted cells, in deletion order.
        """
        if seeds is None:
            candidates = deque(sorted(self.cells))
        else:
            candidates = deque(seeds)
        deleted: list[int] = []
        while candidates:
            cid = candidates.popleft()
            cell = self.cells.get(cid)
            if cell is None or cell.is_output_pad or cell.ctype.is_pad:
                continue
            if self.fanout_count(cell) > 0:
                continue
            parents = [p for p in self.fanin_cells(cell) if p is not None]
            self.delete_cell(cell)
            deleted.append(cid)
            candidates.extend(parents)
        return deleted

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def equivalent_cells(self, cell: Cell | int) -> list[Cell]:
        """All *other* live cells in the same equivalence class."""
        cell = self._cell(cell)
        return [
            c
            for c in self.cells.values()
            if c.eq_class == cell.eq_class and c.cell_id != cell.cell_id
        ]

    def clone(self) -> "Netlist":
        """Deep copy preserving all ids (placements remain valid)."""
        other = Netlist(self.name)
        other._next_cell_id = self._next_cell_id
        other._next_net_id = self._next_net_id
        other._names = set(self._names)
        for cid, cell in self.cells.items():
            other.cells[cid] = Cell(
                cell_id=cell.cell_id,
                name=cell.name,
                ctype=cell.ctype,
                inputs=list(cell.inputs),
                output=cell.output,
                truth_table=cell.truth_table,
                eq_class=cell.eq_class,
            )
        for nid, net in self.nets.items():
            other.nets[nid] = Net(net.net_id, net.name, net.driver, list(net.sinks))
        return other

    def assign_from(self, other: "Netlist") -> None:
        """Replace this netlist's contents with a deep copy of ``other``.

        Used to roll back speculative transformations while keeping every
        external reference to this ``Netlist`` object valid.
        """
        clone = other.clone()
        self.name = clone.name
        self.cells = clone.cells
        self.nets = clone.nets
        self._next_cell_id = clone._next_cell_id
        self._next_net_id = clone._next_net_id
        self._names = clone._names
        self.notify_bulk()

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Netlist({self.name!r}, cells={self.num_cells}, nets={len(self.nets)}, "
            f"luts={self.num_luts}, ffs={self.num_ffs}, pads={self.num_pads})"
        )
