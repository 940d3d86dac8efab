"""Placement container: cell -> slot assignment with occupancy tracking.

The replication flow deliberately creates *illegal* (overfull) placements
— Section II-A: "we already allow placement overlaps with other gates
outside of the critical tree to avoid overconstraining the solution
space ... let the legalizer handle the overlap" — so this container
tracks occupancy per slot and reports overflow rather than forbidding it.
Pads may only sit on pad slots and logic cells only on logic slots; that
invariant *is* enforced.
"""

from __future__ import annotations

from collections import defaultdict

from repro.arch.fpga import FpgaArch, Slot
from repro.netlist.cells import Cell
from repro.netlist.netlist import Netlist


class PlacementError(Exception):
    """Raised on structurally invalid placement operations."""


class Placement:
    """Mutable cell -> slot assignment over an :class:`FpgaArch`."""

    def __init__(self, arch: FpgaArch) -> None:
        self.arch = arch
        self._slot_of: dict[int, Slot] = {}
        self._cells_at: dict[Slot, list[int]] = defaultdict(list)
        #: Move listeners (e.g. the incremental STA); each exposes
        #: ``pl_moved(cell_id)`` and ``pl_bulk()``.
        self._listeners: list = []

    # ------------------------------------------------------------------
    # Move listeners
    # ------------------------------------------------------------------

    def add_listener(self, listener) -> None:
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def notify_bulk(self) -> None:
        """Signal a wholesale content replacement (rollbacks, snapshots)."""
        for listener in self._listeners:
            listener.pl_bulk()

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def place(self, cell: Cell, slot: Slot) -> None:
        """Place (or move) ``cell`` at ``slot``; overlap is permitted."""
        if cell.ctype.is_pad:
            if not self.arch.is_pad_slot(slot):
                raise PlacementError(f"pad {cell.name!r} must go on the perimeter, not {slot}")
        elif not self.arch.is_logic_slot(slot):
            raise PlacementError(f"logic cell {cell.name!r} must go on a logic slot, not {slot}")
        self.unplace(cell.cell_id)
        self._slot_of[cell.cell_id] = slot
        self._cells_at[slot].append(cell.cell_id)
        if self._listeners:
            for listener in self._listeners:
                listener.pl_moved(cell.cell_id)

    def unplace(self, cell_id: int) -> None:
        """Remove a cell from the placement (no-op if unplaced)."""
        slot = self._slot_of.pop(cell_id, None)
        if slot is not None:
            self._cells_at[slot].remove(cell_id)
            if not self._cells_at[slot]:
                del self._cells_at[slot]
            if self._listeners:
                for listener in self._listeners:
                    listener.pl_moved(cell_id)

    def slot_of(self, cell_id: int) -> Slot:
        """Slot of a placed cell; raises if unplaced."""
        try:
            return self._slot_of[cell_id]
        except KeyError:
            raise PlacementError(f"cell {cell_id} is not placed") from None

    def get(self, cell_id: int) -> Slot | None:
        """Slot of a cell or ``None`` if unplaced."""
        return self._slot_of.get(cell_id)

    def slot_map(self) -> dict[int, Slot]:
        """The live cell-id -> slot mapping, for read-only bulk access.

        Hot analysis loops (STA passes) index this directly instead of
        paying a method call per edge.  Treat it as frozen: mutating it
        would desynchronize the per-slot occupancy index.
        """
        return self._slot_of

    def cells_at(self, slot: Slot) -> list[int]:
        """Cell ids currently at ``slot`` (possibly more than capacity)."""
        return list(self._cells_at.get(slot, ()))

    def occupancy(self, slot: Slot) -> int:
        return len(self._cells_at.get(slot, ()))

    def is_placed(self, cell_id: int) -> bool:
        return cell_id in self._slot_of

    def placed_cells(self) -> list[int]:
        return list(self._slot_of)

    # ------------------------------------------------------------------
    # Legality
    # ------------------------------------------------------------------

    def overfull_slots(self) -> list[Slot]:
        """Slots whose occupancy exceeds architectural capacity, sorted."""
        return sorted(
            slot
            for slot, cells in self._cells_at.items()
            if len(cells) > self.arch.slot_capacity(slot)
        )

    def is_legal(self) -> bool:
        return not self.overfull_slots()

    def free_logic_slots(self) -> list[Slot]:
        """Logic slots with spare capacity, row-major order."""
        return [
            slot
            for slot in self.arch.logic_slots()
            if self.occupancy(slot) < self.arch.clb_capacity
        ]

    def free_capacity(self, slot: Slot) -> int:
        return self.arch.slot_capacity(slot) - self.occupancy(slot)

    def assert_complete(self, netlist: Netlist) -> None:
        """Raise unless every netlist cell is placed."""
        missing = [c.name for c in netlist.cells.values() if c.cell_id not in self._slot_of]
        if missing:
            raise PlacementError(f"unplaced cells: {missing[:8]}{'...' if len(missing) > 8 else ''}")

    def prune_to(self, netlist: Netlist) -> None:
        """Drop placements of cells that no longer exist in the netlist."""
        for cell_id in list(self._slot_of):
            if cell_id not in netlist.cells:
                self.unplace(cell_id)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def copy(self) -> "Placement":
        other = Placement(self.arch)
        other._slot_of = dict(self._slot_of)
        other._cells_at = defaultdict(list, {s: list(c) for s, c in self._cells_at.items()})
        return other

    def assign_from(self, other: "Placement") -> None:
        """Replace this placement's contents with a copy of ``other``.

        Used to roll back speculative transformations while keeping every
        external reference to this ``Placement`` object valid.  The
        per-edit listener hooks are bypassed, so listeners (an attached
        incremental STA) are told their whole world changed.
        """
        copy = other.copy()
        self.arch = copy.arch
        self._slot_of = copy._slot_of
        self._cells_at = copy._cells_at
        self.notify_bulk()

    def distance(self, cell_a: int, cell_b: int) -> int:
        """Manhattan distance between two placed cells."""
        return self.arch.distance(self.slot_of(cell_a), self.slot_of(cell_b))

    def __len__(self) -> int:
        return len(self._slot_of)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Placement({len(self)} cells on {self.arch}, overfull={len(self.overfull_slots())})"
