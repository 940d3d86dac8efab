"""Routing-resource graph for the grid FPGA.

A deliberately coarse model in the spirit of VPR's evaluation protocol
[18]: routing happens on the slot grid (logic + pad ring), every
adjacency carries a *channel* with ``channel_width`` tracks, and a net
occupies one track of every channel segment its route tree crosses.
Uniform buffered switches (Section II-B) mean one segment = one unit of
wire delay; the per-connection switch overhead is charged once per
source->sink connection.

This preserves exactly what the paper measures post-route: congestion
(can the design route in W tracks?), routed wirelength (total segments),
and routed critical path — while staying small enough to run a 20-circuit
suite in Python.

Every slot and every channel segment gets a dense integer id, adjacency
is a CSR (``array``-backed) neighbour list carrying the edge's segment
id, and occupancy / history / coordinates are flat vectors indexed by
those ids, so the router's inner search loop never hashes a tuple.  The
tuple-keyed reference graph the router is parity-tested against lives
in ``tests/route/oracle.py``.
"""

from __future__ import annotations

from array import array

from repro.arch.fpga import FpgaArch, Slot

#: A channel segment between two adjacent slots, canonically ordered.
Segment = tuple[Slot, Slot]


class IndexedRoutingGraph:
    """Integer-indexed routing graph: CSR adjacency + flat occupancy.

    Slots are numbered ``0..num_slots-1`` in ascending ``Slot``-tuple
    order, so integer-id comparisons reproduce the tuple tie-breaks of
    the reference router exactly.  Channel segments are numbered in
    ascending canonical ``(a, b)`` order for the same reason.

    Attributes:
        slots: Slot tuple of each slot id (``slots[i]``).
        xs / ys: Flat coordinate vectors (``array('i')``), for Manhattan
            lookahead and bounding-box tests without tuple unpacking.
        nbr_ptr: CSR row pointer — slot ``i``'s edges occupy
            ``nbr_ptr[i]:nbr_ptr[i+1]`` of ``nbr_slot``/``nbr_seg``.
        nbr_slot: Neighbour slot id per CSR edge, in the reference
            router's probe order (+x, -x, +y, -y).
        nbr_seg: Segment id per CSR edge (one id per unordered pair).
        seg_slots: Canonical ``(Slot, Slot)`` tuple per segment id, for
            converting integer routes back to the public representation.
        usage / history: Per-segment occupancy and PathFinder history.
        seg_cost: The per-segment congestion-cost cache for the current
            negotiation iteration (``None`` when stale); see
            :meth:`refresh_costs`.
    """

    def __init__(self, arch: FpgaArch, channel_width: float) -> None:
        self.arch = arch
        self.channel_width = channel_width

        slot_set = set(arch.logic_slots()) | set(arch.pad_slots())
        slots = sorted(slot_set)
        self.slots: list[Slot] = slots
        self.slot_index: dict[Slot, int] = {s: i for i, s in enumerate(slots)}
        self.num_slots = len(slots)
        self.xs = array("i", (s[0] for s in slots))
        self.ys = array("i", (s[1] for s in slots))

        # Segments in canonical ascending order -> dense ids.
        seg_index: dict[Segment, int] = {}
        seg_slots: list[Segment] = []
        for a in slots:
            x, y = a
            for b in ((x, y + 1), (x + 1, y)):  # each pair once, a < b
                if b in slot_set:
                    seg_index[(a, b)] = len(seg_slots)
                    seg_slots.append((a, b))
        self.seg_slots: list[Segment] = seg_slots
        self.num_segments = len(seg_slots)

        # CSR adjacency, neighbour probe order (+x, -x, +y, -y).
        index = self.slot_index
        nbr_ptr = array("i", [0] * (self.num_slots + 1))
        nbr_slot = array("i")
        nbr_seg = array("i")
        for i, a in enumerate(slots):
            x, y = a
            for b in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if b in slot_set:
                    nbr_slot.append(index[b])
                    nbr_seg.append(seg_index[(a, b) if a <= b else (b, a)])
            nbr_ptr[i + 1] = len(nbr_slot)
        self.nbr_ptr = nbr_ptr
        self.nbr_slot = nbr_slot
        self.nbr_seg = nbr_seg
        #: Per-slot tuple of (neighbour id, segment id, nbr x, nbr y) —
        #: the search inner loop iterates this directly so one tuple
        #: unpack replaces three indexed loads per edge.
        self.adj: list[tuple[tuple[int, int, int, int], ...]] = [
            tuple(
                (nbr_slot[k], nbr_seg[k], self.xs[nbr_slot[k]], self.ys[nbr_slot[k]])
                for k in range(nbr_ptr[i], nbr_ptr[i + 1])
            )
            for i in range(self.num_slots)
        ]

        #: Flat per-segment vectors (plain lists: fastest scalar access).
        self.usage: list[int] = [0] * self.num_segments
        self.history: list[float] = [0.0] * self.num_segments
        #: True once any segment has accrued history cost (cheap flag so
        #: searches can detect the uniform-cost regime in O(1)).
        self.has_history = False
        #: Per-segment congestion costs for the current iteration, or
        #: ``None`` when not priced / stale (see :meth:`refresh_costs`).
        self.seg_cost: list[float] | None = None
        self._cost_pres = 0.0
        # Running totals, maintained incrementally by occupy/release.
        self._wirelength = 0
        self._overuse = 0
        self._at_capacity = 0

    # ------------------------------------------------------------------
    # Occupancy (integer segment ids)
    # ------------------------------------------------------------------

    def occupy(self, seg_id: int) -> None:
        used = self.usage[seg_id] + 1
        self.usage[seg_id] = used
        self._wirelength += 1
        if used >= self.channel_width:
            if used > self.channel_width:
                self._overuse += 1
            if used - 1 < self.channel_width:
                self._at_capacity += 1
        cost = self.seg_cost
        if cost is not None:
            over = used + 1 - self.channel_width
            if over > 0.0:
                cost[seg_id] = (1.0 + self.history[seg_id]) * (
                    1.0 + self._cost_pres * over
                )
            else:
                cost[seg_id] = 1.0 + self.history[seg_id]

    def release(self, seg_id: int) -> None:
        used = self.usage[seg_id]
        if used >= self.channel_width:
            if used > self.channel_width:
                self._overuse -= 1
            if used - 1 < self.channel_width:
                self._at_capacity -= 1
        used -= 1
        self.usage[seg_id] = used
        self._wirelength -= 1
        cost = self.seg_cost
        if cost is not None:
            over = used + 1 - self.channel_width
            if over > 0.0:
                cost[seg_id] = (1.0 + self.history[seg_id]) * (
                    1.0 + self._cost_pres * over
                )
            else:
                cost[seg_id] = 1.0 + self.history[seg_id]

    def total_overuse(self) -> int:
        return self._overuse

    def uniform_cost(self) -> bool:
        """True while every segment still prices at the base cost 1.0 —
        no history anywhere and no segment at or over capacity (a full
        segment already charges its *next* user the present-sharing
        penalty, so ``total_overuse() == 0`` alone is not sufficient).
        """
        return self._at_capacity == 0 and not self.has_history

    def total_wirelength(self) -> int:
        """Total occupied segments (with multiplicity) — routed wire."""
        return self._wirelength

    def congestion_cost(self, seg_id: int, present_factor: float) -> float:
        """PathFinder cost of using one more track of this segment."""
        over = self.usage[seg_id] + 1 - self.channel_width
        if over < 0.0:
            over = 0.0
        return (1.0 + self.history[seg_id]) * (1.0 + present_factor * over)

    def refresh_costs(self, present_factor: float) -> list[float]:
        """(Re)price every segment at ``present_factor``.

        The resulting vector is cached in :attr:`seg_cost`; subsequent
        :meth:`occupy`/:meth:`release` calls keep the touched entry
        up to date with the same two-branch formula, so the cache always
        equals :meth:`congestion_cost` of every segment.
        :meth:`accrue_history` invalidates it (history changes every
        over-used segment at once — cheaper to re-price).
        """
        width = self.channel_width
        self._cost_pres = present_factor
        self.seg_cost = [
            (1.0 + h) * (1.0 + present_factor * over)
            if (over := used + 1 - width) > 0.0
            else 1.0 + h
            for used, h in zip(self.usage, self.history)
        ]
        return self.seg_cost

    def accrue_history(self, increment: float = 1.0) -> None:
        """Add history cost on every currently over-used segment."""
        width = self.channel_width
        history = self.history
        accrued = False
        for s, used in enumerate(self.usage):
            if used > width:
                history[s] += increment * (used - width)
                accrued = True
        if accrued:
            self.has_history = True
        self.seg_cost = None

    def overuse_flags(self) -> bytearray:
        """One byte per segment: 1 where the segment is over capacity."""
        width = self.channel_width
        return bytearray(used > width for used in self.usage)
