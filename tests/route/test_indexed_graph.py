"""Equivalence tests: IndexedRoutingGraph mirrors RoutingGraph exactly.

The router's parity argument rests on the indexed graph being a
relabelling of the reference graph (:mod:`tests.route.oracle`) — same
slots, same probe order, same segment pricing — plus correct
incremental bookkeeping (wirelength, over-use, the at-capacity count
behind ``uniform_cost``) and a priced cost vector that always equals the
per-segment formula.
"""

from __future__ import annotations

import math
import random

from repro.arch import FpgaArch
from repro.route import IndexedRoutingGraph
from repro.route.pathfinder import _ripup_targets

from tests.route.oracle import RoutingGraph, segment


def graphs(width=5, height=4, channel_width=2.0):
    arch = FpgaArch(width, height)
    return RoutingGraph(arch, channel_width), IndexedRoutingGraph(arch, channel_width)


class TestStructure:
    def test_slot_numbering_is_sorted_tuple_order(self):
        ref, ig = graphs()
        assert ig.slots == ref.slots()
        assert ig.slots == sorted(ig.slots)
        for i, slot in enumerate(ig.slots):
            assert ig.slot_index[slot] == i
            assert (ig.xs[i], ig.ys[i]) == slot

    def test_neighbour_probe_order_matches_reference(self):
        """CSR rows replay the reference's (+x, -x, +y, -y) probe order."""
        ref, ig = graphs()
        for i, slot in enumerate(ig.slots):
            row = [
                ig.slots[ig.nbr_slot[k]]
                for k in range(ig.nbr_ptr[i], ig.nbr_ptr[i + 1])
            ]
            assert row == ref.neighbours(slot), f"slot {slot}"
            adj_row = [ig.slots[v] for v, _s, _x, _y in ig.adj[i]]
            assert adj_row == row, f"slot {slot}: adj tuple diverged from CSR"

    def test_segment_ids_ascending_canonical(self):
        _ref, ig = graphs()
        assert ig.seg_slots == sorted(ig.seg_slots)
        assert len(set(ig.seg_slots)) == ig.num_segments
        for a, b in ig.seg_slots:
            assert segment(a, b) == (a, b)
        # Every CSR edge carries the id of its canonical segment.
        for i, slot in enumerate(ig.slots):
            for k in range(ig.nbr_ptr[i], ig.nbr_ptr[i + 1]):
                nbr = ig.slots[ig.nbr_slot[k]]
                assert ig.seg_slots[ig.nbr_seg[k]] == segment(slot, nbr)


class TestPricingEquivalence:
    def test_congestion_cost_bitwise_equal_under_random_state(self):
        """Randomized usage/history: both graphs price every segment to
        the exact same float, at several present factors."""
        ref, ig = graphs(channel_width=2.0)
        rng = random.Random(5)
        for seg_id, seg in enumerate(ig.seg_slots):
            for _ in range(rng.randint(0, 4)):
                ref.occupy(seg)
                ig.occupy(seg_id)
            if rng.random() < 0.3:
                h = rng.uniform(0.1, 3.0)
                ref.history[seg] = h
                ig.history[seg_id] = h
        for pf in (0.5, 0.8, 1.6, 4.096):
            for seg_id, seg in enumerate(ig.seg_slots):
                assert ig.congestion_cost(seg_id, pf) == ref.congestion_cost(seg, pf)

    def test_accrue_history_matches(self):
        ref, ig = graphs(channel_width=1.0)
        rng = random.Random(9)
        for seg_id, seg in enumerate(ig.seg_slots):
            for _ in range(rng.randint(0, 3)):
                ref.occupy(seg)
                ig.occupy(seg_id)
        ref.accrue_history()
        ig.accrue_history()
        for seg_id, seg in enumerate(ig.seg_slots):
            assert ig.history[seg_id] == ref.history.get(seg, 0.0)


class TestOccupancyBookkeeping:
    def test_totals_match_reference_through_random_churn(self):
        ref, ig = graphs(channel_width=2.0)
        rng = random.Random(17)
        live: list[int] = []
        for _ in range(400):
            if live and rng.random() < 0.4:
                seg_id = live.pop(rng.randrange(len(live)))
                ref.release(ig.seg_slots[seg_id])
                ig.release(seg_id)
            else:
                seg_id = rng.randrange(ig.num_segments)
                live.append(seg_id)
                ref.occupy(ig.seg_slots[seg_id])
                ig.occupy(seg_id)
            assert ig.total_wirelength() == ref.total_wirelength()
            assert ig.total_overuse() == ref.total_overuse()

    def test_overuse_flags_listing(self):
        _ref, ig = graphs(channel_width=1.0)
        ig.occupy(3)
        ig.occupy(3)
        ig.occupy(7)
        flags = ig.overuse_flags()
        assert len(flags) == ig.num_segments
        assert [s for s, flag in enumerate(flags) if flag] == [3]
        ig.release(3)
        assert not any(ig.overuse_flags())

    def test_uniform_cost_flips_at_capacity_not_overuse(self):
        """A segment at exactly full capacity already prices its next
        user above 1.0, so uniform_cost must go False before any
        over-use exists."""
        _ref, ig = graphs(channel_width=2.0)
        assert ig.uniform_cost()
        ig.occupy(0)
        assert ig.uniform_cost()  # 1 of 2 tracks: next user still free
        ig.occupy(0)
        assert ig.total_overuse() == 0
        assert not ig.uniform_cost()  # full: next user pays present cost
        ig.release(0)
        assert ig.uniform_cost()

    def test_history_disables_uniform_cost_permanently(self):
        _ref, ig = graphs(channel_width=1.0)
        ig.occupy(0)
        ig.occupy(0)
        ig.accrue_history()
        ig.release(0)
        ig.release(0)
        assert not ig.uniform_cost()  # history cost lingers on the segment


class TestCostCache:
    """The seg_cost cache must always equal a fresh per-segment pricing."""

    def assert_cache_fresh(self, ig, pres):
        expect = [ig.congestion_cost(s, pres) for s in range(ig.num_segments)]
        assert ig.seg_cost == expect

    def test_refresh_prices_every_segment(self):
        arch = FpgaArch(5, 4)
        ig = IndexedRoutingGraph(arch, 2.0)
        assert ig.seg_cost is None
        costs = ig.refresh_costs(0.5)
        assert costs is ig.seg_cost
        self.assert_cache_fresh(ig, 0.5)

    def test_priced_vector_equals_congestion_cost(self):
        """Random usage/history at integer and fractional widths, with
        segments forced exactly at and one over capacity (the branch
        edges): every priced entry equals ``congestion_cost`` exactly."""
        rng = random.Random(12)
        for width in (1.0, 2.0, 3.0, 7.5):
            ig = IndexedRoutingGraph(FpgaArch(5, 4), width)
            for seg_id in range(ig.num_segments):
                ig.usage[seg_id] = rng.randint(0, 8)
                if rng.random() < 0.6:
                    ig.history[seg_id] = rng.uniform(0.0, 40.0)
            for _ in range(ig.num_segments // 10):
                ig.usage[rng.randrange(ig.num_segments)] = int(width)
                ig.usage[rng.randrange(ig.num_segments)] = int(width) + 1
            for pres in (0.5, 1.28, 13.1072):
                ig.refresh_costs(pres)
                self.assert_cache_fresh(ig, pres)

    def test_infinite_width_prices_one_plus_history(self):
        """W∞ prices every segment at ``1 + history`` and never accrues."""
        ig = IndexedRoutingGraph(FpgaArch(5, 4), math.inf)
        rng = random.Random(3)
        for seg_id in range(ig.num_segments):
            ig.usage[seg_id] = rng.randint(0, 17)
            ig.history[seg_id] = float(rng.randint(0, 5))
        history = list(ig.history)
        costs = ig.refresh_costs(0.5)
        assert costs == [1.0 + h for h in history]
        ig.accrue_history()
        assert ig.history == history
        assert not ig.has_history
        assert not any(ig.overuse_flags())

    def test_occupy_release_keep_cache_exact(self):
        """Random churn after a refresh: every touched entry stays equal
        to what a cold re-pricing would produce."""
        arch = FpgaArch(5, 4)
        ig = IndexedRoutingGraph(arch, 2.0)
        rng = random.Random(23)
        for seg_id in range(ig.num_segments):
            if rng.random() < 0.3:
                ig.history[seg_id] = rng.uniform(0.1, 4.0)
        ig.refresh_costs(0.8)
        live: list[int] = []
        for _ in range(200):
            if live and rng.random() < 0.4:
                ig.release(live.pop(rng.randrange(len(live))))
            else:
                seg_id = rng.randrange(ig.num_segments)
                live.append(seg_id)
                ig.occupy(seg_id)
        self.assert_cache_fresh(ig, 0.8)

    def test_accrue_history_invalidates_cache(self):
        arch = FpgaArch(5, 4)
        ig = IndexedRoutingGraph(arch, 1.0)
        ig.refresh_costs(0.5)
        ig.occupy(0)
        ig.occupy(0)
        ig.accrue_history()
        assert ig.seg_cost is None  # stale: history changed wholesale
        ig.refresh_costs(0.5)
        self.assert_cache_fresh(ig, 0.5)

    def test_refresh_tracks_present_factor(self):
        """Re-pricing at a different factor replaces the cache, and
        occupy/release updates use the new factor."""
        arch = FpgaArch(5, 4)
        ig = IndexedRoutingGraph(arch, 1.0)
        ig.refresh_costs(0.5)
        ig.refresh_costs(0.8)
        assert ig._cost_pres == 0.8
        ig.occupy(0)
        ig.occupy(0)  # second track of a width-1 channel: congested entry
        self.assert_cache_fresh(ig, 0.8)


class TestSearchCounters:
    def test_pops_never_exceed_pushes(self):
        """The incumbent-bound push gate must only ever *suppress*
        pushes — a popped entry always corresponds to a prior push."""
        from repro.perf import PERF
        from repro.route.pathfinder import route_design

        from tests.route.test_parity import random_circuit

        nl, placement = random_circuit(2)
        PERF.reset()
        PERF.enable()
        try:
            result = route_design(nl, placement, 3)
            snap = PERF.snapshot()["counters"]
        finally:
            PERF.disable()
            PERF.reset()
        assert result.routes  # the run actually searched
        pops = snap.get("route.search_pops", 0)
        pushes = snap.get("route.search_pushes", 0)
        assert pushes > 0
        assert pops <= pushes
        assert snap.get("route.search_stale", 0) <= pops


class TestRipupTargets:
    """Incremental negotiation re-routes exactly the nets that cross an
    over-used segment."""

    def test_nets_crossing_overuse_selected_in_order(self):
        ig = IndexedRoutingGraph(FpgaArch(5, 4), 1.0)
        ig.occupy(3)
        ig.occupy(3)
        items = [(10, 0), (11, 0), (12, 0)]
        routes = {10: [1, 3], 11: [2, 4], 12: [3]}
        assert _ripup_targets(ig, items, routes) == [(10, 0), (12, 0)]

    def test_empty_routes_select_no_targets(self):
        ig = IndexedRoutingGraph(FpgaArch(5, 4), 1.0)
        ig.occupy(0)
        ig.occupy(0)
        items = [(0, 0), (1, 1)]
        assert _ripup_targets(ig, items, {0: [], 1: []}) == []
