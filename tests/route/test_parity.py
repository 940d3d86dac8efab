"""Property tests: the router is faithful to the reference router.

The router's contract (see ``repro.route.pathfinder``; the reference
router lives in :mod:`tests.route.oracle`):

* ``W∞`` (uniform-cost) routing is **bit-identical** to the reference —
  same segments, same sink hops, same routed critical delay — for any
  placement, and for any ``jobs`` count.
* Congested negotiation in *exact mode* replays the reference router
  decision-for-decision.
* The default (heuristic) schedule never fails at a channel width where
  the reference succeeds, so the negotiated minimum channel width is
  never worse.
"""

from __future__ import annotations

import math
import random

import repro.route.pathfinder as pathfinder
from repro.arch import FpgaArch
from repro.netlist import Netlist
from repro.place import random_placement
from repro.route import route_design
from repro.route.metrics import routed_critical_delay

from tests.route.oracle import _route_design_reference, route_design_reference


def random_circuit(seed: int):
    """A small random LUT/FF netlist randomly placed on a fitting grid."""
    rng = random.Random(seed)
    nl = Netlist(f"rand{seed}")
    drivers = [nl.add_input(f"i{k}") for k in range(rng.randint(2, 5))]
    ffs = [nl.add_ff(f"ff{k}") for k in range(rng.randint(0, 3))]
    drivers += ffs
    for k in range(rng.randint(8, 24)):
        fanin = rng.randint(1, min(3, len(drivers)))
        lut = nl.add_lut(f"l{k}", fanin, rng.randrange(1, 1 << (1 << fanin)))
        for pin in range(fanin):
            nl.connect(rng.choice(drivers), lut, pin)
        drivers.append(lut)
    for ff in ffs:
        nl.connect(rng.choice(drivers), ff, 0)
    for k in range(rng.randint(1, 4)):
        nl.connect(rng.choice(drivers), nl.add_output(f"o{k}"), 0)
    side = 3
    while side * side < nl.num_logic_blocks or 4 * side < nl.num_pads:
        side += 1
    side += rng.randint(0, 2)
    arch = FpgaArch(side, side)
    placement = random_placement(nl, arch, seed=seed)
    return nl, placement


def reference_min_width(nets, arch, max_iterations: int = 16) -> int:
    """Binary-search the reference router's minimum channel width."""
    lo, hi, best = 1, 64, 64
    while lo <= hi:
        mid = (lo + hi) // 2
        ok = _route_design_reference(
            arch, nets, mid, max_iterations, 0.5, 1.6
        ).success
        if ok:
            best, hi = mid, mid - 1
        else:
            lo = mid + 1
    return best


def fast_min_width(nets, arch, max_iterations: int = 16) -> int:
    lo, hi, best = 1, 64, 64
    while lo <= hi:
        mid = (lo + hi) // 2
        ok = pathfinder._route_design_fast(
            arch, nets, mid, max_iterations, 0.5, 1.6
        ).success
        if ok:
            best, hi = mid, mid - 1
        else:
            lo = mid + 1
    return best


class TestWinfBitIdentity:
    def test_winf_matches_reference_over_many_seeds(self):
        """60 random placements: segments, hops, wirelength and routed
        critical delay are all bit-identical between routers."""
        for seed in range(60):
            nl, placement = random_circuit(seed)
            ref = route_design_reference(
                nl, placement, math.inf, max_iterations=1
            )
            fast = route_design(nl, placement, math.inf, max_iterations=1)
            assert fast.success and ref.success
            assert fast.total_wirelength == ref.total_wirelength, f"seed {seed}"
            assert set(fast.routes) == set(ref.routes), f"seed {seed}"
            for net_id, r in ref.routes.items():
                f = fast.routes[net_id]
                assert f.segments == r.segments, f"seed {seed} net {net_id}"
                assert f.sink_hops == r.sink_hops, f"seed {seed} net {net_id}"
                assert f.wirelength == r.wirelength, f"seed {seed} net {net_id}"
            dr = routed_critical_delay(nl, placement, ref).critical_delay
            df = routed_critical_delay(nl, placement, fast).critical_delay
            assert df == dr, f"seed {seed}"


class TestParallelWinf:
    def test_jobs_do_not_change_results(self):
        """Parallel W∞ is bit-identical for jobs in {1, 2, 4}."""
        for seed in (0, 3, 11, 27):
            nl, placement = random_circuit(seed)
            serial = route_design(nl, placement, math.inf, max_iterations=1)
            for jobs in (1, 2, 4):
                par = route_design(
                    nl, placement, math.inf, max_iterations=1, jobs=jobs
                )
                assert par.success
                assert par.total_wirelength == serial.total_wirelength
                assert list(par.routes) == list(serial.routes), (
                    f"seed {seed} jobs {jobs}: net order differs"
                )
                for net_id, r in serial.routes.items():
                    p = par.routes[net_id]
                    assert p.segments == r.segments, f"seed {seed} jobs {jobs}"
                    assert p.sink_hops == r.sink_hops, f"seed {seed} jobs {jobs}"


class TestCongestedParity:
    def test_exact_mode_replays_reference(self):
        """Exact mode equals the reference under real congestion: same
        success, same iteration count, identical per-net segments."""
        checked = 0
        for seed in range(12):
            nl, placement = random_circuit(seed)
            nets = pathfinder._routable_nets(nl, placement, True)
            ref = _route_design_reference(
                placement.arch, nets, 2, 16, 0.5, 1.6
            )
            if ref.iterations <= 1:
                continue  # never congested; covered by the W∞ tests
            checked += 1
            fast = pathfinder._route_design_fast(
                placement.arch, nets, 2, 16, 0.5, 1.6, exact=True
            )
            assert fast.success == ref.success, f"seed {seed}"
            assert fast.iterations == ref.iterations, f"seed {seed}"
            assert fast.total_wirelength == ref.total_wirelength, f"seed {seed}"
            for net_id, r in ref.routes.items():
                assert fast.routes[net_id].segments == r.segments, (
                    f"seed {seed} net {net_id}"
                )
        assert checked >= 3  # the sweep actually exercised congestion

    def test_min_width_never_worse_than_reference(self):
        """The router's negotiated minimum channel width is no worse
        than the reference router's (exact-fallback guarantee)."""
        for seed in range(15):
            nl, placement = random_circuit(seed)
            nets = pathfinder._routable_nets(nl, placement, True)
            w_ref = reference_min_width(nets, placement.arch)
            w_fast = fast_min_width(nets, placement.arch)
            assert w_fast <= w_ref, f"seed {seed}: {w_fast} > {w_ref}"

    def test_heap_conservation_pops_never_exceed_pushes(self):
        """Heap accounting: every pop is of a pushed entry, so pops can
        never exceed pushes — and with target-key push pruning the two
        should stay close (the search before the gate pushed ~46% more
        than it popped)."""
        from repro.perf import PERF

        PERF.reset()
        PERF.enable()
        try:
            for seed in range(8):
                nl, placement = random_circuit(seed)
                nets = pathfinder._routable_nets(nl, placement, True)
                for width in (2, 3):
                    pathfinder._route_design_fast(
                        placement.arch, nets, width, 16, 0.5, 1.6
                    )
            snap = PERF.snapshot()["counters"]
        finally:
            PERF.disable()
            PERF.reset()
        pushes = snap.get("route.search_pushes", 0)
        pops = snap.get("route.search_pops", 0)
        assert pushes > 0
        assert pops <= pushes, f"{pops} pops > {pushes} pushes"
        # Stale skips are the pushes that were superseded before popping.
        assert snap.get("route.search_stale", 0) <= pops

    def test_fast_succeeds_wherever_reference_does(self):
        """Direct statement of the fallback invariant at a fixed width."""
        for seed in range(15):
            nl, placement = random_circuit(seed)
            nets = pathfinder._routable_nets(nl, placement, True)
            for width in (1, 2, 3):
                ref = _route_design_reference(
                    placement.arch, nets, width, 16, 0.5, 1.6
                )
                if not ref.success:
                    continue
                fast = pathfinder._route_design_fast(
                    placement.arch, nets, width, 16, 0.5, 1.6
                )
                assert fast.success, f"seed {seed} width {width}"
