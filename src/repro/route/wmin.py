"""W_min search engine: warm-started, bound-pruned, replay-confirmed.

Section VII's evaluation protocol needs ``W_min`` — the smallest channel
width the router can legally route — for every circuit, and the naive
way to get it (cold galloping bisection, one full PathFinder negotiation
per probed width) dominates the whole benchmark run.  This module keeps
the *protocol answer* bit-identical while restructuring the search
around three ideas:

1. **Demand lower bound** (:func:`demand_lower_bound`).  Two families of
   certificates prove widths unroutable for *any* router: a slot whose
   ``k`` incident nets must share its ``deg`` adjacent channels forces
   ``w >= ceil(k / deg)``, and a grid cut that ``c`` nets must cross on
   ``s`` crossing segments forces ``w >= ceil(c / s)``.  The search
   never probes below the bound — the certificate *is* the probe.

2. **Warm-started probes** (:func:`_warm_probe`).  A single ``W∞`` route
   yields both an upper bound (its maximum per-channel demand is a width
   at which that very solution is legal) and an initial solution.  Each
   probe at a lower width starts from the best legal solution found so
   far plus its decayed history costs, rips up only the nets crossing
   now-illegal segments, and negotiates incrementally — PathFinder
   converges far faster from a near-legal state than from scratch.

3. **Early-abort negotiation, replay-verified confirmation.**  A warm
   probe whose over-use stops improving for :data:`_PLATEAU_ABORT`
   consecutive iterations is declared hopeless and abandoned — warm
   probes only *steer* the bisection; they never decide the returned
   width.  The candidate the warm search converges to is then
   confirmed: the success side stays an exact **cold probe** at the
   candidate (the same ``route_design`` call the reference protocol
   makes — cheap, success probes converge fast), while the expensive
   failure side at ``candidate - 1`` is replaced by a **replay-verified
   pair** — the candidate's solution is independently re-verified to be
   legal (usage rebuilt from the routes, overuse recomputed from it),
   and a *full-effort* probe (plateau abort disabled) seeded
   from the pristine ``W∞`` solution with no history replays the
   descent to ``candidate - 1``.  The history-free seed is deliberate:
   it is the trajectory closest to the cold probe the replay stands in
   for, where the warm state's accrued history can wedge the descent a
   fresh start completes.  A replay success means the warm search
   overshot: the candidate slides down onto the replay's solution and
   is confirmed again.  A replay failure is taken for the cold failure
   it replays — the protocol's one assumption, sibling to the
   monotone-routability assumption the reference bisection itself
   makes, and enforced empirically by the width-equality suites.  Any
   observable mismatch (verification failure, or the candidate failing
   its cold probe) falls back to full cold probes, so the returned
   width matches the reference protocol — galloping bisection over cold
   ``route_design`` probes, kept as a parity oracle in
   ``tests/route/oracle.py`` — including its quirk of raising when
   ``W_min`` exceeds the largest power-of-two gallop probe
   ``<= max_width``.

Every probe runs in the caller's process.  Everything reports into
``repro.perf`` under ``route.wmin.*`` (probe counts, plateau aborts,
confirmation mismatches) and the phase timers double as trace spans
when a tracer is attached.
"""

from __future__ import annotations

import math

from repro.arch.fpga import FpgaArch, Slot
from repro.netlist.netlist import Netlist
from repro.perf import PERF
from repro.place.placement import Placement
from repro.route.pathfinder import (
    _ripup_targets,
    _routable_nets,
    _route_design_fast,
    _route_net_fast,
    _SearchState,
)
from repro.route.rrgraph import IndexedRoutingGraph

#: Negotiation constants — must match ``route_design``'s defaults so the
#: cold confirmation probes replay the reference protocol exactly.
_PRESENT_FACTOR = 0.5
_PRESENT_GROWTH = 1.6
#: History decay applied when carrying congestion memory from a legal
#: solution at width ``w`` down to a probe at a lower width.
_HISTORY_DECAY = 0.5
#: Warm probes give up after this many consecutive non-improving
#: iterations.  Pruning only — never decides the returned width.
_PLATEAU_ABORT = 3

#: Net tuples as produced by ``pathfinder._routable_nets``.
NetItem = tuple[int, Slot, list[Slot], dict[Slot, float]]


# ----------------------------------------------------------------------
# Reference protocol boundary
# ----------------------------------------------------------------------


def _gallop_ceiling(max_width: int) -> int:
    """Largest width the reference gallop ever probes (its raise line)."""
    high = 1
    while high * 2 <= max_width:
        high *= 2
    return high


# ----------------------------------------------------------------------
# Demand lower bound
# ----------------------------------------------------------------------


def demand_lower_bound(ig: IndexedRoutingGraph, nets: list[NetItem]) -> int:
    """Provable lower bound on any legal channel width.

    Certificates (each valid for *any* router, including every probe the
    reference protocol makes, so skipping widths below the bound never
    changes a verdict):

    * **terminal incidence** — a net's route tree is connected and
      non-empty, so it uses at least one of the ``deg(t)`` channel
      segments incident to each of its terminal slots ``t``; ``k``
      distinct nets with a terminal on ``t`` therefore need
      ``w >= ceil(k / deg(t))``.
    * **bisection cuts** — a net whose terminals straddle the vertical
      cut between columns ``x`` and ``x + 1`` must cross one of that
      cut's segments (one per row), so ``c`` straddling nets on ``s``
      crossing segments need ``w >= ceil(c / s)``; likewise for
      horizontal cuts.
    """
    index = ig.slot_index
    grid_x = ig.arch.width + 1
    grid_y = ig.arch.height + 1
    counts = [0] * ig.num_slots
    vdiff = [0] * (grid_x + 2)
    hdiff = [0] * (grid_y + 2)
    for _net_id, source, sinks, _crits in nets:
        terminals = {index[source]}
        terminals.update(index[s] for s in sinks)
        min_x = min_y = math.inf
        max_x = max_y = -math.inf
        for t in terminals:
            counts[t] += 1
            x, y = ig.xs[t], ig.ys[t]
            if x < min_x:
                min_x = x
            if x > max_x:
                max_x = x
            if y < min_y:
                min_y = y
            if y > max_y:
                max_y = y
        if max_x > min_x:  # crosses every vertical cut in [min_x, max_x - 1]
            vdiff[min_x] += 1
            vdiff[max_x] -= 1
        if max_y > min_y:
            hdiff[min_y] += 1
            hdiff[max_y] -= 1

    bound = 1
    nbr_ptr = ig.nbr_ptr
    for i, k in enumerate(counts):
        if k:
            degree = nbr_ptr[i + 1] - nbr_ptr[i]
            if degree:
                need = -(-k // degree)
                if need > bound:
                    bound = need

    vcap = [0] * (grid_x + 2)
    hcap = [0] * (grid_y + 2)
    for a, b in ig.seg_slots:
        if a[0] != b[0]:  # horizontal segment crosses the cut at x = a[0]
            vcap[a[0]] += 1
        else:  # vertical segment crosses the cut at y = a[1]
            hcap[a[1]] += 1
    for diff, cap, limit in ((vdiff, vcap, grid_x), (hdiff, hcap, grid_y)):
        crossing = 0
        for cut in range(limit + 1):
            crossing += diff[cut]
            if crossing and cap[cut]:
                need = -(-crossing // cap[cut])
                if need > bound:
                    bound = need
    return bound


# ----------------------------------------------------------------------
# Warm-started probes
# ----------------------------------------------------------------------


def _indexed_items(ig: IndexedRoutingGraph, nets: list[NetItem]):
    index = ig.slot_index
    return [
        (
            net_id,
            index[source],
            [index[s] for s in sinks],
            {index[s]: c for s, c in crits.items()},
        )
        for net_id, source, sinks, crits in nets
    ]


def _route_winf(
    ig: IndexedRoutingGraph, items
) -> tuple[dict[int, list[int]], int]:
    """Route every net congestion-free; returns routes + peak demand."""
    state = _SearchState(ig.num_slots, ig.num_segments)
    routes = {}
    for net_id, source, sinks, crits in items:
        segs = _route_net_fast(
            ig, state, net_id, source, sinks, _PRESENT_FACTOR, crits
        )
        routes[net_id] = segs
        for s in segs:
            ig.occupy(s)
    if PERF.enabled:
        PERF.add("route.wmin.winf_pops", state.pops)
        PERF.add("route.wmin.winf_pushes", state.pushes)
    return routes, (max(ig.usage) if ig.usage else 0)


def _warm_probe(
    arch: FpgaArch,
    items,
    width: int,
    seg_routes: dict[int, list[int]],
    history: list[float] | None,
    max_iterations: int,
    full_effort: bool = False,
):
    """Negotiate ``width`` starting from a prior solution + decayed history.

    Installs the seed routes, rips up only the nets crossing segments
    that are over-used at the new width, and negotiates incrementally; a
    plateau of :data:`_PLATEAU_ABORT` non-improving iterations aborts
    the probe (after one full re-route attempt, mirroring the router's
    wedge recovery).  With ``full_effort`` the plateau abort is
    disabled and all ``max_iterations`` are spent (the replay-verified
    confirmation's failure-side probe).  Returns ``(success, routes,
    history, iterations, aborted, counters)``; the routes/history of a
    successful probe seed the next one.
    """
    ig = IndexedRoutingGraph(arch, width)
    state = _SearchState(ig.num_slots, ig.num_segments)
    if history is not None:
        decayed = [h * _HISTORY_DECAY for h in history]
        ig.history = decayed
        ig.has_history = max(decayed, default=0.0) > 0.0
    routes = {net_id: list(segs) for net_id, segs in seg_routes.items()}
    occupy, release = ig.occupy, ig.release
    for segs in routes.values():
        for s in segs:
            occupy(s)

    pres = _PRESENT_FACTOR
    prev_overuse = None
    stall = 0
    full_reroute = False  # the warm seed is the point: start incremental
    success = False
    aborted = False
    iterations = 0
    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        if full_reroute:
            targets = items
        else:
            targets = _ripup_targets(ig, items, routes)
        if not ig.uniform_cost():
            ig.refresh_costs(pres)
        for net_id, source, sink_ids, crit_ids in targets:
            old = routes[net_id]
            for s in old:
                release(s)
            segs = _route_net_fast(
                ig, state, net_id, source, sink_ids, pres, crit_ids,
                old_segs=old,
            )
            routes[net_id] = segs
            for s in segs:
                occupy(s)
        overuse = ig.total_overuse()
        if overuse == 0:
            success = True
            break
        if prev_overuse is not None and overuse >= prev_overuse:
            stall += 1
            if not full_effort and stall >= _PLATEAU_ABORT:
                aborted = True
                break
            full_reroute = True  # wedged on the reduced move set
        else:
            stall = 0
            full_reroute = False
        prev_overuse = overuse
        ig.accrue_history()
        pres *= _PRESENT_GROWTH
    counters = {
        "route.wmin.warm_probes": 1,
        "route.wmin.warm_iterations": iterations,
        "route.search_pops": state.pops,
        "route.search_pushes": state.pushes,
        "route.search_stale": state.stale,
    }
    if aborted:
        counters["route.wmin.aborted_probes"] = 1
    return success, routes, ig.history, iterations, aborted, counters


def _verify_solution(
    num_segments: int, routes: dict[int, list[int]], width: float
) -> bool:
    """Independently re-check that a solution is legal at ``width``.

    Rebuilds the per-segment usage vector from the routes alone (no
    incremental bookkeeping is trusted) and checks that no segment is
    over-used — the replay-verification half of the confirmation
    protocol.
    """
    usage = [0] * num_segments
    for segs in routes.values():
        for s in segs:
            usage[s] += 1
    return max(usage, default=0) <= width


# ----------------------------------------------------------------------
# Cold probes (the reference protocol's oracle, verdict-identical)
# ----------------------------------------------------------------------


def _cold_probe(
    arch: FpgaArch, nets: list[NetItem], width: int, max_iterations: int
) -> bool:
    """One full-effort cold probe — the same router call, on the same
    deterministic net list, that ``route_design`` would make, so the
    verdict matches the reference protocol's probe at this width."""
    return _route_design_fast(
        arch, nets, width, max_iterations, _PRESENT_FACTOR, _PRESENT_GROWTH
    ).success


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


def find_min_channel_width_fast(
    netlist: Netlist,
    placement: Placement,
    max_width: int = 128,
    max_iterations: int = 16,
    start_width: int | None = None,
) -> int:
    """Warm-started, bound-pruned W_min search.

    Returns the same width as the reference galloping bisection (under
    its own monotone-routability assumption), for any ``start_width``
    hint; see the module docstring for the protocol.
    """
    arch = placement.arch
    nets = _routable_nets(netlist, placement, True)
    ceiling = _gallop_ceiling(max_width)
    if not nets:
        return 1  # reference: the width-1 probe trivially succeeds
    template = IndexedRoutingGraph(arch, math.inf)
    lower = demand_lower_bound(template, nets)
    if PERF.enabled:
        PERF.add("route.wmin.searches")
    if lower > ceiling:
        # Certified unroutable everywhere the reference gallop probes.
        raise RuntimeError(f"unroutable even at channel width {max_width}")

    cold_cache: dict[int, bool] = {}

    def cold(width: int) -> bool:
        if width < lower:
            return False  # the bound is the certificate — no probe
        if width not in cold_cache:
            with PERF.timer("route.wmin.confirm"):
                cold_cache[width] = _cold_probe(
                    arch, nets, width, max_iterations
                )
            if PERF.enabled:
                PERF.add("route.wmin.cold_probes")
        return cold_cache[width]

    def cold_bisect(low: int, high: int) -> int:
        """Plain bisection on the cold oracle; ``high`` is known good."""
        while low < high:
            mid = (low + high) // 2
            if cold(mid):
                high = mid
            else:
                low = mid + 1
        return high

    replay_cache: dict[int, tuple] = {}

    def replay_probe(width: int, seed_routes, seed_hist):
        """Full-effort seeded probe (the confirmation's failure side).

        Probes from the pristine history-free W∞ seed are
        memoized: the probe is deterministic in ``width`` for that
        seed, so phase A's terminal boundary step and phase B's
        confirmation replay at the same width share one run.
        """
        cacheable = seed_routes is winf_routes and seed_hist is None
        if cacheable and width in replay_cache:
            if PERF.enabled:
                PERF.add("route.wmin.replay_cache_hits")
            return replay_cache[width]
        with PERF.timer("route.wmin.replay"):
            ok, routes, hist, _iters, _aborted, counters = _warm_probe(
                arch, items, width, seed_routes, seed_hist,
                max_iterations, full_effort=True,
            )
        if PERF.enabled:
            counters = dict(counters)
            # A replay is its own probe class, not a warm probe.
            counters.pop("route.wmin.warm_probes", None)
            PERF.merge_counts(counters)
            PERF.add("route.wmin.replay_probes")
        result = (ok, routes, hist)
        if cacheable:
            replay_cache[width] = result
        return result

    # The W∞ solution seeds both the hint check and the warm search.
    with PERF.timer("route.wmin.winf"):
        items = _indexed_items(template, nets)
        warm_routes, peak = _route_winf(template, items)
    warm_hist: list[float] | None = None
    # Pristine W∞ snapshot: probe seeds are never mutated (each probe
    # copies them), so holding the reference is enough.  The
    # confirmation replays from this history-free seed only.
    winf_routes = warm_routes

    # --- start-width hint: one cold probe + one replay probe ----------
    hi = None
    if start_width is not None:
        hinted = max(lower, min(start_width, ceiling))
        if cold(hinted):
            if hinted - 1 < lower:
                if PERF.enabled:
                    PERF.add("route.wmin.hint_hits")
                return hinted
            ok_below, routes, hist = replay_probe(
                hinted - 1, warm_routes, warm_hist
            )
            if not ok_below:
                # Same verdict the reference hint path reaches with
                # a second cold probe (see phase B's exactness
                # argument: a full-effort seeded probe that fails is
                # taken as the cold failure it replays).
                if PERF.enabled:
                    PERF.add("route.wmin.hint_hits")
                return hinted
            # Hint too high: the replay probe found a legal
            # solution below it — bisect down from there.
            warm_routes, warm_hist = routes, hist
            hi = hinted - 1
        # Mis-hint low: the cold cache keeps what we learned; fall
        # through to the full search.

    # --- phase A: warm candidate search -------------------------------
    candidate = ceiling
    if hi is None:
        if peak <= ceiling:
            hi = peak  # the W∞ solution itself is legal at this width
        else:
            success, routes, hist, _iters, _aborted, counters = _warm_probe(
                arch, items, ceiling, warm_routes, None, max_iterations
            )
            if PERF.enabled:
                PERF.merge_counts(counters)
            if success:
                hi = ceiling
                warm_routes, warm_hist = routes, hist
            else:
                hi = None  # no warm solution at all: cold probes decide
    if hi is not None:
        with PERF.timer("route.wmin.search"):
            lo = lower
            while lo < hi:
                mid = (lo + hi) // 2
                success, routes, hist, _iters, _aborted, counters = _warm_probe(
                    arch, items, mid, warm_routes, warm_hist, max_iterations
                )
                if PERF.enabled:
                    PERF.merge_counts(counters)
                if success:
                    hi = mid
                    warm_routes, warm_hist = routes, hist
                else:
                    lo = mid + 1
            candidate = hi

    # --- phase B: replay-verified confirmation ------------------------
    # The reference protocol's last two probes are cold routes at
    # ``candidate`` (succeeds) and ``candidate - 1`` (fails).  The
    # success side stays an exact cold probe — success probes
    # converge in a handful of iterations, so it is cheap.  The
    # failure side — the expensive probe, a full ``max_iterations``
    # cold negotiation — is replaced by a *replay-verified* pair:
    # the warm solution is independently re-checked to be legal at
    # ``candidate`` (so the width we are about to certify has a real
    # solution), and a full-effort probe seeded from the pristine
    # W∞ solution replays the descent to ``candidate - 1``.  If
    # that replay *succeeds*, the warm search overshot: slide the
    # candidate down onto the replay's solution and confirm again
    # (each slide strictly decreases the candidate, so this
    # terminates).  If it *fails*, its verdict is taken for the
    # cold failure it replays — the one assumption in the
    # protocol, sibling to the monotone-routability assumption
    # the reference bisection itself makes, and enforced empirically
    # by the width-equality suites.  Any observable mismatch
    # (verification failure, or the candidate failing its cold
    # probe) falls back to the full cold protocol below, unchanged.
    if hi is not None:
        while True:
            if candidate - 1 < lower:
                if cold(candidate):
                    return candidate
                break  # cold gallop decides below
            if not _verify_solution(
                template.num_segments, warm_routes, candidate
            ):
                if PERF.enabled:
                    PERF.add("route.wmin.verify_failures")
                break  # distrust the warm state entirely
            # Replay from the pristine W∞ seed with no history —
            # the same seed the hint path replays from, and the
            # trajectory closest to the cold probe this stands in
            # for.  The warm state's accrued history can wedge the
            # descent where a fresh start does not (observed on
            # misex3), so it is never used as a replay seed.
            ok_below, routes, hist = replay_probe(
                candidate - 1, winf_routes, None
            )
            if ok_below:
                candidate -= 1
                warm_routes, warm_hist = routes, hist
                if PERF.enabled:
                    PERF.add("route.wmin.replay_slides")
                continue
            if cold(candidate):
                return candidate
            break  # cold gallop decides below

    # --- fallback: the original cold confirmation ---------------------
    if candidate - 1 < lower or cold_cache.get(candidate) is False:
        ok, ok_below = cold(candidate), False
    else:
        ok, ok_below = cold(candidate), cold(candidate - 1)
    if ok and not ok_below:
        return candidate
    if PERF.enabled:
        PERF.add("route.wmin.confirm_mismatch")
    if ok:  # candidate - 1 also cold-routes: the answer is below
        return cold_bisect(lower, candidate - 1)
    # The candidate itself doesn't cold-route: gallop the cold
    # oracle upward, mirroring the reference schedule (and its
    # raise boundary at the gallop ceiling).
    low = candidate + 1
    width = low
    high = None
    while width <= ceiling:
        if cold(width):
            high = width
            break
        low = width + 1
        if width == ceiling:
            break
        width = min(width * 2, ceiling)
    if high is None:
        raise RuntimeError(f"unroutable even at channel width {max_width}")
    return cold_bisect(low, high)
