"""W_min search engine tests.

Three layers:

* **Protocol property tests** — the reference protocol's
  :func:`~tests.route.oracle.galloping_bisect` against a synthetic
  monotone-routability oracle: returns the true boundary, raises above
  the gallop ceiling, handles width-1-routable designs.
* **Engine equality** — the fast engine (warm probes, bounds, replay
  confirmation, hints) returns exactly the reference protocol's width
  on random circuits, for any ``start_width``.
* **Full-suite equality** — all 20 suite circuits at a small scale,
  behind the ``slow`` marker (``pytest -m slow``).
"""

from __future__ import annotations

import math

import pytest

from repro.perf import PERF
from repro.route.metrics import find_min_channel_width
from repro.route.pathfinder import _routable_nets
from repro.route.rrgraph import IndexedRoutingGraph
from repro.route.wmin import demand_lower_bound, find_min_channel_width_fast

from tests.route.oracle import galloping_bisect, min_channel_width_reference
from tests.route.test_parity import random_circuit


class CountingOracle:
    """Monotone synthetic oracle: routable iff ``width >= boundary``."""

    def __init__(self, boundary: int) -> None:
        self.boundary = boundary
        self.probes: list[int] = []

    def __call__(self, width: int) -> bool:
        self.probes.append(width)
        return width >= self.boundary


class TestGallopingBisectOracle:
    def test_returns_true_boundary(self):
        """Every reachable boundary is returned exactly."""
        for max_width in (1, 2, 7, 16, 100, 128):
            ceiling = 1
            while ceiling * 2 <= max_width:
                ceiling *= 2
            for boundary in range(1, ceiling + 1):
                oracle = CountingOracle(boundary)
                assert galloping_bisect(oracle, max_width) == boundary

    def test_width_one_routable_single_probe(self):
        oracle = CountingOracle(1)
        assert galloping_bisect(oracle, 128) == 1
        assert oracle.probes == [1]

    def test_raises_above_gallop_ceiling(self):
        """The protocol gallops powers of two only, so a boundary above
        the largest power of two <= max_width raises — even when the
        boundary itself is <= max_width.  The fast engine reproduces
        this quirk."""
        with pytest.raises(RuntimeError, match="unroutable even at channel width 128"):
            galloping_bisect(CountingOracle(129), 128)
        # max_width 100: gallop tops out at 64, so 65..100 still raise.
        with pytest.raises(RuntimeError, match="unroutable even at channel width 100"):
            galloping_bisect(CountingOracle(65), 100)
        # ... while 64 itself is found.
        assert galloping_bisect(CountingOracle(64), 100) == 64

    def test_probe_count_is_logarithmic(self):
        oracle = CountingOracle(97)
        assert galloping_bisect(oracle, 256) == 97
        assert len(oracle.probes) <= 2 * math.ceil(math.log2(256)) + 2


class TestDemandLowerBound:
    def test_bound_is_sound_on_random_circuits(self):
        """The certificate never exceeds the measured W_min."""
        for seed in range(10):
            nl, placement = random_circuit(seed)
            nets = _routable_nets(nl, placement, True)
            ig = IndexedRoutingGraph(placement.arch, math.inf)
            bound = demand_lower_bound(ig, nets)
            assert bound >= 1
            wmin = min_channel_width_reference(nl, placement, max_width=64)
            assert bound <= wmin, f"seed {seed}: bound {bound} > W_min {wmin}"


class TestEngineEquality:
    def test_fast_matches_reference_on_random_circuits(self):
        for seed in range(10):
            nl, placement = random_circuit(seed)
            ref = min_channel_width_reference(nl, placement, max_width=64)
            fast = find_min_channel_width(nl, placement, max_width=64)
            assert fast == ref, f"seed {seed}: fast {fast} != reference {ref}"

    def test_start_width_hint_never_changes_width(self):
        """Exact, low, high and absurd hints all return the true width."""
        for seed in (2, 5):
            nl, placement = random_circuit(seed)
            truth = find_min_channel_width_fast(nl, placement, max_width=64)
            for hint in (truth, max(1, truth - 1), truth + 1, 1, 64):
                hinted = find_min_channel_width_fast(
                    nl, placement, max_width=64, start_width=hint
                )
                assert hinted == truth, f"seed {seed} hint {hint}"

    def test_raise_parity_at_tight_max_width(self):
        """The fast search and the reference protocol agree on
        raise-vs-width at small max_width
        (including the power-of-two gallop-ceiling quirk)."""
        for seed in range(6):
            nl, placement = random_circuit(seed)
            for max_width in (1, 2, 3):
                outcomes = []
                for search in (min_channel_width_reference, find_min_channel_width):
                    try:
                        outcomes.append(
                            ("ok", search(nl, placement, max_width=max_width))
                        )
                    except RuntimeError as exc:
                        outcomes.append(("raise", str(exc)))
                assert outcomes[0] == outcomes[1], (
                    f"seed {seed} max_width {max_width}: {outcomes}"
                )

    def test_exact_hint_takes_one_cold_probe(self):
        """An exact ``start_width`` hint confirms with a single cold
        probe at the hint plus (when the demand bound leaves room below)
        one replay-verified warm probe at hint-1 — never a second cold
        route and never a bisection."""
        for seed in (3, 5, 8):
            nl, placement = random_circuit(seed)
            truth = find_min_channel_width_fast(nl, placement, max_width=64)
            PERF.reset()
            PERF.enable()
            try:
                hinted = find_min_channel_width_fast(
                    nl, placement, max_width=64, start_width=truth
                )
                snap = PERF.snapshot()["counters"]
            finally:
                PERF.disable()
                PERF.reset()
            assert hinted == truth, f"seed {seed}"
            assert snap.get("route.wmin.hint_hits", 0) == 1, f"seed {seed}"
            assert snap.get("route.wmin.cold_probes", 0) <= 1, f"seed {seed}"
            assert snap.get("route.wmin.replay_probes", 0) <= 1, f"seed {seed}"
            assert snap.get("route.wmin.warm_probes", 0) == 0, f"seed {seed}"


@pytest.mark.slow
class TestFullSuiteEquality:
    def test_all_suite_circuits_fast_equals_reference(self):
        """All 20 MCNC suite circuits: the fast engine's width equals
        the reference cold bisection's, per the acceptance protocol."""
        from repro.bench.suite import suite_circuit, suite_names
        from repro.place.initial import random_placement

        mismatches = []
        for name in suite_names("all"):
            netlist, arch = suite_circuit(name, scale=0.02)
            placement = random_placement(netlist, arch, seed=0)
            ref = min_channel_width_reference(netlist, placement)
            fast = find_min_channel_width(netlist, placement)
            if fast != ref:
                mismatches.append((name, fast, ref))
        assert not mismatches, f"fast != reference on: {mismatches}"

    def test_all_suite_circuits_hint_matrix(self):
        """All 20 suite circuits: every ``start_width`` hint of the fast
        engine returns the identical width."""
        from repro.bench.suite import suite_circuit, suite_names
        from repro.place.initial import random_placement

        mismatches = []
        for name in suite_names("all"):
            netlist, arch = suite_circuit(name, scale=0.02)
            placement = random_placement(netlist, arch, seed=0)
            truth = find_min_channel_width_fast(netlist, placement)
            for hint in (truth, truth + 2):
                got = find_min_channel_width_fast(
                    netlist, placement, start_width=hint
                )
                if got != truth:
                    mismatches.append((name, hint, got, truth))
        assert not mismatches, f"width diverged on: {mismatches}"
