"""W_min search tests.

Four layers:

* **Protocol property tests** — the reference protocol's
  :func:`~tests.route.oracle.galloping_bisect` against a synthetic
  monotone-routability oracle: returns the true boundary, raises above
  the gallop ceiling, handles width-1-routable designs.
* **Search equality** — the scan up from the demand lower bound returns
  exactly the reference protocol's width on random circuits, and raises
  where it raises.
* **Pinned widths** — three timing-driven placements (spla at Table I's
  scale, seq at Table III's, one e2ebench draw) whose lower bound routes
  cold; the search must return the bound itself.
* **Full-suite equality** — all 20 suite circuits on random placements
  at a small scale and on Table I's own placements, and every baseline
  design e2ebench draws at seed 1, behind the ``slow`` marker
  (``pytest -m slow``).
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.arch.fpga import FpgaArch
from repro.bench.generator import generate_circuit
from repro.bench.suite import SPEC_BY_NAME, suite_circuit, suite_names
from repro.perf import PERF
from repro.place.timing_driven import place_timing_driven
from repro.route.metrics import find_min_channel_width
from repro.route.pathfinder import _routable_nets
from repro.route.rrgraph import IndexedRoutingGraph
from repro.route.wmin import demand_lower_bound

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


def lower_bound(netlist, placement) -> int:
    nets = _routable_nets(netlist, placement, True)
    return demand_lower_bound(IndexedRoutingGraph(placement.arch, math.inf), nets)


class TestDemandLowerBound:
    def test_bound_is_sound_on_random_circuits(self):
        """The certificate never exceeds the measured W_min."""
        for seed in range(10):
            nl, placement = random_circuit(seed)
            bound = lower_bound(nl, placement)
            assert bound >= 1
            wmin = min_channel_width_reference(nl, placement, max_width=64)
            assert bound <= wmin, f"seed {seed}: bound {bound} > W_min {wmin}"


def table1_placement(name: str, scale: float = 0.08):
    """A circuit placed as the bench runner places it (seed 0)."""
    netlist, arch = suite_circuit(name, scale=scale)
    placement, _stats = place_timing_driven(netlist, arch, seed=0, inner_scale=0.25)
    return netlist, placement


def e2ebench_placement(name: str, draw: int, seed: int = 1):
    """A baseline design as e2ebench draws it: circuit and placement
    seed ``seed * 1000 + draw``, scale 0.04, min-square array."""
    spec = dataclasses.replace(SPEC_BY_NAME[name], seed=seed * 1000 + draw)
    netlist = generate_circuit(spec, scale=0.04)
    arch = FpgaArch.min_square_for(
        num_logic_blocks=netlist.num_logic_blocks,
        num_pads=netlist.num_pads,
        lut_size=4,
    )
    placement, _stats = place_timing_driven(
        netlist, arch, seed=spec.seed, inner_scale=0.25
    )
    return netlist, placement


#: Every baseline design e2ebench's three workloads draw at seed 1:
#: rt-flow (dsip, des, bigkey; 2 draws), lex3-flow (dsip, bigkey;
#: 4 draws) and table1-store (s38584.1, frisc; 3 draws).
E2EBENCH_DRAWS = (
    [("s38584.1", d) for d in range(3)]
    + [("frisc", d) for d in range(3)]
    + [("dsip", d) for d in range(4)]
    + [("bigkey", d) for d in range(4)]
    + [("des", d) for d in range(2)]
)


class TestPinnedWidths:
    """Placements whose lower bound routes on a cold probe.  A search
    that takes a failed warm probe one track below its candidate for a
    cold failure returns one track too many on each."""

    @pytest.mark.parametrize(
        "name, scale, width", [("spla", 0.08, 7), ("seq", 0.06, 4)]
    )
    def test_table_placement_is_its_lower_bound(self, name, scale, width):
        netlist, placement = table1_placement(name, scale)
        assert lower_bound(netlist, placement) == width
        PERF.reset()
        PERF.enable()
        try:
            assert find_min_channel_width(netlist, placement) == width
            probes = PERF.counter("route.wmin.cold_probes")
        finally:
            PERF.disable()
            PERF.reset()
        assert probes == 1

    def test_e2ebench_s38584_draw_0_is_its_lower_bound(self):
        netlist, placement = e2ebench_placement("s38584.1", 0)
        assert lower_bound(netlist, placement) == 6
        assert find_min_channel_width(netlist, placement) == 6


class TestEngineEquality:
    def test_fast_matches_reference_on_random_circuits(self):
        for seed in range(10):
            nl, placement = random_circuit(seed)
            ref = min_channel_width_reference(nl, placement, max_width=64)
            fast = find_min_channel_width(nl, placement, max_width=64)
            assert fast == ref, f"seed {seed}: fast {fast} != reference {ref}"

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


@pytest.mark.slow
class TestFullSuiteEquality:
    def test_all_suite_circuits_fast_equals_reference(self):
        """All 20 MCNC suite circuits on random placements: the search's
        width equals the reference cold bisection's."""
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

    def test_published_placements_fast_equals_reference(self):
        """Table I's own placements: all 20 suite circuits at the
        published config (scale 0.08, placement seed 0, timing-driven,
        ``inner_scale`` 0.25)."""
        mismatches = []
        for name in suite_names("all"):
            netlist, placement = table1_placement(name)
            ref = min_channel_width_reference(netlist, placement)
            fast = find_min_channel_width(netlist, placement)
            if fast != ref:
                mismatches.append((name, fast, ref))
        assert not mismatches, f"fast != reference on: {mismatches}"

    def test_e2ebench_draws_fast_equals_reference(self):
        """Every baseline design e2ebench draws at its seed 1."""
        mismatches = []
        for name, draw in E2EBENCH_DRAWS:
            netlist, placement = e2ebench_placement(name, draw)
            ref = min_channel_width_reference(netlist, placement)
            fast = find_min_channel_width(netlist, placement)
            if fast != ref:
                mismatches.append((f"{name}#{draw}", fast, ref))
        assert not mismatches, f"fast != reference on: {mismatches}"
