"""Parity: the placer's evaluator replays the reference evaluator exactly.

The reference (:mod:`tests.place.oracle`) costs each proposal through a
moved-cell overlay and recomputes those costs on commit; the evaluator
in ``repro.place.timing_driven`` costs each move once.  Annealing with
either, from the same random placement and the same seeds, must give
the same slot for every cell, the same ``AnnealStats``, bit-equal final
costs and a bit-equal trace of every cost reported on the way.  The
3.12 leg of CI matters here: from Python 3.12 ``sum()`` of floats is
compensated, so a total accumulated with ``+=`` where the reference
calls ``sum()`` passes on 3.11 and fails there.
"""

from __future__ import annotations

import pytest

from repro.arch import FpgaArch
from repro.bench.generator import generate_circuit
from repro.bench.suite import SPEC_BY_NAME, suite_names
from repro.netlist.arrays import ArrayNetlist
from repro.place.annealer import anneal
from repro.place.initial import random_placement
from repro.place.timing_driven import PlacementEvaluator

from tests.place.oracle import PlacementEvaluator as ReferenceEvaluator

#: The Table I/II runner's annealing effort.
INNER_SCALE = 0.25


def design(name: str, scale: float, clb_capacity: int, array: bool):
    netlist = generate_circuit(SPEC_BY_NAME[name], scale=scale)
    arch = FpgaArch.min_square_for(
        num_logic_blocks=netlist.num_logic_blocks,
        num_pads=netlist.num_pads,
        clb_capacity=clb_capacity,
    )
    if array:
        netlist = ArrayNetlist.from_netlist(netlist)
    return netlist, arch


class Recorder:
    """Runs an evaluator for :func:`anneal` and records every cost it
    reports: each move's delta, and the running totals after each commit
    and each temperature refresh.  A last-bit difference in any of them
    shows here even where it flips no acceptance decision."""

    def __init__(self, evaluator) -> None:
        self.evaluator = evaluator
        self.costs: list[float] = []

    def _totals(self) -> None:
        self.costs += [self.evaluator.bb_cost, self.evaluator.timing_cost]

    def propose(self, rng, range_limit):
        return self.evaluator.propose(rng, range_limit)

    def delta_cost(self, move) -> float:
        delta = self.evaluator.delta_cost(move)
        self.costs.append(delta)
        return delta

    def commit(self, move) -> None:
        self.evaluator.commit(move)
        self._totals()

    def on_temperature(self) -> None:
        self.evaluator.on_temperature()
        self._totals()

    def current_cost(self) -> float:
        return self.evaluator.current_cost()

    def cost_scale(self) -> float:
        return self.evaluator.cost_scale()


def anneal_with(evaluator_cls, netlist, arch, seed: int, timing_tradeoff: float):
    """``place_timing_driven``'s steps, with the evaluator class swapped."""
    placement = random_placement(netlist, arch, seed=seed)
    recorder = Recorder(
        evaluator_cls(netlist, placement, timing_tradeoff=timing_tradeoff)
    )
    stats = anneal(
        recorder,
        num_items=netlist.num_cells,
        max_range=max(arch.width, arch.height),
        seed=seed + 1,
        inner_scale=INNER_SCALE,
    )
    return {
        "slots": sorted(placement.slot_map().items()),
        "stats": stats,
        "final costs": (
            recorder.evaluator.bb_cost.hex(),
            recorder.evaluator.timing_cost.hex(),
        ),
        "cost trace": [cost.hex() for cost in recorder.costs],
    }


def assert_parity(netlist, arch, seed: int, timing_tradeoff: float) -> None:
    expected = anneal_with(ReferenceEvaluator, netlist, arch, seed, timing_tradeoff)
    actual = anneal_with(PlacementEvaluator, netlist, arch, seed, timing_tradeoff)
    assert actual["stats"].moves_accepted > 0
    for key, value in expected.items():
        assert actual[key] == value, key


@pytest.mark.parametrize("clb_capacity", [1, 2])
@pytest.mark.parametrize("timing_tradeoff", [0.5, 0.0], ids=["timing", "wirelength"])
@pytest.mark.parametrize("array", [False, True], ids=["Netlist", "ArrayNetlist"])
@pytest.mark.parametrize("name", ["tseng", "dsip", "s298"])
def test_anneal_matches_reference(name, array, timing_tradeoff, clb_capacity):
    netlist, arch = design(name, 0.03, clb_capacity, array)
    assert_parity(netlist, arch, seed=7, timing_tradeoff=timing_tradeoff)


@pytest.mark.slow
@pytest.mark.parametrize(
    "array, timing_tradeoff",
    [(False, 0.5), (False, 0.0), (True, 0.5)],
    ids=["timing", "wirelength", "array"],
)
@pytest.mark.parametrize(
    "clb_capacity, scale", [(1, 0.04), (2, 0.03)], ids=["cap1", "cap2"]
)
@pytest.mark.parametrize("name", suite_names())
def test_anneal_matches_reference_on_the_suite(
    name, clb_capacity, scale, array, timing_tradeoff
):
    netlist, arch = design(name, scale, clb_capacity, array)
    assert_parity(netlist, arch, seed=1, timing_tradeoff=timing_tradeoff)
