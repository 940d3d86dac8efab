"""Adaptive simulated-annealing engine with the VPR schedule.

This is the reusable SA core under both the wirelength-driven and the
timing-driven (T-VPlace-style) placers in
:mod:`repro.place.timing_driven`.  The schedule follows [18] /
VPR: the initial temperature is a multiple of the cost-delta standard
deviation over random moves, the cooling rate adapts to the acceptance
ratio, the move range limit shrinks to keep acceptance near 44%, and the
run exits when the temperature is negligible relative to per-net cost.

The engine is objective-agnostic: callers supply a :class:`MoveEvaluator`
that proposes/scores/commits moves; the engine owns only temperatures,
acceptance and statistics.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Protocol


class MoveEvaluator(Protocol):
    """Objective-specific move logic plugged into :func:`anneal`.

    The engine commits a move, if at all, before it proposes the next
    one or calls :meth:`on_temperature`, so an evaluator may cost a move
    once in :meth:`propose` and apply the stored costs in :meth:`commit`.
    """

    def propose(self, rng: random.Random, range_limit: int) -> object | None:
        """Propose a move; ``None`` if no move is possible."""

    def delta_cost(self, move: object) -> float:
        """Normalized cost change if ``move`` were committed."""

    def commit(self, move: object) -> None:
        """Apply ``move``."""

    def on_temperature(self) -> None:
        """Hook at each temperature change (refresh normalizations etc.)."""

    def current_cost(self) -> float:
        """Current normalized total cost (for exit criterion)."""

    def cost_scale(self) -> float:
        """Per-item cost scale used in the exit test (e.g. cost/num nets)."""


@dataclass
class AnnealStats:
    """Run statistics for logging and tests."""

    temperatures: int = 0
    moves_proposed: int = 0
    moves_accepted: int = 0

    @property
    def acceptance(self) -> float:
        if not self.moves_proposed:
            return 0.0
        return self.moves_accepted / self.moves_proposed


def initial_temperature(
    evaluator: MoveEvaluator, rng: random.Random, probes: int, range_limit: int
) -> float:
    """VPR's start temperature: 20 x std-dev of probe move costs.

    The probe moves are *committed* (as VPR does), which also randomizes
    the start further; statistics are collected over their deltas.
    """
    deltas: list[float] = []
    for _ in range(max(4, probes)):
        move = evaluator.propose(rng, range_limit)
        if move is None:
            continue
        delta = evaluator.delta_cost(move)
        evaluator.commit(move)
        deltas.append(delta)
    if not deltas:
        return 1.0
    mean = sum(deltas) / len(deltas)
    variance = sum((d - mean) ** 2 for d in deltas) / len(deltas)
    return max(20.0 * math.sqrt(variance), 1e-6)


def _cooling_rate(acceptance: float) -> float:
    """VPR's acceptance-dependent cooling multiplier."""
    if acceptance > 0.96:
        return 0.5
    if acceptance > 0.8:
        return 0.9
    if acceptance > 0.15:
        return 0.95
    return 0.8


def anneal(
    evaluator: MoveEvaluator,
    num_items: int,
    max_range: int,
    seed: int = 0,
    inner_scale: float = 1.0,
    exit_ratio: float = 0.005,
) -> AnnealStats:
    """Run adaptive SA until the temperature is negligible.

    Args:
        evaluator: Objective plug-in.
        num_items: Number of movable items (sets per-temperature effort:
            ``inner_scale * num_items ** 4/3`` moves, as in VPR).
        max_range: Largest useful move range limit (e.g. FPGA side).
        seed: RNG seed (the run is fully deterministic).
        inner_scale: VPR's ``inner_num`` quality/effort dial.
        exit_ratio: Stop when ``T < exit_ratio * cost_scale``.
    """
    rng = random.Random(seed)
    stats = AnnealStats()
    range_limit = max_range
    moves_per_temp = max(8, int(inner_scale * (max(num_items, 1) ** (4.0 / 3.0))))

    temperature = initial_temperature(evaluator, rng, num_items, range_limit)
    evaluator.on_temperature()

    while True:
        accepted = 0
        proposed = 0
        for _ in range(moves_per_temp):
            move = evaluator.propose(rng, range_limit)
            if move is None:
                continue
            proposed += 1
            delta = evaluator.delta_cost(move)
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                evaluator.commit(move)
                accepted += 1
        stats.temperatures += 1
        stats.moves_proposed += proposed
        stats.moves_accepted += accepted

        acceptance = accepted / proposed if proposed else 0.0
        temperature *= _cooling_rate(acceptance)
        # Keep acceptance near 44% by shrinking/growing the window.
        range_limit = int(range_limit * (1.0 - 0.44 + acceptance))
        range_limit = max(1, min(range_limit, max_range))
        evaluator.on_temperature()

        if temperature < exit_ratio * max(evaluator.cost_scale(), 1e-12):
            break
        if stats.temperatures > 400:  # safety net for degenerate objectives
            break
    return stats
