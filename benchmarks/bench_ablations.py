"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation toggles one mechanism and checks the direction of the
effect the paper's design rationale predicts:

* overlap handling (Section II-A): branching-bit control vs
  legalize-after;
* legalizer α (Section V-A): timing weight in the ripple gain;
* dynamic ε (Section V-B): growth-on-non-improvement vs frozen ε;
* unification aggressiveness (Sections V-C / VII-B / VIII);
* the equivalence discount (Section III) that makes replication implicit.
"""

import math

import pytest

from benchmarks.conftest import BENCH_SCALE
from repro import ReplicationConfig, analyze
from repro.bench.runner import run_vpr_baseline
from repro.core.config import ReplicationConfig as Config
from repro.core.flow import optimize_replication
from repro.place import TimingDrivenLegalizer


def staircase():
    from tests.core.test_flow import staircase_instance

    return staircase_instance()


@pytest.fixture(scope="module")
def tseng():
    return run_vpr_baseline("tseng", scale=BENCH_SCALE, seed=0)


def flow(baseline, **overrides):
    config = Config(max_iterations=12, patience=4, max_tree_nodes=24)
    for key, value in overrides.items():
        setattr(config, key, value)
    netlist = baseline.netlist.clone()
    placement = baseline.placement.copy()
    result = optimize_replication(netlist, placement, config)
    return result, netlist, placement


class TestOverlapHandling:
    def test_bit_control_vs_legalize_after(self, benchmark, tseng):
        def run():
            legalize_after, *_ = flow(tseng, max_cohabiting_children=None)
            bit_control, *_ = flow(tseng, max_cohabiting_children=0)
            return legalize_after, bit_control

        legalize_after, bit_control = benchmark.pedantic(run, rounds=1, iterations=1)
        # Both modes must be sound; the paper chose legalize-after for its
        # experiments because bit control over-constrains the space.
        assert bit_control.final_delay <= bit_control.initial_delay + 1e-9
        assert legalize_after.final_delay <= legalize_after.initial_delay + 1e-9
        print(
            f"\n[ablation/overlap] legalize-after {legalize_after.final_delay:.2f} "
            f"(impr {legalize_after.improvement:.1%}), branching-bit "
            f"{bit_control.final_delay:.2f} (impr {bit_control.improvement:.1%})"
        )


class TestLegalizerAlpha:
    def test_alpha_sweep(self, benchmark, tseng):
        def run(alpha: float) -> float:
            netlist = tseng.netlist.clone()
            placement = tseng.placement.copy()
            # Manufacture overlaps: stack several movable LUTs.
            luts = [c for c in netlist.luts()][:4]
            if len(luts) >= 2:
                target = placement.slot_of(luts[0].cell_id)
                for cell in luts[1:]:
                    placement.place(cell, target)
            TimingDrivenLegalizer(netlist, placement, alpha=alpha).legalize()
            return analyze(netlist, placement).critical_delay

        results = benchmark.pedantic(
            lambda: {alpha: run(alpha) for alpha in (0.0, 0.5, 0.95)},
            rounds=1,
            iterations=1,
        )
        # The timing-weighted legalizer should never be the worst option.
        assert results[0.95] <= max(results.values()) + 1e-9
        print(f"\n[ablation/alpha] post-legalization critical delay: {results}")


class TestDynamicEpsilon:
    def test_growth_vs_frozen(self, benchmark, tseng):
        def run():
            growing, *_ = flow(tseng, epsilon_step_fraction=0.05)
            frozen, *_ = flow(tseng, epsilon_step_fraction=0.0)
            return growing, frozen

        growing, frozen = benchmark.pedantic(run, rounds=1, iterations=1)
        # Both policies must be sound; the paper's motivation for growth
        # is escaping deterministic repeats, not per-instance dominance.
        assert growing.final_delay <= growing.initial_delay + 1e-9
        assert frozen.final_delay <= frozen.initial_delay + 1e-9
        print(
            f"\n[ablation/epsilon] dynamic {growing.final_delay:.2f} vs frozen "
            f"{frozen.final_delay:.2f}"
        )


class TestUnificationAggressiveness:
    def test_aggressive_reduces_blocks(self, benchmark, tseng):
        def run():
            aggressive, nl_a, _ = flow(tseng, aggressive_unification=True)
            gentle, nl_g, _ = flow(tseng, aggressive_unification=False)
            return aggressive, nl_a.num_cells, gentle, nl_g.num_cells

        aggressive, cells_a, gentle, cells_g = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
        # Aggressive unification retires more copies (fewer or equal cells)
        # without losing delay (Section VII-B's trade is wire, not period).
        assert cells_a <= cells_g + 2
        print(
            f"\n[ablation/unify] aggressive: {cells_a} cells, "
            f"{aggressive.final_delay:.2f}; gentle: {cells_g} cells, "
            f"{gentle.final_delay:.2f}"
        )


class TestEquivalenceDiscount:
    def test_discount_limits_replication(self, benchmark, tseng):
        def run():
            discounted, nl_d, _ = flow(tseng, cost_equivalent=0.0)
            flat, nl_f, _ = flow(tseng, cost_equivalent=2.0, cost_replication=0.0)
            return nl_d.num_cells, nl_f.num_cells, discounted, flat

        cells_d, cells_f, discounted, flat = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
        # Without the discount the embedder has no reason to reuse a
        # cell's own slot, so replication (block count) can only grow.
        assert cells_d <= cells_f + 2
        print(
            f"\n[ablation/discount] with discount {cells_d} cells "
            f"({discounted.improvement:.1%}); without {cells_f} cells "
            f"({flat.improvement:.1%})"
        )
