"""Serialization round-trips behind the campaign store's parity claim.

The campaign engine's byte-identical-report guarantee reduces to two
facts tested here: (a) ``format_table2``/``format_table3`` render the
same text from round-tripped ``VariantRun``s as from the originals — for
*arbitrary* float payloads, not just ones a real run happens to produce
(hypothesis), and (b) ``run_variant`` on a ``BaselineRun`` rebuilt from
its result row — store keys plus the netlist store, or the inline
netlist and placement of rows stored before every campaign had a
netlist store — is bit-identical to one on the original object, which
is what lets a variant task run in a different process than its
baseline.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import tables
from repro.bench.runner import (
    BaselineRun,
    VariantRun,
    run_variant,
    run_vpr_baseline,
)
from repro.core.checkpoint import netlist_to_dict, placement_to_dict
from repro.netlist.store import NetlistStore, design_key

any_float = st.floats(allow_nan=False, allow_infinity=False, width=64)
ratios = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)

variant_runs = st.builds(
    VariantRun,
    circuit=st.sampled_from(["tseng", "ex5p", "apex4", "spla", "clma"]),
    algorithm=st.sampled_from(["local", "rt", "lex-3"]),
    w_inf=ratios,
    w_ls=ratios,
    wirelength=ratios,
    blocks=ratios,
    replicated=st.integers(min_value=0, max_value=10_000),
    unified=st.integers(min_value=0, max_value=10_000),
    seconds=any_float.map(abs),
)


def json_round_trip(run: VariantRun) -> VariantRun:
    """The store's exact path: to_dict → JSON text → from_dict."""
    return VariantRun.from_dict(json.loads(json.dumps(run.to_dict())))


class TestVariantRunRoundTrip:
    @given(st.lists(variant_runs, min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_tables_identical_after_round_trip(self, runs):
        by_algorithm = {"rt": runs}
        restored = {"rt": [json_round_trip(run) for run in runs]}
        assert tables.format_table2(by_algorithm, scale=0.08) == (
            tables.format_table2(restored, scale=0.08)
        )
        assert tables.format_table3(by_algorithm, scale=0.08) == (
            tables.format_table3(restored, scale=0.08)
        )

    @given(variant_runs)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_exact(self, run):
        assert json_round_trip(run) == run


def stored_row(baseline: BaselineRun, store: NetlistStore) -> dict:
    """A campaign's baseline row: design and placement in the netlist
    store, their keys in the row."""
    key = design_key(baseline.name, 0.02)
    store.save_design(key, baseline.netlist)
    store.save_placement("baseline", baseline.placement, design_key=key)
    return json.loads(json.dumps(baseline.to_dict(key, "baseline")))


def inline_row(baseline: BaselineRun) -> dict:
    """A baseline row as stores written before every campaign had a
    netlist store hold it: the netlist and placement inline."""
    row = baseline.to_dict("", "")
    del row["netlist_ref"], row["placement_ref"]
    row["netlist"] = netlist_to_dict(baseline.netlist)
    row["placement"] = placement_to_dict(baseline.placement)
    return json.loads(json.dumps(row))


class TestBaselineRunRoundTrip:
    @pytest.fixture(scope="class")
    def baseline(self):
        return run_vpr_baseline("tseng", scale=0.02, seed=0)

    @pytest.mark.parametrize("layout", ["refs", "inline"])
    def test_variant_on_reconstructed_baseline_is_bit_identical(
        self, baseline, layout, tmp_path
    ):
        store = NetlistStore(tmp_path / "netlists.sqlite")
        row = (
            stored_row(baseline, store) if layout == "refs"
            else inline_row(baseline)
        )
        reconstructed = BaselineRun.from_dict(row, store=store)

        original = run_variant(baseline, "rt", effort=0.2, seed=0)
        replayed = run_variant(reconstructed, "rt", effort=0.2, seed=0)
        original.seconds = replayed.seconds = 0.0  # only wall time may differ
        assert original.to_dict() == replayed.to_dict()

    def test_baseline_round_trip_preserves_scalars(self, baseline, tmp_path):
        row = stored_row(baseline, NetlistStore(tmp_path / "netlists.sqlite"))
        # Without the store: scalars only, all a report reads.
        restored = BaselineRun.from_dict(row)
        assert restored.netlist is None and restored.placement is None
        for field in (
            "name", "w_inf", "w_ls", "wirelength", "min_width",
            "luts", "ios", "total_blocks", "density",
        ):
            assert getattr(restored, field) == getattr(baseline, field)
