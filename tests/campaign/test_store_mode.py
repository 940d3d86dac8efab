"""Every campaign keeps its designs in its own netlist store.

* **Carrier** — a new campaign streams its designs into
  ``DIR/netlists.sqlite``; baseline workers park their placements
  there, and every baseline result row holds store keys
  (``netlist_ref``/``placement_ref``), never a serialized netlist.
* **Stats** — every task gets a ``peak_rss_mb`` row in the campaign
  store's ``task_stats`` table, surfaced by ``campaign status``.

That a store-backed campaign reports exactly what the in-memory runner
prints is ``tests/campaign/test_parity.py``; old stores are
``tests/campaign/test_store.py::TestOldStores``.
"""

import pytest

from repro import api
from repro.campaign.model import CampaignConfig, build_matrix
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.store import CampaignStore
from repro.netlist.store import NetlistStore
from tests.campaign.fake_workers import FailOn

SCALE, EFFORT, SEED = 0.05, 0.2, 0


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    camp = tmp_path_factory.mktemp("store-mode") / "camp"
    summary = api.campaign_run(
        camp,
        circuits=["tseng", "ex5p"],
        algorithms=["rt"],
        scale=SCALE,
        effort=EFFORT,
        jobs=2,
    )
    assert summary.ok
    return camp


class TestCampaignStore:
    def test_store_holds_designs_and_placements(self, campaign):
        nl_store = NetlistStore(campaign / "netlists.sqlite")
        assert sorted(nl_store.design_keys()) == [
            f"ex5p@{SCALE:g}", f"tseng@{SCALE:g}"
        ]
        # Baseline tasks parked their placements for the variants.
        for task in CampaignStore.in_dir(campaign).tasks():
            if task.kind == "baseline":
                placement = nl_store.load_placement(task.task_id)
                assert placement.placed_cells()

    def test_baseline_rows_hold_refs(self, campaign):
        store = CampaignStore.in_dir(campaign)
        baselines = [t for t in store.tasks() if t.kind == "baseline"]
        assert baselines
        for task in baselines:
            row = store.result_of(task.task_id)
            assert row["netlist_ref"] == f"{task.circuit}@{SCALE:g}"
            assert row["placement_ref"] == task.task_id
            assert "netlist" not in row and "placement" not in row

    def test_stats_recorded(self, campaign):
        stats = CampaignStore.in_dir(campaign).task_stats()
        assert len(stats) == 4
        for row in stats.values():
            assert set(row) == {"peak_rss_mb"}
            assert row["peak_rss_mb"] > 0
        status = api.campaign_status(campaign)
        assert status.splitlines()[-1] == (
            f"task stats: worker peak RSS max "
            f"{max(row['peak_rss_mb'] for row in stats.values()):.1f} MB"
        )

    def test_resume_reads_the_campaign_store(self, tmp_path):
        camp = tmp_path / "camp"
        config = CampaignConfig(
            circuits=["tseng"], algorithms=["rt"], scale=SCALE, effort=EFFORT
        )
        store = CampaignStore.in_dir(camp)
        store.set_meta("config", config.to_dict())
        store.add_tasks(build_matrix(config))
        variant = f"variant/tseng@{SCALE:g}/s{SEED}/rt"
        summary = CampaignScheduler(store, config, worker=FailOn(variant)).run()
        assert not summary.ok
        resumed = api.campaign_resume(camp)
        assert resumed.ok
        # The report still round-trips through the store.
        assert "tseng" in api.campaign_report(camp, "table2")


@pytest.mark.slow
class TestScaledStreaming:
    def test_scale10_design_streams_into_a_campaign_store(self, tmp_path):
        """A --scale 10 circuit streams into a campaign's store next to
        the designs the campaign's 3 workers route."""
        from repro.bench.suite import stream_suite_circuit

        camp = tmp_path / "camp"
        info = stream_suite_circuit(
            NetlistStore(camp / "netlists.sqlite"), "tseng", scale=10.0
        )
        # tseng is 1047 LUTs at scale 1; sweep keeps ~2/3 of 10x that.
        assert info["luts"] > 5000
        summary = api.campaign_run(
            camp,
            circuits=["tseng", "ex5p", "alu4"],
            algorithms=[],
            scale=SCALE,
            effort=EFFORT,
            jobs=3,
        )
        assert summary.ok
        stats = CampaignStore.in_dir(camp).task_stats()
        assert len(stats) == 3
        assert all(row["peak_rss_mb"] > 0 for row in stats.values())
        assert len(NetlistStore(camp / "netlists.sqlite").design_keys()) == 4
