"""Scheduler fault tolerance: retry, timeout, degradation, workers."""

import pytest

from repro.bench.suite import ensure_suite_design
from repro.campaign.model import CampaignConfig, build_matrix
from repro.campaign.scheduler import CampaignScheduler, execute_task
from repro.campaign.store import CampaignStore
from repro.netlist.store import NetlistStore

SCALE = 0.02  # smallest suite scale: baselines run in well under a second

RAISE, HANG = 1, -1  # fault codes (see CampaignConfig.faults)


def make_campaign(tmp_path, **overrides):
    settings = dict(
        circuits=["tseng"],
        algorithms=["rt"],
        scale=SCALE,
        effort=0.2,
        retries=2,
        backoff=0.01,
    )
    settings.update(overrides)
    config = CampaignConfig(**settings)
    store = CampaignStore.in_dir(tmp_path / "camp")
    store.add_tasks(build_matrix(config))
    store.set_meta("config", config.to_dict())
    return store, config


def rows_by_id(store):
    return {row["task_id"]: row for row in store.task_rows()}


class TestScheduler:
    def test_transient_fault_is_retried(self, tmp_path):
        store, config = make_campaign(tmp_path)
        attempts_seen = []

        def fail_first_baseline_attempt(task_id, attempt):
            attempts_seen.append((task_id, attempt))
            if task_id.startswith("baseline/") and attempt == 1:
                return RAISE
            return 0

        summary = CampaignScheduler(
            store, config, fault_hook=fail_first_baseline_attempt
        ).run()
        assert summary.ok and summary.done == 2 and summary.failed == 0
        row = rows_by_id(store)["baseline/tseng@0.02/s0"]
        assert row["attempts"] == 2 and row["total_attempts"] == 2
        assert ("baseline/tseng@0.02/s0", 2) in attempts_seen
        variant = store.result_of("variant/tseng@0.02/s0/rt")
        assert variant["algorithm"] == "rt" and variant["circuit"] == "tseng"

    def test_exhausted_retries_degrade_gracefully(self, tmp_path):
        store, config = make_campaign(
            tmp_path,
            circuits=["tseng", "ex5p"],
            retries=1,
            jobs=2,
            faults={"baseline/tseng@0.02/s0": 99},
        )
        summary = CampaignScheduler(store, config).run()
        assert not summary.ok
        assert (summary.done, summary.failed, summary.skipped) == (2, 1, 1)
        by_id = rows_by_id(store)
        failed = by_id["baseline/tseng@0.02/s0"]
        assert failed["status"] == "failed"
        assert failed["attempts"] == config.max_attempts == 2
        assert "injected fault" in failed["error"]
        skipped = by_id["variant/tseng@0.02/s0/rt"]
        assert skipped["status"] == "skipped"
        assert "baseline/tseng@0.02/s0" in skipped["error"]
        # the healthy circuit completed
        assert by_id["variant/ex5p@0.02/s0/rt"]["status"] == "done"
        assert set(summary.failures) == {
            "baseline/tseng@0.02/s0", "variant/tseng@0.02/s0/rt",
        }

    def test_timeout_kills_hung_worker(self, tmp_path):
        store, config = make_campaign(
            tmp_path,
            retries=0,
            timeout=1.0,
            faults={"baseline/tseng@0.02/s0": HANG * 99},
        )
        summary = CampaignScheduler(store, config).run()
        assert (summary.failed, summary.skipped) == (1, 1)
        assert "timed out" in rows_by_id(store)["baseline/tseng@0.02/s0"]["error"]

    def test_orphaned_running_row_is_rescheduled(self, tmp_path):
        # A SIGKILLed scheduler leaves 'running' rows; a fresh run owns them.
        store, config = make_campaign(tmp_path)
        store.mark_running("baseline/tseng@0.02/s0", attempt=1)
        summary = CampaignScheduler(store, config).run()
        assert summary.ok and summary.done == 2


class TestExecuteTask:
    def test_injected_fault_raises(self):
        with pytest.raises(RuntimeError, match="injected fault"):
            execute_task({"task": {"task_id": "baseline/x"}, "inject": RAISE})

    def test_baseline_then_variant_payloads(self, tmp_path):
        tasks = build_matrix(
            CampaignConfig(circuits=["tseng"], algorithms=["rt"], scale=SCALE)
        )
        # The scheduler streams the design in before any worker runs.
        store = tmp_path / "netlists.sqlite"
        ensure_suite_design(NetlistStore(store), "tseng", SCALE)
        baseline = execute_task(
            {"task": tasks[0].to_row(), "netlist_store": str(store)}
        )
        assert baseline["name"] == "tseng" and baseline["min_width"] >= 1
        assert baseline["netlist_ref"] == f"tseng@{SCALE:g}"
        variant = execute_task(
            {"task": tasks[1].to_row(), "baseline": baseline, "effort": 0.2,
             "netlist_store": str(store)}
        )
        assert variant["algorithm"] == "rt"
        assert variant["w_inf"] > 0 and variant["blocks"] >= 1.0
