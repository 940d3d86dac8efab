"""Scheduler: one launch per task per invocation, degradation, workers."""

import multiprocessing

import pytest

from repro import api
from repro.bench.suite import ensure_suite_design
from repro.campaign.model import CampaignConfig, build_matrix
from repro.campaign.scheduler import CampaignScheduler, execute_task
from repro.campaign.store import CampaignStore
from repro.netlist.store import NetlistStore
from tests.campaign.fake_workers import FailOn, HangOn

SCALE = 0.02  # smallest suite scale: baselines run in well under a second

TSENG = "baseline/tseng@0.02/s0"
TSENG_RT = "variant/tseng@0.02/s0/rt"
EX5P = "baseline/ex5p@0.02/s0"


def make_campaign(camp, **overrides):
    settings = dict(
        circuits=["tseng"],
        algorithms=["rt"],
        scale=SCALE,
        effort=0.2,
    )
    settings.update(overrides)
    config = CampaignConfig(**settings)
    store = CampaignStore.in_dir(camp)
    store.add_tasks(build_matrix(config))
    store.set_meta("config", config.to_dict())
    return store, config


def rows_by_id(store):
    return {row["task_id"]: row for row in store.task_rows()}


class TestScheduler:
    def test_failed_task_runs_once_and_skips_dependents(self, tmp_path):
        store, config = make_campaign(
            tmp_path / "camp", circuits=["tseng", "ex5p"], jobs=2
        )
        summary = CampaignScheduler(store, config, worker=FailOn(TSENG)).run()
        assert not summary.ok
        assert (summary.done, summary.failed, summary.skipped) == (2, 1, 1)
        by_id = rows_by_id(store)
        failed = by_id[TSENG]
        assert failed["status"] == "failed" and failed["total_attempts"] == 1
        assert failed["error"].startswith("Traceback")
        assert f"RuntimeError: fake failure in {TSENG}" in failed["error"]
        skipped = by_id[TSENG_RT]
        assert skipped["status"] == "skipped"
        assert skipped["total_attempts"] == 0
        assert TSENG in skipped["error"]
        # the healthy circuit completed
        assert by_id["variant/ex5p@0.02/s0/rt"]["status"] == "done"
        assert set(summary.failures) == {TSENG, TSENG_RT}

    def test_each_resume_runs_a_failed_task_once_more(self, tmp_path):
        store, config = make_campaign(tmp_path / "camp")
        fail = FailOn(TSENG_RT)
        for invocation in (1, 2):
            store.reset_incomplete()  # what campaign_resume does first
            summary = CampaignScheduler(store, config, worker=fail).run()
            assert (summary.done, summary.failed) == (1, 1)
            by_id = rows_by_id(store)
            assert by_id[TSENG_RT]["total_attempts"] == invocation
            assert by_id[TSENG]["total_attempts"] == 1  # done: never re-run

    def test_resume_after_a_failure_reports_like_a_clean_campaign(
        self, tmp_path
    ):
        """A failure that does not repeat on resume leaves no trace in
        the reports."""
        flags = dict(circuits="tseng", algorithms="rt", scale=SCALE, effort=0.2)
        assert api.campaign_run(tmp_path / "clean", **flags).ok
        store, config = make_campaign(tmp_path / "camp")
        summary = CampaignScheduler(store, config, worker=FailOn(TSENG)).run()
        assert (summary.failed, summary.skipped) == (1, 1)

        resumed = api.campaign_resume(tmp_path / "camp")
        assert resumed.ok and resumed.done == 2
        for experiment in ("table1", "table2"):
            assert api.campaign_report(
                tmp_path / "camp", experiment
            ) == api.campaign_report(tmp_path / "clean", experiment)

    def test_fakes_run_under_spawn(self, tmp_path):
        """The worker function travels to a spawned worker by pickle."""
        store, config = make_campaign(tmp_path / "camp")
        summary = CampaignScheduler(
            store, config, worker=FailOn(TSENG_RT),
            mp_context=multiprocessing.get_context("spawn"),
        ).run()
        assert (summary.done, summary.failed) == (1, 1)
        assert "fake failure" in rows_by_id(store)[TSENG_RT]["error"]

    def test_interrupt_hands_running_rows_back_to_pending(self, tmp_path):
        """Ctrl-C mid-task (raised here from the echo of the first
        finished task) kills the hung worker and leaves its row pending
        for the next invocation."""
        store, config = make_campaign(
            tmp_path / "camp", circuits=["tseng", "ex5p"], jobs=2
        )

        def interrupt_when_done(message):
            if message.startswith("done"):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            CampaignScheduler(
                store, config, worker=HangOn(EX5P), echo=interrupt_when_done
            ).run()
        by_id = rows_by_id(store)
        assert by_id[TSENG]["status"] == "done"
        assert by_id[EX5P]["status"] == "pending"
        assert by_id[EX5P]["error"] == "interrupted"
        assert api.campaign_resume(tmp_path / "camp").ok

    def test_orphaned_running_row_is_rescheduled(self, tmp_path):
        # A SIGKILLed scheduler leaves 'running' rows; a fresh run owns them.
        store, config = make_campaign(tmp_path / "camp")
        store.mark_running(TSENG)
        summary = CampaignScheduler(store, config).run()
        assert summary.ok and summary.done == 2


class TestExecuteTask:
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
