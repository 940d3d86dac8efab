"""Durable store: WAL mode, lifecycle transitions, wmin cache, old stores."""

import sqlite3

import pytest

from repro import api
from repro.campaign.model import CampaignConfig, build_matrix
from repro.campaign.store import CampaignStore, CampaignStoreError


@pytest.fixture
def store(tmp_path):
    return CampaignStore.in_dir(tmp_path / "camp")


@pytest.fixture
def tasks():
    return build_matrix(
        CampaignConfig(circuits=["tseng"], algorithms=["rt"], scale=0.02)
    )


class TestBasics:
    def test_wal_mode(self, store):
        conn = sqlite3.connect(store.path)
        try:
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        finally:
            conn.close()
        assert mode == "wal"

    def test_open_existing_requires_store(self, tmp_path):
        with pytest.raises(CampaignStoreError, match="no campaign store"):
            CampaignStore.open_existing(tmp_path / "nowhere")
        CampaignStore.in_dir(tmp_path / "here")
        assert CampaignStore.open_existing(tmp_path / "here")

    def test_meta_round_trip(self, store):
        store.set_meta("config", {"scale": 0.02, "seeds": [0, 1]})
        assert store.get_meta("config") == {"scale": 0.02, "seeds": [0, 1]}
        assert store.get_meta("missing", "fallback") == "fallback"


class TestTaskLifecycle:
    def test_add_is_idempotent(self, store, tasks):
        store.add_tasks(tasks)
        store.mark_done(tasks[0].task_id, {"x": 1}, 2.0)
        store.add_tasks(tasks)  # resumed campaign re-adds the matrix
        assert store.counts()["done"] == 1
        assert store.tasks() == tasks

    def test_transitions_and_result(self, store, tasks):
        store.add_tasks(tasks)
        base = tasks[0].task_id
        store.mark_running(base, attempt=1)
        assert store.status_of(base) == "running"
        assert store.result_of(base) is None  # no result until done
        store.mark_done(base, {"min_width": 3}, 1.25)
        assert store.result_of(base) == {"min_width": 3}
        store.mark_failed(tasks[1].task_id, "Traceback: boom")
        counts = store.counts()
        assert counts["done"] == 1 and counts["failed"] == 1

    def test_reset_incomplete_spares_done_rows(self, store, tasks):
        store.add_tasks(tasks)
        done, failed = tasks[0].task_id, tasks[1].task_id
        store.mark_running(done, attempt=1)
        store.mark_done(done, {"min_width": 3}, 1.0)
        store.mark_running(failed, attempt=1)
        store.mark_failed(failed, "boom")
        assert store.reset_incomplete() == 1
        assert store.status_of(done) == "done"
        assert store.status_of(failed) == "pending"
        # lifetime attempt counts survive the reset
        row = {r["task_id"]: r for r in store.task_rows()}[failed]
        assert row["total_attempts"] == 1 and row["attempts"] == 0

    def test_total_attempts_accumulates(self, store, tasks):
        store.add_tasks(tasks)
        task_id = tasks[0].task_id
        for attempt in (1, 2):
            store.mark_running(task_id, attempt=attempt)
        row = {r["task_id"]: r for r in store.task_rows()}[task_id]
        assert row["total_attempts"] == 2


class TestWminCache:
    def test_set_get_overwrite(self, store):
        assert store.wmin_get("tseng@0.02/0") is None
        store.wmin_set("tseng@0.02/0", 4)
        store.wmin_set("tseng@0.02/0", 3)
        assert store.wmin_get("tseng@0.02/0") == 3
        assert store.wmin_all() == {"tseng@0.02/0": 3}


class TestOldStores:
    def test_retired_routing_keys_resume_and_report(self, tmp_path):
        """A store written when routing still had selectable variants
        records ``wmin_engine``/``route_kernel``/``route_search`` in its
        config; it must still resume and render its tables."""
        config = CampaignConfig(
            circuits=["tseng"], algorithms=["rt"], scale=0.02, effort=0.2
        )
        store = CampaignStore.in_dir(tmp_path / "camp")
        store.set_meta(
            "config",
            {
                **config.to_dict(),
                "wmin_engine": "fast",
                "route_kernel": "vector",
                "route_search": "wavefront",
            },
        )
        store.add_tasks(build_matrix(config))

        summary = api.campaign_resume(tmp_path / "camp")
        assert summary.ok and summary.done == 2
        report = api.campaign_report(tmp_path / "camp", "table1")
        assert "tseng" in report
