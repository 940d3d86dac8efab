"""Durable store: WAL mode, lifecycle transitions, old stores."""

import sqlite3

import pytest

from repro import api
from repro.bench.runner import run_vpr_baseline
from repro.campaign.model import CampaignConfig, build_matrix
from repro.campaign.report import load_config
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.store import CampaignStore, CampaignStoreError
from repro.netlist.store import NetlistStore
from tests.bench.test_roundtrip import inline_row
from tests.campaign.fake_workers import FailOn


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
        store.mark_running(base)
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
        store.mark_running(done)
        store.mark_done(done, {"min_width": 3}, 1.0)
        store.mark_running(failed)
        store.mark_failed(failed, "boom")
        assert store.reset_incomplete() == 1
        assert store.status_of(done) == "done"
        assert store.status_of(failed) == "pending"
        # lifetime launch counts survive the reset
        row = {r["task_id"]: r for r in store.task_rows()}[failed]
        assert row["total_attempts"] == 1

    def test_total_attempts_accumulates(self, store, tasks):
        store.add_tasks(tasks)
        task_id = tasks[0].task_id
        for _ in range(2):
            store.mark_running(task_id)
        row = {r["task_id"]: r for r in store.task_rows()}[task_id]
        assert row["total_attempts"] == 2


#: The matrix every old-store test resumes: one baseline, one variant.
OLD_MATRIX = dict(circuits=["tseng"], algorithms=["rt"], scale=0.02, effort=0.2)

#: ``tasks`` and ``task_stats`` as stores held them while a task could
#: run several times per invocation: with a per-invocation ``attempts``
#: count and each task's payload size.
FAULT_HANDLING_SCHEMA = """
CREATE TABLE tasks (
    task_id    TEXT PRIMARY KEY,
    idx        INTEGER NOT NULL,
    kind       TEXT NOT NULL,
    circuit    TEXT NOT NULL,
    algorithm  TEXT,
    seed       INTEGER NOT NULL,
    scale      REAL NOT NULL,
    deps       TEXT NOT NULL DEFAULT '[]',
    status     TEXT NOT NULL DEFAULT 'pending',
    attempts   INTEGER NOT NULL DEFAULT 0,
    total_attempts INTEGER NOT NULL DEFAULT 0,
    seconds    REAL NOT NULL DEFAULT 0.0,
    error      TEXT,
    result     TEXT,
    updated_at REAL
);
CREATE TABLE task_stats (
    task_id       TEXT PRIMARY KEY,
    payload_bytes INTEGER,
    peak_rss_mb   REAL,
    updated_at    REAL
);
"""


@pytest.fixture(scope="module")
def fresh_reports(tmp_path_factory):
    """``table1``/``table2`` of a fresh campaign on :data:`OLD_MATRIX`."""
    camp = tmp_path_factory.mktemp("fresh") / "camp"
    assert api.campaign_run(camp, **OLD_MATRIX).ok
    return {
        experiment: api.campaign_report(camp, experiment)
        for experiment in ("table1", "table2")
    }


class TestOldStores:
    def test_in_memory_layout_resumes(self, tmp_path, fresh_reports):
        """Before every campaign had a netlist store, a campaign could
        run without one: its done baseline row holds the netlist and
        placement inline.  Its pending variant runs from that row."""
        config = CampaignConfig(**OLD_MATRIX)
        tasks = build_matrix(config)
        store = CampaignStore.in_dir(tmp_path / "camp")
        store.set_meta("config", config.to_dict())
        store.add_tasks(tasks)
        baseline = run_vpr_baseline("tseng", scale=0.02, seed=0)
        store.mark_done(tasks[0].task_id, inline_row(baseline), 1.0)

        summary = api.campaign_resume(tmp_path / "camp")
        assert summary.ok and summary.done == 2
        assert "netlist" in store.result_of(tasks[0].task_id)
        for experiment, report in fresh_reports.items():
            assert api.campaign_report(tmp_path / "camp", experiment) == report

    def test_external_netlist_store_stays_the_campaigns(
        self, tmp_path, fresh_reports
    ):
        """A campaign started with ``--netlist-store PATH`` stored that
        path in its config: it resumes from that store and never
        creates one of its own."""
        external = tmp_path / "external.sqlite"
        NetlistStore(external)  # the run created it before any task
        config = CampaignConfig(**OLD_MATRIX, netlist_store=str(external))
        store = CampaignStore.in_dir(tmp_path / "camp")
        store.set_meta("config", config.to_dict())
        store.add_tasks(build_matrix(config))

        # The run does the baseline and fails the variant; the resume
        # reads the done baseline's refs from the external store.
        failing = FailOn("variant/tseng@0.02/s0/rt")
        assert CampaignScheduler(store, config, worker=failing).run().done == 1
        assert api.campaign_resume(tmp_path / "camp").ok
        assert not (tmp_path / "camp" / "netlists.sqlite").exists()
        assert NetlistStore(external).design_keys() == ["tseng@0.02"]
        for experiment, report in fresh_reports.items():
            assert api.campaign_report(tmp_path / "camp", experiment) == report

    def test_missing_external_netlist_store_is_an_error(
        self, tmp_path, monkeypatch
    ):
        """A relative ``--netlist-store`` path names a file in the
        directory the campaign ran in; a resume elsewhere refuses to
        start an empty store there, and changes no task row."""
        config = CampaignConfig(**OLD_MATRIX, netlist_store="netlists.sqlite")
        store = CampaignStore.in_dir(tmp_path / "camp")
        store.set_meta("config", config.to_dict())
        store.add_tasks(build_matrix(config))
        store.mark_failed("baseline/tseng@0.02/s0", "boom")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(CampaignStoreError, match="netlists.sqlite does not"):
            api.campaign_resume(tmp_path / "camp")
        assert store.status_of("baseline/tseng@0.02/s0") == "failed"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["camp"]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_unchecked_jobs_ran_one_worker(self, store, jobs):
        """Before worker counts were checked, a stored ``jobs`` below 1
        ran one worker; it still reads as 1."""
        config = CampaignConfig(circuits=["tseng"], algorithms=["rt"])
        store.set_meta("config", {**config.to_dict(), "jobs": jobs})
        assert load_config(store).jobs == 1

    def test_retired_routing_keys_resume_and_report(self, tmp_path):
        """A store written when routing still had selectable variants
        and a W∞ worker pool records ``wmin_engine``/``route_kernel``/
        ``route_search``/``route_jobs`` in its config; it must still
        resume and render its tables."""
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
                "route_jobs": 2,
            },
        )
        store.add_tasks(build_matrix(config))

        summary = api.campaign_resume(tmp_path / "camp")
        assert summary.ok and summary.done == 2
        report = api.campaign_report(tmp_path / "camp", "table1")
        assert "tseng" in report

    def test_populated_wmin_table_is_never_read(self, tmp_path):
        """A store written while W_min searches took warm-start hints
        keeps a populated ``wmin`` table.  Nothing reads it: status,
        resume and report come out as from a store without one."""
        flags = dict(circuits="tseng", algorithms="rt", scale=0.02, effort=0.2)
        assert api.campaign_run(tmp_path / "fresh", **flags).ok
        status = api.campaign_status(tmp_path / "fresh")

        config = CampaignConfig(
            circuits=["tseng"], algorithms=["rt"], scale=0.02, effort=0.2
        )
        for camp in (tmp_path / "fresh", tmp_path / "old"):
            store = CampaignStore.in_dir(camp)
            conn = sqlite3.connect(store.path)
            try:
                with conn:
                    conn.execute(
                        "CREATE TABLE IF NOT EXISTS wmin "
                        "(key TEXT PRIMARY KEY, width INTEGER NOT NULL)"
                    )
                    # A wrong width: reading it as a hint would show.
                    conn.execute(
                        "INSERT OR REPLACE INTO wmin VALUES('tseng@0.02/0', 1)"
                    )
            finally:
                conn.close()
        old = CampaignStore.in_dir(tmp_path / "old")
        old.set_meta("config", config.to_dict())
        old.add_tasks(build_matrix(config))

        assert api.campaign_status(tmp_path / "fresh") == status
        assert "wmin" not in status
        summary = api.campaign_resume(tmp_path / "old")
        assert summary.ok and summary.done == 2
        for experiment in ("table1", "table2"):
            assert api.campaign_report(
                tmp_path / "old", experiment
            ) == api.campaign_report(tmp_path / "fresh", experiment)

    @pytest.mark.parametrize("timeout", [3600.0, 0.0, float("nan"), -1.0])
    def test_fault_handling_store_resumes_and_reports(
        self, tmp_path, fresh_reports, timeout
    ):
        """A store written while campaigns could rerun a failed task in
        the same invocation holds ``timeout`` (also the unchecked 0, NaN
        and -1), ``retries``, ``backoff`` and a fault map in its config,
        and per-invocation attempts and payload sizes in its tables.  It
        resumes with the fault map unapplied, its status prints, and it
        reports like a fresh campaign."""
        camp = tmp_path / "camp"
        camp.mkdir()
        conn = sqlite3.connect(camp / "campaign.sqlite")
        conn.executescript(FAULT_HANDLING_SCHEMA)
        conn.close()
        config = CampaignConfig(**OLD_MATRIX)
        tasks = build_matrix(config)
        store = CampaignStore.in_dir(camp)
        store.set_meta("config", {
            **config.to_dict(),
            "timeout": timeout, "retries": 2, "backoff": 0.5,
            "faults": {task.task_id: 99 for task in tasks},
        })
        store.add_tasks(tasks)
        base, variant = (task.task_id for task in tasks)
        conn = sqlite3.connect(store.path)
        try:
            with conn:
                conn.execute(
                    "UPDATE tasks SET status='failed', attempts=3, "
                    "total_attempts=3, error='Traceback\nRuntimeError: boom' "
                    "WHERE task_id=?", (base,),
                )
                conn.execute(
                    "INSERT INTO task_stats VALUES(?, 2048, NULL, 0.0)",
                    (base,),
                )
        finally:
            conn.close()
        store.mark_skipped(variant, f"skipped: dependency {base} failed")

        status = api.campaign_status(camp).splitlines()
        assert status[1:] == [
            f"  failed   {base} — RuntimeError: boom",
            f"  skipped  {variant} — skipped: dependency {base} failed",
        ]
        summary = api.campaign_resume(camp)
        assert summary.ok and summary.done == 2
        assert "2 done" in api.campaign_status(camp)
        for experiment, report in fresh_reports.items():
            assert api.campaign_report(camp, experiment) == report

    @pytest.mark.parametrize(
        "key, value, message",
        [("algorithms", ["rt", "nope"], "unknown algorithm"),
         ("circuits", [], "campaign needs at least one circuit")],
    )
    def test_invalid_stored_config_is_a_store_error(
        self, store, key, value, message
    ):
        config = CampaignConfig(circuits=["tseng"], algorithms=["rt"])
        store.set_meta("config", {**config.to_dict(), key: value})
        with pytest.raises(
            CampaignStoreError,
            match=f"stored campaign config is invalid: {message}",
        ):
            load_config(store)
