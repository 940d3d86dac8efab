"""The durable campaign result store (``campaign.sqlite``).

One SQLite database per campaign directory, in WAL mode so the
scheduler (single writer) and any number of ``status``/``report``
readers can share it while workers run.  One row per task carries the
full lifecycle: status, lifetime launch count, wall seconds, the result
payload as JSON (a :class:`BaselineRun`/:class:`VariantRun` round-trip
dict) and the traceback of the last failure.  The ``meta`` table stores
the campaign config, and ``task_stats`` each task's worker peak RSS.
Stores written before tasks ran once per invocation also hold each
task's per-invocation attempt count and payload size; nothing reads
them.

Two deliberate structural choices keep the durability story simple:

* **Only the scheduler's parent process writes task rows** — workers
  report over a pipe.  A SIGKILL anywhere leaves at worst a ``running``
  row, which resume resets; WAL makes each committed row atomic.
* **Connections are per-operation.**  The scheduler forks worker
  processes, and a forked child closing an inherited SQLite descriptor
  would release the parent's POSIX locks out from under it.  With no
  long-lived connection there is never a SQLite fd to inherit.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path

from repro.campaign.model import Task
from repro.paths import ensure_parent_dir

STORE_FILE = "campaign.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tasks (
    task_id    TEXT PRIMARY KEY,
    idx        INTEGER NOT NULL,
    kind       TEXT NOT NULL,
    circuit    TEXT NOT NULL,
    algorithm  TEXT,
    seed       INTEGER NOT NULL,
    scale      REAL NOT NULL,
    deps       TEXT NOT NULL DEFAULT '[]',
    status     TEXT NOT NULL DEFAULT 'pending',
    total_attempts INTEGER NOT NULL DEFAULT 0,
    seconds    REAL NOT NULL DEFAULT 0.0,
    error      TEXT,
    result     TEXT,
    updated_at REAL
);
CREATE INDEX IF NOT EXISTS tasks_status ON tasks(status);
CREATE TABLE IF NOT EXISTS task_stats (
    task_id     TEXT PRIMARY KEY,
    peak_rss_mb REAL,
    updated_at  REAL
);
"""


class CampaignStoreError(Exception):
    """Raised on missing/invalid campaign stores."""


class CampaignStoreMissing(CampaignStoreError):
    """Raised when a directory holds no campaign store."""


class CampaignStore:
    """Facade over one campaign's SQLite database (per-op connections)."""

    def __init__(self, path: str | Path) -> None:
        self.path = ensure_parent_dir(path)
        with self._connect() as conn:
            conn.executescript(_SCHEMA)

    @contextmanager
    def _connect(self):
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        try:
            yield conn
            conn.commit()
        finally:
            conn.close()

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def in_dir(cls, campaign_dir: str | Path) -> "CampaignStore":
        """Open (creating if needed) the store of a campaign directory."""
        return cls(Path(campaign_dir) / STORE_FILE)

    @classmethod
    def open_existing(cls, campaign_dir: str | Path) -> "CampaignStore":
        """Open the store of an existing campaign; error when absent."""
        path = Path(campaign_dir) / STORE_FILE
        if not path.exists():
            raise CampaignStoreMissing(f"no campaign store at {path}")
        return cls(path)

    # -- meta ----------------------------------------------------------

    def set_meta(self, key: str, value) -> None:
        with self._connect() as conn:
            conn.execute(
                "INSERT INTO meta(key, value) VALUES(?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (key, json.dumps(value)),
            )

    def get_meta(self, key: str, default=None):
        with self._connect() as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key=?", (key,)
            ).fetchone()
        return default if row is None else json.loads(row["value"])

    # -- tasks ---------------------------------------------------------

    def add_tasks(self, tasks: list[Task]) -> None:
        """Insert the matrix; existing rows (a resumed campaign) are kept."""
        now = time.time()
        with self._connect() as conn:
            conn.executemany(
                "INSERT OR IGNORE INTO tasks"
                "(task_id, idx, kind, circuit, algorithm, seed, scale, deps,"
                " status, updated_at) VALUES(?,?,?,?,?,?,?,?,'pending',?)",
                [
                    (
                        task.task_id,
                        task.index,
                        task.kind,
                        task.circuit,
                        task.algorithm,
                        task.seed,
                        task.scale,
                        json.dumps(list(task.deps)),
                        now,
                    )
                    for task in tasks
                ],
            )

    def tasks(self) -> list[Task]:
        return [
            Task(
                task_id=row["task_id"],
                index=row["idx"],
                kind=row["kind"],
                circuit=row["circuit"],
                seed=row["seed"],
                scale=row["scale"],
                algorithm=row["algorithm"],
                deps=tuple(json.loads(row["deps"])),
            )
            for row in self.task_rows()
        ]

    def task_rows(self) -> list[sqlite3.Row]:
        with self._connect() as conn:
            return conn.execute("SELECT * FROM tasks ORDER BY idx").fetchall()

    def status_of(self, task_id: str) -> str | None:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT status FROM tasks WHERE task_id=?", (task_id,)
            ).fetchone()
        return None if row is None else row["status"]

    def counts(self) -> dict[str, int]:
        counts = {
            status: 0
            for status in ("pending", "running", "done", "failed", "skipped")
        }
        with self._connect() as conn:
            for row in conn.execute(
                "SELECT status, COUNT(*) AS n FROM tasks GROUP BY status"
            ):
                counts[row["status"]] = row["n"]
        return counts

    def _set(self, task_id: str, **fields) -> None:
        fields["updated_at"] = time.time()
        keys = ", ".join(f"{key}=?" for key in fields)
        with self._connect() as conn:
            conn.execute(
                f"UPDATE tasks SET {keys} WHERE task_id=?",
                (*fields.values(), task_id),
            )

    def mark_running(self, task_id: str) -> None:
        """Task launched; ``total_attempts`` counts launches over all runs."""
        with self._connect() as conn:
            conn.execute(
                "UPDATE tasks SET status='running', "
                "total_attempts=total_attempts+1, updated_at=? "
                "WHERE task_id=?",
                (time.time(), task_id),
            )

    def mark_done(self, task_id: str, result: dict, seconds: float) -> None:
        self._set(
            task_id,
            status="done",
            seconds=seconds,
            error=None,
            result=json.dumps(result),
        )

    def mark_pending(self, task_id: str, error: str | None = None) -> None:
        """Back to the queue (interrupted, or orphaned by a killed run)."""
        self._set(task_id, status="pending", error=error)

    def mark_failed(self, task_id: str, error: str, seconds: float = 0.0) -> None:
        self._set(task_id, status="failed", error=error, seconds=seconds)

    def mark_skipped(self, task_id: str, reason: str) -> None:
        self._set(task_id, status="skipped", error=reason)

    def result_of(self, task_id: str) -> dict | None:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT result FROM tasks WHERE task_id=? AND status='done'",
                (task_id,),
            ).fetchone()
        if row is None or row["result"] is None:
            return None
        return json.loads(row["result"])

    def reset_incomplete(self) -> int:
        """Resume entry point: everything not ``done`` goes back to pending.

        Covers ``running`` rows orphaned by a SIGKILL as well as
        ``failed``/``skipped`` rows, which run once more on the next
        invocation.  Returns the number of rows reset.
        """
        with self._connect() as conn:
            cursor = conn.execute(
                "UPDATE tasks SET status='pending' WHERE status != 'done'"
            )
            return cursor.rowcount

    # -- per-task memory stats ---------------------------------------

    def record_task_stats(self, task_id: str, *, peak_rss_mb: float) -> None:
        """Record a finished task's worker peak RSS."""
        with self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO task_stats(task_id, peak_rss_mb,"
                " updated_at) VALUES(?,?,?)",
                (task_id, peak_rss_mb, time.time()),
            )

    def task_stats(self) -> dict[str, dict]:
        """All recorded stats, keyed by task id."""
        with self._connect() as conn:
            return {
                row["task_id"]: {"peak_rss_mb": row["peak_rss_mb"]}
                for row in conn.execute(
                    "SELECT task_id, peak_rss_mb FROM task_stats"
                )
            }
