"""The durable campaign result store (``campaign.sqlite``).

One SQLite database per campaign directory, in WAL mode so the
scheduler (single writer) and any number of ``status``/``report``
readers can share it while workers run.  One row per task carries the
full lifecycle: status, attempt count, wall seconds, the result payload
as JSON (a :class:`BaselineRun`/:class:`VariantRun` round-trip dict) and
the traceback of the last failure.  The ``meta`` table stores the
campaign config; the ``wmin`` table is the W_min warm-start cache, so
warm starts survive restarts.

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
    attempts   INTEGER NOT NULL DEFAULT 0,
    total_attempts INTEGER NOT NULL DEFAULT 0,
    seconds    REAL NOT NULL DEFAULT 0.0,
    error      TEXT,
    result     TEXT,
    updated_at REAL
);
CREATE INDEX IF NOT EXISTS tasks_status ON tasks(status);
CREATE TABLE IF NOT EXISTS wmin (
    key   TEXT PRIMARY KEY,
    width INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS task_stats (
    task_id       TEXT PRIMARY KEY,
    payload_bytes INTEGER,
    peak_rss_mb   REAL,
    updated_at    REAL
);
"""


class CampaignStoreError(Exception):
    """Raised on missing/invalid campaign stores."""


class CampaignStoreMissing(CampaignStoreError):
    """Raised when a directory holds no campaign store."""


class CampaignStore:
    """Facade over one campaign's SQLite database (per-op connections).

    Subclasses may extend the database with additional tables by
    overriding :attr:`SCHEMA_EXTENSIONS` (the serve daemon's job queue
    does this — same file-per-directory idiom, same durability rules)
    and :attr:`FILENAME` to live under a different default name.
    """

    #: Default database filename used by :meth:`in_dir`/:meth:`open_existing`.
    FILENAME = STORE_FILE

    #: Extra ``executescript`` blocks applied after the base schema.
    SCHEMA_EXTENSIONS: tuple[str, ...] = ()

    def __init__(self, path: str | Path) -> None:
        self.path = ensure_parent_dir(path)
        with self._connect() as conn:
            conn.executescript(_SCHEMA)
            for extension in self.SCHEMA_EXTENSIONS:
                conn.executescript(extension)

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
        return cls(Path(campaign_dir) / cls.FILENAME)

    @classmethod
    def open_existing(cls, campaign_dir: str | Path) -> "CampaignStore":
        """Open the store of an existing campaign; error when absent."""
        path = Path(campaign_dir) / cls.FILENAME
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

    def mark_running(self, task_id: str, attempt: int) -> None:
        """Task launched; ``attempts`` is per-invocation, total is lifetime."""
        with self._connect() as conn:
            conn.execute(
                "UPDATE tasks SET status='running', attempts=?, "
                "total_attempts=total_attempts+1, updated_at=? "
                "WHERE task_id=?",
                (attempt, time.time(), task_id),
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
        """Back to the queue (retry after failure, or resume reset)."""
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
        ``failed``/``skipped`` rows, which get a fresh attempt budget on
        the next invocation.  Returns the number of rows reset.
        """
        with self._connect() as conn:
            cursor = conn.execute(
                "UPDATE tasks SET status='pending', attempts=0 "
                "WHERE status != 'done'"
            )
            return cursor.rowcount

    # -- per-task IPC/memory stats ------------------------------------

    def record_task_stats(
        self,
        task_id: str,
        *,
        payload_bytes: int | None = None,
        peak_rss_mb: float | None = None,
    ) -> None:
        """Upsert a task's IPC payload size and worker peak RSS.

        The two fields arrive at different times (payload at launch,
        RSS at completion), so each update keeps whatever the other
        call already wrote.
        """
        with self._connect() as conn:
            conn.execute(
                "INSERT INTO task_stats(task_id, payload_bytes, peak_rss_mb,"
                " updated_at) VALUES(?,?,?,?)"
                " ON CONFLICT(task_id) DO UPDATE SET"
                " payload_bytes=COALESCE(excluded.payload_bytes, payload_bytes),"
                " peak_rss_mb=COALESCE(excluded.peak_rss_mb, peak_rss_mb),"
                " updated_at=excluded.updated_at",
                (task_id, payload_bytes, peak_rss_mb, time.time()),
            )

    def task_stats(self) -> dict[str, dict]:
        """All recorded stats, keyed by task id."""
        with self._connect() as conn:
            return {
                row["task_id"]: {
                    "payload_bytes": row["payload_bytes"],
                    "peak_rss_mb": row["peak_rss_mb"],
                }
                for row in conn.execute(
                    "SELECT task_id, payload_bytes, peak_rss_mb FROM task_stats"
                )
            }

    # -- W_min warm-start cache ---------------------------------------

    def wmin_get(self, key: str) -> int | None:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT width FROM wmin WHERE key=?", (key,)
            ).fetchone()
        return None if row is None else row["width"]

    def wmin_set(self, key: str, width: int) -> None:
        with self._connect() as conn:
            conn.execute(
                "INSERT INTO wmin(key, width) VALUES(?, ?) "
                "ON CONFLICT(key) DO UPDATE SET width=excluded.width",
                (key, width),
            )

    def wmin_all(self) -> dict[str, int]:
        with self._connect() as conn:
            return {
                row["key"]: row["width"]
                for row in conn.execute("SELECT key, width FROM wmin")
            }
