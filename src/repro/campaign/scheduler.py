"""Process-pool task scheduler: each pending task runs once per invocation.

Execution model: one worker **process per task launch**.  A worker
imports nothing from the scheduler's state — it receives a JSON-ready
payload over a pipe, runs the task (a ``bench.runner`` baseline or
variant), and sends back either ``("ok", result_dict, stats)`` or
``("error", traceback_text)``.  The parent is the only store writer, so
a worker can be SIGKILLed at any instant without corrupting the
campaign: the parent observes the dead pipe and records a failure.

Fault model: every task is deterministic (seeded placement, W_min
search, routing, replication flow and local replication), so a task
that raises once raises the same way on a rerun, and no rerun happens
within one invocation.  A failure that need not repeat, such as a
killed worker, is what ``campaign resume`` is for.

* **crash / raised exception** — the task is marked ``failed`` with its
  traceback and every transitive dependent is marked ``skipped``; the
  campaign keeps running everything else (graceful degradation, never a
  crash).  ``campaign resume`` runs the failed and skipped rows again.
* **interrupt** — Ctrl-C kills the workers and hands their rows back to
  ``pending``; a scheduler killed outright leaves them ``running``, and
  the next invocation resets those rows.  ``done`` rows are never re-run.

Every loop inside a task is bounded (the anneal schedule, the router's
iteration cap, the W_min scan's ceiling, the flow's iteration cap and
patience), so a task has no time limit.  Tests make a task fail or hang
by handing the scheduler another ``worker`` function in place of
:func:`execute_task`.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import defaultdict, deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path

from repro.campaign.model import CampaignConfig, Task, artifact_name
from repro.campaign.store import CampaignStore, CampaignStoreError
from repro.netlist.store import (
    STORE_FILE as NETLIST_STORE_FILE,
    NetlistStore,
    design_key,
)

#: Subdirectories of the campaign dir collecting per-task artifacts.
PERF_DIR = "perf"
TRACE_DIR = "trace"


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def execute_task(payload: dict) -> dict:
    """Run one task described by a scheduler payload; returns result dict.

    Importable directly (tests, debugging): everything the task needs is
    in the payload — the task row, the execution knobs, the path of the
    campaign's netlist store and, for variants, the baseline's result
    row.
    """
    from repro.bench.runner import BaselineRun, measure_baseline, run_variant
    from repro.perf import PERF, sample_peak_rss

    task = payload["task"]
    perf_on = payload.get("perf", False)
    campaign_dir = payload.get("campaign_dir")
    name = artifact_name(task["task_id"])
    trace_path = (
        Path(campaign_dir) / TRACE_DIR / f"{name}.json"
        if payload.get("trace", False) and campaign_dir is not None
        else None
    )
    nl_store = NetlistStore(payload["netlist_store"])
    if perf_on:
        PERF.reset()
        PERF.enable()
    try:
        with PERF.trace(trace_path, metadata={"task": task["task_id"]}):
            if task["kind"] == "baseline":
                dkey = design_key(task["circuit"], task["scale"])
                run = measure_baseline(
                    task["circuit"],
                    nl_store.load_array(dkey),
                    nl_store.min_square_arch(dkey),
                    seed=task["seed"],
                )
                # Park the placement next to the design, so the result row
                # (and the variant payloads built from it) carry keys, never
                # a serialized netlist.
                nl_store.save_placement(
                    task["task_id"], run.placement, design_key=dkey
                )
                return run.to_dict(dkey, task["task_id"])
            baseline = BaselineRun.from_dict(payload["baseline"], store=nl_store)
            run = run_variant(
                baseline,
                task["algorithm"],
                effort=payload.get("effort", 1.0),
                seed=task["seed"],
            )
            return run.to_dict()
    finally:
        if perf_on:
            PERF.record_max("peak_rss_mb", sample_peak_rss())
            PERF.disable()
            if campaign_dir is not None:
                PERF.write_snapshot(Path(campaign_dir) / PERF_DIR / f"{name}.json")


def _worker_main(conn, worker, payload: dict) -> None:
    """Process entry point: run ``worker(payload)``, report over the pipe, exit.

    The success message is a 3-tuple: result dict plus a small stats
    dict (worker peak RSS) the parent folds into the campaign store's
    ``task_stats`` table.
    """
    from repro.perf import sample_peak_rss

    try:
        result = worker(payload)
        conn.send(("ok", result, {"peak_rss_mb": sample_peak_rss()}))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@dataclass
class _Handle:
    """Bookkeeping for one in-flight worker."""

    task: Task
    process: object
    conn: object
    started: float


@dataclass
class CampaignSummary:
    """Outcome counts of one scheduler invocation."""

    total: int
    done: int = 0
    failed: int = 0
    skipped: int = 0
    pending: int = 0
    seconds: float = 0.0
    failures: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.done == self.total


class CampaignScheduler:
    """Drives a campaign's task graph to completion on worker processes.

    The store is the single source of truth: the scheduler loads the
    task rows, runs everything not ``done``, and records every state
    transition as it happens, so killing the *scheduler* at any point
    leaves a store that :meth:`run` (after ``reset_incomplete``) picks
    up with only unfinished work.
    """

    def __init__(
        self,
        store: CampaignStore,
        config: CampaignConfig,
        *,
        worker=execute_task,
        echo=None,
        mp_context=None,
    ) -> None:
        self.store = store
        self.config = config
        self.campaign_dir = store.path.parent
        # Campaigns that ran with an external store keep reading it.  Its
        # path may be relative to the directory the campaign ran in, and
        # an empty store elsewhere would fail every task on a done
        # baseline, so a missing one is an error.
        self.netlist_store = Path(
            config.netlist_store or self.campaign_dir / NETLIST_STORE_FILE
        )
        if config.netlist_store and not self.netlist_store.exists():
            raise CampaignStoreError(
                f"the campaign's netlist store {config.netlist_store} does "
                f"not exist (a relative path is read from the working "
                f"directory)"
            )
        # What each worker process runs; picklable, so any mp_context works.
        self.worker = worker
        self.echo = echo or (lambda message: None)
        self._ctx = mp_context or multiprocessing.get_context()
        self._by_id: dict[str, Task] = {}
        self._dependents: dict[str, list[str]] = defaultdict(list)
        self._status: dict[str, str] = {}
        self._queue: deque[str] = deque()
        self._running: dict[str, _Handle] = {}

    # -- main loop -----------------------------------------------------

    def run(self) -> CampaignSummary:
        start = time.monotonic()
        tasks = self.store.tasks()
        self._prebuild_designs(tasks)
        self._by_id = {task.task_id: task for task in tasks}
        self._dependents.clear()
        for task in tasks:
            for dep in task.deps:
                self._dependents[dep].append(task.task_id)
        self._status = {
            row["task_id"]: row["status"] for row in self.store.task_rows()
        }
        # Rows left 'running' by a killed scheduler: nobody owns them now.
        for task_id, status in self._status.items():
            if status == "running":
                self.store.mark_pending(task_id)
                self._status[task_id] = "pending"
        self._queue = deque(
            task.task_id for task in tasks
            if self._status[task.task_id] == "pending"
        )
        try:
            while self._queue or self._running:
                launched = self._launch_ready()
                if self._running:
                    self._poll_running()
                elif self._queue and not launched:
                    # Every queued task waits on a dep that no longer has
                    # an owner — cannot happen with a well-formed graph;
                    # bail out rather than spin forever.
                    for task_id in list(self._queue):
                        self._skip(task_id, "dependency never completed")
                    self._queue.clear()
        finally:
            self._kill_all()
        return self._summarize(time.monotonic() - start)

    def _prebuild_designs(self, tasks: list[Task]) -> None:
        """Stream every design of the matrix into the netlist store.

        Runs in the parent before any worker launches, so workers only
        ever *read* designs (the single-writer moment is here, not under
        worker concurrency).  Designs already present — a resumed
        campaign — are kept as-is.
        """
        from repro.bench.suite import ensure_suite_design

        nl_store = NetlistStore(self.netlist_store)
        seen: set[tuple[str, float]] = set()
        for task in tasks:
            coords = (task.circuit, task.scale)
            if coords in seen:
                continue
            seen.add(coords)
            ensure_suite_design(nl_store, task.circuit, task.scale)
        self.echo(
            f"netlist store {nl_store.path}: "
            f"{len(seen)} design(s) ready"
        )

    # -- scheduling ----------------------------------------------------

    def _launch_ready(self) -> int:
        launched = 0
        for task_id in list(self._queue):
            if len(self._running) >= self.config.jobs:
                break
            task = self._by_id[task_id]
            dep_status = [self._status[dep] for dep in task.deps]
            bad = [
                dep for dep, status in zip(task.deps, dep_status)
                if status in ("failed", "skipped")
            ]
            if bad:
                self._queue.remove(task_id)
                self._skip(
                    task_id, f"dependency {bad[0]} {self._status[bad[0]]}"
                )
                continue
            if all(status == "done" for status in dep_status):
                self._queue.remove(task_id)
                self._launch(task)
                launched += 1
        return launched

    def _launch(self, task: Task) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.worker, self._payload(task)),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._running[task.task_id] = _Handle(
            task=task,
            process=process,
            conn=parent_conn,
            started=time.monotonic(),
        )
        self.store.mark_running(task.task_id)
        self._status[task.task_id] = "running"

    def _payload(self, task: Task) -> dict:
        config = self.config
        payload = {
            "task": task.to_row(),
            "effort": config.effort,
            "perf": config.perf,
            "trace": config.trace,
            "campaign_dir": str(self.campaign_dir),
            "netlist_store": str(self.netlist_store),
        }
        if task.kind == "variant":
            payload["baseline"] = self.store.result_of(task.deps[0])
        return payload

    # -- completion handling -------------------------------------------

    def _poll_running(self) -> None:
        conns = [handle.conn for handle in self._running.values()]
        ready = set(_conn_wait(conns, timeout=0.05))
        for handle in list(self._running.values()):
            # A worker that died without a pipe event getting through is
            # reaped too (rare; the closed pipe usually surfaces via wait()).
            if handle.conn in ready or not handle.process.is_alive():
                self._reap(handle)

    def _reap(self, handle: _Handle) -> None:
        """Collect a worker whose pipe is readable or which has exited."""
        stats = None
        try:
            message = handle.conn.recv()
            kind, payload = message[0], message[1]
            if len(message) > 2:  # ("ok", result, stats) since task_stats
                stats = message[2]
        except (EOFError, OSError):
            handle.process.join()
            kind, payload = "error", (
                f"worker exited with code {handle.process.exitcode} "
                f"before reporting a result"
            )
        handle.process.join()
        self._close(handle)
        if kind == "ok":
            self._record_done(handle, payload, stats)
        else:
            self._record_failure(handle, payload)

    def _close(self, handle: _Handle) -> None:
        try:
            handle.conn.close()
        except OSError:
            pass
        self._running.pop(handle.task.task_id, None)

    def _record_done(
        self, handle: _Handle, result: dict, stats: dict | None = None
    ) -> None:
        task = handle.task
        seconds = time.monotonic() - handle.started
        self.store.mark_done(task.task_id, result, seconds)
        self._status[task.task_id] = "done"
        if stats and stats.get("peak_rss_mb") is not None:
            self.store.record_task_stats(
                task.task_id, peak_rss_mb=stats["peak_rss_mb"]
            )
            from repro.perf import PERF

            if PERF.enabled:
                PERF.record_max("peak_rss_mb", stats["peak_rss_mb"])
        self.echo(f"done    {task.task_id} ({seconds:.1f}s)")

    def _record_failure(self, handle: _Handle, error: str) -> None:
        task = handle.task
        seconds = time.monotonic() - handle.started
        self.store.mark_failed(task.task_id, error, seconds)
        self._status[task.task_id] = "failed"
        self.echo(f"failed  {task.task_id} ({seconds:.1f}s)")
        self._skip_dependents(task.task_id)

    def _skip_dependents(self, task_id: str) -> None:
        for dep_id in self._dependents.get(task_id, ()):  # graph is a DAG
            if self._status.get(dep_id) in ("done", "failed", "skipped"):
                continue
            if dep_id in self._queue:
                self._queue.remove(dep_id)
            self._skip(
                dep_id, f"dependency {task_id} {self._status[task_id]}"
            )
            self._skip_dependents(dep_id)

    def _skip(self, task_id: str, reason: str) -> None:
        reason = f"skipped: {reason}"
        self.store.mark_skipped(task_id, reason)
        self._status[task_id] = "skipped"
        self.echo(f"skipped {task_id} ({reason})")

    def _kill_all(self) -> None:
        """Interrupt path: kill workers, hand their tasks back to pending."""
        for handle in list(self._running.values()):
            handle.process.kill()
            handle.process.join()
            self._close(handle)
            self.store.mark_pending(handle.task.task_id, error="interrupted")
            self._status[handle.task.task_id] = "pending"

    def _summarize(self, seconds: float) -> CampaignSummary:
        counts = self.store.counts()
        failures = {
            row["task_id"]: row["error"] or ""
            for row in self.store.task_rows()
            if row["status"] in ("failed", "skipped")
        }
        return CampaignSummary(
            total=sum(counts.values()),
            done=counts["done"],
            failed=counts["failed"],
            skipped=counts["skipped"],
            pending=counts["pending"] + counts["running"],
            seconds=seconds,
            failures=failures,
        )
