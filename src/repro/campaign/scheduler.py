"""Process-pool task scheduler with timeout, retry and degradation.

Execution model: one worker **process per task attempt**.  A worker
imports nothing from the scheduler's state — it receives a JSON-ready
payload over a pipe, runs the task (a ``bench.runner`` baseline or
variant), and sends back either ``("ok", result_dict)`` or ``("error",
traceback_text)``.  The parent is the only store writer, so a worker can
be SIGKILLed at any instant without corrupting the campaign: the parent
observes the dead pipe and records a failure.

Fault model:

* **crash / raised exception** — traceback recorded; retried up to
  ``retries`` times with exponential backoff (``backoff * 2**(attempt-1)``
  seconds).
* **timeout** — the worker is killed after ``timeout`` seconds and the
  attempt counts as a failure.
* **exhausted retries** — the task is marked ``failed`` with its last
  traceback and every transitive dependent is marked ``skipped``; the
  campaign keeps running everything else (graceful degradation, never a
  crash).

Fault injection for tests comes in two equivalent forms: the
``CampaignConfig.faults`` map (``task_id -> N`` fail the first N
attempts; negative N hangs instead, exercising the timeout path), which
survives serialization into the store, and a ``fault_hook`` callable on
the scheduler for in-process tests.
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
from repro.campaign.store import CampaignStore

#: Injected-fault codes carried in worker payloads.
_FAULT_NONE, _FAULT_RAISE, _FAULT_HANG = 0, 1, -1

#: Subdirectories of the campaign dir collecting per-task artifacts.
PERF_DIR = "perf"
TRACE_DIR = "trace"


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def execute_task(payload: dict) -> dict:
    """Run one task described by a scheduler payload; returns result dict.

    Importable directly (tests, debugging): everything the task needs is
    in the payload — the task row, the execution knobs, the serialized
    baseline for variants, and the W_min warm-start hint for baselines.
    """
    task = payload["task"]
    inject = payload.get("inject", _FAULT_NONE)
    if inject == _FAULT_HANG:
        time.sleep(3600.0)
    if inject == _FAULT_RAISE:
        raise RuntimeError(
            f"injected fault in {task['task_id']} "
            f"(attempt {payload.get('attempt', 1)})"
        )

    from repro.bench.runner import BaselineRun, run_variant, run_vpr_baseline
    from repro.perf import PERF, sample_peak_rss

    perf_on = payload.get("perf", False)
    trace_on = payload.get("trace", False)
    campaign_dir = payload.get("campaign_dir")
    store_path = payload.get("netlist_store")
    if perf_on:
        PERF.reset()
        PERF.enable()
    if trace_on:
        from repro.trace import start_tracing

        start_tracing()
    try:
        if task["kind"] == "baseline":
            run = run_vpr_baseline(
                task["circuit"],
                scale=task["scale"],
                seed=task["seed"],
                start_width=payload.get("start_width"),
                netlist_store=store_path,
            )
            if store_path is None:
                return run.to_dict()
            # Zero-copy mode: the design is already in the shared store;
            # park the placement next to it and return scalars + refs so
            # the campaign row (and the variant payloads built from it)
            # never carry a serialized netlist.
            from repro.netlist.store import NetlistStore, design_key

            nl_store = NetlistStore(store_path)
            dkey = design_key(task["circuit"], task["scale"])
            nl_store.save_placement(task["task_id"], run.placement, design_key=dkey)
            return run.to_dict(store_refs=(dkey, task["task_id"]))
        baseline_data = payload["baseline"]
        nl_store = None
        if "netlist_ref" in baseline_data:
            from repro.netlist.store import NetlistStore

            if store_path is None:
                raise RuntimeError(
                    f"baseline of {task['task_id']} references a netlist "
                    f"store but the campaign has none configured"
                )
            nl_store = NetlistStore(store_path)
        baseline = BaselineRun.from_dict(baseline_data, store=nl_store)
        run = run_variant(
            baseline,
            task["algorithm"],
            effort=payload.get("effort", 1.0),
            seed=task["seed"],
        )
        return run.to_dict()
    finally:
        name = artifact_name(task["task_id"])
        if perf_on:
            PERF.record_max("peak_rss_mb", sample_peak_rss())
            PERF.disable()
            if campaign_dir is not None:
                PERF.write_snapshot(Path(campaign_dir) / PERF_DIR / f"{name}.json")
        if trace_on and campaign_dir is not None:
            from repro.trace import stop_tracing

            stop_tracing(
                Path(campaign_dir) / TRACE_DIR / f"{name}.json",
                metadata={"task": task["task_id"]},
            )


def _worker_main(conn, payload: dict) -> None:
    """Process entry point: run the task, report over the pipe, exit.

    The success message is a 3-tuple: result dict plus a small stats
    dict (worker peak RSS) the parent folds into the campaign store's
    ``task_stats`` table.
    """
    from repro.perf import sample_peak_rss

    try:
        result = execute_task(payload)
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
    attempt: int
    started: float
    deadline: float | None


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
        fault_hook=None,
        echo=None,
        mp_context=None,
    ) -> None:
        self.store = store
        self.config = config
        self.campaign_dir = store.path.parent
        self.fault_hook = fault_hook
        self.echo = echo or (lambda message: None)
        self._ctx = mp_context or multiprocessing.get_context()
        self._by_id: dict[str, Task] = {}
        self._dependents: dict[str, list[str]] = defaultdict(list)
        self._status: dict[str, str] = {}
        self._attempts: dict[str, int] = defaultdict(int)
        self._lifetime: dict[str, int] = {}
        self._queue: deque[str] = deque()
        self._delayed: list[tuple[float, str]] = []
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
        rows = self.store.task_rows()
        self._status = {row["task_id"]: row["status"] for row in rows}
        self._lifetime = {
            row["task_id"]: row["total_attempts"] for row in rows
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
            while self._queue or self._delayed or self._running:
                self._promote_delayed()
                launched = self._launch_ready()
                if self._running:
                    self._poll_running()
                elif self._delayed:
                    next_at = min(at for at, _ in self._delayed)
                    time.sleep(min(0.05, max(0.0, next_at - time.monotonic())))
                elif self._queue and not launched:
                    # Every queued task waits on a dep that no longer has
                    # an owner — cannot happen with a well-formed graph;
                    # bail out rather than spin forever.
                    for task_id in list(self._queue):
                        self._finish(
                            task_id, "skipped",
                            "skipped: dependency never completed",
                        )
                    self._queue.clear()
        finally:
            self._kill_all()
        return self._summarize(time.monotonic() - start)

    def _prebuild_designs(self, tasks: list[Task]) -> None:
        """Zero-copy mode: stream every design into the shared store.

        Runs in the parent before any worker launches, so workers only
        ever *read* the netlist store (the single-writer moment is here,
        not under worker concurrency).  Designs already present — a
        resumed campaign, or a store built beforehand with ``repro
        netlist build`` — are kept as-is.
        """
        if self.config.netlist_store is None:
            return
        from repro.bench.suite import ensure_suite_design
        from repro.netlist.store import NetlistStore

        nl_store = NetlistStore(self.config.netlist_store)
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

    def _promote_delayed(self) -> None:
        now = time.monotonic()
        due = [task_id for at, task_id in self._delayed if at <= now]
        if due:
            self._delayed = [
                (at, task_id) for at, task_id in self._delayed if at > now
            ]
            self._queue.extend(due)

    def _launch_ready(self) -> int:
        launched = 0
        for task_id in list(self._queue):
            if len(self._running) >= max(1, self.config.jobs):
                break
            task = self._by_id[task_id]
            dep_status = [self._status[dep] for dep in task.deps]
            bad = [
                dep for dep, status in zip(task.deps, dep_status)
                if status in ("failed", "skipped")
            ]
            if bad:
                self._queue.remove(task_id)
                self._finish(
                    task_id, "skipped",
                    f"skipped: dependency {bad[0]} {self._status[bad[0]]}",
                )
                continue
            if all(status == "done" for status in dep_status):
                self._queue.remove(task_id)
                self._launch(task)
                launched += 1
        return launched

    def _launch(self, task: Task) -> None:
        attempt = self._attempts[task.task_id] + 1
        self._attempts[task.task_id] = attempt
        self._lifetime[task.task_id] = self._lifetime.get(task.task_id, 0) + 1
        payload = self._payload(task, attempt)
        import pickle

        self.store.record_task_stats(
            task.task_id, payload_bytes=len(pickle.dumps(payload))
        )
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, payload), daemon=True
        )
        process.start()
        child_conn.close()
        now = time.monotonic()
        deadline = (
            now + self.config.timeout if self.config.timeout else None
        )
        self._running[task.task_id] = _Handle(
            task=task,
            process=process,
            conn=parent_conn,
            attempt=attempt,
            started=now,
            deadline=deadline,
        )
        self.store.mark_running(task.task_id, attempt)
        self._status[task.task_id] = "running"

    def _payload(self, task: Task, attempt: int) -> dict:
        config = self.config
        payload = {
            "task": task.to_row(),
            "attempt": attempt,
            "effort": config.effort,
            "perf": config.perf,
            "trace": config.trace,
            "campaign_dir": str(self.campaign_dir),
            "netlist_store": config.netlist_store,
            "inject": self._fault_code(task.task_id, attempt),
        }
        if task.kind == "baseline":
            from repro.bench.runner import wmin_cache_key

            payload["start_width"] = self.store.wmin_get(
                wmin_cache_key(task.circuit, task.scale, task.seed)
            )
        else:
            payload["baseline"] = self.store.result_of(task.deps[0])
        return payload

    def _fault_code(self, task_id: str, attempt: int) -> int:
        """Injected-fault decision for one launch.

        The ``fault_hook`` callable sees the per-invocation attempt; the
        serialized ``config.faults`` spec is counted against *lifetime*
        attempts, so an injected transient fault (e.g. ``N=1`` with
        ``retries=0``) fails a campaign run but is recovered by resume —
        exactly the shape of a real transient crash.
        """
        if self.fault_hook is not None:
            code = self.fault_hook(task_id, attempt)
            if code:
                return code
        spec = self.config.faults.get(task_id, 0)
        lifetime = self._lifetime.get(task_id, attempt)
        if spec > 0 and lifetime <= spec:
            return _FAULT_RAISE
        if spec < 0 and lifetime <= -spec:
            return _FAULT_HANG
        return _FAULT_NONE

    # -- completion handling -------------------------------------------

    def _poll_running(self) -> None:
        conns = [handle.conn for handle in self._running.values()]
        ready = set(_conn_wait(conns, timeout=0.05))
        now = time.monotonic()
        for handle in list(self._running.values()):
            if handle.conn in ready:
                self._reap(handle)
            elif handle.deadline is not None and now > handle.deadline:
                handle.process.kill()
                handle.process.join()
                self._close(handle)
                self._record_failure(
                    handle,
                    f"task timed out after {self.config.timeout:g}s "
                    f"(worker killed)",
                )
            elif not handle.process.is_alive():
                # Died without a pipe event getting through (rare; the
                # closed pipe usually surfaces via wait()).
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
        if task.kind == "baseline":
            from repro.bench.runner import wmin_cache_key

            self.store.wmin_set(
                wmin_cache_key(task.circuit, task.scale, task.seed),
                result["min_width"],
            )
        self.echo(f"done    {task.task_id} ({seconds:.1f}s)")

    def _record_failure(self, handle: _Handle, error: str) -> None:
        task = handle.task
        seconds = time.monotonic() - handle.started
        if handle.attempt < self.config.max_attempts:
            delay = self.config.backoff * (2 ** (handle.attempt - 1))
            self.store.mark_pending(task.task_id, error=error)
            self._status[task.task_id] = "pending"
            self._delayed.append((time.monotonic() + delay, task.task_id))
            self.echo(
                f"retry   {task.task_id} (attempt {handle.attempt} failed; "
                f"next in {delay:g}s)"
            )
        else:
            self.store.mark_failed(task.task_id, error, seconds)
            self._status[task.task_id] = "failed"
            self.echo(
                f"failed  {task.task_id} after {handle.attempt} attempts"
            )
            self._skip_dependents(task.task_id)

    def _skip_dependents(self, task_id: str) -> None:
        for dep_id in self._dependents.get(task_id, ()):  # graph is a DAG
            if self._status.get(dep_id) in ("done", "failed", "skipped"):
                continue
            if dep_id in self._queue:
                self._queue.remove(dep_id)
            self._delayed = [
                (at, tid) for at, tid in self._delayed if tid != dep_id
            ]
            self._finish(
                dep_id, "skipped",
                f"skipped: dependency {task_id} {self._status[task_id]}",
            )
            self._skip_dependents(dep_id)

    def _finish(self, task_id: str, status: str, reason: str) -> None:
        if status == "skipped":
            self.store.mark_skipped(task_id, reason)
        else:
            self.store.mark_failed(task_id, reason)
        self._status[task_id] = status
        self.echo(f"{status:<7} {task_id} ({reason})")

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
