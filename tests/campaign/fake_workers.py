"""Worker functions that make one campaign task fail or hang.

:class:`~repro.campaign.scheduler.CampaignScheduler` takes the function
its worker processes run (``worker``, default
:func:`~repro.campaign.scheduler.execute_task`).  Each fake here acts on
one task and hands every other task to ``execute_task``.  They are
instances of module-level classes, so they pickle and work under any
``mp_context``.

Run as a module, this file starts a campaign whose named task hangs, so
that a kill lands mid-task (the kill/resume check in ``test_parity.py``
and the CI ``campaign-smoke`` job).  It takes the arguments of
``repro campaign run``::

    PYTHONPATH=src python -m tests.campaign.fake_workers \\
        --hang baseline/ex5p@0.02/s0 camp_out \\
        --circuits tseng,ex5p --algorithms rt --scale 0.02 --jobs 2
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from repro.campaign.scheduler import execute_task


@dataclass(frozen=True)
class FailOn:
    """Raise on task ``task_id``; run every other task."""

    task_id: str

    def __call__(self, payload: dict) -> dict:
        if payload["task"]["task_id"] == self.task_id:
            raise RuntimeError(f"fake failure in {self.task_id}")
        return execute_task(payload)


@dataclass(frozen=True)
class HangOn:
    """Sleep for an hour on task ``task_id``; run every other task."""

    task_id: str

    def __call__(self, payload: dict) -> dict:
        if payload["task"]["task_id"] == self.task_id:
            time.sleep(3600.0)
        return execute_task(payload)


def main(argv: list[str] | None = None) -> int:
    """``campaign run`` with :class:`HangOn` as the worker function."""
    from repro.bench.suite import resolve_names
    from repro.campaign import (
        CampaignConfig,
        CampaignScheduler,
        CampaignStore,
        build_matrix,
    )
    from repro.cli import build_parser

    hang = argparse.ArgumentParser(add_help=False)
    hang.add_argument("--hang", required=True, metavar="TASK")
    known, run_argv = hang.parse_known_args(argv)
    args = build_parser().parse_args(["campaign", "run", *run_argv])
    config = CampaignConfig(
        circuits=resolve_names(args.circuits),
        algorithms=args.algorithms.split(","),
        seeds=[int(token) for token in args.seeds.split(",")],
        scale=args.scale,
        effort=args.effort,
        jobs=args.jobs,
        perf=args.perf,
        trace=args.trace,
    )
    store = CampaignStore.in_dir(args.campaign_dir)
    store.set_meta("config", config.to_dict())
    store.add_tasks(build_matrix(config))
    summary = CampaignScheduler(
        store, config, worker=HangOn(known.hang), echo=print
    ).run()
    return 0 if summary.ok else 1


if __name__ == "__main__":
    sys.exit(main())
