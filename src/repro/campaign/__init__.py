"""Campaign engine: parallel, resumable experiment runs.

The paper's Section VII evaluation is a matrix — circuits × algorithms ×
seeds — that the sequential benchmark runner executes as one long
in-process loop.  This package turns that matrix into an explicit task
graph (baseline tasks feeding variant tasks), executes it on a
process-pool scheduler that runs each pending task once per invocation,
and records every outcome in a durable SQLite store, so a killed or
failed campaign resumes where it left off and final tables are rendered
*from the store* — byte-identical to the sequential runner's output.

Modules:

* :mod:`repro.campaign.model` — task dataclasses, deterministic task
  ids, matrix construction, campaign config.
* :mod:`repro.campaign.store` — the ``campaign.sqlite`` result store
  (WAL mode, one row per task).
* :mod:`repro.campaign.scheduler` — process-pool execution: one launch
  per task per invocation, a failed task's dependents skipped.
* :mod:`repro.campaign.report` — render tables/status from the store.
"""

from repro.campaign.model import (
    CampaignConfig,
    Task,
    baseline_task_id,
    build_matrix,
    variant_task_id,
)
from repro.campaign.report import render_report, render_status
from repro.campaign.scheduler import CampaignScheduler, CampaignSummary
from repro.campaign.store import STORE_FILE, CampaignStore

__all__ = [
    "CampaignConfig",
    "CampaignScheduler",
    "CampaignStore",
    "CampaignSummary",
    "STORE_FILE",
    "Task",
    "baseline_task_id",
    "build_matrix",
    "render_report",
    "render_status",
    "variant_task_id",
]
