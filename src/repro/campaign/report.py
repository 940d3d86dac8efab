"""Render campaign tables and status from the durable store.

The acceptance bar for the whole subsystem lives here: for a completed
matrix, ``render_report(store, "table2")`` must be **byte-identical** to
what ``python -m repro.bench.runner table2`` prints for the same
circuits/algorithms/seed — the rows travel store → JSON →
``BaselineRun``/``VariantRun`` round-trip → the *same*
:mod:`repro.bench.tables` formatters the sequential runner uses, in the
same matrix order (task ``idx`` is the sequential loop order).
"""

from __future__ import annotations

from repro.campaign.model import CampaignConfig
from repro.campaign.store import CampaignStore, CampaignStoreError

REPORT_EXPERIMENTS = ("table1", "table2", "table3")


def load_config(store: CampaignStore) -> CampaignConfig:
    data = store.get_meta("config")
    if data is None:
        raise CampaignStoreError("store has no campaign config recorded")
    try:
        return CampaignConfig.from_dict(data)
    except ValueError as exc:
        raise CampaignStoreError(
            f"stored campaign config is invalid: {exc}"
        ) from None


def gather_runs(store: CampaignStore, seed: int | None = None):
    """Reconstruct runs for one seed, in sequential-runner order.

    Returns ``(config, baselines, runs_by_algorithm, missing)`` where
    ``missing`` lists task ids without a stored result (failed, skipped
    or still pending).  Reconstruction is a full serialization
    round-trip through :meth:`BaselineRun.from_dict` /
    :meth:`VariantRun.from_dict`.
    """
    from repro.bench.runner import BaselineRun, VariantRun

    config = load_config(store)
    if seed is None:
        seed = config.seeds[0]
    if seed not in config.seeds:
        raise CampaignStoreError(
            f"seed {seed} not in campaign seeds {config.seeds}"
        )
    baselines: list = []
    runs_by_algorithm: dict[str, list] = {
        algorithm: [] for algorithm in config.algorithms
    }
    missing: list[str] = []
    for task in store.tasks():
        if task.seed != seed:
            continue
        result = store.result_of(task.task_id)
        if result is None:
            missing.append(task.task_id)
            continue
        if task.kind == "baseline":
            baselines.append(BaselineRun.from_dict(result))
        else:
            runs_by_algorithm[task.algorithm].append(
                VariantRun.from_dict(result)
            )
    return config, baselines, runs_by_algorithm, missing


def render_report(
    store: CampaignStore,
    experiment: str = "table2",
    *,
    seed: int | None = None,
    allow_partial: bool = False,
) -> str:
    """The sequential runner's table text, rendered from the store."""
    from repro.bench import tables

    if experiment not in REPORT_EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; "
            f"choose from {REPORT_EXPERIMENTS}"
        )
    config, baselines, runs_by_algorithm, missing = gather_runs(
        store, seed=seed
    )
    if missing and not allow_partial:
        raise CampaignStoreError(
            f"{len(missing)} task(s) have no result "
            f"({', '.join(missing[:5])}{'…' if len(missing) > 5 else ''}); "
            f"resume the campaign or pass allow_partial"
        )
    if experiment == "table1":
        return tables.format_table1(baselines, scale=config.scale)
    if experiment == "table2":
        return tables.format_table2(runs_by_algorithm, scale=config.scale)
    return tables.format_table3(runs_by_algorithm, scale=config.scale)


def render_status(store: CampaignStore) -> str:
    """Human-readable campaign progress from the store."""
    rows = store.task_rows()
    counts = store.counts()
    total = len(rows)
    done_seconds = sum(
        row["seconds"] for row in rows if row["status"] == "done"
    )
    lines = [
        f"campaign: {total} tasks — "
        + ", ".join(
            f"{counts[status]} {status}"
            for status in ("done", "running", "pending", "failed", "skipped")
        )
        + f" ({done_seconds:.1f}s of completed work)"
    ]
    for row in rows:
        if row["status"] in ("running", "failed", "skipped"):
            note = (row["error"] or "").strip().splitlines()
            suffix = f" — {note[-1]}" if note else ""
            lines.append(f"  {row['status']:<8} {row['task_id']}{suffix}")
    rss = [
        s["peak_rss_mb"] for s in store.task_stats().values()
        if s["peak_rss_mb"] is not None
    ]
    if rss:
        lines.append(f"task stats: worker peak RSS max {max(rss):.1f} MB")
    return "\n".join(lines)