"""Job model and worker-side execution for the replication service.

A *job* is one unit of service work: a kind (``place`` / ``optimize`` /
``route`` / ``campaign``) plus a JSON config.  Flow kinds take the same
config surface as :class:`repro.core.config.RunConfig` (the CLI/API
execution knobs — partial configs are filled from the defaults);
``campaign`` jobs take the campaign matrix parameters.

The config is *canonicalized* at submission — defaults filled in,
unknown keys rejected, names validated — and hashed with the same
sorted-key JSON protocol as :func:`repro.core.checkpoint.config_hash`,
so the hash is invariant under client-side key order and stable across
processes.  That hash keys the daemon's result cache: an identical
submission is served the stored ``result.json`` text byte-identically.

:func:`execute_job` runs in a worker process forked by the daemon.  It
writes the job's run-directory artifacts (``journal.jsonl`` streamed
per event for live progress, ``result.json`` replaced atomically) and
returns the exact result text the parent stores.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from pathlib import Path

from repro.core.config import RunConfig
from repro.core.journal import FlowJournal

JOB_KINDS = ("place", "optimize", "route", "campaign")

RESULT_FILE = "result.json"
JOURNAL_FILE = "journal.jsonl"


class JobError(ValueError):
    """Invalid job submission (unknown kind, bad config)."""


# ----------------------------------------------------------------------
# Config canonicalization and hashing
# ----------------------------------------------------------------------

#: Campaign-kind config surface (subset of CampaignConfig, sans faults).
CAMPAIGN_DEFAULTS = {
    "circuits": ["tseng"],
    "algorithms": ["rt"],
    "seeds": [0],
    "scale": 0.08,
    "effort": 1.0,
    "jobs": 1,
    "timeout": None,
    "retries": 2,
    "backoff": 0.5,
    "route_jobs": 1,
}


def normalize_config(kind: str, config: dict | None) -> dict:
    """Fill defaults, reject unknown keys, validate names.

    Returns the full config dict a worker will execute — the canonical
    form the job hash is computed over, so two submissions that differ
    only in omitted-vs-explicit defaults (or key order) coalesce.
    """
    if kind not in JOB_KINDS:
        raise JobError(
            f"unknown job kind {kind!r}; valid: {', '.join(JOB_KINDS)}"
        )
    config = dict(config or {})
    if kind == "campaign":
        return _normalize_campaign(config)
    defaults = RunConfig().to_dict()
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise JobError(
            f"unknown config key(s) for {kind} job: {', '.join(unknown)}"
        )
    merged = {**defaults, **config}
    if (merged["circuit"] is None) == (merged["blif"] is None):
        raise JobError("config needs exactly one of 'circuit' or 'blif'")
    if merged["circuit"] is not None:
        from repro.bench.suite import SPEC_BY_NAME

        if merged["circuit"] not in SPEC_BY_NAME:
            raise JobError(
                f"unknown circuit {merged['circuit']!r}; "
                f"valid: {', '.join(sorted(SPEC_BY_NAME))}"
            )
    if kind == "optimize" and merged["algorithm"] != "none":
        from repro.core.signatures import scheme_by_name

        try:
            scheme_by_name(merged["algorithm"])
        except ValueError as exc:
            raise JobError(str(exc)) from None
    try:
        RunConfig.from_dict(merged)
    except TypeError as exc:  # defensive: defaults keep this unreachable
        raise JobError(f"bad config: {exc}") from None
    return merged


def _normalize_campaign(config: dict) -> dict:
    unknown = sorted(set(config) - set(CAMPAIGN_DEFAULTS))
    if unknown:
        raise JobError(
            f"unknown config key(s) for campaign job: {', '.join(unknown)}"
        )
    merged = {**CAMPAIGN_DEFAULTS, **config}
    from repro.bench.runner import ALGORITHMS
    from repro.bench.suite import resolve_names

    if isinstance(merged["algorithms"], str):
        merged["algorithms"] = [
            token.strip() for token in merged["algorithms"].split(",")
        ]
    bad = sorted(set(merged["algorithms"]) - set(ALGORITHMS))
    if bad:
        raise JobError(
            f"unknown algorithm(s): {', '.join(bad)}; "
            f"valid: {', '.join(ALGORITHMS)}"
        )
    try:
        merged["circuits"] = resolve_names(merged["circuits"])
    except ValueError as exc:
        raise JobError(str(exc)) from None
    merged["seeds"] = [int(seed) for seed in merged["seeds"]]
    return merged


def canonical_text(config: dict) -> str:
    """Sorted-key JSON text of a config (what the store records)."""
    return json.dumps(config, sort_keys=True)


def job_hash(kind: str, config: dict) -> str:
    """Cache key of a normalized job: sha256 over kind + sorted config.

    Same canonicalization protocol as
    :func:`repro.core.checkpoint.config_hash` (sorted-key JSON →
    sha256 → 16 hex chars), with the kind folded in so a ``place`` and
    a ``route`` job over the same config never collide.
    """
    canonical = json.dumps({"kind": kind, "config": config}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------


def _write_result_file(run_dir: Path, payload: dict) -> str:
    """Atomically write ``result.json``; returns its exact text.

    ``os.replace`` keeps a concurrently re-executed job (an orphaned
    worker racing its replacement after a daemon kill) from ever leaving
    a torn file — readers see the old text or the new, never a mix.
    """
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    tmp = run_dir / (RESULT_FILE + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, run_dir / RESULT_FILE)
    return text


def execute_job(payload: dict) -> str:
    """Run one job; returns the exact ``result.json`` text.

    ``payload`` carries ``job_id``, ``kind``, the normalized ``config``
    and the job's ``run_dir``.  Importable directly (tests, debugging).
    """
    kind = payload["kind"]
    config = payload["config"]
    run_dir = Path(payload["run_dir"])
    run_dir.mkdir(parents=True, exist_ok=True)
    if kind == "optimize":
        # The optimizer owns the journal (start/iteration/result events).
        return _execute_optimize(config, run_dir)
    journal = FlowJournal(run_dir / JOURNAL_FILE)
    try:
        if kind == "campaign":
            return _execute_campaign(config, run_dir, journal)
        return _execute_place_route(kind, config, run_dir, journal)
    except BaseException as exc:
        journal.event("crash", error=repr(exc))
        raise
    finally:
        journal.close()


def _load_and_place(cfg: RunConfig):
    from repro import api

    design = api.load_design(
        circuit=cfg.circuit,
        blif=cfg.blif,
        scale=cfg.scale,
        netlist_store=cfg.netlist_store,
    )
    placed = api.place(design, seed=cfg.seed, effort=cfg.place_effort)
    return design, placed


def _execute_place_route(
    kind: str, config: dict, run_dir: Path, journal: FlowJournal
) -> str:
    from repro import api

    cfg = RunConfig.from_dict(config)
    start = time.perf_counter()
    journal.event("start", job_kind=kind, circuit=cfg.circuit or cfg.blif,
                  scale=cfg.scale, seed=cfg.seed)
    design, placed = _load_and_place(cfg)
    journal.event("phase", phase="place",
                  critical_delay=placed.critical_delay,
                  moves_accepted=placed.moves_accepted,
                  wall_seconds=round(placed.seconds, 3))
    evaluation = api.evaluate(design, placed.placement)
    result = {
        "kind": kind,
        "critical_delay": placed.critical_delay,
        "wirelength": evaluation.wirelength,
        "cells": evaluation.cells,
        "luts": evaluation.luts,
        "pads": evaluation.pads,
        "moves_accepted": placed.moves_accepted,
    }
    if kind == "route":
        routed = api.route(
            design, placed.placement, jobs=cfg.route_jobs,
        )
        journal.event("phase", phase="route",
                      channel_width=routed.channel_width,
                      wall_seconds=round(routed.seconds, 3))
        result["route"] = {
            "w_inf": routed.w_inf,
            "w_ls": routed.w_ls,
            "channel_width": routed.channel_width,
            "wirelength": routed.wirelength,
        }
    result["seconds"] = round(time.perf_counter() - start, 3)
    text = _write_result_file(run_dir, result)
    journal.event("result", **{k: v for k, v in result.items()
                               if k not in ("kind", "route")})
    return text


def _execute_optimize(config: dict, run_dir: Path) -> str:
    from repro import api

    cfg = RunConfig.from_dict(config)
    start = time.perf_counter()
    design, placed = _load_and_place(cfg)
    opt = api.optimize(
        design,
        placed.placement,
        config=cfg,
        run_dir=run_dir,
        checkpoint_every=cfg.checkpoint_every,
    )
    # api.optimize wrote result.json; fold in job provenance (and
    # routing, when asked for) and rewrite it canonically.
    payload = json.loads((run_dir / RESULT_FILE).read_text())
    payload["kind"] = "optimize"
    if cfg.route:
        routed = api.route(design, placed.placement, jobs=cfg.route_jobs)
        payload["route"] = {
            "w_inf": routed.w_inf,
            "w_ls": routed.w_ls,
            "channel_width": routed.channel_width,
            "wirelength": routed.wirelength,
        }
    payload["seconds"] = round(time.perf_counter() - start, 3)
    return _write_result_file(run_dir, payload)


def _execute_campaign(config: dict, run_dir: Path, journal: FlowJournal) -> str:
    from repro import api
    from repro.campaign.store import STORE_FILE

    start = time.perf_counter()
    campaign_dir = run_dir / "campaign"
    journal.event("start", job_kind="campaign", circuits=config["circuits"],
                  algorithms=config["algorithms"], seeds=config["seeds"])
    if (campaign_dir / STORE_FILE).exists():
        # Re-execution after a daemon kill: pick the matrix back up.
        summary = api.campaign_resume(campaign_dir)
    else:
        summary = api.campaign_run(
            campaign_dir,
            circuits=config["circuits"],
            algorithms=config["algorithms"],
            seeds=config["seeds"],
            scale=config["scale"],
            effort=config["effort"],
            jobs=config["jobs"],
            timeout=config["timeout"],
            retries=config["retries"],
            backoff=config["backoff"],
            route_jobs=config["route_jobs"],
        )
    result = {
        "kind": "campaign",
        "total": summary.total,
        "done": summary.done,
        "failed": summary.failed,
        "skipped": summary.skipped,
        "ok": summary.ok,
        "seconds": round(time.perf_counter() - start, 3),
    }
    if not summary.ok:
        result["failures"] = {
            task_id: error.strip().splitlines()[-1] if error.strip() else ""
            for task_id, error in summary.failures.items()
        }
    text = _write_result_file(run_dir, result)
    journal.event("result", **{k: v for k, v in result.items()
                               if k not in ("kind", "failures")})
    return text


def job_worker_main(conn, payload: dict) -> None:
    """Process entry point: execute, report over the pipe, exit."""
    try:
        text = execute_job(payload)
        conn.send(("ok", text))
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
