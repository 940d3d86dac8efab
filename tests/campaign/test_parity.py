"""Acceptance: store-rendered reports byte-identical to the sequential runner.

Two parity checks, per the campaign engine's contract:

* an uninterrupted parallel campaign's ``table2`` equals the sequential
  ``run_matrix`` + ``format_table2`` text exactly, and
* a campaign SIGKILLed mid-task and resumed produces the *same* bytes,
  with the already-completed rows untouched by the resume.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import api
from repro.bench import tables
from repro.bench.runner import run_matrix, run_vpr_baseline
from repro.campaign.store import CampaignStore

SCALE, EFFORT, SEED = 0.02, 0.2, 0


def sequential_table2(circuits, algorithms):
    """What ``repro.bench.runner table2`` prints for this matrix."""
    runs = run_matrix(
        circuits,
        algorithms,
        lambda name: run_vpr_baseline(name, scale=SCALE, seed=SEED),
        effort=EFFORT,
        seed=SEED,
    )
    return tables.format_table2(runs, scale=SCALE)


class TestParallelParity:
    def test_campaign_report_matches_sequential_runner(self, tmp_path):
        circuits, algorithms = ["tseng", "ex5p"], ["rt"]
        summary = api.campaign_run(
            tmp_path / "camp",
            circuits=circuits,
            algorithms=algorithms,
            scale=SCALE,
            effort=EFFORT,
            jobs=2,
        )
        assert summary.ok
        report = api.campaign_report(tmp_path / "camp", "table2")
        assert report == sequential_table2(circuits, algorithms)


class TestKillResumeParity:
    """SIGKILL a live campaign mid-task, resume, compare bytes."""

    CIRCUITS = ["tseng", "ex5p", "apex4"]

    def test_kill_resume_report_is_byte_identical(self, tmp_path):
        camp = tmp_path / "camp"
        # A hang on the *last* baseline makes the campaign provably
        # mid-task once everything before it is done — no race between
        # the kill signal and campaign completion.  The module run here
        # is ``campaign run`` with the hanging worker function.
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "tests.campaign.fake_workers",
                "--hang", "baseline/apex4@0.02/s0", str(camp),
                "--circuits", ",".join(self.CIRCUITS),
                "--algorithms", "rt",
                "--scale", str(SCALE),
                "--effort", str(EFFORT),
                "--jobs", "2",
            ],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parents[2],
            start_new_session=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    pytest.fail("campaign exited before it could be killed")
                if (camp / "campaign.sqlite").exists():
                    counts = CampaignStore.in_dir(camp).counts()
                    if counts["done"] == 4 and counts["running"]:
                        break
                time.sleep(0.1)
            else:
                pytest.fail("campaign never reached the mid-task state")
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()

        store = CampaignStore.in_dir(camp)
        before = {
            row["task_id"]: (row["updated_at"], row["total_attempts"])
            for row in store.task_rows()
            if row["status"] == "done"
        }
        assert len(before) == 4  # tseng and ex5p both finished pre-kill

        summary = api.campaign_resume(camp)
        assert summary.ok and summary.done == 6

        after = {
            row["task_id"]: (row["updated_at"], row["total_attempts"])
            for row in store.task_rows()
        }
        for task_id, snapshot in before.items():
            assert after[task_id] == snapshot  # done work never re-executed

        report = api.campaign_report(camp, "table2")
        assert report == sequential_table2(self.CIRCUITS, ["rt"])
