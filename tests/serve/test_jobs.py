"""Job canonicalization, hashing, and worker-side execution."""

import json

import pytest

from repro.core.config import RunConfig
from repro.core.journal import read_journal
from repro.serve.jobs import (
    JobError,
    canonical_text,
    execute_job,
    job_hash,
    normalize_config,
)

PLACE_CONFIG = {"circuit": "tseng", "scale": 0.02, "place_effort": 0.05}


class TestNormalize:
    def test_fills_run_config_defaults(self):
        config = normalize_config("place", PLACE_CONFIG)
        assert set(config) == set(RunConfig().to_dict())
        assert config["circuit"] == "tseng"
        assert config["seed"] == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobError, match="unknown job kind"):
            normalize_config("frobnicate", PLACE_CONFIG)

    def test_unknown_key_rejected(self):
        with pytest.raises(JobError, match="unknown config key"):
            normalize_config("place", {**PLACE_CONFIG, "typo_key": 1})

    def test_needs_exactly_one_input(self):
        with pytest.raises(JobError, match="exactly one"):
            normalize_config("place", {})
        with pytest.raises(JobError, match="exactly one"):
            normalize_config(
                "place", {"circuit": "tseng", "blif": "x.blif"}
            )

    def test_unknown_circuit_rejected(self):
        with pytest.raises(JobError, match="unknown circuit"):
            normalize_config("place", {"circuit": "tsneg"})

    def test_unknown_algorithm_rejected_for_optimize(self):
        with pytest.raises(JobError):
            normalize_config(
                "optimize", {**PLACE_CONFIG, "algorithm": "bogus"}
            )
        # ...but place jobs never run the optimizer, so any string is fine
        normalize_config("place", {**PLACE_CONFIG, "algorithm": "bogus"})

    def test_campaign_surface(self):
        config = normalize_config("campaign", {
            "circuits": "tseng", "algorithms": "rt,lex-3", "seeds": [1, "2"],
        })
        assert config["circuits"] == ["tseng"]
        assert config["algorithms"] == ["rt", "lex-3"]
        assert config["seeds"] == [1, 2]
        with pytest.raises(JobError, match="unknown algorithm"):
            normalize_config("campaign", {"algorithms": "bogus"})


class TestHash:
    def test_invariant_under_key_order(self):
        forward = normalize_config("place", PLACE_CONFIG)
        reversed_keys = dict(reversed(list(forward.items())))
        assert job_hash("place", forward) == job_hash("place", reversed_keys)
        assert canonical_text(forward) == canonical_text(reversed_keys)

    def test_kind_is_folded_in(self):
        config = normalize_config("place", PLACE_CONFIG)
        assert job_hash("place", config) != job_hash("route", config)

    def test_defaults_and_explicit_values_coalesce(self):
        implicit = normalize_config("place", PLACE_CONFIG)
        explicit = normalize_config("place", {**PLACE_CONFIG, "seed": 0})
        assert job_hash("place", implicit) == job_hash("place", explicit)


class TestExecute:
    def test_place_job_writes_result_and_journal(self, tmp_path):
        config = normalize_config("place", PLACE_CONFIG)
        text = execute_job({
            "job_id": "place-x", "kind": "place",
            "config": config, "run_dir": str(tmp_path / "run"),
        })
        assert text == (tmp_path / "run" / "result.json").read_text()
        payload = json.loads(text)
        assert payload["kind"] == "place"
        assert payload["critical_delay"] > 0
        entries = read_journal(tmp_path / "run" / "journal.jsonl")
        kinds = [entry["kind"] for entry in entries]
        assert kinds[0] == "start"
        assert kinds[-1] == "result"

    def test_execution_is_deterministic(self, tmp_path):
        config = normalize_config("place", PLACE_CONFIG)
        texts = [
            execute_job({
                "job_id": f"place-{index}", "kind": "place",
                "config": config, "run_dir": str(tmp_path / f"run{index}"),
            })
            for index in range(2)
        ]
        first, second = (json.loads(text) for text in texts)
        first.pop("seconds"), second.pop("seconds")
        assert first == second

    def test_stored_route_jobs_key_still_executes(self, tmp_path):
        """Rows stored while W∞ routing and tied-sink embedding had
        worker pools carry ``route_jobs`` and ``jobs``; the daemon
        re-executes them after a restart.  New submissions naming
        either are rejected like any unknown key."""
        config = {
            **normalize_config("route", PLACE_CONFIG),
            "route_jobs": 2,
            "jobs": 2,
        }
        text = execute_job({
            "job_id": "route-x", "kind": "route",
            "config": config, "run_dir": str(tmp_path / "run"),
        })
        payload = json.loads(text)
        assert payload["kind"] == "route"
        assert payload["route"]["channel_width"] > 0
        for key in ("route_jobs", "jobs"):
            with pytest.raises(JobError, match="unknown config key"):
                normalize_config("route", {**PLACE_CONFIG, key: 2})

    def test_crash_is_journaled(self, tmp_path):
        config = normalize_config("place", PLACE_CONFIG)
        config["blif"], config["circuit"] = str(tmp_path / "nope.blif"), None
        with pytest.raises(FileNotFoundError):
            execute_job({
                "job_id": "place-x", "kind": "place",
                "config": config, "run_dir": str(tmp_path / "run"),
            })
        entries = read_journal(tmp_path / "run" / "journal.jsonl")
        assert entries[-1]["kind"] == "crash"
        assert "FileNotFoundError" in entries[-1]["error"]
