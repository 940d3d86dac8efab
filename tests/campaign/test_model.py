"""Task model: deterministic ids, matrix structure, config validation."""

from dataclasses import fields

import pytest

from repro.campaign.model import (
    CampaignConfig,
    Task,
    artifact_name,
    baseline_task_id,
    build_matrix,
    variant_task_id,
)


def config(**overrides) -> CampaignConfig:
    base = dict(circuits=["tseng", "ex5p"], algorithms=["local", "rt"])
    base.update(overrides)
    return CampaignConfig(**base)


class TestTaskIds:
    def test_deterministic_and_readable(self):
        assert baseline_task_id("tseng", 0.08, 0) == "baseline/tseng@0.08/s0"
        assert (
            variant_task_id("tseng", 0.08, 3, "lex-3")
            == "variant/tseng@0.08/s3/lex-3"
        )

    def test_scale_formatting_is_stable(self):
        # 0.080 and 0.08 are the same campaign coordinate.
        assert baseline_task_id("tseng", 0.080, 0) == baseline_task_id(
            "tseng", 0.08, 0
        )

    def test_artifact_name_is_filesystem_safe(self):
        name = artifact_name(variant_task_id("tseng", 0.08, 0, "rt"))
        assert "/" not in name


class TestMatrix:
    def test_order_matches_sequential_runner(self):
        tasks = build_matrix(config())
        ids = [task.task_id for task in tasks]
        assert ids == [
            "baseline/tseng@0.08/s0",
            "variant/tseng@0.08/s0/local",
            "variant/tseng@0.08/s0/rt",
            "baseline/ex5p@0.08/s0",
            "variant/ex5p@0.08/s0/local",
            "variant/ex5p@0.08/s0/rt",
        ]
        assert [task.index for task in tasks] == list(range(6))

    def test_variants_depend_on_their_baseline(self):
        tasks = build_matrix(config())
        by_id = {task.task_id: task for task in tasks}
        for task in tasks:
            if task.kind == "variant":
                assert task.deps == (
                    baseline_task_id(task.circuit, task.scale, task.seed),
                )
                assert by_id[task.deps[0]].kind == "baseline"
            else:
                assert task.deps == ()

    def test_multi_seed_matrix(self):
        tasks = build_matrix(config(seeds=[0, 1]))
        assert len(tasks) == 12
        assert len({task.task_id for task in tasks}) == 12

    def test_task_row_round_trip(self):
        for task in build_matrix(config()):
            assert Task.from_row(task.to_row()) == task


class TestConfig:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            config(algorithms=["rt", "nope"])

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError):
            config(circuits=[])
        with pytest.raises(ValueError):
            config(seeds=[])

    def test_round_trip(self):
        original = config(seeds=[0, 3], jobs=2, perf=True)
        restored = CampaignConfig.from_dict(original.to_dict())
        assert restored == original

    def test_fault_handling_fields_are_gone(self):
        """A task runs once per invocation: no field sets a time limit,
        a rerun count, a rerun delay or faults for tests, and a stored
        config that holds them reads without them."""
        retired = {"timeout", "retries", "backoff", "faults"}
        assert retired.isdisjoint(field.name for field in fields(CampaignConfig))
        stored = {
            **config().to_dict(),
            "timeout": 60.0, "retries": 2, "backoff": 0.5,
            "faults": {"baseline/tseng@0.08/s0": 1},
        }
        assert CampaignConfig.from_dict(stored) == config()
