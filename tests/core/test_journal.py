"""Flow journal: schema, incremental flush, crash readability."""

import json

import pytest

from repro.core.config import ReplicationConfig
from repro.core.flow import ReplicationOptimizer
from repro.core.journal import (
    ITERATION_KEYS,
    FlowJournal,
    iteration_entries,
    iteration_entry,
    read_journal,
)
from tests.core.test_flow import staircase_instance


def run_journaled(tmp_path, max_iterations=4):
    nl, placement = staircase_instance()
    path = tmp_path / "journal.jsonl"
    with FlowJournal(path) as journal:
        result = ReplicationOptimizer(
            nl, placement, ReplicationConfig(max_iterations=max_iterations)
        ).run(journal=journal)
    return path, result


class TestSchema:
    def test_iteration_entries_carry_every_key(self, tmp_path):
        path, result = run_journaled(tmp_path)
        entries = iteration_entries(path)
        assert len(entries) == len(result.history)
        for entry in entries:
            assert set(ITERATION_KEYS) <= set(entry)

    def test_journal_matches_result_iterations(self, tmp_path):
        """Acceptance criterion: journal delays == OptimizationResult.iterations."""
        path, result = run_journaled(tmp_path)
        entries = iteration_entries(path)
        for entry, record in zip(entries, result.iterations):
            assert entry["iteration"] == record.iteration
            assert entry["delay_before"] == record.delay_before
            assert entry["delay_after"] == record.delay_after
            assert entry["replicated"] == record.replicated
            assert entry["unified"] == record.unified
            assert tuple(entry["sink"]) == record.sink

    def test_start_and_result_events_bracket_the_run(self, tmp_path):
        path, result = run_journaled(tmp_path)
        entries = read_journal(path)
        assert entries[0]["kind"] == "start"
        assert entries[0]["resumed"] is False
        assert entries[-1]["kind"] == "result"
        assert entries[-1]["final_delay"] == result.final_delay
        assert entries[-1]["iterations"] == len(result.history)

    def test_iteration_entry_defaults_are_total(self):
        from repro.core.flow import IterationRecord

        record = IterationRecord(
            iteration=0, sink=(1, 0), epsilon=0.0, delay_before=2.0,
            delay_after=1.0, replicated=1, unified=0, replicated_cum=1,
            unified_cum=0,
        )
        entry = iteration_entry(record)
        assert set(entry) == set(ITERATION_KEYS)
        assert entry["tree_nodes"] == 0
        assert entry["wall_seconds"] == 0.0

    def test_observability_extras_populated(self, tmp_path):
        path, _result = run_journaled(tmp_path)
        entries = iteration_entries(path)
        # The staircase instance replicates in iteration 0: its tree is
        # non-trivial, so the flow-side stats must be reported.
        first = entries[0]
        assert first["tree_nodes"] > 0
        assert first["tree_movable"] > 0
        assert first["embed_candidates"] > 0
        assert first["wall_seconds"] > 0


class TestCrashReadability:
    def test_each_line_is_complete_json(self, tmp_path):
        path, _ = run_journaled(tmp_path)
        for line in path.read_text().splitlines():
            json.loads(line)  # raises on a torn line

    def test_simulated_kill_leaves_readable_journal(self, tmp_path):
        """Exception injection mid-run: journal keeps every finished
        iteration plus a crash marker."""
        nl, placement = staircase_instance()
        path = tmp_path / "journal.jsonl"

        class Boom(RuntimeError):
            pass

        class KillingJournal(FlowJournal):
            def iteration(self, record, **extra):
                super().iteration(record, **extra)
                if record.iteration == 1:
                    raise Boom("simulated kill")

        journal = KillingJournal(path)
        with pytest.raises(Boom):
            ReplicationOptimizer(
                nl, placement, ReplicationConfig(max_iterations=6)
            ).run(journal=journal)
        journal.close()

        entries = read_journal(path)
        kinds = [e["kind"] for e in entries]
        assert kinds == ["start", "iteration", "iteration", "crash"]
        assert "Boom" in entries[-1]["error"]

    def test_torn_last_line_tolerated(self, tmp_path):
        path, _ = run_journaled(tmp_path)
        whole = read_journal(path)
        # Tear the final line as a hard kill mid-write would.
        data = path.read_text()
        path.write_text(data[: len(data) - 20])
        torn = read_journal(path)
        assert torn == whole[:-1]

    def test_torn_middle_line_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"kind": "start"\n{"kind": "result"}\n')
        with pytest.raises(json.JSONDecodeError):
            read_journal(path)

    def test_lines_are_flushed_as_written(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = FlowJournal(path)
        journal.event("start", x=1)
        # Read back through a second handle *before* close: the line must
        # already be on disk.
        assert read_journal(path) == [{"kind": "start", "x": 1}]
        journal.close()

