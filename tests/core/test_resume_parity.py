"""Resume parity: checkpoint -> kill -> resume == uninterrupted run.

The acceptance bar for checkpoint/restart (ISSUE PR 3): on suite
circuits, a run killed mid-flow and resumed from its checkpoint must
finish **bit-identical** to the uninterrupted run — same final netlist
(ids, names, eq-classes), same placement (slot map *and* per-slot
stacks), same critical delay, same iteration history.
"""

import json

import pytest

from repro import api
from repro.core.checkpoint import (
    Checkpointer,
    FlowState,
    checkpoint_config,
    load_checkpoint,
)
from repro.core.config import ReplicationConfig
from repro.core.flow import ReplicationOptimizer
from repro.core.journal import FlowJournal, read_journal
from repro.bench.suite import suite_circuit
from repro.place.initial import random_placement
from repro.timing.sta import analyze
from tests.core.test_checkpoint import (
    assert_netlists_identical,
    assert_placements_identical,
)

CIRCUITS = ["tseng", "ex5p", "alu4"]

CONFIG = ReplicationConfig(
    max_iterations=8, patience=2, max_tree_nodes=24, max_labels_per_vertex=6
)


class SimulatedKill(BaseException):
    """Raised by the killing checkpointer; BaseException so it models a
    hard stop (KeyboardInterrupt-like) rather than a caught error."""


class KillAfterFirstSave(Checkpointer):
    def save(self, state):
        path = super().save(state)
        if self.saves >= 1:
            raise SimulatedKill
        return path


def fresh_instance(circuit):
    netlist, arch = suite_circuit(circuit, scale=0.05)
    placement = random_placement(netlist, arch, seed=3)
    return netlist, placement


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_resume_is_bit_identical(tmp_path, circuit):
    # Arm 1: uninterrupted.
    netlist, placement = fresh_instance(circuit)
    straight = ReplicationOptimizer(netlist, placement, CONFIG).run()

    # Arm 2: checkpoint every 2 iterations, die right after the first save.
    netlist2, placement2 = fresh_instance(circuit)
    run_dir = tmp_path / circuit
    killer = KillAfterFirstSave(run_dir, every=2, config=CONFIG)
    with pytest.raises(SimulatedKill):
        with FlowJournal(run_dir / "journal.jsonl") as journal:
            ReplicationOptimizer(netlist2, placement2, CONFIG).run(
                journal=journal, checkpointer=killer
            )

    # The kill happened mid-flow, before the straight run's end.
    payload = load_checkpoint(run_dir)
    assert payload["iteration"] + 1 < len(straight.history)

    # Arm 3: restore and finish.
    state = FlowState.from_payload(payload)
    config = checkpoint_config(payload)
    journal = FlowJournal(run_dir / "journal.jsonl", mode="a")
    with journal:
        resumed = ReplicationOptimizer(
            state.netlist, state.placement, config
        ).run(journal=journal, resume_state=state)

    # Bit-identical outcome: delays, history, netlist, placement.
    assert resumed.initial_delay == straight.initial_delay
    assert resumed.final_delay == straight.final_delay
    assert resumed.terminated_early == straight.terminated_early
    assert resumed.history == straight.history
    assert_netlists_identical(straight.netlist, resumed.netlist)
    assert_placements_identical(straight.placement, resumed.placement)
    assert (
        analyze(straight.netlist, straight.placement).critical_delay
        == analyze(resumed.netlist, resumed.placement).critical_delay
    )

    # The appended journal covers the full history exactly once.
    entries = read_journal(run_dir / "journal.jsonl")
    iterations = [e["iteration"] for e in entries if e["kind"] == "iteration"]
    assert iterations == sorted(set(iterations))
    assert len(iterations) == len(straight.history)
    kinds = [e["kind"] for e in entries]
    assert kinds.count("start") == 2  # original + resume
    assert kinds[-1] == "result"


def test_api_resume_round_trip(tmp_path):
    """The facade path: api.optimize with a killing checkpointer is
    awkward to inject, so drive optimize() to completion with
    checkpoints on, then resume from the *intermediate* checkpoint and
    verify the re-finished run matches."""
    design = api.load_design(circuit="tseng", scale=0.05)
    placement = random_placement(design.netlist, design.arch, seed=3)
    run_dir = tmp_path / "run"

    baseline = api.optimize(
        design,
        placement.copy(),
        config=CONFIG,
        run_dir=run_dir,
        checkpoint_every=2,
    )
    assert (run_dir / "checkpoint.json").exists()
    assert (run_dir / "result.json").exists()

    resumed = api.resume(run_dir)
    assert resumed.final_delay == baseline.final_delay
    assert resumed.iterations == baseline.iterations
    assert_netlists_identical(baseline.netlist, resumed.netlist)
    assert_placements_identical(baseline.placement, resumed.placement)


def test_checkpoint_with_retired_keys_resumes(tmp_path):
    """Checkpoints written while tied-sink embedding had a worker pool
    store ``jobs``, an unused ``seed`` and an ``rng_state`` placeholder;
    reading drops them and the run finishes as before."""
    design = api.load_design(circuit="tseng", scale=0.05)
    placement = random_placement(design.netlist, design.arch, seed=3)
    run_dir = tmp_path / "run"
    baseline = api.optimize(
        design, placement, config=CONFIG, run_dir=run_dir, checkpoint_every=2
    )
    path = run_dir / "checkpoint.json"
    payload = json.loads(path.read_text())
    payload["config"].update(jobs=2, seed=3)
    payload["state"]["rng_state"] = None
    path.write_text(json.dumps(payload))

    resumed = api.resume(run_dir)
    assert resumed.final_delay == baseline.final_delay
    assert resumed.iterations == baseline.iterations
