"""Checkpoint serializers: exact round-trips, config hash, atomicity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arch import FpgaArch, LinearDelayModel
from repro.core.checkpoint import (
    CheckpointError,
    Checkpointer,
    FlowState,
    arch_from_dict,
    arch_to_dict,
    checkpoint_config,
    config_hash,
    load_checkpoint,
    netlist_from_dict,
    netlist_to_dict,
    placement_from_dict,
    placement_to_dict,
)
from repro.core.config import ReplicationConfig, RunConfig
from repro.core.flow import IterationRecord
from repro.core.signatures import LexScheme
from repro.bench.families import random_family_instance
from repro.place.initial import random_placement
from tests.conftest import diamond_netlist, place_in_row

SRC = Path(__file__).resolve().parents[2] / "src"


def family_pair(seed):
    netlist = random_family_instance(seed)
    arch = FpgaArch.min_square_for(netlist.num_logic_blocks, netlist.num_pads)
    placement = random_placement(netlist, arch, seed=seed)
    return netlist, placement


def assert_netlists_identical(a, b):
    assert a.name == b.name
    assert a._next_cell_id == b._next_cell_id
    assert a._next_net_id == b._next_net_id
    assert a._names == b._names
    assert list(a.cells) == list(b.cells)  # ids AND insertion order
    for cid in a.cells:
        ca, cb = a.cells[cid], b.cells[cid]
        assert (ca.name, ca.ctype, ca.inputs, ca.output,
                ca.truth_table, ca.eq_class) == (
            cb.name, cb.ctype, cb.inputs, cb.output,
            cb.truth_table, cb.eq_class)
    assert list(a.nets) == list(b.nets)
    for nid in a.nets:
        na, nb = a.nets[nid], b.nets[nid]
        assert (na.name, na.driver, na.sinks) == (nb.name, nb.driver, nb.sinks)


def assert_placements_identical(a, b):
    assert list(a._slot_of.items()) == list(b._slot_of.items())
    stacks_a = [(s, c) for s, c in a._cells_at.items() if c]
    stacks_b = [(s, c) for s, c in b._cells_at.items() if c]
    assert stacks_a == stacks_b


class TestSerializers:
    @pytest.mark.parametrize("seed", range(4))
    def test_netlist_round_trip_via_json(self, seed):
        netlist, _ = family_pair(seed)
        data = json.loads(json.dumps(netlist_to_dict(netlist)))
        restored = netlist_from_dict(data)
        assert_netlists_identical(netlist, restored)

    def test_netlist_sink_pins_are_tuples(self):
        netlist = diamond_netlist()
        restored = netlist_from_dict(
            json.loads(json.dumps(netlist_to_dict(netlist)))
        )
        for net in restored.nets.values():
            for pin in net.sinks:
                assert isinstance(pin, tuple)

    @pytest.mark.parametrize("seed", range(4))
    def test_placement_round_trip_preserves_orders(self, seed):
        netlist, placement = family_pair(seed)
        arch = placement.arch
        data = json.loads(json.dumps(placement_to_dict(placement)))
        restored = placement_from_dict(data, arch)
        assert_placements_identical(placement, restored)

    def test_arch_round_trip(self):
        arch = FpgaArch(7, 9, lut_size=5, clb_capacity=2, pads_per_slot=3,
                        delay_model=LinearDelayModel(1.5, 0.25, 2.0, 0.5, 0.5, 1.0))
        restored = arch_from_dict(json.loads(json.dumps(arch_to_dict(arch))))
        assert restored.width == 7 and restored.height == 9
        assert restored.lut_size == 5
        assert restored.clb_capacity == 2
        assert restored.pads_per_slot == 3
        assert vars(restored.delay_model) == vars(arch.delay_model)

    def test_non_linear_delay_model_rejected(self):
        from repro.arch import ElmoreDelayModel

        arch = FpgaArch(5, 5, delay_model=ElmoreDelayModel())
        with pytest.raises(CheckpointError):
            arch_to_dict(arch)


class TestConfigHash:
    def test_stable_across_equal_configs(self):
        a = ReplicationConfig(scheme=LexScheme(3), max_iterations=9)
        b = ReplicationConfig(scheme=LexScheme(3), max_iterations=9)
        assert config_hash(a) == config_hash(b)

    def test_differs_on_any_knob(self):
        base = ReplicationConfig()
        assert config_hash(base) != config_hash(ReplicationConfig(patience=9))
        assert config_hash(base) != config_hash(
            ReplicationConfig(scheme=LexScheme(2))
        )

    def test_config_round_trips_with_scheme(self):
        config = ReplicationConfig(scheme=LexScheme(4), max_tree_nodes=30)
        restored = ReplicationConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert config_hash(config) == config_hash(restored)
        assert type(restored.scheme) is LexScheme
        assert restored.scheme.order == 4

    def test_run_config_round_trip_and_mapping(self):
        run = RunConfig(circuit="tseng", algorithm="lex-3", effort=0.5,
                        checkpoint_every=4)
        restored = RunConfig(**json.loads(json.dumps(run.to_dict())))
        assert restored == run
        config = restored.replication_config()
        assert type(config.scheme) is LexScheme
        assert config.max_iterations == 20

    def test_stable_across_hash_seeds(self):
        """PYTHONHASHSEED randomizes str hashing per process; the hash
        that checkpoints and result.json store must not depend on it."""
        algorithms = ("rt", "lex-3", "lex-mc")
        program = (
            "from repro.core.checkpoint import config_hash\n"
            "from repro.core.config import RunConfig\n"
            f"for algorithm in {algorithms!r}:\n"
            "    config = RunConfig(algorithm=algorithm, effort=0.5)\n"
            "    print(config_hash(config.replication_config()))\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": str(SRC),
                     "PYTHONHASHSEED": hash_seed},
            ).stdout.split()
            for hash_seed in ("0", "1", "4242")
        ]
        in_process = [
            config_hash(
                RunConfig(algorithm=algorithm, effort=0.5).replication_config()
            )
            for algorithm in algorithms
        ]
        assert outputs == [in_process] * 3


class TestFlowStatePayload:
    def make_state(self):
        netlist, placement = family_pair(1)
        record = IterationRecord(
            iteration=0, sink=(3, 0), epsilon=0.1, delay_before=9.0,
            delay_after=8.0, replicated=2, unified=1, replicated_cum=2,
            unified_cum=1, note="x", sink_improved=True,
        )
        return FlowState(
            iteration=0,
            epsilon={(3, 0): 0.1},
            last_sink=(3, 0),
            last_improved=True,
            no_improve=0,
            replicated_cum=2,
            unified_cum=1,
            initial_delay=9.0,
            best_delay=8.0,
            history=[record],
            netlist=netlist,
            placement=placement,
            best_netlist=netlist.clone(),
            best_placement=placement.copy(),
        )

    def test_payload_round_trip(self):
        state = self.make_state()
        config = ReplicationConfig(max_iterations=7)
        payload = json.loads(
            json.dumps(state.to_payload(config, checkpoint_every=2))
        )
        assert payload["config_hash"] == config_hash(config)
        assert payload["checkpoint_every"] == 2
        restored = FlowState.from_payload(payload)
        assert restored.iteration == 0
        assert restored.epsilon == {(3, 0): 0.1}
        assert restored.last_sink == (3, 0)
        assert restored.history == state.history
        assert_netlists_identical(state.netlist, restored.netlist)
        assert_placements_identical(state.placement, restored.placement)
        assert_netlists_identical(state.best_netlist, restored.best_netlist)
        assert config_hash(checkpoint_config(payload)) == config_hash(config)

    def test_unsupported_version_rejected(self):
        state = self.make_state()
        payload = state.to_payload(ReplicationConfig())
        payload["version"] = 99
        with pytest.raises(CheckpointError):
            FlowState.from_payload(payload)

    def test_checkpointer_saves_atomically(self, tmp_path):
        state = self.make_state()
        ck = Checkpointer(tmp_path / "run", every=2, config=ReplicationConfig())
        assert not ck.due(0) and ck.due(1)  # saves after iterations 1, 3, ...
        path = ck.save(state)
        assert path == tmp_path / "run" / "checkpoint.json"
        assert ck.saves == 1
        assert not list((tmp_path / "run").glob("*.tmp"))
        payload = load_checkpoint(tmp_path / "run")
        assert payload["iteration"] == 0

    def test_load_checkpoint_errors(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path)
        (tmp_path / "checkpoint.json").write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path)

    def test_zero_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(tmp_path, every=0)


class TestSnapshotCopyHelpers:
    """Regression tests for the snapshot-rollback copies,
    ``Netlist.assign_from`` and ``Placement.assign_from``.

    The flow's netlist rollback used to drop the netlist ``name`` (it
    copied the five content fields by hand instead of delegating to
    ``assign_from``), so a rollback silently renamed the design.
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_netlist_copy_round_trip(self, seed):
        source, _ = family_pair(seed)
        target = diamond_netlist("other-name")
        target.assign_from(source)
        assert_netlists_identical(source, target)

    def test_netlist_copy_preserves_name(self):
        source = diamond_netlist("the-design")
        target = diamond_netlist("scratch")
        target.assign_from(source)
        assert target.name == "the-design"

    def test_netlist_copy_is_deep(self):
        source = diamond_netlist()
        target = diamond_netlist()
        target.assign_from(source)
        source.replicate_cell(source.cell_by_name("top"))
        assert len(target.cells) != len(source.cells)

    @pytest.mark.parametrize("seed", range(4))
    def test_placement_copy_round_trip(self, seed):
        netlist, source = family_pair(seed)
        target = random_placement(netlist, source.arch, seed=seed + 17)
        target.assign_from(source)
        assert_placements_identical(source, target)
        assert target.arch is source.arch

    def test_placement_copy_carries_arch(self):
        netlist = diamond_netlist()
        arch_a = FpgaArch(5, 5)
        arch_b = FpgaArch(7, 7)
        source = place_in_row(netlist, arch_a)
        target = place_in_row(netlist, arch_b)
        target.assign_from(source)
        assert target.arch is source.arch
        assert_placements_identical(source, target)
