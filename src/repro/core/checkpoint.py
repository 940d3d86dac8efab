"""Checkpoint/resume for the optimization flow.

The flow is a long deterministic loop; a crash at iteration 14 of 20
should not throw the first 13 away.  A checkpoint captures *everything*
the loop's future depends on — the working netlist and placement, the
best snapshot so far, the per-sink ε map, the patience counters, the
iteration history and the config hash — in id-preserving JSON, so that

    checkpoint at k  →  resume  →  finish

is **bit-identical** to an uninterrupted run (tested per suite circuit).

The serializers here are deliberately stricter than the name-keyed
placement/BLIF files in :mod:`repro.place.serialize` /
:mod:`repro.netlist.blif`: those round-trip *designs* (fresh ids are
fine); a checkpoint must round-trip *state* — cell/net ids, equivalence
classes, id-allocation cursors, per-slot occupancy stacks and dict
insertion orders all survive, because downstream decisions iterate them.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.arch.delay import LinearDelayModel
from repro.arch.fpga import FpgaArch
from repro.netlist.cells import Cell, CellType
from repro.netlist.netlist import Netlist
from repro.netlist.nets import Net
from repro.paths import ensure_parent_dir
from repro.place.placement import Placement

CHECKPOINT_VERSION = 1
CHECKPOINT_FILE = "checkpoint.json"


class CheckpointError(Exception):
    """Raised on missing/corrupt/incompatible checkpoint data."""


# ----------------------------------------------------------------------
# Id-preserving serializers
# ----------------------------------------------------------------------


def netlist_to_dict(netlist: Netlist) -> dict:
    """Serialize a netlist exactly: ids, eq-classes, dict orders."""
    return {
        "name": netlist.name,
        "next_cell_id": netlist._next_cell_id,
        "next_net_id": netlist._next_net_id,
        "names": sorted(netlist._names),
        "cells": [
            {
                "id": cell.cell_id,
                "name": cell.name,
                "type": cell.ctype.value,
                "inputs": list(cell.inputs),
                "output": cell.output,
                "truth_table": cell.truth_table,
                "eq_class": cell.eq_class,
            }
            for cell in netlist.cells.values()
        ],
        "nets": [
            {
                "id": net.net_id,
                "name": net.name,
                "driver": net.driver,
                "sinks": [list(pin) for pin in net.sinks],
            }
            for net in netlist.nets.values()
        ],
    }


def netlist_from_dict(data: dict) -> Netlist:
    """Exact inverse of :func:`netlist_to_dict`."""
    netlist = Netlist(data["name"])
    netlist._next_cell_id = data["next_cell_id"]
    netlist._next_net_id = data["next_net_id"]
    netlist._names = set(data["names"])
    for entry in data["cells"]:
        netlist.cells[entry["id"]] = Cell(
            cell_id=entry["id"],
            name=entry["name"],
            ctype=CellType(entry["type"]),
            inputs=list(entry["inputs"]),
            output=entry["output"],
            truth_table=entry["truth_table"],
            eq_class=entry["eq_class"],
        )
    for entry in data["nets"]:
        netlist.nets[entry["id"]] = Net(
            entry["id"],
            entry["name"],
            entry["driver"],
            [tuple(pin) for pin in entry["sinks"]],
        )
    return netlist


def arch_to_dict(arch: FpgaArch) -> dict:
    model = arch.delay_model
    if type(model) is not LinearDelayModel:
        raise CheckpointError(
            f"cannot checkpoint delay model {type(model).__name__}"
        )
    return {
        "width": arch.width,
        "height": arch.height,
        "lut_size": arch.lut_size,
        "clb_capacity": arch.clb_capacity,
        "pads_per_slot": arch.pads_per_slot,
        "delay_model": {
            "wire_delay_per_unit": model.wire_delay_per_unit,
            "connection_delay": model.connection_delay,
            "lut_delay": model.lut_delay,
            "ff_clk_to_q": model.ff_clk_to_q,
            "ff_setup": model.ff_setup,
            "pad_delay": model.pad_delay,
        },
    }


def arch_from_dict(data: dict) -> FpgaArch:
    return FpgaArch(
        width=data["width"],
        height=data["height"],
        lut_size=data["lut_size"],
        clb_capacity=data["clb_capacity"],
        pads_per_slot=data["pads_per_slot"],
        delay_model=LinearDelayModel(**data["delay_model"]),
    )


def placement_to_dict(placement: Placement) -> dict:
    """Serialize by cell id, preserving both dict orders.

    The per-slot occupancy stacks (``_cells_at``) are stored explicitly:
    the legalizer displaces occupants in stack order, so "same cells at
    the same slots" is not enough for bit-identical resume — the stacks
    must match element for element.
    """
    return {
        "slots": [
            [cell_id, list(slot)] for cell_id, slot in placement._slot_of.items()
        ],
        "stacks": [
            [list(slot), list(cells)]
            for slot, cells in placement._cells_at.items()
        ],
    }


def placement_from_dict(data: dict, arch: FpgaArch) -> Placement:
    placement = Placement(arch)
    placement._slot_of = {
        cell_id: tuple(slot) for cell_id, slot in data["slots"]
    }
    placement._cells_at = defaultdict(
        list, {tuple(slot): list(cells) for slot, cells in data["stacks"]}
    )
    return placement


def record_to_dict(record) -> dict:
    return {
        "iteration": record.iteration,
        "sink": list(record.sink),
        "epsilon": record.epsilon,
        "delay_before": record.delay_before,
        "delay_after": record.delay_after,
        "replicated": record.replicated,
        "unified": record.unified,
        "replicated_cum": record.replicated_cum,
        "unified_cum": record.unified_cum,
        "ff_relocated": record.ff_relocated,
        "note": record.note,
        "sink_improved": record.sink_improved,
    }


def record_from_dict(data: dict):
    from repro.core.flow import IterationRecord

    return IterationRecord(
        iteration=data["iteration"],
        sink=tuple(data["sink"]),
        epsilon=data["epsilon"],
        delay_before=data["delay_before"],
        delay_after=data["delay_after"],
        replicated=data["replicated"],
        unified=data["unified"],
        replicated_cum=data["replicated_cum"],
        unified_cum=data["unified_cum"],
        ff_relocated=data["ff_relocated"],
        note=data["note"],
        sink_improved=data["sink_improved"],
    )


def config_hash(config) -> str:
    """Stable short hash of a config's :meth:`to_dict` payload."""
    canonical = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Flow state
# ----------------------------------------------------------------------


@dataclass
class FlowState:
    """Everything :meth:`ReplicationOptimizer.run` needs to continue.

    ``iteration`` is the index of the *last completed* iteration; resume
    re-enters the loop at ``iteration + 1``.
    """

    iteration: int
    epsilon: dict = field(default_factory=dict)
    last_sink: tuple | None = None
    last_improved: bool = True
    no_improve: int = 0
    replicated_cum: int = 0
    unified_cum: int = 0
    initial_delay: float = 0.0
    best_delay: float = 0.0
    history: list = field(default_factory=list)
    netlist: Netlist | None = None
    placement: Placement | None = None
    best_netlist: Netlist | None = None
    best_placement: Placement | None = None

    def to_payload(self, config, checkpoint_every: int = 0) -> dict:
        """The JSON checkpoint payload (``config`` supplies the hash)."""
        return {
            "version": CHECKPOINT_VERSION,
            "kind": "flow-checkpoint",
            "config": config.to_dict(),
            "config_hash": config_hash(config),
            "checkpoint_every": checkpoint_every,
            "iteration": self.iteration,
            "state": {
                "epsilon": [[list(sink), eps] for sink, eps in self.epsilon.items()],
                "last_sink": list(self.last_sink) if self.last_sink else None,
                "last_improved": self.last_improved,
                "no_improve": self.no_improve,
                "replicated_cum": self.replicated_cum,
                "unified_cum": self.unified_cum,
                "initial_delay": self.initial_delay,
                "best_delay": self.best_delay,
            },
            "history": [record_to_dict(record) for record in self.history],
            "arch": arch_to_dict(self.placement.arch),
            "netlist": netlist_to_dict(self.netlist),
            "placement": placement_to_dict(self.placement),
            "best_netlist": netlist_to_dict(self.best_netlist),
            "best_placement": placement_to_dict(self.best_placement),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FlowState":
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {payload.get('version')!r}"
            )
        arch = arch_from_dict(payload["arch"])
        state = payload["state"]
        last_sink = state["last_sink"]
        return cls(
            iteration=payload["iteration"],
            epsilon={tuple(sink): eps for sink, eps in state["epsilon"]},
            last_sink=tuple(last_sink) if last_sink else None,
            last_improved=state["last_improved"],
            no_improve=state["no_improve"],
            replicated_cum=state["replicated_cum"],
            unified_cum=state["unified_cum"],
            initial_delay=state["initial_delay"],
            best_delay=state["best_delay"],
            history=[record_from_dict(r) for r in payload["history"]],
            netlist=netlist_from_dict(payload["netlist"]),
            placement=placement_from_dict(payload["placement"], arch),
            best_netlist=netlist_from_dict(payload["best_netlist"]),
            best_placement=placement_from_dict(payload["best_placement"], arch),
        )


def checkpoint_config(payload: dict):
    """Rebuild the :class:`ReplicationConfig` stored in a checkpoint."""
    from repro.core.config import ReplicationConfig

    return ReplicationConfig.from_dict(payload["config"])


# ----------------------------------------------------------------------
# Run-directory persistence
# ----------------------------------------------------------------------


class Checkpointer:
    """Writes a checkpoint every N completed iterations, atomically.

    The write goes to a temp file in the run directory and is renamed
    into place, so a kill mid-checkpoint leaves the previous checkpoint
    intact rather than a torn JSON file.
    """

    def __init__(self, run_dir, every: int = 1, config=None) -> None:
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.run_dir = Path(run_dir)
        self.every = every
        self.config = config
        self.saves = 0

    @property
    def path(self) -> Path:
        return self.run_dir / CHECKPOINT_FILE

    def due(self, iteration: int) -> bool:
        """True when the iteration that just completed should be saved."""
        return (iteration + 1) % self.every == 0

    def save(self, state: FlowState) -> Path:
        ensure_parent_dir(self.path)
        payload = state.to_payload(self.config, checkpoint_every=self.every)
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, self.path)
        self.saves += 1
        return self.path


def load_checkpoint(run_dir) -> dict:
    """Read the checkpoint payload of a run directory."""
    path = Path(run_dir)
    if path.is_dir():
        path = path / CHECKPOINT_FILE
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
