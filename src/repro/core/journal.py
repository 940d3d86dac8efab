"""Per-iteration flow journal: incremental JSONL, crash-readable.

The optimization loop (Section VI) can run for dozens of iterations on a
large circuit; the journal records *why* each iteration helped or hurt —
the chosen sink, the replication-tree size, embedding-front statistics,
the pre/post critical delay, replicas created/unified, and what the
legalizer had to move to clean up.  Each entry is one JSON line, flushed
as it is written, so a run killed at iteration 14 of 20 still leaves 14
readable records plus a ``crash`` marker.

Entry kinds:

* ``start``  — written once per :meth:`ReplicationOptimizer.run` entry
  (and again on resume, with the restored iteration cursor);
* ``iteration`` — one per optimizer iteration (the schema below);
* ``crash``  — written when the loop dies with an exception;
* ``result`` — the final summary of a completed run.
"""

from __future__ import annotations

import json
import os

JOURNAL_VERSION = 1

#: Keys every ``iteration`` entry carries (schema-checked in tests).
ITERATION_KEYS = (
    "kind",
    "iteration",
    "sink",
    "epsilon",
    "delay_before",
    "delay_after",
    "improved",
    "sink_improved",
    "replicated",
    "unified",
    "replicated_cum",
    "unified_cum",
    "ff_relocated",
    "note",
    "tree_nodes",
    "tree_movable",
    "embed_candidates",
    "legalizer_moves",
    "legalizer_displacement",
    "wall_seconds",
)


def iteration_entry(record, **extra) -> dict:
    """Build the journal dict for one :class:`IterationRecord`.

    ``extra`` supplies the flow-side statistics the record itself does
    not carry (tree size, embedding-front size, legalizer work, wall
    time); missing ones default to zero so the schema is total.
    """
    entry = {
        "kind": "iteration",
        "iteration": record.iteration,
        "sink": list(record.sink),
        "epsilon": record.epsilon,
        "delay_before": record.delay_before,
        "delay_after": record.delay_after,
        "improved": record.improved,
        "sink_improved": record.sink_improved,
        "replicated": record.replicated,
        "unified": record.unified,
        "replicated_cum": record.replicated_cum,
        "unified_cum": record.unified_cum,
        "ff_relocated": record.ff_relocated,
        "note": record.note,
        "tree_nodes": 0,
        "tree_movable": 0,
        "embed_candidates": 0,
        "legalizer_moves": 0,
        "legalizer_displacement": 0,
        "wall_seconds": 0.0,
    }
    entry.update(extra)
    return entry


class FlowJournal:
    """Append-only JSONL journal; one flushed line per event.

    Opens lazily-buffered and flushes after every line: the guarantee is
    that a killed process leaves a file of complete, parseable lines
    (the partial final line a buffered writer could leave is exactly
    what this class exists to avoid).
    """

    def __init__(self, path, mode: str = "w") -> None:
        self.path = path
        parent = os.path.dirname(str(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open(path, mode)

    def event(self, kind: str, **payload) -> None:
        """Write one journal line of the given kind."""
        record = {"kind": kind}
        record.update(payload)
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def iteration(self, record, **extra) -> None:
        """Write one per-iteration entry (see :func:`iteration_entry`)."""
        entry = iteration_entry(record, **extra)
        self._handle.write(json.dumps(entry) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "FlowJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_journal(path) -> list[dict]:
    """Parse a journal file into its entries (tolerates a torn tail).

    A hard kill can tear the final line mid-write despite the per-line
    flush (the OS may persist a prefix); a torn *last* line is dropped,
    but a malformed line anywhere else raises.
    """
    entries: list[dict] = []
    with open(path) as handle:
        lines = handle.read().splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break
            raise
    return entries


def iteration_entries(path) -> list[dict]:
    """Just the ``iteration`` entries of a journal file, in order."""
    return [e for e in read_journal(path) if e.get("kind") == "iteration"]
