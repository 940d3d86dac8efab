"""Configuration for the replication optimization flow (Sections IV-VI).

Two layers:

* :class:`ReplicationConfig` — the *algorithm* knobs of the optimizer
  loop (ε growth, tree caps, cost model, batching).  Serializable via
  :meth:`to_dict`/:meth:`from_dict`; the dict's hash keys checkpoints.
* :class:`RunConfig` — the *execution* knobs of one end-to-end run
  (which circuit, placement seed and effort, routing, checkpointing),
  shared by the CLI, the :mod:`repro.api` facade and the benchmark
  runner so the flag surface cannot drift between them again.

Both run in the caller's process; the only process parallelism is a
campaign's ``--jobs`` and the serve daemon's ``--workers``.  Stored
configs written while the flow had knobs that never changed a result
(worker counts, an unused seed) still load: ``from_dict`` drops exactly
those retired keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.core.signatures import DelayScheme, MaxArrivalScheme, scheme_by_name


#: Keys of checkpoints written while tied-sink embedding had a worker
#: pool (``jobs``) and the config carried an unused ``seed``.
_RETIRED_FLOW_KEYS = ("jobs", "seed")

#: Keys of serve job rows written while routing (``route_jobs``) and
#: tied-sink embedding (``jobs``) had worker pools.
_RETIRED_RUN_KEYS = ("route_jobs", "jobs")


@dataclass
class ReplicationConfig:
    """Tuning knobs of the optimizer; defaults follow the paper.

    Attributes:
        scheme: Embedding signature variant (RT-Embedding, Lex-N, Lex-mc).
        max_iterations: Upper bound on main-loop iterations.
        patience: Consecutive non-improving iterations tolerated before
            stopping (each one also grows ε, Section V-B).
        epsilon_step_fraction: ε growth per non-improvement, as a fraction
            of the current critical delay.
        max_tree_nodes: Cap on ε-SPT cells admitted to one replication
            tree (trees in the paper range "up to almost a thousand
            cells"; the cap keeps worst-case embeddings bounded).
        cost_free: Congestion cost of an empty logic slot.
        cost_occupied: Congestion cost of a full slot (the critical tree
            may still use it — "the critical tree should be able to get
            the best real-estate", Section II-A — but it prices the
            legalizer work it will cause).
        cost_occupied_critical: Congestion cost of a full slot whose
            occupants are all near-critical: displacing them would create
            a new critical path, so such slots are nearly off-limits.
        cost_replication: Replication-overhead component, charged unless
            the slot holds an equivalent cell (implicit unification) or
            the cell has fanout one ("we still replicate, but all
            placement locations receive a discounted cost, since no
            actual replication will ever occur", Section III).
        cost_equivalent: Total cost of a slot holding a logically
            equivalent cell (Section III's discount; normally 0).
        wire_cost_per_unit: Embedding-graph edge cost per unit length.
        delay_bound_slack: Embedder labels slower than
            ``(1 + slack) * current critical delay`` are pruned.
        max_labels_per_vertex: Front-size cap inside the embedder
            (0 = unlimited).
        max_cohabiting_children: Overlap control (Section II-A approach
            1); ``None`` = allow overlap and legalize (approach 2, the
            paper's experimental setting).
        legalizer_alpha: Timing weight in the legalizer gain (0.95).
        degradation_allowance: Maximum fractional critical-delay
            degradation tolerated per iteration before the step is rolled
            back (intermediate degradation is part of the flow — Section
            V-D — but runaway steps are not).
        aggressive_unification: Post-process unification moves any fanout
            that does not violate the current critical delay (Section
            VII-B); if False, only strict arrival improvements move.
        allow_ff_relocation: Enable Section V-D FF relocation when a
            critical FF sink stops improving.
        ff_relocation_slack: Fractional degradation allowed on other
            paths touching a relocated FF.
        batch_sinks: Maximum number of end points *tied at the critical
            delay* embedded per iteration (algorithm knob).  The default
            1 reproduces the paper's one-sink-per-iteration loop exactly;
            larger values embed several tied sinks against the same STA
            snapshot and merge the results in deterministic sink order.
    """

    scheme: DelayScheme = field(default_factory=MaxArrivalScheme)
    max_iterations: int = 50
    patience: int = 6
    epsilon_step_fraction: float = 0.05
    max_tree_nodes: int = 120
    cost_free: float = 0.25
    cost_occupied: float = 4.0
    cost_occupied_critical: float = 40.0
    cost_replication: float = 1.0
    cost_equivalent: float = 0.0
    wire_cost_per_unit: float = 1.0
    delay_bound_slack: float = 0.02
    max_labels_per_vertex: int = 8
    max_cohabiting_children: int | None = None
    degradation_allowance: float = 0.03
    legalizer_alpha: float = 0.95
    aggressive_unification: bool = True
    allow_ff_relocation: bool = True
    ff_relocation_slack: float = 0.05
    batch_sinks: int = 1

    def to_dict(self) -> dict:
        """JSON-ready dict; the scheme is stored by its canonical key.

        The sorted-key JSON encoding of this dict is what the checkpoint
        config hash is computed over, so resuming under a different
        config is detectable.
        """
        data = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            data[spec.name] = scheme_key(value) if spec.name == "scheme" else value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ReplicationConfig":
        kwargs = {k: v for k, v in data.items() if k not in _RETIRED_FLOW_KEYS}
        kwargs["scheme"] = scheme_by_name(kwargs["scheme"])
        return cls(**kwargs)


def scheme_key(scheme: DelayScheme) -> str:
    """Canonical string for a scheme, invertible by ``scheme_by_name``."""
    from repro.core.signatures import ElmoreScheme, LexMcScheme, LexScheme

    if type(scheme) is MaxArrivalScheme:
        return "rt"
    if type(scheme) is LexMcScheme:
        return "lex-mc"
    if type(scheme) is LexScheme:
        return f"lex-{scheme.order}"
    if type(scheme) is ElmoreScheme:
        return "elmore"
    raise ValueError(f"scheme {type(scheme).__name__} has no canonical key")


@dataclass
class RunConfig:
    """Execution-level knobs of one end-to-end run.

    Attributes:
        circuit: Suite-circuit name (mutually exclusive with ``blif``).
        blif: Path of an input BLIF netlist.
        scale: Suite-circuit scale (1.0 = full Table I sizes).
        seed: Placement seed.
        place_effort: Annealer ``inner_num`` scale.
        algorithm: Replication variant key (``rt``, ``lex-N``, ``lex-mc``
            or ``none`` to skip replication).
        effort: Replication-flow effort dial (scales iteration budget,
            patience and tree caps together).
        batch_sinks: Tied critical endpoints embedded per iteration.
        route: Run low-stress + infinite routing at the end.
        checkpoint_every: Checkpoint the flow every N iterations
            (0 = disabled; needs a run directory).
        netlist_store: Path of a :mod:`repro.netlist.store` database to
            load the design from (building/caching it there on first
            use) instead of generating it in memory.  Results are
            byte-identical either way; the store is purely an execution
            knob, which is why it lives here and not in
            :class:`ReplicationConfig` (whose hash keys checkpoints).
    """

    circuit: str | None = None
    blif: str | None = None
    scale: float = 0.08
    seed: int = 0
    place_effort: float = 0.3
    algorithm: str = "rt"
    effort: float = 1.0
    batch_sinks: int = 1
    route: bool = False
    checkpoint_every: int = 0
    netlist_store: str | None = None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        """Build from an ``argparse`` namespace (missing attrs default)."""
        defaults = cls()
        kwargs = {}
        for spec in fields(cls):
            value = getattr(args, spec.name, None)
            if value is None:
                value = getattr(defaults, spec.name)
            kwargs[spec.name] = value
        if kwargs["blif"] is not None:
            kwargs["blif"] = str(kwargs["blif"])
        if kwargs["netlist_store"] is not None:
            kwargs["netlist_store"] = str(kwargs["netlist_store"])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(**{k: v for k, v in data.items() if k not in _RETIRED_RUN_KEYS})

    def replication_config(self) -> ReplicationConfig:
        """The :class:`ReplicationConfig` this run's dials map to.

        This is the single algorithm-key/effort mapping; the CLI and the
        benchmark runner both resolve their flags through it.
        """
        algorithm = self.algorithm
        scheme = scheme_by_name("rt" if algorithm == "rt" else algorithm)
        return ReplicationConfig(
            scheme=scheme,
            max_iterations=max(6, int(40 * self.effort)),
            patience=max(2, int(6 * self.effort)),
            max_tree_nodes=max(12, int(48 * self.effort)),
            max_labels_per_vertex=6,
            batch_sinks=self.batch_sinks,
        )
