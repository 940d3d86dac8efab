"""Task model for the campaign engine.

A campaign is the benchmark matrix made explicit: one **baseline** task
per (circuit, seed) — generate, place, find W_min, route — and one
**variant** task per (circuit, seed, algorithm) that depends on its
baseline.  Task ids are deterministic functions of the coordinates, so
re-building the matrix of an interrupted campaign maps onto exactly the
same rows in the store and resume can tell finished work from pending
work without any bookkeeping beyond the rows themselves.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

#: Task lifecycle states recorded in the store.
STATUSES = ("pending", "running", "done", "failed", "skipped")


def _fmt_scale(scale: float) -> str:
    return f"{scale:g}"


def baseline_task_id(circuit: str, scale: float, seed: int) -> str:
    """Deterministic id of a baseline task, e.g. ``baseline/tseng@0.08/s0``."""
    return f"baseline/{circuit}@{_fmt_scale(scale)}/s{seed}"


def variant_task_id(circuit: str, scale: float, seed: int, algorithm: str) -> str:
    """Deterministic id of a variant task, e.g. ``variant/tseng@0.08/s0/rt``."""
    return f"variant/{circuit}@{_fmt_scale(scale)}/s{seed}/{algorithm}"


def artifact_name(task_id: str) -> str:
    """A filesystem-safe name for per-task artifacts (perf/trace files)."""
    return task_id.replace("/", "_")


@dataclass(frozen=True)
class Task:
    """One node of the campaign task graph."""

    task_id: str
    index: int  # position in the sequential runner's loop order
    kind: str  # "baseline" | "variant"
    circuit: str
    seed: int
    scale: float
    algorithm: str | None = None  # variants only
    deps: tuple[str, ...] = ()

    def to_row(self) -> dict:
        row = asdict(self)
        row["deps"] = list(self.deps)
        return row

    @classmethod
    def from_row(cls, row: dict) -> "Task":
        return cls(
            task_id=row["task_id"],
            index=row["index"],
            kind=row["kind"],
            circuit=row["circuit"],
            seed=row["seed"],
            scale=row["scale"],
            algorithm=row["algorithm"],
            deps=tuple(row["deps"]),
        )


#: Routing knobs that configs stored before routing had one
#: implementation, run in one process, carry; none ever changed a
#: result, so reading a stored config drops them.
_RETIRED_KEYS = ("wmin_engine", "route_kernel", "route_search", "route_jobs")


@dataclass
class CampaignConfig:
    """Everything a campaign needs to (re)execute its matrix.

    Stored verbatim in the store's ``meta`` table so ``resume`` runs
    under exactly the configuration ``run`` started with (``jobs`` may
    be overridden at resume time — it never changes results).

    ``retries`` counts *re-runs after the first failure*, so a task is
    attempted at most ``retries + 1`` times per campaign invocation.
    ``faults`` is the test-facing fault-injection hook: task id → number
    of injected failures; a negative count makes the task hang instead
    of raise (exercising the timeout path).

    ``netlist_store`` is the zero-copy worker mode: a path to a shared
    :mod:`repro.netlist.store` database.  The scheduler streams every
    design into it before launching workers; workers open it read-only
    and task payloads carry the path instead of pickled netlists.
    Results and reports are byte-identical either way.
    """

    circuits: list[str]
    algorithms: list[str]
    seeds: list[int] = field(default_factory=lambda: [0])
    scale: float = 0.08
    effort: float = 1.0
    jobs: int = 1
    timeout: float | None = None
    retries: int = 2
    backoff: float = 0.5
    perf: bool = False
    trace: bool = False
    faults: dict[str, int] = field(default_factory=dict)
    netlist_store: str | None = None

    def __post_init__(self) -> None:
        from repro.bench.runner import ALGORITHMS

        unknown = sorted(set(self.algorithms) - set(ALGORITHMS))
        if unknown:
            raise ValueError(
                f"unknown algorithm(s): {', '.join(unknown)}; "
                f"valid: {', '.join(ALGORITHMS)}"
            )
        if not self.circuits:
            raise ValueError("campaign needs at least one circuit")
        if not self.seeds:
            raise ValueError("campaign needs at least one seed")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        return cls(**{k: v for k, v in data.items() if k not in _RETIRED_KEYS})

    @property
    def max_attempts(self) -> int:
        return self.retries + 1


def build_matrix(config: CampaignConfig) -> list[Task]:
    """The task graph of a campaign, in the sequential runner's order.

    Seed-major, then circuit, then algorithm — for any single seed this
    is exactly the loop order of ``bench.runner table2/table3``, which
    is what makes a store-rendered report byte-identical to the
    sequential output.
    """
    tasks: list[Task] = []
    for seed in config.seeds:
        for circuit in config.circuits:
            base_id = baseline_task_id(circuit, config.scale, seed)
            tasks.append(
                Task(
                    task_id=base_id,
                    index=len(tasks),
                    kind="baseline",
                    circuit=circuit,
                    seed=seed,
                    scale=config.scale,
                )
            )
            for algorithm in config.algorithms:
                tasks.append(
                    Task(
                        task_id=variant_task_id(
                            circuit, config.scale, seed, algorithm
                        ),
                        index=len(tasks),
                        kind="variant",
                        circuit=circuit,
                        seed=seed,
                        scale=config.scale,
                        algorithm=algorithm,
                        deps=(base_id,),
                    )
                )
    return tasks
