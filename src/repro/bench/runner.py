"""Benchmark runner: regenerates every table and figure of Section VII.

Usage (CLI)::

    python -m repro.bench.runner table1 --scale 0.08
    python -m repro.bench.runner table2 --scale 0.08 --algorithms local,rt,lex-3
    python -m repro.bench.runner table3 --scale 0.08
    python -m repro.bench.runner fig14 --scale 0.10
    python -m repro.bench.runner overhead --scale 0.08

Every run prints measured values side by side with the paper's published
numbers (from :mod:`repro.bench.paper_data`).  ``--scale`` shrinks the
MCNC-calibrated circuits (1.0 = full Table I sizes; the default keeps a
full-suite run tractable in pure Python).
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field

from repro.arch.fpga import FpgaArch
from repro.baselines.local_replication import best_of_runs
from repro.bench.suite import (
    LARGE_CIRCUITS,
    non_negative_effort,
    positive_scale,
    resolve_names,
    suite_circuit,
)
from repro.core.checkpoint import (
    arch_from_dict,
    arch_to_dict,
    netlist_from_dict,
    placement_from_dict,
    record_from_dict,
    record_to_dict,
)
from repro.core.config import ReplicationConfig, RunConfig
from repro.core.flow import OptimizationResult, optimize_replication
from repro.netlist.netlist import Netlist
from repro.paths import ensure_parent_dir
from repro.perf import PERF
from repro.place.placement import Placement
from repro.place.timing_driven import place_timing_driven
from repro.route.metrics import (
    find_min_channel_width,
    route_infinite,
    route_low_stress,
    routed_critical_delay,
)

#: Algorithm keys accepted by :func:`run_variant`.
ALGORITHMS = ("local", "rt", "lex-mc", "lex-2", "lex-3", "lex-4", "lex-5")


class LowStressRouteError(RuntimeError):
    """A design did not route legally at its low-stress width.

    Its ``W_ls`` and wirelength would come from an overused routing, so
    the runner stops instead of reporting them.
    """


def _routed_low_stress(netlist, placement, min_width: int, circuit: str,
                       algorithm: str):
    """:func:`route_low_stress`, raising when the route ends overused."""
    low = route_low_stress(netlist, placement, min_width=min_width)
    if not low.success or low.remaining_overuse > 0:
        raise LowStressRouteError(
            f"{circuit} {algorithm}: the low-stress route at width "
            f"{low.channel_width:g} ends with overuse {low.remaining_overuse}"
        )
    return low


@dataclass
class BaselineRun:
    """Timing-driven-VPR-substitute baseline for one circuit (Table I)."""

    name: str
    netlist: Netlist
    placement: Placement
    arch: FpgaArch
    w_inf: float
    w_ls: float
    wirelength: int
    min_width: int
    luts: int
    ios: int
    total_blocks: int
    density: float
    place_route_seconds: float

    def to_dict(self, netlist_ref: str, placement_ref: str) -> dict:
        """JSON-ready round-trip payload: scalars plus store keys.

        The netlist and placement live in the campaign's
        :class:`~repro.netlist.store.NetlistStore`, under
        ``netlist_ref`` and ``placement_ref``; the row carries only
        their keys.  The arch stays inline — the report tables print
        ``str(run.arch)``, and scalars must suffice to render a report
        without opening the netlist store.
        """
        return {
            "name": self.name,
            "arch": arch_to_dict(self.arch),
            "w_inf": self.w_inf,
            "w_ls": self.w_ls,
            "wirelength": self.wirelength,
            "min_width": self.min_width,
            "luts": self.luts,
            "ios": self.ios,
            "total_blocks": self.total_blocks,
            "density": self.density,
            "place_route_seconds": self.place_route_seconds,
            "netlist_ref": netlist_ref,
            "placement_ref": placement_ref,
        }

    @classmethod
    def from_dict(cls, data: dict, store=None) -> "BaselineRun":
        """Rebuild from :meth:`to_dict` output.

        Pass the campaign's ``NetlistStore`` to load the netlist and
        placement (what a variant worker needs); without it the run
        comes back scalars-only (netlist/placement ``None``), which is
        all report rendering requires.  Rows stored before every
        campaign had a netlist store carry the netlist and placement
        inline, in the id-preserving checkpoint format; they are read
        as they are.
        """
        arch = arch_from_dict(data["arch"])
        if "netlist_ref" not in data:
            netlist = netlist_from_dict(data["netlist"])
            placement = placement_from_dict(data["placement"], arch)
        elif store is not None:
            netlist = store.load_netlist(data["netlist_ref"])
            placement = store.load_placement(data["placement_ref"], arch=arch)
        else:
            netlist = None
            placement = None
        return cls(
            name=data["name"],
            netlist=netlist,
            placement=placement,
            arch=arch,
            w_inf=data["w_inf"],
            w_ls=data["w_ls"],
            wirelength=data["wirelength"],
            min_width=data["min_width"],
            luts=data["luts"],
            ios=data["ios"],
            total_blocks=data["total_blocks"],
            density=data["density"],
            place_route_seconds=data["place_route_seconds"],
        )


@dataclass
class VariantRun:
    """One algorithm's results on one circuit, normalized to baseline."""

    circuit: str
    algorithm: str
    w_inf: float
    w_ls: float
    wirelength: float
    blocks: float
    replicated: int = 0
    unified: int = 0
    seconds: float = 0.0
    history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready round-trip payload (floats survive exactly)."""
        return {
            "circuit": self.circuit,
            "algorithm": self.algorithm,
            "w_inf": self.w_inf,
            "w_ls": self.w_ls,
            "wirelength": self.wirelength,
            "blocks": self.blocks,
            "replicated": self.replicated,
            "unified": self.unified,
            "seconds": self.seconds,
            "history": [record_to_dict(record) for record in self.history],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VariantRun":
        return cls(
            circuit=data["circuit"],
            algorithm=data["algorithm"],
            w_inf=data["w_inf"],
            w_ls=data["w_ls"],
            wirelength=data["wirelength"],
            blocks=data["blocks"],
            replicated=data["replicated"],
            unified=data["unified"],
            seconds=data["seconds"],
            history=[record_from_dict(record) for record in data["history"]],
        )


def run_vpr_baseline(
    name: str,
    scale: float = 0.08,
    seed: int = 0,
    inner_scale: float = 0.25,
) -> BaselineRun:
    """Generate one suite circuit, then place and route it (Table I).

    ``place_route_seconds`` counts the generation too.
    """
    start = time.perf_counter()
    netlist, arch = suite_circuit(name, scale=scale)
    generated = time.perf_counter() - start
    run = measure_baseline(name, netlist, arch, seed=seed, inner_scale=inner_scale)
    run.place_route_seconds += generated
    return run


def measure_baseline(
    name: str,
    netlist: Netlist,
    arch: FpgaArch,
    seed: int = 0,
    inner_scale: float = 0.25,
) -> BaselineRun:
    """Place (timing-driven SA), route and measure a loaded design.

    The baseline flow never mutates ``netlist``, so it may be the
    read-only :class:`~repro.netlist.arrays.ArrayNetlist` a campaign
    loads from its netlist store; every measured number is the same as
    on the object netlist.  Raises :class:`LowStressRouteError` when
    the low-stress route ends overused.
    """
    start = time.perf_counter()
    placement, _stats = place_timing_driven(
        netlist, arch, seed=seed, inner_scale=inner_scale
    )
    min_width = find_min_channel_width(netlist, placement)
    low = _routed_low_stress(netlist, placement, min_width, name, "baseline")
    infinite = route_infinite(netlist, placement)
    elapsed = time.perf_counter() - start

    w_ls = routed_critical_delay(netlist, placement, low).critical_delay
    w_inf = routed_critical_delay(netlist, placement, infinite).critical_delay
    return BaselineRun(
        name=name,
        netlist=netlist,
        placement=placement,
        arch=arch,
        w_inf=w_inf,
        w_ls=w_ls,
        wirelength=low.total_wirelength,
        min_width=min_width,
        luts=netlist.num_logic_blocks,
        ios=netlist.num_pads,
        total_blocks=netlist.num_cells,
        density=arch.density(netlist.num_logic_blocks),
        place_route_seconds=elapsed,
    )


def replication_config(algorithm: str, effort: float = 1.0) -> ReplicationConfig:
    """Config for one algorithm key at a relative effort level.

    Thin wrapper over :meth:`repro.core.config.RunConfig.replication_config`
    so the benchmark runner and the CLI resolve effort/algorithm through
    the same mapping (they used to drift).
    """
    return RunConfig(algorithm=algorithm, effort=effort).replication_config()


def run_variant(
    baseline: BaselineRun,
    algorithm: str,
    effort: float = 1.0,
    seed: int = 0,
) -> VariantRun:
    """Run one optimization algorithm against a baseline and re-route.

    The optimized design is re-routed at the baseline's low-stress
    width; :class:`LowStressRouteError` is raised when that route ends
    overused.
    """
    netlist = baseline.netlist.clone()
    placement = baseline.placement.copy()
    start = time.perf_counter()
    history: list = []
    if algorithm == "local":
        result = best_of_runs(netlist, placement, runs=3, seed=seed)
        replicated, unified = result.replicated, 0
    else:
        opt: OptimizationResult = optimize_replication(
            netlist,
            placement,
            replication_config(algorithm, effort),
        )
        replicated, unified = opt.total_replicated, opt.total_unified
        history = opt.history
    seconds = time.perf_counter() - start

    with PERF.timer("variant.reroute"):
        low = _routed_low_stress(
            netlist, placement, baseline.min_width, baseline.name, algorithm
        )
        infinite = route_infinite(netlist, placement)
        w_ls = routed_critical_delay(netlist, placement, low).critical_delay
        w_inf = routed_critical_delay(netlist, placement, infinite).critical_delay
    return VariantRun(
        circuit=baseline.name,
        algorithm=algorithm,
        w_inf=w_inf / baseline.w_inf if baseline.w_inf else 1.0,
        w_ls=w_ls / baseline.w_ls if baseline.w_ls else 1.0,
        wirelength=(
            low.total_wirelength / baseline.wirelength if baseline.wirelength else 1.0
        ),
        blocks=netlist.num_cells / baseline.total_blocks,
        replicated=replicated,
        unified=unified,
        seconds=seconds,
        history=history,
    )


def run_matrix(
    names: list[str],
    algorithms: list[str],
    make_baseline,
    *,
    effort: float = 1.0,
    seed: int = 0,
) -> dict[str, list[VariantRun]]:
    """The sequential circuits×algorithms loop of table2/table3.

    This loop order — per circuit: baseline, then every algorithm — is
    the ordering contract the campaign engine's task indices reproduce,
    which is what makes a store-rendered report byte-identical to the
    sequential output.
    """
    runs: dict[str, list[VariantRun]] = {alg: [] for alg in algorithms}
    for name in names:
        baseline = make_baseline(name)
        for algorithm in algorithms:
            runs[algorithm].append(
                run_variant(baseline, algorithm, effort=effort, seed=seed)
            )
    return runs


def average(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def averages_by_size(runs: list[VariantRun]) -> dict[str, dict[str, float]]:
    """Overall / small / large averages as in Table III."""
    groups = {
        "all": runs,
        "small": [r for r in runs if r.circuit not in LARGE_CIRCUITS],
        "large": [r for r in runs if r.circuit in LARGE_CIRCUITS],
    }
    return {
        key: {
            "w_inf": average([r.w_inf for r in group]),
            "w_ls": average([r.w_ls for r in group]),
            "wirelength": average([r.wirelength for r in group]),
            "blocks": average([r.blocks for r in group]),
        }
        for key, group in groups.items()
    }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    from repro.bench import tables

    parser = argparse.ArgumentParser(prog="repro bench", description=__doc__)
    parser.add_argument(
        "experiment",
        choices=["table1", "table2", "table3", "fig14", "overhead"],
    )
    parser.add_argument("--scale", type=positive_scale, default=0.08)
    parser.add_argument("--effort", type=non_negative_effort, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--circuits", default="all", help="'all', 'small', 'large' or CSV names"
    )
    parser.add_argument(
        "--algorithms",
        default="local,rt,lex-3",
        help=f"CSV of {ALGORITHMS} (table2/table3)",
    )
    parser.add_argument(
        "--perf-json",
        default=None,
        metavar="PATH",
        help="overhead only: dump the perf span/counter snapshot as JSON",
    )
    args = parser.parse_args(argv)

    if args.experiment != "overhead" and args.perf_json is not None:
        parser.error("--perf-json applies to overhead only")
    if args.perf_json is not None:
        # Fail before the (long) experiment, not after it.
        try:
            ensure_parent_dir(args.perf_json, create=False)
        except FileNotFoundError as exc:
            parser.error(f"--perf-json: {exc}")

    try:
        names = resolve_names(args.circuits)
    except ValueError as exc:
        parser.error(f"--circuits: {exc}")

    def make_baseline(name: str) -> BaselineRun:
        return run_vpr_baseline(name, scale=args.scale, seed=args.seed)

    if args.experiment == "table1":
        baselines = [make_baseline(name) for name in names]
        print(tables.format_table1(baselines, scale=args.scale))
    elif args.experiment in ("table2", "table3"):
        algorithms = [token.strip() for token in args.algorithms.split(",")]
        if args.experiment == "table3" and args.algorithms == "local,rt,lex-3":
            algorithms = ["rt", "lex-mc", "lex-2", "lex-3", "lex-4", "lex-5"]
        runs = run_matrix(
            names, algorithms, make_baseline, effort=args.effort, seed=args.seed
        )
        if args.experiment == "table2":
            print(tables.format_table2(runs, scale=args.scale))
        else:
            print(tables.format_table3(runs, scale=args.scale))
    elif args.experiment == "fig14":
        baseline = make_baseline("ex1010")
        run = run_variant(baseline, "rt", effort=args.effort, seed=args.seed)
        print(tables.format_fig14(run, scale=args.scale))
    elif args.experiment == "overhead":
        # The overhead experiment is the perf-observability entry point:
        # it runs with the PERF registry enabled and reports where the
        # optimizer's time actually went, phase by phase.
        PERF.reset()
        PERF.enable()
        total_pr = 0.0
        total_opt = 0.0
        for name in names:
            # This span and ``run_variant``'s ``variant.reroute`` keep the
            # baselines' routes apart from the variants' in the span table.
            with PERF.timer("baseline"):
                baseline = make_baseline(name)
            run = run_variant(baseline, "rt", effort=args.effort, seed=args.seed)
            total_pr += baseline.place_route_seconds
            total_opt += run.seconds
        from repro.perf import sample_peak_rss

        PERF.record_max("peak_rss_mb", sample_peak_rss())
        PERF.disable()
        print(tables.format_overhead(total_opt, total_pr, scale=args.scale))
        print()
        print(PERF.format())
        if args.perf_json:
            PERF.write_snapshot(args.perf_json)
            print(f"perf snapshot written to {args.perf_json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
