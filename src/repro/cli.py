"""Command-line flow driver: ``python -m repro <subcommand>``.

Subcommands::

    repro run        end-to-end flow: place -> replicate -> (route)
    repro route      route an existing placement and report timing
    repro bench      forward to the benchmark runner (tables/figures)
    repro resume     continue a checkpointed run directory
    repro trace-view summarize a Chrome trace produced by --trace
    repro campaign   durable experiment matrix (run/resume/status/report)
    repro netlist    inspect a netlist store (e.g. a campaign's)

Examples::

    python -m repro run --circuit tseng --scale 0.08 --algorithm lex-3 --route
    python -m repro run --circuit tseng --run-dir runs/t1 --trace \\
        --checkpoint-every 2
    python -m repro resume runs/t1
    python -m repro trace-view runs/t1/trace.json
    python -m repro bench table2 --scale 0.08 --algorithms rt,lex-3

Every invocation names a subcommand; a bare flag such as
``python -m repro --circuit tseng`` is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro import api
from repro.bench.suite import SPEC_BY_NAME, non_negative_effort, positive_scale
from repro.core.checkpoint import CheckpointError
from repro.core.config import RunConfig
from repro.netlist.netlist import NetlistError
from repro.perf import PERF, format_span_table, sample_peak_rss, trace_span_table
from repro.viz import render_history, render_placement

#: Exit codes: user errors get distinct nonzero codes and a one-line
#: stderr message — never a traceback.
EXIT_FAILURE = 1   # the operation itself failed (flow error, failed task)
EXIT_USAGE = 2     # bad flag combination / invalid argument value
EXIT_MISSING = 3   # a named input does not exist (file, store)


class CliError(Exception):
    """User-facing CLI error: one stderr line + a specific exit code."""

    def __init__(self, message: str, code: int = EXIT_FAILURE) -> None:
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------


def _non_negative_int(text: str) -> int:
    """``argparse`` type of ``--checkpoint-every`` and ``--limit``."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}"
        )
    return value


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--blif", type=Path, help="input BLIF netlist")
    source.add_argument(
        "--circuit",
        choices=sorted(SPEC_BY_NAME),
        help="generate an MCNC-calibrated suite circuit",
    )
    parser.add_argument("--scale", type=positive_scale, default=0.08,
                        help="suite-circuit scale (with --circuit)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--place-effort", type=non_negative_effort, default=0.3,
                        dest="place_effort", help="annealer inner_num scale")
    parser.add_argument("--in-placement", type=Path,
                        help="start from a saved placement instead of SA")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Placement-coupled logic replication flow "
        "(Hrkic/Lillis/Beraudo, DAC'04).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="place -> replicate -> (route)")
    _add_input_arguments(run)
    run.add_argument(
        "--algorithm",
        default="rt",
        help="replication variant: rt, lex-2..lex-5, lex-mc, or 'none'",
    )
    run.add_argument("--effort", type=non_negative_effort, default=1.0,
                     help="replication-flow effort dial")
    run.add_argument("--perf", action="store_true",
                     help="print perf spans/counters after the command")
    run.add_argument("--route", action="store_true",
                     help="run low-stress + infinite routing at the end")
    run.add_argument("--run-dir", type=Path,
                     help="run directory: journal.jsonl, checkpoint.json, "
                     "trace.json, result.json")
    run.add_argument("--trace", nargs="?", const=True, default=False,
                     metavar="FILE",
                     help="write a Chrome trace (default: run-dir/trace.json)")
    run.add_argument("--checkpoint-every", type=_non_negative_int, default=0,
                     dest="checkpoint_every", metavar="N",
                     help="checkpoint the flow every N iterations "
                     "(needs --run-dir)")
    run.add_argument("--out-blif", type=Path)
    run.add_argument("--out-placement", type=Path)
    run.add_argument("--draw", action="store_true",
                     help="print the placement grid before/after")
    run.set_defaults(func=cmd_run)

    route = sub.add_parser("route", help="route a placement, report timing")
    _add_input_arguments(route)
    route.set_defaults(func=cmd_route)

    bench = sub.add_parser(
        "bench",
        help="benchmark runner (tables/figures); args forwarded verbatim",
        add_help=False,
    )
    bench.add_argument("bench_args", nargs=argparse.REMAINDER)
    bench.set_defaults(func=cmd_bench)

    resume = sub.add_parser("resume", help="continue a checkpointed run")
    resume.add_argument("run_dir", type=Path)
    resume.add_argument("--trace", nargs="?", const=True, default=False,
                        metavar="FILE",
                        help="trace the continuation (default: "
                        "run-dir/trace.json)")
    resume.set_defaults(func=cmd_resume)

    view = sub.add_parser("trace-view", help="summarize a Chrome trace")
    view.add_argument("trace_file", type=Path)
    view.add_argument("--limit", type=_non_negative_int, default=20,
                      help="show the top N spans by self time")
    view.set_defaults(func=cmd_trace_view)

    campaign = sub.add_parser(
        "campaign",
        help="parallel, resumable experiment matrix "
        "(run/resume/status/report over a durable store)",
    )
    camp_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    crun = camp_sub.add_parser(
        "run", help="start a new campaign in a directory"
    )
    crun.add_argument("campaign_dir", type=Path)
    crun.add_argument("--circuits", default="all",
                      help="'all', 'small', 'large' or CSV names")
    crun.add_argument("--algorithms", default="local,rt,lex-3",
                      help="CSV of replication algorithms")
    crun.add_argument("--seeds", default="0",
                      help="CSV of placement seeds (default: 0)")
    crun.add_argument("--scale", type=positive_scale, default=0.08)
    crun.add_argument("--effort", type=non_negative_effort, default=1.0)
    crun.add_argument("--jobs", type=int, default=1,
                      help="worker processes (one task per process)")
    crun.add_argument("--perf", action="store_true",
                      help="per-task perf snapshots into DIR/perf/")
    crun.add_argument("--trace", action="store_true",
                      help="per-task Chrome traces into DIR/trace/")
    crun.set_defaults(func=cmd_campaign_run)

    cresume = camp_sub.add_parser(
        "resume", help="re-run only the tasks of a campaign not yet done"
    )
    cresume.add_argument("campaign_dir", type=Path)
    cresume.add_argument("--jobs", type=int, default=None,
                         help="override the stored worker count")
    cresume.set_defaults(func=cmd_campaign_resume)

    cstatus = camp_sub.add_parser("status", help="campaign progress")
    cstatus.add_argument("campaign_dir", type=Path)
    cstatus.set_defaults(func=cmd_campaign_status)

    creport = camp_sub.add_parser(
        "report", help="render a results table from the store"
    )
    creport.add_argument("campaign_dir", type=Path)
    creport.add_argument("experiment", nargs="?", default="table2",
                         choices=("table1", "table2", "table3"))
    creport.add_argument("--seed", type=int, default=None,
                         help="which matrix seed to render (default: first)")
    creport.add_argument("--partial", action="store_true",
                         help="render even when some tasks have no result")
    creport.set_defaults(func=cmd_campaign_report)

    netlist = sub.add_parser(
        "netlist", help="netlist store inspection (e.g. DIR/netlists.sqlite)"
    )
    nl_sub = netlist.add_subparsers(dest="netlist_command", required=True)

    ninfo = nl_sub.add_parser(
        "info", help="print store size, schema version and design counts"
    )
    ninfo.add_argument("store", type=Path, help="store database path")
    ninfo.set_defaults(func=cmd_netlist_info)

    return parser


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _load_and_place(args) -> tuple[api.Design, api.PlaceResult]:
    if args.blif is not None and not args.blif.exists():
        raise CliError(f"no BLIF file at {args.blif}", EXIT_MISSING)
    if args.blif is not None:
        design = api.load_design(blif=args.blif)
        print(f"read {args.blif}: {design.netlist.num_logic_blocks} logic "
              f"blocks, {design.netlist.num_pads} pads -> {design.arch} FPGA")
    else:
        design = api.load_design(circuit=args.circuit, scale=args.scale)
        print(f"generated {args.circuit} @ scale {args.scale:g}: "
              f"{design.netlist.num_logic_blocks} logic blocks on {design.arch}")

    placed = api.place(
        design,
        seed=args.seed,
        effort=args.place_effort,
        placement_json=args.in_placement,
    )
    if args.in_placement is not None:
        print(f"loaded placement from {args.in_placement}")
    else:
        print(f"placed in {placed.seconds:.1f}s "
              f"({placed.moves_accepted} accepted moves)")
    print(f"placement-level critical delay: {placed.critical_delay:.2f}")
    return design, placed


def cmd_run(args) -> int:
    if args.checkpoint_every and args.run_dir is None:
        raise CliError("--checkpoint-every needs --run-dir", EXIT_USAGE)
    if args.algorithm != "none":
        from repro.core.signatures import scheme_by_name

        try:
            scheme_by_name(args.algorithm)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_USAGE) from None
    config = RunConfig.from_args(args)
    if args.perf:
        PERF.reset()
        PERF.enable()
    try:
        design, placement = _place_replicate_route(args, config)
    finally:
        if args.perf:
            PERF.disable()
    if args.perf:
        PERF.record_max("peak_rss_mb", sample_peak_rss())
        print(PERF.format())

    api.write_outputs(
        design,
        placement,
        out_blif=args.out_blif,
        out_placement=args.out_placement,
    )
    if args.out_blif is not None:
        print(f"wrote {args.out_blif}")
    if args.out_placement is not None:
        print(f"wrote {args.out_placement}")
    return 0


def _place_replicate_route(args, config: RunConfig):
    """``repro run``'s work: returns the final ``(design, placement)``."""
    design, placed = _load_and_place(args)
    placement = placed.placement
    if args.draw:
        print(render_placement(design.netlist, placement))

    if args.run_dir is not None:
        args.run_dir.mkdir(parents=True, exist_ok=True)
        (args.run_dir / api.CONFIG_FILE).write_text(
            json.dumps(config.to_dict(), indent=2) + "\n"
        )

    if args.algorithm != "none":
        result = api.optimize(
            design,
            placement,
            config=config,
            run_dir=args.run_dir,
            trace=args.trace,
            checkpoint_every=args.checkpoint_every,
        )
        print(
            f"replication ({args.algorithm}) in {result.seconds:.1f}s: "
            f"{result.initial_delay:.2f} -> {result.final_delay:.2f} "
            f"({result.improvement:.1%}; {result.replicated} replicated, "
            f"{result.unified} unified, {len(result.iterations)} iterations)"
        )
        print(render_history(result.iterations))
        if args.run_dir is not None:
            print(f"run artifacts in {args.run_dir}")
        if args.draw:
            print(render_placement(design.netlist, placement))

    if args.route:
        routed = api.route(design, placement)
        _print_routing(routed)
        if args.run_dir is not None:
            _record_route_result(args.run_dir, routed)
    return design, placement


def cmd_route(args) -> int:
    design, placed = _load_and_place(args)
    _print_routing(api.route(design, placed.placement))
    return 0


def _print_routing(routed: api.RouteResult) -> None:
    print(
        f"routed: W_inf {routed.w_inf:.2f}  "
        f"W_ls {routed.w_ls:.2f} (W={routed.channel_width:g})  "
        f"wire {routed.wirelength}"
    )


def _record_route_result(run_dir: Path, routed: api.RouteResult) -> None:
    """Merge the routing metrics into result.json."""
    path = Path(run_dir) / api.RESULT_FILE
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        payload = {}
    payload["route"] = {
        "w_inf": routed.w_inf,
        "w_ls": routed.w_ls,
        "channel_width": routed.channel_width,
        "wirelength": routed.wirelength,
        "seconds": round(routed.seconds, 3),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def cmd_bench(args) -> int:
    from repro.bench.runner import main as bench_main

    return bench_main(args.bench_args)


def cmd_resume(args) -> int:
    try:
        result = api.resume(args.run_dir, trace=args.trace)
    except CheckpointError as exc:
        raise CliError(str(exc), EXIT_MISSING) from None
    print(
        f"resumed {args.run_dir} in {result.seconds:.1f}s: "
        f"{result.initial_delay:.2f} -> {result.final_delay:.2f} "
        f"({result.improvement:.1%}; {result.replicated} replicated, "
        f"{result.unified} unified, {len(result.iterations)} iterations)"
    )
    print(render_history(result.iterations))
    return 0


def cmd_trace_view(args) -> int:
    try:
        trace = json.loads(args.trace_file.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(
            f"cannot read {args.trace_file}: {exc}", EXIT_MISSING
        ) from None
    if not isinstance(trace, dict):
        raise CliError(
            f"{args.trace_file} must hold a JSON object with traceEvents",
            EXIT_USAGE,
        )
    table = trace_span_table(trace)
    if not table:
        print("(no complete spans in trace)")
        return 0
    print(format_span_table(table, limit=args.limit))
    return 0


# ----------------------------------------------------------------------
# Netlist store inspection
# ----------------------------------------------------------------------


def cmd_netlist_info(args) -> int:
    from repro.netlist.store import NetlistStore, NetlistStoreError

    if not args.store.exists():
        raise CliError(f"no store at {args.store}", EXIT_MISSING)
    try:
        store = NetlistStore(args.store)
        info = store.info()
    except NetlistStoreError as exc:
        raise CliError(str(exc)) from None
    print(f"store {args.store}: schema v{info['schema_version']}, "
          f"{len(info['designs'])} design(s), {info['size_bytes']} bytes")
    for design in info["designs"]:
        print(f"  {design['key']}: {design['cells']} cells, "
              f"{design['nets']} nets, {design['pins']} pins "
              f"(lut_size {design['lut_size']})")
    return 0


# ----------------------------------------------------------------------
# Campaign subcommands
# ----------------------------------------------------------------------


def _print_campaign_summary(summary) -> int:
    print(
        f"campaign finished in {summary.seconds:.1f}s: "
        f"{summary.done} done, {summary.failed} failed, "
        f"{summary.skipped} skipped (of {summary.total})"
    )
    for task_id, error in summary.failures.items():
        last_line = error.strip().splitlines()[-1] if error.strip() else ""
        print(f"  {task_id}: {last_line}", file=sys.stderr)
    return 0 if summary.ok else 1


def cmd_campaign_run(args) -> int:
    try:
        summary = api.campaign_run(
            args.campaign_dir,
            circuits=args.circuits,
            algorithms=args.algorithms,
            seeds=[int(token) for token in args.seeds.split(",")],
            scale=args.scale,
            effort=args.effort,
            jobs=args.jobs,
            perf=args.perf,
            trace=args.trace,
            echo=print,
        )
    except ValueError as exc:
        print(f"repro campaign run: {exc}", file=sys.stderr)
        return 2
    return _print_campaign_summary(summary)


def cmd_campaign_resume(args) -> int:
    from repro.campaign.store import CampaignStoreError, CampaignStoreMissing

    try:
        summary = api.campaign_resume(
            args.campaign_dir, jobs=args.jobs, echo=print
        )
    except CampaignStoreMissing as exc:
        raise CliError(str(exc), EXIT_MISSING) from None
    except (CampaignStoreError, ValueError) as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    return _print_campaign_summary(summary)


def cmd_campaign_status(args) -> int:
    from repro.campaign.store import CampaignStoreError, CampaignStoreMissing

    try:
        print(api.campaign_status(args.campaign_dir))
    except CampaignStoreMissing as exc:
        raise CliError(str(exc), EXIT_MISSING) from None
    except CampaignStoreError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    return 0


def cmd_campaign_report(args) -> int:
    from repro.campaign.store import CampaignStoreError, CampaignStoreMissing

    try:
        print(api.campaign_report(
            args.campaign_dir,
            args.experiment,
            seed=args.seed,
            allow_partial=args.partial,
        ))
    except CampaignStoreMissing as exc:
        raise CliError(str(exc), EXIT_MISSING) from None
    except (CampaignStoreError, ValueError) as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # ``campaign`` and ``netlist`` name their own subcommand in messages.
    nested = getattr(args, f"{args.command}_command", None)
    label = f"repro {args.command}" + (f" {nested}" if nested else "")
    try:
        return args.func(args)
    except CliError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.code
    except NetlistError as exc:
        print(f"{label}: invalid netlist: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"{label}: no such file: {exc.filename or exc}", file=sys.stderr)
        return EXIT_MISSING
    except KeyboardInterrupt:
        print(f"{label}: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); swap in devnull so the
        # interpreter's exit-time stdout flush cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main
    sys.exit(main())
