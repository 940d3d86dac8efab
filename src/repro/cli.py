"""Command-line flow driver: ``python -m repro <subcommand>``.

Subcommands::

    repro run        end-to-end flow: place -> replicate -> (route)
    repro route      route an existing placement and report timing
    repro bench      forward to the benchmark runner (tables/figures)
    repro resume     continue a checkpointed run directory
    repro trace-view summarize a Chrome trace produced by --trace
    repro campaign   durable experiment matrix (run/resume/status/report)
    repro netlist    build or inspect a shared netlist store
    repro serve      run the replication service daemon
    repro submit     submit a job to a running service
    repro jobs       list/inspect/cancel jobs on a running service

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
from repro.bench.suite import SPEC_BY_NAME
from repro.core.checkpoint import CheckpointError
from repro.core.config import RunConfig
from repro.perf import PERF
from repro.trace import summarize_trace
from repro.viz import render_history, render_placement

#: Exit codes: user errors get distinct nonzero codes and a one-line
#: stderr message — never a traceback.
EXIT_FAILURE = 1   # the operation itself failed (flow error, failed job)
EXIT_USAGE = 2     # bad flag combination / invalid argument value
EXIT_MISSING = 3   # a named input does not exist (file, store, daemon)


class CliError(Exception):
    """User-facing CLI error: one stderr line + a specific exit code."""

    def __init__(self, message: str, code: int = EXIT_FAILURE) -> None:
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--blif", type=Path, help="input BLIF netlist")
    source.add_argument(
        "--circuit",
        choices=sorted(SPEC_BY_NAME),
        help="generate an MCNC-calibrated suite circuit",
    )
    parser.add_argument("--scale", type=float, default=0.08,
                        help="suite-circuit scale (with --circuit)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--place-effort", type=float, default=0.3,
                        dest="place_effort", help="annealer inner_num scale")
    parser.add_argument("--in-placement", type=Path,
                        help="start from a saved placement instead of SA")
    parser.add_argument("--netlist-store", type=Path, default=None,
                        dest="netlist_store", metavar="DB",
                        help="load the design from (building into, on first "
                        "use) this netlist store database; results are "
                        "byte-identical with and without it")


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
    run.add_argument("--effort", type=float, default=1.0,
                     help="replication-flow effort dial")
    run.add_argument("--batch-sinks", type=int, default=1, dest="batch_sinks",
                     help="tied critical endpoints embedded per iteration "
                     "(1 = paper's one-sink loop)")
    run.add_argument("--perf", action="store_true",
                     help="print perf counters/timers after the flow")
    run.add_argument("--route", action="store_true",
                     help="run low-stress + infinite routing at the end")
    run.add_argument("--run-dir", type=Path,
                     help="run directory: journal.jsonl, checkpoint.json, "
                     "trace.json, result.json")
    run.add_argument("--trace", nargs="?", const=True, default=False,
                     metavar="FILE",
                     help="write a Chrome trace (default: run-dir/trace.json)")
    run.add_argument("--checkpoint-every", type=int, default=0,
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
    route.add_argument("--start-width", type=int, default=None,
                       dest="start_width", metavar="W",
                       help="warm-start the W_min search at this width "
                       "(e.g. a prior run's result; never changes the answer)")
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
    view.add_argument("--limit", type=int, default=20,
                      help="show the top N spans by total time")
    view.set_defaults(func=cmd_trace_view)

    campaign = sub.add_parser(
        "campaign",
        help="fault-tolerant parallel experiment matrix "
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
    crun.add_argument("--scale", type=float, default=0.08)
    crun.add_argument("--effort", type=float, default=1.0)
    crun.add_argument("--jobs", type=int, default=1,
                      help="worker processes (one task per process)")
    crun.add_argument("--timeout", type=float, default=None, metavar="S",
                      help="kill a task after S seconds (counts as a failure)")
    crun.add_argument("--retries", type=int, default=2,
                      help="re-runs after a task's first failure")
    crun.add_argument("--backoff", type=float, default=0.5, metavar="S",
                      help="base retry delay; doubles per attempt")
    crun.add_argument("--perf", action="store_true",
                      help="per-task perf snapshots into DIR/perf/")
    crun.add_argument("--trace", action="store_true",
                      help="per-task Chrome traces into DIR/trace/")
    crun.add_argument("--netlist-store", type=Path, default=None,
                      dest="netlist_store", metavar="DB",
                      help="share one read-only netlist store across workers "
                      "instead of pickling netlists into task payloads")
    crun.add_argument("--inject-fault", action="append", default=[],
                      dest="inject_fault", metavar="TASK=N",
                      help="testing hook: fail TASK's first N attempts "
                      "(negative N hangs, exercising --timeout)")
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
        "netlist",
        help="netlist store maintenance (build a design, inspect a store)",
    )
    nl_sub = netlist.add_subparsers(dest="netlist_command", required=True)

    nbuild = nl_sub.add_parser(
        "build", help="(re)build one design into a netlist store"
    )
    nbuild.add_argument("store", type=Path, help="store database path")
    nsource = nbuild.add_mutually_exclusive_group(required=True)
    nsource.add_argument("--blif", type=Path, help="input BLIF netlist")
    nsource.add_argument(
        "--circuit",
        choices=sorted(SPEC_BY_NAME),
        help="stream an MCNC-calibrated suite circuit into the store",
    )
    nbuild.add_argument("--scale", type=float, default=0.08,
                        help="suite-circuit scale (with --circuit)")
    nbuild.add_argument("--lut-size", type=int, default=4, dest="lut_size")
    nbuild.set_defaults(func=cmd_netlist_build)

    ninfo = nl_sub.add_parser(
        "info", help="print store size, schema version and design counts"
    )
    ninfo.add_argument("store", type=Path, help="store database path")
    ninfo.set_defaults(func=cmd_netlist_info)

    serve = sub.add_parser(
        "serve",
        help="run the replication service daemon "
        "(durable job queue + HTTP API over a state directory)",
    )
    serve.add_argument("state_dir", type=Path,
                       help="directory for serve.sqlite, serve.json and "
                       "per-job run directories")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (0 = ephemeral; the bound port is "
                       "written to serve.json)")
    serve.add_argument("--workers", type=int, default=2,
                       help="max concurrent worker processes")
    serve.add_argument("--retries", type=int, default=0,
                       help="re-runs after a job's first failed attempt")
    serve.add_argument("--job-timeout", type=float, default=None,
                       dest="job_timeout", metavar="S",
                       help="kill a worker after S seconds")
    serve.add_argument("--no-cache", action="store_true", dest="no_cache",
                       help="disable the config-hash result cache")
    serve.add_argument("--perf-json", type=Path, default=None,
                       dest="perf_json", metavar="FILE",
                       help="write the serve.* perf snapshot here on "
                       "shutdown")
    serve.set_defaults(func=cmd_serve)

    def _add_server_arguments(parser: argparse.ArgumentParser) -> None:
        where = parser.add_mutually_exclusive_group(required=True)
        where.add_argument("--server", metavar="HOST:PORT",
                           help="daemon address")
        where.add_argument("--dir", type=Path, dest="state_dir",
                           help="daemon state directory (reads serve.json)")

    submit = sub.add_parser(
        "submit", help="submit a job to a running service"
    )
    _add_server_arguments(submit)
    submit.add_argument("--kind", choices=("place", "optimize", "route",
                                           "campaign"),
                        default="optimize")
    submit.add_argument("--config", type=Path, default=None, metavar="FILE",
                        help="JSON config file (flags below override it)")
    submit.add_argument("--circuit", default=None)
    submit.add_argument("--blif", type=Path, default=None)
    submit.add_argument("--scale", type=float, default=None)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--algorithm", default=None)
    submit.add_argument("--effort", type=float, default=None)
    submit.add_argument("--route", action="store_true", default=None,
                        help="route after optimizing (optimize kind)")
    submit.add_argument("--client", default="anon",
                        help="client token for multi-tenant accounting")
    submit.add_argument("--no-cache", action="store_true", dest="no_cache",
                        help="force a fresh run even on a cache hit")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes; print its result")
    submit.add_argument("--stream", action="store_true",
                        help="stream the job's journal events while waiting")
    submit.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="give up waiting after S seconds (with --wait)")
    submit.set_defaults(func=cmd_submit)

    jobs = sub.add_parser(
        "jobs", help="list/inspect/cancel jobs on a running service"
    )
    _add_server_arguments(jobs)
    jobs.add_argument("job_id", nargs="?", default=None,
                      help="show one job (default: list)")
    jobs.add_argument("--client", default=None, help="filter by client token")
    jobs.add_argument("--status", default=None,
                      choices=("pending", "running", "done", "failed",
                               "cancelled"),
                      help="filter by status")
    jobs.add_argument("--limit", type=int, default=None)
    jobs.add_argument("--result", action="store_true",
                      help="print the job's stored result.json text")
    jobs.add_argument("--events", action="store_true",
                      help="stream the job's journal events")
    jobs.add_argument("--cancel", action="store_true",
                      help="cancel the job")
    jobs.set_defaults(func=cmd_jobs)

    return parser


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _load_and_place(args) -> tuple[api.Design, api.PlaceResult]:
    store = args.netlist_store
    if args.blif is not None and not args.blif.exists():
        raise CliError(f"no BLIF file at {args.blif}", EXIT_MISSING)
    if args.blif is not None:
        design = api.load_design(blif=args.blif, netlist_store=store)
        print(f"read {args.blif}: {design.netlist.num_logic_blocks} logic "
              f"blocks, {design.netlist.num_pads} pads -> {design.arch} FPGA")
    else:
        design = api.load_design(
            circuit=args.circuit, scale=args.scale, netlist_store=store
        )
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
        if args.perf:
            PERF.reset()
            PERF.enable()
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
        if args.perf and not PERF.enabled:
            PERF.reset()
            PERF.enable()
        routed = api.route(design, placement)
        _print_routing(routed)
        if args.run_dir is not None:
            _record_route_result(args.run_dir, routed)

    if args.perf and PERF.enabled:
        from repro.perf import sample_peak_rss

        PERF.record_max("peak_rss_mb", sample_peak_rss())
        PERF.disable()
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


def cmd_route(args) -> int:
    design, placed = _load_and_place(args)
    _print_routing(
        api.route(design, placed.placement, start_width=args.start_width)
    )
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
    rows = summarize_trace(trace)
    if not rows:
        print("(no complete spans in trace)")
        return 0
    width = max(len(row["name"]) for row in rows)
    print(f"{'span':<{width}}  {'count':>6}  {'total ms':>10}  "
          f"{'avg ms':>9}  {'max ms':>9}")
    for row in rows[: args.limit]:
        print(f"{row['name']:<{width}}  {row['count']:>6}  "
              f"{row['total_ms']:>10.2f}  {row['avg_ms']:>9.3f}  "
              f"{row['max_ms']:>9.3f}")
    return 0


# ----------------------------------------------------------------------
# Netlist store subcommands
# ----------------------------------------------------------------------


def cmd_netlist_build(args) -> int:
    from repro.netlist.store import NetlistStore, NetlistStoreError

    if args.blif is not None and not args.blif.exists():
        raise CliError(f"no BLIF file at {args.blif}", EXIT_MISSING)
    store = NetlistStore(args.store)
    try:
        if args.blif is not None:
            from repro.netlist.blif import read_blif

            key = f"blif:{args.blif.stem}"
            store.save_design(
                key, read_blif(args.blif.read_text()), lut_size=args.lut_size
            )
        else:
            from repro.bench.suite import stream_suite_circuit
            from repro.netlist.store import design_key

            key = design_key(args.circuit, args.scale)
            stream_suite_circuit(
                store, args.circuit, scale=args.scale, lut_size=args.lut_size
            )
    except (OSError, NetlistStoreError) as exc:
        raise CliError(str(exc)) from None
    info = store.design_info(key)
    print(
        f"built {key} in {args.store}: {info['cells']} cells, "
        f"{info['nets']} nets, {info['pins']} pins "
        f"({info['luts']} LUTs, {info['ffs']} FFs, {info['pads']} pads)"
    )
    return 0


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


def _parse_faults(entries: list[str]) -> dict[str, int]:
    faults: dict[str, int] = {}
    for entry in entries:
        task_id, _, count = entry.partition("=")
        try:
            attempts = int(count)
        except ValueError:
            attempts = None
        if not task_id or attempts is None:
            raise CliError(
                f"bad --inject-fault {entry!r} (expected TASK=N)", EXIT_USAGE
            )
        faults[task_id] = attempts
    return faults


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
    faults = _parse_faults(args.inject_fault)
    try:
        summary = api.campaign_run(
            args.campaign_dir,
            circuits=args.circuits,
            algorithms=args.algorithms,
            seeds=[int(token) for token in args.seeds.split(",")],
            scale=args.scale,
            effort=args.effort,
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
            perf=args.perf,
            trace=args.trace,
            netlist_store=args.netlist_store,
            faults=faults,
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
    except CampaignStoreError as exc:
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
# Serve subcommands
# ----------------------------------------------------------------------


def cmd_serve(args) -> int:
    from repro.serve import ServeDaemon

    args.state_dir.mkdir(parents=True, exist_ok=True)
    daemon = ServeDaemon(
        args.state_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        retries=args.retries,
        job_timeout=args.job_timeout,
        cache=not args.no_cache,
        echo=print,
    )
    daemon.run()
    if args.perf_json is not None:
        args.perf_json.parent.mkdir(parents=True, exist_ok=True)
        args.perf_json.write_text(
            json.dumps(PERF.snapshot(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote perf snapshot to {args.perf_json}")
    return 0


def _serve_client(args):
    from repro.serve import ServeClient, ServeError

    if args.server is not None:
        host, _, port = args.server.rpartition(":")
        if not host or not port.isdigit():
            raise CliError(
                f"bad --server {args.server!r} (expected HOST:PORT)",
                EXIT_USAGE,
            )
        return ServeClient(host, int(port))
    try:
        return ServeClient.from_dir(args.state_dir)
    except ServeError as exc:
        raise CliError(exc.message, EXIT_MISSING) from None


def _serve_error_code(exc) -> int:
    if exc.status == 0:  # connection-level: daemon not reachable
        return EXIT_MISSING
    if exc.status in (400, 409):
        return EXIT_USAGE
    if exc.status == 404:
        return EXIT_MISSING
    return EXIT_FAILURE


def _submit_config(args) -> dict:
    config: dict = {}
    if args.config is not None:
        try:
            config = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(
                f"cannot read --config {args.config}: {exc}", EXIT_MISSING
            ) from None
        if not isinstance(config, dict):
            raise CliError(
                f"--config {args.config} must hold a JSON object", EXIT_USAGE
            )
    overrides = {
        "circuit": args.circuit,
        "blif": None if args.blif is None else str(args.blif),
        "scale": args.scale,
        "seed": args.seed,
        "algorithm": args.algorithm,
        "effort": args.effort,
        "route": args.route,
    }
    config.update(
        {key: value for key, value in overrides.items() if value is not None}
    )
    return config


def _print_job_events(client, job_id: str) -> None:
    for event in client.events(job_id):
        print(json.dumps(event))


def cmd_submit(args) -> int:
    from repro.serve import JobFailed, ServeError

    client = _serve_client(args)
    try:
        ack = client.submit(
            args.kind,
            _submit_config(args),
            client=args.client,
            cache=not args.no_cache,
        )
    except ServeError as exc:
        raise CliError(exc.message, _serve_error_code(exc)) from None
    except OSError as exc:
        raise CliError(f"cannot reach daemon: {exc}", EXIT_MISSING) from None
    job_id = ack["job_id"]
    note = ("cached" if ack.get("cached") else
            "coalesced" if ack.get("coalesced") else ack["status"])
    print(f"submitted {job_id} ({note}, config_hash {ack['config_hash']})")
    if not (args.wait or args.stream):
        return 0
    try:
        if args.stream:
            _print_job_events(client, job_id)
        job = client.wait(job_id, timeout=args.timeout)
    except JobFailed as exc:
        raise CliError(str(exc), EXIT_FAILURE) from None
    except TimeoutError as exc:
        raise CliError(str(exc), EXIT_FAILURE) from None
    except ServeError as exc:
        raise CliError(exc.message, _serve_error_code(exc)) from None
    print(f"job {job_id} done in {job['seconds']:.1f}s")
    sys.stdout.write(client.result(job_id).decode())
    return 0


def cmd_jobs(args) -> int:
    from repro.serve import ServeError

    client = _serve_client(args)
    flags = [args.result, args.events, args.cancel]
    if sum(bool(flag) for flag in flags) > 1:
        raise CliError(
            "--result, --events and --cancel are mutually exclusive",
            EXIT_USAGE,
        )
    if any(flags) and args.job_id is None:
        raise CliError(
            "--result/--events/--cancel need a job id", EXIT_USAGE
        )
    try:
        if args.job_id is None:
            rows = client.jobs(
                client=args.client, status=args.status, limit=args.limit
            )
            for row in rows:
                seconds = f"{row['seconds']:.1f}s" if row["seconds"] else "-"
                print(f"{row['job_id']:<28} {row['status']:<9} "
                      f"{row['kind']:<9} {seconds:>8}  {row['client']}")
            if not rows:
                print("(no jobs)")
            return 0
        if args.result:
            sys.stdout.write(client.result(args.job_id).decode())
        elif args.events:
            _print_job_events(client, args.job_id)
        elif args.cancel:
            ack = client.cancel(args.job_id)
            print(f"cancelled {ack['job_id']}")
        else:
            print(json.dumps(client.job(args.job_id), indent=2))
        return 0
    except ServeError as exc:
        raise CliError(exc.message, _serve_error_code(exc)) from None
    except OSError as exc:
        raise CliError(f"cannot reach daemon: {exc}", EXIT_MISSING) from None


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
