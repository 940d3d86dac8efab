"""CLI subcommands: run/route/resume/trace-view/bench."""

import importlib.util
import json
import re

import pytest

from repro import api
from repro.bench.runner import main as runner_main
from repro.campaign.model import CampaignConfig, build_matrix
from repro.campaign.store import CampaignStore
from repro.cli import (
    EXIT_MISSING,
    EXIT_USAGE,
    build_parser,
    main as cli_main,
)
from repro.perf import PERF

RUN_FLAGS = [
    "--circuit", "tseng", "--scale", "0.03", "--effort", "0.2",
    "--place-effort", "0.1",
]


class TestRun:
    def test_run_with_run_dir_trace_checkpoint(self, capsys, tmp_path):
        run_dir = tmp_path / "out"
        code = cli_main([
            "run", *RUN_FLAGS,
            "--run-dir", str(run_dir), "--trace", "--checkpoint-every", "2",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "replication" in output
        for name in ("config.json", "journal.jsonl", "checkpoint.json",
                     "trace.json", "result.json"):
            assert (run_dir / name).exists(), name
        config = json.loads((run_dir / "config.json").read_text())
        assert config["circuit"] == "tseng"
        assert config["checkpoint_every"] == 2
        trace = json.loads((run_dir / "trace.json").read_text())
        assert trace["traceEvents"]

    def test_run_trace_to_explicit_path(self, capsys, tmp_path):
        trace_file = tmp_path / "t.json"
        code = cli_main(["run", *RUN_FLAGS, "--trace", str(trace_file)])
        assert code == 0
        assert json.loads(trace_file.read_text())["traceEvents"]

    def test_perf_covers_placement_without_replication(self, capsys):
        """The registry is on from placement to the end, so a run with
        no replication flow still reports the placer."""
        code = cli_main(["run", *RUN_FLAGS, "--algorithm", "none", "--perf"])
        assert code == 0
        assert re.search(r"^  place\s+1\s", capsys.readouterr().out, re.M)
        assert not PERF.enabled

    def test_perf_with_trace_and_route(self, capsys, tmp_path):
        """``--perf`` reports the whole command while ``--trace`` holds
        the replication flow alone."""
        trace_file = tmp_path / "t.json"
        code = cli_main([
            "run", *RUN_FLAGS, "--perf", "--trace", str(trace_file), "--route",
        ])
        assert code == 0
        output = capsys.readouterr().out
        for name in ("place", "flow.iteration", "route.wmin",
                     "route.lowstress", "route.winf"):
            assert re.search(rf"^  {re.escape(name)}\s", output, re.M), name
        trace = json.loads(trace_file.read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert "flow.iteration" in names
        assert not names & {"place", "route.wmin", "route.lowstress", "route.winf"}

    def test_checkpoint_without_run_dir_fails(self, capsys, tmp_path):
        code = cli_main(["run", *RUN_FLAGS, "--checkpoint-every", "2"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one line, no traceback
        assert "--run-dir" in err


class TestResume:
    def test_resume_finishes_a_run_dir(self, capsys, tmp_path):
        run_dir = tmp_path / "out"
        assert cli_main([
            "run", *RUN_FLAGS,
            "--run-dir", str(run_dir), "--checkpoint-every", "1",
        ]) == 0
        code = cli_main(["resume", str(run_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "resumed" in output

    def test_resume_missing_checkpoint_errors(self, capsys, tmp_path):
        code = cli_main(["resume", str(tmp_path)])
        assert code == EXIT_MISSING
        assert "no checkpoint" in capsys.readouterr().err


class TestTraceView:
    def test_summary_table(self, capsys, tmp_path):
        run_dir = tmp_path / "out"
        assert cli_main([
            "run", *RUN_FLAGS, "--run-dir", str(run_dir), "--trace",
        ]) == 0
        capsys.readouterr()
        code = cli_main(["trace-view", str(run_dir / "trace.json")])
        assert code == 0
        output = capsys.readouterr().out
        assert "span" in output
        assert "flow.iteration" in output

    def test_unreadable_file_errors(self, capsys, tmp_path):
        code = cli_main(["trace-view", str(tmp_path / "missing.json")])
        assert code == EXIT_MISSING
        assert "trace-view" in capsys.readouterr().err

    def test_non_object_trace_is_a_usage_error(self, capsys, tmp_path):
        """A bare event array (Chrome's "JSON Array" format) is not the
        object form ``--trace`` writes: one line naming the file."""
        trace_file = tmp_path / "t.json"
        trace_file.write_text("[]")
        code = cli_main(["trace-view", str(trace_file)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(trace_file) in err


class TestErrorHandling:
    """User errors exit with distinct codes and one stderr line each."""

    def test_missing_blif_exits_3(self, capsys, tmp_path):
        code = cli_main(["run", "--blif", str(tmp_path / "nope.blif")])
        assert code == EXIT_MISSING
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "nope.blif" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("garbage\n", "has no cells"),
            (".model x\n.inputs a\n.outputs b\n.end\n", "undriven signal 'b'"),
        ],
        ids=["empty", "undriven-output"],
    )
    @pytest.mark.parametrize("command", ["run", "route"])
    def test_invalid_blif_exits_2(self, capsys, tmp_path, command, text, message):
        blif = tmp_path / "bad.blif"
        blif.write_text(text)
        code = cli_main([command, "--blif", str(blif)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"repro {command}: ")
        assert message in err

    def test_unknown_algorithm_exits_2(self, capsys):
        code = cli_main(["run", *RUN_FLAGS, "--algorithm", "bogus"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "bogus" in err


class TestBenchForwarding:
    def test_bench_forwards_to_runner(self, capsys):
        code = cli_main([
            "bench", "table1", "--scale", "0.02", "--circuits", "tseng",
        ])
        assert code == 0
        assert "tseng" in capsys.readouterr().out


class TestUsage:
    def test_flat_flags_without_subcommand_exit_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(RUN_FLAGS)
        assert exc.value.code == EXIT_USAGE
        assert "usage:" in capsys.readouterr().err

    def test_subcommands_are_the_batch_surface(self):
        usage = build_parser().format_usage()
        assert "{run,route,bench,resume,trace-view,campaign,netlist}" in usage

    def test_batch_sinks_is_not_a_flag(self, capsys):
        """The flow embeds one sink per iteration; no flag batches sinks
        (the runner's experiments are checked in tests/bench)."""
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", *RUN_FLAGS, "--batch-sinks", "2"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --batch-sinks 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["route", "--circuit", "tseng"], ["--start-width", "3"]),
            (["bench", "table1", "--circuits", "tseng"],
             ["--run-dir", "{tmp}/bench"]),
        ],
        ids=["route-start-width", "bench-run-dir"],
    )
    def test_wmin_hint_flags_are_gone(self, argv, flag, capsys, tmp_path):
        """W_min is computed, never remembered: no flag passes a width
        hint or names a directory to cache widths in."""
        flag = [arg.format(tmp=tmp_path) for arg in flag]
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, *flag])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "main, argv, error",
        [
            (cli_main, ["run", "--circuit", "tseng"], None),
            (cli_main, ["route", "--circuit", "tseng"], None),
            (cli_main, ["campaign", "run", "{tmp}/camp",
                        "--circuits", "tseng", "--algorithms", "rt"], None),
            (runner_main, ["table1", "--circuits", "tseng"], None),
            (cli_main, ["netlist", "build", "{tmp}/nl.sqlite",
                        "--circuit", "tseng"], "invalid choice: 'build'"),
        ],
        ids=["run", "route", "campaign-run", "bench-runner", "netlist-build"],
    )
    def test_netlist_store_flags_are_gone(self, main, argv, error, capsys,
                                          tmp_path):
        """Only a campaign keeps designs in a netlist store, always its
        own: no flag names one, and no command builds one."""
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        if error is None:
            argv += ["--netlist-store", str(tmp_path / "nl.sqlite")]
            error = "unrecognized arguments: --netlist-store"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert error in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag",
        [["--timeout", "5"], ["--retries", "0"], ["--backoff", "0"],
         ["--inject-fault", "baseline/tseng@0.08/s0=1"]],
        ids=["timeout", "retries", "backoff", "inject-fault"],
    )
    def test_campaign_fault_flags_are_gone(self, flag, capsys, tmp_path):
        """A campaign task runs once per invocation: no flag limits its
        time, reruns it, delays a rerun or injects a fault."""
        with pytest.raises(SystemExit) as exc:
            cli_main(["campaign", "run", str(tmp_path / "camp"),
                      "--circuits", "tseng", "--algorithms", "rt", *flag])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["serve", "submit", "jobs"])
    def test_service_commands_are_gone(self, command, capsys):
        """No service subcommand, and no package module by its name."""
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "x"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err
        assert importlib.util.find_spec(f"repro.{command}") is None


def failed_campaign(camp) -> CampaignStore:
    """A stored campaign whose baseline failed: a resume would reset it."""
    config = CampaignConfig(circuits=["tseng"], algorithms=["rt"], scale=0.02)
    store = CampaignStore.in_dir(camp)
    store.set_meta("config", config.to_dict())
    store.add_tasks(build_matrix(config))
    store.mark_failed("baseline/tseng@0.02/s0", "boom")
    return store


class TestOutOfRangeNumbers:
    """Out-of-range numbers exit 2 with a usage line before any file is
    created (they used to end in a traceback, or a failed campaign)."""

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize(
        "main, argv",
        [
            (cli_main, ["run", "--circuit", "tseng", "--run-dir", "{tmp}/run"]),
            (cli_main, ["route", "--circuit", "tseng"]),
            (cli_main, ["campaign", "run", "{tmp}/camp",
                        "--circuits", "tseng", "--algorithms", "rt"]),
            (runner_main, ["overhead", "--circuits", "tseng",
                           "--perf-json", "{tmp}/perf.json"]),
        ],
        ids=["run", "route", "campaign-run", "bench-runner"],
    )
    def test_scale_must_be_positive(self, main, argv, value, capsys,
                                    tmp_path):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--scale", value])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage:" in err and "--scale" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "main, argv, flag",
        [
            (cli_main, ["run", "--circuit", "tseng", "--run-dir", "{tmp}/run"],
             "--effort"),
            (cli_main, ["run", "--circuit", "tseng", "--run-dir", "{tmp}/run"],
             "--place-effort"),
            (cli_main, ["route", "--circuit", "tseng"], "--place-effort"),
            (cli_main, ["campaign", "run", "{tmp}/camp",
                        "--circuits", "tseng", "--algorithms", "rt"],
             "--effort"),
            (runner_main, ["overhead", "--circuits", "tseng",
                           "--perf-json", "{tmp}/perf.json"], "--effort"),
        ],
        ids=["run-effort", "run-place-effort", "route-place-effort",
             "campaign-run-effort", "bench-runner-effort"],
    )
    def test_effort_must_be_finite_and_non_negative(
        self, main, argv, flag, value, capsys, tmp_path
    ):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_campaign_run_jobs_must_be_positive(self, jobs, capsys, tmp_path):
        """A worker count below 1 used to run one worker silently."""
        code = cli_main(["campaign", "run", str(tmp_path / "camp"),
                         "--circuits", "tseng", "--algorithms", "rt",
                         "--jobs", jobs])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"repro campaign run: jobs must be >= 1, got {jobs}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_campaign_resume_jobs_must_be_positive(self, jobs, capsys,
                                                   tmp_path):
        store = failed_campaign(tmp_path / "camp")
        rows = [dict(row) for row in store.task_rows()]
        code = cli_main(["campaign", "resume", str(tmp_path / "camp"),
                         "--jobs", jobs])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"repro campaign resume: jobs must be >= 1, got {jobs}\n"
        assert [dict(row) for row in store.task_rows()] == rows
        assert [path.name for path in (tmp_path / "camp").iterdir()] == [
            "campaign.sqlite"
        ]

    def test_campaign_api_rejects_zero_jobs(self, tmp_path):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            api.campaign_run(tmp_path / "camp", circuits="tseng",
                             algorithms="rt", jobs=0)
        assert list(tmp_path.iterdir()) == []
        store = failed_campaign(tmp_path / "camp")
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            api.campaign_resume(tmp_path / "camp", jobs=0)
        assert store.status_of("baseline/tseng@0.02/s0") == "failed"

    def test_zero_effort_is_accepted(self):
        args = build_parser().parse_args(
            ["run", "--circuit", "tseng", "--effort", "0", "--place-effort", "0"]
        )
        assert (args.effort, args.place_effort) == (0.0, 0.0)

    def test_trace_view_limit_must_be_non_negative(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["trace-view", str(tmp_path / "trace.json"),
                      "--limit", "-1"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage:" in err and "--limit" in err

    def test_checkpoint_interval_must_be_non_negative(self, capsys,
                                                      tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", *RUN_FLAGS, "--run-dir", str(run_dir),
                      "--checkpoint-every", "-1"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage:" in err and "--checkpoint-every" in err
        assert not run_dir.exists()


class TestRoutingFlags:
    @pytest.mark.parametrize(
        "main, argv, has_jobs",
        [
            (cli_main, ["run"], False),
            (cli_main, ["route"], False),
            (cli_main, ["campaign", "run"], True),
            (runner_main, [], False),
        ],
        ids=["run", "route", "campaign-run", "bench-runner"],
    )
    def test_help_lists_no_router_variant_flags(
        self, main, argv, has_jobs, capsys
    ):
        """Routing has one implementation, and routing and embedding run
        in the caller's process, so no flag picks an implementation or a
        process count; only a campaign takes ``--jobs``.  Nor does a
        flag name a netlist store: a campaign always keeps its own."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert not re.search(
            r"--(engine|wmin-engine|kernel|route-kernel|route-search|route-jobs)\b",
            help_text,
        )
        assert bool(re.search(r"--jobs\b", help_text)) == has_jobs
        assert "--netlist-store" not in help_text
