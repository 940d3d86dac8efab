"""CLI subcommands: run/route/resume/trace-view/bench."""

import importlib.util
import json
import re

import pytest

from repro.bench.runner import main as runner_main
from repro.cli import (
    EXIT_MISSING,
    EXIT_USAGE,
    build_parser,
    main as cli_main,
)

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
    @pytest.mark.parametrize("command", ["run", "route", "netlist build"])
    def test_invalid_blif_exits_2(self, capsys, tmp_path, command, text, message):
        blif = tmp_path / "bad.blif"
        blif.write_text(text)
        store = tmp_path / "store.sqlite"
        argv = command.split() + ["--blif", str(blif)]
        if command == "netlist build":
            argv.append(str(store))
        code = cli_main(argv)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"repro {command}: ")
        assert message in err
        assert not store.exists()

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

    @pytest.mark.parametrize("command", ["serve", "submit", "jobs"])
    def test_service_commands_are_gone(self, command, capsys):
        """No service subcommand, and no package module by its name."""
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "x"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err
        assert importlib.util.find_spec(f"repro.{command}") is None


class TestOutOfRangeNumbers:
    """Out-of-range numbers exit 2 with a usage line before any file is
    created (they used to end in a traceback, or a failed campaign)."""

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize(
        "main, argv",
        [
            (cli_main, ["run", "--circuit", "tseng", "--run-dir", "{tmp}/run"]),
            (cli_main, ["route", "--circuit", "tseng"]),
            (cli_main, ["netlist", "build", "{tmp}/nl.sqlite",
                        "--circuit", "tseng"]),
            (cli_main, ["campaign", "run", "{tmp}/camp",
                        "--circuits", "tseng", "--algorithms", "rt"]),
            (runner_main, ["table1", "--circuits", "tseng",
                           "--run-dir", "{tmp}/bench"]),
        ],
        ids=["run", "route", "netlist-build", "campaign-run", "bench-runner"],
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
        process count; only a campaign takes ``--jobs``."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert not re.search(
            r"--(engine|wmin-engine|kernel|route-kernel|route-search|route-jobs)\b",
            help_text,
        )
        assert bool(re.search(r"--jobs\b", help_text)) == has_jobs
