"""CLI subcommands: run/route/resume/trace-view/bench."""

import json
import re

import pytest

from repro.bench.runner import main as runner_main
from repro.cli import (
    EXIT_MISSING,
    EXIT_USAGE,
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


class TestErrorHandling:
    """User errors exit with distinct codes and one stderr line each."""

    def test_missing_blif_exits_3(self, capsys, tmp_path):
        code = cli_main(["run", "--blif", str(tmp_path / "nope.blif")])
        assert code == EXIT_MISSING
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "nope.blif" in err

    def test_unknown_algorithm_exits_2(self, capsys):
        code = cli_main(["run", *RUN_FLAGS, "--algorithm", "bogus"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "bogus" in err

    def test_submit_without_daemon_exits_3(self, capsys, tmp_path):
        code = cli_main(["submit", "--dir", str(tmp_path),
                         "--kind", "place", "--circuit", "tseng"])
        assert code == EXIT_MISSING
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "serve.json" in err

    def test_jobs_flag_combos_rejected(self, capsys, tmp_path):
        import json as _json

        (tmp_path / "serve.json").write_text(_json.dumps(
            {"host": "127.0.0.1", "port": 1}
        ))
        code = cli_main(["jobs", "--dir", str(tmp_path),
                         "--result", "--cancel", "x"])
        assert code == EXIT_USAGE
        assert "mutually exclusive" in capsys.readouterr().err
        code = cli_main(["jobs", "--dir", str(tmp_path), "--result"])
        assert code == EXIT_USAGE
        assert "job id" in capsys.readouterr().err


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


class TestRoutingFlags:
    @pytest.mark.parametrize(
        "main, argv",
        [
            (cli_main, ["run"]),
            (cli_main, ["route"]),
            (cli_main, ["campaign", "run"]),
            (runner_main, []),
        ],
        ids=["run", "route", "campaign-run", "bench-runner"],
    )
    def test_help_lists_no_router_variant_flags(self, main, argv, capsys):
        """Routing has one implementation, so no flag picks among them."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "--route-jobs" in help_text
        assert not re.search(
            r"--(engine|wmin-engine|kernel|route-kernel|route-search)\b",
            help_text,
        )
