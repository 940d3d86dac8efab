"""`repro campaign` subcommands: happy path, error codes, validation."""

import json
import os

import pytest

from repro.bench import runner
from repro.bench.suite import resolve_names
from repro.campaign.store import CampaignStore
from repro.cli import EXIT_MISSING, main as cli_main

RUN_FLAGS = [
    "--circuits", "tseng", "--algorithms", "rt",
    "--scale", "0.02", "--effort", "0.2",
]


class TestCampaignCli:
    def test_run_status_report_cycle(self, capsys, tmp_path):
        camp = str(tmp_path / "camp")
        assert cli_main(["campaign", "run", camp, *RUN_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "campaign finished" in out and "2 done" in out

        assert cli_main(["campaign", "status", camp]) == 0
        status = capsys.readouterr().out
        assert "2 done" in status

        assert cli_main(["campaign", "report", camp, "table2"]) == 0
        report = capsys.readouterr().out
        assert "tseng" in report

    def test_task_traces_carry_the_worker_pid(self, capsys, tmp_path):
        """Each task runs, and traces, in a worker process of its own."""
        camp = tmp_path / "camp"
        assert cli_main([
            "campaign", "run", str(camp), *RUN_FLAGS, "--jobs", "1", "--trace",
        ]) == 0
        traces = sorted((camp / "trace").glob("*.json"))
        assert len(traces) == 2
        pids = [
            {event["pid"] for event in json.loads(path.read_text())["traceEvents"]}
            for path in traces
        ]
        (first,), (second,) = pids
        assert first != second
        assert os.getpid() not in (first, second)

    def test_overused_route_fails_once_per_invocation(self, capsys, tmp_path):
        """Table III's committed config (tseng at 0.06, seed 0, effort
        1.0): Lex-3's design does not route at the baseline's low-stress
        width.  Each of run and resume launches the variant once and
        fails it the same way; the baseline runs once."""
        camp = str(tmp_path / "camp")
        variant = "variant/tseng@0.06/s0/lex-3"
        error = (
            "repro.bench.runner.LowStressRouteError: tseng lex-3: the "
            "low-stress route at width 5 ends with overuse 5"
        )
        flags = ["--circuits", "tseng", "--algorithms", "lex-3",
                 "--scale", "0.06"]
        assert cli_main(["campaign", "run", camp, *flags]) == 1
        assert f"  {variant}: {error}\n" in capsys.readouterr().err
        store = CampaignStore.in_dir(camp)
        row = {r["task_id"]: r for r in store.task_rows()}[variant]
        assert row["status"] == "failed" and row["total_attempts"] == 1
        assert row["error"].strip().splitlines()[-1] == error
        # a partial report is refused unless explicitly requested
        assert cli_main(["campaign", "report", camp]) == 2
        assert "no result" in capsys.readouterr().err
        assert cli_main(["campaign", "report", camp, "--partial"]) == 0
        capsys.readouterr()

        assert cli_main(["campaign", "resume", camp]) == 1
        assert f"  {variant}: {error}\n" in capsys.readouterr().err
        rows = {r["task_id"]: r for r in store.task_rows()}
        assert rows[variant]["status"] == "failed"
        assert rows[variant]["total_attempts"] == 2
        assert rows[variant]["error"].strip().splitlines()[-1] == error
        assert rows["baseline/tseng@0.06/s0"]["total_attempts"] == 1

    def test_missing_store_paths_exit_3(self, capsys, tmp_path):
        nowhere = str(tmp_path / "nowhere")
        for argv, message in (
            (["campaign", "status", nowhere], "no campaign store"),
            (["campaign", "report", nowhere], "no campaign store"),
            (["campaign", "resume", nowhere], "no campaign store"),
            (["netlist", "info", nowhere], "no store"),
        ):
            assert cli_main(argv) == EXIT_MISSING, argv
            err = capsys.readouterr().err
            assert err.startswith(f"repro {argv[0]} {argv[1]}: {message} at ")
            assert err.count("\n") == 1, err
        assert not (tmp_path / "nowhere").exists()

    def test_run_twice_in_same_dir_is_an_error(self, capsys, tmp_path):
        camp = str(tmp_path / "camp")
        assert cli_main(["campaign", "run", camp, *RUN_FLAGS]) == 0
        capsys.readouterr()
        assert cli_main(["campaign", "run", camp, *RUN_FLAGS]) == 2
        assert "campaign_resume" in capsys.readouterr().err

    def test_unknown_circuit_rejected_up_front(self, capsys, tmp_path):
        code = cli_main([
            "campaign", "run", str(tmp_path / "camp"),
            "--circuits", "tseng,tsneg", "--algorithms", "rt",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "tsneg" in err and "valid names" in err
        assert not (tmp_path / "camp" / "campaign.sqlite").exists()


class TestCircuitValidation:
    """Satellite: --circuits typos fail fast with the valid-name list."""

    def test_resolve_names_keywords_and_csv(self):
        assert resolve_names("tseng,ex5p") == ["tseng", "ex5p"]
        assert resolve_names(["tseng"]) == ["tseng"]
        assert set(resolve_names("small")) | set(resolve_names("large")) == (
            set(resolve_names("all"))
        )

    def test_resolve_names_rejects_unknown(self):
        with pytest.raises(ValueError, match="valid names"):
            resolve_names("tseng,nope")
        with pytest.raises(ValueError, match="empty"):
            resolve_names(",")

    def test_bench_runner_rejects_typo_before_running(self, capsys):
        with pytest.raises(SystemExit):
            runner.main(["table1", "--circuits", "tsneg"])
        assert "valid names" in capsys.readouterr().err
