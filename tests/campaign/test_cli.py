"""`repro campaign` subcommands: happy path, error codes, validation."""

import pytest

from repro.bench import runner
from repro.bench.suite import resolve_names
from repro.cli import EXIT_MISSING, EXIT_USAGE, main as cli_main

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

    def test_injected_failure_exits_nonzero_and_reports_partial(
        self, capsys, tmp_path
    ):
        camp = str(tmp_path / "camp")
        code = cli_main([
            "campaign", "run", camp, *RUN_FLAGS,
            "--retries", "0", "--backoff", "0.01",
            "--inject-fault", "variant/tseng@0.02/s0/rt=99",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "variant/tseng@0.02/s0/rt" in err
        # a partial report is refused unless explicitly requested
        assert cli_main(["campaign", "report", camp]) == 2
        assert "no result" in capsys.readouterr().err
        assert cli_main(["campaign", "report", camp, "--partial"]) == 0

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

    def test_bad_inject_fault_spec(self, capsys, tmp_path):
        for spec in ("not-a-spec", "TASK=abc", "=3"):
            code = cli_main([
                "campaign", "run", str(tmp_path / "camp"), *RUN_FLAGS,
                "--inject-fault", spec,
            ])
            assert code == EXIT_USAGE, spec
            err = capsys.readouterr().err
            assert err == (
                f"repro campaign run: bad --inject-fault {spec!r} "
                "(expected TASK=N)\n"
            )
        assert not (tmp_path / "camp").exists()

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
