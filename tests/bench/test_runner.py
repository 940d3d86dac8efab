"""Smoke tests for the benchmark runner and table formatting."""

import pytest

from repro.bench import runner, tables
from repro.bench.runner import (
    LowStressRouteError,
    averages_by_size,
    replication_config,
    run_variant,
    run_vpr_baseline,
)

SCALE = 0.04  # tiny: these are plumbing tests, not measurements


@pytest.fixture(scope="module")
def baseline():
    return run_vpr_baseline("tseng", scale=SCALE, seed=0)


class TestBaseline:
    def test_fields_populated(self, baseline):
        assert baseline.w_inf > 0
        assert baseline.w_ls >= baseline.w_inf - 1e-9
        assert baseline.wirelength > 0
        assert baseline.min_width >= 1
        assert 0 < baseline.density <= 1.0
        assert baseline.place_route_seconds > 0

    def test_placement_complete(self, baseline):
        baseline.placement.assert_complete(baseline.netlist)
        assert baseline.placement.is_legal()


class TestVariants:
    @pytest.mark.parametrize("algorithm", ["local", "rt", "lex-2", "lex-mc"])
    def test_variant_runs(self, baseline, algorithm):
        result = run_variant(baseline, algorithm, effort=0.2)
        assert result.algorithm == algorithm
        assert result.w_inf > 0
        assert result.blocks >= 0.9

    def test_variant_does_not_mutate_baseline(self, baseline):
        cells_before = baseline.netlist.num_cells
        run_variant(baseline, "rt", effort=0.2)
        assert baseline.netlist.num_cells == cells_before

    def test_overused_low_stress_route_raises(self):
        """Table III's committed config (tseng at 0.06, seed 0, effort
        1.0): Lex-3's replicated design ends overused at the baseline's
        low-stress width, and the runner says so instead of reporting a
        ``W_ls`` and wirelength from that routing."""
        tseng = run_vpr_baseline("tseng", scale=0.06, seed=0)
        with pytest.raises(
            LowStressRouteError,
            match="^tseng lex-3: the low-stress route at width 5 ends with "
            "overuse 5$",
        ):
            run_variant(tseng, "lex-3", effort=1.0, seed=0)

    def test_config_effort_scaling(self):
        low = replication_config("rt", effort=0.2)
        high = replication_config("rt", effort=1.0)
        assert low.max_iterations < high.max_iterations
        assert low.max_tree_nodes <= high.max_tree_nodes

    def test_config_schemes(self):
        assert replication_config("lex-3").scheme.name == "Lex-3"
        assert replication_config("rt").scheme.name == "RT-Embedding"


class TestAggregation:
    def test_averages_by_size(self, baseline):
        run = run_variant(baseline, "rt", effort=0.2)
        groups = averages_by_size([run])
        assert groups["all"]["w_inf"] == pytest.approx(run.w_inf)
        assert groups["small"]["w_inf"] == pytest.approx(run.w_inf)
        assert groups["large"]["w_inf"] == 0.0  # tseng is small


class TestTables:
    def test_table1_formatting(self, baseline):
        text = tables.format_table1([baseline], scale=SCALE)
        assert "tseng" in text
        assert "paper" in text

    def test_table2_formatting(self, baseline):
        run = run_variant(baseline, "rt", effort=0.2)
        text = tables.format_table2({"rt": [run]}, scale=SCALE)
        assert "tseng" in text
        assert "average" in text

    def test_table3_formatting(self, baseline):
        run = run_variant(baseline, "rt", effort=0.2)
        text = tables.format_table3({"rt": [run]}, scale=SCALE)
        assert "rt" in text
        assert "large" in text

    def test_fig14_formatting(self, baseline):
        run = run_variant(baseline, "rt", effort=0.2)
        text = tables.format_fig14(run, scale=SCALE)
        assert "paper" in text

    def test_overhead_formatting(self):
        text = tables.format_overhead(1.0, 10.0, scale=SCALE)
        assert "0.100" in text


class TestCli:
    def test_main_table1(self, capsys):
        code = runner.main(["table1", "--scale", "0.04", "--circuits", "tseng"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "tseng" in out

    def test_usage_names_repro_bench(self, capsys):
        with pytest.raises(SystemExit) as exc:
            runner.main(["table2", "--effort", "inf"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro bench ")
        assert "repro bench: error: " in err

    @pytest.mark.parametrize("experiment", ["table1", "table2", "table3", "fig14"])
    @pytest.mark.parametrize(
        "flag", [["--perf-json", "perf.json"]], ids=["perf-json"]
    )
    def test_overhead_only_flags_rejected_elsewhere(
        self, capsys, experiment, flag
    ):
        """The misspelt circuit would fail later: the flag check comes
        first, before any work starts."""
        with pytest.raises(SystemExit) as exc:
            runner.main([experiment, "--circuits", "tsneg", *flag])
        assert exc.value.code == 2
        assert f"{flag[0]} applies to overhead only" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment", ["table1", "table2", "table3", "fig14", "overhead"]
    )
    def test_batch_sinks_is_not_a_flag(self, capsys, experiment):
        """The flow embeds one sink per iteration: every experiment,
        overhead included, rejects ``--batch-sinks`` before any work."""
        with pytest.raises(SystemExit) as exc:
            runner.main([experiment, "--circuits", "tsneg", "--batch-sinks", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --batch-sinks 2" in capsys.readouterr().err
