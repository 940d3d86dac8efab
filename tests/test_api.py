"""The repro.api facade: typed results, run-dir artifacts, deprecations."""

import inspect
import json
import warnings

import pytest

import repro
from repro import api
from repro.core.config import ReplicationConfig, RunConfig
from repro.core.journal import iteration_entries


SMALL_CONFIG = ReplicationConfig(
    max_iterations=3, patience=1, max_tree_nodes=16, max_labels_per_vertex=4
)


@pytest.fixture(scope="module")
def design():
    return api.load_design(circuit="tseng", scale=0.03)


class TestLoadDesign:
    def test_suite_circuit(self, design):
        assert design.name == "tseng"
        assert design.source.startswith("suite:tseng")
        assert design.netlist.num_cells > 0
        assert design.arch.width == design.arch.height

    def test_blif_round_trip(self, tmp_path):
        from repro.bench.families import comb_tree
        from repro.netlist.blif import write_blif

        path = tmp_path / "design.blif"
        path.write_text(write_blif(comb_tree(2)))
        loaded = api.load_design(blif=path)
        assert loaded.source == str(path)
        assert loaded.netlist.num_logic_blocks > 0

    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(ValueError):
            api.load_design()
        with pytest.raises(ValueError):
            api.load_design(circuit="tseng", blif=tmp_path / "x.blif")

    def test_no_call_takes_a_netlist_store(self):
        """Only a campaign keeps designs in a netlist store, always its
        own: neither loading a design nor starting a campaign names one.
        Nor does a campaign take fault handling: each task runs once per
        invocation."""
        for call in (api.load_design, api.campaign_run):
            assert "netlist_store" not in inspect.signature(call).parameters
        assert {"timeout", "retries", "backoff", "faults"}.isdisjoint(
            inspect.signature(api.campaign_run).parameters
        )


class TestPlaceOptimizeEvaluate:
    def test_place_returns_typed_result(self, design):
        placed = api.place(design, seed=1, effort=0.1)
        assert isinstance(placed, api.PlaceResult)
        assert placed.critical_delay > 0
        assert placed.moves_accepted > 0
        ev = api.evaluate(design, placed.placement)
        assert isinstance(ev, api.EvalResult)
        assert ev.critical_delay == placed.critical_delay
        assert ev.legal

    def test_optimize_with_run_dir_writes_artifacts(self, tmp_path):
        design = api.load_design(circuit="tseng", scale=0.03)
        placed = api.place(design, seed=1, effort=0.1)
        run_dir = tmp_path / "run"
        result = api.optimize(
            design,
            placed.placement,
            config=SMALL_CONFIG,
            run_dir=run_dir,
            trace=True,
            checkpoint_every=1,
        )
        assert isinstance(result, api.OptimizeResult)
        assert result.run_dir == run_dir
        assert result.final_delay <= result.initial_delay + 1e-9

        # journal matches the result's iterations
        entries = iteration_entries(run_dir / "journal.jsonl")
        assert [e["delay_after"] for e in entries] == [
            r.delay_after for r in result.iterations
        ]
        # trace is loadable Chrome JSON
        trace = json.loads((run_dir / "trace.json").read_text())
        assert any(
            e["name"] == "flow.iteration" for e in trace["traceEvents"]
        )
        # result.json summarizes the run
        summary = json.loads((run_dir / "result.json").read_text())
        assert summary["final_delay"] == result.final_delay
        assert summary["iterations"] == len(result.iterations)
        assert (run_dir / "checkpoint.json").exists()

    def test_optimize_accepts_run_config(self, tmp_path):
        design = api.load_design(circuit="tseng", scale=0.03)
        placed = api.place(design, seed=1, effort=0.1)
        run = RunConfig(algorithm="rt", effort=0.2)
        result = api.optimize(design, placed.placement, config=run)
        assert len(result.iterations) <= run.replication_config().max_iterations

    def test_optimize_updates_inputs_in_place(self):
        design = api.load_design(circuit="tseng", scale=0.03)
        placed = api.place(design, seed=1, effort=0.1)
        result = api.optimize(design, placed.placement, config=SMALL_CONFIG)
        assert design.netlist.num_cells == result.netlist.num_cells
        assert (
            api.evaluate(design, placed.placement).critical_delay
            == result.final_delay
        )

    def test_checkpoint_without_run_dir_rejected(self, design):
        placed = api.place(design, seed=1, effort=0.1)
        with pytest.raises(ValueError):
            api.optimize(design, placed.placement, checkpoint_every=2)

    def test_trace_true_without_run_dir_rejected(self, design):
        placed = api.place(design, seed=1, effort=0.1)
        with pytest.raises(ValueError):
            api.optimize(design, placed.placement, trace=True)


class TestRoute:
    def test_route_returns_typed_result(self):
        design = api.load_design(circuit="tseng", scale=0.03)
        placed = api.place(design, seed=1, effort=0.1)
        routed = api.route(design, placed.placement)
        assert isinstance(routed, api.RouteResult)
        assert routed.w_inf > 0
        assert routed.w_ls >= routed.w_inf - 1e-9
        assert routed.channel_width > 0
        assert routed.wirelength > 0

    def test_routing_calls_take_no_jobs(self):
        """Routing runs in the caller's process: no call takes a worker
        count."""
        from repro.route import (
            find_min_channel_width,
            route_design,
            route_infinite,
            route_low_stress,
        )

        for call in (
            route_design,
            find_min_channel_width,
            route_low_stress,
            route_infinite,
            api.route,
        ):
            assert "jobs" not in inspect.signature(call).parameters, call


class TestTopLevelExports:
    def test_facade_reexported(self):
        assert repro.load_design is api.load_design
        assert repro.optimize is api.optimize
        assert repro.evaluate is api.evaluate
        assert repro.resume is api.resume
        assert repro.api is api

    def test_subpackages_not_shadowed(self):
        # api.place/api.route must NOT be re-exported at the top level:
        # they would shadow the repro.place / repro.route subpackages.
        import repro.place
        import repro.route

        assert hasattr(repro.place, "Placement")
        assert hasattr(repro.route, "route_infinite")

    def test_core_entry_point_does_not_warn(self):
        from repro.core.flow import optimize_replication
        from tests.core.test_flow import staircase_instance

        nl, placement = staircase_instance()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error", DeprecationWarning)
            optimize_replication(nl, placement, ReplicationConfig(max_iterations=1))
        assert not caught

    def test_run_config_drives_cli_and_bench_identically(self):
        from repro.bench.runner import replication_config
        from repro.core.checkpoint import config_hash

        for algorithm in ("rt", "lex-3", "lex-mc"):
            via_runner = replication_config(algorithm, 0.5)
            via_run_config = RunConfig(
                algorithm=algorithm, effort=0.5
            ).replication_config()
            assert config_hash(via_runner) == config_hash(via_run_config)
