"""Tests of the benchmark's own arithmetic, checks and seed plumbing.

Run from the repository root: ``python3 -m pytest e2ebench``.
"""

from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import pytest

import run
import spans
import workloads
from repro.netlist.simulate import check_equivalence
from repro.route import metrics as route_metrics


def _outcome(label, **fields):
    base = dict(
        label=label, cells=10, min_width=3, w_inf=20.0, w_ls=20.0,
        wirelength=100, place_route_s=1.0, moves_accepted=5,
    )
    base.update(fields)
    return workloads.Outcome(**base)


# -- aggregation -------------------------------------------------------


def test_quality_metrics_geomeans_ratios_and_sums_baselines():
    outs = [
        _outcome("a", w_inf=20.0, min_width=3, replicated=True, rep_w_inf=18.0,
                 wirelength=100, rep_wirelength=110, cells=10, rep_cells=12),
        _outcome("b", w_inf=30.0, min_width=5, replicated=True, rep_w_inf=24.0,
                 wirelength=200, rep_wirelength=200, cells=20, rep_cells=20),
    ]
    got = workloads.quality_metrics(outs)
    assert got["w_inf_norm"] == pytest.approx(math.sqrt(0.9 * 0.8))
    assert got["wirelength_norm"] == pytest.approx(math.sqrt(1.1))
    assert got["blocks_norm"] == pytest.approx(math.sqrt(1.2))
    assert got["w_inf_ns"] == pytest.approx(50.0)
    assert got["min_width"] == 8


def test_quality_metrics_without_replication_are_exactly_one():
    got = workloads.quality_metrics([_outcome("a"), _outcome("b", w_inf=7.5)])
    assert (got["w_inf_norm"], got["wirelength_norm"], got["blocks_norm"]) == (1.0, 1.0, 1.0)
    assert got["w_inf_ns"] == 27.5


# -- spans -------------------------------------------------------------


class _Layered:
    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        return 1


def test_self_time_subtracts_direct_children_only():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: next(ticks))
    seen = []
    original = _Layered.outer
    recorder.install(_Layered, "outer", "outer")
    recorder.install(_Layered, "inner", "inner", on_result=seen.append)
    try:
        assert _Layered().outer() == 2
    finally:
        recorder.uninstall()
    assert _Layered.outer is original
    # outer [0, 5] holds inner [1, 2] and inner [3, 4].
    assert [(s.name, s.start, s.end, s.parent) for s in recorder.spans] == [
        ("outer", 0, 5, -1), ("inner", 1, 2, 0), ("inner", 3, 4, 0),
    ]
    assert spans.self_times(recorder.spans) == [3, 1, 1]
    table = spans.layer_table(recorder.spans)
    assert table["inner"] == {"calls": 2, "inclusive_s": 2, "self_s": 2}
    assert table["outer"]["self_s"] == 3
    assert spans.top_level_seconds(recorder.spans) == 5
    assert seen == [1, 1]


def test_span_closes_when_the_wrapped_call_raises():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: next(ticks))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("boom", boom)()
    assert (recorder.spans[0].start, recorder.spans[0].end) == (0, 1)
    assert recorder._stack == []


# -- failures and failed_share ----------------------------------------


def _fake_wl(raise_on=()):
    def run_design(design, workload):
        if design.label in raise_on:
            raise RuntimeError("no route")
        return _outcome(design.label)

    return SimpleNamespace(
        CHECKS=(), run_design=run_design, failed_checks=workloads.failed_checks
    )


def test_injected_failing_check_marks_only_that_circuit():
    designs = [SimpleNamespace(label=label) for label in ("a", "b", "c")]
    checks = (
        ("fine", lambda design, out: True),
        ("injected", lambda design, out: design.label != "b"),
    )
    done = run.run_pass(_fake_wl(), SimpleNamespace(algorithm=None), designs, checks=checks)
    assert done.failures == [("b", ["injected"])]
    assert len(done.outcomes) == 3
    assert run.failed_share(done, len(designs)) == pytest.approx(1 / 3)


def test_wall_ref_s_scales_each_circuit_by_the_probes_around_it(monkeypatch):
    # Circuit a runs from 0 s to 2 s, circuit b from 2 s to 5 s.
    clock = iter([0.0, 2.0, 2.0, 5.0])
    monkeypatch.setattr(
        run, "time", SimpleNamespace(perf_counter=lambda: next(clock), process_time=lambda: 0.0)
    )
    probes = iter([0.04, 0.08, 0.16])
    monkeypatch.setattr(run, "host_probe_s", lambda: next(probes))
    designs = [SimpleNamespace(label=label) for label in ("a", "b")]
    done = run.run_pass(_fake_wl(), SimpleNamespace(algorithm=None), designs, checks=())
    assert done.wall_s == 5.0
    assert done.probes_s == [0.04, 0.08, 0.16]
    # a ran between probes of 0.04 s and 0.08 s, b between 0.08 s and 0.16 s.
    assert done.wall_ref_s == pytest.approx(
        2.0 * run.REF_PROBE_S / 0.06 + 3.0 * run.REF_PROBE_S / 0.12
    )


def test_crashing_pipeline_and_crashing_check_are_named_failures():
    designs = [SimpleNamespace(label=label) for label in ("a", "b")]

    def crashing_check(design, out):
        raise KeyError("pin")

    done = run.run_pass(
        _fake_wl(raise_on={"a"}), SimpleNamespace(algorithm=None), designs,
        checks=(("sim", crashing_check),),
    )
    assert done.failures[0] == ("a", ["pipeline (RuntimeError: no route)"])
    assert done.failures[1][0] == "b"
    assert done.failures[1][1][0].startswith("sim (KeyError")
    assert run.failed_share(done, len(designs)) == 1.0


def test_real_circuit_passes_every_check_and_an_injected_one_fails(tmp_path):
    workload = dataclasses.replace(
        workloads.WORKLOADS["rt-flow"], circuits=("seq",), scale=0.03, draws=1
    )
    designs, _times = workloads.build_designs(workload, seed=1, store_dir=tmp_path)
    out = workloads.run_design(designs[0], workload)
    assert workloads.failed_checks(designs[0], out) == []
    injected = workloads.CHECKS + (("injected", lambda design, out: False),)
    assert workloads.failed_checks(designs[0], out, injected) == ["injected"]
    # The flow shortened this draw, so handing the baseline back as the
    # replicated design must fail the delay check, which re-times both.
    assert out.final_delay < out.initial_delay
    baseline, replicated = out.placed
    swapped = dataclasses.replace(out, placed=[replicated, baseline])
    assert not workloads.check_delay(designs[0], swapped)
    assert "delay" in workloads.failed_checks(designs[0], swapped)


def _run_one(name, scale, seed, draw):
    workload = dataclasses.replace(
        workloads.WORKLOADS["rt-flow"], circuits=(name,), scale=scale, draws=draw + 1
    )
    designs, _times = workloads.build_designs(workload, seed)
    return designs[draw], workloads.run_design(designs[draw], workload)


# The two failures the workloads steer clear of (README.md, "Known
# failures").  Strict: once the program is fixed these start passing,
# and the circuits they hit can go back into the workloads.


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the flow hands back an overfull slot on a full array",
)
def test_flow_keeps_the_placement_legal_on_a_full_min_square_array():
    # 36 logic blocks on a 6x6 array: no free slot for a replica.
    design, out = _run_one("tseng", 0.04, seed=1, draw=0)
    assert workloads.check_placement(design, out)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the replicated design needs one more track",
)
def test_replicated_design_routes_at_the_baseline_low_stress_width():
    # W_min 4, so the baseline's low-stress width leaves one spare track.
    design, out = _run_one("apex4", 0.06, seed=1947011279, draw=1)
    _what, netlist, placement = out.placed[1]
    routing = route_metrics.route_low_stress(netlist, placement, min_width=out.min_width)
    assert routing.success and routing.remaining_overuse == 0


def test_every_named_layer_metric_is_declared_in_benchmark_json():
    declared = run.metric_units("per_layer")
    assert set(run.SELF_TIMES) | set(run.PERF_COUNTERS) <= set(declared)
    assert "setup_s" in run.metric_units("end_to_end")


# -- seed plumbing -----------------------------------------------------


def _netlist_shape(netlist):
    return sorted(
        (cell.name, cell.truth_table, tuple(netlist.fanin_cells(cell_id)))
        for cell_id, cell in netlist.cells.items()
    )


def test_seed_redraws_every_circuit_and_repeats_exactly(tmp_path):
    workload = dataclasses.replace(
        workloads.WORKLOADS["rt-flow"], circuits=("tseng", "apex4"), scale=0.02, draws=2
    )
    first, _ = workloads.build_designs(workload, seed=3)
    again, _ = workloads.build_designs(workload, seed=3)
    other, _ = workloads.build_designs(workload, seed=4)
    assert [d.seed for d in first] == [3000, 3000, 3001, 3001]
    assert [d.label for d in first] == ["tseng#0", "apex4#0", "tseng#1", "apex4#1"]
    for a, b, c in zip(first, again, other):
        assert a.spec().seed == a.seed
        assert _netlist_shape(a.netlist) == _netlist_shape(b.netlist)
        assert _netlist_shape(a.netlist) != _netlist_shape(c.netlist)
    assert _netlist_shape(first[0].netlist) != _netlist_shape(first[2].netlist)


def test_store_workload_loads_what_the_seed_generates(tmp_path):
    workload = dataclasses.replace(
        workloads.WORKLOADS["table1-store"], circuits=("frisc",), scale=0.02, draws=2
    )
    designs, times = workloads.build_designs(workload, seed=9, store_dir=tmp_path)
    assert (tmp_path / "netlists.sqlite").is_file()
    assert times.store_build_s >= times.generate_s > 0 and times.load_s > 0
    for design in designs:
        assert type(design.netlist).__name__ == "ArrayNetlist"
        assert check_equivalence(design.reference(), design.netlist)
    assert _netlist_shape(designs[0].netlist) != _netlist_shape(designs[1].netlist)


def test_guard_records_the_first_run_and_flags_different_work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE_DIR", tmp_path)
    workload = workloads.WORKLOADS["rt-flow"]
    assert run.guard(workloads, workload, 5, [["tseng#0", 3]])[0]
    assert run.guard(workloads, workload, 5, [["tseng#0", 3]])[0]
    assert not run.guard(workloads, workload, 5, [["tseng#0", 4]])[0]
    assert run.guard(workloads, workload, 6, [["tseng#0", 4]])[0]
