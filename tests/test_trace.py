"""Spans: self time, Chrome trace windows, the registry round trip, overhead."""

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import api
from repro.cli import main as cli_main
from repro.core import flow
from repro.core.config import ReplicationConfig
from repro.core.flow import ReplicationOptimizer
from repro.perf import PERF, trace_span_table

LEGACY_TRACE = Path(__file__).parent / "data" / "legacy_trace.json"


@pytest.fixture(autouse=True)
def _clean_registry():
    PERF.disable()
    PERF.reset()
    yield
    PERF.disable()
    PERF.reset()


def traced(path, body, **metadata):
    """Run ``body`` inside a trace written to ``path``; returns the JSON."""
    with PERF.trace(path, metadata=metadata):
        body()
    return json.loads(Path(path).read_text())


def busy() -> None:
    """A few microseconds of work, so no span has zero duration."""
    sum(range(2000))


def printed_rows(output: str) -> dict[str, list[str]]:
    """``{span: [calls, inclusive_s, self_s]}`` of a printed span table."""
    rows = {}
    for line in output.splitlines()[1:]:
        name, *cells = line.split()
        rows[name] = cells
    return rows


class TestSpans:
    def test_disabled_records_nothing(self):
        with PERF.timer("x") as span:
            assert span is None
        assert PERF.snapshot()["timers"] == {}
        assert PERF.format() == "perf registry: no events recorded"

    def test_complete_event_shape(self, tmp_path):
        def body():
            with PERF.timer("phase", key="value") as span:
                span["extra"] = 1

        (event,) = traced(tmp_path / "t.json", body)["traceEvents"]
        assert event["name"] == "phase"
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["pid"] == os.getpid()
        assert event["args"]["key"] == "value"
        assert event["args"]["extra"] == 1
        assert "cpu_ms" in event["args"]

    def test_spans_nest_lifo(self, tmp_path):
        def body():
            with PERF.timer("outer"):
                with PERF.timer("inner"):
                    pass

        outer, inner = traced(tmp_path / "t.json", body)["traceEvents"]
        assert (outer["name"], inner["name"]) == ("outer", "inner")
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]

    def test_exception_closes_span_with_its_type(self, tmp_path):
        path = tmp_path / "t.json"
        with pytest.raises(RuntimeError):
            with PERF.trace(path):
                with PERF.timer("died-inside"):
                    raise RuntimeError("boom")
        (event,) = json.loads(path.read_text())["traceEvents"]
        assert event["name"] == "died-inside"
        assert event["ph"] == "X"
        assert event["args"]["error"] == "RuntimeError"

    def test_chrome_trace_is_loadable_json(self, tmp_path):
        def body():
            with PERF.timer("a"):
                pass

        loaded = traced(tmp_path / "trace.json", body, circuit="t")
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["otherData"]["circuit"] == "t"
        assert loaded["otherData"]["format"] == "chrome-trace-event"
        assert {e["ph"] for e in loaded["traceEvents"]} == {"X"}

    def test_events_sorted_by_timestamp(self, tmp_path):
        def body():
            with PERF.timer("long"):
                with PERF.timer("short"):
                    pass
            with PERF.timer("after"):
                pass

        trace = traced(tmp_path / "t.json", body)
        stamps = [e["ts"] for e in trace["traceEvents"]]
        assert stamps == sorted(stamps)


class TestSelfTime:
    def test_self_time_is_duration_minus_direct_children(self, tmp_path, capsys):
        """``a`` holds ``b`` (which holds ``d``) and ``c``; ``e`` follows."""
        path = tmp_path / "trace.json"
        PERF.enable()
        with PERF.trace(path):
            with PERF.timer("a"):
                busy()
                with PERF.timer("b"):
                    busy()
                    with PERF.timer("d"):
                        busy()
                with PERF.timer("c"):
                    busy()
            with PERF.timer("e"):
                busy()
        timers = PERF.snapshot()["timers"]
        assert {name: row["calls"] for name, row in timers.items()} == dict.fromkeys(
            "abcde", 1
        )
        inclusive = {name: row["inclusive_s"] for name, row in timers.items()}
        own = {name: row["self_s"] for name, row in timers.items()}
        assert own["a"] == inclusive["a"] - inclusive["b"] - inclusive["c"]
        assert own["b"] == inclusive["b"] - inclusive["d"]
        for leaf in "cde":
            assert own[leaf] == inclusive[leaf]
        assert all(value > 0 for value in own.values())
        assert abs(sum(own.values()) - (inclusive["a"] + inclusive["e"])) < 1e-9

        assert cli_main(["trace-view", str(path)]) == 0
        rows = printed_rows(capsys.readouterr().out)
        for name in "abcde":
            calls, _, self_s = rows[name]
            assert int(calls) == 1
            assert float(self_s) == pytest.approx(own[name], abs=1e-6)
        assert float(rows["total"][-1]) == pytest.approx(sum(own.values()), abs=1e-6)

    def test_trace_view_summarizes_a_legacy_trace(self, capsys):
        """A trace from the tracer that predated self time (its flow run on
        tseng @ 0.03) still summarizes: same calls, and self times that sum
        to the spans no other span contains."""
        trace = json.loads(LEGACY_TRACE.read_text())
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        top_level_us = sum(
            e["dur"]
            for e in events
            if not any(
                f is not e
                and f["ts"] <= e["ts"]
                and f["ts"] + f["dur"] >= e["ts"] + e["dur"]
                for f in events
            )
        )
        assert cli_main(["trace-view", str(LEGACY_TRACE)]) == 0
        rows = printed_rows(capsys.readouterr().out)
        calls = {}
        for event in events:
            calls[event["name"]] = calls.get(event["name"], 0) + 1
        assert {name: int(cells[0]) for name, cells in rows.items()
                if name != "total"} == calls
        assert float(rows["total"][-1]) == pytest.approx(top_level_us / 1e6, abs=1e-6)
        iteration = rows["flow.iteration"]
        assert float(iteration[2]) < float(iteration[1])


class TestPerfLayering:
    def test_perf_timer_emits_span_when_hooked(self, tmp_path):
        def body():
            with PERF.timer("hooked.phase"):
                pass

        trace = traced(tmp_path / "t.json", body)
        assert any(e["name"] == "hooked.phase" for e in trace["traceEvents"])

    def test_trace_hands_back_a_disabled_registry(self, tmp_path):
        PERF.enable()
        PERF.add("kept")
        with PERF.timer("kept.span"):
            pass
        PERF.disable()
        before = PERF.snapshot()

        def body():
            PERF.add("inside")
            with PERF.timer("inside.span"):
                pass

        trace = traced(tmp_path / "t.json", body)
        assert [e["name"] for e in trace["traceEvents"]] == ["inside.span"]
        assert not PERF.enabled
        assert PERF.snapshot() == before
        with PERF.timer("after"):
            pass
        assert "after" not in PERF.snapshot()["timers"]

    def test_trace_keeps_the_spans_of_an_enabled_registry(self, tmp_path):
        """``--perf`` with ``--trace``: the trace holds its own window, and
        the registry keeps everything."""
        PERF.enable()
        with PERF.timer("before"):
            pass

        def body():
            PERF.add("inside")
            with PERF.timer("inside"):
                pass

        trace = traced(tmp_path / "t.json", body)
        assert [e["name"] for e in trace["traceEvents"]] == ["inside"]
        assert PERF.enabled
        snapshot = PERF.snapshot()
        assert set(snapshot["timers"]) == {"before", "inside"}
        assert snapshot["counters"] == {"inside": 1}

    def test_tracer_does_not_require_perf_enabled(self, tmp_path):
        assert not PERF.enabled

        def body():
            with PERF.timer("no.perf"):
                pass

        trace = traced(tmp_path / "t.json", body)
        assert any(e["name"] == "no.perf" for e in trace["traceEvents"])
        assert PERF.snapshot()["timers"] == {}

    def test_disabled_overhead_under_two_percent(self):
        """The acceptance bound: a disabled span site must cost no more
        than a bare context manager on a hot loop."""

        @contextmanager
        def bare(name):
            yield

        def hot(cm, n):
            start = time.perf_counter()
            for _ in range(n):
                with cm("overhead.probe"):
                    pass
            return time.perf_counter() - start

        n = 20_000
        assert not PERF.enabled
        hot(PERF.timer, n)  # warm-up
        # Alternate the arms so a burst of load on the host hits both.
        base, off = [], []
        for _ in range(5):
            base.append(hot(bare, n))
            off.append(hot(PERF.timer, n))
        # Generous slack over the 2% budget: this only catches gross
        # regressions (e.g. an unconditional clock read sneaking into
        # the disabled path).
        assert min(off) < min(base) * 1.5


class TestFlowTracing:
    def test_flow_emits_iteration_spans(self, tmp_path):
        from tests.core.test_flow import staircase_instance

        nl, placement = staircase_instance()
        path = tmp_path / "trace.json"
        with PERF.trace(path):
            result = ReplicationOptimizer(
                nl, placement, ReplicationConfig(max_iterations=3)
            ).run()
        loaded = json.loads(path.read_text())
        iteration_spans = [
            e for e in loaded["traceEvents"]
            if e["name"] == "flow.iteration" and e["ph"] == "X"
        ]
        assert len(iteration_spans) == len(result.history)
        for span, record in zip(iteration_spans, result.history):
            args = span["args"]
            assert args["iteration"] == record.iteration
            assert args["sink"] == list(record.sink)
            assert args["delay_after"] == record.delay_after
            assert {"note", "delay_before", "replicated", "unified",
                    "cpu_ms"} <= set(args)

    def test_summarize_trace_aggregates(self, tmp_path):
        def body():
            with PERF.timer("agg.a"):
                with PERF.timer("agg.b"):
                    pass
            with PERF.timer("agg.a"):
                pass

        table = trace_span_table(traced(tmp_path / "t.json", body))
        assert table["agg.a"]["calls"] == 2
        assert table["agg.b"]["calls"] == 1
        assert table["agg.a"]["self_s"] == pytest.approx(
            table["agg.a"]["inclusive_s"] - table["agg.b"]["inclusive_s"]
        )

    def test_exception_in_an_iteration_closes_its_span(self, tmp_path, monkeypatch):
        """A flow that raises inside an iteration leaves a closed
        ``flow.iteration`` event naming the exception in the trace that
        ``api.optimize`` writes."""

        def broken(*args, **kwargs):
            raise RuntimeError("apply failed")

        monkeypatch.setattr(flow, "apply_embedding", broken)
        design = api.load_design(circuit="tseng", scale=0.03)
        placed = api.place(design, seed=1, effort=0.1)
        path = tmp_path / "trace.json"
        with pytest.raises(RuntimeError, match="apply failed"):
            api.optimize(design, placed.placement, trace=path)
        events = json.loads(path.read_text())["traceEvents"]
        assert {e["ph"] for e in events} == {"X"}
        failed = [e for e in events if "error" in e["args"]]
        assert {e["name"] for e in failed} == {
            "flow.iteration", "flow.apply"
        }
        assert {e["args"]["error"] for e in failed} == {"RuntimeError"}
        assert not PERF.enabled
