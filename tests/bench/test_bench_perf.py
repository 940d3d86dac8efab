"""Unit tests for the perf harness and its regression gate.

``scripts/bench_perf.py`` and ``scripts/check_perf_regression.py`` are
not a package; load them by path and test the harness's phase registry
and flags without running any timed phases, and the gate on synthetic
reports.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def harness():
    return load_script("bench_perf")


@pytest.fixture(scope="module")
def gate():
    return load_script("check_perf_regression")


class TestHarness:
    def test_netlist_load_in_phase_registry(self, harness):
        assert "netlist_load" in harness.PHASES

    def test_place_in_phase_registry(self, harness):
        assert "place" in harness.PHASES
        assert callable(harness.phase_place)

    def test_help_lists_no_router_variant_flags(self, harness, capsys):
        with pytest.raises(SystemExit) as exc:
            harness.main(["--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "--quick" in help_text
        assert not re.search(
            r"--(ab|engine|wmin-engine|kernel|route-search)\b", help_text
        )


def report(quick: bool, phases: dict, wmin_timers: dict) -> dict:
    """A bench_perf report: ``wmin_timers`` maps span -> inclusive seconds."""
    return {
        "meta": {"quick": quick},
        "phases": phases,
        "phase_perf": {
            "wmin": {
                "counters": {},
                "timers": {
                    name: {"calls": 1, "inclusive_s": seconds, "self_s": seconds}
                    for name, seconds in wmin_timers.items()
                },
            }
        },
    }


def committed(phases: dict, wmin_timers: dict) -> dict:
    """A committed full-size baseline carrying quick columns."""
    full = report(False, {}, {})
    quick = report(True, phases, wmin_timers)
    full["quick_phases"] = quick["phases"]
    full["quick_phase_perf"] = quick["phase_perf"]
    return full


class TestRegressionGate:
    SPANS = {"route.negotiate": 1.0, "route.wmin": 1.0}

    def run_gate(self, gate, tmp_path, current, baseline, *flags):
        cur, base = tmp_path / "current.json", tmp_path / "baseline.json"
        cur.write_text(json.dumps(current))
        base.write_text(json.dumps(baseline))
        return gate.main([str(cur), "--baseline", str(base),
                          "--threshold", "0.30", *flags])

    @pytest.mark.parametrize("ratio, code", [(1.31, 1), (1.29, 0)])
    def test_phase_threshold(self, gate, tmp_path, ratio, code):
        current = report(True, {"wmin": ratio, "place": 1.0}, self.SPANS)
        baseline = committed({"wmin": 1.0, "place": 1.0}, self.SPANS)
        assert self.run_gate(gate, tmp_path, current, baseline) == code

    @pytest.mark.parametrize("ratio, code", [(1.31, 1), (1.29, 0)])
    def test_wmin_phase_span_threshold(self, gate, tmp_path, capsys, ratio, code):
        current = report(True, {"wmin": 1.0},
                         {"route.negotiate": ratio, "route.wmin": 1.0})
        baseline = committed({"wmin": 1.0}, self.SPANS)
        assert self.run_gate(gate, tmp_path, current, baseline) == code
        assert "timer route.negotiate [wmin]" in capsys.readouterr().out

    def test_same_shape_runs_compare_the_full_columns(self, gate, tmp_path):
        current = report(False, {"wmin": 1.0}, {"route.wmin": 1.31})
        baseline = report(False, {"wmin": 1.0}, {"route.wmin": 1.0})
        assert self.run_gate(gate, tmp_path, current, baseline) == 1

    def test_below_min_seconds_is_not_gated(self, gate, tmp_path, capsys):
        current = report(True, {"sta_full": 0.004}, {"route.wmin": 0.004})
        baseline = committed({"sta_full": 0.001}, {"route.wmin": 0.001})
        assert self.run_gate(gate, tmp_path, current, baseline,
                             "--min-seconds", "0.005") == 0
        assert capsys.readouterr().out.count("below --min-seconds") == 2

    @pytest.mark.parametrize("current_quick, baseline", [
        (False, report(True, {"wmin": 1.0}, {})),
        (True, report(False, {"wmin": 1.0}, {})),
    ], ids=["full-vs-quick", "quick-without-quick-columns"])
    def test_no_comparable_column_skips(self, gate, tmp_path, capsys,
                                        current_quick, baseline):
        current = report(current_quick, {"wmin": 10.0}, {"route.wmin": 10.0})
        assert self.run_gate(gate, tmp_path, current, baseline) == 0
        assert "skipping gate" in capsys.readouterr().out
