"""Unit tests for the perf harness's command surface.

``scripts/bench_perf.py`` is not a package; load it by path and test
its phase registry and flags without running any timed phases.
"""

import importlib.util
import re
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "bench_perf.py"


def load_harness():
    spec = importlib.util.spec_from_file_location("bench_perf", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def harness():
    return load_harness()


class TestHarness:
    def test_netlist_load_in_phase_registry(self, harness):
        assert "netlist_load" in harness.PHASES

    def test_help_lists_no_router_variant_flags(self, harness, capsys):
        with pytest.raises(SystemExit) as exc:
            harness.main(["--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "--quick" in help_text
        assert not re.search(
            r"--(ab|engine|wmin-engine|kernel|route-search)\b", help_text
        )
