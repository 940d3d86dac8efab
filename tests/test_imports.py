"""Importing the package pulls in no third-party code and no process pools."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_in_fresh_interpreter(imports: str, modules: list[str]) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after
    ``import <imports>`` (a subprocess, so earlier tests cannot mask it)."""
    code = (
        "import sys\n"
        f"import {imports}\n"
        f"print(','.join(m for m in {modules!r} if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return [name for name in out.stdout.strip().split(",") if name]


def test_package_imports_without_numpy():
    """Importing every entry point never loads numpy."""
    assert loaded_in_fresh_interpreter(
        "repro, repro.cli, repro.campaign", ["numpy"]
    ) == []


def test_flow_and_cli_load_no_process_pools():
    """The flow and the CLI run in the caller's process; only campaign
    workers (loaded on use) need multiprocessing."""
    assert loaded_in_fresh_interpreter(
        "repro, repro.cli", ["multiprocessing", "concurrent.futures"]
    ) == []
