"""The package is stdlib-only: importing it pulls in no third-party code."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_imports_without_numpy():
    """A fresh interpreter importing every entry point never loads numpy
    (the check runs in a subprocess so earlier tests cannot mask it)."""
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.campaign, repro.serve\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "False"
