"""Importing the package must not import its optional heavy dependencies.

SciPy (the exact minimum-dummy LP) and networkx (the graph converters) are
imported where they are used.  Every CLI run, ``serve`` start and benchmark
child pays the package's import time, and those two modules were most of it.
The check runs in a fresh interpreter, because the pytest process itself
has long since imported both.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

SCRIPT = """
import sys

import repro
import repro.cli
import repro.serving.server

print(sorted(name for name in ("scipy", "networkx") if name in sys.modules))
"""


def test_package_import_skips_scipy_and_networkx():
    env = {**os.environ, "PYTHONPATH": REPO_SRC}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
