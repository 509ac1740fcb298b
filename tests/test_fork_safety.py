"""Forking after the walk kernel has run must not hang.

The native walk kernel fans each sweep out over threads.  A process pool
forked *after* that must find no thread pool left behind in the parent —
a persistent one (such as libgomp's) deadlocks the forked children the
moment they run the kernel themselves.  The check runs in a fresh
interpreter under a hard timeout, so a regression fails this test instead
of hanging the suite.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="fork-based pools are POSIX-only"
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

HARD_TIMEOUT_S = 60.0

SCRIPT = r"""
import json

from repro.aco import ACOParams, aco_layering
from repro.graph.generators import att_like_dag
from repro.utils.pool import imap_with_state

PARAMS = ACOParams(n_ants=8, n_tours=3, seed=7)
SEEDS = (1, 2, 3, 4)


def layer(seed):
    return aco_layering(att_like_dag(60, seed=seed), PARAMS).to_dict()


def init(payload):
    return payload


def task(state, seed):
    return layer(seed)


parent = [layer(seed) for seed in SEEDS]
workers = list(
    imap_with_state(task, [(seed,) for seed in SEEDS], init_fn=init, max_workers=2)
)
print(json.dumps({"parent": parent, "workers": workers}))
"""


def test_process_pool_after_threaded_kernel_completes():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = REPO_SRC
    env["REPRO_ACO_THREADS"] = "2"
    if "REPRO_ACO_NATIVE_CACHE" in os.environ:
        env["REPRO_ACO_NATIVE_CACHE"] = os.environ["REPRO_ACO_NATIVE_CACHE"]
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=HARD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # Take the hung pool workers down with their parent.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(
            f"process pool forked after the threaded kernel hung for "
            f"{HARD_TIMEOUT_S:.0f}s"
        )
    assert proc.returncode == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert result["workers"] == result["parent"]
