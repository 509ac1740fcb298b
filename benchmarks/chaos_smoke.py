"""CI smoke for the hardened execution layer (no thresholds, loud failures).

Drives the real CLI end to end under ``REPRO_CHAOS`` fault injection and
asserts the robustness contract the chaos test matrix checks in-process:

* a transient raise on every AntColony cell is absorbed by ``--retries``
  and the aggregate tables come out byte-identical to a fault-free run
  (on every deterministic metric; ``running_time`` is wall-clock);
* a permanent hang is cut by ``--timeout`` and recorded as a *timeout*
  failure — the run still exits 0 with every other cell intact;
* a SIGKILL'd pool worker is respawned, only its in-flight cell fails,
  and a retry restores the fault-free tables (process executor);
* an interrupted chaotic run (``REPRO_ENGINE_MAX_CELLS``) finishes under
  ``--resume`` with the fault-free tables.

Run from the repository root: ``python benchmarks/chaos_smoke.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

COMPARE = [
    sys.executable,
    "-m",
    "repro",
    "compare",
    "--graphs-per-group",
    "1",
    "--vertex-counts",
    "10",
    "20",
    "--ants",
    "2",
    "--tours",
    "2",
    "--seed",
    "0",
]


def run(extra: list[str], env_extra: dict[str, str] | None = None, expect: int = 0):
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    env.pop("REPRO_CHAOS", None)
    env.update(env_extra or {})
    proc = subprocess.run([*COMPARE, *extra], env=env, capture_output=True, text=True)
    if proc.returncode != expect:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(
            f"expected exit {expect}, got {proc.returncode} for {extra!r}"
        )
    return proc


def deterministic_tables(stdout: str) -> str:
    """Every aggregate table except (running_time), which is wall-clock."""
    keep: list[str] = []
    skip = False
    for line in stdout.splitlines():
        if line.startswith("(running_time)"):
            skip = True
        elif line.startswith("("):
            skip = False
        if not skip:
            keep.append(line)
    return "\n".join(keep)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-") as tmp:
        reference = deterministic_tables(run([]).stdout)

        # 1. Transient raise + retries: tables identical, retry counted.
        chaotic = run(
            ["--executor", "serial", "--retries", "2", "--progress"],
            {"REPRO_CHAOS": "raise:AntColony:*"},
        )
        if deterministic_tables(chaotic.stdout) != reference:
            raise SystemExit("transient-raise tables diverge from fault-free run")
        if "retried" not in chaotic.stderr:
            sys.stderr.write(chaotic.stderr)
            raise SystemExit("run summary did not report the retries")
        print("chaos smoke OK (serial): transient raise absorbed by --retries")

        # 2. Permanent hang + deadline: the hung cell times out, the run
        # completes and labels the loss.
        hung = run(
            ["--executor", "serial", "--timeout", "2", "--progress"],
            {"REPRO_CHAOS": "hang@30@*:AntColony:att-like-n10-*"},
        )
        if "1 of 10 cells failed" not in hung.stdout or "timeout" not in hung.stdout:
            sys.stderr.write(hung.stdout)
            raise SystemExit("permanent hang was not recorded as a timeout failure")
        if "timed out" not in hung.stderr:
            sys.stderr.write(hung.stderr)
            raise SystemExit("run summary did not report the timeout")
        print("chaos smoke OK (serial): permanent hang cut by --timeout")

        # 3. kill -9 in a pool worker: respawn + retry restores the tables.
        if os.name == "posix":
            killed = run(
                ["--executor", "process", "--jobs", "2", "--retries", "1"],
                {"REPRO_CHAOS": "kill9:AntColony:att-like-n10-*"},
            )
            if deterministic_tables(killed.stdout) != reference:
                raise SystemExit("kill9 tables diverge from fault-free run")
            print("chaos smoke OK (process): SIGKILL'd worker respawned, cell retried")

        # 4. Interrupt a chaotic run, then resume it to the reference tables.
        run_dir = os.path.join(tmp, "run")
        run(
            ["--run-dir", run_dir, "--retries", "2"],
            {
                "REPRO_CHAOS": "raise:AntColony:*",
                "REPRO_ENGINE_MAX_CELLS": "4",
            },
            expect=2,
        )
        resumed = run(
            ["--run-dir", run_dir, "--resume", "--retries", "2"],
            {"REPRO_CHAOS": "raise:AntColony:*"},
        )
        if deterministic_tables(resumed.stdout) != reference:
            raise SystemExit("resumed chaotic run diverges from fault-free tables")
        print("chaos smoke OK (resume): interrupted chaotic run finished identically")

    print("chaos smoke OK: all fault modes recovered with fault-free tables")


if __name__ == "__main__":
    main()
