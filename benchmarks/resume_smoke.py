"""CI smoke for the resumable run lifecycle (no thresholds, loud failures).

Drives the real CLI end to end: a tiny ``compare`` with ``--run-dir`` is
interrupted deterministically via the ``REPRO_ENGINE_MAX_CELLS`` cell cap
(the engine's stand-in for kill -9), then re-run with ``--resume``.  The
smoke asserts the journaled cells are *replayed*, not re-executed — straight
off the run summary the CLI prints to stderr — and that the resumed
aggregate tables are byte-identical to an uninterrupted run on every
deterministic metric (``running_time`` is measured wall-clock and is the one
table allowed to differ).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile

CAP = 4  # cells executed before the simulated kill

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


def smoke_one(executor_args: list[str], label: str) -> str:
    """Interrupt → resume → compare for one executor; returns the tables."""
    with tempfile.TemporaryDirectory(prefix="repro-resume-smoke-") as run_dir:
        interrupted = run(
            [*executor_args, "--run-dir", run_dir],
            {"REPRO_ENGINE_MAX_CELLS": str(CAP)},
            expect=2,
        )
        if "interrupted" not in interrupted.stderr:
            sys.stderr.write(interrupted.stderr)
            raise SystemExit(f"{label}: first run was not interrupted by the cell cap")

        resumed = run([*executor_args, "--run-dir", run_dir, "--resume"])
        summary = re.search(
            r"run: (\d+)/(\d+) cells \((\d+) executed, (\d+) replayed", resumed.stderr
        )
        if summary is None:
            sys.stderr.write(resumed.stderr)
            raise SystemExit(f"{label}: resumed run printed no summary line")
        done, total, executed, replayed = map(int, summary.groups())
        if replayed != CAP:
            raise SystemExit(
                f"{label}: expected the {CAP} journaled cells to be replayed, "
                f"got {replayed}"
            )
        if executed != total - CAP:
            raise SystemExit(
                f"{label}: resume re-executed journaled cells: {executed} executed "
                f"of {total} with {CAP} journaled"
            )

        reference = run(executor_args)
        tables = deterministic_tables(reference.stdout)
        if deterministic_tables(resumed.stdout) != tables:
            raise SystemExit(
                f"{label}: resumed aggregate tables diverge from uninterrupted run"
            )
    print(
        f"resume smoke OK ({label}): {done}/{total} cells, {replayed} replayed, "
        f"{executed} executed after interruption at {CAP}; tables identical"
    )
    return tables


def main() -> None:
    serial_tables = smoke_one(["--executor", "serial"], "serial")
    # The batched variant (the default executor) interrupts *mid-pack*: the
    # cap fires after 4 cells while the cross-graph pack computed more — the
    # journal must still hold exactly the yielded cells, resume must replay
    # (not re-execute) them, and the final tables must match the serial
    # executor byte for byte.
    batched_tables = smoke_one([], "batched")
    if batched_tables != serial_tables:
        raise SystemExit("batched executor tables diverge from the serial executor")
    print("resume smoke OK: batched tables byte-identical to serial")


if __name__ == "__main__":
    main()
