"""CI smoke for the resource governor (no thresholds, loud failures).

Drives the real CLI end to end under ``REPRO_CHAOS`` resource faults and
asserts the governance contract the chaos test matrix checks in-process:

* an injected allocation blow-up is recorded as an *oom* failure — never a
  generic crash — and the run completes with every other cell intact;
* under an armed ``--memory-budget`` the same blow-up dies inside the
  worker's ``RLIMIT_AS`` cap and the pool still labels the death *oom*
  (process executor, POSIX only);
* a full disk (``ENOSPC`` on every cache write) degrades the result cache
  to memory-only with a single governor note and byte-identical tables;
* a tiny ``--memory-budget`` splits planned packs on the batched executor
  — noted once on stderr, tables byte-identical to the unbudgeted run;
* a crash storm (every cell kills its worker) trips the respawn breaker
  and collapses the pool to in-parent serial execution instead of
  respawning forever — the run still exits 0.

Run from the repository root: ``python benchmarks/resource_smoke.py``.
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
    with tempfile.TemporaryDirectory(prefix="repro-resource-smoke-") as tmp:
        reference = deterministic_tables(run([]).stdout)

        # 1. An in-process allocation blow-up is labelled oom, not crash,
        # and poisons only its own cell.
        oomed = run(
            [],
            {"REPRO_CHAOS": "oom@8388608@*:AntColony:att-like-n10-*"},
        )
        if "1 of 10 cells failed" not in oomed.stdout or "1 oom" not in oomed.stdout:
            sys.stderr.write(oomed.stdout)
            raise SystemExit("injected oom was not isolated and labelled 'oom'")
        print("resource smoke OK (serial): oom labelled and isolated")

        # 2. The same blow-up sized against an armed RLIMIT_AS cap: the
        # worker dies inside the kernel's limit and the pool labels the
        # death oom (an unarmed budget would have called it a crash).
        if os.name == "posix":
            capped = run(
                ["--executor", "process", "--jobs", "2", "--memory-budget", "64M"],
                {
                        "REPRO_CHAOS": "oom@2147483648@*:AntColony:att-like-n10-*",
                },
            )
            if (
                "1 of 10 cells failed" not in capped.stdout
                or "1 oom" not in capped.stdout
            ):
                sys.stderr.write(capped.stdout + capped.stderr)
                raise SystemExit("worker death under --memory-budget not labelled oom")
            print("resource smoke OK (process): RLIMIT_AS death labelled oom")

        # 3. ENOSPC on every cache write: the cache degrades to memory-only
        # with one governor note and the tables do not change.
        cache_dir = os.path.join(tmp, "cache")
        full_disk = run(
            ["--cache-dir", cache_dir],
            {"REPRO_CHAOS": "enospc@*:AntColony:*"},
        )
        if deterministic_tables(full_disk.stdout) != reference:
            raise SystemExit("enospc-degraded tables diverge from fault-free run")
        if "memory-only result cache" not in full_disk.stderr:
            sys.stderr.write(full_disk.stderr)
            raise SystemExit("cache did not report degradation to memory-only")
        print("resource smoke OK (enospc): cache degraded to memory-only, tables identical")

        # 4. A budget between one graph's estimate and the pack's forces
        # the batched planner to split — noted once, results unchanged.
        split = run(
            ["--executor", "batched", "--jobs", "2", "--memory-budget", "8K"]
        )
        if deterministic_tables(split.stdout) != reference:
            raise SystemExit("budget-split tables diverge from the unbudgeted run")
        if "splits planned packs" not in split.stderr:
            sys.stderr.write(split.stderr)
            raise SystemExit("pack splitting was not announced on stderr")
        print("resource smoke OK (batched): memory budget split packs, tables identical")

        # 5. Crash storm: every cell SIGKILLs its worker; the respawn
        # breaker must collapse the pool to in-parent serial execution
        # instead of respawning forever.
        if os.name == "posix":
            storm = run(
                ["--executor", "process", "--jobs", "2"],
                {"REPRO_CHAOS": "kill9@*:*"},
            )
            if "in-parent serial execution" not in storm.stderr:
                sys.stderr.write(storm.stderr)
                raise SystemExit("crash storm did not trip the respawn breaker")
            print("resource smoke OK (storm): respawn breaker collapsed pool to serial")

    print("resource smoke OK: budgets, breakers and disk-full degradation hold")


if __name__ == "__main__":
    main()
