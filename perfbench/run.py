"""The repo benchmark: run one workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload paper_corpus --seed 20070326 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout.  Every workload runs the program from
``src/`` in child processes (this file imports only the standard library)
and checks its outputs; the human-readable table goes to standard output,
a record of the run to ``.bench_build/perfbench/records/``, and the last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics, with ``trace.overhead_s`` (traced minus untraced run time).  The
exit status is 0 only when every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

from common import (
    BUILD_DIR,
    DEFAULT_SEED,
    HELD_OUT_SEED,
    SEED_REFUSED,
    WORKLOADS,
    emit,
    last_json_line,
    median,
    percentile,
)

#: Wall-clock budget of one workload run, set-up included.
TIME_LIMIT_S = 170.0
#: Fewest offline trials per run (each one also times a set-up).
TRIALS = 3

HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    """The program or its outputs failed a check; the run is not correct."""


def refuse(message: str, code: int = 2) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(code)


class Run:
    """One workload run: its child processes, checks and metrics."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.build = os.path.join(root, BUILD_DIR)
        self.dir = os.path.join(self.build, "runs", f"{workload}-{seed}-{os.getpid()}")
        self.errors: list[str] = []
        self.deadline = 0.0
        self.digest: str | None = None
        self.record_extra: dict = {}
        self.record_path = ""
        shutil.rmtree(self.dir, ignore_errors=True)
        for sub in ("tmp", "shm"):
            os.makedirs(os.path.join(self.dir, sub))
        # The program as shipped: no REPRO_* tuning from the caller's
        # environment, only where its caches and scratch files go.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env.update(
            PYTHONPATH=os.path.join(root, "src"),
            REPRO_ACO_NATIVE_CACHE=os.path.join(self.build, "native"),
            REPRO_SHM_MANIFEST_DIR=os.path.join(self.dir, "shm"),
            TMPDIR=os.path.join(self.dir, "tmp"),
        )

    def child(self, script: str, *args: str) -> dict:
        """Run one child in its own session; check it left nothing behind."""
        timeout = self.deadline - time.monotonic()
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args, "--spawned-at", repr(spawned)],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise CheckFailed(f"{script} exceeded its {timeout:.0f}s budget") from None
        finally:
            self._reap(proc.pid)
        if proc.returncode == SEED_REFUSED:
            refuse(f"seed {self.seed} refused (see above)", SEED_REFUSED)
        if proc.returncode != 0:
            raise CheckFailed(f"{script} exited with status {proc.returncode}")
        result = last_json_line(out)
        self.errors.extend(result.get("errors", []))
        return result

    def _reap(self, pgid: int) -> None:
        """Fail on processes or shared-memory blocks the program left behind."""
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            pass
        else:
            os.killpg(pgid, signal.SIGKILL)
            self.errors.append("the program left child processes running (killed)")
        manifests = os.path.join(self.dir, "shm")
        for name in sorted(os.listdir(manifests)):
            with open(os.path.join(manifests, name), encoding="utf-8") as fh:
                blocks = json.load(fh).get("blocks", [])
            if blocks:
                self.errors.append(f"the program left shared-memory blocks registered: {blocks}")
            os.unlink(os.path.join(manifests, name))

    def warm_native(self) -> None:
        """Compile (or find cached) the native kernel outside every timing."""
        code = (
            "import sys; from repro.aco import _native; "
            "sys.exit(0 if _native.load_native() else 1)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=self.root, env=self.env, timeout=600
        )
        if done.returncode != 0:
            raise CheckFailed("the native walk kernel did not build or load")

    # -- workloads -------------------------------------------------------- #

    def offline(self) -> tuple[dict, int, int]:
        base = ["--workload", self.workload, "--seed", str(self.seed), "--run-dir", self.dir]
        trials: list[dict] = []
        if self.trace:
            untraced = self.child("offline.py", *base, "--verify")
            traced = self.child("offline.py", *base, "--trace-out", self.trace_path())
            trials = [untraced, traced]
            metrics = dict(traced["per_layer"])
            metrics["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
        else:
            trial_s = 0.0
            # At least TRIALS trials, then more until --seconds are measured,
            # while one more fits the budget.
            while len(trials) < TRIALS or (
                sum(t["run_s"] for t in trials) < self.seconds
                and self.deadline - time.monotonic() > 2 * trial_s
            ):
                started = time.monotonic()
                verify = [] if trials else ["--verify"]
                trials.append(self.child("offline.py", *base, *verify))
                trial_s = time.monotonic() - started
            # Other tenants of the machine only ever slow a trial down, for
            # seconds to tens of seconds at a time, so the fastest trial, and
            # each cell's fastest time, estimate the program's own cost best
            # (medians of three left a quarter of the runs slow).
            fastest = min(trials, key=lambda t: t["run_s"])
            cell_ms = [min(times) for times in zip(*(t["aco_cell_ms"] for t in trials))]
            metrics = {
                "setup_s": median(t["setup_s"] for t in trials),
                "run_s": fastest["run_s"],
                "peak_rss_mb": median(t["peak_rss_mb"] for t in trials),
                "aco_objective_mean": fastest["aco_objective_mean"],
                "p50_ms": percentile(cell_ms, 50),
                "p99_ms": percentile(cell_ms, 99),
                "max_rps": fastest["cells"] / fastest["run_s"],
            }
        self.check_digests([t["digest"] for t in trials])
        for trial in trials:
            del trial["aco_cell_ms"]  # per-cell times stay out of the record
        self.record_extra = {"trials": trials, "env": trials[0]["env"]}
        return metrics, sum(t["cells"] for t in trials), sum(t["failed"] for t in trials)

    def serve_mixed(self) -> tuple[dict, int, int]:
        args = ["--seed", str(self.seed), "--run-dir", self.dir, "--seconds", str(self.seconds)]
        if self.trace:
            args += ["--trace-out", self.trace_path()]
        result = self.child("serve_mixed.py", *args)
        self.check_digests([result["digest"]])
        self.record_extra = {"trials": [result], "env": result["env"]}
        # execute() picks the metrics BENCHMARK.json names out of the result.
        metrics = result["per_layer"] if self.trace else result
        return metrics, result["requests"], result["failed"]

    def trace_path(self) -> str:
        os.makedirs(os.path.join(self.build, "traces"), exist_ok=True)
        return os.path.join(self.build, "traces", f"{self.workload}-seed{self.seed}.jsonl")

    def check_digests(self, digests: list[str]) -> None:
        """Outputs must not change between trials, nor from a pinned digest."""
        if len(set(digests)) != 1:
            self.errors.append(f"output digests differ between trials: {digests}")
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            pinned = json.load(fh).get(self.workload, {}).get(str(self.seed))
        if pinned is not None and digests[0] != pinned:
            self.errors.append(f"output digest {digests[0]} differs from the pinned {pinned}")
        self.digest = digests[0]

    def execute(self, spec: dict) -> dict:
        try:
            self.warm_native()
            # The first run in a checkout compiles the kernel; the budget of
            # the measured part starts after it.
            self.deadline = time.monotonic() + TIME_LIMIT_S
            runner = self.serve_mixed if self.workload == "serve_mixed" else self.offline
            metrics, attempted, failed = runner()
        except CheckFailed as exc:
            self.errors.append(str(exc))
            metrics, attempted, failed = {}, 1, 1
        names = spec["per_layer"] if self.trace else spec["end_to_end"]
        missing = [name for name in names if name not in metrics]
        if missing and not self.errors:
            self.errors.append(f"metrics not measured: {missing}")
        result = {
            "correct": not self.errors,
            "attempted": max(int(attempted), 1),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in names.items()
                if name in metrics
            },
        }
        self.write_record(result)
        if not self.errors:
            shutil.rmtree(self.dir, ignore_errors=True)
        return result

    def write_record(self, result: dict) -> None:
        records = os.path.join(self.build, "records")
        os.makedirs(records, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        name = f"{self.workload}-seed{self.seed}-trace{int(self.trace)}-{stamp}.json"
        path = os.path.join(records, name)
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "digest": self.digest,
            "errors": self.errors,
            **result,
            **self.record_extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True, default=str)
        self.record_path = path


def print_table(workload: str, result: dict, errors: list[str]) -> None:
    print(f"== {workload}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':32s} {ratio:14.6g} 1  ({result['failed']} of {result['attempted']})")
    for error in errors:
        print(f"  ! {error}")
    print(f"  output checks: {'passed' if result['correct'] else 'FAILED'}")


def load_spec(root: str) -> tuple[dict, int]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {
        key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")
    }
    return units, int(spec["run_seconds"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default: the paper's corpus seed; {HELD_OUT_SEED} is held out)",
    )
    parser.add_argument(
        "--seconds", type=float, help="measuring time per run (default: run_seconds)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        refuse("run from the root of a checkout: src/repro (the program) is missing")
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        refuse("BENCHMARK.json is missing from the checkout root")
    spec, run_seconds = load_spec(root)
    seconds = args.seconds if args.seconds is not None else run_seconds
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    results = {}
    for workload in workloads:
        run = Run(root, workload, args.seed, seconds, bool(args.trace))
        results[workload] = run.execute(spec)
        print_table(workload, results[workload], run.errors)
        print(f"  record: {os.path.relpath(run.record_path, root)}", flush=True)
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, result in results.items()
                for name, metric in result["metrics"].items()
            },
        }
    emit(final)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
