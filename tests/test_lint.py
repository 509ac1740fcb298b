"""Fixture-driven tests for ``repro-dag lint`` (the RPL rule set).

Each rule gets at least one seeded true positive and one clean negative,
plus coverage for suppression comments, baseline semantics, the CLI exit
codes, and a meta-test asserting the shipped tree lints clean under the
checked-in baseline.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    ALL_RULES,
    Baseline,
    collect_files,
    parse_module,
    run_lint,
    write_baseline,
)
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path: Path, source: str, name: str = "mod.py", paths=None):
    """Write *source* into tmp_path and lint it; returns the report."""
    (tmp_path / name).write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint(paths or [name], root=tmp_path)


def codes(report) -> list[str]:
    return [finding.code for finding in report.findings]


# ---------------------------------------------------------------------------
# RPL001 — determinism
# ---------------------------------------------------------------------------


class TestDeterminismRule:
    def test_unseeded_default_rng_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import numpy as np

            def draw():
                return np.random.default_rng().integers(10)
            """,
        )
        assert codes(report) == ["RPL001"]
        assert "unseeded" in report.findings[0].message

    def test_seeded_default_rng_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import numpy as np

            def draw(seed):
                return np.random.default_rng(seed).integers(10)
            """,
        )
        assert report.ok

    def test_global_random_calls_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import random

            def jitter(values):
                random.shuffle(values)
                return random.random()
            """,
        )
        assert codes(report) == ["RPL001", "RPL001"]

    def test_instance_random_method_clean(self, tmp_path):
        # rng.random() is a Generator method, not the global-state module.
        report = lint_source(
            tmp_path,
            """
            import numpy as np

            def jitter(rng: np.random.Generator):
                return rng.random()
            """,
        )
        assert report.ok

    def test_legacy_numpy_global_rng_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """,
        )
        assert codes(report) == ["RPL001"]

    def test_set_iteration_flagged_sorted_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            def bad(edges):
                return [e for e in set(edges)]

            def good(edges):
                return [e for e in sorted(set(edges))]

            def membership_ok(mode):
                return mode in {"a", "b"}
            """,
        )
        assert codes(report) == ["RPL001"]
        assert report.findings[0].line == 3  # the comprehension in bad()

    def test_clock_in_digest_function_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import hashlib
            import time

            def cache_key(payload):
                stamp = time.time()
                return hashlib.sha256(f"{payload}:{stamp}".encode()).hexdigest()
            """,
        )
        assert codes(report) == ["RPL001"]
        assert "wall-clock" in report.findings[0].message

    def test_clock_outside_digest_function_clean(self, tmp_path):
        # Clocks are fine for display/timestamps; only digest material is off-limits.
        report = lint_source(
            tmp_path,
            """
            import time

            def elapsed(start):
                return time.time() - start
            """,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# RPL002 — signal safety
# ---------------------------------------------------------------------------


class TestSignalSafetyRule:
    def test_print_reachable_from_handler_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import signal

            def _report():
                print("deadline hit")

            def _on_alarm(signum, frame):
                _report()
                raise TimeoutError

            signal.signal(signal.SIGALRM, _on_alarm)
            """,
        )
        assert codes(report) == ["RPL002"]
        assert "_report" in report.findings[0].message
        assert "_on_alarm" in report.findings[0].message

    def test_lock_and_logging_in_handler_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import logging
            import signal

            logger = logging.getLogger(__name__)

            def _on_alarm(signum, frame):
                logger.warning("alarm")
                with _state_lock:
                    pass

            signal.signal(signal.SIGALRM, _on_alarm)
            """,
        )
        assert sorted(codes(report)) == ["RPL002", "RPL002"]

    def test_safe_handler_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import signal
            import time

            def _on_alarm(signum, frame):
                now = time.monotonic()
                signal.setitimer(signal.ITIMER_REAL, 0.05)
                raise TimeoutError(now)

            signal.signal(signal.SIGALRM, _on_alarm)
            """,
        )
        assert report.ok

    def test_unreachable_io_clean(self, tmp_path):
        # I/O in functions NOT reachable from the handler is fine.
        report = lint_source(
            tmp_path,
            """
            import signal

            def _on_alarm(signum, frame):
                raise TimeoutError

            def report():
                print("not on the signal path")

            signal.signal(signal.SIGALRM, _on_alarm)
            """,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# RPL003 — shm lifecycle
# ---------------------------------------------------------------------------


class TestShmLifecycleRule:
    def test_unpaired_creation_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            from multiprocessing import shared_memory

            def leak(size):
                shm = shared_memory.SharedMemory(create=True, size=size)
                shm.buf[:4] = b"data"
            """,
        )
        assert codes(report) == ["RPL003"]

    def test_finally_cleanup_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            from multiprocessing import shared_memory

            def scoped(size):
                shm = shared_memory.SharedMemory(create=True, size=size)
                try:
                    shm.buf[:4] = b"data"
                finally:
                    shm.close()
                    shm.unlink()
            """,
        )
        assert report.ok

    def test_manifest_registration_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            from multiprocessing import shared_memory

            from repro.utils import shm_manifest

            def tracked(size):
                shm = shared_memory.SharedMemory(create=True, size=size)
                shm_manifest.register(shm.name)
                return shm.name
            """,
        )
        assert report.ok

    def test_returned_handle_clean(self, tmp_path):
        # Returning the handle transfers ownership to the caller.
        report = lint_source(
            tmp_path,
            """
            from multiprocessing import shared_memory

            def make(size):
                shm = shared_memory.SharedMemory(create=True, size=size)
                return shm
            """,
        )
        assert report.ok

    def test_publish_without_cleanup_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            def run(problem):
                shared = publish_problem(problem)
                compute(shared.manifest)
            """,
        )
        assert codes(report) == ["RPL003"]

    def test_with_block_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            def run(problem):
                with publish_problem(problem) as shared:
                    return compute(shared.manifest)
            """,
        )
        assert report.ok

    def test_attach_without_create_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            from multiprocessing import shared_memory

            def attach(name):
                shm = shared_memory.SharedMemory(name=name)
                try:
                    return bytes(shm.buf[:4])
                finally:
                    shm.close()
            """,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# RPL004 — kernel-contract parity
# ---------------------------------------------------------------------------

#: A miniature but structurally faithful _native.py / kernels.py pair.
NATIVE_OK = '''
import ctypes

import numpy as np

_C_SOURCE = r"""
void run_walks(
    int64_t n_ants,
    int64_t n_threads,
    const int64_t *orders,
    const double *uniforms,         /* n_ants, or NULL */
    const int64_t *succ_indptr,
    const int64_t *succ_indices,
    const int64_t *pred_indptr,
    const int64_t *pred_indices,
    const int64_t *walk_steps,      /* per-walk steps, or NULL */
    double *scores)
{
}
"""


def load(lib):
    lib.run_walks.argtypes = [
        ctypes.c_int64,  # n_ants
        ctypes.c_int64,  # n_threads
        _I64,  # orders
        ctypes.c_void_p,  # uniforms (nullable)
        _I64,  # succ_indptr
        _I64,  # succ_indices
        _I64,  # pred_indptr
        _I64,  # pred_indices
        ctypes.c_void_p,  # walk_steps (nullable)
        _F64,  # scores
    ]
    return lib


def run_walks_native(
    lib,
    *,
    n_threads: int,
    orders: np.ndarray,
    uniforms: np.ndarray | None,
    succ_indptr: np.ndarray,
    succ_indices: np.ndarray,
    pred_indptr: np.ndarray,
    pred_indices: np.ndarray,
    walk_steps: np.ndarray | None = None,
) -> None:
    pass
'''

KERNELS_OK = """
from repro.aco import _native


def _lockstep_walks(*, succ_indptr, succ_indices, pred_indptr, pred_indices,
                    orders, uniforms, walk_steps=None):
    pass


def run_walks_packed(packed, params, walk_graph, orders, uniforms):
    return _native.run_walks_native(
        lib,
        n_threads=_native.effective_threads(n_tasks=2),
        orders=orders,
        uniforms=uniforms,
        succ_indptr=packed.succ_indptr,
        succ_indices=packed.succ_indices,
        pred_indptr=packed.pred_indptr,
        pred_indices=packed.pred_indices,
        walk_steps=walk_graph.steps,
    )
"""


def lint_kernel_pair(tmp_path: Path, native_src: str, kernels_src: str):
    aco = tmp_path / "aco"
    aco.mkdir(exist_ok=True)
    (aco / "_native.py").write_text(textwrap.dedent(native_src), encoding="utf-8")
    (aco / "kernels.py").write_text(textwrap.dedent(kernels_src), encoding="utf-8")
    return run_lint(["aco"], root=tmp_path)


class TestKernelContractRule:
    def test_consistent_contract_clean(self, tmp_path):
        report = lint_kernel_pair(tmp_path, NATIVE_OK, KERNELS_OK)
        assert report.ok, [f.render() for f in report.findings]

    def test_argtypes_count_mismatch_flagged(self, tmp_path):
        broken = NATIVE_OK.replace("        _F64,  # scores\n", "")
        report = lint_kernel_pair(tmp_path, broken, KERNELS_OK)
        assert "RPL004" in codes(report)
        assert any("9 entries" in f.message for f in report.findings)

    def test_missing_csr_anchor_flagged(self, tmp_path):
        # Drop one CSR pointer from prototype, argtypes, wrapper, lockstep
        # and the call site consistently — every parity check stays happy,
        # only the required-anchor check can catch the loss.
        broken_native = (
            NATIVE_OK.replace("    const int64_t *pred_indices,\n", "")
            .replace("        _I64,  # pred_indices\n", "")
            .replace("    pred_indices: np.ndarray,\n", "")
        )
        broken_kernels = KERNELS_OK.replace("        pred_indices=packed.pred_indices,\n", "")
        broken_kernels = broken_kernels.replace(
            "def _lockstep_walks(*, succ_indptr, succ_indices, pred_indptr, pred_indices,",
            "def _lockstep_walks(*, succ_indptr, succ_indices, pred_indptr,",
        )
        report = lint_kernel_pair(tmp_path, broken_native, broken_kernels)
        assert any(
            f.code == "RPL004" and "'pred_indices'" in f.message and "missing" in f.message
            for f in report.findings
        )

    def test_nullable_anchor_flagged(self, tmp_path):
        # An anchor demoted to nullable (c_void_p + "or NULL") passes the
        # positional argtype parity but must trip the anchor shape check.
        broken = NATIVE_OK.replace(
            "    const int64_t *succ_indptr,",
            "    const int64_t *succ_indptr,  /* or NULL */",
        ).replace("        _I64,  # succ_indptr", "        ctypes.c_void_p,  # succ_indptr")
        broken = broken.replace(
            "    succ_indptr: np.ndarray,", "    succ_indptr: np.ndarray | None,"
        )
        report = lint_kernel_pair(tmp_path, broken, KERNELS_OK)
        assert any(
            f.code == "RPL004" and "'succ_indptr'" in f.message and "never-NULL" in f.message
            for f in report.findings
        )

    def test_missing_thread_count_flagged(self, tmp_path):
        broken = (
            NATIVE_OK.replace("    int64_t n_threads,\n", "")
            .replace("        ctypes.c_int64,  # n_threads\n", "")
            .replace("    n_threads: int,\n", "")
        )
        broken_kernels = KERNELS_OK.replace(
            "        n_threads=_native.effective_threads(n_tasks=2),\n", ""
        )
        report = lint_kernel_pair(tmp_path, broken, broken_kernels)
        assert any(
            f.code == "RPL004" and "'n_threads'" in f.message for f in report.findings
        )

    def test_nullable_position_mismatch_flagged(self, tmp_path):
        # The C prototype says `uniforms` may be NULL; pass it as a strict
        # ndpointer and the contract check must object.
        broken = NATIVE_OK.replace(
            "        ctypes.c_void_p,  # uniforms (nullable)", "        _F64,  # uniforms"
        )
        report = lint_kernel_pair(tmp_path, broken, KERNELS_OK)
        assert any(
            f.code == "RPL004" and "uniforms" in f.message for f in report.findings
        )

    def test_wrapper_nullable_set_drift_flagged(self, tmp_path):
        broken = NATIVE_OK.replace(
            "    walk_steps: np.ndarray | None = None,", "    walk_steps: np.ndarray,"
        )
        report = lint_kernel_pair(tmp_path, broken, KERNELS_OK)
        assert any(
            f.code == "RPL004" and "walk_steps" in f.message for f in report.findings
        )

    def test_unknown_callsite_keyword_flagged(self, tmp_path):
        broken = KERNELS_OK.replace("uniforms=uniforms,", "uniform_draws=uniforms,")
        report = lint_kernel_pair(tmp_path, NATIVE_OK, broken)
        assert any(
            f.code == "RPL004" and "uniform_draws" in f.message for f in report.findings
        )

    def test_positional_arity_drift_flagged(self, tmp_path):
        runtime = """
        from .kernels import run_walks_packed

        def drive(packed, params, walk_graph, orders, uniforms, extra):
            run_walks_packed(packed, params, walk_graph, orders, uniforms, extra)
        """
        aco = tmp_path / "aco"
        aco.mkdir()
        (aco / "_native.py").write_text(textwrap.dedent(NATIVE_OK), encoding="utf-8")
        (aco / "kernels.py").write_text(textwrap.dedent(KERNELS_OK), encoding="utf-8")
        (aco / "runtime.py").write_text(textwrap.dedent(runtime), encoding="utf-8")
        report = run_lint(["aco"], root=tmp_path)
        assert any(
            f.code == "RPL004" and "6 positional" in f.message for f in report.findings
        )

    def test_real_tree_contract_holds(self):
        # The shipped _native.py/kernels.py/runtime.py must satisfy the rule.
        report = run_lint(
            [
                "src/repro/aco/_native.py",
                "src/repro/aco/kernels.py",
                "src/repro/aco/runtime.py",
            ],
            root=REPO_ROOT,
        )
        rpl004 = [f for f in report.findings if f.code == "RPL004"]
        assert rpl004 == [], [f.render() for f in rpl004]


# ---------------------------------------------------------------------------
# RPL005 — cross-process payloads
# ---------------------------------------------------------------------------


class TestPayloadRule:
    def test_lambda_and_nested_fn_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            from repro.utils.pool import imap_with_state

            def run(units):
                def task(unit, state):
                    return unit

                return imap_with_state(task, units, init_fn=lambda p: p)
            """,
        )
        assert sorted(codes(report)) == ["RPL005", "RPL005"]

    def test_lock_payload_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import threading

            from repro.utils.pool import imap_with_state

            def run(task, units):
                lock = threading.Lock()
                return imap_with_state(task, units, payload=(lock, "config"))
            """,
        )
        assert codes(report) == ["RPL005"]
        assert "lock" in report.findings[0].message

    def test_shm_view_payload_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            from repro.utils.pool import imap_with_state

            def run(task, units, shared):
                return imap_with_state(task, units, payload=(shared.shm, 1))
            """,
        )
        assert codes(report) == ["RPL005"]
        assert "shared-memory view" in report.findings[0].message

    def test_manifest_payload_clean(self, tmp_path):
        # Passing the picklable manifest of a published block is the blessed
        # pattern (runtime.py does exactly this).
        report = lint_source(
            tmp_path,
            """
            from repro.utils.pool import imap_with_state

            def run(task, units, problem, params):
                shared = publish_problem(problem)
                try:
                    return imap_with_state(
                        task, units, payload=(shared.manifest, params.as_dict())
                    )
                finally:
                    shared.close()
                    shared.unlink()
            """,
        )
        assert report.ok, [f.render() for f in report.findings]

    def test_module_level_task_fn_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            from repro.utils.pool import imap_with_state

            def _task(unit, state):
                return unit

            def run(units, table):
                return imap_with_state(_task, units, payload=table)
            """,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# RPL006 — async safety
# ---------------------------------------------------------------------------


class TestAsyncSafetyRule:
    def test_time_sleep_in_async_def_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import time

            async def handler():
                time.sleep(1.0)
            """,
        )
        assert codes(report) == ["RPL006"]
        assert "asyncio.sleep" in report.findings[0].message

    def test_sync_open_and_path_io_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            async def handler(path, cfg_path):
                with open(path) as fh:
                    data = fh.read()
                return data + cfg_path.read_text()
            """,
        )
        assert codes(report) == ["RPL006", "RPL006"]

    def test_subprocess_run_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import subprocess

            async def handler():
                subprocess.run(["ls"])
            """,
        )
        assert codes(report) == ["RPL006"]
        assert "create_subprocess_exec" in report.findings[0].message

    def test_unbounded_acquire_flagged_but_awaited_or_bounded_ok(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            async def bad(lock):
                lock.acquire()

            async def fine_bounded(lock):
                lock.acquire(timeout=1.0)

            async def fine_asyncio(lock):
                await lock.acquire()
            """,
        )
        assert codes(report) == ["RPL006"]
        assert report.findings[0].line == 3

    def test_async_primitives_and_sync_functions_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import asyncio
            import time

            async def handler(loop, fn):
                await asyncio.sleep(0.1)
                return await loop.run_in_executor(None, fn)

            def plain_sync():
                time.sleep(1.0)  # fine: not on the event loop
            """,
        )
        assert report.ok

    def test_nested_sync_def_not_flagged(self, tmp_path):
        """Nested defs run off-loop (e.g. handed to run_in_executor)."""
        report = lint_source(
            tmp_path,
            """
            import time

            async def handler(loop):
                def blocking_work():
                    time.sleep(1.0)
                return await loop.run_in_executor(None, blocking_work)
            """,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# Engine semantics: suppressions, baseline, CLI
# ---------------------------------------------------------------------------

BAD_RNG = """
import numpy as np

def draw():
    return np.random.default_rng().integers(10)
"""


class TestSuppressions:
    def test_same_line_suppression(self, tmp_path):
        source = """
        import numpy as np

        def draw():
            return np.random.default_rng().integers(10)  # repro-lint: disable=RPL001
        """
        report = lint_source(tmp_path, source)
        assert report.ok
        assert len(report.suppressed) == 1

    def test_previous_line_comment_suppression(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import numpy as np

            def draw():
                # repro-lint: disable=RPL001 -- entropy wanted here
                return np.random.default_rng().integers(10)
            """,
        )
        assert report.ok
        assert len(report.suppressed) == 1

    def test_wrong_code_does_not_suppress(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import numpy as np

            def draw():
                return np.random.default_rng().integers(10)  # repro-lint: disable=RPL003
            """,
        )
        assert codes(report) == ["RPL001"]

    def test_file_level_suppression(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            # repro-lint: disable-file=RPL001
            import numpy as np

            def draw():
                return np.random.default_rng().integers(10)

            def draw2():
                return np.random.default_rng().integers(10)
            """,
        )
        assert report.ok
        assert len(report.suppressed) == 2


class TestBaseline:
    def _write_bad(self, tmp_path: Path) -> Path:
        target = tmp_path / "mod.py"
        target.write_text(textwrap.dedent(BAD_RNG), encoding="utf-8")
        return target

    def test_baselined_finding_passes_and_new_one_fails(self, tmp_path):
        self._write_bad(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        report = run_lint(["mod.py"], root=tmp_path)
        modules = {
            rel: parse_module(path, rel)
            for path, rel in collect_files(["mod.py"], root=tmp_path)
        }
        write_baseline(baseline_path, report.findings, modules)

        baseline = Baseline.load(baseline_path)
        report = run_lint(["mod.py"], root=tmp_path, baseline=baseline)
        assert report.ok
        assert len(report.baselined) == 1

        # A new, different violation is NOT absorbed.
        (tmp_path / "mod.py").write_text(
            textwrap.dedent(BAD_RNG)
            + "\ndef more():\n    return np.random.rand(3)\n",
            encoding="utf-8",
        )
        baseline = Baseline.load(baseline_path)
        report = run_lint(["mod.py"], root=tmp_path, baseline=baseline)
        assert [f.code for f in report.findings] == ["RPL001"]
        assert "np.random.rand" in report.findings[0].message

    def test_baseline_survives_line_moves(self, tmp_path):
        self._write_bad(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        report = run_lint(["mod.py"], root=tmp_path)
        modules = {
            rel: parse_module(path, rel)
            for path, rel in collect_files(["mod.py"], root=tmp_path)
        }
        write_baseline(baseline_path, report.findings, modules)

        # Prepend code so every line number shifts; the fingerprint holds.
        (tmp_path / "mod.py").write_text(
            "X = 1\nY = 2\n" + textwrap.dedent(BAD_RNG), encoding="utf-8"
        )
        baseline = Baseline.load(baseline_path)
        report = run_lint(["mod.py"], root=tmp_path, baseline=baseline)
        assert report.ok
        assert len(report.baselined) == 1

    def test_duplicate_findings_need_matching_count(self, tmp_path):
        source = textwrap.dedent(BAD_RNG)
        (tmp_path / "mod.py").write_text(source, encoding="utf-8")
        baseline_path = tmp_path / "baseline.json"
        report = run_lint(["mod.py"], root=tmp_path)
        modules = {
            rel: parse_module(path, rel)
            for path, rel in collect_files(["mod.py"], root=tmp_path)
        }
        write_baseline(baseline_path, report.findings, modules)

        # Duplicate the offending line: one occurrence is baselined, the
        # second must still fail.
        (tmp_path / "mod.py").write_text(
            source + "\ndef draw_again():\n    return np.random.default_rng().integers(10)\n",
            encoding="utf-8",
        )
        baseline = Baseline.load(baseline_path)
        report = run_lint(["mod.py"], root=tmp_path, baseline=baseline)
        assert len(report.baselined) == 1
        assert codes(report) == ["RPL001"]

    def test_stale_entries_reported(self, tmp_path):
        self._write_bad(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        report = run_lint(["mod.py"], root=tmp_path)
        modules = {
            rel: parse_module(path, rel)
            for path, rel in collect_files(["mod.py"], root=tmp_path)
        }
        write_baseline(baseline_path, report.findings, modules)

        (tmp_path / "mod.py").write_text(
            "import numpy as np\n\ndef draw(seed):\n"
            "    return np.random.default_rng(seed).integers(10)\n",
            encoding="utf-8",
        )
        baseline = Baseline.load(baseline_path)
        report = run_lint(["mod.py"], root=tmp_path, baseline=baseline)
        assert report.ok
        assert report.stale_baseline == 1


class TestCli:
    def test_exit_codes_and_update_baseline(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "mod.py").write_text(textwrap.dedent(BAD_RNG), encoding="utf-8")
        monkeypatch.chdir(tmp_path)

        assert lint_main(["mod.py"]) == 1
        out = capsys.readouterr().out
        assert "RPL001" in out

        assert lint_main(["--update-baseline", "mod.py"]) == 0
        assert (tmp_path / ".repro-lint-baseline.json").exists()

        # Default baseline is picked up automatically; the run is now clean.
        assert lint_main(["mod.py"]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out

        # --no-baseline surfaces the grandfathered finding again.
        assert lint_main(["--no-baseline", "mod.py"]) == 1

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out

    def test_syntax_error_reported(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert lint_main(["--no-baseline", "broken.py"]) == 1
        assert "RPL000" in capsys.readouterr().out

    def test_repro_dag_lint_subcommand(self, tmp_path):
        (tmp_path / "mod.py").write_text(textwrap.dedent(BAD_RNG), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--no-baseline", "mod.py"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert "RPL001" in proc.stdout


# ---------------------------------------------------------------------------
# Meta: the shipped tree lints clean
# ---------------------------------------------------------------------------


class TestShippedTree:
    PATHS = ["src", "tests", "benchmarks", "examples"]

    def test_repo_lints_clean_under_shipped_baseline(self):
        baseline_path = REPO_ROOT / ".repro-lint-baseline.json"
        baseline = Baseline.load(baseline_path) if baseline_path.exists() else None
        report = run_lint(self.PATHS, root=REPO_ROOT, baseline=baseline)
        assert report.ok, "\n".join(f.render() for f in report.findings)

    def test_src_has_no_baselined_determinism_or_shm_findings(self):
        # Acceptance: even with the baseline removed, src/ carries zero
        # unsuppressed RPL001/RPL003 findings — those must be fixed, never
        # grandfathered.
        report = run_lint(["src"], root=REPO_ROOT, baseline=None)
        offenders = [
            f for f in report.findings if f.code in ("RPL001", "RPL003")
        ]
        assert offenders == [], "\n".join(f.render() for f in offenders)

    def test_shipped_baseline_has_no_stale_entries(self):
        baseline_path = REPO_ROOT / ".repro-lint-baseline.json"
        if not baseline_path.exists():
            pytest.skip("no baseline shipped")
        baseline = Baseline.load(baseline_path)
        run_lint(self.PATHS, root=REPO_ROOT, baseline=baseline)
        assert baseline.unconsumed() == 0
