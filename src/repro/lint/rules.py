"""The six project-specific invariant rules behind ``repro-dag lint``.

Each rule statically enforces an invariant the test suite can only catch
after the fact:

* **RPL001** determinism — unseeded RNGs, wall-clock values feeding digest
  code, iteration over unordered containers.
* **RPL002** signal-safety — nothing reachable from a ``signal.signal``
  handler may print, log, do I/O, or take a lock (the SIGALRM deadline path
  in ``repro/utils/pool.py`` interrupts arbitrary bytecode).
* **RPL003** shm lifecycle — every shared-memory creation site must have a
  ``finally`` close/unlink, a ``shm_manifest.register`` call, a ``with``
  block, or transfer ownership by returning the handle.
* **RPL004** kernel-contract parity — the C prototype, the ctypes
  ``argtypes`` tuple, the Python wrapper, and ``run_walks_packed``'s calls
  into the native kernel and the NumPy fallback (``aco/_native.py`` /
  ``aco/kernels.py``) must agree on parameter names, order, and which
  per-walk arrays are nullable.
* **RPL005** cross-process payloads — arguments shipped to pool workers via
  ``imap_with_state`` must be picklable by construction: no lambdas, nested
  functions, locks, open handles, or shm views.
* **RPL006** async-safety — ``async def`` bodies (the serving front end's
  event loop) must not make blocking calls: ``time.sleep``, synchronous
  ``open``/``Path.read_text``-style file I/O, ``subprocess`` invocations,
  or un-awaited ``.acquire()`` without a timeout all stall every request
  on the loop; use ``await asyncio.sleep`` / ``run_in_executor`` instead.

Rules work purely on the AST; name resolution is intentionally lexical
(dotted-name pattern matching plus per-function assignment tracking), which
is the right trade-off for a repo-specific linter: precise enough to have
caught every historical violation, simple enough to audit.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.core import Finding, LintModule, Project, Rule, dotted_name

__all__ = [
    "ALL_RULES",
    "AsyncSafetyRule",
    "DeterminismRule",
    "KernelContractRule",
    "PayloadRule",
    "ShmLifecycleRule",
    "SignalSafetyRule",
    "rule_by_code",
]


def _walk_no_nested_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Walk *node* without descending into nested function/class bodies."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _functions(tree: ast.Module) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    """Module-level function defs by name (methods excluded on purpose)."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class _ParentMap:
    """Lazy child -> parent and node -> enclosing-function maps."""

    def __init__(self, tree: ast.Module) -> None:
        self.parent: dict[ast.AST, ast.AST] = {}
        self.enclosing: dict[ast.AST, ast.FunctionDef | ast.AsyncFunctionDef | None] = {}

        def visit(node: ast.AST, fn: ast.FunctionDef | ast.AsyncFunctionDef | None) -> None:
            for child in ast.iter_child_nodes(node):
                self.parent[child] = node
                self.enclosing[child] = fn
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child)
                else:
                    visit(child, fn)

        visit(tree, None)


# ---------------------------------------------------------------------------
# RPL001 — determinism
# ---------------------------------------------------------------------------

#: ``random.<fn>`` calls that consult the process-global Mersenne state.
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "shuffle", "choice", "choices",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "getrandbits",
}

#: Legacy ``np.random.<fn>`` calls backed by the global numpy RandomState.
_NUMPY_LEGACY_FNS = {
    "rand", "randn", "randint", "random", "random_sample", "shuffle",
    "permutation", "choice", "seed", "uniform", "normal", "standard_normal",
}

#: Wall-clock / entropy sources that must not feed digest material.
_CLOCK_CALLS = {
    "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow", "uuid.uuid4",
}

#: A function is digest-affecting if its name matches, or it hashes content.
_DIGEST_NAME_RE = re.compile(
    r"(digest|cache_key|fingerprint|checksum|canonical|content_hash|hash_key)",
    re.IGNORECASE,
)
_HASHLIB_FNS = {"md5", "sha1", "sha224", "sha256", "sha384", "sha512", "blake2b", "blake2s"}
_DIGEST_CALL_TAILS = {"content_digest", "cache_key", "canonical_json", "record_checksum"}


class DeterminismRule(Rule):
    code = "RPL001"
    name = "determinism"
    description = (
        "unseeded RNGs, wall-clock values feeding digest/cache-key code, and "
        "iteration over unordered set/dict expressions"
    )

    def check_module(self, module: LintModule, project: Project) -> Iterator[Finding]:
        tree = module.tree
        assert tree is not None
        imports_random = any(
            isinstance(node, ast.Import) and any(alias.name == "random" for alias in node.names)
            for node in ast.walk(tree)
        )

        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, imports_random)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(module, node.iter, "for loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    yield from self._check_iteration(module, gen.iter, "comprehension")

        # Wall-clock calls are only a determinism bug when the value can end
        # up in digest material, so this sub-check is scoped to functions
        # that hash content or are named like digest helpers.
        for fn in (
            n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ):
            if not self._is_digest_affecting(fn):
                continue
            for sub in _walk_no_nested_functions(fn):
                if not isinstance(sub, ast.Call):
                    continue
                name = dotted_name(sub.func)
                if name in _CLOCK_CALLS or (
                    name is not None and any(name.endswith("." + c) for c in _CLOCK_CALLS)
                ):
                    yield Finding(
                        code=self.code,
                        message=(
                            f"wall-clock call {name}() inside digest-affecting function "
                            f"{fn.name!r}; clocks must never feed cache keys or checksums"
                        ),
                        path=module.rel,
                        line=sub.lineno,
                        col=sub.col_offset,
                    )

    def _check_call(
        self, module: LintModule, node: ast.Call, imports_random: bool
    ) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        # np.random.default_rng() / numpy.random.default_rng() without a seed.
        if name.endswith("random.default_rng") or name == "default_rng":
            if not node.args and not node.keywords:
                yield Finding(
                    code=self.code,
                    message=(
                        "unseeded np.random.default_rng(): pulls OS entropy and makes the "
                        "run irreproducible; pass an explicit seed or SeedSequence"
                    ),
                    path=module.rel,
                    line=node.lineno,
                    col=node.col_offset,
                )
            return
        # random.Random() without a seed.
        if name in ("random.Random", "Random") and not node.args and not node.keywords:
            yield Finding(
                code=self.code,
                message="unseeded random.Random(): pass an explicit seed",
                path=module.rel,
                line=node.lineno,
                col=node.col_offset,
            )
            return
        # Global-state stdlib RNG: random.shuffle(...) etc.
        if imports_random and name.startswith("random."):
            tail = name.split(".", 1)[1]
            if tail in _GLOBAL_RANDOM_FNS:
                yield Finding(
                    code=self.code,
                    message=(
                        f"global-state RNG call {name}(): shared Mersenne state is "
                        "order-dependent across call sites; use a seeded np.random.Generator "
                        "or random.Random instance"
                    ),
                    path=module.rel,
                    line=node.lineno,
                    col=node.col_offset,
                )
            return
        # Legacy global numpy RNG: np.random.shuffle(...) etc.
        parts = name.split(".")
        if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            if parts[2] in _NUMPY_LEGACY_FNS:
                yield Finding(
                    code=self.code,
                    message=(
                        f"legacy global numpy RNG call {name}(): use a seeded "
                        "np.random.default_rng(seed) Generator instead"
                    ),
                    path=module.rel,
                    line=node.lineno,
                    col=node.col_offset,
                )

    def _check_iteration(self, module: LintModule, iter_node: ast.AST, kind: str) -> Iterator[Finding]:
        """Flag direct iteration over a set literal / set() call.

        ``sorted(set(...))`` and membership tests are fine; only the raw
        iteration order is nondeterministic under hash randomization.
        """
        target = iter_node
        if isinstance(target, ast.Call):
            name = dotted_name(target.func)
            if name in ("set", "frozenset"):
                yield Finding(
                    code=self.code,
                    message=(
                        f"{kind} iterates over {name}(...): set order depends on "
                        "PYTHONHASHSEED; wrap in sorted(...) to fix the order"
                    ),
                    path=module.rel,
                    line=target.lineno,
                    col=target.col_offset,
                )
        elif isinstance(target, ast.Set):
            yield Finding(
                code=self.code,
                message=(
                    f"{kind} iterates over a set literal: set order depends on "
                    "PYTHONHASHSEED; use a tuple/list or sorted(...)"
                ),
                path=module.rel,
                line=target.lineno,
                col=target.col_offset,
            )

    @staticmethod
    def _is_digest_affecting(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        if _DIGEST_NAME_RE.search(fn.name):
            return True
        for sub in _walk_no_nested_functions(fn):
            if isinstance(sub, ast.Call):
                name = dotted_name(sub.func)
                if name is None:
                    continue
                tail = name.rsplit(".", 1)[-1]
                if tail in _HASHLIB_FNS and name.startswith(("hashlib.", tail)):
                    return True
                if tail in _DIGEST_CALL_TAILS:
                    return True
        return False


# ---------------------------------------------------------------------------
# RPL002 — signal safety
# ---------------------------------------------------------------------------

#: Calls known to be safe inside a handler; traversal does not flag or
#: descend into them.  Extend here (not with suppressions) when a genuinely
#: async-signal-safe helper joins the handler path.
_SIGNAL_SAFE_CALLS = {
    "time.monotonic",
    "time.perf_counter",
    "signal.setitimer",
    "signal.signal",
    "signal.alarm",
    "os.getpid",
    "os.kill",
}

_LOG_METHODS = {"debug", "info", "warning", "error", "critical", "exception", "log"}
_LOCK_FACTORIES = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore", "threading.Event",
}


class SignalSafetyRule(Rule):
    code = "RPL002"
    name = "signal-safety"
    description = (
        "functions reachable from a signal.signal(...) handler must not print, "
        "log, do I/O, or take locks"
    )

    def check_module(self, module: LintModule, project: Project) -> Iterator[Finding]:
        tree = module.tree
        assert tree is not None
        functions = _functions(tree)

        handlers: list[tuple[str, int]] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name != "signal.signal" or len(node.args) < 2:
                continue
            target = node.args[1]
            if isinstance(target, ast.Name) and target.id in functions:
                handlers.append((target.id, node.lineno))

        for handler_name, registered_at in handlers:
            # Breadth-first over the same-module call graph rooted at the
            # handler; every reachable function must be async-signal-safe.
            visited: set[str] = set()
            queue = [handler_name]
            while queue:
                fn_name = queue.pop(0)
                if fn_name in visited:
                    continue
                visited.add(fn_name)
                fn = functions[fn_name]
                for sub in _walk_no_nested_functions(fn):
                    if isinstance(sub, ast.With):
                        for item in sub.items:
                            ctx = dotted_name(item.context_expr)
                            if isinstance(item.context_expr, ast.Call):
                                ctx = dotted_name(item.context_expr.func)
                            if ctx is not None and "lock" in ctx.lower():
                                yield self._finding(
                                    module, sub.lineno, sub.col_offset, fn_name,
                                    handler_name, registered_at,
                                    f"enters lock context {ctx!r}",
                                )
                        continue
                    if not isinstance(sub, ast.Call):
                        continue
                    name = dotted_name(sub.func)
                    if name is None or name in _SIGNAL_SAFE_CALLS:
                        continue
                    problem = self._classify(name)
                    if problem is not None:
                        yield self._finding(
                            module, sub.lineno, sub.col_offset, fn_name,
                            handler_name, registered_at, problem,
                        )
                    elif name in functions and name not in visited:
                        queue.append(name)

    @staticmethod
    def _classify(name: str) -> str | None:
        """A human-readable problem description, or None if the call is fine."""
        if name in ("print", "input", "open"):
            return f"calls {name}(...) (buffered I/O can deadlock mid-interrupt)"
        parts = name.split(".")
        if parts[0] == "logging" or (
            len(parts) >= 2 and re.fullmatch(r"_?(logger|log)", parts[-2] or "")
            and parts[-1] in _LOG_METHODS
        ):
            return f"calls logging API {name}(...) (logging takes an internal lock)"
        if name in ("sys.stdout.write", "sys.stderr.write", "sys.stdout.flush", "sys.stderr.flush"):
            return f"calls {name}(...) (stream I/O is not async-signal-safe)"
        if name.endswith(".acquire"):
            return f"calls {name}(): acquiring a lock in signal context can self-deadlock"
        if name in _LOCK_FACTORIES:
            return f"constructs {name}() in signal context"
        return None

    def _finding(
        self,
        module: LintModule,
        line: int,
        col: int,
        fn_name: str,
        handler_name: str,
        registered_at: int,
        problem: str,
    ) -> Finding:
        return Finding(
            code=self.code,
            message=(
                f"{fn_name!r} is reachable from signal handler {handler_name!r} "
                f"(registered at line {registered_at}) and {problem}"
            ),
            path=module.rel,
            line=line,
            col=col,
        )


# ---------------------------------------------------------------------------
# RPL003 — shared-memory lifecycle
# ---------------------------------------------------------------------------


class ShmLifecycleRule(Rule):
    code = "RPL003"
    name = "shm-lifecycle"
    description = (
        "SharedMemory(create=True)/publish_* creation sites must be closed and "
        "unlinked in a finally, registered with shm_manifest, or returned"
    )

    def check_module(self, module: LintModule, project: Project) -> Iterator[Finding]:
        tree = module.tree
        assert tree is not None
        parents = _ParentMap(tree)

        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            kind = self._creation_kind(node)
            if kind is None:
                continue
            scope: ast.AST = parents.enclosing.get(node) or tree
            if self._is_accounted_for(node, scope, parents):
                continue
            yield Finding(
                code=self.code,
                message=(
                    f"{kind} creates a shared-memory block with no visible cleanup: "
                    "pair it with close()/unlink() in a finally, register the name via "
                    "shm_manifest.register(...), use a with-block, or return the handle "
                    "to a caller that does"
                ),
                path=module.rel,
                line=node.lineno,
                col=node.col_offset,
            )

    @staticmethod
    def _creation_kind(node: ast.Call) -> str | None:
        name = dotted_name(node.func)
        if name is None:
            return None
        tail = name.rsplit(".", 1)[-1]
        if tail == "SharedMemory":
            for kw in node.keywords:
                if kw.arg == "create" and isinstance(kw.value, ast.Constant) and kw.value.value:
                    return f"{name}(create=True)"
            return None
        if tail.startswith("publish_"):
            return f"{name}(...)"
        return None

    def _is_accounted_for(self, node: ast.Call, scope: ast.AST, parents: _ParentMap) -> bool:
        # (1) Context-manager use: `with publish_problem(p) as shared:`.
        parent = parents.parent.get(node)
        if isinstance(parent, ast.withitem):
            return True
        # The names the created handle is bound to, if any.
        bound = self._bound_names(node, parents)
        for sub in ast.walk(scope):
            # (2) Registered with the manifest somewhere in the same scope.
            if isinstance(sub, ast.Call):
                name = dotted_name(sub.func)
                if name is not None and (
                    name.endswith("shm_manifest.register") or name == "register"
                ):
                    return True
            # (3) Ownership transfer: handle appears in a return/yield.
            if isinstance(sub, (ast.Return, ast.Yield)) and sub.value is not None:
                if node in ast.walk(sub.value):
                    return True
                if bound and any(
                    isinstance(n, ast.Name) and n.id in bound for n in ast.walk(sub.value)
                ):
                    return True
            # (4) close()/unlink() on the bound name inside a finally block.
            if isinstance(sub, ast.Try) and bound:
                for stmt in sub.finalbody:
                    for call in ast.walk(stmt):
                        if not isinstance(call, ast.Call):
                            continue
                        name = dotted_name(call.func)
                        if name is None:
                            continue
                        parts = name.split(".")
                        if len(parts) >= 2 and parts[-1] in ("close", "unlink", "release_all"):
                            if parts[0] in bound or parts[-2] in bound:
                                return True
        return False

    @staticmethod
    def _bound_names(node: ast.Call, parents: _ParentMap) -> set[str]:
        """Names assigned from the creation call (`shm = ...`, `a, shm = ...`)."""
        parent = parents.parent.get(node)
        while parent is not None and isinstance(parent, (ast.Tuple, ast.List)):
            parent = parents.parent.get(parent)
        names: set[str] = set()
        if isinstance(parent, ast.Assign):
            for target in parent.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        elif isinstance(parent, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(parent.target, ast.Name):
                names.add(parent.target.id)
        elif isinstance(parent, ast.NamedExpr) and isinstance(parent.target, ast.Name):
            names.add(parent.target.id)
        return names


# ---------------------------------------------------------------------------
# RPL004 — kernel-contract parity
# ---------------------------------------------------------------------------

_C_PARAM_RE = re.compile(
    r"^\s*(?:const\s+)?(?P<type>int64_t|double)\s*(?P<ptr>\*)?\s*(?P<name>\w+)\s*[,)]"
    r"\s*(?:/\*(?P<comment>.*?)\*/)?"
)


class _CParam:
    def __init__(self, name: str, ctype: str, pointer: bool, nullable: bool) -> None:
        self.name = name
        self.ctype = ctype
        self.pointer = pointer
        self.nullable = nullable


#: The one Python entry point into the walk kernel (aco/kernels.py).
_ENTRY_POINT = "run_walks_packed"


class KernelContractRule(Rule):
    code = "RPL004"
    name = "kernel-contract"
    description = (
        "the C run_walks prototype, the ctypes argtypes list, run_walks_native, "
        "and run_walks_packed's kernel calls must agree on names, order, and "
        "the nullable per-walk array set, and the prototype must carry the "
        "CSR + thread-count contract anchors"
    )

    #: Maps a ctypes argtype spelling to the C parameter shape it implies.
    _ARGTYPE_KINDS = {
        "ctypes.c_int64": ("int64_t", False, False),
        "ctypes.c_double": ("double", False, False),
        "ctypes.c_void_p": (None, True, True),  # nullable pointer, any type
        "_I64": ("int64_t", True, False),
        "_F64": ("double", True, False),
    }

    #: Structural anchors of the CSR-only, walk-threaded kernel contract:
    #: these parameters must appear in the C prototype with exactly this
    #: (type, pointer) shape and must never be nullable — the data path has
    #: no padded fallback behind them, so losing one silently changes what
    #: the kernel traverses.
    _REQUIRED_ANCHORS = {
        "n_threads": ("int64_t", False),
        "succ_indptr": ("int64_t", True),
        "succ_indices": ("int64_t", True),
        "pred_indptr": ("int64_t", True),
        "pred_indices": ("int64_t", True),
    }

    def check_project(self, project: Project) -> Iterator[Finding]:
        native = project.find_suffix("aco/_native.py")
        kernels = project.find_suffix("aco/kernels.py")

        wrapper_params: set[str] | None = None
        if native is not None and native.tree is not None:
            c_params = yield from self._check_native_argtypes(native)
            wrapper_params = yield from self._check_wrapper(native, c_params)
        if kernels is not None and kernels.tree is not None:
            yield from self._check_kernels(kernels, wrapper_params)
            yield from self._check_call_arity(project, kernels)

    # -- _native.py ---------------------------------------------------------

    def _parse_c_source(self, native: LintModule) -> tuple[list[_CParam] | None, int]:
        """(params of ``void run_walks(...)`` in _C_SOURCE, anchor line)."""
        tree = native.tree
        assert tree is not None
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            targets = [dotted_name(t) for t in node.targets]
            if "_C_SOURCE" not in targets:
                continue
            if not isinstance(node.value, ast.Constant) or not isinstance(node.value.value, str):
                return None, node.lineno
            text = node.value.value
            start = text.find("void run_walks(")
            if start < 0:
                return None, node.lineno
            params: list[_CParam] = []
            for line in text[start:].splitlines()[1:]:
                match = _C_PARAM_RE.match(line)
                if match is None:
                    if ")" in line or "{" in line:
                        break
                    continue
                comment = match.group("comment") or ""
                params.append(
                    _CParam(
                        name=match.group("name"),
                        ctype=match.group("type"),
                        pointer=match.group("ptr") is not None,
                        nullable="NULL" in comment,
                    )
                )
                if ")" in line.split("/*")[0]:
                    break
            return params, node.lineno
        return None, 1

    def _find_argtypes(self, native: LintModule) -> tuple[ast.List | None, int]:
        tree = native.tree
        assert tree is not None
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                name = dotted_name(target)
                if name is not None and name.endswith("run_walks.argtypes"):
                    if isinstance(node.value, ast.List):
                        return node.value, node.lineno
                    return None, node.lineno
        return None, 1

    def _check_native_argtypes(self, native: LintModule):
        """Cross-check _C_SOURCE params against the ctypes argtypes list.

        Written as a generator that *returns* the parsed params so the
        wrapper check can reuse them (PEP 380 ``yield from`` value).
        """
        c_params, c_line = self._parse_c_source(native)
        argtypes, arg_line = self._find_argtypes(native)
        if c_params is None or not c_params:
            yield Finding(
                code=self.code,
                message=(
                    "cannot locate the `void run_walks(...)` prototype inside _C_SOURCE; "
                    "the kernel-contract check is anchored on it — update the linter if "
                    "the prototype moved"
                ),
                path=native.rel,
                line=c_line,
            )
            return None
        by_name = {p.name: p for p in c_params}
        for anchor, (ctype, pointer) in self._REQUIRED_ANCHORS.items():
            param = by_name.get(anchor)
            if param is None:
                yield Finding(
                    code=self.code,
                    message=(
                        f"the C prototype is missing required parameter {anchor!r}; "
                        "the CSR adjacency pointers and the walk-axis thread count "
                        "are structural anchors of the kernel contract"
                    ),
                    path=native.rel,
                    line=c_line,
                )
            elif param.nullable or param.pointer != pointer or param.ctype != ctype:
                shape = f"{'const ' if pointer else ''}{ctype}{' *' if pointer else ''}"
                yield Finding(
                    code=self.code,
                    message=(
                        f"C parameter {anchor!r} must be a required (never-NULL) "
                        f"{shape}; the kernel has no fallback representation behind it"
                    ),
                    path=native.rel,
                    line=c_line,
                )
        if argtypes is None:
            yield Finding(
                code=self.code,
                message=(
                    "cannot locate the `lib.run_walks.argtypes = [...]` list literal; "
                    "the kernel-contract check is anchored on it"
                ),
                path=native.rel,
                line=arg_line,
            )
            return c_params
        if len(argtypes.elts) != len(c_params):
            yield Finding(
                code=self.code,
                message=(
                    f"argtypes has {len(argtypes.elts)} entries but the C prototype "
                    f"declares {len(c_params)} parameters"
                ),
                path=native.rel,
                line=arg_line,
            )
            return c_params
        for index, (element, param) in enumerate(zip(argtypes.elts, c_params)):
            spelled = dotted_name(element) or ast.dump(element)
            kind = self._ARGTYPE_KINDS.get(spelled)
            if kind is None:
                yield Finding(
                    code=self.code,
                    message=f"argtypes[{index}] ({spelled}) is not a recognized kernel argtype",
                    path=native.rel,
                    line=element.lineno,
                )
                continue
            ctype, pointer, nullable = kind
            if param.nullable != nullable:
                expected = "ctypes.c_void_p" if param.nullable else "_I64/_F64"
                yield Finding(
                    code=self.code,
                    message=(
                        f"argtypes[{index}] ({spelled}) disagrees with C parameter "
                        f"{param.name!r}: the prototype marks it "
                        f"{'nullable (or NULL)' if param.nullable else 'required'}, "
                        f"expected {expected}"
                    ),
                    path=native.rel,
                    line=element.lineno,
                )
            elif param.pointer != pointer or (ctype is not None and ctype != param.ctype):
                yield Finding(
                    code=self.code,
                    message=(
                        f"argtypes[{index}] ({spelled}) does not match C parameter "
                        f"{param.name!r} of type "
                        f"{'const ' if param.pointer else ''}{param.ctype}"
                        f"{' *' if param.pointer else ''}"
                    ),
                    path=native.rel,
                    line=element.lineno,
                )
        return c_params

    @staticmethod
    def _annotation_allows_none(annotation: ast.AST | None) -> bool:
        if annotation is None:
            return False
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and sub.value is None:
                return True
            name = dotted_name(sub)
            if name is not None and name.rsplit(".", 1)[-1] == "Optional":
                return True
        return False

    def _check_wrapper(self, native: LintModule, c_params: list[_CParam] | None):
        """run_walks_native's None-able kwargs must equal the C nullable set.

        "Nullable" on the Python side means a ``None`` default or an
        ``X | None`` / ``Optional[X]`` annotation.  The C prototype also has
        derived scalars (``n_ants``, ``beta_mode``, the ``scores`` scratch)
        with no wrapper argument, so the name check is scoped to the
        nullable set — the part of the contract that silently corrupts
        results when it drifts.
        """
        tree = native.tree
        assert tree is not None
        wrapper = _functions(tree).get("run_walks_native")
        if wrapper is None:
            yield Finding(
                code=self.code,
                message="run_walks_native wrapper not found; kernel-contract anchor missing",
                path=native.rel,
                line=1,
            )
            return None
        nullable: set[str] = set()
        params: set[str] = set()
        for arg, default in zip(wrapper.args.kwonlyargs, wrapper.args.kw_defaults):
            params.add(arg.arg)
            if (
                default is not None
                and isinstance(default, ast.Constant)
                and default.value is None
            ) or self._annotation_allows_none(arg.annotation):
                nullable.add(arg.arg)
        for arg in wrapper.args.args:
            params.add(arg.arg)
        if c_params:
            c_nullable = {p.name for p in c_params if p.nullable}
            if nullable != c_nullable:
                missing = sorted(c_nullable - nullable)
                extra = sorted(nullable - c_nullable)
                detail = []
                if missing:
                    detail.append(f"C marks {missing} nullable but the wrapper requires them")
                if extra:
                    detail.append(f"the wrapper allows None for {extra} but C does not")
                yield Finding(
                    code=self.code,
                    message=(
                        "run_walks_native's optional arguments disagree with the C "
                        "prototype's nullable set: " + "; ".join(detail)
                    ),
                    path=native.rel,
                    line=wrapper.lineno,
                )
        return params

    # -- kernels.py ---------------------------------------------------------

    def _check_kernels(
        self, kernels: LintModule, wrapper_params: set[str] | None
    ) -> Iterator[Finding]:
        """Call-site keyword parity for run_walks_native and _lockstep_walks."""
        tree = kernels.tree
        assert tree is not None
        functions = _functions(tree)
        lockstep = functions.get("_lockstep_walks")
        lockstep_params = (
            {a.arg for a in lockstep.args.kwonlyargs} | {a.arg for a in lockstep.args.args}
            if lockstep is not None
            else None
        )

        fn = functions.get(_ENTRY_POINT)
        if fn is None:
            yield Finding(
                code=self.code,
                message=f"kernel entry point {_ENTRY_POINT!r} not found; contract anchor missing",
                path=kernels.rel,
                line=1,
            )
            return
        for node in _walk_no_nested_functions(fn):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            if name.endswith("run_walks_native") and wrapper_params is not None:
                unknown = sorted(keywords - wrapper_params)
                if unknown:
                    yield Finding(
                        code=self.code,
                        message=(
                            f"{_ENTRY_POINT} passes keywords {unknown} that "
                            "run_walks_native does not declare"
                        ),
                        path=kernels.rel,
                        line=node.lineno,
                    )
            elif name.endswith("_lockstep_walks") and lockstep_params is not None:
                unknown = sorted(keywords - lockstep_params)
                if unknown:
                    yield Finding(
                        code=self.code,
                        message=(
                            f"{_ENTRY_POINT} passes keywords {unknown} that "
                            "_lockstep_walks does not declare"
                        ),
                        path=kernels.rel,
                        line=node.lineno,
                    )

    def _check_call_arity(self, project: Project, kernels: LintModule) -> Iterator[Finding]:
        """Positional call sites of the entry point must match its arity."""
        tree = kernels.tree
        assert tree is not None
        entry = _functions(tree).get(_ENTRY_POINT)
        if entry is None:
            return
        expected = len(entry.args.args)
        for module in project.modules:
            if module.tree is None:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                tail = name.rsplit(".", 1)[-1]
                if tail != _ENTRY_POINT or node.keywords:
                    continue
                if any(isinstance(a, ast.Starred) for a in node.args):
                    continue
                if len(node.args) != expected:
                    yield Finding(
                        code=self.code,
                        message=(
                            f"{tail} called with {len(node.args)} positional arguments "
                            f"but its signature declares {expected}"
                        ),
                        path=module.rel,
                        line=node.lineno,
                        col=node.col_offset,
                    )


# ---------------------------------------------------------------------------
# RPL005 — cross-process payloads
# ---------------------------------------------------------------------------

#: Call names whose result must never cross a process boundary.
_UNPICKLABLE_FACTORIES = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore", "threading.Event",
    "open",
}

_POOL_ENTRY_POINTS = {"imap_with_state"}


class PayloadRule(Rule):
    code = "RPL005"
    name = "cross-process-payloads"
    description = (
        "payloads and callables handed to imap_with_state must not capture "
        "lambdas, nested functions, locks, open handles, or shm views"
    )

    def check_module(self, module: LintModule, project: Project) -> Iterator[Finding]:
        tree = module.tree
        assert tree is not None
        parents = _ParentMap(tree)
        module_level_fns = set(_functions(tree))

        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or name.rsplit(".", 1)[-1] not in _POOL_ENTRY_POINTS:
                continue
            scope = parents.enclosing.get(node) or tree
            risky = self._risky_assignments(scope)
            nested = self._nested_functions(scope)

            # task_fn is the first positional argument; init_fn is keyword-only.
            callables: list[tuple[str, ast.AST]] = []
            if node.args:
                callables.append(("task_fn", node.args[0]))
            payload_value: ast.AST | None = None
            for kw in node.keywords:
                if kw.arg in ("task_fn", "init_fn"):
                    callables.append((kw.arg, kw.value))
                elif kw.arg == "payload":
                    payload_value = kw.value

            for role, value in callables:
                yield from self._check_callable(module, role, value, module_level_fns, nested)
            if payload_value is not None:
                yield from self._check_payload(module, payload_value, risky)

    @staticmethod
    def _risky_assignments(scope: ast.AST) -> dict[str, str]:
        """name -> factory for names bound to unpicklable resources in scope."""
        risky: dict[str, str] = {}
        for sub in ast.walk(scope):
            if not isinstance(sub, ast.Assign) or not isinstance(sub.value, ast.Call):
                continue
            value_name = dotted_name(sub.value.func)
            if value_name is None:
                continue
            tail = value_name.rsplit(".", 1)[-1]
            is_risky = (
                value_name in _UNPICKLABLE_FACTORIES
                or tail == "SharedMemory"
                or tail.startswith(("publish_", "attach_"))
            )
            if not is_risky:
                continue
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    risky[target.id] = value_name
        return risky

    @staticmethod
    def _nested_functions(scope: ast.AST) -> set[str]:
        if isinstance(scope, ast.Module):
            return set()
        return {
            sub.name
            for sub in ast.walk(scope)
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not scope
        }

    def _check_callable(
        self,
        module: LintModule,
        role: str,
        value: ast.AST,
        module_level_fns: set[str],
        nested: set[str],
    ) -> Iterator[Finding]:
        if isinstance(value, ast.Lambda):
            yield Finding(
                code=self.code,
                message=(
                    f"{role} is a lambda: lambdas cannot be pickled into process "
                    "workers; use a module-level function"
                ),
                path=module.rel,
                line=value.lineno,
                col=value.col_offset,
            )
        elif isinstance(value, ast.Name) and value.id in nested and value.id not in module_level_fns:
            yield Finding(
                code=self.code,
                message=(
                    f"{role}={value.id!r} is a nested function: closures cannot be "
                    "pickled into process workers; hoist it to module level"
                ),
                path=module.rel,
                line=value.lineno,
                col=value.col_offset,
            )

    def _check_payload(
        self, module: LintModule, payload: ast.AST, risky: dict[str, str]
    ) -> Iterator[Finding]:
        def scan(node: ast.AST, inside_attribute: bool) -> Iterator[Finding]:
            if isinstance(node, ast.Lambda):
                yield Finding(
                    code=self.code,
                    message="payload contains a lambda: not picklable across processes",
                    path=module.rel,
                    line=node.lineno,
                    col=node.col_offset,
                )
                return
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name == "open":
                    yield Finding(
                        code=self.code,
                        message=(
                            "payload contains an open(...) handle: file objects cannot "
                            "cross a process boundary; pass the path instead"
                        ),
                        path=module.rel,
                        line=node.lineno,
                        col=node.col_offset,
                    )
            if isinstance(node, ast.Attribute):
                if node.attr in ("shm", "buf"):
                    yield Finding(
                        code=self.code,
                        message=(
                            f"payload captures a shared-memory view (.{node.attr}): pass "
                            "the manifest (name/shape/dtype) and re-attach in the worker"
                        ),
                        path=module.rel,
                        line=node.lineno,
                        col=node.col_offset,
                    )
                # `shared.manifest` extracts a picklable field from a risky
                # object; only the bare name itself is a violation.
                yield from scan(node.value, True)
                return
            if isinstance(node, ast.Name) and not inside_attribute and node.id in risky:
                yield Finding(
                    code=self.code,
                    message=(
                        f"payload element {node.id!r} was created by "
                        f"{risky[node.id]}(...) and holds an OS resource; it cannot be "
                        "pickled into a worker — ship a manifest/path and reopen there"
                    ),
                    path=module.rel,
                    line=node.lineno,
                    col=node.col_offset,
                )
            for child in ast.iter_child_nodes(node):
                yield from scan(child, False)

        yield from scan(payload, False)


# ---------------------------------------------------------------------------
# RPL006 — async safety
# ---------------------------------------------------------------------------

#: Dotted-name calls that block the calling thread outright.  Inside an
#: ``async def`` they stall the whole event loop — every open connection,
#: every pending response — for their full duration.
_BLOCKING_CALLS: dict[str, str] = {
    "time.sleep": "use `await asyncio.sleep(...)`",
    "open": "do file I/O before entering the loop or via run_in_executor",
    "input": "the loop thread must never wait on a terminal read",
    "subprocess.run": "use `await asyncio.create_subprocess_exec(...)`",
    "subprocess.call": "use `await asyncio.create_subprocess_exec(...)`",
    "subprocess.check_call": "use `await asyncio.create_subprocess_exec(...)`",
    "subprocess.check_output": "use `await asyncio.create_subprocess_exec(...)`",
    "os.system": "use `await asyncio.create_subprocess_shell(...)`",
    "socket.create_connection": "use `await asyncio.open_connection(...)`",
}

#: Blocking *method* suffixes: flagged on any receiver, because the
#: receiver's type is unknowable lexically and every stdlib bearer of the
#: name (file handles, Path objects, sync sockets) blocks.
_BLOCKING_METHOD_TAILS: dict[str, str] = {
    "read_text": "read the file before entering the loop or via run_in_executor",
    "read_bytes": "read the file before entering the loop or via run_in_executor",
    "write_text": "write the file via run_in_executor",
    "write_bytes": "write the file via run_in_executor",
}


class AsyncSafetyRule(Rule):
    code = "RPL006"
    name = "async-safety"
    description = (
        "async def bodies must not block the event loop: no time.sleep, sync "
        "file I/O, subprocess calls, or un-awaited .acquire() without timeout"
    )

    def check_module(self, module: LintModule, project: Project) -> Iterator[Finding]:
        tree = module.tree
        assert tree is not None
        for node in ast.walk(tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_body(module, node)

    def _check_async_body(
        self, module: LintModule, fn: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        # Nested defs/lambdas run on their own call stacks (often handed to
        # run_in_executor precisely to get blocking work off the loop), so
        # the walk stays within this coroutine's own body.
        awaited: set[int] = set()
        for sub in _walk_no_nested_functions(fn):
            if isinstance(sub, ast.Await) and isinstance(sub.value, ast.Call):
                awaited.add(id(sub.value))
        for sub in _walk_no_nested_functions(fn):
            if not isinstance(sub, ast.Call):
                continue
            name = dotted_name(sub.func)
            if name is None:
                continue
            if name in _BLOCKING_CALLS:
                yield self._finding(
                    module, sub, fn.name, name, _BLOCKING_CALLS[name]
                )
                continue
            tail = name.rsplit(".", 1)[-1]
            if "." in name and tail in _BLOCKING_METHOD_TAILS:
                yield self._finding(
                    module, sub, fn.name, name, _BLOCKING_METHOD_TAILS[tail]
                )
                continue
            if (
                name.endswith(".acquire")
                and id(sub) not in awaited  # `await lock.acquire()` is asyncio
                and not sub.args
                and not any(kw.arg == "timeout" for kw in sub.keywords)
            ):
                yield self._finding(
                    module,
                    sub,
                    fn.name,
                    name,
                    "an unbounded lock acquisition parks the loop thread; "
                    "pass a timeout or use an asyncio.Lock",
                )

    def _finding(
        self,
        module: LintModule,
        node: ast.Call,
        fn_name: str,
        call_name: str,
        fix: str,
    ) -> Finding:
        return Finding(
            code=self.code,
            message=(
                f"blocking call {call_name}(...) inside async def {fn_name!r} "
                f"stalls the event loop; {fix}"
            ),
            path=module.rel,
            line=node.lineno,
            col=node.col_offset,
        )


ALL_RULES: tuple[Rule, ...] = (
    DeterminismRule(),
    SignalSafetyRule(),
    ShmLifecycleRule(),
    KernelContractRule(),
    PayloadRule(),
    AsyncSafetyRule(),
)


def rule_by_code(code: str) -> Rule | None:
    for rule in ALL_RULES:
        if rule.code == code:
            return rule
    return None
