"""The RPR001-RPR010 contract rules.

Each rule is a function from an :class:`AnalysisContext` to an iterator
of findings, registered with its stable ID, severity, and rationale.
The contract rules (RPR001/RPR002) consult the live registry snapshot;
the remaining rules are purely syntactic so they also run on the test
fixtures and on arbitrary files passed to the CLI.

The rules encode the survey's uniform-API premise: cross-index results
in the paper are only comparable because every index answers the same
queries under the same measurement discipline (cost counters, seeded
randomness, floor-consistent cell routing).  See DESIGN.md for the
mapping from each rule to the failure it guards against.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.analysis.findings import Finding, RuleMeta, Severity
from repro.analysis.registry_view import BATCH_METHODS, RegistryView
from repro.analysis.source import SourceFile

__all__ = ["AnalysisContext", "RULES", "RULE_METADATA", "rule"]

#: Interface base-class names that mark an AST class as an index.
_ONE_DIM_BASES = {"OneDimIndex", "MutableOneDimIndex"}
_MULTI_DIM_BASES = {"MultiDimIndex", "MutableMultiDimIndex"}
_FILTER_BASES = {"MembershipFilter"}
_INDEX_BASES = _ONE_DIM_BASES | _MULTI_DIM_BASES | _FILTER_BASES

#: Query methods that answer user queries and therefore must account
#: their work in ``self.stats`` (RPR005) and check the built flag (RPR007).
_QUERY_METHODS = {
    "lookup",
    "contains",
    "range_query",
    "point_query",
    "knn_query",
    "might_contain",
    "lookup_batch",
    "contains_batch",
    "point_query_batch",
    "range_query_batch",
    "_lookup_batch",
    "_point_query_batch",
}

#: Function names that perform curve/cell routing: the scope of RPR003.
_ROUTING_NAME_RE = re.compile(r"quantize|cell|rout", re.IGNORECASE)

RuleFn = Callable[["AnalysisContext"], Iterator[Finding]]
RULES: dict[str, RuleFn] = {}
RULE_METADATA: dict[str, RuleMeta] = {}


def rule(rule_id: str, name: str, severity: Severity, rationale: str,
         tags: tuple[str, ...] = ()) -> Callable[[RuleFn], RuleFn]:
    """Register a rule function under its stable ID."""

    def decorate(fn: RuleFn) -> RuleFn:
        RULES[rule_id] = fn
        RULE_METADATA[rule_id] = RuleMeta(rule_id, name, severity, rationale, tags)
        return fn

    return decorate


@dataclass
class AnalysisContext:
    """Everything a rule may look at.

    ``registry`` is ``None`` when the CLI analyses explicit paths that
    are not the installed package (e.g. test fixtures) — the contract
    rules then skip silently and only the syntactic rules run.
    """

    root: Path
    files: list[SourceFile] = field(default_factory=list)
    registry: RegistryView | None = None
    #: Source of tests/core/test_batch_parity.py when found (RPR002).
    parity_test: SourceFile | None = None

    def file_for(self, filename: str) -> SourceFile | None:
        """The scanned file whose absolute path is ``filename``."""
        target = Path(filename).resolve()
        for src in self.files:
            if src.path.resolve() == target:
                return src
        return None


def _mk(rule_id: str, src: SourceFile, node_line: int, col: int, message: str) -> Finding:
    return Finding(
        rule_id=rule_id,
        severity=RULE_METADATA[rule_id].severity,
        path=src.rel,
        line=node_line,
        col=col,
        message=message,
    )


def _dotted_name(node: ast.expr) -> str | None:
    """Render ``a.b.c`` attribute/name chains; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _index_classes(src: SourceFile) -> Iterator[tuple[ast.ClassDef, str]]:
    """AST index classes in ``src`` with their interface family.

    Family is ``"onedim"``, ``"multidim"``, ``"filter"``, or
    ``"derived"`` (subclasses of another concrete index, whose family
    the AST alone cannot see).
    """
    if src.tree is None:
        return
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        base_names = {
            name.rsplit(".", 1)[-1]
            for name in (_dotted_name(b) for b in node.bases)
            if name is not None
        }
        if base_names & _ONE_DIM_BASES:
            yield node, "onedim"
        elif base_names & _MULTI_DIM_BASES:
            yield node, "multidim"
        elif base_names & _FILTER_BASES:
            yield node, "filter"
        elif any(b.endswith(("Index", "LSM", "SkipList", "Filter")) for b in base_names):
            yield node, "derived"


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _self_attr(node: ast.expr, attr: str | None = None) -> bool:
    """Whether ``node`` is ``self.<attr>`` (any attribute when None)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


# ---------------------------------------------------------------------------
# RPR001 — full abstract surface + registry membership
# ---------------------------------------------------------------------------
@rule(
    "RPR001",
    "contract-surface",
    Severity.ERROR,
    "Every concrete index class must implement the full abstract surface of "
    "its core.interfaces base and be reachable from the survey registry "
    "(core.registry implemented=...) or a bench factory dict — otherwise it "
    "silently escapes the uniform benchmark contract.",
    ("contract", "registry"),
)
def check_contract_surface(ctx: AnalysisContext) -> Iterator[Finding]:
    if ctx.registry is None:
        return
    for info in ctx.registry.classes:
        src = ctx.file_for(info.filename)
        if src is None:
            continue
        if info.missing_abstract:
            yield _mk(
                "RPR001", src, info.lineno, 0,
                f"{info.name} leaves abstract methods unimplemented: "
                f"{', '.join(info.missing_abstract)}",
            )
        if not info.in_registry and not info.factory_names:
            yield _mk(
                "RPR001", src, info.lineno, 0,
                f"{info.name} is neither an `implemented=` target in "
                f"core.registry nor constructible from a bench factory dict; "
                f"it escapes the uniform contract suites",
            )


# ---------------------------------------------------------------------------
# RPR002 — batch overrides covered by the parity suite
# ---------------------------------------------------------------------------
@rule(
    "RPR002",
    "batch-parity-coverage",
    Severity.ERROR,
    "Every batch override — the _lookup_batch/_point_query_batch kernels "
    "behind the public entry points, and any lookup_batch/point_query_batch/"
    "range_query_batch override — must be reachable from the factory dicts "
    "the batch-parity tests parametrize over, so a vectorized fast path can "
    "never silently diverge from the scalar semantics.",
    ("contract", "batch"),
)
def check_batch_parity_coverage(ctx: AnalysisContext) -> Iterator[Finding]:
    if ctx.registry is None:
        return
    for info in ctx.registry.classes:
        src = ctx.file_for(info.filename)
        if src is None:
            continue
        for meth in info.batch_overrides:
            dict_name = BATCH_METHODS[meth]
            members = ctx.registry.factory_members.get(dict_name, set())
            if info.qualname not in members:
                yield _mk(
                    "RPR002", src, info.lineno, 0,
                    f"{info.name} overrides {meth} but is not constructible "
                    f"from {dict_name}, so the batch-parity suite never "
                    f"exercises the override",
                )
    # Meta-check: the parity test must still parametrize over the dicts.
    if ctx.parity_test is not None:
        for dict_name in ("ONE_DIM_FACTORIES", "MULTI_DIM_FACTORIES"):
            if dict_name not in ctx.parity_test.text:
                yield _mk(
                    "RPR002", ctx.parity_test, 1, 0,
                    f"batch-parity test no longer references {dict_name}; "
                    f"override coverage is unverifiable",
                )


# ---------------------------------------------------------------------------
# RPR003 — floor-consistent curve/cell routing (the PR 2 bug class)
# ---------------------------------------------------------------------------
@rule(
    "RPR003",
    "no-round-in-routing",
    Severity.ERROR,
    "Curve quantisation and grid cell routing must use floor semantics: "
    "np.rint/round in routing code makes the curve layer and the grid layer "
    "disagree about which cell owns a point (the exact bug PR 2 fixed).",
    ("routing", "curves"),
)
def check_no_round_in_routing(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if src.tree is None:
            continue
        in_curves = "curves" in Path(src.rel).parts
        for func in ast.walk(src.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not in_curves and not _ROUTING_NAME_RE.search(func.name):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                bad: str | None = None
                if isinstance(node.func, ast.Name) and node.func.id == "round":
                    bad = "round()"
                elif isinstance(node.func, ast.Attribute) and node.func.attr == "rint":
                    bad = f"{_dotted_name(node.func) or 'rint'}()"
                if bad is not None:
                    yield _mk(
                        "RPR003", src, node.lineno, node.col_offset,
                        f"{bad} in routing code ({func.name}); use floor "
                        f"semantics so curve and grid layers route to the "
                        f"same cell",
                    )


# ---------------------------------------------------------------------------
# RPR004 — no unseeded / global-state randomness in library code
# ---------------------------------------------------------------------------
_SEEDED_CONSTRUCTORS = {"Generator", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}


@rule(
    "RPR004",
    "no-unseeded-rng",
    Severity.ERROR,
    "Library code must take an explicit seed or Generator: legacy "
    "np.random.* global-state calls and zero-argument default_rng() make "
    "benchmark shapes unreproducible across runs.",
    ("reproducibility",),
)
def check_no_unseeded_rng(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if src.tree is None:
            continue
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            message: str | None = None
            if dotted is not None and (
                dotted.startswith("np.random.") or dotted.startswith("numpy.random.")
            ):
                leaf = dotted.rsplit(".", 1)[-1]
                if leaf == "seed":
                    message = f"{dotted}() reseeds global state; pass a Generator instead"
                elif leaf == "default_rng":
                    if not node.args and not node.keywords:
                        message = f"{dotted}() without a seed is unreproducible"
                elif leaf not in _SEEDED_CONSTRUCTORS:
                    message = (
                        f"{dotted}() uses numpy's global RNG state; take a "
                        f"seeded np.random.Generator instead"
                    )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id == "default_rng"
                and not node.args
                and not node.keywords
            ):
                message = "default_rng() without a seed is unreproducible"
            if message is not None:
                yield _mk("RPR004", src, node.lineno, node.col_offset, message)


# ---------------------------------------------------------------------------
# RPR005 — query scans must account work in self.stats
# ---------------------------------------------------------------------------
def _has_scan(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.While, ast.ListComp, ast.SetComp,
                             ast.DictComp, ast.GeneratorExp)):
            return True
    return False


def _touches_stats(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and node.attr == "stats":
            return True
    return False


def _delegates(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether the method calls other ``self.*`` methods (which count)."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and _self_attr(node.func):
            if node.func.attr not in {"_require_built"}:  # type: ignore[union-attr]
                return True
    return False


@rule(
    "RPR005",
    "stats-accounting",
    Severity.WARNING,
    "Query methods that scan or compare stored data must touch self.stats: "
    "the survey's machine-independent cost counters are the only "
    "cross-machine-comparable benchmark output.",
    ("contract", "counters"),
)
def check_stats_accounting(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        for cls, _family in _index_classes(src):
            for name, func in _methods(cls).items():
                if name not in _QUERY_METHODS:
                    continue
                if not _has_scan(func):
                    continue
                if _touches_stats(func) or _delegates(func):
                    continue
                yield _mk(
                    "RPR005", src, func.lineno, func.col_offset,
                    f"{cls.name}.{name} scans data but never touches "
                    f"self.stats; cost counters are part of the query "
                    f"contract",
                )


# ---------------------------------------------------------------------------
# RPR006 — no mutable default arguments
# ---------------------------------------------------------------------------
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "Counter",
                  "OrderedDict", "deque"}


@rule(
    "RPR006",
    "no-mutable-defaults",
    Severity.ERROR,
    "Mutable default arguments are shared across calls; a default buffer or "
    "config dict mutated by one index build leaks into the next.",
    ("correctness",),
)
def check_no_mutable_defaults(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if src.tree is None:
            continue
        for func in ast.walk(src.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(func.args.defaults) + [
                d for d in func.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(
                    default,
                    (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp),
                ) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS
                )
                if mutable:
                    yield _mk(
                        "RPR006", src, default.lineno, default.col_offset,
                        f"mutable default argument in {func.name}(); use "
                        f"None and allocate inside the function",
                    )


# ---------------------------------------------------------------------------
# RPR007 — built-flag discipline
# ---------------------------------------------------------------------------
def _sets_built(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and any(
            _self_attr(t, "_built") for t in node.targets
        ):
            return True
        if isinstance(node, ast.AnnAssign) and _self_attr(node.target, "_built"):
            return True
        # Delegation: super().build(...) or self.<anything>build<anything>(...)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if "build" in node.func.attr:
                value = node.func.value
                if _self_attr(node.func) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "super"
                ):
                    return True
    return False


def _checks_built(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and node.attr in ("_require_built", "_built"):
            return True
    return False


@rule(
    "RPR007",
    "built-flag-discipline",
    Severity.ERROR,
    "build() must set self._built (directly or via super().build) and scalar "
    "query entry points must call self._require_built(), so querying an "
    "unbuilt index raises NotBuiltError instead of returning garbage.",
    ("contract", "lifecycle"),
)
def check_built_flag(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        for cls, family in _index_classes(src):
            if family == "filter":  # MembershipFilter has no built flag
                continue
            methods = _methods(cls)
            build = methods.get("build")
            if build is not None and not _sets_built(build):
                yield _mk(
                    "RPR007", src, build.lineno, build.col_offset,
                    f"{cls.name}.build() never sets self._built (and does "
                    f"not delegate to a build method that would)",
                )
            for name in ("lookup", "range_query", "point_query", "knn_query"):
                func = methods.get(name)
                if func is None:
                    continue
                if _checks_built(func) or _delegates(func):
                    continue
                yield _mk(
                    "RPR007", src, func.lineno, func.col_offset,
                    f"{cls.name}.{name} neither calls self._require_built() "
                    f"nor delegates to a method that does",
                )


# ---------------------------------------------------------------------------
# RPR008 — __all__ present and consistent
# ---------------------------------------------------------------------------
def _top_level_bindings(tree: ast.Module) -> tuple[set[str], bool]:
    """Names bound at module top level; bool is True on ``import *``."""
    bound: set[str] = set()
    star = False

    def visit(stmts: list[ast.stmt]) -> None:
        nonlocal star
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            bound.add(node.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                bound.add(stmt.target.id)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name == "*":
                        star = True
                    else:
                        bound.add(alias.asname or alias.name)
            elif isinstance(stmt, (ast.If, ast.Try)):
                visit(stmt.body)
                visit(getattr(stmt, "orelse", []))
                for handler in getattr(stmt, "handlers", []):
                    visit(handler.body)
                visit(getattr(stmt, "finalbody", []))

    visit(tree.body)
    return bound, star


@rule(
    "RPR008",
    "dunder-all-consistency",
    Severity.WARNING,
    "Public modules must declare __all__ and every listed name must exist: "
    "a stale __all__ silently breaks `from module import *` users.",
    ("api",),
)
def check_dunder_all(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if src.tree is None:
            continue
        stem = Path(src.rel).stem
        if stem.startswith("_") and stem != "__init__":
            continue
        all_node: ast.Assign | None = None
        for stmt in src.tree.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                all_node = stmt
                break
        if all_node is None:
            yield _mk(
                "RPR008", src, 1, 0,
                "public module defines no __all__; exports are undeclared",
            )
            continue
        if not isinstance(all_node.value, (ast.List, ast.Tuple)):
            continue  # computed __all__; out of scope for a static pass
        listed = [
            elt.value
            for elt in all_node.value.elts
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        ]
        bound, star = _top_level_bindings(src.tree)
        if star:
            continue
        for name in listed:
            if name not in bound:
                yield _mk(
                    "RPR008", src, all_node.lineno, all_node.col_offset,
                    f"__all__ lists {name!r} but the module never binds it",
                )


# ---------------------------------------------------------------------------
# RPR009 — serving-layer shard-lock discipline
# ---------------------------------------------------------------------------
#: Index-mutating method names whose receivers the serving layer guards.
_MUTATING_METHODS = {"build", "insert", "delete"}
_LOCK_NAME_RE = re.compile(r"lock", re.IGNORECASE)
_LOCK_FREE_RE = re.compile(r"lock[- ]free", re.IGNORECASE)


def _mentions_lock(node: ast.expr) -> bool:
    """Whether an expression references anything lock-named."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and _LOCK_NAME_RE.search(sub.attr):
            return True
        if isinstance(sub, ast.Name) and _LOCK_NAME_RE.search(sub.id):
            return True
    return False


def _unlocked_mutations(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.Call]:
    """Mutating calls on held references not under a lock-named ``with``.

    A call ``<recv>.build/insert/delete(...)`` counts unless the
    receiver is plain ``self`` (delegation to a method that is itself
    checked) or some enclosing ``with`` statement's context expression
    mentions a lock.
    """
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(func):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in ast.walk(func):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
        ):
            continue
        receiver = node.func.value
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            continue
        cursor: ast.AST = node
        locked = False
        while cursor in parents:
            parent = parents[cursor]
            if isinstance(parent, ast.With) and any(
                _mentions_lock(item.context_expr) for item in parent.items
            ):
                locked = True
                break
            cursor = parent
        if not locked:
            yield node


@rule(
    "RPR009",
    "serve-shard-lock-discipline",
    Severity.ERROR,
    "Serving-layer classes hold index references that worker threads "
    "mutate concurrently: every build/insert/delete on a held index must "
    "run under the owning shard's lock (or the class/method must document "
    "its lock-free or lock-delegating safety argument), otherwise two "
    "workers can interleave a structural rebuild with a read.",
    ("serve", "concurrency"),
)
def check_serve_shard_locks(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if src.tree is None or "serve" not in Path(src.rel).parts:
            continue
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            class_doc = ast.get_docstring(node) or ""
            if _LOCK_FREE_RE.search(class_doc):
                continue  # documented lock-free read safety
            for func in _methods(node).values():
                method_doc = ast.get_docstring(func) or ""
                if _LOCK_NAME_RE.search(method_doc):
                    continue  # documents where the lock is taken
                for call in _unlocked_mutations(func):
                    target = _dotted_name(call.func) or call.func.attr
                    yield _mk(
                        "RPR009", src, call.lineno, call.col_offset,
                        f"{node.name}.{func.name} calls {target}() on a held "
                        "index outside a shard lock and without documenting "
                        "the locking contract",
                    )


# ---------------------------------------------------------------------------
# RPR010 — shared-state snapshot discipline (the PR 6 contract)
# ---------------------------------------------------------------------------
#: The one serving-layer module allowed to create/unlink shm segments.
_SHM_OWNER_STEM = "shm"
_DIGEST_NAME_RE = re.compile(r"sha256|digest|verify", re.IGNORECASE)
_STATE_PAIR = ("export_state", "from_state")


def _is_shared_memory_ctor(node: ast.Call) -> bool:
    """Whether a call constructs ``multiprocessing.shared_memory.SharedMemory``."""
    dotted = _dotted_name(node.func)
    return dotted is not None and dotted.rsplit(".", 1)[-1] == "SharedMemory"


def _creates_segment(node: ast.Call) -> bool:
    """A SharedMemory(...) call that can allocate a new OS segment."""
    if not _is_shared_memory_ctor(node):
        return False
    for kw in node.keywords:
        if kw.arg == "create":
            return not (
                isinstance(kw.value, ast.Constant) and kw.value.value is False
            )
    return bool(node.args)  # positional create flag; attach-by-name uses name=


def _maps_shared_buffer(node: ast.Call) -> bool:
    """An ``np.ndarray(..., buffer=...)`` view over externally owned bytes."""
    dotted = _dotted_name(node.func)
    if dotted is None or dotted.rsplit(".", 1)[-1] != "ndarray":
        return False
    return any(kw.arg == "buffer" for kw in node.keywords)


def _mentions_digest(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and _DIGEST_NAME_RE.search(node.attr):
            return True
        if isinstance(node, ast.Name) and _DIGEST_NAME_RE.search(node.id):
            return True
    return False


@rule(
    "RPR010",
    "shared-state-snapshot-discipline",
    Severity.ERROR,
    "The multi-process serving backend shares built indexes through "
    "shared-memory snapshots; that only stays safe if (a) segment "
    "creation/unlinking is confined to repro.serve.shm so ownership and "
    "leak auditing have one choke point, (b) every function anywhere that "
    "maps ndarray views over a buffer (the block decoder lives in core) "
    "verifies the layout digest before trusting the bytes, and (c) export_state/from_state are "
    "overridden in pairs — a class flattening its state on export but "
    "inheriting the generic restore (or vice versa) reconstructs garbage.",
    ("serve", "shm", "state"),
)
def check_shared_state_discipline(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if src.tree is None:
            continue
        rel_parts = Path(src.rel).parts
        in_serve = "serve" in rel_parts
        is_owner = in_serve and Path(src.rel).stem == _SHM_OWNER_STEM
        if in_serve and not is_owner:
            for node in ast.walk(src.tree):
                if isinstance(node, ast.Call) and _creates_segment(node):
                    yield _mk(
                        "RPR010", src, node.lineno, node.col_offset,
                        "SharedMemory segment created outside repro.serve.shm; "
                        "route creation through pack_state so ownership and "
                        "the repro_serve_ audit prefix stay in one place",
                    )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unlink"
                    and re.search(
                        r"shm|segment|shared",
                        (_dotted_name(node.func.value) or "").lower(),
                    )
                ):
                    yield _mk(
                        "RPR010", src, node.lineno, node.col_offset,
                        "shared-memory unlink() outside repro.serve.shm; use "
                        "release_segment so retirement follows the "
                        "owner-unlinks-after-remap discipline",
                    )
        for func in ast.walk(src.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            maps = [n for n in ast.walk(func)
                    if isinstance(n, ast.Call) and _maps_shared_buffer(n)]
            if maps and not _mentions_digest(func):
                yield _mk(
                    "RPR010", src, maps[0].lineno, maps[0].col_offset,
                    f"{func.name} maps ndarray views over a shared buffer "
                    "without verifying the manifest digest first; a "
                    "truncated or recycled segment would be served as "
                    "index data",
                )
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            defined = {
                name for name in _STATE_PAIR if name in _methods(node)
            }
            if len(defined) == 1:
                present = next(iter(defined))
                missing = (_STATE_PAIR[1] if present == _STATE_PAIR[0]
                           else _STATE_PAIR[0])
                yield _mk(
                    "RPR010", src, node.lineno, node.col_offset,
                    f"{node.name} overrides {present} but not {missing}; the "
                    "export/restore pair must agree on the state layout or "
                    "reconstruction silently corrupts",
                )


# ---------------------------------------------------------------------------
# RPR011 — artifact digest-before-map discipline (the PR 7 contract)
# ---------------------------------------------------------------------------
#: File-to-ndarray mapping entry points: interpreting on-disk bytes as
#: typed array data (lazily or eagerly) without copying through a parser.
_FILE_MAP_CALLS = frozenset({"memmap", "fromfile"})
_PICKLE_LOAD_CALLS = frozenset({"load", "loads"})
_DISK_READ_METHODS = frozenset({"read", "read_bytes", "read_text"})


def _file_map_calls(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.Call]:
    """Calls in ``func`` that map file bytes into ndarrays."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted is not None and dotted.rsplit(".", 1)[-1] in _FILE_MAP_CALLS:
                yield node


def _unpickles_from_disk(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> ast.Call | None:
    """The first pickle load in ``func``, if ``func`` also reads from disk.

    In-memory unpickling (bytes handed in by a caller who already
    verified them) is out of scope; the hazard this rule polices is
    trusting *file* bytes — so a pickle load only counts when the same
    function opens or reads a file.
    """
    pickle_call: ast.Call | None = None
    reads_disk = False
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if parts[-1] in _PICKLE_LOAD_CALLS and "pickle" in parts[:-1]:
                if pickle_call is None:
                    pickle_call = node
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            reads_disk = True
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DISK_READ_METHODS
        ):
            reads_disk = True
    return pickle_call if reads_disk else None


@rule(
    "RPR011",
    "artifact-digest-before-map",
    Severity.ERROR,
    "The artifact store serves index bytes straight off disk (np.memmap "
    "views, raw np.fromfile reads, pickled payload blobs); that is only "
    "safe when every file is sha256-verified against the artifact "
    "manifest *before* any of its bytes are interpreted — mapping first "
    "and checking later (or never) serves a truncated or tampered file "
    "as index data, and unpickling unverified file bytes executes "
    "whatever the file says.  Mirrors RPR010's digest-before-map "
    "discipline for shared-memory segments.",
    ("artifact", "persistence", "integrity"),
)
def check_artifact_digest_discipline(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if src.tree is None:
            continue
        for func in ast.walk(src.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _mentions_digest(func):
                continue
            for call in _file_map_calls(func):
                target = _dotted_name(call.func) or "memmap"
                yield _mk(
                    "RPR011", src, call.lineno, call.col_offset,
                    f"{func.name} maps file bytes into an ndarray via "
                    f"{target}() without digest-verifying the file first; "
                    "a corrupt or tampered artifact would be served as "
                    "index data",
                )
            pickle_call = _unpickles_from_disk(func)
            if pickle_call is not None:
                yield _mk(
                    "RPR011", src, pickle_call.lineno, pickle_call.col_offset,
                    f"{func.name} unpickles bytes read from disk without "
                    "digest-verifying them first; pickle executes code, so "
                    "loading an unverified payload runs whatever the file "
                    "contains",
                )


# ---------------------------------------------------------------------------
# RPR012 — stale-suppression audit
# ---------------------------------------------------------------------------
@rule(
    "RPR012",
    "stale-suppression",
    Severity.ERROR,
    "A `# lint: disable=` comment that no longer silences any finding "
    "is a standing invitation to reintroduce the violation unnoticed; "
    "as rules evolve, dead directives must be deleted to keep the "
    "zero-suppression invariant honest.  A directive naming an unknown "
    "rule id is always stale.",
    ("hygiene",),
)
def check_stale_suppressions(ctx: AnalysisContext) -> Iterator[Finding]:
    """Implemented in :func:`repro.analysis.engine.run_analysis`.

    The audit needs the *suppressed* findings of every other selected
    rule, which only the engine sees after running them; this function
    exists to give RPR012 a stable registration, metadata, and
    selectability like any other rule.
    """
    del ctx
    return iter(())
