"""RPR206 — control-plane actuations must ride the store's locked methods.

The ``repro.tune`` control plane reshapes a live ``ShardedStore`` while
reader threads are mid-flight.  The store's re-partition methods
(``rebalance`` / ``rebuild_shard`` / ``retune_shard``) make that safe:
they take the shard locks in rank order, mutate, and bump the per-shard
generation counters so caches and batch snapshots self-invalidate.  A
control-plane module that reaches past that surface — writing
``store.generations`` itself, calling ``store.shards[i].compact()``
directly, or touching ``_bounds`` / ``_locks`` — reproduces the store's
locking discipline by hand, and one missed generation bump silently
serves stale cached results after a re-partition.

RPR206 enforces the contract from both sides:

* **tune-side** (files under a ``tune`` path segment): no writes to
  store bookkeeping attributes, no loads of store-private state, and no
  mutating calls on ``.shards[...]`` receivers — actuations go through
  the store's public re-partition methods only.
* **serve-side** (files under a ``serve`` path segment): every method
  in the ``rebalance`` / ``rebuild`` / ``retune`` family must lexically
  write a ``generations`` attribute (or delegate to a same-class
  family method) — the other half of the bargain the tune side relies
  on.

Both checks are purely syntactic, so the rule runs on fixture trees
without a registry, and the runtime lock-order witness
(``REPRO_SANITIZE=1``) cross-validates the discipline dynamically.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import AnalysisContext, _mk, rule
from repro.analysis.source import SourceFile

__all__ = ["rule_tuner_actuation_discipline"]

#: Store bookkeeping no control-plane code may write.
_STORE_BOOKKEEPING = frozenset({
    "generations", "shards", "_bounds", "_bounds_version", "_artifacts",
})

#: Store-private state no control-plane code may even read — holding or
#: inspecting these outside the store's own methods bypasses the
#: rank-ordered acquisition protocol.
_STORE_PRIVATE = frozenset({
    "_bounds", "_bounds_version", "_locks", "_artifacts",
})

#: Index mutators that re-shape a shard when called on it directly.
_SHARD_MUTATORS = frozenset({
    "build", "insert", "delete", "tune", "compact", "bulk_load", "merge",
})

#: Method-name family that owns re-partitioning on the serve side.
_REPARTITION_PREFIXES = ("rebalance", "rebuild", "retune")


def _attr_of_target(node: ast.expr) -> ast.Attribute | None:
    """The attribute being assigned for ``x.attr = ...`` / ``x.attr[i] = ...``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node
    return None


def _mentions_shards(node: ast.expr) -> bool:
    """True when the expression reaches through a ``.shards`` attribute."""
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "shards"
        for sub in ast.walk(node)
    )


def _in_segment(src: SourceFile, segment: str) -> bool:
    return segment in Path(src.rel).parts


def _tune_side(src: SourceFile) -> Iterator[Finding]:
    for node in ast.walk(src.tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                attr = _attr_of_target(target)
                if attr is not None and attr.attr in _STORE_BOOKKEEPING:
                    yield _mk(
                        "RPR206", src, node.lineno, node.col_offset,
                        f"control-plane write to store bookkeeping "
                        f"'.{attr.attr}' — actuate through "
                        f"rebalance()/rebuild_shard()/retune_shard() so the "
                        f"generation bump and lock order stay with the store",
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _SHARD_MUTATORS
                    and _mentions_shards(func.value)):
                yield _mk(
                    "RPR206", src, node.lineno, node.col_offset,
                    f"direct '.{func.attr}()' on a shard object bypasses "
                    f"the store's shard lock and generation bump — call the "
                    f"store's re-partition method instead",
                )
        elif isinstance(node, ast.Attribute) and node.attr in _STORE_PRIVATE:
            if isinstance(node.ctx, ast.Load):
                yield _mk(
                    "RPR206", src, node.lineno, node.col_offset,
                    f"control-plane access to store-private '.{node.attr}' — "
                    f"use the store's public surface (bounds, shard_sizes, "
                    f"re-partition methods)",
                )


def _writes_generations(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                attr = _attr_of_target(target)
                if attr is not None and attr.attr == "generations":
                    return True
        elif isinstance(node, ast.Call):
            # Delegation to a same-class family method keeps the bump
            # with whoever actually mutates.
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and func.attr.lstrip("_").startswith(_REPARTITION_PREFIXES)):
                return True
    return False


def _serve_side(src: SourceFile) -> Iterator[Finding]:
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if not item.name.lstrip("_").startswith(_REPARTITION_PREFIXES):
                continue
            if not _writes_generations(item):
                yield _mk(
                    "RPR206", src, item.lineno, item.col_offset,
                    f"{node.name}.{item.name} re-partitions without writing "
                    f"a generation counter — readers, caches and batch "
                    f"snapshots cannot detect the change",
                )


@rule(
    "RPR206",
    "tuner actuations must use lock-and-generation discipline",
    Severity.ERROR,
    "The self-tuning control plane mutates live shards; safety rests on "
    "every actuation flowing through the store's locked, "
    "generation-bumping re-partition methods.  Tune-side code that "
    "writes store bookkeeping, reads store-private lock state, or calls "
    "shard mutators directly re-implements that discipline by hand and "
    "one missed generation bump serves stale cache entries; serve-side "
    "re-partition methods that skip the generation write break the "
    "contract the control plane relies on.",
    tags=("concurrency", "tuning"),
)
def rule_tuner_actuation_discipline(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if _in_segment(src, "tune"):
            yield from _tune_side(src)
        if _in_segment(src, "serve"):
            yield from _serve_side(src)
