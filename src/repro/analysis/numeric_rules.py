"""RPR101-RPR104: numeric-safety rules backed by the dataflow analyzer.

The kernel modules (``curves/``, ``onedim/``, ``multidim/``,
``models/``, ``bench/batch.py``) move SOSD-style 64-bit integer keys and
62-bit curve codes through numpy dtype boundaries; these rules use
:mod:`repro.analysis.dataflow` to flag the boundary crossings that
provably lose information:

* **RPR101** — shift/interleave results exceeding the int64 code budget,
  spread-table masks narrower than the budget admits, and vectorised
  curve kernels missing a code-budget guard (scoped to ``curves/``).
* **RPR102** — integer values provably wider than 53 bits flowing into a
  float64 cast with no ``2**53`` magnitude guard (the sanctioned guard
  is :func:`repro.core.numeric.exact_float64`).
* **RPR103** — ``searchsorted``/comparison operands mixing a float array
  with integers wider than 53 bits (the float side cannot represent the
  int side, so routing silently collapses distinct keys).
* **RPR104** — ``uint64``/``int64`` round-trips that can drop the top
  bit or wrap a negative value.

All four fire only on *provable* violations (a known magnitude bound
crossing a capacity); unknown widths stay silent, and the
``REPRO_SANITIZE=1`` runtime checks cover them dynamically.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.dataflow import (
    AbstractValue,
    FunctionFacts,
    ModuleFacts,
    _const_int,
    analyze_module,
    bit_width,
    parse_spread_table,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import AnalysisContext, _mk, rule
from repro.analysis.source import SourceFile

__all__ = ["KERNEL_DIRS"]

#: Package subtrees whose numerics the RPR1xx family watches.
KERNEL_DIRS = ("curves", "onedim", "multidim", "models")

#: int64 codes must keep the sign bit clear: the shared curve budget.
_CODE_BUDGET_BITS = 62

_FLOAT64_SAFE_BITS = 53

_NUMPY_INT_DTYPES = {"int64", "uint64", "int32", "uint32", "intp"}


def _facts(src: SourceFile) -> ModuleFacts | None:
    """Dataflow facts of ``src``, computed once and kept on the object.

    Not a module-level cache keyed by ``id(src)``: ids are recycled as
    soon as a ``SourceFile`` is collected, so a later file could be
    handed an earlier file's facts.
    """
    if src.tree is None:
        return None
    facts: ModuleFacts | None = src.__dict__.get("_numeric_facts")
    if facts is None:
        facts = src.__dict__["_numeric_facts"] = analyze_module(src.tree)
    return facts


def _rel_parts(src: SourceFile) -> tuple[str, ...]:
    return tuple(src.rel.replace("\\", "/").split("/"))


def _in_kernel_scope(src: SourceFile, curves_only: bool = False) -> bool:
    """Whether RPR1xx rules apply to this file.

    Files outside ``src/repro`` (explicit CLI paths, test fixtures) are
    always in scope; inside the package only the kernel subtrees are.
    """
    parts = _rel_parts(src)
    if parts[:2] != ("src", "repro"):
        return True
    sub = parts[2:]
    if not sub:
        return False
    if curves_only:
        return sub[0] == "curves"
    if sub[0] in KERNEL_DIRS:
        return True
    return sub == ("bench", "batch.py")


def _int_capacity(dtype: str | None) -> int | None:
    """Magnitude bits an integer dtype can hold without corruption."""
    if dtype == "uint64":
        return 64
    if dtype in ("int64", "intp"):
        return 63
    if dtype == "uint32":
        return 32
    if dtype == "int32":
        return 31
    return None


def _astype_sites(fn: FunctionFacts) -> Iterator[tuple[ast.Call, str, AbstractValue]]:
    """Yield ``(call, target_dtype, operand_value)`` for every cast."""
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name == "astype" and isinstance(func, ast.Attribute) and node.args:
            dtype = _dtype_name(node.args[0])
            if dtype is not None:
                yield node, dtype, fn.value_of(func.value)
        elif name in ("asarray", "array", "ascontiguousarray") and node.args:
            dtype_node = next((kw.value for kw in node.keywords
                               if kw.arg == "dtype"), None)
            dtype = _dtype_name(dtype_node) if dtype_node is not None else None
            if dtype is not None:
                yield node, dtype, fn.value_of(node.args[0])
        elif name in ("float64", "uint64", "int64") and len(node.args) == 1:
            yield node, name, fn.value_of(node.args[0])


def _dtype_name(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@rule(
    "RPR101",
    "code-budget overflow",
    Severity.ERROR,
    "Interleaved curve codes must fit the shared d * bits <= 62 int64 "
    "budget; masks and shifts that provably exceed it (or fast-path mask "
    "tables narrower than the budget admits) silently corrupt codes.",
    tags=("numeric", "curves"),
)
def rule_code_budget(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if not _in_kernel_scope(src, curves_only=True):
            continue
        module = _facts(src)
        if module is None:
            continue
        # Fast-path mask tables: each dimensionality's input mask must
        # admit every in-budget coordinate width (floor(62 / d) bits).
        for assign in module.spread_assigns:
            parsed = parse_spread_table(assign)
            if parsed is None:
                continue
            _, table = parsed
            for dims, mask in sorted(table.masks.items()):
                admitted = _CODE_BUDGET_BITS // dims
                if mask.bit_length() < admitted:
                    yield _mk(
                        "RPR101", src, assign.lineno, assign.col_offset,
                        f"spread-table input mask for d={dims} keeps only "
                        f"{mask.bit_length()} bits but the {_CODE_BUDGET_BITS}-bit "
                        f"code budget admits {admitted}-bit coordinates; the "
                        "fast path would silently truncate in-budget inputs",
                    )
        for fn in module.functions:
            yield from _overflowing_arithmetic(src, fn)
            yield from _missing_budget_guard(src, fn)


def _overflowing_arithmetic(src: SourceFile, fn: FunctionFacts) -> Iterator[Finding]:
    for node in ast.walk(fn.node):
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.LShift, ast.Add, ast.Mult, ast.BitOr)):
            value = fn.value_of(node)
            capacity = _int_capacity(value.dtype) if value.is_int else None
            width = bit_width(value)
            if capacity is not None and width is not None and width > capacity:
                yield _mk(
                    "RPR101", src, node.lineno, node.col_offset,
                    f"{value.dtype} arithmetic result can need {width} bits "
                    f"(> {capacity}-bit capacity): the interleave/shift "
                    "pipeline can wrap past the code budget",
                )
    for call, dtype, operand in _astype_sites(fn):
        capacity = _int_capacity(dtype)
        width = bit_width(operand)
        if capacity is None or width is None or not operand.is_int:
            continue
        if width > capacity:
            yield _mk(
                "RPR101", src, call.lineno, call.col_offset,
                f"cast to {dtype} of an integer needing up to {width} bits "
                f"overflows its {capacity}-bit capacity",
            )


def _missing_budget_guard(src: SourceFile, fn: FunctionFacts) -> Iterator[Finding]:
    if fn.node.name.startswith("_"):
        return
    has_shift = any(
        isinstance(n, ast.BinOp) and isinstance(n.op, (ast.LShift, ast.RShift))
        and _const_int(n) is None  # mask literals like (1 << k) - 1 don't count
        for n in ast.walk(fn.node)
    )
    if not has_shift:
        return
    uses_spreading = bool(
        {"_spread", "_compact", "interleave_array"} & fn.called_names
    ) or any(dtype == "uint64" for _, dtype, _ in _astype_sites(fn))
    if not uses_spreading:
        return
    if fn.has_budget_guard:
        return
    yield _mk(
        "RPR101", src, fn.node.lineno, fn.node.col_offset,
        f"vectorised curve kernel '{fn.node.name}' shifts/spreads bits but "
        "never checks the d * bits <= 62 code budget "
        "(call repro.curves.capacity.require_code_budget or fits_code_budget)",
    )


@rule(
    "RPR102",
    "lossy float64 cast",
    Severity.ERROR,
    "Integer keys/codes wider than 53 bits lose precision under float64 "
    "casts, silently merging distinct keys; use "
    "repro.core.numeric.exact_float64 or an explicit 2^53 guard.",
    tags=("numeric",),
)
def rule_lossy_float_cast(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if not _in_kernel_scope(src):
            continue
        module = _facts(src)
        if module is None:
            continue
        for fn in module.functions:
            if fn.has_float64_guard:
                continue
            for call, dtype, operand in _astype_sites(fn):
                if dtype not in ("float64", "float32"):
                    continue
                width = bit_width(operand)
                if operand.is_int and width is not None and width > _FLOAT64_SAFE_BITS:
                    yield _mk(
                        "RPR102", src, call.lineno, call.col_offset,
                        f"integer values up to {width} bits wide are cast to "
                        f"{dtype} without a 2^{_FLOAT64_SAFE_BITS} magnitude "
                        "guard; distinct keys can merge — use "
                        "repro.core.numeric.exact_float64",
                    )


@rule(
    "RPR103",
    "mixed-dtype routing",
    Severity.ERROR,
    "searchsorted/comparisons mixing a float operand with >53-bit "
    "integers route through lossy implicit conversions, so lookups can "
    "land on the wrong run of keys.",
    tags=("numeric",),
)
def rule_mixed_dtype_routing(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if not _in_kernel_scope(src):
            continue
        module = _facts(src)
        if module is None:
            continue
        for fn in module.functions:
            for node in ast.walk(fn.node):
                pairs: list[tuple[AbstractValue, AbstractValue]] = []
                if isinstance(node, ast.Call):
                    name = node.func.attr if isinstance(node.func, ast.Attribute) \
                        else (node.func.id if isinstance(node.func, ast.Name) else None)
                    if name == "searchsorted" and len(node.args) >= 2:
                        pairs.append((fn.value_of(node.args[0]),
                                      fn.value_of(node.args[1])))
                elif isinstance(node, ast.Compare):
                    left = fn.value_of(node.left)
                    for comparator in node.comparators:
                        pairs.append((left, fn.value_of(comparator)))
                for a, b in pairs:
                    wide = _wide_int_against_float(a, b)
                    if wide is not None:
                        label = "searchsorted" if isinstance(node, ast.Call) \
                            else "comparison"
                        yield _mk(
                            "RPR103", src, node.lineno, node.col_offset,
                            f"{label} mixes a float operand with integers up "
                            f"to {wide} bits wide (> {_FLOAT64_SAFE_BITS}-bit "
                            "float64 precision): keep both sides integral or "
                            "cast via exact_float64",
                        )
                        break


def _wide_int_against_float(a: AbstractValue, b: AbstractValue) -> int | None:
    for int_side, float_side in ((a, b), (b, a)):
        if not (int_side.is_int and float_side.is_float):
            continue
        width = bit_width(int_side)
        if width is not None and width > _FLOAT64_SAFE_BITS:
            return width
    return None


@rule(
    "RPR104",
    "signed/unsigned round-trip",
    Severity.ERROR,
    "uint64 -> int64 casts with the top bit possibly set flip the sign, "
    "and int -> uint64 casts of possibly-negative values wrap to huge "
    "codes; both corrupt curve codes silently.",
    tags=("numeric",),
)
def rule_sign_roundtrip(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if not _in_kernel_scope(src):
            continue
        module = _facts(src)
        if module is None:
            continue
        for fn in module.functions:
            for call, dtype, operand in _astype_sites(fn):
                width = bit_width(operand)
                if not operand.is_int:
                    continue
                if dtype in ("int64", "intp") and operand.dtype == "uint64" \
                        and width is not None and width >= 64:
                    yield _mk(
                        "RPR104", src, call.lineno, call.col_offset,
                        f"uint64 value needing up to {width} bits is cast to "
                        "int64: the top bit becomes the sign bit and the code "
                        "goes negative",
                    )
                elif dtype in ("uint64", "uint32") and operand.maybe_negative \
                        and width is not None:
                    yield _mk(
                        "RPR104", src, call.lineno, call.col_offset,
                        f"possibly-negative integer (|x| <= 2^{width}) is cast "
                        f"to {dtype}: negative values wrap to huge codes; "
                        "clamp or validate non-negativity first",
                    )
