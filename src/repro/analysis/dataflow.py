"""Intraprocedural numeric dataflow over the stdlib AST.

The RPR1xx rules need to know, at every ``astype``/``searchsorted``/
shift site in the kernel modules, what *kind* of number flows in
(integer vs. float), which numpy dtype carries it, how large it can be,
and whether it can be negative.  This module computes that with a small
abstract interpreter:

* The abstract domain is :class:`AbstractValue` — ``(kind, dtype,
  max_abs, maybe_negative)`` where ``max_abs`` is an upper bound on the
  magnitude of any value the expression can take (``None`` = unknown).
  ``bit_width`` derives the familiar "bits needed" view from it.
* Constants are exact; arithmetic, shifts, and masks propagate bounds
  (``x & mask`` caps at the mask, ``x << k`` multiplies by ``2**k``,
  ``+`` adds bounds, ``*`` multiplies them).
* A small signature database records what the repository's own kernel
  primitives return — e.g. ``zencode_array``/``interleave_array`` yield
  int64 codes of at most :data:`~repro.curves.capacity.CODE_BUDGET_BITS`
  bits, ``quantize`` yields lattice coordinates of at most 31 bits —
  so facts cross function boundaries without interprocedural analysis.
* Parameter guards (``if bits < 1 or bits > 31: raise``) narrow the
  interval of the guarded parameter for the rest of the function.
* :func:`analyze_module` runs every function; methods get a second pass
  with a class-level attribute environment joined over all
  ``self.attr = ...`` assignments, so ``build`` artefacts keep their
  inferred dtypes inside the query methods.

The analysis is deliberately *under*-approximate in one direction: a
rule consuming these facts should only fire on **provable** violations
(known bound exceeding a capacity), never on unknowns — the
``REPRO_SANITIZE`` runtime checks cover what static bounds cannot.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Iterator

__all__ = [
    "AbstractValue",
    "TOP",
    "FunctionFacts",
    "ModuleFacts",
    "analyze_module",
    "bit_width",
    "thread_spawn_targets",
    "lock_aliases",
]

#: Upper bound (bits) assumed for array positions/sizes (searchsorted,
#: argsort, arange, len): far below the 2^53 float64-exact limit.
POSITION_BITS = 48

#: Attribute names whose values are known to be Python floats across the
#: repository (PLA :class:`~repro.models.pla.Segment` fields).
KNOWN_FLOAT_ATTRS = {"key", "slope", "anchor_pos", "intercept"}

#: Attribute names known to be small non-negative ints (array geometry,
#: segment slice bounds).
KNOWN_INT_ATTRS = {"size", "first", "last", "ndim"}

_INT_DTYPES = {"int64", "uint64", "int32", "int16", "int8",
               "uint32", "uint16", "uint8", "intp", "pyint"}
_FLOAT_DTYPES = {"float64", "float32", "pyfloat"}


@dataclass(frozen=True)
class AbstractValue:
    """One point of the numeric lattice.

    Attributes:
        kind: ``"int"``, ``"float"``, ``"bool"``, ``"other"`` or
            ``"unknown"``.
        dtype: numpy dtype name, ``"pyint"``/``"pyfloat"`` for Python
            scalars, or ``None`` when unknown.
        max_abs: upper bound on the magnitude of any value (``None`` =
            unbounded/unknown).
        maybe_negative: whether a negative value is possible.
    """

    kind: str = "unknown"
    dtype: str | None = None
    max_abs: int | None = None
    maybe_negative: bool = True

    @property
    def is_int(self) -> bool:
        return self.kind == "int"

    @property
    def is_float(self) -> bool:
        return self.kind == "float"


TOP = AbstractValue()


def bit_width(value: AbstractValue) -> int | None:
    """Bits needed for the magnitude bound, or ``None`` when unknown."""
    if value.max_abs is None:
        return None
    return int(value.max_abs).bit_length()


def _int(max_abs: int | None, dtype: str = "pyint",
         maybe_negative: bool = False) -> AbstractValue:
    return AbstractValue("int", dtype, max_abs, maybe_negative)


def _float(dtype: str = "float64") -> AbstractValue:
    return AbstractValue("float", dtype, None, True)


def join(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    """Least upper bound of two abstract values."""
    if a == b:
        return a
    if a.kind != b.kind:
        return TOP
    dtype = a.dtype if a.dtype == b.dtype else None
    if a.max_abs is None or b.max_abs is None:
        max_abs = None
    else:
        max_abs = max(a.max_abs, b.max_abs)
    return AbstractValue(a.kind, dtype, max_abs,
                         a.maybe_negative or b.maybe_negative)


# -- signature database -------------------------------------------------------

#: Return values of the repository's kernel primitives, by callee base name.
_SIGNATURES: dict[str, AbstractValue] = {
    # Curve encoders: int64 codes within the 62-bit budget.
    "zencode_array": _int((1 << 62) - 1, "int64"),
    "interleave_array": _int((1 << 62) - 1, "int64"),
    "hilbert_encode_array": _int((1 << 62) - 1, "int64"),
    # Lattice coordinates: at most 31 bits per dimension.
    "quantize": _int((1 << 31) - 1, "int64"),
    "deinterleave_array": _int((1 << 31) - 1, "int64"),
    # Scalar encoders return Python ints (possibly beyond 64 bits).
    "zencode": _int(None, "pyint"),
    "interleave": _int(None, "pyint"),
    "hilbert_encode": _int(None, "pyint"),
    # Positions and sizes.
    "searchsorted": _int((1 << POSITION_BITS) - 1, "int64"),
    "argsort": _int((1 << POSITION_BITS) - 1, "int64"),
    "arange": _int((1 << POSITION_BITS) - 1, "int64"),
    "len": _int((1 << POSITION_BITS) - 1, "pyint"),
    "lower_bound": _int((1 << POSITION_BITS) - 1, "pyint"),
    "bounded_binary_search": _int((1 << POSITION_BITS) - 1, "pyint"),
    "exponential_search": _int((1 << POSITION_BITS) - 1, "pyint"),
    "bounded_search_batch": _int((1 << POSITION_BITS) - 1, "int64"),
    # LearnedColumn's last mile returns what the bounded search does.
    "locate": _int((1 << POSITION_BITS) - 1, "pyint"),
    "search": _int((1 << POSITION_BITS) - 1, "pyint"),
    "locate_batch": _int((1 << POSITION_BITS) - 1, "int64"),
    "search_batch": _int((1 << POSITION_BITS) - 1, "int64"),
    # Sanctioned guarded cast (repro.core.numeric).
    "exact_float64": _float(),
    "dequantize": _float(),
    "segment_stream": AbstractValue("other"),
    "as_object_array": AbstractValue("other"),
}

#: numpy float-producing calls (result dtype float64 unless stated).
_FLOAT_CALLS = {"float64", "float32", "floor", "ceil", "rint", "sqrt",
                "log", "log2", "exp", "mean", "interp", "linspace"}

_DTYPE_NAMES = {
    "int64": "int64", "uint64": "uint64", "int32": "int32",
    "uint32": "uint32", "int16": "int16", "uint16": "uint16",
    "int8": "int8", "uint8": "uint8", "intp": "intp",
    "float64": "float64", "float32": "float32",
    "int": "pyint", "float": "pyfloat", "bool": "bool", "object": "object",
}


def _dtype_from_node(node: ast.expr | None) -> str | None:
    """Parse a dtype expression: ``np.int64``, ``int``, ``"int64"``..."""
    if node is None:
        return None
    if isinstance(node, ast.Attribute):
        return _DTYPE_NAMES.get(node.attr)
    if isinstance(node, ast.Name):
        return _DTYPE_NAMES.get(node.id)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _DTYPE_NAMES.get(node.value)
    return None


def _value_for_dtype(dtype: str | None, base: AbstractValue) -> AbstractValue:
    """Abstract value after casting ``base`` to ``dtype``."""
    if dtype is None:
        return TOP
    if dtype in _FLOAT_DTYPES:
        return AbstractValue("float", dtype, None, True)
    if dtype in _INT_DTYPES:
        max_abs = base.max_abs if base.is_int else None
        neg = base.maybe_negative if base.is_int else not dtype.startswith("u")
        return AbstractValue("int", dtype, max_abs, neg)
    if dtype == "bool":
        return AbstractValue("bool", "bool", 1, False)
    return AbstractValue("other", dtype, None, True)


def _callee_name(func: ast.expr) -> str | None:
    """Base name of a call target: ``np.searchsorted`` -> ``searchsorted``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


# -- module-level constant environment ---------------------------------------


@dataclass
class SpreadTable:
    """A magic-mask spreading table: per-dimension input masks."""

    masks: dict[int, int] = field(default_factory=dict)

    def joined_mask(self) -> int | None:
        return max(self.masks.values()) if self.masks else None


def _const_int(node: ast.expr) -> int | None:
    """Evaluate an int constant, unwrapping ``np.uint64(...)`` wrappers."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.Call) and len(node.args) == 1:
        name = _callee_name(node.func)
        if name in _INT_DTYPES:
            return _const_int(node.args[0])
    if isinstance(node, ast.BinOp):
        left = _const_int(node.left)
        right = _const_int(node.right)
        if left is None or right is None:
            return None
        try:
            if isinstance(node.op, ast.LShift):
                return left << right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Pow):
                return left ** right
        except (OverflowError, ValueError):
            return None
    return None


def parse_spread_table(node: ast.Assign) -> tuple[str, SpreadTable] | None:
    """Recognise module-level ``{d: ((steps...), in_mask)}`` mask tables."""
    if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
        return None
    if not isinstance(node.value, ast.Dict):
        return None
    table = SpreadTable()
    for key, value in zip(node.value.keys, node.value.values):
        if key is None:
            return None
        dims = _const_int(key)
        if dims is None or not isinstance(value, ast.Tuple) or len(value.elts) != 2:
            return None
        mask = _const_int(value.elts[1])
        if mask is None:
            return None
        table.masks[dims] = mask
    if not table.masks:
        return None
    return node.targets[0].id, table


# -- per-function results ------------------------------------------------------


@dataclass
class FunctionFacts:
    """Everything a rule needs about one analyzed function."""

    node: ast.FunctionDef
    qualname: str
    #: Abstract value of every evaluated expression, by ``id(node)``.
    values: dict[int, AbstractValue] = field(default_factory=dict)
    #: Call base names appearing anywhere in the body.
    called_names: set[str] = field(default_factory=set)
    #: Whether the function compares something against 2^53 (or references
    #: the FLOAT64_EXACT constants): an explicit magnitude guard.
    has_float64_guard: bool = False
    #: Whether the function mentions the shared code-budget helpers or an
    #: inline `* bits ... 62` comparison.
    has_budget_guard: bool = False

    def value_of(self, node: ast.expr) -> AbstractValue:
        return self.values.get(id(node), TOP)


@dataclass
class ModuleFacts:
    """Dataflow facts for every function in one module."""

    functions: list[FunctionFacts] = field(default_factory=list)
    spread_tables: dict[str, SpreadTable] = field(default_factory=dict)
    #: Module-level spread-table AST nodes (for capacity rules).
    spread_assigns: list[ast.Assign] = field(default_factory=list)


# -- the interpreter ----------------------------------------------------------


class _Interpreter:
    """Walks one function body, producing :class:`FunctionFacts`."""

    def __init__(self, facts: FunctionFacts, module: ModuleFacts,
                 attr_env: dict[str, AbstractValue],
                 attr_sink: dict[str, AbstractValue] | None) -> None:
        self.facts = facts
        self.module = module
        self.env: dict[str, AbstractValue] = {}
        #: class attribute facts visible as ``self.<name>``.
        self.attr_env = dict(attr_env)
        #: when not None, ``self.<name> = ...`` assignments are collected.
        self.attr_sink = attr_sink

    # -- statements -----------------------------------------------------------

    def run(self) -> None:
        self._seed_params()
        self._apply_param_guards()
        self._scan_guards()
        self._exec_body(self.facts.node.body)

    def _seed_params(self) -> None:
        args = self.facts.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            self.env[arg.arg] = TOP

    def _apply_param_guards(self) -> None:
        """Narrow parameters validated by early ``if ...: raise`` guards."""
        for stmt in self.facts.node.body:
            if not isinstance(stmt, ast.If):
                continue
            if not any(isinstance(s, ast.Raise) for s in stmt.body):
                continue
            for name, bound in _guard_bounds(stmt.test):
                if name in self.env:
                    self.env[name] = _int(bound, "pyint")

    def _scan_guards(self) -> None:
        """Record guard-style facts visible anywhere in the function."""
        for node in ast.walk(self.facts.node):
            if isinstance(node, ast.Call):
                name = _callee_name(node.func)
                if name:
                    self.facts.called_names.add(name)
                    if name in ("require_code_budget", "fits_code_budget"):
                        self.facts.has_budget_guard = True
                    if name == "exact_float64":
                        self.facts.has_float64_guard = True
            elif isinstance(node, ast.Constant) and node.value == (1 << 53):
                self.facts.has_float64_guard = True
            elif isinstance(node, (ast.Attribute, ast.Name)):
                label = node.attr if isinstance(node, ast.Attribute) else node.id
                if label.startswith("FLOAT64_EXACT"):
                    self.facts.has_float64_guard = True
            elif isinstance(node, ast.Compare):
                if _mentions_budget_compare(node):
                    self.facts.has_budget_guard = True
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                base = _const_int(node.left)
                exp = _const_int(node.right)
                if base == 2 and exp == 53:
                    self.facts.has_float64_guard = True

    def _exec_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, value, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value = self._eval(stmt.value)
            self._assign(stmt.target, value, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            left = self._eval(stmt.target)
            right = self._eval(stmt.value)
            combined = self._binop_value(stmt.op, left, right, stmt)
            self._assign(stmt.target, combined, None)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            before = dict(self.env)
            self._exec_body(stmt.body)
            after_body = self.env
            self.env = before
            self._exec_body(stmt.orelse)
            self._join_envs(after_body)
        elif isinstance(stmt, (ast.For, ast.While)):
            if isinstance(stmt, ast.For):
                self._eval(stmt.iter)
                self._assign(stmt.target, self._loop_target_value(stmt.iter), None)
            else:
                self._eval(stmt.test)
            self._exec_body(stmt.body)
            self._exec_body(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr)
            self._exec_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_body(stmt.body)
            for handler in stmt.handlers:
                self._exec_body(handler.body)
            self._exec_body(stmt.orelse)
            self._exec_body(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        # Nested defs/classes are analyzed separately; ignore here.

    def _join_envs(self, other: dict[str, AbstractValue]) -> None:
        for name, value in other.items():
            if name in self.env:
                self.env[name] = join(self.env[name], value)
            else:
                self.env[name] = value

    def _loop_target_value(self, iterator: ast.expr) -> AbstractValue:
        """Abstract value of a for-loop target."""
        if isinstance(iterator, ast.Call) and _callee_name(iterator.func) == "range":
            bounds = [self._eval(a) for a in iterator.args]
            if bounds and all(b.is_int and b.max_abs is not None for b in bounds):
                return _int(max(b.max_abs for b in bounds
                                if b.max_abs is not None), "pyint")
            return _int(None, "pyint")
        base = self._eval(iterator)
        if base.kind in ("int", "float"):
            return base
        return TOP

    def _assign(self, target: ast.expr, value: AbstractValue,
                source: ast.expr | None) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and target.value.id == "self":
            self.attr_env[target.attr] = value
            if self.attr_sink is not None:
                if target.attr in self.attr_sink:
                    self.attr_sink[target.attr] = join(
                        self.attr_sink[target.attr], value)
                else:
                    self.attr_sink[target.attr] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            spread = self._spread_unpack(source)
            if spread is not None and len(target.elts) == 2:
                first, second = target.elts
                if isinstance(first, ast.Name):
                    self.env[first.id] = AbstractValue("other")
                if isinstance(second, ast.Name):
                    self.env[second.id] = spread
                return
            for elt in target.elts:
                self._assign(elt, TOP, None)
        elif isinstance(target, ast.Subscript):
            self._eval(target.value)

    def _spread_unpack(self, source: ast.expr | None) -> AbstractValue | None:
        """``steps, in_mask = _SPREAD_STEPS[d]`` -> mask bound for in_mask."""
        if not isinstance(source, ast.Subscript):
            return None
        if not isinstance(source.value, ast.Name):
            return None
        table = self.module.spread_tables.get(source.value.id)
        if table is None:
            return None
        key = _const_int(source.slice)
        if key is not None and key in table.masks:
            return _int(table.masks[key], "pyint")
        mask = table.joined_mask()
        return _int(mask, "pyint") if mask is not None else None

    # -- expressions ----------------------------------------------------------

    def _eval(self, node: ast.expr) -> AbstractValue:
        value = self._eval_inner(node)
        self.facts.values[id(node)] = value
        return value

    def _eval_inner(self, node: ast.expr) -> AbstractValue:
        if isinstance(node, ast.Constant):
            return self._eval_constant(node)
        if isinstance(node, (ast.BinOp, ast.Call)):
            # Fold pure-constant expressions (``(1 << 62) - 1``,
            # ``np.uint64(0xFF)``) exactly: the generic operator rules
            # would smear the sign (Sub) and widen the bound (Add).
            folded = _const_int(node)
            if folded is not None:
                dtype = "pyint"
                if isinstance(node, ast.Call):
                    name = _callee_name(node.func)
                    if name in _INT_DTYPES:
                        dtype = name
                return _int(abs(folded), dtype, folded < 0)
        if isinstance(node, ast.Name):
            return self.env.get(node.id, TOP)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left)
            right = self._eval(node.right)
            return self._binop_value(node.op, left, right, node)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand)
            if isinstance(node.op, ast.USub) and operand.kind in ("int", "float"):
                return replace(operand, maybe_negative=True)
            if isinstance(node.op, ast.Not):
                return AbstractValue("bool", "bool", 1, False)
            return operand
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            spread = self._spread_unpack(node)
            if spread is not None:
                return spread
            base = self._eval(node.value)
            if isinstance(node.slice, ast.expr):
                self._eval(node.slice)
            # Elementwise view: indexing keeps the element domain.
            if base.kind in ("int", "float"):
                return base
            return TOP
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for comparator in node.comparators:
                self._eval(comparator)
            return AbstractValue("bool", "bool", 1, False)
        if isinstance(node, ast.BoolOp):
            for value_node in node.values:
                self._eval(value_node)
            return AbstractValue("bool", "bool", 1, False)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return join(self._eval(node.body), self._eval(node.orelse))
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            elements = [self._eval(e) for e in node.elts]
            if elements:
                out = elements[0]
                for e in elements[1:]:
                    out = join(out, e)
                return replace(out, dtype=None) if out.kind in ("int", "float") else TOP
            return AbstractValue("other")
        if isinstance(node, ast.ListComp):
            for gen in node.generators:
                self._eval(gen.iter)
                self._assign(gen.target, TOP, None)
            return self._eval(node.elt)
        if isinstance(node, (ast.SetComp, ast.GeneratorExp)):
            for gen in node.generators:
                self._eval(gen.iter)
                self._assign(gen.target, TOP, None)
            self._eval(node.elt)
            return AbstractValue("other")
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        return TOP

    def _eval_constant(self, node: ast.Constant) -> AbstractValue:
        value = node.value
        if isinstance(value, bool):
            return AbstractValue("bool", "bool", 1, False)
        if isinstance(value, int):
            return _int(abs(value), "pyint", value < 0)
        if isinstance(value, float):
            return AbstractValue("float", "pyfloat", None, value < 0)
        return AbstractValue("other")

    def _eval_attribute(self, node: ast.Attribute) -> AbstractValue:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            if node.attr in self.attr_env:
                return self.attr_env[node.attr]
        if node.attr in KNOWN_FLOAT_ATTRS:
            return AbstractValue("float", "pyfloat", None, True)
        if node.attr in KNOWN_INT_ATTRS:
            return _int((1 << POSITION_BITS) - 1, "pyint")
        self._eval(node.value)
        return TOP

    def _eval_call(self, node: ast.Call) -> AbstractValue:
        name = _callee_name(node.func)
        args = [self._eval(a) for a in node.args]
        kwargs = {kw.arg: self._eval(kw.value) for kw in node.keywords if kw.arg}
        if isinstance(node.func, ast.Attribute):
            self._eval(node.func.value)

        if name == "astype":
            dtype = _dtype_from_node(node.args[0] if node.args else None)
            base = TOP
            if isinstance(node.func, ast.Attribute):
                base = self.facts.value_of(node.func.value)
            return _value_for_dtype(dtype, base)
        if name in ("asarray", "array", "ascontiguousarray"):
            dtype_node = next((kw.value for kw in node.keywords
                               if kw.arg == "dtype"), None)
            base = args[0] if args else TOP
            if dtype_node is not None:
                return _value_for_dtype(_dtype_from_node(dtype_node), base)
            if base.kind == "int":
                return replace(base, dtype="int64")
            if base.kind == "float":
                return replace(base, dtype="float64")
            return TOP
        if name in ("zeros", "empty", "ones", "full"):
            dtype_node = next((kw.value for kw in node.keywords
                               if kw.arg == "dtype"), None)
            dtype = _dtype_from_node(dtype_node) if dtype_node is not None else "float64"
            return _value_for_dtype(dtype, TOP)
        if name in _DTYPE_NAMES and name not in ("object", "bool"):
            # np.int64(x), np.uint64(x), float(x), int(x) constructor casts.
            base = args[0] if args else TOP
            return _value_for_dtype(_DTYPE_NAMES[name], base)
        if name in _FLOAT_CALLS:
            return _float()
        if name in ("clip", "minimum"):
            return self._eval_clip(name, args)
        if name == "maximum":
            if args and all(a.kind in ("int", "float") for a in args):
                out = args[0]
                for a in args[1:]:
                    out = join(out, a)
                # max(x, y) is >= each operand: non-negative when any
                # operand is known non-negative.
                neg = all(a.maybe_negative for a in args)
                return replace(out, maybe_negative=neg)
            return TOP
        if name in ("where",):
            if len(args) == 3:
                return join(args[1], args[2])
            return TOP
        if name in ("min", "max", "abs", "sum"):
            if args and args[0].kind in ("int", "float"):
                out = args[0]
                if name == "abs":
                    out = replace(out, maybe_negative=False)
                return out
            return TOP
        if name in _SIGNATURES:
            return _SIGNATURES[name]
        del kwargs
        return TOP

    def _eval_clip(self, name: str, args: list[AbstractValue]) -> AbstractValue:
        """``np.clip(x, lo, hi)`` / ``np.minimum(x, bound)``."""
        if not args:
            return TOP
        base = args[0]
        bound: AbstractValue | None = None
        if name == "clip" and len(args) == 3:
            bound = args[2]
        elif name == "minimum" and len(args) == 2:
            bound = args[1]
        if bound is None:
            return base if base.kind in ("int", "float") else TOP
        kind = base.kind if base.kind != "unknown" else bound.kind
        if kind not in ("int", "float"):
            return TOP
        caps = [v.max_abs for v in (base, bound) if v.max_abs is not None]
        max_abs = min(caps) if caps else None
        dtype = base.dtype if base.kind != "unknown" else bound.dtype
        neg = base.maybe_negative if kind == "int" else True
        return AbstractValue(kind, dtype, max_abs, neg)

    # -- operators ------------------------------------------------------------

    def _binop_value(self, op: ast.operator, left: AbstractValue,
                     right: AbstractValue, node: ast.AST) -> AbstractValue:
        del node
        if left.kind == "float" or right.kind == "float":
            if left.kind in ("float", "int", "unknown") and \
                    right.kind in ("float", "int", "unknown"):
                dtype = "float64" if "float64" in (left.dtype, right.dtype) \
                    else "pyfloat"
                return AbstractValue("float", dtype, None, True)
            return TOP
        if isinstance(op, ast.BitAnd) and "unknown" in (left.kind, right.kind):
            # ``x & mask`` bounds the result even when ``x`` is unknown:
            # a valid ``&`` implies integers, and a non-negative known
            # mask caps the magnitude.
            for side in (left, right):
                if side.is_int and side.max_abs is not None \
                        and not side.maybe_negative:
                    return _int(side.max_abs, "pyint", False)
            return TOP
        if left.kind not in ("int", "bool") or right.kind not in ("int", "bool"):
            return TOP

        dtype = _promote_int(left.dtype, right.dtype)
        la, ra = left.max_abs, right.max_abs
        neg = left.maybe_negative or right.maybe_negative
        max_abs: int | None = None

        if isinstance(op, ast.BitAnd):
            # A non-negative mask caps the result whatever the other side is.
            candidates = []
            if la is not None and not left.maybe_negative:
                candidates.append(la)
            if ra is not None and not right.maybe_negative:
                candidates.append(ra)
            max_abs = min(candidates) if candidates else None
            neg = left.maybe_negative and right.maybe_negative
        elif isinstance(op, (ast.BitOr, ast.BitXor)):
            if la is not None and ra is not None and not neg:
                bits = max(int(la).bit_length(), int(ra).bit_length())
                max_abs = (1 << bits) - 1
        elif isinstance(op, ast.LShift):
            # Cap the modeled shift amount: a bound past 1024 bits is
            # already "overflows anything" territory, and huge amounts
            # (e.g. a position-sized bound) would allocate silly ints.
            if la is not None and ra is not None and ra <= 1024 \
                    and not right.maybe_negative:
                max_abs = int(la) << int(ra)
        elif isinstance(op, ast.RShift):
            max_abs = la  # conservative: shifting right never grows
        elif isinstance(op, ast.Add):
            if la is not None and ra is not None:
                max_abs = la + ra
        elif isinstance(op, ast.Sub):
            if la is not None and ra is not None:
                max_abs = la + ra
            neg = True
        elif isinstance(op, ast.Mult):
            if la is not None and ra is not None:
                max_abs = la * ra
        elif isinstance(op, (ast.FloorDiv, ast.Mod)):
            max_abs = la
        elif isinstance(op, ast.Pow):
            if la is not None and ra is not None and ra <= 64:
                try:
                    max_abs = int(la) ** int(ra)
                except (OverflowError, ValueError):
                    max_abs = None
        elif isinstance(op, ast.Div):
            return AbstractValue("float", "pyfloat", None, True)
        return AbstractValue("int", dtype, max_abs, neg)


def _promote_int(a: str | None, b: str | None) -> str | None:
    if a == b:
        return a
    if "uint64" in (a, b):
        return "uint64"
    if a == "pyint":
        return b
    if b == "pyint":
        return a
    if a is None or b is None:
        return None
    return "int64"


# -- guard pattern matching ----------------------------------------------------


def _guard_bounds(test: ast.expr) -> Iterator[tuple[str, int]]:
    """Extract ``(param, upper_bound)`` pairs from a raise-guard condition.

    Recognises ``x < lo or x > hi``, ``x > hi``, and
    ``not lo <= x <= hi`` — the idioms used by the kernels to validate
    integer parameters before doing bit arithmetic with them.
    """
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        for value in test.values:
            yield from _guard_bounds(value)
        return
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = test.operand
        if isinstance(inner, ast.Compare) and len(inner.ops) == 2 and \
                all(isinstance(op, (ast.LtE, ast.Lt)) for op in inner.ops):
            target = inner.comparators[0]
            upper = _const_int(inner.comparators[1])
            if isinstance(target, ast.Name) and upper is not None:
                yield target.id, upper
        return
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        op = test.ops[0]
        left, right = test.left, test.comparators[0]
        if isinstance(op, (ast.Gt, ast.GtE)) and isinstance(left, ast.Name):
            bound = _const_int(right)
            if bound is not None:
                yield left.id, bound
        elif isinstance(op, (ast.Lt, ast.LtE)) and isinstance(right, ast.Name):
            bound = _const_int(left)
            if bound is not None:
                yield right.id, bound


def _mentions_budget_compare(node: ast.Compare) -> bool:
    """``d * bits > 62``-style inline budget comparisons."""
    sides = [node.left, *node.comparators]
    consts = [_const_int(s) for s in sides]
    if not any(c is not None and c in (62, 63, 64) for c in consts):
        return False
    return any(isinstance(s, ast.BinOp) and isinstance(s.op, ast.Mult)
               for s in sides)


# -- module driver ------------------------------------------------------------


def _functions(tree: ast.Module) -> Iterator[tuple[ast.FunctionDef, str, str | None]]:
    """Yield ``(node, qualname, class_name)`` for every def in the module."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt, stmt.name, None
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef):
                    yield sub, f"{stmt.name}.{sub.name}", stmt.name


def analyze_module(tree: ast.Module) -> ModuleFacts:
    """Run the dataflow analysis over every function in ``tree``."""
    module = ModuleFacts()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            parsed = parse_spread_table(stmt)
            if parsed is not None:
                name, table = parsed
                module.spread_tables[name] = table
                module.spread_assigns.append(stmt)

    # Phase 1: collect class attribute facts (``self.attr = ...``).
    class_attrs: dict[str, dict[str, AbstractValue]] = {}

    def runner(node: ast.FunctionDef, qualname: str,
               attr_env: dict[str, AbstractValue],
               sink: dict[str, AbstractValue] | None) -> FunctionFacts:
        facts = FunctionFacts(node=node, qualname=qualname)
        _Interpreter(facts, module, attr_env, sink).run()
        return facts

    for node, qualname, cls in _functions(tree):
        if cls is None:
            continue
        sink = class_attrs.setdefault(cls, {})
        runner(node, qualname, {}, sink)

    # Phase 2: analyze every function with the collected attribute facts.
    for node, qualname, cls in _functions(tree):
        attr_env = class_attrs.get(cls, {}) if cls is not None else {}
        module.functions.append(runner(node, qualname, attr_env, None))
    return module


# ---------------------------------------------------------------------------
# Concurrency dataflow extensions (RPR2xx support)
# ---------------------------------------------------------------------------
# The lock-discipline analyzer (:mod:`repro.analysis.concurrency`) needs
# two small dataflow facts the numeric interpreter above does not track:
# which functions run on *other* threads or processes (spawn-target
# discovery), and which local names are aliases of a ``self`` lock
# attribute (``cond = self._conds[shard]`` followed by ``with cond:``).

_SPAWN_CTORS = {"Thread": "thread", "Process": "process"}


def thread_spawn_targets(
    node: ast.AST,
) -> Iterator[tuple[str, str, int]]:
    """Spawn targets in ``node``: ``(kind, target, lineno)`` triples.

    ``kind`` is ``"thread"`` or ``"process"``; ``target`` is either a
    plain function name (``"worker_main"``) or ``"self.<method>"`` for
    bound-method targets.  Matches any constructor whose trailing name
    is ``Thread``/``Process`` (``threading.Thread``, ``ctx.Process``,
    bare ``Process`` from an import), keyed on the ``target=`` keyword —
    positional targets do not occur in idiomatic spawn code and are
    ignored.
    """
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        leaf: str | None = None
        if isinstance(call.func, ast.Name):
            leaf = call.func.id
        elif isinstance(call.func, ast.Attribute):
            leaf = call.func.attr
        kind = _SPAWN_CTORS.get(leaf or "")
        if kind is None:
            continue
        for kw in call.keywords:
            if kw.arg != "target":
                continue
            value = kw.value
            if isinstance(value, ast.Name):
                yield kind, value.id, call.lineno
            elif (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                yield kind, f"self.{value.attr}", call.lineno


def _lock_attr_of(node: ast.expr, lock_attrs: frozenset[str] | set[str]) -> str | None:
    """The lock attribute behind ``self.X`` / ``self.X[...]``, if any."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in lock_attrs
    ):
        return node.attr
    return None


def lock_aliases(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    lock_attrs: frozenset[str] | set[str],
) -> dict[str, str]:
    """Local names that alias a ``self`` lock attribute inside ``func``.

    Covers the two idioms the serving layer uses:

    * ``cond = self._conds[shard]`` (plain assignment of the attribute
      or one subscript of it), and
    * ``for cond in self._conds:`` / ``for s, cond in
      enumerate(self._conds):`` (iteration over an indexed lock family).

    The map is flow-insensitive but *poisoned* conservatively: a name
    that is ever rebound to anything that is not the same lock attribute
    is dropped entirely, so a stale alias can never mark an unrelated
    ``with`` block as a lock acquisition.
    """
    aliases: dict[str, str] = {}
    poisoned: set[str] = set()

    def bind(name: str, attr: str | None) -> None:
        if attr is None:
            poisoned.add(name)
        elif name in aliases and aliases[name] != attr:
            poisoned.add(name)
        else:
            aliases[name] = attr

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bind(target.id, _lock_attr_of(node.value, lock_attrs))
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                bind(node.target.id, _lock_attr_of(node.value, lock_attrs))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            source = node.iter
            element: ast.expr | None = node.target
            if (
                isinstance(source, ast.Call)
                and isinstance(source.func, ast.Name)
                and source.func.id == "enumerate"
                and source.args
            ):
                source = source.args[0]
                if isinstance(element, ast.Tuple) and len(element.elts) == 2:
                    element = element.elts[1]
                else:
                    element = None
            attr = _lock_attr_of(source, lock_attrs) if not isinstance(
                source, ast.Subscript) else None
            if isinstance(element, ast.Name):
                bind(element.id, attr)
            elif element is not None:
                for sub in ast.walk(element):
                    if isinstance(sub, ast.Name):
                        bind(sub.id, None)
    return {name: attr for name, attr in aliases.items() if name not in poisoned}
