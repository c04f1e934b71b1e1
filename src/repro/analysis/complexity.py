"""RPR3xx — complexity-contract rules (the asymptotics pillar).

The survey's thesis is asymptotic: a learned index must answer a point
query with O(1) model work plus an error-bounded last-mile search, not
a hidden scan.  Nothing syntactic distinguishes "vectorized lookup"
from "full-array scan per query" — both are three lines of numpy — so
this module derives a conservative per-operation complexity class for
every index hot path and checks it against the contract declared in
:mod:`repro.core.complexity`:

* **RPR301** — static cost model.  Walks loop nesting and the
  intraprocedural ``self.*`` call graph of each registered index's
  ``lookup``/``point_query``/``might_contain``/``insert`` hot path and
  classifies it O(1)/O(log n)/O(n)-per-op.  A method whose *derived*
  class exceeds its *declared* class is flagged.  The model is an upper
  bound on purpose: bisection-shaped ``while`` loops and pointer
  descents count O(log n); loops over error-bounded slices,
  ``range(<config attr>)``, and config-bounded attributes count O(1);
  everything else — including any full-array numpy reduction or
  comparison against a data-sized ``self`` attribute — counts O(n).
  A loop whose bound the AST cannot see (fixed-capacity leaf blocks,
  compaction-bounded run lists, expected-constant hash buckets) may be
  demoted to O(1) *only* by documenting the bound in the method
  docstring (``capacity-bounded``, ``tie-bounded``, ...); the runtime
  witness (:mod:`repro.bench.scaling`) keeps those documented claims
  honest empirically.

* **RPR302** — vectorization discipline in batch-kernel overrides.
  A ``*_batch`` override exists to amortize interpreter overhead; a
  Python loop over the query array inside one silently reverts to the
  scalar path while still claiming the vectorized name.  Flags loops
  iterating the batch parameter (or an ``np.asarray`` alias of it),
  ``np.append`` anywhere, list/array accumulation inside per-element
  loops, per-iteration full-array masks against bare ``self``
  attributes, and a full-array ``searchsorted`` clipped into per-query
  ``lo``/``hi`` windows (a global search wearing a learned name).  The
  documented loop fallbacks on the abstract bases in
  ``core/interfaces.py`` are out of scope by design.

* **RPR303** — allocation discipline in the serving layer.  A serve
  hot path (coalescer flush, cache get/put, stats recorders) that
  appends to or inserts into a ``self`` container which nothing in the
  class ever shrinks or bounds grows without limit under load.
  Flags growth sites on attributes with no eviction/drain/bound
  evidence anywhere in the class.

Like the RPR1xx/RPR2xx families, everything here is provable-only:
the rules fire on evidence in the AST, and every escape hatch must
name its safety argument in a docstring the reviewer can audit.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import (
    AnalysisContext,
    _dotted_name,
    _index_classes,
    _methods,
    _mk,
    rule,
)
from repro.analysis.source import SourceFile

__all__ = ["derive_class_costs", "COST_CONSTANT", "COST_LOG", "COST_LINEAR"]

# Cost lattice: orders match ComplexityClass.order.
COST_CONSTANT = 0
COST_LOG = 1
COST_LINEAR = 2

_COST_LABELS = {COST_CONSTANT: "O(1)", COST_LOG: "O(log n)", COST_LINEAR: "O(n)"}

#: Docstring escape for loops whose bound the AST cannot prove: the
#: method must *name* the bound (capacity-bounded leaf, tie-bounded run,
#: compaction-bounded level list, occupancy-bounded bucket, ...).
_BOUNDED_RE = re.compile(
    r"(?:capacity|config|tie|duplicate|occupancy|compaction|level|fanout|"
    r"epsilon|error|probe)[- ]bounded",
    re.IGNORECASE,
)

#: Callables that are O(log n) in the size of their array argument.
_LOG_CALLS = {"searchsorted", "bisect_left", "bisect_right", "bisect", "insort",
              "insort_left", "insort_right"}

#: numpy reductions/scans that touch a whole array argument.  Names that
#: commonly take scalars too (min/max/abs/asarray/...) are deliberately
#: absent: the elementwise-compare check catches real full-array work on
#: data attributes without flagging scalar arithmetic.
_LINEAR_CALLS = {"where", "nonzero", "flatnonzero", "argwhere", "sort", "argsort",
                 "unique", "cumsum", "prod", "argmin", "argmax",
                 "count_nonzero", "lexsort", "partition", "argpartition",
                 "concatenate", "intersect1d", "union1d", "isin", "in1d",
                 "extract", "compress"}

#: Attribute accesses on an array that read metadata, not elements.
_METADATA_ATTRS = {"size", "shape", "ndim", "dtype", "nbytes", "itemsize"}

#: Attribute names that mark a ``while``-loop assignment as a tree/list
#: pointer descent (logarithmic under the balanced-structure premise).
_DESCENT_ATTRS = {"left", "right", "child", "children", "next", "down",
                  "parent", "less", "greater", "lo_child", "hi_child"}

#: Hot methods per ``_index_classes`` family; "derived" checks whichever
#: of these the subclass overrides.
_HOT_BY_FAMILY = {
    "onedim": ("lookup", "insert"),
    "multidim": ("point_query", "insert"),
    "filter": ("might_contain",),
    "derived": ("lookup", "point_query", "might_contain", "insert"),
}

#: Strictest-but-log default for classes with no declared contract
#: (fixtures, not-yet-registered code): learned-index expectations.
_DEFAULT_DECLARED = {"lookup": COST_LOG, "point_query": COST_LOG,
                     "might_contain": COST_LOG, "insert": COST_LOG}


@dataclass(frozen=True)
class Cost:
    """Derived cost with the evidence line/reason of its dominant term."""

    order: int
    line: int = 0
    reason: str = ""

    def join(self, other: "Cost") -> "Cost":
        """Max of two costs, keeping the dominant term's evidence."""
        return other if other.order > self.order else self

    @property
    def label(self) -> str:
        return _COST_LABELS[self.order]


def _is_self_attr(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _config_attrs(cls: ast.ClassDef) -> set[str]:
    """``self.<attr>`` names bound in ``__init__`` to config values.

    Config values are constructor parameters, constants, and arithmetic
    of those — sizes fixed before any data arrives, so loops bounded by
    them are O(1) in n.
    """
    init = _methods(cls).get("__init__")
    if init is None:
        return set()
    params = {a.arg for a in init.args.args + init.args.kwonlyargs} - {"self"}
    out: set[str] = set()
    for node in ast.walk(init):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        if value is None or not _config_expr(value, params):
            continue
        for target in targets:
            if _is_self_attr(target):
                out.add(target.attr)
    return out


def _config_expr(node: ast.expr, params: set[str]) -> bool:
    """Whether an expression is built purely from config params/constants."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Name):
        return node.id in params
    if isinstance(node, ast.UnaryOp):
        return _config_expr(node.operand, params)
    if isinstance(node, ast.BinOp):
        return _config_expr(node.left, params) and _config_expr(node.right, params)
    if isinstance(node, ast.IfExp):
        return (_config_expr(node.body, params)
                and _config_expr(node.orelse, params))
    if isinstance(node, ast.Call):
        fn = _dotted_name(node.func) or ""
        if fn.rsplit(".", 1)[-1] in {"int", "float", "max", "min", "round", "len"}:
            return all(_config_expr(a, params) for a in node.args)
    return False


#: Roots that produce O(1)-or-dims-sized values even when computed
#: *from* the data: casts, counts, reductions, thresholds.
_SCALAR_ROOTS = {"float", "int", "bool", "len", "quantile", "percentile",
                 "mean", "median", "std", "var", "item", "ceil", "floor",
                 "log2", "sqrt", "min", "max", "sum"}


def _scalar_expr(node: ast.expr) -> bool:
    """Whether an expression is provably not data-sized.

    Covers scalar-producing calls (``int(...)``, reductions), array
    metadata reads (``x.size``, ``x.shape[k]``), and arithmetic/ternary
    combinations of those — the common shapes of thresholds, counts,
    and dimensionality attributes derived from the data.
    """
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Attribute):
        return node.attr in _METADATA_ATTRS
    if isinstance(node, ast.Subscript):
        # shape[k], or a subscript/slice of an already-bounded value
        # (e.g. quantile(...)[1:-1] keeps the config-sized result).
        return _scalar_expr(node.value)
    if isinstance(node, ast.UnaryOp):
        return _scalar_expr(node.operand)
    if isinstance(node, ast.BinOp):
        return _scalar_expr(node.left) and _scalar_expr(node.right)
    if isinstance(node, ast.IfExp):
        return _scalar_expr(node.body) and _scalar_expr(node.orelse)
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return True  # booleans
    if isinstance(node, ast.Call):
        return (_dotted_name(node.func) or "").rsplit(".", 1)[-1] in _SCALAR_ROOTS
    return False


def _dim_attrs(cls: ast.ClassDef) -> set[str]:
    """Attributes holding the dataset's *width* (``shape[k>=1]``).

    Dimensionality is bounded by the schema, not by n, so loops over
    ``range(self.dims)`` are O(1) in the survey's cost model.
    """

    def is_dim(node: ast.expr) -> bool:
        if isinstance(node, ast.Subscript):
            return (isinstance(node.value, ast.Attribute)
                    and node.value.attr == "shape"
                    and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, int)
                    and node.slice.value >= 1)
        if isinstance(node, ast.Call):
            fn = (_dotted_name(node.func) or "").rsplit(".", 1)[-1]
            return (fn in {"int", "float"} and len(node.args) == 1
                    and is_dim(node.args[0]))
        if isinstance(node, ast.IfExp):
            return is_dim(node.body) and isinstance(node.orelse, ast.Constant)
        return False

    out: set[str] = set()
    for func in _methods(cls).values():
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and is_dim(node.value):
                for target in node.targets:
                    if _is_self_attr(target):
                        out.add(target.attr)
            elif isinstance(node, ast.AnnAssign) and node.value is not None \
                    and is_dim(node.value) and _is_self_attr(node.target):
                out.add(node.target.attr)
    return out


_HASH_MAKERS = {"dict", "set", "defaultdict", "Counter", "OrderedDict",
                "fromkeys"}


def _hashed_attrs(cls: ast.ClassDef) -> set[str]:
    """Attributes ever bound to a dict/set: ``in`` tests on them are O(1)."""
    out: set[str] = set()
    for func in _methods(cls).values():
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            hashed = isinstance(value, (ast.Dict, ast.Set, ast.DictComp,
                                        ast.SetComp)) or (
                isinstance(value, ast.Call)
                and (_dotted_name(value.func) or "").rsplit(".", 1)[-1]
                in _HASH_MAKERS)
            if not hashed:
                continue
            for target in targets:
                if _is_self_attr(target):
                    out.add(target.attr)
    return out


#: Hot-path methods whose parameters are single keys/points, not the
#: dataset — their params must not seed the data-size taint.
_SCALAR_PARAM_METHODS = {"lookup", "insert", "delete", "point_query",
                         "might_contain", "contains", "range_query",
                         "knn_query", "nearest"}


def _data_attrs(cls: ast.ClassDef) -> set[str]:
    """``self.<attr>`` names that hold data-sized payloads.

    Anything assigned (in any method) from an expression that mentions a
    ``build``/``_prepare`` parameter — directly or through a tainted
    local — is treated as O(n)-sized; bare uses of these attributes in
    comparisons or reductions then cost O(n).  Hot-path parameters (a
    single key or point) and provably scalar values
    (:func:`_scalar_expr`) do not taint.
    """
    out: set[str] = set()
    for name, func in _methods(cls).items():
        if name == "__init__":
            continue
        params = {a.arg for a in func.args.args + func.args.kwonlyargs} - {"self"}
        tainted = set() if name in _SCALAR_PARAM_METHODS else set(params)
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            if _scalar_expr(node.value):
                continue
            mentions = any(
                isinstance(sub, ast.Name) and sub.id in tainted
                for sub in ast.walk(node.value)
            )
            if not mentions:
                continue
            for target in node.targets:
                if _is_self_attr(target):
                    out.add(target.attr)
                elif isinstance(target, ast.Name):
                    tainted.add(target.id)
                elif isinstance(target, ast.Tuple):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            tainted.add(elt.id)
                        elif _is_self_attr(elt):
                            out.add(elt.attr)
    return out


class _ClassModel:
    """Shared per-class facts + memoized per-method cost derivation."""

    def __init__(self, cls: ast.ClassDef) -> None:
        self.cls = cls
        self.methods = _methods(cls)
        self.config = _config_attrs(cls) | _dim_attrs(cls)
        self.data = _data_attrs(cls)
        self.hashed = _hashed_attrs(cls)
        self._memo: dict[str, Cost] = {}

    # -- loop classification ------------------------------------------

    def _bounded_locals(self, func: ast.FunctionDef) -> set[str]:
        """Locals assigned from config attrs or constants (O(1) iterables)."""
        out: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                value = node.value
                if isinstance(value, ast.Constant) or (
                        _is_self_attr(value) and value.attr in self.config):
                    out.add(node.targets[0].id)
        return out

    def _iter_cost(self, node: ast.expr, func: ast.FunctionDef,
                   bounded: set[str]) -> int:
        """Cost class of iterating ``node`` once."""
        if isinstance(node, ast.Call):
            fn = (_dotted_name(node.func) or "").rsplit(".", 1)[-1]
            if fn == "range":
                if all(self._scalar_is_config(a, bounded) for a in node.args):
                    return COST_CONSTANT
                return COST_LINEAR
            if fn in {"enumerate", "reversed", "iter", "sorted", "zip", "list",
                      "tuple"}:
                inner = [self._iter_cost(a, func, bounded) for a in node.args]
                return max(inner) if inner else COST_LINEAR
            return COST_LINEAR
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
            if node.slice.lower is not None and node.slice.upper is not None:
                # Error-bounded window: predict ± epsilon slices.
                return COST_CONSTANT
            return COST_LINEAR
        if isinstance(node, (ast.Tuple, ast.List)):
            return COST_CONSTANT
        if _is_self_attr(node):
            return COST_CONSTANT if node.attr in self.config else COST_LINEAR
        if isinstance(node, ast.Name) and node.id in bounded:
            return COST_CONSTANT
        return COST_LINEAR

    def _scalar_is_config(self, node: ast.expr, bounded: set[str]) -> bool:
        """Whether a range() bound is config-sized (n-independent)."""
        if isinstance(node, ast.Constant):
            return True
        if isinstance(node, ast.Name):
            return node.id in bounded
        if _is_self_attr(node):
            return node.attr in self.config
        if isinstance(node, ast.BinOp):
            return (self._scalar_is_config(node.left, bounded)
                    and self._scalar_is_config(node.right, bounded))
        if isinstance(node, ast.UnaryOp):
            return self._scalar_is_config(node.operand, bounded)
        if isinstance(node, ast.Call):
            fn = (_dotted_name(node.func) or "").rsplit(".", 1)[-1]
            if fn in {"len", "int", "min", "max"}:
                return all(self._scalar_is_config(a, bounded) for a in node.args)
        return False

    @staticmethod
    def _while_is_log(node: ast.While) -> bool:
        """Halving or pointer-descent evidence inside a ``while`` body."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) and isinstance(
                    sub.op, (ast.FloorDiv, ast.RShift)):
                return True
            if isinstance(sub, ast.AugAssign) and isinstance(
                    sub.op, (ast.FloorDiv, ast.RShift, ast.Mult)):
                return True
            if isinstance(sub, ast.Assign):
                value = sub.value
                if isinstance(value, ast.IfExp):
                    candidates = [value.body, value.orelse]
                else:
                    candidates = [value]
                for cand in candidates:
                    if isinstance(cand, ast.Attribute) \
                            and cand.attr in _DESCENT_ATTRS:
                        return True
                    if isinstance(cand, ast.Subscript) and isinstance(
                            cand.value, ast.Attribute) \
                            and cand.value.attr in _DESCENT_ATTRS:
                        return True
        return False

    # -- expression costs ---------------------------------------------

    def _call_cost(self, node: ast.Call, stack: tuple[str, ...]) -> Cost:
        dotted = _dotted_name(node.func) or ""
        leaf = dotted.rsplit(".", 1)[-1]
        if dotted.startswith("self.") and "." not in dotted[5:]:
            if leaf in self.methods:
                return _cost_at(self._method_cost(leaf, stack), node.lineno)
        if leaf in _LOG_CALLS:
            # Bisection over a config-sized attribute (partition edges,
            # segment boundaries) is O(log config) = O(1).
            if node.args and _is_self_attr(node.args[0]) \
                    and node.args[0].attr not in self.data:
                return Cost(COST_CONSTANT)
            return Cost(COST_LOG, node.lineno, f"{leaf}() bounded search")
        if leaf in _LINEAR_CALLS and self._touches_data(node):
            return Cost(COST_LINEAR, node.lineno,
                        f"{leaf}() over a data-sized self attribute")
        return Cost(COST_CONSTANT)

    def _touches_data(self, node: ast.AST) -> bool:
        """Whether an expression references a bare data-sized attribute.

        ``self._keys.size``-style metadata reads are exempt: they cost
        O(1) no matter how large the array is.
        """
        exempt: set[int] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in _METADATA_ATTRS:
                exempt.add(id(sub.value))
        for sub in ast.walk(node):
            if _is_self_attr(sub) and sub.attr in self.data \
                    and id(sub) not in exempt:
                return True
        return False

    def _elementwise(self, attr: str, line: int) -> Cost:
        return Cost(COST_LINEAR, line,
                    f"elementwise operation on self.{attr} (data-sized array)")

    def _expr_cost(self, node: ast.AST, stack: tuple[str, ...]) -> Cost:
        cost = Cost(COST_CONSTANT)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                cost = cost.join(self._call_cost(sub, stack))
            elif isinstance(sub, ast.Compare):
                # Pair each operator with its operands: identity tests
                # are O(1) whatever the operand; membership tests are
                # O(1) against dict/set attributes.
                operands = [sub.left, *sub.comparators]
                for i, op in enumerate(sub.ops):
                    if isinstance(op, (ast.Is, ast.IsNot)):
                        continue
                    if isinstance(op, (ast.In, ast.NotIn)):
                        container = operands[i + 1]
                        if _is_self_attr(container) \
                                and container.attr in self.data \
                                and container.attr not in self.hashed:
                            cost = cost.join(self._elementwise(
                                container.attr, sub.lineno))
                        continue
                    for operand in (operands[i], operands[i + 1]):
                        if _is_self_attr(operand) and operand.attr in self.data:
                            cost = cost.join(self._elementwise(
                                operand.attr, sub.lineno))
            elif isinstance(sub, ast.BinOp) and not isinstance(
                    sub.op, (ast.FloorDiv, ast.RShift)):
                for operand in (sub.left, sub.right):
                    if _is_self_attr(operand) and operand.attr in self.data:
                        cost = cost.join(self._elementwise(
                            operand.attr, sub.lineno))
        return cost

    # -- statement walk ------------------------------------------------

    def _body_cost(self, stmts: list[ast.stmt], func: ast.FunctionDef,
                   bounded: set[str], stack: tuple[str, ...]) -> Cost:
        cost = Cost(COST_CONSTANT)
        for stmt in stmts:
            if isinstance(stmt, ast.For):
                loop = Cost(self._iter_cost(stmt.iter, func, bounded),
                            stmt.lineno, "loop over a data-sized iterable")
                body = self._body_cost(stmt.body + stmt.orelse, func, bounded,
                                       stack)
                head = self._expr_cost(stmt.iter, stack)
                cost = cost.join(loop).join(body).join(head)
            elif isinstance(stmt, ast.While):
                order = COST_LOG if self._while_is_log(stmt) else COST_LINEAR
                loop = Cost(order, stmt.lineno,
                            "while-loop without halving/descent evidence"
                            if order == COST_LINEAR else "bounded descent")
                body = self._body_cost(stmt.body + stmt.orelse, func, bounded,
                                       stack)
                cost = cost.join(loop).join(body)
                cost = cost.join(self._expr_cost(stmt.test, stack))
            elif isinstance(stmt, (ast.If,)):
                cost = cost.join(self._expr_cost(stmt.test, stack))
                cost = cost.join(self._body_cost(stmt.body + stmt.orelse, func,
                                                 bounded, stack))
            elif isinstance(stmt, (ast.With,)):
                for item in stmt.items:
                    cost = cost.join(self._expr_cost(item.context_expr, stack))
                cost = cost.join(self._body_cost(stmt.body, func, bounded,
                                                 stack))
            elif isinstance(stmt, ast.Try):
                blocks = stmt.body + stmt.orelse + stmt.finalbody
                for handler in stmt.handlers:
                    blocks = blocks + handler.body
                cost = cost.join(self._body_cost(blocks, func, bounded, stack))
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                continue  # nested defs run when called, not here
            else:
                cost = cost.join(self._expr_cost(stmt, stack))
        return cost

    def _method_cost(self, name: str, stack: tuple[str, ...]) -> Cost:
        if name in self._memo:
            return self._memo[name]
        if name in stack:
            # Recursive descent: balanced-structure premise, same as the
            # pointer-chase while; the runtime witness audits it.
            return Cost(COST_LOG, self.methods[name].lineno,
                        "recursive descent")
        func = self.methods[name]
        bounded = self._bounded_locals(func)
        cost = self._body_cost(func.body, func, bounded, stack + (name,))
        doc = ast.get_docstring(func) or ""
        if cost.order == COST_LINEAR and _BOUNDED_RE.search(doc):
            # Documented-bound escape: the docstring names the bound the
            # AST cannot see; the scaling witness audits it at runtime.
            cost = Cost(COST_CONSTANT, func.lineno, "documented bound")
        self._memo[name] = cost
        return cost

    def method_cost(self, name: str) -> Cost:
        """Derived per-operation cost class of ``self.<name>()``."""
        return self._method_cost(name, ())


def _cost_at(cost: Cost, line: int) -> Cost:
    """Anchor a callee's cost at the call site when it has no line yet."""
    return cost if cost.line else Cost(cost.order, line, cost.reason)


def derive_class_costs(cls: ast.ClassDef, family: str) -> dict[str, Cost]:
    """Derived costs of the hot methods ``cls`` itself defines."""
    model = _ClassModel(cls)
    return {
        name: model.method_cost(name)
        for name in _HOT_BY_FAMILY[family]
        if name in model.methods
    }


def _declared_for(src: SourceFile, cls_name: str) -> dict[str, int] | None:
    """Declared contract orders for a class, from the authoritative table.

    Resolution is by qualname inferred from the file's repo-relative
    path, so it needs no live import; files outside ``src/repro``
    (fixtures, scratch code) resolve to ``None`` and get the strict
    learned-index default.
    """
    parts = Path(src.rel).parts
    if "repro" not in parts or not src.rel.endswith(".py"):
        return None
    module = ".".join(parts[parts.index("repro"):])[: -len(".py")]
    qualname = f"{module}.{cls_name}"
    from repro.core.complexity import CONTRACTS, HOT_METHODS
    contract = CONTRACTS.get(qualname)
    if contract is None:
        return None
    declared = {HOT_METHODS[fam]: contract.lookup.order for fam in HOT_METHODS}
    if contract.insert is not None:
        declared["insert"] = contract.insert.order
    else:
        declared.pop("insert", None)
    return declared


@rule(
    "RPR301",
    "complexity-contract",
    Severity.ERROR,
    "Each registered index declares the per-operation complexity class "
    "of its lookup/point_query/insert hot paths (core.complexity); a "
    "hot path whose statically derived class exceeds the declaration "
    "has silently become a scan.  Loops the AST cannot bound must "
    "document the bound (e.g. 'capacity-bounded') in the method "
    "docstring; the scaling witness verifies such claims empirically.",
    ("complexity",),
)
def check_complexity_contracts(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if src.tree is None or src.rel.endswith(str(Path("core") / "interfaces.py")):
            continue
        for cls, family in _index_classes(src):
            declared = _declared_for(src, cls.name)
            defaults = declared is None
            if defaults:
                declared = dict(_DEFAULT_DECLARED)
            costs = derive_class_costs(cls, family)
            for name, cost in costs.items():
                allowed = declared.get(name)
                if allowed is None or cost.order <= allowed:
                    continue
                origin = ("default learned-index contract" if defaults
                          else "declared contract")
                detail = f" ({cost.reason})" if cost.reason else ""
                yield _mk(
                    "RPR301", src, cost.line or cls.lineno, 0,
                    f"{cls.name}.{name} derives {cost.label} but the "
                    f"{origin} allows {_COST_LABELS[allowed]}{detail}",
                )


# ---------------------------------------------------------------------------
# RPR302 — batch-kernel vectorization discipline
# ---------------------------------------------------------------------------

#: Flat-output batch kernels whose overrides must stay vectorized.
#: ``range_query_batch`` is excluded: its ragged per-box output makes a
#: per-box assembly loop legitimate.
_FLAT_BATCH_METHODS = {"lookup_batch", "contains_batch", "point_query_batch"}

_ASARRAY_FNS = {"asarray", "ascontiguousarray", "asfarray", "array",
                "atleast_1d", "atleast_2d"}


def _batch_aliases(func: ast.FunctionDef) -> set[str]:
    """The batch parameter and locals derived from it via array casts."""
    params = [a.arg for a in func.args.args if a.arg != "self"]
    aliases = set(params[:1])  # the query batch is the first parameter
    if not aliases:
        return aliases
    changed = True
    while changed:
        changed = False
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            value = node.value
            name = None
            if isinstance(value, ast.Name):
                name = value.id
            elif isinstance(value, ast.Call):
                fn = (_dotted_name(value.func) or "").rsplit(".", 1)[-1]
                if fn in _ASARRAY_FNS and value.args \
                        and isinstance(value.args[0], ast.Name):
                    name = value.args[0].id
            if name in aliases and node.targets[0].id not in aliases:
                aliases.add(node.targets[0].id)
                changed = True
    return aliases


def _loops_over_batch(func: ast.FunctionDef,
                      aliases: set[str]) -> Iterator[ast.For]:
    """``for`` loops that iterate the query batch element by element."""
    for node in ast.walk(func):
        if not isinstance(node, ast.For):
            continue
        it = node.iter
        if isinstance(it, ast.Call):
            fn = (_dotted_name(it.func) or "").rsplit(".", 1)[-1]
            if fn in {"enumerate", "reversed", "iter", "zip"}:
                args = it.args
            elif fn == "range":
                args = it.args
            else:
                args = []
            for arg in args:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Name) and sub.id in aliases:
                        yield node
                        break
                else:
                    continue
                break
        elif isinstance(it, ast.Name) and it.id in aliases:
            yield node


def _call_name(node: ast.expr) -> str:
    """Last component of a call's dotted name (``""`` for non-calls)."""
    if not isinstance(node, ast.Call):
        return ""
    return (_dotted_name(node.func) or "").rsplit(".", 1)[-1]


def _window_clipped_searches(func: ast.FunctionDef) -> Iterator[ast.Call]:
    """``np.clip(<searchsorted result>, lo, hi)`` over per-query windows.

    ``lo``/``hi`` are locals built with ``np.maximum``/``np.minimum`` —
    the clamped ``predicted -+ error`` columns of a learned last mile.
    Clipping a full-array ``searchsorted`` into them returns the windowed
    answer while still paying the global O(log n) search per row.
    """
    searched: set[str] = set()
    windows: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            fn = _call_name(node.value)
            if fn == "searchsorted":
                searched.add(node.targets[0].id)
            elif fn in {"maximum", "minimum"}:
                windows.add(node.targets[0].id)
    for node in ast.walk(func):
        if _call_name(node) != "clip" or len(node.args) != 3:
            continue
        value, lo, hi = node.args
        if not (_call_name(value) == "searchsorted"
                or (isinstance(value, ast.Name) and value.id in searched)):
            continue
        if all(isinstance(b, ast.Name) and b.id in windows for b in (lo, hi)):
            yield node


@rule(
    "RPR302",
    "batch-kernel-vectorization",
    Severity.ERROR,
    "A *_batch override exists to amortize Python overhead across the "
    "whole query array; a per-element Python loop, np.append-style "
    "reallocation, or a fresh full-array mask per query inside one "
    "reverts to scalar cost while keeping the vectorized name.  The "
    "documented loop fallbacks on the abstract interfaces are the only "
    "sanctioned per-element paths.  A learned kernel that builds "
    "per-query lo/hi windows and then clips a full-array searchsorted "
    "into them keeps the learned name while running a global binary "
    "search; the windowed search lives in repro.onedim._search.",
    ("complexity", "vectorization"),
)
def check_batch_vectorization(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if src.tree is None or src.rel.endswith(str(Path("core") / "interfaces.py")):
            continue
        for cls, _family in _index_classes(src):
            for name, func in _methods(cls).items():
                if name.endswith("_batch"):
                    for call in _window_clipped_searches(func):
                        yield _mk(
                            "RPR302", src, call.lineno, call.col_offset,
                            f"{cls.name}.{name} clips a full-array "
                            f"searchsorted into the per-query window "
                            f"({call.args[1].id}, {call.args[2].id}): the "
                            "model only clips, the search is still global; "
                            "use _search.windowed_lower_bound",
                        )
                if name not in _FLAT_BATCH_METHODS:
                    continue
                aliases = _batch_aliases(func)
                batch_loops = list(_loops_over_batch(func, aliases))
                for loop in batch_loops:
                    yield _mk(
                        "RPR302", src, loop.lineno, loop.col_offset,
                        f"{cls.name}.{name} iterates the query batch in "
                        "a Python loop; the override must stay vectorized "
                        "(or be deleted to use the documented fallback)",
                    )
                # Reallocation growth inside any per-element batch loop.
                for loop in batch_loops:
                    for sub in ast.walk(loop):
                        if not isinstance(sub, ast.Call):
                            continue
                        fn = (_dotted_name(sub.func) or "").rsplit(".", 1)[-1]
                        if fn in {"append", "concatenate", "vstack", "hstack"}:
                            yield _mk(
                                "RPR302", src, sub.lineno, sub.col_offset,
                                f"{cls.name}.{name} accumulates results "
                                f"via {fn}() inside a per-element loop "
                                "(quadratic reallocation)",
                            )
                # np.append anywhere in a batch kernel is a scan in
                # disguise: it copies the whole array per call.
                for sub in ast.walk(func):
                    if isinstance(sub, ast.Call):
                        dotted = _dotted_name(sub.func) or ""
                        if dotted in {"np.append", "numpy.append"} and not any(
                                sub is s for loop in batch_loops
                                for s in ast.walk(loop)):
                            yield _mk(
                                "RPR302", src, sub.lineno, sub.col_offset,
                                f"{cls.name}.{name} calls np.append "
                                "(full-copy reallocation) in a batch kernel",
                            )
                # Per-iteration full-array masks: a compare against a bare
                # self attribute inside any loop re-touches all n keys
                # once per element.
                model = _ClassModel(cls)
                for node in ast.walk(func):
                    if not isinstance(node, (ast.For, ast.While)):
                        continue
                    for sub in ast.walk(node):
                        if not isinstance(sub, ast.Compare):
                            continue
                        for op in [sub.left, *sub.comparators]:
                            if _is_self_attr(op) and op.attr in model.data:
                                yield _mk(
                                    "RPR302", src, sub.lineno, sub.col_offset,
                                    f"{cls.name}.{name} builds a full-array "
                                    f"mask over self.{op.attr} inside a "
                                    "loop (one O(n) scan per element)",
                                )


# ---------------------------------------------------------------------------
# RPR303 — serve-layer allocation discipline
# ---------------------------------------------------------------------------

_GROW_METHODS = {"append", "appendleft", "add", "extend", "extendleft",
                 "insert", "setdefault", "update"}
_SHRINK_METHODS = {"pop", "popleft", "popitem", "clear", "remove", "discard",
                   "shrink", "evict", "trim"}


#: Array constructors whose first positional argument is the size: the
#: result cannot grow in place, so a subscript store into it (scalar,
#: slice or fancy index) overwrites slots.
_SIZED_CONSTRUCTORS = {"empty", "zeros", "ones", "full"}


def _is_preallocation(value: ast.expr) -> bool:
    """Fixed-size container constructions: ``[None] * n``, comprehensions
    over a known quantity, ``dict.fromkeys(...)``, ``deque(maxlen=...)``,
    sized array constructors (``np.empty(n, dtype=object)``)."""
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult) \
            and (isinstance(value.left, (ast.List, ast.Tuple))
                 or isinstance(value.right, (ast.List, ast.Tuple))):
        return True
    if isinstance(value, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        fn = (_dotted_name(value.func) or "").rsplit(".", 1)[-1]
        if fn == "fromkeys":
            return True
        if fn in _SIZED_CONSTRUCTORS and value.args:
            return True
        if any(kw.arg == "maxlen" for kw in value.keywords):
            return True
    return False


def _container_events(cls: ast.ClassDef) -> tuple[dict[str, list[ast.AST]],
                                                  set[str]]:
    """Growth sites per attribute, plus attributes with bound evidence.

    Bound evidence is anything that can shrink or cap the container:
    a shrink-method call, ``del self.x[...]``, reassignment outside
    ``__init__``, a ``len(self.x)`` comparison (capacity check), a
    ``maxlen=``-bounded constructor, or a fixed-size preallocation
    (``[None] * n``, a comprehension, ``np.empty(n)``) whose subscript
    writes are slot updates, not growth.
    """
    grows: dict[str, list[ast.AST]] = {}
    bounded: set[str] = set()
    for name, func in _methods(cls).items():
        in_init = name == "__init__"
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                recv = node.func.value
                if _is_self_attr(recv):
                    if node.func.attr in _GROW_METHODS and not in_init:
                        grows.setdefault(recv.attr, []).append(node)
                    elif node.func.attr in _SHRINK_METHODS:
                        bounded.add(recv.attr)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                value = node.value
                for target in targets:
                    if isinstance(target, ast.Subscript) \
                            and _is_self_attr(target.value) and not in_init:
                        grows.setdefault(target.value.attr, []).append(node)
                    elif _is_self_attr(target) and not in_init:
                        bounded.add(target.attr)  # rebound: reset/rotation
                    elif _is_self_attr(target) and value is not None \
                            and _is_preallocation(value):
                        bounded.add(target.attr)  # fixed slots, not growth
            if isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) \
                            and _is_self_attr(target.value):
                        bounded.add(target.value.attr)
            if isinstance(node, ast.Compare):
                for op in ast.walk(node):
                    if isinstance(op, ast.Call) \
                            and (_dotted_name(op.func) or "") == "len" \
                            and op.args and _is_self_attr(op.args[0]):
                        bounded.add(op.args[0].attr)
            if isinstance(node, ast.AugAssign) and _is_self_attr(node.target) \
                    and not in_init:
                # Only list-concatenation growth; scalar counters
                # (self.hits += 1) allocate nothing.
                if isinstance(node.op, ast.Add) and isinstance(
                        node.value, (ast.List, ast.Tuple, ast.ListComp)):
                    grows.setdefault(node.target.attr, []).append(node)
    return grows, bounded


@rule(
    "RPR303",
    "serve-allocation-discipline",
    Severity.ERROR,
    "Serving hot paths run for the life of the process: a self container "
    "that only ever grows (append/insert/augmented +=) with no shrink, "
    "eviction, capacity check, or bounded constructor anywhere in the "
    "class leaks memory linearly in request count.",
    ("complexity", "serve"),
)
def check_serve_allocation(ctx: AnalysisContext) -> Iterator[Finding]:
    for src in ctx.files:
        if src.tree is None or "serve" not in Path(src.rel).parts:
            continue
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            grows, bounded = _container_events(node)
            for attr, sites in sorted(grows.items()):
                if attr in bounded:
                    continue
                site = sites[0]
                yield _mk(
                    "RPR303", src, site.lineno, getattr(site, "col_offset", 0),
                    f"{node.name} grows self.{attr} on every call with no "
                    "shrink/eviction/capacity bound anywhere in the class",
                )
