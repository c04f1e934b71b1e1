"""Unit tests for the numeric dataflow analyzer.

Each test parses a tiny synthetic function, runs :func:`analyze_module`,
and checks the abstract value inferred for the return expression — the
same facts the RPR1xx rules consume.
"""

from __future__ import annotations

import ast

import pytest

from repro.analysis.dataflow import (
    TOP,
    AbstractValue,
    FunctionFacts,
    analyze_module,
    bit_width,
    join,
    parse_spread_table,
)


def facts_of(source: str, qualname: str) -> FunctionFacts:
    module = analyze_module(ast.parse(source))
    for fn in module.functions:
        if fn.qualname == qualname:
            return fn
    raise AssertionError(f"no function {qualname!r} analyzed")


def return_value(fn: FunctionFacts) -> AbstractValue:
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Return) and node.value is not None:
            return fn.value_of(node.value)
    raise AssertionError("function has no return expression")


class TestConstantFolding:
    def test_mask_literal_is_exact_and_non_negative(self):
        fn = facts_of("def f():\n    return (1 << 62) - 1\n", "f")
        value = return_value(fn)
        assert value.is_int
        assert value.max_abs == (1 << 62) - 1
        assert not value.maybe_negative

    def test_dtype_constructor_keeps_value_and_dtype(self):
        fn = facts_of(
            "import numpy as np\n"
            "def f():\n    return np.uint64(1 << 63)\n",
            "f",
        )
        value = return_value(fn)
        assert value.dtype == "uint64"
        assert value.max_abs == 1 << 63
        assert not value.maybe_negative


class TestBoundPropagation:
    def test_and_mask_caps_unknown_operand(self):
        fn = facts_of(
            "import numpy as np\n"
            "def f(codes):\n"
            "    wide = np.asarray(codes, dtype=np.int64) & np.int64((1 << 62) - 1)\n"
            "    return wide\n",
            "f",
        )
        value = return_value(fn)
        assert value.dtype == "int64"
        assert bit_width(value) == 62
        assert not value.maybe_negative

    def test_shift_multiplies_bound(self):
        fn = facts_of(
            "def f(x):\n    m = x & 0xFF\n    return m << 8\n", "f")
        value = return_value(fn)
        assert bit_width(value) == 16

    def test_huge_shift_amount_stays_unknown(self):
        # A position-sized shift amount must not be materialised as a
        # Python int (it used to allocate terabytes); the bound goes to
        # unknown instead.
        fn = facts_of(
            "import numpy as np\n"
            "def f(a, b):\n"
            "    n = np.searchsorted(a, b)\n"
            "    return 1 << n\n",
            "f",
        )
        assert return_value(fn).max_abs is None

    def test_sub_makes_negative_possible(self):
        fn = facts_of("def f(x):\n    m = x & 0xFF\n    return m - 1\n", "f")
        value = return_value(fn)
        assert value.maybe_negative
        assert value.max_abs == 256

    def test_maximum_with_zero_clears_sign(self):
        fn = facts_of(
            "import numpy as np\n"
            "def f(x):\n"
            "    d = (x & 0xFF) - 1\n"
            "    return np.maximum(d, 0)\n",
            "f",
        )
        assert not return_value(fn).maybe_negative

    def test_float_cast_loses_int_domain(self):
        fn = facts_of(
            "import numpy as np\n"
            "def f(x):\n    return x.astype(np.float64)\n", "f")
        assert return_value(fn).is_float


class TestSignaturesAndGuards:
    def test_signature_db_bounds_curve_codes(self):
        fn = facts_of(
            "def f(points, lo, hi, bits):\n"
            "    return zencode_array(points, lo, hi, bits)\n",
            "f",
        )
        value = return_value(fn)
        assert value.dtype == "int64"
        assert bit_width(value) == 62

    @pytest.mark.parametrize("call, twin", [("locate(keys, q, stats)", "bounded_binary_search"),
                                            ("search(keys, 0, q, stats)", "bounded_binary_search"),
                                            ("locate_batch(keys, qs, stats)", "bounded_search_batch"),
                                            ("search_batch(keys, 0, qs, stats)",
                                             "bounded_search_batch")])
    def test_learned_column_calls_bound_positions_like_the_search(self, call, twin):
        got = return_value(facts_of(f"def f(model, keys, q, qs, stats):\n"
                                    f"    return model.{call}\n", "f"))
        want = return_value(facts_of(f"def f(keys, q, stats):\n"
                                     f"    return {twin}(keys, q, 0, 1, stats)\n", "f"))
        assert got == want
        assert got.is_int and not got.maybe_negative

    def test_param_guard_narrows_bits(self):
        fn = facts_of(
            "def f(bits):\n"
            "    if bits < 1 or bits > 31:\n"
            "        raise ValueError()\n"
            "    return bits\n",
            "f",
        )
        assert return_value(fn).max_abs == 31

    def test_float64_guard_detection(self):
        fn = facts_of(
            "def f(x):\n"
            "    if x.max() >= 2**53:\n"
            "        raise ValueError()\n"
            "    return x\n",
            "f",
        )
        assert fn.has_float64_guard

    def test_budget_guard_detection(self):
        fn = facts_of(
            "def f(d, bits):\n"
            "    if d * bits > 62:\n"
            "        raise ValueError()\n"
            "    return bits\n",
            "f",
        )
        assert fn.has_budget_guard


class TestClassAttributes:
    def test_init_facts_reach_query_methods(self):
        source = (
            "class Idx:\n"
            "    def __init__(self):\n"
            "        self.bits = 7\n"
            "    def q(self):\n"
            "        return self.bits\n"
        )
        fn = facts_of(source, "Idx.q")
        assert return_value(fn).max_abs == 7


class TestSpreadTables:
    SOURCE = (
        "import numpy as np\n"
        "_SPREAD = {2: (((1, np.uint64(3)),), np.uint64(0xFFFFFFFF))}\n"
        "def f(d):\n"
        "    steps, in_mask = _SPREAD[d]\n"
        "    return in_mask\n"
    )

    def test_parse_collects_masks(self):
        tree = ast.parse(self.SOURCE)
        assign = next(s for s in tree.body if isinstance(s, ast.Assign))
        parsed = parse_spread_table(assign)
        assert parsed is not None
        name, table = parsed
        assert name == "_SPREAD"
        assert table.masks == {2: 0xFFFFFFFF}

    def test_unpack_binds_mask_bound(self):
        fn = facts_of(self.SOURCE, "f")
        assert return_value(fn).max_abs == 0xFFFFFFFF


class TestLattice:
    def test_join_widens_bounds_and_sign(self):
        a = AbstractValue("int", "int64", 10, False)
        b = AbstractValue("int", "int64", 100, True)
        merged = join(a, b)
        assert merged.max_abs == 100
        assert merged.maybe_negative

    def test_join_of_kind_mismatch_is_top(self):
        a = AbstractValue("int", "int64", 10, False)
        b = AbstractValue("float", "float64", None, True)
        assert join(a, b) == TOP

    @pytest.mark.parametrize("max_abs,width", [(0, 0), (1, 1), (255, 8), ((1 << 62) - 1, 62)])
    def test_bit_width(self, max_abs, width):
        assert bit_width(AbstractValue("int", "pyint", max_abs, False)) == width

    def test_bit_width_of_unknown_is_none(self):
        assert bit_width(TOP) is None
