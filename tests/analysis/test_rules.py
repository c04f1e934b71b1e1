"""Per-rule unit tests: one positive and one negative fixture per rule.

The syntactic rules (RPR003-RPR008) run on the fixture modules under
``fixtures/``; the contract rules (RPR001/RPR002) run on synthetic
:class:`RegistryView` snapshots so the tests control exactly which
classes are "registered" without mutating the live package.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import build_context, run_analysis
from repro.analysis.registry_view import IndexClassInfo, RegistryView
from repro.analysis.rules import RULE_METADATA, RULES, AnalysisContext
from repro.analysis.source import SourceFile

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(rule_id: str, *fixture_names: str):
    ctx = build_context(
        FIXTURES,
        paths=[FIXTURES / name for name in fixture_names],
        use_registry=False,
    )
    return run_analysis(ctx, [rule_id]).findings


class TestRuleRegistry:
    def test_all_twenty_five_rules_registered(self):
        expected = [f"RPR00{i}" for i in range(1, 10)]
        expected += ["RPR010", "RPR011", "RPR012"]
        expected += [f"RPR10{i}" for i in range(1, 5)]
        expected += [f"RPR20{i}" for i in range(1, 7)]
        expected += [f"RPR30{i}" for i in range(1, 4)]
        assert sorted(RULES) == expected
        assert sorted(RULE_METADATA) == sorted(RULES)

    def test_metadata_has_rationale(self):
        for meta in RULE_METADATA.values():
            assert meta.rationale
            assert meta.name


def _synthetic_view(tmp_path: Path, **overrides) -> tuple[AnalysisContext, Path]:
    """A context whose registry contains exactly one synthetic class."""
    module = tmp_path / "fake_index.py"
    module.write_text(
        '"""Synthetic module."""\n\n__all__ = ["FakeIndex"]\n\n\n'
        "class FakeIndex:\n    pass\n",
        encoding="utf-8",
    )
    fields = {
        "qualname": "fake.FakeIndex",
        "name": "FakeIndex",
        "module": "fake",
        "filename": str(module),
        "lineno": 6,
        "family": "OneDimIndex",
        "missing_abstract": (),
        "batch_overrides": (),
        "in_registry": True,
        "factory_names": ("fake",),
    }
    fields.update(overrides)
    info = IndexClassInfo(**fields)
    view = RegistryView(
        classes=[info],
        factory_members={
            "ONE_DIM_FACTORIES": {"fake.FakeIndex"},
            "MULTI_DIM_FACTORIES": set(),
        },
    )
    ctx = AnalysisContext(
        root=tmp_path,
        files=[SourceFile.load(module, tmp_path)],
        registry=view,
    )
    return ctx, module


class TestRPR001ContractSurface:
    def test_fires_on_missing_abstract_methods(self, tmp_path):
        ctx, _ = _synthetic_view(tmp_path, missing_abstract=("lookup", "range_query"))
        findings = run_analysis(ctx, ["RPR001"]).findings
        assert len(findings) == 1
        assert "lookup" in findings[0].message

    def test_fires_on_unregistered_class(self, tmp_path):
        ctx, _ = _synthetic_view(tmp_path, in_registry=False, factory_names=())
        findings = run_analysis(ctx, ["RPR001"]).findings
        assert len(findings) == 1
        assert "escapes" in findings[0].message

    def test_quiet_on_registered_complete_class(self, tmp_path):
        ctx, _ = _synthetic_view(tmp_path)
        assert run_analysis(ctx, ["RPR001"]).findings == []

    def test_factory_membership_alone_suffices(self, tmp_path):
        ctx, _ = _synthetic_view(tmp_path, in_registry=False, factory_names=("fake",))
        assert run_analysis(ctx, ["RPR001"]).findings == []


class TestRPR002BatchParityCoverage:
    def test_fires_on_override_outside_parity_factories(self, tmp_path):
        ctx, _ = _synthetic_view(tmp_path, batch_overrides=("lookup_batch",))
        ctx.registry.factory_members["ONE_DIM_FACTORIES"] = set()
        findings = run_analysis(ctx, ["RPR002"]).findings
        assert len(findings) == 1
        assert "lookup_batch" in findings[0].message

    def test_quiet_when_override_is_covered(self, tmp_path):
        ctx, _ = _synthetic_view(tmp_path, batch_overrides=("lookup_batch",))
        assert run_analysis(ctx, ["RPR002"]).findings == []

    def test_fires_when_parity_test_drops_the_dicts(self, tmp_path):
        ctx, module = _synthetic_view(tmp_path)
        ctx.parity_test = SourceFile.load(module, tmp_path)  # no FACTORIES refs
        findings = run_analysis(ctx, ["RPR002"]).findings
        assert len(findings) == 2
        assert all("unverifiable" in f.message for f in findings)


class TestRPR003RoutingRound:
    def test_fires_on_rint_and_round_in_routing(self):
        findings = findings_for("RPR003", "rpr003_bad.py")
        assert len(findings) == 2
        assert any("rint" in f.message for f in findings)
        assert any("round()" in f.message for f in findings)

    def test_quiet_on_floor_routing_and_prediction_round(self):
        assert findings_for("RPR003", "rpr003_good.py") == []

    def test_fires_anywhere_inside_curves_modules(self, tmp_path):
        curves = tmp_path / "curves"
        curves.mkdir()
        mod = curves / "morton.py"
        mod.write_text(
            '"""Curve module."""\n\n__all__ = ["enc"]\n\n'
            "def enc(x):\n    return round(x)\n",
            encoding="utf-8",
        )
        ctx = build_context(tmp_path, paths=[mod], use_registry=False)
        assert len(run_analysis(ctx, ["RPR003"]).findings) == 1


class TestRPR004UnseededRNG:
    def test_fires_on_global_state_and_unseeded_rng(self):
        findings = findings_for("RPR004", "rpr004_bad.py")
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "np.random.rand" in messages
        assert "reseeds global state" in messages
        assert "without a seed" in messages

    def test_quiet_on_seeded_generators(self):
        assert findings_for("RPR004", "rpr004_good.py") == []


class TestRPR005StatsAccounting:
    def test_fires_on_uncounted_scan(self):
        findings = findings_for("RPR005", "rpr005_bad.py")
        assert len(findings) == 1
        assert "UncountedIndex.lookup" in findings[0].message

    def test_quiet_on_counted_or_delegating_scans(self):
        assert findings_for("RPR005", "rpr005_good.py") == []


class TestRPR006MutableDefaults:
    def test_fires_on_list_and_dict_defaults(self):
        findings = findings_for("RPR006", "rpr006_bad.py")
        assert len(findings) == 2

    def test_quiet_on_none_defaults(self):
        assert findings_for("RPR006", "rpr006_good.py") == []


class TestRPR007BuiltFlag:
    def test_fires_on_missing_flag_and_missing_check(self):
        findings = findings_for("RPR007", "rpr007_bad.py")
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "never sets self._built" in messages
        assert "_require_built" in messages

    def test_quiet_on_disciplined_and_super_delegating_classes(self):
        assert findings_for("RPR007", "rpr007_good.py") == []


class TestRPR008DunderAll:
    def test_fires_on_phantom_export(self):
        findings = findings_for("RPR008", "rpr008_bad.py")
        assert len(findings) == 1
        assert "phantom" in findings[0].message

    def test_fires_on_missing_dunder_all(self):
        findings = findings_for("RPR008", "rpr008_missing.py")
        assert len(findings) == 1
        assert "no __all__" in findings[0].message

    def test_quiet_on_consistent_exports(self):
        assert findings_for("RPR008", "rpr008_good.py") == []


class TestRPR009ServeShardLocks:
    def test_fires_on_each_unguarded_mutation(self):
        findings = findings_for("RPR009", "serve/rpr009_bad.py")
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        assert "build()" in messages
        assert "insert()" in messages
        assert "delete()" in messages
        # The half-locked class releases the lock before rebuilding.
        assert "HalfLockedStore.refresh" in messages

    def test_quiet_on_locked_documented_and_lock_free_classes(self):
        assert findings_for("RPR009", "serve/rpr009_good.py") == []

    def test_scoped_to_serve_paths(self):
        # The same unguarded code outside a serve/ directory is ignored:
        # the rule encodes a serving-layer contract, not a repo-wide one.
        import shutil

        src = FIXTURES / "serve" / "rpr009_bad.py"
        outside = FIXTURES / "rpr009_outside_scope.py"
        shutil.copyfile(src, outside)
        try:
            assert findings_for("RPR009", "rpr009_outside_scope.py") == []
        finally:
            outside.unlink()


class TestRPR010SharedStateDiscipline:
    def test_fires_on_each_seeded_violation(self):
        findings = findings_for("RPR010", "serve/rpr010_bad.py")
        messages = [f.message for f in findings]
        assert len(findings) == 5
        assert any("created outside repro.serve.shm" in m for m in messages)
        assert any("unlink() outside repro.serve.shm" in m for m in messages)
        assert any("map_arrays_blindly maps ndarray views" in m
                   for m in messages)
        assert any("ExportOnlyIndex overrides export_state but not from_state"
                   in m for m in messages)
        assert any("RestoreOnlyIndex overrides from_state but not export_state"
                   in m for m in messages)

    def test_digest_checked_mapper_is_quiet(self):
        findings = findings_for("RPR010", "serve/rpr010_bad.py")
        assert not any("map_arrays_checked" in f.message for f in findings)

    def test_quiet_on_compliant_attach_and_paired_state(self):
        assert findings_for("RPR010", "serve/rpr010_good.py") == []

    def test_segment_checks_scoped_to_serve_paths(self):
        # The same creation/unlink code outside serve/ is ignored (the
        # confinement is a serving-layer contract), but a buffer view
        # without a digest check and unpaired export_state/from_state
        # overrides are flagged repo-wide.
        import shutil

        src = FIXTURES / "serve" / "rpr010_bad.py"
        outside = FIXTURES / "rpr010_outside_scope.py"
        shutil.copyfile(src, outside)
        try:
            findings = findings_for("RPR010", "rpr010_outside_scope.py")
            messages = [f.message for f in findings]
            assert len(findings) == 3
            assert sum("overrides" in m for m in messages) == 2
            assert any("map_arrays_blindly maps ndarray views" in m for m in messages)
            assert not any("outside repro.serve.shm" in m for m in messages)
        finally:
            outside.unlink()


class TestRPR011ArtifactDigestDiscipline:
    def test_fires_on_each_unverified_access(self):
        findings = findings_for("RPR011", "rpr011_bad.py")
        messages = [f.message for f in findings]
        assert len(findings) == 3
        assert any("map_arrays_blindly maps file bytes" in m and "memmap" in m
                   for m in messages)
        assert any("read_array_blindly maps file bytes" in m and "fromfile" in m
                   for m in messages)
        assert any("load_payload_blindly unpickles bytes read from disk" in m
                   for m in messages)

    def test_quiet_on_digest_checked_access(self):
        assert findings_for("RPR011", "rpr011_good.py") == []

    def test_in_memory_unpickle_is_out_of_scope(self):
        # unpickle_verified_bytes in the good fixture never reads a file;
        # verify the bad fixture's findings never point at a function
        # that only handles in-memory bytes.
        findings = findings_for("RPR011", "rpr011_good.py")
        assert not any("unpickle_verified_bytes" in f.message for f in findings)


class TestRPR101CodeBudget:
    def test_fires_on_narrow_mask_table_and_wide_shifts(self):
        findings = findings_for("RPR101", "rpr101_bad.py")
        messages = [f.message for f in findings]
        assert any("spread-table input mask for d=3" in m for m in messages)
        assert any("78 bits" in m for m in messages)
        unguarded = {m.split("'")[1] for m in messages if "'" in m}
        assert {"shift_overflow", "interleave_unguarded"} <= unguarded

    def test_quiet_on_guarded_kernels_and_full_masks(self):
        assert findings_for("RPR101", "rpr101_good.py") == []


class TestRPR102LossyFloatCast:
    def test_fires_on_unguarded_wide_cast(self):
        findings = findings_for("RPR102", "rpr102_bad.py")
        assert len(findings) == 1
        assert "62 bits" in findings[0].message
        assert "exact_float64" in findings[0].message

    def test_quiet_on_guarded_or_narrow_casts(self):
        assert findings_for("RPR102", "rpr102_good.py") == []

    def test_facts_follow_the_source_object_not_its_recycled_id(self):
        # CPython hands a collected SourceFile's id to the next one; facts
        # cached by id once made rpr102_bad.py inherit a clean file's facts
        # (0 findings) depending on what had been analysed before it.
        from repro.analysis.numeric_rules import _facts

        good_path, bad_path = FIXTURES / "rpr102_good.py", FIXTURES / "rpr102_bad.py"
        for _ in range(50):
            good = SourceFile.load(good_path, FIXTURES)
            stale_id, stale_facts = id(good), _facts(good)
            del good
            bad = SourceFile.load(bad_path, FIXTURES)
            assert _facts(bad) is not stale_facts
            if id(bad) == stale_id:
                break
        assert len(findings_for("RPR102", "rpr102_bad.py")) == 1


class TestRPR103MixedDtypeRouting:
    def test_fires_on_searchsorted_and_comparison(self):
        findings = findings_for("RPR103", "rpr103_bad.py")
        assert len(findings) == 2
        assert any("searchsorted" in f.message for f in findings)
        assert any("comparison" in f.message for f in findings)

    def test_quiet_on_integral_routing(self):
        assert findings_for("RPR103", "rpr103_good.py") == []


class TestRPR104SignRoundTrip:
    def test_fires_on_top_bit_and_negative_wrap(self):
        findings = findings_for("RPR104", "rpr104_bad.py")
        assert len(findings) == 2
        assert any("sign bit" in f.message for f in findings)
        assert any("wrap to huge codes" in f.message for f in findings)

    def test_quiet_on_headroom_and_clamped_values(self):
        assert findings_for("RPR104", "rpr104_good.py") == []


class TestRPR301ComplexityContract:
    def test_fires_on_linear_hot_paths(self):
        findings = findings_for("RPR301", "rpr301_bad.py")
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "ScanningIndex.lookup" in messages
        assert "ScanningIndex.insert" in messages
        assert "O(n)" in messages

    def test_quiet_on_bisection_with_documented_bounded_scan(self):
        # BoundedIndex.lookup bisects and then calls a helper whose
        # docstring declares the scan duplicate-bounded: the cost model
        # must follow the call and honour the escape.
        assert findings_for("RPR301", "rpr301_good.py") == []


class TestRPR302BatchKernelDiscipline:
    def test_fires_on_scalar_loop_and_append_accumulation(self):
        findings = findings_for("RPR302", "rpr302_bad.py")
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "iterates the query batch" in messages
        assert "append" in messages

    def test_quiet_on_vectorized_kernel(self):
        assert findings_for("RPR302", "rpr302_good.py") == []

    def test_fires_on_a_global_search_clipped_into_learned_windows(self):
        findings = findings_for("RPR302", "rpr302_window_bad.py")
        assert len(findings) == 2
        assert "ClippedRMI.lookup_batch" in findings[0].message
        assert "(lo, hi)" in findings[0].message
        assert "ClippedSpline.lookup_batch" in findings[1].message
        assert "(knot_lo, knot_hi)" in findings[1].message

    def test_quiet_on_a_windowed_search_with_a_violating_rows_fallback(self):
        assert findings_for("RPR302", "rpr302_window_good.py") == []


class TestRPR303ServeAllocation:
    def test_fires_on_unbounded_container_growth(self):
        findings = findings_for("RPR303", "serve/rpr303_bad.py")
        assert len(findings) == 1
        assert "LeakyRequestLog grows self._log" in findings[0].message

    def test_scalar_counters_are_not_growth(self):
        # self._hits += 1 in the bad fixture allocates nothing.
        findings = findings_for("RPR303", "serve/rpr303_bad.py")
        assert not any("_hits" in f.message for f in findings)

    def test_quiet_on_eviction_len_check_and_maxlen(self):
        assert findings_for("RPR303", "serve/rpr303_good.py") == []

    def test_quiet_on_stores_into_sized_preallocated_array(self):
        # np.empty(size) in __init__ cannot grow: self.results[slots] = values
        # (what Window.complete_many does) overwrites slots.
        assert findings_for("RPR303", "serve/rpr303_prealloc.py") == []

    def test_unsized_array_constructor_is_not_bound_evidence(self):
        # Only a size *argument* counts: a bare np.empty() call proves nothing.
        from repro.analysis.complexity import _is_preallocation
        import ast

        assert _is_preallocation(ast.parse("np.empty(n, dtype=object)").body[0].value)
        assert not _is_preallocation(ast.parse("np.empty()").body[0].value)
        assert not _is_preallocation(ast.parse("list(xs)").body[0].value)

    def test_scoped_to_serve_paths(self):
        # The same unbounded growth outside a serve/ directory is ignored:
        # the rule encodes a serving-layer contract, not a repo-wide one.
        import shutil

        src = FIXTURES / "serve" / "rpr303_bad.py"
        outside = FIXTURES / "rpr303_outside_scope.py"
        shutil.copyfile(src, outside)
        try:
            assert findings_for("RPR303", "rpr303_outside_scope.py") == []
        finally:
            outside.unlink()


class TestRPR012StaleSuppression:
    def _run(self, fixture, rule_ids=None):
        ctx = build_context(
            FIXTURES, paths=[FIXTURES / fixture], use_registry=False
        )
        return run_analysis(ctx, rule_ids)

    def test_fires_on_stale_and_unknown_directives(self):
        result = self._run("rpr012_bad.py")  # full run: rules are auditable
        stale = [f for f in result.findings if f.rule_id == "RPR012"]
        assert len(stale) == 2
        messages = " ".join(f.message for f in stale)
        assert "RPR006" in messages
        assert "RPR999" in messages

    def test_quiet_on_live_suppression(self):
        result = self._run("rpr012_good.py")
        assert [f for f in result.findings if f.rule_id == "RPR012"] == []
        assert {f.rule_id for f in result.suppressed} == {"RPR006"}

    def test_unaudited_rule_is_not_judged_stale(self):
        # With only RPR012 selected, RPR006 never ran, so its directive
        # cannot be judged; the unknown rule id is stale unconditionally.
        result = self._run("rpr012_bad.py", ["RPR012"])
        stale = [f for f in result.findings if f.rule_id == "RPR012"]
        assert len(stale) == 1
        assert "RPR999" in stale[0].message


class TestSuppression:
    @pytest.mark.parametrize("rule_id", ["RPR003", "RPR006"])
    def test_disable_comment_moves_finding_to_suppressed(self, rule_id):
        ctx = build_context(
            FIXTURES, paths=[FIXTURES / "suppressed.py"], use_registry=False
        )
        result = run_analysis(ctx, [rule_id])
        assert result.findings == []
        assert len(result.suppressed) == 1
        assert result.suppressed[0].rule_id == rule_id

    def test_suppression_is_per_rule(self):
        # The disable=RPR006 comment must not silence other rules there.
        ctx = build_context(
            FIXTURES, paths=[FIXTURES / "suppressed.py"], use_registry=False
        )
        result = run_analysis(ctx)
        assert result.findings == []
        assert {f.rule_id for f in result.suppressed} == {"RPR003", "RPR006"}


class TestRPR206TunerActuationDiscipline:
    def test_fires_on_control_plane_store_mutations(self):
        findings = findings_for("RPR206", "tune/rpr206_bad.py")
        messages = "\n".join(f.message for f in findings)
        assert "'.compact()' on a shard object" in messages
        assert "'._bounds'" in messages
        assert "'._bounds_version'" in messages
        assert "'.generations'" in messages
        assert "store-private '._locks'" in messages
        assert len(findings) >= 5

    def test_quiet_on_public_repartition_surface(self):
        assert findings_for("RPR206", "tune/rpr206_good.py") == []

    def test_fires_on_bumpless_serve_repartition(self):
        findings = findings_for("RPR206", "serve/rpr206_bad.py")
        assert len(findings) == 2
        assert any("LeakyStore.rebuild_shard" in f.message for f in findings)
        assert any("LeakyStore.retune_shard" in f.message for f in findings)

    def test_quiet_on_versioned_and_delegating_repartition(self):
        assert findings_for("RPR206", "serve/rpr206_good.py") == []

    def test_scoped_to_tune_and_serve_paths(self):
        # The same store pokes outside a tune/ directory are ignored:
        # the rule encodes the control-plane contract, not a repo-wide
        # style ban.
        import shutil

        src = FIXTURES / "tune" / "rpr206_bad.py"
        outside = FIXTURES / "rpr206_outside_scope.py"
        shutil.copyfile(src, outside)
        try:
            assert findings_for("RPR206", "rpr206_outside_scope.py") == []
        finally:
            outside.unlink()

    def test_live_tune_package_is_clean(self):
        repo = Path(__file__).resolve().parents[2]
        ctx = build_context(
            repo, paths=[repo / "src" / "repro" / "tune",
                         repo / "src" / "repro" / "serve"],
            use_registry=False,
        )
        assert run_analysis(ctx, ["RPR206"]).findings == []
