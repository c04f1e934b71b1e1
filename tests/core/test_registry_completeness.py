"""Registry completeness: no concrete index module escapes the contract.

Every module under ``onedim/``, ``multidim/``, ``baselines/`` that
defines a concrete ``core.interfaces`` subclass must contribute at least
one class that is constructible from a bench factory dict or claimed by
the survey registry (``implemented=``).  This is the dynamic twin of the
linter's RPR001 rule: the linter proves it statically per class, this
test proves the live import graph agrees.
"""

from __future__ import annotations

import pytest

from repro.analysis.registry_view import BATCH_METHODS, build_registry_view
from repro.bench import runner
from repro.core import registry


@pytest.fixture(scope="module")
def view():
    return build_registry_view()


def test_every_concrete_class_is_registered(view):
    unregistered = [
        info.qualname
        for info in view.classes
        if not info.in_registry and not info.factory_names
    ]
    assert unregistered == [], (
        f"concrete index classes outside both core.registry and the bench "
        f"factories: {unregistered}"
    )


def test_every_impl_module_contributes_a_registered_factory(view):
    by_module: dict[str, list] = {}
    for info in view.classes:
        by_module.setdefault(info.module, []).append(info)
    assert by_module, "registry view found no implementation modules"
    for module, classes in sorted(by_module.items()):
        assert any(c.in_registry or c.factory_names for c in classes), (
            f"{module} defines concrete index classes but none is registered"
        )


def test_no_class_leaves_abstract_surface_open(view):
    incomplete = {
        info.qualname: info.missing_abstract
        for info in view.classes
        if info.missing_abstract
    }
    assert incomplete == {}


def test_registry_implemented_targets_resolve(view):
    """Every ``implemented=`` path in the survey registry imports."""
    import importlib

    for info in registry.REGISTRY:
        if info.implemented is None:
            continue
        module_name, _, cls_name = info.implemented.rpartition(".")
        module = importlib.import_module(module_name)
        assert hasattr(module, cls_name), info.implemented


def test_filter_factories_cover_all_membership_filters(view):
    filter_classes = {
        info.qualname for info in view.classes if info.family == "MembershipFilter"
    }
    covered = view.factory_members["FILTER_FACTORIES"]
    assert filter_classes <= covered, filter_classes - covered


def test_batch_overrides_inside_parity_factories(view):
    """Dynamic twin of RPR002: overrides must be parity-parametrized."""
    for info in view.classes:
        for meth in info.batch_overrides:
            dict_name = BATCH_METHODS[meth]
            assert info.qualname in view.factory_members[dict_name], (
                f"{info.qualname}.{meth} escapes the batch-parity suite"
            )


def test_factory_dicts_construct_fresh_instances():
    for name, factory in {
        **runner.ONE_DIM_FACTORIES,
        **runner.MULTI_DIM_FACTORIES,
        **runner.FILTER_FACTORIES,
    }.items():
        a, b = factory(), factory()
        assert a is not b, f"{name} factory must build fresh instances"
