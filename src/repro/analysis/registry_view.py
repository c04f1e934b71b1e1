"""Live-registry snapshot used by the contract rules.

The AST rules (RPR003-RPR008) are purely syntactic, but the contract
rules (RPR001/RPR002) need ground truth only the *live* package can
give: which classes are concrete, what abstract surface their
``core.interfaces`` base demands, which classes the survey registry
(``core.registry``) claims as implemented, and which classes the bench
factory dicts — the ones the batch-parity suite parametrizes over —
actually construct.  This module imports the package once and distils
that into plain dataclasses so rules (and rule tests, which build
synthetic views) never touch ``importlib`` themselves.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from dataclasses import dataclass, field

__all__ = ["IndexClassInfo", "RegistryView", "build_registry_view", "BATCH_METHODS"]

#: Batch-API methods whose overrides must be covered by the parity suite,
#: keyed to the factory dict the parity tests parametrize over.
BATCH_METHODS: dict[str, str] = {
    "lookup_batch": "ONE_DIM_FACTORIES",
    "_lookup_batch": "ONE_DIM_FACTORIES",
    "contains_batch": "ONE_DIM_FACTORIES",
    "point_query_batch": "MULTI_DIM_FACTORIES",
    "_point_query_batch": "MULTI_DIM_FACTORIES",
    "range_query_batch": "MULTI_DIM_FACTORIES",
}

#: Packages holding concrete index implementations.
_IMPL_PACKAGES = ("repro.onedim", "repro.multidim", "repro.baselines")


@dataclass(frozen=True)
class IndexClassInfo:
    """Live facts about one concrete (or would-be concrete) index class."""

    qualname: str                       # "repro.onedim.rmi.RMIIndex"
    name: str                           # "RMIIndex"
    module: str                         # "repro.onedim.rmi"
    filename: str                       # absolute source path
    lineno: int
    family: str                         # interface base: OneDimIndex, ...
    missing_abstract: tuple[str, ...]   # unimplemented abstract methods
    batch_overrides: tuple[str, ...]    # batch methods defined on the class
    in_registry: bool                   # an IndexInfo.implemented target
    factory_names: tuple[str, ...]      # keys in the bench factory dicts


@dataclass
class RegistryView:
    """Everything the contract rules need from the live package."""

    classes: list[IndexClassInfo] = field(default_factory=list)
    #: factory-dict name -> class qualnames reachable from it.
    factory_members: dict[str, set[str]] = field(default_factory=dict)


def _interface_family(cls: type, bases: dict[str, type]) -> str | None:
    """Innermost ``core.interfaces`` family ``cls`` belongs to, if any."""
    for name in ("MultiDimIndex", "OneDimIndex", "MembershipFilter"):
        if issubclass(cls, bases[name]):
            return name
    return None


def build_registry_view() -> RegistryView:
    """Import the package and snapshot its contract-relevant state."""
    from repro.bench import runner
    from repro.core import interfaces, registry

    bases = {
        "OneDimIndex": interfaces.OneDimIndex,
        "MultiDimIndex": interfaces.MultiDimIndex,
        "MembershipFilter": interfaces.MembershipFilter,
    }
    base_classes = tuple(bases.values())

    implemented = {info.implemented for info in registry.REGISTRY if info.implemented}

    factory_dicts: dict[str, dict[str, object]] = {}
    for dict_name in (
        "ONE_DIM_FACTORIES",
        "MUTABLE_ONE_DIM_FACTORIES",
        "MULTI_DIM_FACTORIES",
        "MUTABLE_MULTI_DIM_FACTORIES",
        "FILTER_FACTORIES",
    ):
        factory_dicts[dict_name] = getattr(runner, dict_name, {})

    # name under which each class is constructible, per factory dict.
    factory_names: dict[str, list[str]] = {}
    factory_members: dict[str, set[str]] = {name: set() for name in factory_dicts}
    for dict_name, factories in factory_dicts.items():
        for key, factory in factories.items():
            cls = factory if inspect.isclass(factory) else type(factory())
            qual = f"{cls.__module__}.{cls.__qualname__}"
            factory_names.setdefault(qual, []).append(key)
            factory_members[dict_name].add(qual)

    view = RegistryView(factory_members=factory_members)
    for pkg_name in _IMPL_PACKAGES:
        pkg = importlib.import_module(pkg_name)
        for mod_info in pkgutil.iter_modules(pkg.__path__):
            module = importlib.import_module(f"{pkg_name}.{mod_info.name}")
            for attr, cls in sorted(vars(module).items()):
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                if not issubclass(cls, base_classes) or attr.startswith("_"):
                    continue
                family = _interface_family(cls, bases)
                if family is None:  # pragma: no cover - unreachable
                    continue
                qual = f"{cls.__module__}.{cls.__qualname__}"
                overrides = tuple(
                    meth for meth in BATCH_METHODS if meth in vars(cls)
                )
                try:
                    _, lineno = inspect.getsourcelines(cls)
                except OSError:  # pragma: no cover - source always on disk here
                    lineno = 1
                view.classes.append(
                    IndexClassInfo(
                        qualname=qual,
                        name=attr,
                        module=cls.__module__,
                        filename=inspect.getfile(cls),
                        lineno=lineno,
                        family=family,
                        missing_abstract=tuple(
                            sorted(getattr(cls, "__abstractmethods__", ()))
                        ),
                        batch_overrides=overrides,
                        in_registry=qual in implemented,
                        factory_names=tuple(factory_names.get(qual, ())),
                    )
                )
    return view
