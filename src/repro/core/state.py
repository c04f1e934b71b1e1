"""Built-state export / reconstruct: the shared-state contract.

A built index is, at heart, a handful of large numeric arrays (sorted
keys, Morton codes, segment tables, model parameter columns) plus a
small amount of Python object state (configuration, value payloads,
model objects).  :func:`export_index_state` splits a built index along
exactly that line:

* every non-object ndarray reachable through plain containers in the
  instance ``__dict__`` is collected *by reference* into
  :attr:`IndexState.arrays` (deduplicated on identity, so aliased
  arrays — e.g. a PGM level-key array that *is* the data array — are
  exported once),
* everything else is pickled into :attr:`IndexState.payload`, with each
  extracted array replaced by a positional :class:`_SharedArrayRef`
  placeholder.

:func:`index_from_state` inverts the split: it re-creates the instance
without calling ``__init__`` (and therefore without retraining), splices
the arrays back into the restored ``__dict__``, and returns a queryable
index.  Passing substitute ``arrays`` — for example zero-copy views of a
``multiprocessing.shared_memory`` buffer — reconstructs the same index
over memory owned by someone else; that is how the multi-process serving
backend maps a shard without rebuilding it (see :mod:`repro.serve.shm`).

Security note: the payload is a pickle — only reconstruct states
produced by code you trust.
"""

from __future__ import annotations

import importlib
import pickle
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "IndexState",
    "StateError",
    "export_index_state",
    "index_from_state",
    "resolve_index_class",
]


class StateError(RuntimeError):
    """Raised when an index state cannot be exported or reconstructed."""


@dataclass(frozen=True)
class _SharedArrayRef:
    """Placeholder left in the pickled payload for an extracted array."""

    index: int


@dataclass(frozen=True)
class _RefBranch:
    """A container rebuilt because an array ref lives somewhere beneath it.

    Ref-free subtrees are left in the payload as their original objects,
    so reconstruction only walks the (small) spine that actually carries
    refs — a million-entry value list costs O(1) to splice back, not a
    million recursive visits.
    """

    items: Any


@dataclass
class IndexState:
    """One built index, split into shareable arrays and pickled residue.

    Attributes:
        cls_module: module holding the index class.
        cls_qualname: qualified class name inside that module.
        arrays: the extracted numeric ndarrays, positionally referenced
            by :class:`_SharedArrayRef` placeholders in ``payload``.
        payload: pickle of the instance ``__dict__`` with placeholders.
    """

    cls_module: str
    cls_qualname: str
    arrays: list[np.ndarray]
    payload: bytes

    @property
    def nbytes(self) -> int:
        """Total exported size: array bytes plus payload bytes."""
        return sum(int(a.nbytes) for a in self.arrays) + len(self.payload)

    def class_path(self) -> str:
        return f"{self.cls_module}.{self.cls_qualname}"


def _shareable(value: object) -> bool:
    """Whether ``value`` is an ndarray that can live in a flat buffer."""
    return isinstance(value, np.ndarray) and not value.dtype.hasobject


def _decompose(value: Any, arrays: list[np.ndarray],
               memo: dict[int, int]) -> Any:
    """Replace shareable arrays in a plain-container tree with refs.

    Only exact ``list`` / ``tuple`` / ``dict`` instances are descended
    into; anything else (model objects, dataclasses, subclassed
    containers) is left for the pickle, which keeps the traversal free
    of surprises at the cost of copying any arrays those objects hold —
    in this library that is only small model-parameter state.
    """
    if _shareable(value):
        key = id(value)
        if key not in memo:
            memo[key] = len(arrays)
            arrays.append(value)
        return _SharedArrayRef(memo[key])
    if type(value) is list:
        out = [_decompose(item, arrays, memo) for item in value]
        if all(a is b for a, b in zip(out, value)):
            return value  # ref-free: keep the original, recompose skips it
        return _RefBranch(out)
    if type(value) is tuple:
        out_t = tuple(_decompose(item, arrays, memo) for item in value)
        if all(a is b for a, b in zip(out_t, value)):
            return value
        return _RefBranch(out_t)
    if type(value) is dict:
        out_d = {k: _decompose(v, arrays, memo) for k, v in value.items()}
        if all(out_d[k] is v for k, v in value.items()):
            return value
        return _RefBranch(out_d)
    return value


def _recompose(value: Any, arrays: list[np.ndarray]) -> Any:
    """Inverse of :func:`_decompose`: splice ``arrays`` back in.

    Only :class:`_SharedArrayRef` leaves and :class:`_RefBranch` spines
    are visited; everything else is already its final object.
    """
    if isinstance(value, _SharedArrayRef):
        try:
            return arrays[value.index]
        except IndexError:
            raise StateError(
                f"state references array #{value.index} but only "
                f"{len(arrays)} arrays were provided"
            ) from None
    if isinstance(value, _RefBranch):
        items = value.items
        if type(items) is list:
            return [_recompose(item, arrays) for item in items]
        if type(items) is tuple:
            return tuple(_recompose(item, arrays) for item in items)
        if type(items) is dict:
            return {k: _recompose(v, arrays) for k, v in items.items()}
        raise StateError(
            f"malformed ref branch of type {type(items).__name__}"
        )
    return value


def export_index_state(index: object) -> IndexState:
    """Export a built index's state for sharing or reconstruction.

    The returned arrays are the index's *own* arrays (no copy is taken);
    treat the state as an immutable snapshot and do not mutate the
    source index while others hold it.
    """
    cls = type(index)
    arrays: list[np.ndarray] = []
    memo: dict[int, int] = {}
    tree = {
        name: _decompose(value, arrays, memo)
        for name, value in vars(index).items()
    }
    try:
        payload = pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise StateError(
            f"{cls.__name__} state is not exportable: {exc!r}"
        ) from exc
    return IndexState(
        cls_module=cls.__module__,
        cls_qualname=cls.__qualname__,
        arrays=arrays,
        payload=payload,
    )


def _resolve_class(module: str, qualname: str) -> type:
    try:
        obj: Any = importlib.import_module(module)
    except ImportError as exc:
        raise StateError(f"cannot import {module!r} to reconstruct index") from exc
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise StateError(
                f"{module}.{qualname} no longer exists; cannot reconstruct"
            ) from None
    if not isinstance(obj, type):
        raise StateError(f"{module}.{qualname} is not a class")
    return obj


def resolve_index_class(state: IndexState) -> type:
    """The class a state reconstructs into, resolved by import path.

    Reconstruction should normally go through ``cls.from_state`` (which
    base interfaces provide and some classes override to rebuild linked
    structures); this resolver is how generic callers find that ``cls``.
    """
    return _resolve_class(state.cls_module, state.cls_qualname)


def index_from_state(state: IndexState,
                     arrays: list[np.ndarray] | None = None) -> object:
    """Reconstruct an index from an exported state without retraining.

    Args:
        state: the exported state.
        arrays: optional substitutes for ``state.arrays`` (must align
            positionally) — pass shared-memory views here to build a
            zero-copy read-only view of the original index.

    The instance is created with ``cls.__new__`` (``__init__`` is never
    run), so reconstruction costs one unpickle plus attribute splicing.
    """
    source = state.arrays if arrays is None else arrays
    if len(source) != len(state.arrays):
        raise StateError(
            f"array count mismatch: state exported {len(state.arrays)} "
            f"arrays, got {len(source)} substitutes"
        )
    cls = _resolve_class(state.cls_module, state.cls_qualname)
    try:
        tree = pickle.loads(state.payload)
    except Exception as exc:
        raise StateError(f"corrupt state payload: {exc!r}") from exc
    if not isinstance(tree, dict):
        raise StateError("state payload did not decode to an attribute dict")
    instance = cls.__new__(cls)
    instance.__dict__.update(
        {name: _recompose(value, source) for name, value in tree.items()}
    )
    return instance
