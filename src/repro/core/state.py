"""Built-state export / reconstruct and the one block layout that holds it.

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
without calling ``__init__`` (and therefore without retraining) and
splices the arrays back into the restored ``__dict__``; :func:`restore`
does the same through the class's own ``from_state``.

A state travels as **blocks**: the arrays little-endian in C order at
64-byte-aligned offsets, then the payload, in one flat buffer described
by a :class:`BlockLayout` that carries one sha256 over all of it.
:func:`encode_blocks` lays a state out; :func:`decode_blocks` checks a
buffer's size and digest and only then views its arrays zero-copy.  The
artifact directory (:mod:`repro.core.artifact`) and the shared-memory
segment (:mod:`repro.serve.shm`) hold exactly these bytes.

Security note: the payload is a pickle — only reconstruct states
produced by code you trust.
"""

from __future__ import annotations

import hashlib
import importlib
import pickle
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "ALIGN",
    "BlockLayout",
    "IndexState",
    "StateError",
    "decode_blocks",
    "encode_blocks",
    "export_index_state",
    "index_from_state",
    "resolve_index_class",
    "restore",
    "verify_blocks",
]

#: Array offsets inside a block buffer are multiples of this.
ALIGN = 64


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


def resolve_index_class(state: IndexState) -> type:
    """The class a state reconstructs into, resolved by import path."""
    module, qualname = state.cls_module, state.cls_qualname
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


def index_from_state(state: IndexState) -> object:
    """Reconstruct an index from an exported state without retraining.

    The instance is created with ``cls.__new__`` (``__init__`` is never
    run), so reconstruction costs one unpickle plus attribute splicing.
    """
    cls = resolve_index_class(state)
    try:
        tree = pickle.loads(state.payload)
    except Exception as exc:
        raise StateError(f"corrupt state payload: {exc!r}") from exc
    if not isinstance(tree, dict):
        raise StateError("state payload did not decode to an attribute dict")
    instance = cls.__new__(cls)
    instance.__dict__.update(
        {name: _recompose(value, state.arrays) for name, value in tree.items()}
    )
    return instance


def restore(state: IndexState) -> object:
    """Rebuild the index a state holds through its class's ``from_state``
    (so overrides that relink structures run), or generically for a
    class without one."""
    from_state = getattr(resolve_index_class(state), "from_state", None)
    return from_state(state) if callable(from_state) else index_from_state(state)


@dataclass(frozen=True)
class BlockLayout:
    """Where one exported state sits in a flat buffer, and its digest.

    ``arrays`` holds one ``(dtype, shape, offset)`` per exported array,
    each little-endian C-order at a multiple of :data:`ALIGN`; the
    pickled payload follows at ``payload_offset``.  ``sha256`` covers
    all ``total_bytes`` bytes, the zero padding included.  A manifest
    stores the layout as its :func:`dataclasses.asdict` form.
    """

    cls_module: str
    cls_qualname: str
    arrays: tuple[tuple[str, tuple[int, ...], int], ...]
    payload_offset: int
    payload_nbytes: int
    sha256: str

    @property
    def total_bytes(self) -> int:
        return self.payload_offset + self.payload_nbytes

    @classmethod
    def from_json(cls, fields: Any) -> "BlockLayout":
        """Inverse of ``asdict``; a missing or mistyped field raises."""
        try:
            return cls(str(fields["cls_module"]), str(fields["cls_qualname"]),
                       tuple((str(d), tuple(map(int, s)), int(o)) for d, s, o in fields["arrays"]),
                       int(fields["payload_offset"]), int(fields["payload_nbytes"]),
                       str(fields["sha256"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise StateError(f"truncated or malformed block layout: {exc!r}") from exc


def encode_blocks(state: IndexState) -> tuple[BlockLayout, list[memoryview]]:
    """Lay ``state`` out as blocks: the layout (digest included) and the
    byte pieces that fill its ``total_bytes`` in order, padding included.

    A piece views a source array (copied only if it is not C-contiguous
    little-endian) or the payload, so the caller writes the pieces
    wherever the blocks go without another copy.
    """
    pieces: list[memoryview] = []
    specs = []
    offset = 0
    for source in state.arrays:
        arr = np.ascontiguousarray(source)
        if arr.dtype.str.startswith(">"):
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        pieces.append(memoryview(bytes(-offset % ALIGN)))
        offset += pieces[-1].nbytes
        specs.append((arr.dtype.str, tuple(arr.shape), offset))
        pieces.append(memoryview(arr.reshape(-1).view(np.uint8)))
        offset += arr.nbytes
    pieces.append(memoryview(bytes(-offset % ALIGN)))
    offset += pieces[-1].nbytes
    pieces.append(memoryview(state.payload))
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    return BlockLayout(state.cls_module, state.cls_qualname, tuple(specs), offset,
                       len(state.payload), digest.hexdigest()), pieces


def verify_blocks(layout: BlockLayout, buf: Any) -> None:
    """Check that ``buf`` starts with the layout's bytes: size, then one
    sha256 over a memoryview (never a copy).  Holds no view of ``buf``
    once it returns or raises, so a failed buffer's owner can close it."""
    total = layout.total_bytes
    with memoryview(buf) as whole:
        size = whole.nbytes
        if size >= total:
            with whole[:total] as head:
                digest = hashlib.sha256(head).hexdigest()
    if size < total:
        raise StateError(f"blocks hold {size} bytes, layout says {total} (truncated)")
    if digest != layout.sha256:
        raise StateError(f"blocks sha256 mismatch: {digest[:12]}... != "
                         f"{layout.sha256[:12]}... (corrupt bytes)")


def decode_blocks(layout: BlockLayout, buf: Any) -> IndexState:
    """The state ``buf`` holds: :func:`verify_blocks` first, then array
    views over ``buf`` (read-only when ``buf`` is) and a copy of the
    payload.  No byte is interpreted before the digest matches."""
    verify_blocks(layout, buf)
    try:
        arrays = [np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)
                  for dtype, shape, offset in layout.arrays]
    except (TypeError, ValueError) as exc:
        raise StateError(f"block layout does not fit its buffer: {exc}") from exc
    payload = bytes(memoryview(buf)[layout.payload_offset:layout.total_bytes])
    return IndexState(layout.cls_module, layout.cls_qualname, arrays, payload)
