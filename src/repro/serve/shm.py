"""Shared-memory shard snapshots: pack, attach, verify, unlink.

This module owns the *entire* lifecycle of the serving layer's
``multiprocessing.shared_memory`` segments (the RPR010 discipline —
creating or unlinking a segment anywhere else in ``repro.serve`` is a
lint error).  A segment holds one shard's state as the very blocks an
artifact's ``blocks.bin`` holds (:mod:`repro.core.state`); only a small
:class:`ShardManifest` (segment name, block layout with its sha256,
generation) crosses the worker pipe, and :func:`attach_view` decodes
the mapped segment — digest first, then zero-copy read-only views — into
a queryable index without retraining.

Unlink discipline: the snapshot *owner* (the parent process) unlinks a
segment only after every worker has acknowledged remapping to its
successor; workers attach without registering with the resource tracker
(they never own the segment), so worker exit — clean or killed — neither
unlinks a live segment nor leaks a tracker complaint.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

from repro.core.artifact import ArtifactError, open_blocks
from repro.core.state import (
    BlockLayout,
    IndexState,
    StateError,
    decode_blocks,
    encode_blocks,
    restore,
    verify_blocks,
)

__all__ = [
    "SEGMENT_PREFIX",
    "ShardManifest",
    "SnapshotIntegrityError",
    "pack_state",
    "pack_artifact",
    "attach_view",
    "release_segment",
    "list_repro_segments",
]

#: Every segment this library creates carries this name prefix, so tests
#: and operators can audit ``/dev/shm`` for leaks unambiguously.
SEGMENT_PREFIX = "repro_serve_"


class SnapshotIntegrityError(RuntimeError):
    """A snapshot segment is missing, truncated, or fails its digest."""


@dataclass(frozen=True)
class ShardManifest:
    """Everything a worker needs to map one packed shard snapshot: the
    segment name, the block layout (digest included) and the generation
    the snapshot was taken at."""

    shm_name: str
    layout: BlockLayout
    generation: int


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    Workers map segments they do not own; letting their resource tracker
    register the attachment would unlink live segments (and spam leak
    warnings) when a worker exits.  Python 3.13 has ``track=False`` for
    exactly this.  On older versions attach-then-unregister is the
    documented dance, but forked workers share the parent's tracker
    cache (a set), so the unregister would also erase the *creator's*
    registration and the eventual unlink would trip a KeyError in the
    tracker; suppressing the attach-side register call keeps the cache
    balanced instead.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        pass
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _new_segment(nbytes: int) -> shared_memory.SharedMemory:
    """A fresh owned segment of ``nbytes`` under a collision-free name
    carrying the audit prefix."""
    name = f"{SEGMENT_PREFIX}{os.getpid():x}_{secrets.token_hex(6)}"
    return shared_memory.SharedMemory(create=True, size=max(nbytes, 1), name=name)


def pack_state(state: IndexState, generation: int = 0) -> tuple[ShardManifest, shared_memory.SharedMemory]:
    """Pack an exported index state into one shared-memory segment.

    Returns the manifest plus the owning :class:`SharedMemory` handle.
    The caller owns the segment: it must eventually retire it through
    :func:`release_segment` (the executor does this on snapshot
    retirement and on shutdown).
    """
    layout, pieces = encode_blocks(state)
    shm = _new_segment(layout.total_bytes)
    try:
        offset = 0
        for piece in pieces:
            shm.buf[offset:offset + piece.nbytes] = piece
            offset += piece.nbytes
    except BaseException:
        release_segment(shm)
        raise
    return ShardManifest(shm.name, layout, generation), shm


def pack_artifact(directory: str | Path,
                  generation: int = 0) -> tuple[ShardManifest, shared_memory.SharedMemory]:
    """Pack an on-disk artifact directly into a shared-memory segment.

    The process backend's cold-start path: the mapped ``blocks.bin`` is
    sha256-checked once against its manifest (a corrupt artifact raises
    :class:`~repro.core.artifact.ArtifactError` before any segment
    exists), then copied in one memcpy under the manifest's digest; no
    payload is unpickled here.  Ownership is as for :func:`pack_state`.
    """
    layout, blocks = open_blocks(directory, mmap_mode="r")
    with blocks:
        try:
            verify_blocks(layout, blocks)
        except StateError as exc:
            raise ArtifactError(f"{directory}: {exc}") from exc
        shm = _new_segment(layout.total_bytes)
        try:
            with memoryview(blocks) as source:
                shm.buf[:layout.total_bytes] = source[:layout.total_bytes]
        except BaseException:
            release_segment(shm)
            raise
    return ShardManifest(shm.name, layout, generation), shm


def attach_view(manifest: ShardManifest) -> tuple[object, shared_memory.SharedMemory]:
    """Map a snapshot segment and reconstruct a read-only index view.

    Decodes the segment with :func:`~repro.core.state.decode_blocks`
    (sha256 over the mapped bytes before any is trusted), freezes the
    zero-copy array views and rebuilds the index without retraining.
    Returns ``(view, shm)``; the caller must keep ``shm`` alive as long
    as the view is queried, and ``close()`` (never ``unlink()`` —
    workers do not own segments) when done.
    """
    try:
        shm = _attach_untracked(manifest.shm_name)
    except FileNotFoundError:
        raise SnapshotIntegrityError(
            f"snapshot segment {manifest.shm_name!r} does not exist "
            "(already unlinked?)"
        ) from None
    try:
        state = decode_blocks(manifest.layout, shm.buf)
    except StateError as exc:
        shm.close()
        raise SnapshotIntegrityError(f"segment {manifest.shm_name!r}: {exc}") from None
    try:
        for arr in state.arrays:
            arr.flags.writeable = False
        view = restore(state)
    except BaseException:
        state.arrays.clear()  # drop buffer exports so close() cannot raise BufferError
        shm.close()
        raise
    return view, shm


def release_segment(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink an *owned* segment (the owner-side retirement path).

    Owners (the executor, tests) retire segments through this helper so
    the create/unlink lifecycle stays confined to this module — the
    RPR010 rule flags direct ``SharedMemory(create=...)`` / ``unlink()``
    calls elsewhere in the serving layer.  Never call this from a worker:
    workers only ever ``close()`` their attachments.
    """
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


def list_repro_segments() -> list[str]:
    """Names of live ``repro_serve_*`` segments (Linux ``/dev/shm`` audit).

    Returns an empty list on platforms without a ``/dev/shm`` mount; the
    CI leak guard treats that as "nothing to check".
    """
    root = Path("/dev/shm")
    if not root.is_dir():
        return []
    return sorted(p.name for p in root.glob(f"{SEGMENT_PREFIX}*"))
