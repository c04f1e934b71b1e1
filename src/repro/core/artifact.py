"""Zero-copy on-disk index artifacts: dump built state, map it back.

An artifact directory holds one exported
:class:`~repro.core.state.IndexState` as its blocks
(:mod:`repro.core.state`) plus a plain-JSON description of them:

``
artifact/
  manifest.json      format + version, registry id, environment, the
                     block layout (class, dtype/shape/offset per array,
                     payload extent, sha256) and total_bytes
  blocks.bin         the arrays, 64-byte aligned, then the pickled payload
``

``mmap_mode="r"`` maps ``blocks.bin`` read-only and rebuilds the index
over zero-copy read-only views of it — no retraining, no array copies;
``mmap_mode=None`` reads it into a private writable buffer (the mode
for an index that will be mutated).  Either way the whole file is size-
and sha256-checked before any byte is interpreted, and the manifest is
plain JSON, so an operator can audit an artifact without executing it.

Security note: the payload is a pickle — only load artifacts produced
by code you trust.
"""

from __future__ import annotations

import json
import mmap
import platform
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.state import (
    BlockLayout,
    IndexState,
    StateError,
    decode_blocks,
    encode_blocks,
    export_index_state,
    restore,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "BLOCKS_NAME",
    "MANIFEST_NAME",
    "ArtifactError",
    "environment_snapshot",
    "open_blocks",
    "read_header",
    "registry_name",
    "write_artifact",
    "read_manifest",
    "read_artifact",
    "save_index_artifact",
    "load_index_artifact",
]

#: Discriminator in ``manifest.json`` so foreign JSON is rejected early.
ARTIFACT_FORMAT = "repro-index-artifact"

#: Bump when the directory layout changes incompatibly.  Version 1 (one
#: file per array plus ``payload.pkl``) is rejected, not read.
ARTIFACT_VERSION = 2

MANIFEST_NAME = "manifest.json"
BLOCKS_NAME = "blocks.bin"


class ArtifactError(RuntimeError):
    """An artifact directory is missing, corrupt, or incompatible."""


def environment_snapshot() -> dict[str, str]:
    """Provenance stamped into every manifest (informational, not verified)."""
    return {
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": str(np.__version__),
        "platform": platform.platform(),
    }


def registry_name(class_path: str) -> str | None:
    """Registry id of the surveyed index a class path implements, if any.

    ``None`` for baselines and helper structures that reproduce no
    surveyed index; the manifest records it so operators can tell *what*
    an artifact is without importing its class.
    """
    from repro.core.registry import REGISTRY

    for info in REGISTRY:
        if info.implemented == class_path:
            return info.name
    return None


def write_artifact(state: IndexState, directory: str | Path) -> Path:
    """Dump an exported index state as a verifiable artifact directory.

    The blocks go to ``blocks.bin`` and ``manifest.json`` is written
    last — a directory without a manifest is never a valid artifact, so
    an interrupted write cannot be half-loaded.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    layout, pieces = encode_blocks(state)
    with (root / BLOCKS_NAME).open("wb") as fh:
        fh.writelines(pieces)
    manifest = {
        "format": ARTIFACT_FORMAT,
        "format_version": ARTIFACT_VERSION,
        "registry": registry_name(state.class_path()),
        "layout": asdict(layout),
        "total_bytes": layout.total_bytes,
        "environment": environment_snapshot(),
    }
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return root


def read_header(path: Path, fmt: str, version: int) -> dict[str, Any]:
    """Parse a JSON header file and check its format and exact version.

    The one reader behind ``manifest.json`` and a store snapshot's
    ``store.json``: a missing or unparseable file, a foreign ``format``,
    or any other ``format_version`` raises :class:`ArtifactError`.
    """
    if not path.is_file():
        raise ArtifactError(f"{path}: missing (not a {fmt} directory)")
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"{path}: unreadable: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ArtifactError(f"{path}: not a {fmt} file")
    found = doc.get("format_version")
    if not isinstance(found, int) or found > version:
        raise ArtifactError(f"{path}: format version {found!r} newer than supported {version}")
    if found < version:
        raise ArtifactError(
            f"{path}: format version {found} is no longer read; re-save it (version {version})"
        )
    return doc


def read_manifest(directory: str | Path) -> dict[str, Any]:
    """Parse an artifact's ``manifest.json`` and check its format and version."""
    return read_header(Path(directory) / MANIFEST_NAME, ARTIFACT_FORMAT, ARTIFACT_VERSION)


def open_blocks(directory: str | Path,
                mmap_mode: str | None = "r") -> tuple[BlockLayout, Any]:
    """An artifact's block layout and its unverified blocks buffer.

    ``mmap_mode="r"`` maps ``blocks.bin`` read-only; ``None`` reads it
    into a private writable ``bytearray``.  Nothing here trusts the
    bytes: callers pass the buffer to
    :func:`~repro.core.state.decode_blocks` or
    :func:`~repro.core.state.verify_blocks` first.
    """
    if mmap_mode not in ("r", None):
        raise ArtifactError(f"mmap_mode must be 'r' or None, got {mmap_mode!r}")
    root = Path(directory)
    try:
        layout = BlockLayout.from_json(read_manifest(root).get("layout"))
    except StateError as exc:
        raise ArtifactError(f"{root / MANIFEST_NAME}: {exc}") from exc
    path = root / BLOCKS_NAME
    try:
        with path.open("rb") as fh:
            if mmap_mode == "r":
                return layout, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            buf = bytearray(path.stat().st_size)
            fh.readinto(buf)
            return layout, buf
    except FileNotFoundError:
        raise ArtifactError(f"{path}: missing blocks file") from None
    except (OSError, ValueError) as exc:  # mmap refuses an empty file
        raise ArtifactError(f"{path}: unreadable blocks file: {exc}") from exc


def read_artifact(directory: str | Path,
                  mmap_mode: str | None = "r") -> IndexState:
    """The :class:`IndexState` an artifact directory holds, its arrays
    viewed over ``blocks.bin`` as :func:`open_blocks` opens it; the
    blocks are size- and sha256-checked before any array is viewed."""
    layout, buf = open_blocks(directory, mmap_mode)
    try:
        state = decode_blocks(layout, buf)
    except StateError as exc:
        raise ArtifactError(f"{Path(directory) / BLOCKS_NAME}: {exc}") from exc
    if mmap_mode == "r" and hasattr(mmap, "MADV_DONTNEED"):
        # The digest pass touched every page; hand them back so a served
        # index holds only the pages its queries fault in again.
        buf.madvise(mmap.MADV_DONTNEED)
    return state


def save_index_artifact(index: object, directory: str | Path) -> Path:
    """Export ``index`` and write it as an artifact directory.

    Goes through the index's own ``export_state`` when it has one (so
    subclass overrides run); falls back to the generic exporter for
    plain objects.
    """
    export = getattr(index, "export_state", None)
    try:
        state = export() if callable(export) else export_index_state(index)
    except StateError as exc:
        raise ArtifactError(str(exc)) from exc
    return write_artifact(state, directory)


def load_index_artifact(directory: str | Path,
                        mmap_mode: str | None = "r") -> object:
    """Load an artifact back into a queryable index, no retraining.

    The index is rebuilt by :func:`~repro.core.state.restore` (so class
    ``from_state`` overrides run); with the default ``mmap_mode="r"`` its
    numeric arrays are read-only views over the mapped blocks file.
    """
    state = read_artifact(directory, mmap_mode=mmap_mode)
    try:
        return restore(state)
    except StateError as exc:
        raise ArtifactError(str(exc)) from exc
