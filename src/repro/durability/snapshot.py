"""Atomic snapshot, page-segment and manifest files for the durability subsystem.

Every file here is written to a temp file and renamed into place
(:func:`write_atomic`), so a reader sees a complete file or none.  A snapshot
(``snap-%08d.pkl``) is one framed record (the WAL's length+crc32 framing); a
page segment (``seg-%08d.pkl``) is the same behind a magic + format-version
header, and holds sealed relational heap pages as plain builtins.  The
manifest is a small JSON file naming the snapshot to restore from and the WAL
segment to replay after it:

``{"snapshot_id", "snapshot", "wal_segment", "scoped_versions", ...}``

The recovery invariant: the state in the manifest's snapshot — with the pages
its refs name in segment files — equals the integral of every WAL record up
to (excluding) ``wal_segment``, so restore = load snapshot + replay segments
``>= wal_segment``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.durability import faults
from repro.durability.wal import Liveness, decode_stream, encode_record
from repro.exceptions import StorageError

MANIFEST_NAME = "manifest.json"
SNAPSHOT_PREFIX = "snap-"
SNAPSHOT_SUFFIX = ".pkl"
#: A page segment is this magic + one-byte format version, then one record.
SEGMENT_HEADER = b"PSPPSEG" + bytes([1])


def snapshot_name(snapshot_id: int) -> str:
    """Filename of snapshot ``snapshot_id``."""
    return f"{SNAPSHOT_PREFIX}{snapshot_id:08d}{SNAPSHOT_SUFFIX}"


def snapshot_id(name: str) -> int | None:
    """Snapshot id encoded in ``name``, or ``None`` for other files."""
    if not (name.startswith(SNAPSHOT_PREFIX) and name.endswith(SNAPSHOT_SUFFIX)):
        return None
    digits = name[len(SNAPSHOT_PREFIX):-len(SNAPSHOT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def write_atomic(path: Path, data: bytes, *, header: bytes = b"",
                 fault: Liveness | None = None) -> None:
    """Write ``header + data`` to ``path`` via a temp file + fsync + rename.

    Given ``fault`` (the writer's liveness), an armed ``"snapshot.write"``
    fault point dies after the temp file is written but before the rename —
    no manifest ever names the half-taken file and recovery uses the
    previous checkpoint.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(header)
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if fault is not None and faults.trip("snapshot.write"):
        fault.kill()
        raise faults.InjectedFault(f"fault point 'snapshot.write' fired at {path}")
    os.replace(tmp, path)


def read_record(path: Path, header: bytes = b"") -> Any:
    """The one checksum-verified record ``path`` holds behind ``header``."""
    data = path.read_bytes()
    records, torn = decode_stream(data[len(header):])
    if not data.startswith(header) or torn or len(records) != 1:
        raise StorageError(f"{path} is corrupt or of an unknown format")
    return records[0]


def write_snapshot(directory: Path, snap_id: int, payload: Any,
                   liveness: Liveness) -> str:
    """Atomically persist one snapshot payload; returns its filename."""
    name = snapshot_name(snap_id)
    write_atomic(directory / name, encode_record(payload), fault=liveness)
    return name


def load_snapshot(directory: Path, name: str) -> Any:
    """Load and checksum-verify one snapshot file."""
    return read_record(directory / name)


def write_manifest(directory: Path, manifest: dict[str, Any]) -> None:
    """Atomically replace the directory's manifest."""
    data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    write_atomic(directory / MANIFEST_NAME, data)


def load_manifest(directory: Path) -> dict[str, Any] | None:
    """The directory's manifest, or ``None`` when it was never written."""
    path = directory / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise StorageError(f"unreadable manifest in {directory}: {exc}") from exc
