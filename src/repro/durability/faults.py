"""Fault-injection points for crash testing the durability subsystem.

A *fault point* is a named place in the durability code where a test can
arrange for the process to "die": :func:`arm` registers the point, and the
first time execution reaches it (:func:`trip`), the durability manager
marks itself dead — every subsequent WAL append, snapshot or manifest write
becomes a silent no-op, exactly as if the process had been killed at that
instant — and an :class:`InjectedFault` propagates out of the mutator that
hit it.  The test then abandons the in-memory system and re-opens the data
directory, which is the recovery path a real crash would exercise.

Built-in points (see :mod:`repro.durability.wal` / ``manager``):

* ``"wal.append"`` — die mid-append, leaving a torn trailing record,
* ``"snapshot.write"`` — die after writing a checkpoint file's temp file
  (page segment or snapshot) but before the atomic rename (the manifest
  never references it).
"""

from __future__ import annotations

import threading

#: Names of the fault points compiled into the durability subsystem.
KNOWN_POINTS = ("wal.append", "snapshot.write")


class InjectedFault(RuntimeError):
    """Raised when execution reaches an armed fault point."""


_lock = threading.Lock()
_armed: dict[str, int] = {}


def arm(point: str, *, skip: int = 0) -> None:
    """Arm ``point`` to fire after ``skip`` passes through it (one-shot)."""
    with _lock:
        _armed[point] = skip


def disarm(point: str) -> None:
    """Disarm ``point`` if armed."""
    with _lock:
        _armed.pop(point, None)


def clear() -> None:
    """Disarm every fault point (test teardown)."""
    with _lock:
        _armed.clear()


def trip(point: str) -> bool:
    """Whether an armed ``point`` fires now (consumes the arming)."""
    with _lock:
        if point not in _armed:
            return False
        if _armed[point] > 0:
            _armed[point] -= 1
            return False
        del _armed[point]
        return True
