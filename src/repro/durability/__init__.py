"""Durable storage and crash recovery for the polystore.

WAL-backed changelog capture, atomic per-engine snapshots with manifest
files, and replay-based recovery — see :mod:`repro.durability.manager` for
the architecture and ``DESIGN.md`` for the on-disk format.
"""

from repro.durability import faults
from repro.durability.faults import InjectedFault, arm, clear, disarm
from repro.durability.manager import DurabilityManager, EngineStore
from repro.durability.wal import SYNC_POLICIES

__all__ = [
    "SYNC_POLICIES",
    "DurabilityManager",
    "EngineStore",
    "InjectedFault",
    "arm",
    "clear",
    "disarm",
    "faults",
]
