"""Secondary indexes for the relational engine.

Two index types are provided, matching the access paths the paper discusses
in §III-A-2 (sequential scan vs index seek):

* :class:`HashIndex` — equality lookups in O(1).
* :class:`SortedIndex` — equality and range lookups via binary search over a
  sorted key array (a flat stand-in for a B-tree).
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Any, Iterable, Iterator

from repro.exceptions import StorageError

RowId = tuple[int, int]


class HashIndex:
    """Equality index mapping a key value to row identifiers."""

    def __init__(self, column: str) -> None:
        self.column = column
        self._buckets: dict[Any, list[RowId]] = {}
        self._num_entries = 0

    def lookup(self, key: Any) -> list[RowId]:
        """Row ids whose indexed column equals ``key``."""
        return list(self._buckets.get(key, []))

    def bulk_load(self, entries: Iterable[tuple[Any, RowId]]) -> None:
        """Add an entry for each ``(key, rid)``."""
        for key, rid in entries:
            self._buckets.setdefault(key, []).append(rid)
            self._num_entries += 1

    @staticmethod
    def refusal(keys: list[Any]) -> tuple[int, TypeError] | None:
        """The first of ``keys`` a hash index cannot take, an unhashable one:
        where it is and the error hashing it raises (``None``: it takes all)."""
        try:
            deque(map(hash, keys), 0)
            return None
        except TypeError:
            pass
        for at, key in enumerate(keys):
            try:
                hash(key)
            except TypeError as exc:
                return at, exc
        return None

    def copy(self) -> "HashIndex":
        """An independent index holding the same entries."""
        twin = HashIndex(self.column)
        twin._buckets = {key: list(rids) for key, rids in self._buckets.items()}
        twin._num_entries = self._num_entries
        return twin

    def __len__(self) -> int:
        return self._num_entries


class SortedIndex:
    """Ordered index supporting equality and range lookups.

    Keys are kept in a sorted array rebuilt lazily after inserts; lookups use
    binary search.  ``None`` keys are not indexed (SQL semantics: NULL never
    matches a range predicate).
    """

    def __init__(self, column: str) -> None:
        self.column = column
        self._keys: list[Any] = []
        self._rids: list[RowId] = []
        self._pending: list[tuple[Any, RowId]] = []

    def bulk_load(self, entries: Iterable[tuple[Any, RowId]]) -> None:
        """Add each ``(key, rid)`` but a ``None`` key's; the sorted array is
        rebuilt on the next lookup."""
        self._pending.extend(entry for entry in entries if entry[0] is not None)

    def refusal(self, keys: list[Any]) -> tuple[int, TypeError] | None:
        """As :meth:`HashIndex.refusal`, for the first non-``None`` key that does not
        order against the first key held (or, held none, the batch's first)."""
        held = (self._keys or [key for key, _ in self._pending[:1]]
                or [key for key in keys if key is not None])[:1]
        for at, key in enumerate(keys):
            if key is not None:
                try:
                    key < held[0]
                except TypeError as exc:
                    return at, exc
        return None

    def copy(self) -> "SortedIndex":
        """An independent index holding the same entries."""
        self.flush()
        twin = SortedIndex(self.column)
        # Shared, not copied: a flush replaces the arrays, never edits them.
        twin._keys, twin._rids = self._keys, self._rids
        return twin

    def flush(self) -> None:
        """Sort the pending keys into the array; ``StorageError`` if they do
        not order against each other (the index is then unchanged)."""
        if not self._pending:
            return
        merged = list(zip(self._keys, self._rids)) + self._pending
        try:
            merged.sort(key=lambda pair: pair[0])
        except TypeError as exc:
            raise StorageError(
                f"index on {self.column!r} received keys of incomparable types"
            ) from exc
        self._keys = [key for key, _ in merged]
        self._rids = [rid for _, rid in merged]
        self._pending = []

    def lookup(self, key: Any) -> list[RowId]:
        """Row ids whose indexed column equals ``key``."""
        self.flush()
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        return self._rids[lo:hi]

    def range(self, low: Any = None, high: Any = None, *,
              include_low: bool = True, include_high: bool = True) -> Iterator[RowId]:
        """Row ids whose key falls within ``[low, high]`` (open ends allowed)."""
        self.flush()
        if low is None:
            lo = 0
        else:
            lo = bisect.bisect_left(self._keys, low) if include_low \
                else bisect.bisect_right(self._keys, low)
        if high is None:
            hi = len(self._keys)
        else:
            hi = bisect.bisect_right(self._keys, high) if include_high \
                else bisect.bisect_left(self._keys, high)
        yield from self._rids[lo:hi]
