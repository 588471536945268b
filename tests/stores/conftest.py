"""Fixtures for the store tests."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.stores.relational.storage import HeapStorage


@dataclass
class HeapCall:
    """One :class:`HeapStorage` read or rewrite, counted from its return value."""

    method: str  # "select", "candidates" or "rewrite"
    heap: HeapStorage  # the heap called
    pages: int  # pages the heap had
    pages_examined: int
    rows_in: int = 0  # rows on the examined pages (reads only)
    pages_copied: int = 0  # rewrite only
    sibling: HeapStorage | None = None  # the heap a rewrite left

    @property
    def pages_skipped(self) -> int:
        return self.pages - self.pages_examined

    @property
    def pages_shared(self) -> int:
        return self.sibling.num_pages - self.pages_copied


class HeapCalls(list):
    """Heap calls, oldest first (a ``select`` follows the ``candidates`` it
    makes)."""

    def last(self, method: str) -> HeapCall:
        """The most recent ``method`` call."""
        return next(call for call in reversed(self) if call.method == method)


@pytest.fixture
def heap_calls(monkeypatch) -> HeapCalls:
    """Every ``select``, ``candidates`` and ``rewrite`` call while the test runs."""
    calls = HeapCalls()
    select, candidates, rewrite = (
        HeapStorage.select, HeapStorage.candidates, HeapStorage.rewrite)

    def spied_select(heap, *args, **kwargs):
        out = select(heap, *args, **kwargs)
        _, rows_in, examined, pages = out
        calls.append(HeapCall("select", heap, pages, examined, rows_in))
        return out

    def spied_candidates(heap, *args, **kwargs):
        out = candidates(heap, *args, **kwargs)
        chunks, pages = out
        calls.append(HeapCall("candidates", heap, pages, len(chunks),
                              sum(map(len, chunks))))
        return out

    def spied_rewrite(heap, *args, **kwargs):
        out = rewrite(heap, *args, **kwargs)
        sibling, _, _, _, copied, examined = out
        calls.append(HeapCall("rewrite", heap, heap.num_pages, examined,
                              pages_copied=copied, sibling=sibling))
        return out

    monkeypatch.setattr(HeapStorage, "select", spied_select)
    monkeypatch.setattr(HeapStorage, "candidates", spied_candidates)
    monkeypatch.setattr(HeapStorage, "rewrite", spied_rewrite)
    return calls

