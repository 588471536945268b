"""Heap storage for the relational engine.

Tables are stored as a list of fixed-capacity pages of rows.  The page
structure exists so that the cost model can reason about page reads (the
sequential-scan vs index-seek distinction in paper §III-A-2), so the
engine reports "pages read" metrics to the middleware optimizer, and so an
update or delete copies only the pages it touches (:meth:`HeapStorage.rewrite`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from typing import Any, Callable, Iterator, Sequence

from repro.datamodel.schema import Schema
from repro.datamodel.table import Row, Table
from repro.exceptions import StorageError

DEFAULT_PAGE_CAPACITY = 256


@dataclass
class Page:
    """A fixed-capacity container of rows."""

    capacity: int
    rows: list[Row] = field(default_factory=list)

    @property
    def is_full(self) -> bool:
        """Whether the page has reached capacity."""
        return len(self.rows) >= self.capacity

    def append(self, row: Row) -> None:
        """Append a row; raises :class:`StorageError` if the page is full."""
        if self.is_full:
            raise StorageError("page is full")
        self.rows.append(row)


class HeapStorage:
    """Heap of pages for one table.  A row id is positional, ``(page, slot)``;
    only the last page takes inserts, so sibling heaps (:meth:`rewrite`) may
    share every other page."""

    def __init__(self, schema: Schema, page_capacity: int = DEFAULT_PAGE_CAPACITY) -> None:
        if page_capacity <= 0:
            raise StorageError("page_capacity must be positive")
        self.schema = schema
        self.page_capacity = page_capacity
        self._pages: list[Page] = []
        self._num_rows = 0

    # -- writes ---------------------------------------------------------------

    def insert(self, row: Row, *, validate: bool = False) -> tuple[int, int]:
        """Insert a row tuple; returns its ``(page, slot)`` row identifier."""
        if validate:
            self.schema.validate_row(row)
        pages = self._pages
        if not pages or pages[-1].is_full:
            pages.append(Page(self.page_capacity))
        page = pages[-1]
        page.append(row)
        self._num_rows += 1
        return len(pages) - 1, len(page.rows) - 1

    def insert_many(self, rows: Sequence[Sequence[Any]], *, validate: bool = False) -> int:
        """Insert many rows; returns the number inserted."""
        for row in rows:
            self.insert(tuple(row), validate=validate)
        return len(rows)

    def rewrite(self, matches: Callable[[Row], Any],
                patch: Callable[[Row], Row] | None = None
                ) -> tuple["HeapStorage", list[Row], list[Row], int]:
        """A sibling heap without the matching rows, or with them patched.

        ``matches`` is called once per row, in scan order.  With ``patch`` a
        matching row is replaced in its slot by ``patch(row)`` (row ids stay);
        without, it is dropped, survivors close up inside their page and a
        page left empty disappears (row ids move).  Interior pages may stay
        under-full: only the last page takes inserts, so scan order is kept.

        A page without a match is shared with this heap and a page with one
        is copied; an open last page is always copied, so rows inserted into
        the sibling never show up here.  Returns the sibling, the matched
        rows, their replacements (none for a delete) and the pages copied.
        """
        sibling = HeapStorage(self.schema, self.page_capacity)
        pages = sibling._pages
        matched: list[Row] = []
        patched: list[Row] = []
        copied = 0
        tail_shared = False
        for page in self._pages:
            rows = page.rows
            flags = list(map(matches, rows))
            if not any(flags):
                pages.append(page)
                tail_shared = True
                continue
            if patch is None:
                matched.extend(compress(rows, flags))
                rows = [row for row, flag in zip(rows, flags) if not flag]
                if not rows:
                    continue
            else:
                rows = list(rows)
                for slot in compress(count(), flags):
                    matched.append(rows[slot])
                    rows[slot] = patch(rows[slot])
                    patched.append(rows[slot])
            pages.append(Page(self.page_capacity, rows))
            copied += 1
            tail_shared = False
        if tail_shared and not pages[-1].is_full:
            pages[-1] = Page(self.page_capacity, list(pages[-1].rows))
            copied += 1
        sibling._num_rows = self._num_rows - (len(matched) if patch is None else 0)
        return sibling, matched, patched, copied

    # -- reads ----------------------------------------------------------------

    def fetch(self, page: int, slot: int) -> Row:
        """Fetch one row by its row identifier."""
        try:
            return self._pages[page].rows[slot]
        except IndexError as exc:
            raise StorageError(f"invalid row id ({page}, {slot})") from exc

    def scan(self) -> Iterator[Row]:
        """Yield every row in insertion order (a full sequential scan)."""
        for page in self._pages:
            yield from page.rows

    def scan_with_rids(self) -> Iterator[tuple[tuple[int, int], Row]]:
        """Yield ``((page, slot), row)`` pairs in insertion order."""
        for number, page in enumerate(self._pages):
            for slot, row in enumerate(page.rows):
                yield (number, slot), row

    def to_table(self) -> Table:
        """Materialize the heap as a :class:`Table`."""
        return Table.wrap(self.schema, list(self.scan()))

    # -- statistics -------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Number of stored rows."""
        return self._num_rows

    @property
    def num_pages(self) -> int:
        """Number of allocated pages."""
        return len(self._pages)

    def estimated_bytes(self) -> int:
        """Approximate stored size in bytes."""
        return self.schema.row_width() * self._num_rows

    def statistics(self) -> dict[str, Any]:
        """Summary statistics used by the catalog and the cost model."""
        return {
            "rows": self._num_rows,
            "pages": self.num_pages,
            "page_capacity": self.page_capacity,
            "bytes": self.estimated_bytes(),
        }
