"""Heap storage for the relational engine.

Tables are stored as a list of fixed-capacity pages of rows.  The page
structure exists so that the cost model can reason about page reads (the
sequential-scan vs index-seek distinction in paper §III-A-2) and so the
engine reports "pages read" metrics to the middleware optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.datamodel.schema import Schema
from repro.datamodel.table import Row, Table
from repro.exceptions import StorageError

DEFAULT_PAGE_CAPACITY = 256


@dataclass
class Page:
    """A fixed-capacity container of rows."""

    page_id: int
    capacity: int
    rows: list[Row] = field(default_factory=list)

    @property
    def is_full(self) -> bool:
        """Whether the page has reached capacity."""
        return len(self.rows) >= self.capacity

    def append(self, row: Row) -> None:
        """Append a row; raises :class:`StorageError` if the page is full."""
        if self.is_full:
            raise StorageError(f"page {self.page_id} is full")
        self.rows.append(row)


class HeapStorage:
    """Append-only heap of pages for one table."""

    def __init__(self, schema: Schema, page_capacity: int = DEFAULT_PAGE_CAPACITY) -> None:
        if page_capacity <= 0:
            raise StorageError("page_capacity must be positive")
        self.schema = schema
        self.page_capacity = page_capacity
        self._pages: list[Page] = []
        self._num_rows = 0

    # -- writes ---------------------------------------------------------------

    def insert(self, row: Sequence[Any], *, validate: bool = False) -> tuple[int, int]:
        """Insert a row; returns its ``(page_id, slot)`` row identifier."""
        row_t = tuple(row)
        if validate:
            self.schema.validate_row(row_t)
        if not self._pages or self._pages[-1].is_full:
            self._pages.append(Page(page_id=len(self._pages), capacity=self.page_capacity))
        page = self._pages[-1]
        page.append(row_t)
        self._num_rows += 1
        return page.page_id, len(page.rows) - 1

    def insert_many(self, rows: Sequence[Sequence[Any]], *, validate: bool = False) -> int:
        """Insert many rows; returns the number inserted."""
        for row in rows:
            self.insert(row, validate=validate)
        return len(rows)

    # -- reads ----------------------------------------------------------------

    def fetch(self, page_id: int, slot: int) -> Row:
        """Fetch one row by its row identifier."""
        try:
            return self._pages[page_id].rows[slot]
        except IndexError as exc:
            raise StorageError(f"invalid row id ({page_id}, {slot})") from exc

    def scan(self) -> Iterator[Row]:
        """Yield every row in insertion order (a full sequential scan)."""
        for page in self._pages:
            yield from page.rows

    def scan_with_rids(self) -> Iterator[tuple[tuple[int, int], Row]]:
        """Yield ``((page_id, slot), row)`` pairs in insertion order."""
        for page in self._pages:
            for slot, row in enumerate(page.rows):
                yield (page.page_id, slot), row

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
