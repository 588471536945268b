"""Heap storage for the relational engine.

Tables are stored as a list of fixed-capacity pages of rows.  The page
structure exists so that the cost model can reason about page reads (the
sequential-scan vs index-seek distinction in paper §III-A-2), so a read or
write can say how many pages it examined (:meth:`HeapStorage.select` and
:meth:`HeapStorage.rewrite` return it), so an
update or delete copies only the pages it touches (:meth:`HeapStorage.rewrite`),
and so a predicate is evaluated only on the pages whose per-column min/max
summaries (:meth:`Page.bounds`) say a row could satisfy it.  A page that
no longer changes also lends its columns as numpy arrays (:meth:`Page.column`)
to the vector fold of a scan that aggregates what it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, count
from operator import itemgetter
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.datamodel.schema import Schema
from repro.datamodel.table import Row
from repro.exceptions import StorageError
from repro.stores.relational import kernels
from repro.stores.relational.expressions import Expression, page_test

DEFAULT_PAGE_CAPACITY = 256


class PageColumn(NamedTuple):
    """A sealed page's column (:meth:`Page.column`): ``values`` in the
    narrowest int or float dtype that holds them exactly, or codes into
    ``keys`` (the distinct ``str`` cells, first seen first); ``0`` where
    ``nulls`` (``None`` if no cell is ``None``) is set; ``kind``, the type of
    every other cell."""

    values: np.ndarray
    nulls: np.ndarray | None
    kind: type
    keys: tuple[str, ...]


@dataclass
class Page:
    """A fixed-capacity container of rows."""

    capacity: int
    rows: list[Row] = field(default_factory=list)
    #: Column position -> what :meth:`bounds` found, filled on first use.
    _bounds: dict[int, Any] = field(default_factory=dict, repr=False, compare=False)
    #: Column position -> what :meth:`column` built, filled on first use.
    _columns: dict[int, PageColumn | None] = field(default_factory=dict, repr=False,
                                                    compare=False)
    #: ``(segment file, index)`` once a checkpoint has written this page — only
    #: ever a sealed one, so the bytes on disk stay the page's rows.
    _ref: tuple[str, int] | None = field(default=None, repr=False, compare=False)

    def bounds(self, position: int) -> tuple[Any, Any] | None:
        """``(min, max)`` of one column's values, leaving out ``None`` and NaN;
        ``None`` when none is left or they do not order against each other.

        Computed once and kept, so only for a page that no longer changes:
        one that is not the last of the page list it was reached through.
        """
        if position not in self._bounds:
            try:
                values = [v for v in (row[position] for row in self.rows)
                          if v is not None and v == v]
                self._bounds[position] = (min(values), max(values)) if values else None
            except (TypeError, ValueError):
                self._bounds[position] = None
        return self._bounds[position]

    def column(self, position: int) -> PageColumn | None:
        """One column's cells as arrays; ``None`` unless the cells that are not
        ``None`` share one type: ``int`` within int64, ``bool``, ``float``
        without NaN or ``str``.  Built once and kept, as :meth:`bounds` is, so
        only for a page that no longer changes (racers build equal columns)."""
        try:
            return self._columns[position]
        except KeyError:
            pass
        cells = list(map(itemgetter(position), self.rows))
        kinds = set(map(type, cells))
        nulls = None
        if type(None) in kinds:
            kinds.discard(type(None))
            nulls = np.fromiter((cell is None for cell in cells), bool, len(cells))
        kind = kinds.pop() if len(kinds) == 1 else None
        built = None
        if kind is str:
            index: dict[str, int] = {}
            codes = [0 if cell is None else index.setdefault(cell, len(index))
                     for cell in cells]
            built = PageColumn(np.array(codes, np.min_scalar_type(len(index))), nulls,
                               str, tuple(index))
        elif kind in (int, bool, float):
            try:
                values = np.array(cells if nulls is None else
                                  [0 if cell is None else cell for cell in cells],
                                  np.float64 if kind is float else np.int64)
            except OverflowError:  # an int beyond int64
                values = None
            if values is not None and not np.isnan(values).any():
                # Kept in the narrowest type that holds every cell exactly.
                with np.errstate(over="ignore"):
                    for narrow in (np.float32,) if kind is float else (np.int8, np.int16,
                                                                       np.int32):
                        if ((small := values.astype(narrow)) == values).all():
                            values = small
                            break
                built = PageColumn(values, nulls, kind, ())
        self._columns[position] = built
        return built

    def __len__(self) -> int:
        return len(self.rows)

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

    @classmethod
    def from_pages(cls, schema: Schema, page_capacity: int,
                   pages: list[Page]) -> "HeapStorage":
        """A heap over ``pages`` as they are: boundaries, and so row ids, kept."""
        heap = cls(schema, page_capacity)
        heap._pages = pages
        heap._num_rows = sum(len(page.rows) for page in pages)
        return heap

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

    def _examine(self, pages: list[Page], predicate: Expression | None
                 ) -> list[bool]:
        """For each of ``pages`` (the page list, sliced once), whether a row of
        it may satisfy ``predicate`` going by its summary.  The last page may
        still be taking inserts: it is never summarised, always examined."""
        may_match = (page_test(predicate, self.schema)
                     if predicate is not None and len(pages) > 1 else None)
        if may_match is None:
            return [True] * len(pages)
        return [may_match(page) for page in pages[:-1]] + [True]

    def rewrite(self, matches: Expression | Callable[[Row], Any],
                patch: Callable[[Row], Row] | None = None
                ) -> tuple["HeapStorage", list[Row], list[Row], int, int]:
        """A sibling heap without the matching rows, or with them patched.

        ``matches`` is called once per row, in scan order — given as a
        predicate expression, only on the pages whose summaries do not rule it
        out.  With ``patch`` a matching row is replaced in its slot by
        ``patch(row)`` (row ids stay); without, it is dropped, survivors close
        up inside their page and a page left empty disappears (row ids move).
        Interior pages may stay under-full: only the last page takes inserts,
        so scan order is kept.

        A page without a match is shared with this heap and a page with one
        is copied; an open last page is always copied, so rows inserted into
        the sibling never show up here.  Returns the sibling, the matched
        rows, their replacements (none for a delete), the pages copied and
        the pages examined.
        """
        sibling = HeapStorage(self.schema, self.page_capacity)
        pages = sibling._pages
        matched: list[Row] = []
        patched: list[Row] = []
        copied = 0
        tail_shared = False
        predicate = matches if isinstance(matches, Expression) else None
        if predicate is not None:
            matches = predicate.compile(self.schema)
        examine = self._examine(self._pages, predicate)
        for page, candidate in zip(self._pages, examine):
            rows = page.rows
            flags = list(map(matches, rows)) if candidate else ()
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
        return sibling, matched, patched, copied, sum(examine)

    # -- reads ----------------------------------------------------------------

    def fetch(self, page: int, slot: int) -> Row:
        """Fetch one row by its row identifier."""
        return self.fetch_many([(page, slot)])[0]

    def fetch_many(self, rids: Sequence[tuple[int, int]]) -> list[Row]:
        """The rows at the given ``(page, slot)`` identifiers, in their order."""
        pages = self._pages
        try:
            return [pages[page].rows[slot] for page, slot in rids]
        except IndexError as exc:
            raise StorageError(f"invalid row id among {rids[:3]}") from exc

    def scan(self) -> Iterator[Row]:
        """Yield every row in insertion order (a full sequential scan)."""
        for page in self._pages:
            yield from page.rows

    def scan_with_rids(self) -> Iterator[tuple[tuple[int, int], Row]]:
        """Yield ``((page, slot), row)`` pairs in insertion order."""
        for number, page in enumerate(self._pages):
            for slot, row in enumerate(page.rows):
                yield (number, slot), row

    def candidates(self, predicate: Expression | None = None
                   ) -> tuple[list[Page], int]:
        """The pages whose summaries do not rule ``predicate`` out (every page,
        without one), in scan order, and the number of pages there were.  The
        last of them is the heap's last page, the one that may still change."""
        pages = self._pages[:]
        return list(compress(pages, self._examine(pages, predicate))), len(pages)

    def select(self, predicate: Expression | None = None,
               columns: Sequence[str] | None = None
               ) -> tuple[list[Row], int, int, int]:
        """The rows satisfying ``predicate`` (all, without one), in scan order,
        cut down to ``columns`` if given.

        One generated walk filters and projects page by page, and only the
        :meth:`candidates` pages; an empty heap does not even bind the
        predicate.  Returns the rows, the rows examined, the pages examined
        and the pages there were.
        """
        candidates, pages = self.candidates(predicate)
        chunks = [page.rows for page in candidates]
        if pages and (predicate is not None or columns is not None):
            rows = kernels.select(self.schema, predicate, columns)(chunks)
        else:
            rows = list(chain.from_iterable(chunks))
        return rows, sum(map(len, chunks)), len(chunks), pages

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
