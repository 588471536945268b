"""Heap storage for the relational engine.

Tables are stored as a list of fixed-capacity pages of rows, which an insert
fills a slice at a time (:meth:`HeapStorage.insert_many`).  The page
structure exists so that the cost model can reason about page reads (the
sequential-scan vs index-seek distinction in paper §III-A-2), so a read or
write can say how many pages it examined (:meth:`HeapStorage.select` and
:meth:`HeapStorage.rewrite` return it), so an
update or delete copies only the pages it touches (:meth:`HeapStorage.rewrite`),
and so a predicate is evaluated only on the pages whose per-column min/max
summaries (:meth:`Page.bounds`, and a partitioned table's
:meth:`Page.partitions`) say a row could satisfy it.  A page that
no longer changes also lends its columns as numpy arrays (:meth:`Page.column`)
to the vector fold of a scan that aggregates what it reads.
"""

from __future__ import annotations

import struct
from math import isnan
from dataclasses import dataclass, field
from itertools import chain, compress, count
from operator import itemgetter
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.datamodel.schema import Schema
from repro.datamodel.table import Row
from repro.exceptions import StorageError
from repro.stores.relational import kernels
from repro.stores.relational.expressions import Expression, page_covered, page_test
from repro.stores.relational.partition import partition_of

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


#: The dtypes a column of each kind may narrow to, narrowest first.
_NARROWER = {float: (np.dtype(np.float32),),
             int: (np.dtype(np.int8), np.dtype(np.int16), np.dtype(np.int32))}
_NARROWER[bool] = _NARROWER[int]


def _narrowest(values: np.ndarray, kind: type) -> np.ndarray:
    """``values`` in the narrowest int or float dtype that holds each exactly
    (``values`` itself when none narrower does)."""
    for narrow in _NARROWER[kind]:
        if narrow.itemsize >= values.itemsize:
            break
        with np.errstate(over="ignore"):
            small = values.astype(narrow)
        if (small == values).all():
            return small
    return values


def _holds(dtype: np.dtype, cell: int | float) -> bool:
    """Whether ``dtype`` holds ``cell`` exactly (NaN never: no column has it)."""
    if dtype.kind != "f":
        info = np.iinfo(dtype)
        return info.min <= cell <= info.max
    try:
        return cell == cell and (dtype.itemsize == 8
                                 or struct.unpack("f", struct.pack("f", cell))[0] == cell)
    except OverflowError:  # past float32's range
        return False


def _patched(column: PageColumn, slots: list[int], cells: list[Any]
             ) -> PageColumn | None:
    """``column``, an int, float or bool one without nulls, with ``cells`` in
    ``slots`` (one cell goes to every slot); ``None`` unless each cell is of
    its kind and its dtype holds it exactly (then :meth:`Page.column` builds
    it from the rows)."""
    kind, values = column.kind, column.values
    if column.nulls is not None or kind is str or set(map(type, cells)) != {kind} \
            or not all(_holds(values.dtype, cell) for cell in set(cells)):
        return None
    values = values.copy()
    values[slots] = cells
    return PageColumn(_narrowest(values, kind), None, kind, ())


def _kept(column: PageColumn, keep: np.ndarray) -> PageColumn | None:
    """``column`` without the cells ``keep`` drops; ``None`` for one left with
    no cell that is not ``None``.  A ``str`` column's codes are re-coded into
    the surviving ``keys``, first seen first, as :meth:`Page.column` codes."""
    nulls = None if column.nulls is None else column.nulls[keep]
    if nulls is not None and nulls.all():
        return None
    nulls = nulls if nulls is not None and nulls.any() else None
    values = column.values[keep]
    if column.kind is not str:
        return PageColumn(_narrowest(values, column.kind), nulls, column.kind, ())
    live = values if nulls is None else values[~nulls]
    order = live[np.sort(np.unique(live, return_index=True)[1])]  # codes, first seen first
    recode = np.zeros(len(column.keys), np.min_scalar_type(len(order)))
    recode[order] = np.arange(len(order))
    values = recode[values]
    if nulls is not None:
        values[nulls] = 0
    return PageColumn(values, nulls, str, tuple(column.keys[code] for code in order.tolist()))


@dataclass
class Page:
    """A fixed-capacity container of rows."""

    capacity: int
    rows: list[Row] = field(default_factory=list)
    #: Column position -> what :meth:`bounds` found, filled on first use.
    _bounds: dict[int, Any] = field(default_factory=dict, repr=False, compare=False)
    #: Column position -> :meth:`kind`, filled with its bounds.
    _kinds: dict[int, type] = field(default_factory=dict, repr=False, compare=False)
    #: Column position -> what :meth:`column` built, filled on first use.
    _columns: dict[int, PageColumn | None] = field(default_factory=dict, repr=False,
                                                    compare=False)
    #: What :meth:`partitions` found, filled on first use.
    _partitions: frozenset[int] | None = field(default=None, repr=False, compare=False)
    #: ``(segment file, index)`` once a checkpoint has written this page — only
    #: ever a sealed one, so the bytes on disk stay the page's rows.
    _ref: tuple[str, int] | None = field(default=None, repr=False, compare=False)

    def bounds(self, position: int) -> tuple[Any, Any] | None:
        """``(min, max)`` of one column's values, leaving out ``None`` and NaN;
        ``None`` when none is left or they do not order against each other.

        Read off the column where :meth:`column` has built one (numpy's
        ``min`` / ``max`` as values of its kind, or the least and greatest
        ``keys``), else walked from the rows.  Computed once and kept, so only
        for a page that no longer changes: one that is not the last of the
        page list it was reached through.
        """
        if position not in self._bounds:
            column = self._columns.get(position)
            kinds: Any = () if column is None or column.nulls is not None else {column.kind}
            if column is not None and column.kind is str:
                bounds: Any = min(column.keys), max(column.keys)
            elif column is not None:
                values = column.values if column.nulls is None \
                    else column.values[~column.nulls]
                bounds = column.kind(values.min()), column.kind(values.max())
            else:
                try:
                    values = list(map(itemgetter(position), self.rows))
                    kinds = set(map(type, values))
                    if not kinds <= {int, bool, str} and (  # may hold None or NaN
                            kinds != {float} or any(map(isnan, values))):
                        values = [v for v in values if v is not None and v == v]
                        kinds = kinds if len(values) == len(self.rows) else ()
                    bounds = (min(values), max(values)) if values else None
                except (TypeError, ValueError):
                    bounds = None
            if bounds is not None and len(kinds) == 1 and (kind := kinds.pop()) in (int, bool, float, str):
                self._kinds[position] = kind
            self._bounds[position] = bounds
        return self._bounds[position]

    def partitions(self, position: int, count: int) -> frozenset[int]:
        """The partitions (:func:`partition_of` into ``count``) of one column's
        cells: a partitioned table's key.  Computed once and kept, as
        :meth:`bounds` is, so only for a page that no longer changes."""
        if self._partitions is None:
            self._partitions = frozenset(partition_of(row[position], count)
                                         for row in self.rows)
        return self._partitions

    def kind(self, position: int) -> type | None:
        """The one type — ``int``, ``bool``, ``float`` or ``str`` — of every
        cell of a column with :meth:`bounds`, none ``None`` or NaN; else ``None``."""
        self.bounds(position)
        return self._kinds.get(position)

    def column(self, position: int) -> PageColumn | None:
        """One column's cells as arrays; ``None`` unless the cells that are not
        ``None`` share one type: ``int`` within int64, ``bool``, ``float``
        without NaN or ``str``.  Built once and kept, as :meth:`bounds` is, so
        only for a page that no longer changes (racers build equal columns).
        A page :meth:`HeapStorage.rewrite` copies starts with the columns its
        origin had built that the statement left alone, and with the written
        ones it could patch exactly; this builds the rest from the rows."""
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
                built = PageColumn(_narrowest(values, kind), nulls, kind, ())
        self._columns[position] = built
        return built

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def is_full(self) -> bool:
        """Whether the page has reached capacity."""
        return len(self.rows) >= self.capacity


class HeapStorage:
    """Heap of pages for one table.  A row id is positional, ``(page, slot)``;
    only the last page takes inserts, so sibling heaps (:meth:`rewrite`) may
    share every other page.  A partitioned table's heap knows its
    ``partitioning``, ``(key position, partitions)``, which its reads prune
    pages by (:func:`page_test`)."""

    def __init__(self, schema: Schema, page_capacity: int = DEFAULT_PAGE_CAPACITY,
                 partitioning: tuple[int, int] | None = None) -> None:
        if page_capacity <= 0:
            raise StorageError("page_capacity must be positive")
        self.schema = schema
        self.page_capacity = page_capacity
        self.partitioning = partitioning
        self._pages: list[Page] = []
        self._num_rows = 0

    @classmethod
    def from_pages(cls, schema: Schema, page_capacity: int, pages: list[Page],
                   partitioning: tuple[int, int] | None = None) -> "HeapStorage":
        """A heap over ``pages`` as they are: boundaries, and so row ids, kept."""
        heap = cls(schema, page_capacity, partitioning)
        heap._pages = pages
        heap._num_rows = sum(len(page.rows) for page in pages)
        return heap

    # -- writes ---------------------------------------------------------------

    def insert_many(self, rows: list[Row]) -> list[tuple[int, int, int]]:
        """Land a list of row tuples after the last row: one slice tops up the
        open last page, then each further page is appended holding its slice.
        A page gets a successor only once full and no page is empty, so a
        lock-free reader never summarises one still filling.  The row count
        moves page by page.  Returns each page's ``(page, first slot, end
        slot)`` span, in row order."""
        pages, capacity = self._pages, self.page_capacity
        spans: list[tuple[int, int, int]] = []
        at = 0
        if rows and pages and (first := len(pages[-1].rows)) < capacity:
            at = capacity - first
            top = rows[:at]
            pages[-1].rows.extend(top)
            self._num_rows += len(top)
            spans.append((len(pages) - 1, first, first + len(top)))
        for at in range(at, len(rows), capacity):
            page = Page(capacity, rows[at:at + capacity])
            pages.append(page)
            self._num_rows += len(page.rows)
            spans.append((len(pages) - 1, 0, len(page.rows)))
        return spans

    def _examine(self, pages: list[Page], predicate: Expression | None
                 ) -> list[bool]:
        """For each of ``pages`` (the page list, sliced once), whether a row of
        it may satisfy ``predicate`` going by its summary.  The last page may
        still be taking inserts: it is never summarised, always examined."""
        may_match = (page_test(predicate, self.schema, self.partitioning)
                     if predicate is not None and len(pages) > 1 else None)
        if may_match is None:
            return [True] * len(pages)
        return [may_match(page) for page in pages[:-1]] + [True]

    def rewrite(self, matches: Expression | Callable[[Row], Any],
                patch: Callable[[Row], Row] | None = None,
                written: Mapping[str, Any] | None = None
                ) -> tuple["HeapStorage", list[Row], list[Row], dict[int, Page], int, int]:
        """A sibling heap without the matching rows, or with them patched.

        ``matches`` is called once per row, in scan order — given as a
        predicate expression, only on the pages whose summaries do not rule it
        out, and a delete's not on a sealed page whose summaries prove every
        row matches (:func:`page_covered`): that page is dropped whole, by
        reference.  With ``patch`` a matching row is replaced in its slot by
        ``patch(row)`` (row ids stay); without, it is dropped, survivors close
        up inside their page and a page left empty disappears (row ids move).
        Interior pages may stay under-full: only the last page takes inserts,
        so scan order is kept.

        A page without a match is shared with this heap and a page with one
        is copied; an open last page is always copied, so rows inserted into
        the sibling never show up here.  A copy that will not take inserts
        starts with what its origin built (:meth:`Page.column`,
        :meth:`Page.bounds`), made here, not on first read: a column outside
        ``written`` — the value ``patch`` sets in each column it changes;
        ``None`` when it may set any column to anything — as it was with its
        bounds; a written int, float or bool column without nulls as a copy
        with the new cells set, if its kind and dtype hold them exactly;
        after a delete, every column's surviving cells, a ``str`` one re-coded.
        Other columns and bounds are built again from the rows, when read.
        This heap's arrays are never changed.  Returns the sibling, the
        matched rows, their replacements (none for a delete), the pages
        dropped whole by where their rows start in the matched rows, the
        pages copied and the pages examined.
        """
        sibling = HeapStorage(self.schema, self.page_capacity, self.partitioning)
        pages = sibling._pages
        matched: list[Row] = []
        patched: list[Row] = []
        copied = 0
        tail_shared = False
        # (copy, origin, what was touched) for each origin with caches.
        warm: list[tuple[Page, Page, Any]] = []
        whole: dict[int, Page] = {}
        predicate = matches if isinstance(matches, Expression) else None
        covered = None
        if predicate is not None:
            matches = predicate.compile(self.schema)
            if patch is None and len(self._pages) > 1:
                covered = page_covered(predicate, self.schema)
        examine = self._examine(self._pages, predicate)
        sealed = len(self._pages) - 1
        for number, (page, candidate) in enumerate(zip(self._pages, examine)):
            rows = page.rows
            if candidate and covered is not None and number < sealed and covered(page):
                whole[len(matched)] = page
                matched.extend(rows)
                continue
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
                touched: Any = flags
            else:
                rows = list(rows)
                touched = list(compress(count(), flags))
                for slot in touched:
                    matched.append(rows[slot])
                    rows[slot] = patch(rows[slot])
                    patched.append(rows[slot])
            pages.append(Page(self.page_capacity, rows))
            if page._columns or page._bounds:
                warm.append((pages[-1], page, touched))
            copied += 1
            tail_shared = False
        if tail_shared and not pages[-1].is_full:
            pages[-1] = Page(self.page_capacity, list(pages[-1].rows))
            copied += 1
        if warm and warm[-1][0] is pages[-1] and not pages[-1].is_full:
            warm.pop()  # the sibling's open last page: its rows will change
        if warm:
            self._inherit(warm, patch is not None, written)
        sibling._num_rows = self._num_rows - (len(matched) if patch is None else 0)
        return sibling, matched, patched, whole, copied, sum(examine)

    def _inherit(self, warm: list[tuple[Page, Page, Any]], update: bool,
                 written: Mapping[str, Any] | None) -> None:
        """Give each ``(copy, origin, touched)`` of ``warm`` the caches
        :meth:`rewrite` says the copy keeps: ``touched`` is the patched slots
        after an update, the flags of the rows dropped after a delete."""
        # Each written position with its one new cell, or ``None``: read the rows.
        assigned: list[tuple[int, list | None]] = (
            [(at, None) for at in range(len(self.schema))] if written is None
            else [(self.schema.index_of(name), [value]) for name, value in written.items()])
        for copy, origin, touched in warm:
            columns = origin._columns.copy()  # atomic beside racing readers
            if update:
                bounds = origin._bounds.copy()
                for at, new in assigned:
                    bounds.pop(at, None)
                    column = columns.pop(at, None)
                    if column is not None:
                        column = _patched(column, touched,
                                          new or [copy.rows[slot][at] for slot in touched])
                    if column is not None:
                        columns[at] = column
            else:
                bounds = {}
                keep = ~np.fromiter(map(bool, touched), bool, len(touched))
                columns = {at: kept for at, column in columns.items()
                           if column is not None
                           and (kept := _kept(column, keep)) is not None}
            copy._columns, copy._bounds = columns, bounds
            copy._kinds = {at: kind for at, kind in origin._kinds.items() if at in bounds}

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
