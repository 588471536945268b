"""Z-sets: the weighted-table algebra incremental maintenance computes in.

A Z-set (DBSP's generalized multiset) maps records to integer weights: a
weight of ``+2`` means the record appears twice, ``-1`` cancels one earlier
appearance, and a record whose weights sum to zero is *annihilated* —
physically removed, exactly as if it was never inserted.  Both base-table
deltas and operator outputs are Z-sets, which is what makes the delta
operators composable: addition is associative and commutative, so batches
may be applied in any order and still converge to the same state.

A Z-set here is a *weighted table*: a :class:`~repro.datamodel.schema.Schema`
plus positional row tuples laid out in it — the same tuples ``Table.rows``,
the heap and ``DeltaBatch.entries`` hold, hashed as they are.  A changelog
delta may also key a whole heap page's rows by its
:class:`~repro.stores.changelog.PageEntry`, which a read of its records
(:meth:`ZSet.items` and what goes through it) expands first.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.datamodel.schema import Schema
from repro.datamodel.table import Row, Table
from repro.stores.changelog import PageEntry


class ZSet:
    """Rows laid out in :attr:`schema`, each with a non-zero integer weight."""

    __slots__ = ("schema", "_weights", "pages")

    def __init__(self, schema: Schema, weights: dict[Row, int] | None = None,
                 pages: tuple[Schema, Callable[[Row], Row] | None] | None = None) -> None:
        """An empty Z-set, or one adopting ``weights`` (no zero weights);
        ``pages`` — the page rows' layout and the reader cutting one down to
        ``schema`` (``None``: as it is) — if a key may be a ``PageEntry``, whose
        rows differ from each other and from every other record."""
        self.schema = schema
        self._weights: dict[Row, int] = {} if weights is None else weights
        self.pages = pages

    def _expand(self) -> None:
        """Replace each ``PageEntry`` key by its rows, where it stood."""
        pick = self.pages[1] or (lambda row: row)
        self._weights = {row: weight for key, weight in self._weights.items() for row in (
            map(pick, key.page.rows) if type(key) is PageEntry else (key,))}
        self.pages = None

    def parts(self) -> Iterator[tuple[Any, int]]:
        """``(row, weight)`` pairs, ``PageEntry`` keys left whole."""
        return iter(self._weights.items())

    @classmethod
    def from_table(cls, table: Table) -> "ZSet":
        """A table's rows at weight ``+1`` each (repeated rows add up)."""
        zset = cls(table.schema)
        weights = zset._weights
        for row in table.rows:
            weights[row] = weights.get(row, 0) + 1
        return zset

    # -- algebra ------------------------------------------------------------------------

    def add(self, row: Row, weight: int) -> None:
        """Sum ``weight`` into a record, annihilating at zero."""
        if weight == 0:
            return
        total = self._weights.get(row, 0) + weight
        if total == 0:
            del self._weights[row]
        else:
            self._weights[row] = total

    def update(self, other: "ZSet") -> None:
        """Sum another Z-set of the same schema into this one."""
        for row, weight in other.items():
            self.add(row, weight)

    def select(self, test: Callable[[Row], bool]) -> "ZSet":
        """The records ``test`` keeps, weights unchanged (the linear ``σ``)."""
        return ZSet(self.schema, {row: weight for row, weight in self.items()
                                  if test(row)})

    @staticmethod
    def diff(new: "ZSet", old: "ZSet") -> "ZSet":
        """``new - old``: the delta that turns ``old`` into ``new``."""
        out = ZSet(new.schema)
        for row, weight in new._weights.items():
            out.add(row, weight - old._weights.get(row, 0))
        for row, weight in old._weights.items():
            if row not in new._weights:
                out.add(row, -weight)
        return out

    # -- access -------------------------------------------------------------------------

    def items(self) -> Iterator[tuple[Row, int]]:
        """``(row, weight)`` pairs (weights never zero)."""
        if self.pages is not None:
            self._expand()
        return iter(self._weights.items())

    def to_rows(self) -> list[Row]:
        """Rows with multiplicity expanded; raises on negative weights.

        A negative weight surviving in a *state* Z-set means more deletions
        than insertions were observed for a record — the delta stream and
        the base diverged, and the caller must resync from the base data.
        """
        rows: list[Row] = []
        for row, weight in self.items():
            if weight < 0:
                raise ValueError(
                    f"record {row!r} has negative weight {weight}; "
                    f"delta state diverged from the base data"
                )
            rows.extend([row] * weight)
        return rows

    @property
    def is_empty(self) -> bool:
        """Whether no record has a non-zero weight."""
        return not self._weights

    @property
    def total_weight(self) -> int:
        """Sum of absolute weights (the delta's size in rows, a page's all)."""
        return sum(abs(weight) * (len(key.page.rows) if type(key) is PageEntry else 1)
                   for key, weight in self._weights.items()) if self.pages \
            else sum(map(abs, self._weights.values()))

    def __len__(self) -> int:
        if self.pages is not None:
            self._expand()
        return len(self._weights)

    def __repr__(self) -> str:
        return (f"ZSet({self.schema!r}, records={len(self._weights)}, "
                f"rows={self.total_weight})")
