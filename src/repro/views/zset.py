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
the heap and ``DeltaBatch.entries`` hold, hashed as they are.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.datamodel.schema import Schema
from repro.datamodel.table import Row, Table


class ZSet:
    """Rows laid out in :attr:`schema`, each with a non-zero integer weight."""

    __slots__ = ("schema", "_weights")

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._weights: dict[Row, int] = {}

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
        for row, weight in other._weights.items():
            self.add(row, weight)

    def select(self, test: Callable[[Row], bool]) -> "ZSet":
        """The records ``test`` keeps, weights unchanged (the linear ``σ``)."""
        out = ZSet(self.schema)
        out._weights = {row: weight for row, weight in self._weights.items()
                        if test(row)}
        return out

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
        return iter(self._weights.items())

    def to_rows(self) -> list[Row]:
        """Rows with multiplicity expanded; raises on negative weights.

        A negative weight surviving in a *state* Z-set means more deletions
        than insertions were observed for a record — the delta stream and
        the base diverged, and the caller must resync from the base data.
        """
        rows: list[Row] = []
        for row, weight in self._weights.items():
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
        """Sum of absolute weights (the delta's size in rows)."""
        return sum(map(abs, self._weights.values()))

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        return (f"ZSet({self.schema!r}, records={len(self._weights)}, "
                f"rows={self.total_weight})")
