"""In-memory tables shared across the polystore.

:class:`Table` is the exchange format between engines, adapters and the data
migrator: a schema plus a list of positional rows.  It deliberately supports
both row-wise access (what the relational engine's operators want)
and column-wise access (what the array/ML engines and the serializers want).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.datamodel.schema import Column, DataType, Schema
from repro.exceptions import DataModelError, SchemaError

Row = tuple[Any, ...]


class Table:
    """A schema-typed, in-memory collection of rows.

    Rows are stored as tuples in declaration order of the schema.  The class
    is intentionally small: engines wrap it with their own storage and index
    structures; the polystore middleware uses it as the common currency for
    results and migrations.
    """

    def __init__(self, schema: Schema, rows: Iterable[Sequence[Any]] = (), *,
                 validate: bool = False) -> None:
        self._schema = schema
        self._rows: list[Row] = [tuple(row) for row in rows]
        if validate:
            for row in self._rows:
                schema.validate_row(row)

    # -- construction ------------------------------------------------------------

    @classmethod
    def wrap(cls, schema: Schema, rows: list[Row]) -> "Table":
        """Adopt ``rows`` as a table without copying or re-wrapping them.

        The trusted constructor for engine internals: ``rows`` must be a list
        the caller hands over, and every element already a tuple laid out in
        ``schema``.  Anything built from caller-supplied rows goes through
        ``Table(...)`` instead, which normalises them.
        """
        table = cls.__new__(cls)
        table._schema = schema
        table._rows = rows
        return table

    @classmethod
    def from_dicts(cls, rows: Sequence[Mapping[str, Any]],
                   schema: Schema | None = None) -> "Table":
        """Build a table from dictionaries, inferring the schema if needed."""
        if schema is None:
            schema = Schema.infer(rows)
        names = schema.names
        return cls.wrap(schema, [tuple(row.get(name) for name in names)
                                 for row in rows])

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """An empty table with the given schema."""
        return cls.wrap(schema, [])

    # -- container protocol --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> Row:
        return self._rows[index]

    def __repr__(self) -> str:
        return f"Table(schema={self._schema!r}, rows={len(self._rows)})"

    # -- accessors -------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The table's schema."""
        return self._schema

    @property
    def rows(self) -> list[Row]:
        """The underlying row list (not a copy; treat as read-only)."""
        return self._rows

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return len(self._rows)

    def column(self, name: str) -> list[Any]:
        """All values of a single column, in row order."""
        idx = self._schema.index_of(name)
        return [row[idx] for row in self._rows]

    def columns(self) -> dict[str, list[Any]]:
        """A columnar view: ``{name: [values...]}``."""
        return {name: self.column(name) for name in self._schema.names}

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by column name."""
        names = self._schema.names
        return [dict(zip(names, row)) for row in self._rows]

    def estimated_bytes(self) -> int:
        """Approximate in-memory/serialized size, used by cost models."""
        return self._schema.row_width() * len(self._rows)

    # -- mutation ----------------------------------------------------------------------

    def append(self, row: Sequence[Any], *, validate: bool = False) -> None:
        """Append a positional row."""
        row_t = tuple(row)
        if validate:
            self._schema.validate_row(row_t)
        self._rows.append(row_t)

    # -- relational-style derivations ----------------------------------------------------

    def select(self, predicate: Callable[[dict[str, Any]], bool]) -> "Table":
        """Rows for which ``predicate(row_dict)`` is true."""
        names = self._schema.names
        kept = [row for row in self._rows if predicate(dict(zip(names, row)))]
        return Table.wrap(self._schema, kept)

    def project(self, names: Sequence[str]) -> "Table":
        """A table containing only the named columns."""
        schema = self._schema.project(names)
        indexes = [self._schema.index_of(name) for name in names]
        rows = [tuple(row[i] for i in indexes) for row in self._rows]
        return Table.wrap(schema, rows)

    def sort(self, by: Sequence[str], *, descending: bool = False) -> "Table":
        """A table sorted by the named columns.

        ``None`` values sort first (last when ``descending``).
        """
        indexes = [self._schema.index_of(name) for name in by]

        def key(row: Row) -> tuple[Any, ...]:
            parts = []
            for i in indexes:
                value = row[i]
                parts.append((value is not None, value))
            return tuple(parts)

        return Table.wrap(self._schema,
                          sorted(self._rows, key=key, reverse=descending))

    def limit(self, n: int) -> "Table":
        """The first ``n`` rows."""
        if n < 0:
            raise DataModelError("limit must be non-negative")
        return Table.wrap(self._schema, self._rows[:n])

    def concat(self, other: "Table") -> "Table":
        """Union-all of two tables with identical schemas."""
        if other.schema != self._schema:
            raise SchemaError("cannot concat tables with different schemas")
        return Table.wrap(self._schema, self._rows + other._rows)

    def with_column(self, column: Column, values: Sequence[Any]) -> "Table":
        """A table with one extra column appended."""
        if len(values) != len(self._rows):
            raise DataModelError(
                f"column has {len(values)} values but table has {len(self._rows)} rows"
            )
        schema = self._schema.with_column(column)
        rows = [row + (value,) for row, value in zip(self._rows, values)]
        return Table.wrap(schema, rows)


def make_schema(*pairs: tuple[str, DataType]) -> Schema:
    """Shorthand for building a schema from ``(name, dtype)`` pairs."""
    return Schema.from_pairs(list(pairs))
