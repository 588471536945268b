"""Schemas and data types shared by every engine in the polystore.

The paper's engines each work with their own data model (relational rows,
key/value pairs, timeseries points, graph nodes, dense arrays, documents).
All of them, however, describe *fields* with *types*; this module provides
that common vocabulary so the compiler and the data migrator can reason
about cross-engine data movement without knowing engine internals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import datetime
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import SchemaError


class DataType(enum.Enum):
    """Logical column types understood by every engine and migrator."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"
    TIMESTAMP = "timestamp"
    BYTES = "bytes"

    @property
    def python_type(self) -> type:
        """The Python type used to store values of this logical type."""
        return _PYTHON_TYPES[self]

    @property
    def fixed_width(self) -> int | None:
        """Serialized width in bytes, or ``None`` for variable-width types."""
        return _FIXED_WIDTHS[self]

    def coerce(self, value: Any) -> Any:
        """Convert ``value`` to this type, raising :class:`SchemaError` on failure."""
        if value is None:
            return None
        try:
            return _COERCERS[self](value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"cannot coerce {value!r} to {self.value}") from exc

    def validate(self, value: Any) -> bool:
        """Return ``True`` when ``value`` already has this logical type."""
        if value is None:
            return True
        expected = self.python_type
        if self is DataType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is DataType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, expected)


def _coerce_timestamp(value: Any) -> float:
    if isinstance(value, datetime):
        return value.timestamp()
    return float(value)


_PYTHON_TYPES: dict[DataType, type] = {
    DataType.INT: int,
    DataType.FLOAT: float,
    DataType.STRING: str,
    DataType.BOOL: bool,
    DataType.TIMESTAMP: float,
    DataType.BYTES: bytes,
}

_FIXED_WIDTHS: dict[DataType, int | None] = {
    DataType.INT: 8,
    DataType.FLOAT: 8,
    DataType.STRING: None,
    DataType.BOOL: 1,
    DataType.TIMESTAMP: 8,
    DataType.BYTES: None,
}

_COERCERS: dict[DataType, Any] = {
    DataType.INT: int,
    DataType.FLOAT: float,
    DataType.STRING: str,
    DataType.BOOL: bool,
    DataType.TIMESTAMP: _coerce_timestamp,
    DataType.BYTES: bytes,
}


@dataclass(frozen=True)
class Column:
    """A named, typed field in a schema.

    Attributes:
        name: Column name, unique within its schema.
        dtype: Logical type of the column.
        nullable: Whether ``None`` values are allowed.
    """

    name: str
    dtype: DataType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if not isinstance(self.dtype, DataType):
            raise SchemaError(f"column {self.name!r} has invalid dtype {self.dtype!r}")

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` when ``value`` violates this column."""
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return
        if not self.dtype.validate(value):
            raise SchemaError(
                f"column {self.name!r} expects {self.dtype.value}, got {type(value).__name__}"
            )

    def estimated_width(self) -> int:
        """Rough serialized width in bytes, used by cost models."""
        width = self.dtype.fixed_width
        if width is not None:
            return width
        return 24  # average payload assumed for variable-width values


class Schema:
    """An ordered collection of :class:`Column` objects.

    Schemas are immutable; operations such as :meth:`project`, :meth:`rename`
    and :meth:`concat` return new schemas.
    """

    def __init__(self, columns: Iterable[Column]) -> None:
        self._columns: tuple[Column, ...] = tuple(columns)
        names = [c.name for c in self._columns]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        self._index: dict[str, int] = {c.name: i for i, c in enumerate(self._columns)}

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[str, DataType]]) -> "Schema":
        """Build a schema from ``(name, dtype)`` pairs."""
        return cls(Column(name, dtype) for name, dtype in pairs)

    @classmethod
    def infer(cls, rows: Sequence[Mapping[str, Any]]) -> "Schema":
        """Infer a schema from a sample of dictionaries.

        The first non-null value seen for each key determines its type;
        keys that are always null become nullable strings.
        """
        if not rows:
            raise SchemaError("cannot infer schema from an empty sample")
        order: list[str] = []
        seen: dict[str, DataType | None] = {}
        for row in rows:
            for key, value in row.items():
                if key not in seen:
                    seen[key] = None
                    order.append(key)
                if seen[key] is None and value is not None:
                    seen[key] = _infer_dtype(value)
        columns = [Column(name, seen[name] or DataType.STRING) for name in order]
        return cls(columns)

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __getitem__(self, key: int | str) -> Column:
        if isinstance(key, str):
            try:
                return self._columns[self._index[key]]
            except KeyError as exc:
                raise SchemaError(f"no column named {key!r}") from exc
        return self._columns[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.dtype.value}" for c in self._columns)
        return f"Schema({cols})"

    # -- accessors --------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Column names in declaration order."""
        return tuple(c.name for c in self._columns)

    @property
    def dtypes(self) -> tuple[DataType, ...]:
        """Column types in declaration order."""
        return tuple(c.dtype for c in self._columns)

    def index_of(self, name: str) -> int:
        """Position of ``name`` within the schema."""
        try:
            return self._index[name]
        except KeyError as exc:
            raise SchemaError(f"no column named {name!r}") from exc

    def row_width(self) -> int:
        """Estimated serialized row width in bytes (used by cost models)."""
        return sum(c.estimated_width() for c in self._columns)

    # -- derivation --------------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """Return a schema containing only ``names``, in the given order."""
        return Schema(self[name] for name in names)

    def concat(self, other: "Schema") -> "Schema":
        """Concatenate two schemas (used by join outputs)."""
        return Schema(tuple(self._columns) + tuple(other._columns))

    def with_column(self, column: Column) -> "Schema":
        """Return a schema with ``column`` appended."""
        return Schema(tuple(self._columns) + (column,))

    def validate_row(self, row: Sequence[Any]) -> None:
        """Validate a positional row against this schema."""
        if len(row) != len(self._columns):
            raise SchemaError(
                f"row has {len(row)} values but schema has {len(self._columns)} columns"
            )
        for column, value in zip(self._columns, row):
            column.validate(value)

    def coerce_row(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Coerce each value of a positional row to its column type."""
        if len(row) != len(self._columns):
            raise SchemaError(
                f"row has {len(row)} values but schema has {len(self._columns)} columns"
            )
        return tuple(c.dtype.coerce(v) for c, v in zip(self._columns, row))


def _infer_dtype(value: Any) -> DataType:
    if isinstance(value, bool):
        return DataType.BOOL
    if isinstance(value, int):
        return DataType.INT
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, bytes):
        return DataType.BYTES
    if isinstance(value, datetime):
        return DataType.TIMESTAMP
    return DataType.STRING
