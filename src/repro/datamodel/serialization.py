"""Serialization formats used by the data migrator.

The paper (§III-A-3) contrasts a naive migration path — export to CSV, move
the text file, re-parse it at the destination — with Pipegen-style binary
network pipes that skip the textual round trip, and with accelerator-offloaded
serialization.  This module implements the two software formats:

* :class:`CsvSerializer` — textual, quotes strings, parses back by column type.
* :class:`BinarySerializer` — column-at-a-time little-endian encoding (fixed
  width, or length-prefixed for variable-width types), close to what an
  optimized pipe would send.

Both serializers also report *transformation cost* estimates (number of value
conversions performed), which the migration cost model and benchmarks use to
reproduce the paper's claim that transformation, not transfer, dominates the
naive path.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass
from itertools import accumulate

from repro.datamodel.schema import DataType, Schema
from repro.datamodel.table import Table
from repro.exceptions import DataModelError

_NULL_TOKEN = "\\N"


@dataclass(frozen=True)
class SerializationReport:
    """Bookkeeping returned alongside serialized bytes.

    Attributes:
        payload_bytes: Size of the produced byte stream.
        value_conversions: Number of per-value transformations performed
            (text formatting/parsing for CSV, packing for binary).
        rows: Number of rows serialized.
    """

    payload_bytes: int
    value_conversions: int
    rows: int


class CsvSerializer:
    """Round-trip tables through CSV text, as the naive migration path does."""

    def serialize(self, table: Table) -> tuple[bytes, SerializationReport]:
        """Encode ``table`` as CSV bytes (header row included)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(table.schema.names)
        conversions = 0
        for row in table:
            out = []
            for value in row:
                if value is None:
                    out.append(_NULL_TOKEN)
                else:
                    out.append(str(value))
                conversions += 1
            writer.writerow(out)
        payload = buffer.getvalue().encode("utf-8")
        return payload, SerializationReport(len(payload), conversions, len(table))

    def deserialize(self, payload: bytes, schema: Schema) -> tuple[Table, SerializationReport]:
        """Decode CSV bytes back into a :class:`Table` using ``schema`` types."""
        text = payload.decode("utf-8")
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration as exc:
            raise DataModelError("empty CSV payload") from exc
        if tuple(header) != schema.names:
            raise DataModelError(
                f"CSV header {header} does not match schema columns {list(schema.names)}"
            )
        rows = []
        conversions = 0
        for record in reader:
            values = []
            for column, text_value in zip(schema, record):
                if text_value == _NULL_TOKEN:
                    values.append(None)
                else:
                    values.append(_parse_text(column.dtype, text_value))
                conversions += 1
            rows.append(tuple(values))
        table = Table(schema, rows)
        return table, SerializationReport(len(payload), conversions, len(rows))


class BinarySerializer:
    """Compact binary encoding used by the Pipegen-style migration path.

    Columnar layout: the row count, then per column one null byte per row
    followed by that column's non-null values as one packed vector —
    fixed-width little-endian fields, or for variable-width types every
    4-byte length first and the UTF-8/raw bytes after them.
    """

    def serialize(self, table: Table) -> tuple[bytes, SerializationReport]:
        """Encode ``table`` as binary bytes."""
        parts = [struct.pack("<I", len(table))]
        conversions = 0
        for dtype, column in zip(table.schema.dtypes, zip(*table.rows)):
            parts.append(bytes([value is None for value in column]))
            code, convert = _WIRE[dtype]
            values = [convert(value) for value in column if value is not None]
            conversions += len(values)
            if dtype.fixed_width is None:
                parts.append(struct.pack(f"<{len(values)}I", *map(len, values)))
                parts.append(b"".join(values))
            else:
                parts.append(struct.pack(f"<{len(values)}{code}", *values))
        payload = b"".join(parts)
        return payload, SerializationReport(len(payload), conversions, len(table))

    def deserialize(self, payload: bytes, schema: Schema) -> tuple[Table, SerializationReport]:
        """Decode binary bytes back into a :class:`Table`."""
        view = memoryview(payload)
        if len(view) < 4:
            raise DataModelError("binary payload too short")
        (n_rows,) = struct.unpack_from("<I", view, 0)
        offset = 4
        columns = []
        conversions = 0
        for dtype in schema.dtypes:
            if offset + n_rows > len(view):
                raise DataModelError("truncated binary payload (null bytes)")
            nulls = bytes(view[offset:offset + n_rows])
            offset += n_rows
            count = nulls.count(0)
            code, _ = _WIRE[dtype]
            fmt = f"<{count}{code}"
            try:
                values = struct.unpack_from(fmt, view, offset)
            except struct.error as exc:
                raise DataModelError("truncated binary payload") from exc
            offset += struct.calcsize(fmt)
            if dtype.fixed_width is None:
                ends = list(accumulate(values, initial=offset))
                if ends[-1] > len(view):
                    raise DataModelError("truncated binary payload (varlen field)")
                values = [bytes(view[lo:hi]) for lo, hi in zip(ends, ends[1:])]
                if dtype is not DataType.BYTES:
                    values = [raw.decode("utf-8") for raw in values]
                offset = ends[-1]
            conversions += count
            if count < n_rows:
                present = iter(values)
                values = [None if null else next(present) for null in nulls]
            columns.append(values)
        rows = list(zip(*columns)) if columns else [()] * n_rows
        return Table.wrap(schema, rows), SerializationReport(len(payload), conversions, n_rows)


def _parse_text(dtype: DataType, text: str):
    if dtype is DataType.INT:
        return int(text)
    if dtype in (DataType.FLOAT, DataType.TIMESTAMP):
        return float(text)
    if dtype is DataType.BOOL:
        return text in ("True", "true", "1")
    if dtype is DataType.BYTES:
        return text.encode("utf-8")
    return text


def _utf8(value) -> bytes:
    return str(value).encode("utf-8")


#: dtype -> (struct code of one packed value, coercion applied before packing);
#: for the variable-width types the packed vector is their byte lengths.
_WIRE = {
    DataType.INT: ("q", int),
    DataType.FLOAT: ("d", float),
    DataType.TIMESTAMP: ("d", float),
    DataType.BOOL: ("?", bool),
    DataType.BYTES: ("I", bytes),
    DataType.STRING: ("I", _utf8),
}
