"""Cross-data-model conversions.

A polystore moves data between engines whose native models differ (paper
§IV-A-b: "how to transform same data across different data models").  This
module provides the lossless conversions the data migrator and the adapters
rely on:

* relational table <-> dense feature matrix (for the array/ML engines),
* relational table <-> property-graph nodes/edges,
* relational table <-> documents (for the text store),
* relational table <-> key/value pairs,
* relational table <-> timeseries points.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.datamodel.schema import Column, DataType, Schema
from repro.datamodel.table import Table
from repro.exceptions import DataModelError


# -- table <-> matrix ---------------------------------------------------------------


def table_to_matrix(table: Table, feature_columns: Sequence[str] | None = None) -> np.ndarray:
    """Convert numeric columns of ``table`` into a dense float64 matrix.

    Args:
        table: Source table.
        feature_columns: Columns to include; defaults to every INT/FLOAT/BOOL/
            TIMESTAMP column in schema order.

    Returns:
        An array of shape ``(num_rows, num_features)``.  ``None`` values become
        ``nan``.
    """
    if feature_columns is None:
        feature_columns = [
            c.name for c in table.schema
            if c.dtype in (DataType.INT, DataType.FLOAT, DataType.BOOL, DataType.TIMESTAMP)
        ]
    if not feature_columns:
        raise DataModelError("no numeric columns available for matrix conversion")
    for name in feature_columns:
        dtype = table.schema[name].dtype
        if dtype is DataType.STRING or dtype is DataType.BYTES:
            raise DataModelError(f"column {name!r} is not numeric")
    by_column = dict(zip(table.schema.names, zip(*table.rows)))   # {} when empty
    return np.array([numeric_column(by_column.get(name, ()))
                     for name in feature_columns]).T


def numeric_column(values: Sequence[Any]) -> np.ndarray:
    """One table column as a float64 vector, ``None`` read as ``nan``."""
    if None in values:
        values = [np.nan if v is None else v for v in values]
    return np.array(values, dtype=np.float64)


def matrix_to_table(matrix: np.ndarray, column_names: Sequence[str] | None = None) -> Table:
    """Convert a 2-D array into a table of FLOAT columns."""
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim == 1:
        array = array.reshape(-1, 1)
    if array.ndim != 2:
        raise DataModelError(f"expected a 2-D matrix, got {array.ndim}-D")
    n_cols = array.shape[1]
    if column_names is None:
        column_names = [f"f{i}" for i in range(n_cols)]
    if len(column_names) != n_cols:
        raise DataModelError(
            f"matrix has {n_cols} columns but {len(column_names)} names were given"
        )
    schema = Schema(Column(name, DataType.FLOAT) for name in column_names)
    rows = [tuple(float(x) for x in row) for row in array]
    return Table(schema, rows)


# -- table <-> documents -------------------------------------------------------------


def table_to_documents(table: Table, *, id_column: str,
                       text_columns: Sequence[str]) -> list[dict[str, Any]]:
    """Convert rows into documents ``{"doc_id", "text", "metadata"}``.

    The text store ingests these documents directly; metadata keeps the other
    columns so the conversion is reversible for the retained fields.
    """
    for name in (id_column, *text_columns):
        if name not in table.schema:
            raise DataModelError(f"column {name!r} not in table schema")
    docs = []
    names = table.schema.names
    for row in table:
        record = dict(zip(names, row))
        text = " ".join(str(record[name]) for name in text_columns if record[name] is not None)
        metadata = {k: v for k, v in record.items() if k != id_column and k not in text_columns}
        docs.append({"doc_id": record[id_column], "text": text, "metadata": metadata})
    return docs


def documents_to_table(documents: Sequence[Mapping[str, Any]]) -> Table:
    """Convert documents back into a ``(doc_id, text)`` table."""
    schema = Schema([Column("doc_id", DataType.STRING), Column("text", DataType.STRING)])
    rows = [(str(doc["doc_id"]), str(doc.get("text", ""))) for doc in documents]
    return Table(schema, rows)


# -- table <-> key/value ----------------------------------------------------------------


def table_to_kv_pairs(table: Table, *, key_column: str) -> list[tuple[str, dict[str, Any]]]:
    """Convert rows into ``(key, value_dict)`` pairs keyed by ``key_column``."""
    if key_column not in table.schema:
        raise DataModelError(f"column {key_column!r} not in table schema")
    names = table.schema.names
    pairs = []
    for row in table:
        record = dict(zip(names, row))
        key = record.pop(key_column)
        if key is None:
            raise DataModelError("key column contains a null value")
        pairs.append((str(key), record))
    return pairs


def kv_pairs_to_table(pairs: Sequence[tuple[str, Mapping[str, Any]]],
                      key_column: str = "key") -> Table:
    """Convert ``(key, value_dict)`` pairs back into a table."""
    if not pairs:
        raise DataModelError("cannot build a table from zero key/value pairs")
    rows = [{key_column: key, **dict(value)} for key, value in pairs]
    return Table.from_dicts(rows)


# -- table <-> graph ---------------------------------------------------------------------


def table_to_edges(table: Table, *, source_column: str, target_column: str,
                   label: str = "related") -> list[dict[str, Any]]:
    """Convert rows into edge dictionaries for the graph store."""
    for name in (source_column, target_column):
        if name not in table.schema:
            raise DataModelError(f"column {name!r} not in table schema")
    names = table.schema.names
    edges = []
    for row in table:
        record = dict(zip(names, row))
        properties = {
            k: v for k, v in record.items() if k not in (source_column, target_column)
        }
        edges.append({
            "source": record[source_column],
            "target": record[target_column],
            "label": label,
            "properties": properties,
        })
    return edges


def nodes_to_table(nodes: Sequence[Mapping[str, Any]]) -> Table:
    """Convert graph node property dictionaries into a table."""
    if not nodes:
        raise DataModelError("cannot build a table from zero nodes")
    return Table.from_dicts([dict(node) for node in nodes])


# -- table <-> timeseries ------------------------------------------------------------------


def table_to_points(table: Table, *, time_column: str, value_column: str,
                    series_column: str | None = None) -> list[tuple[str, float, float]]:
    """Convert rows into ``(series_key, timestamp, value)`` points."""
    for name in (time_column, value_column):
        if name not in table.schema:
            raise DataModelError(f"column {name!r} not in table schema")
    names = table.schema.names
    points = []
    for row in table:
        record = dict(zip(names, row))
        if record[time_column] is None or record[value_column] is None:
            continue
        series = str(record[series_column]) if series_column else "default"
        points.append((series, float(record[time_column]), float(record[value_column])))
    return points


def points_to_table(points: Sequence[tuple[str, float, float]]) -> Table:
    """Convert ``(series_key, timestamp, value)`` points back into a table."""
    schema = Schema([
        Column("series", DataType.STRING),
        Column("timestamp", DataType.FLOAT),
        Column("value", DataType.FLOAT),
    ])
    rows = [(str(s), float(t), float(v)) for s, t, v in points]
    return Table(schema, rows)
