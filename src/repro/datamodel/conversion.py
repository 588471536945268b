"""Table-to-matrix conversion for the ML engine.

A polystore moves data between engines whose native models differ (paper
§IV-A-b: "how to transform same data across different data models").  The
ML engine and its adapter read relational tables as dense float64 feature
matrices through this module.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.datamodel.schema import DataType
from repro.datamodel.table import Table
from repro.exceptions import DataModelError


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
