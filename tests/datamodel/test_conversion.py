"""Tests for the table-to-matrix conversion."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.datamodel import Column, DataType, Table, make_schema
from repro.datamodel.conversion import table_to_matrix
from repro.exceptions import DataModelError


@pytest.fixture
def table() -> Table:
    schema = make_schema(("pid", DataType.INT), ("age", DataType.INT),
                         ("note", DataType.STRING), ("score", DataType.FLOAT))
    return Table(schema, [(1, 70, "stable", 0.5), (2, 45, "sepsis", 0.9),
                          (3, 60, "ventilator", None)])


class TestMatrix:
    def test_numeric_columns_selected_by_default(self, table: Table):
        matrix = table_to_matrix(table)
        assert matrix.shape == (3, 3)   # pid, age, score

    def test_none_becomes_nan(self, table: Table):
        matrix = table_to_matrix(table, ["score"])
        assert math.isnan(matrix[2, 0])

    def test_string_column_rejected(self, table: Table):
        with pytest.raises(DataModelError):
            table_to_matrix(table, ["note"])

    def test_matrix_is_built_from_columns(self, table: Table):
        """Column at a time, ``None`` -> ``nan`` only where a column holds one;
        same values, dtype and memory layout as the per-cell build."""
        flags = table.with_column(Column("flag", DataType.BOOL), [True, None, False])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = table_to_matrix(flags, ["score", "pid", "flag"])
            empty = table_to_matrix(Table(flags.schema, []), ["score", "pid"])
        expected = np.array([[0.5, 1.0, 1.0], [0.9, 2.0, np.nan], [np.nan, 3.0, 0.0]])
        assert matrix.dtype == np.float64
        assert np.array_equal(matrix, expected, equal_nan=True)
        assert matrix.flags.f_contiguous
        assert empty.shape == (0, 2)
