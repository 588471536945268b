"""Tests for cross-data-model conversions."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.datamodel import Column, DataType, Table, make_schema
from repro.datamodel.conversion import (
    documents_to_table,
    kv_pairs_to_table,
    matrix_to_table,
    nodes_to_table,
    points_to_table,
    table_to_documents,
    table_to_edges,
    table_to_kv_pairs,
    table_to_matrix,
    table_to_points,
)
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

    def test_matrix_to_table_roundtrip(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        restored = table_to_matrix(matrix_to_table(matrix, ["a", "b"]))
        assert np.allclose(restored, matrix)

    def test_matrix_name_mismatch(self):
        with pytest.raises(DataModelError):
            matrix_to_table(np.ones((2, 3)), ["just_one"])


class TestDocuments:
    def test_table_to_documents(self, table: Table):
        docs = table_to_documents(table, id_column="pid", text_columns=["note"])
        assert docs[0]["doc_id"] == 1
        assert docs[1]["text"] == "sepsis"
        assert docs[0]["metadata"]["age"] == 70

    def test_documents_to_table(self):
        table = documents_to_table([{"doc_id": 5, "text": "hello"}])
        assert table.column("doc_id") == ["5"]

    def test_unknown_column_raises(self, table: Table):
        with pytest.raises(DataModelError):
            table_to_documents(table, id_column="missing", text_columns=["note"])


class TestKeyValue:
    def test_roundtrip(self, table: Table):
        pairs = table_to_kv_pairs(table, key_column="pid")
        assert pairs[0][0] == "1"
        restored = kv_pairs_to_table(pairs, key_column="pid")
        assert restored.num_rows == 3

    def test_empty_pairs_raise(self):
        with pytest.raises(DataModelError):
            kv_pairs_to_table([])


class TestGraphAndPoints:
    def test_table_to_edges(self):
        schema = make_schema(("src", DataType.STRING), ("dst", DataType.STRING),
                             ("weight", DataType.FLOAT))
        table = Table(schema, [("a", "b", 1.0), ("b", "c", 2.0)])
        edges = table_to_edges(table, source_column="src", target_column="dst")
        assert edges[1]["target"] == "c"
        assert edges[1]["properties"]["weight"] == 2.0

    def test_nodes_to_table(self):
        table = nodes_to_table([{"node_id": "a", "degree": 3}])
        assert table.column("degree") == [3]

    def test_points_roundtrip(self, table: Table):
        points = table_to_points(table, time_column="age", value_column="score",
                                 series_column="pid")
        restored = points_to_table(points[:2])
        assert restored.column("series") == ["1", "2"]
