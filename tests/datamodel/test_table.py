"""Tests for the shared in-memory Table."""

from __future__ import annotations

import pytest

from repro.datamodel import Column, DataType, Schema, Table, make_schema
from repro.exceptions import DataModelError, SchemaError


@pytest.fixture
def table() -> Table:
    schema = make_schema(("id", DataType.INT), ("name", DataType.STRING),
                         ("score", DataType.FLOAT))
    return Table(schema, [(1, "a", 0.5), (2, "b", 0.9), (3, "c", 0.1), (2, "b", 0.9)])


class TestConstruction:
    def test_from_dicts_infers_schema(self):
        table = Table.from_dicts([{"x": 1, "y": "a"}, {"x": 2, "y": "b"}])
        assert table.schema.names == ("x", "y")
        assert table.num_rows == 2

    def test_validation_on_append(self, table: Table):
        with pytest.raises(SchemaError):
            table.append(("not int", "a", 0.5), validate=True)

    def test_empty(self):
        schema = make_schema(("a", DataType.INT))
        assert len(Table.empty(schema)) == 0


class TestDerivations:
    def test_select(self, table: Table):
        kept = table.select(lambda row: row["score"] > 0.4)
        assert {r[0] for r in kept} == {1, 2}

    def test_project_reorders(self, table: Table):
        projected = table.project(["score", "id"])
        assert projected.schema.names == ("score", "id")
        assert projected[0] == (0.5, 1)

    def test_sort_with_nones_first(self):
        schema = make_schema(("v", DataType.INT))
        table = Table(schema, [(3,), (None,), (1,)])
        assert table.sort(["v"]).column("v") == [None, 1, 3]

    def test_sort_descending(self, table: Table):
        assert table.sort(["score"], descending=True).column("score")[0] == 0.9

    def test_limit_negative_raises(self, table: Table):
        with pytest.raises(DataModelError):
            table.limit(-1)

    def test_concat_schema_mismatch(self, table: Table):
        other = Table(make_schema(("id", DataType.INT)), [(1,)])
        with pytest.raises(SchemaError):
            table.concat(other)

    def test_concat(self, table: Table):
        combined = table.concat(table)
        assert combined.num_rows == 2 * table.num_rows

    def test_with_column(self, table: Table):
        extended = table.with_column(Column("flag", DataType.BOOL),
                                     [True, False, True, False])
        assert extended.schema.names[-1] == "flag"
        assert extended.column("flag") == [True, False, True, False]

    def test_with_column_length_mismatch(self, table: Table):
        with pytest.raises(DataModelError):
            table.with_column(Column("flag", DataType.BOOL), [True])

    def test_estimated_bytes_scales_with_rows(self, table: Table):
        assert table.estimated_bytes() == table.schema.row_width() * len(table)

    def test_columns_view(self, table: Table):
        columns = table.columns()
        assert set(columns) == {"id", "name", "score"}
        assert columns["id"] == [1, 2, 3, 2]
