"""Tests for schemas and data types."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datamodel.schema import Column, DataType, Schema
from repro.exceptions import SchemaError


class TestDataType:
    def test_coerce_int(self):
        assert DataType.INT.coerce("42") == 42

    def test_coerce_float(self):
        assert DataType.FLOAT.coerce("3.5") == 3.5

    def test_coerce_none_passes_through(self):
        assert DataType.STRING.coerce(None) is None

    def test_coerce_failure_raises(self):
        with pytest.raises(SchemaError):
            DataType.INT.coerce("not a number")

    def test_validate_bool_is_not_int(self):
        assert not DataType.INT.validate(True)
        assert DataType.BOOL.validate(True)

    def test_float_accepts_int(self):
        assert DataType.FLOAT.validate(3)

    def test_fixed_widths(self):
        assert DataType.INT.fixed_width == 8
        assert DataType.STRING.fixed_width is None


class TestColumn:
    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", DataType.INT)

    def test_non_nullable_rejects_none(self):
        column = Column("age", DataType.INT, nullable=False)
        with pytest.raises(SchemaError):
            column.validate(None)

    def test_wrong_type_rejected(self):
        with pytest.raises(SchemaError):
            Column("age", DataType.INT).validate("old")

    def test_estimated_width_variable(self):
        assert Column("name", DataType.STRING).estimated_width() == 24


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Column("a", DataType.INT), Column("a", DataType.FLOAT)])

    def test_lookup_by_name_and_index(self):
        schema = Schema.from_pairs([("a", DataType.INT), ("b", DataType.STRING)])
        assert schema["a"].dtype is DataType.INT
        assert schema[1].name == "b"
        assert schema.index_of("b") == 1

    def test_unknown_column_raises(self):
        schema = Schema.from_pairs([("a", DataType.INT)])
        with pytest.raises(SchemaError):
            schema.index_of("missing")

    def test_project(self):
        schema = Schema.from_pairs(
            [("a", DataType.INT), ("b", DataType.STRING), ("c", DataType.FLOAT)])
        assert schema.project(["c", "a"]).names == ("c", "a")

    def test_concat_and_with_column(self):
        left = Schema.from_pairs([("a", DataType.INT)])
        right = Schema.from_pairs([("b", DataType.FLOAT)])
        assert left.concat(right).names == ("a", "b")
        assert left.with_column(Column("c", DataType.BOOL)).names == ("a", "c")

    def test_infer_from_dicts(self):
        schema = Schema.infer([
            {"a": 1, "b": "x", "c": None},
            {"a": 2, "b": "y", "c": 3.5},
        ])
        assert schema["a"].dtype is DataType.INT
        assert schema["b"].dtype is DataType.STRING
        assert schema["c"].dtype is DataType.FLOAT

    def test_infer_empty_raises(self):
        with pytest.raises(SchemaError):
            Schema.infer([])

    def test_validate_row_arity(self):
        schema = Schema.from_pairs([("a", DataType.INT), ("b", DataType.STRING)])
        with pytest.raises(SchemaError):
            schema.validate_row((1,))

    def test_coerce_row(self):
        schema = Schema.from_pairs([("a", DataType.INT), ("b", DataType.FLOAT)])
        assert schema.coerce_row(("3", "4.5")) == (3, 4.5)

    def test_row_width_positive(self):
        schema = Schema.from_pairs([("a", DataType.INT), ("b", DataType.STRING)])
        assert schema.row_width() == 32

    @given(st.lists(st.sampled_from(list(DataType)), min_size=1, max_size=6))
    def test_schema_equality_roundtrip(self, dtypes):
        columns = [Column(f"c{i}", dtype) for i, dtype in enumerate(dtypes)]
        assert Schema(columns) == Schema(list(columns))
        assert hash(Schema(columns)) == hash(Schema(list(columns)))
