"""Tests for CSV and binary serialization (migration payload formats)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import BinarySerializer, CsvSerializer, DataType, Schema, Table
from repro.datamodel.schema import Column
from repro.exceptions import DataModelError

SCHEMA = Schema([
    Column("id", DataType.INT),
    Column("name", DataType.STRING),
    Column("value", DataType.FLOAT),
    Column("flag", DataType.BOOL),
])


def make_table(rows) -> Table:
    return Table(SCHEMA, rows)


SAMPLE = make_table([
    (1, "alpha", 1.5, True),
    (2, "beta, with comma", -2.25, False),
    (3, None, None, None),
    (4, "quote 'inside'", 0.0, True),
])


@pytest.mark.parametrize("serializer", [CsvSerializer(), BinarySerializer()],
                         ids=["csv", "binary"])
class TestRoundTrip:
    def test_roundtrip_preserves_rows(self, serializer):
        payload, report = serializer.serialize(SAMPLE)
        restored, _ = serializer.deserialize(payload, SCHEMA)
        assert restored.rows == SAMPLE.rows
        assert report.rows == len(SAMPLE)

    def test_report_counts_conversions(self, serializer):
        _, report = serializer.serialize(SAMPLE)
        assert report.payload_bytes > 0
        assert report.value_conversions > 0

    def test_empty_table(self, serializer):
        empty = make_table([])
        payload, _ = serializer.serialize(empty)
        restored, _ = serializer.deserialize(payload, SCHEMA)
        assert len(restored) == 0


class TestCsv:
    def test_header_mismatch_raises(self):
        payload, _ = CsvSerializer().serialize(SAMPLE)
        wrong = Schema([Column("other", DataType.INT)])
        with pytest.raises(DataModelError):
            CsvSerializer().deserialize(payload, wrong)

    def test_empty_payload_raises(self):
        with pytest.raises(DataModelError):
            CsvSerializer().deserialize(b"", SCHEMA)

    def test_csv_is_larger_than_binary_for_numeric_data(self):
        schema = Schema([Column("a", DataType.FLOAT), Column("b", DataType.FLOAT)])
        table = Table(schema, [(i * 1.000001, i * -2.5) for i in range(200)])
        csv_payload, _ = CsvSerializer().serialize(table)
        binary_payload, _ = BinarySerializer().serialize(table)
        assert len(csv_payload) > len(binary_payload)


class TestBinary:
    def test_truncated_payload_raises(self):
        payload, _ = BinarySerializer().serialize(SAMPLE)
        with pytest.raises(DataModelError):
            BinarySerializer().deserialize(payload[: len(payload) // 2], SCHEMA)

    def test_too_short_payload_raises(self):
        with pytest.raises(DataModelError):
            BinarySerializer().deserialize(b"\x01", SCHEMA)


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
        st.one_of(st.none(), st.text(alphabet="abcxyz ',\"0189", max_size=20)),
        st.one_of(st.none(),
                  st.floats(allow_nan=False, allow_infinity=False, width=32)),
        st.one_of(st.none(), st.booleans()),
    ),
    max_size=25,
))
def test_property_roundtrip_both_formats(rows):
    """Any table of supported values survives both serialization formats."""
    table = make_table(rows)
    for serializer in (CsvSerializer(), BinarySerializer()):
        payload, _ = serializer.serialize(table)
        restored, _ = serializer.deserialize(payload, SCHEMA)
        for original, recovered in zip(table.rows, restored.rows):
            assert recovered[0] == original[0]
            assert recovered[1] == original[1]
            if original[2] is None:
                assert recovered[2] is None
            else:
                assert recovered[2] == pytest.approx(original[2], rel=1e-9)
            assert recovered[3] == original[3]


# -- the columnar wire format --------------------------------------------------------

EVERY_TYPE = Schema([
    Column("i", DataType.INT), Column("f", DataType.FLOAT),
    Column("s", DataType.STRING), Column("b", DataType.BOOL),
    Column("t", DataType.TIMESTAMP), Column("raw", DataType.BYTES),
    Column("void", DataType.STRING),
])
#: Zero-length strings and bytes, an all-null column, a ``bool`` in the INT
#: column and an ``int`` in the FLOAT one.
EVERY_TYPE_ROWS = [
    (1, 1.5, "", True, 1_700_000_000.25, b"", None),
    (True, 2, "héllo", None, None, b"\x00\xff", None),
    (None, None, None, False, 0.0, None, None),
    (-(2 ** 62), -0.0, "x" * 40, True, 1.0, b"abc", None),
]


def pipegen_table(rows: int) -> Table:
    """The Pipegen benchmark schema (``benchmarks/bench_migration.py``)."""
    schema = Schema([Column(name, DataType.INT) for name in "abcd"]
                    + [Column(name, DataType.FLOAT) for name in "xyz"])
    return Table(schema, [(i, i * 7, i * 13, -i, i * 3.14159, i / 7.0, i * -2.71828)
                          for i in range(rows)])


def wire_size(table: Table) -> tuple[int, int]:
    """``(4 + rows * cols + sum of value bytes, non-null values)``."""
    size, values = 4 + len(table) * len(table.schema), 0
    for row in table:
        for dtype, value in zip(table.schema.dtypes, row):
            if value is None:
                continue
            values += 1
            if dtype.fixed_width is not None:
                size += dtype.fixed_width
            else:
                raw = value if dtype is DataType.BYTES else value.encode("utf-8")
                size += 4 + len(raw)
    return size, values


class TestColumnarWire:
    #: table -> (payload_bytes, value_conversions) captured at 23275cc, when
    #: the layout was row-at-a-time: one null byte per cell is kept, so the
    #: charged migration cost (a function of these two) has not moved.
    @pytest.mark.parametrize("table, expected", [
        (SAMPLE, (126, 13)),
        (pipegen_table(10_000), (630_004, 70_000)),
        (Table(EVERY_TYPE, EVERY_TYPE_ROWS), wire_size(Table(EVERY_TYPE, EVERY_TYPE_ROWS))),
        (Table(EVERY_TYPE, []), (4, 0)),
    ], ids=["sample", "pipegen", "every-type", "zero-rows"])
    def test_size_and_conversions_match_the_row_layout(self, table, expected):
        assert wire_size(table) == expected
        payload, written = BinarySerializer().serialize(table)
        _, read = BinarySerializer().deserialize(payload, table.schema)
        assert (len(payload), written.value_conversions) == expected
        assert written == read

    def test_every_type_round_trips_with_the_schema_s_types(self):
        table = Table(EVERY_TYPE, EVERY_TYPE_ROWS)
        payload, _ = BinarySerializer().serialize(table)
        restored, report = BinarySerializer().deserialize(payload, EVERY_TYPE)
        assert restored.rows == table.rows
        assert report.rows == 4
        # A bool in an INT column and an int in a FLOAT column arrive typed
        # by the column.
        assert type(restored.rows[1][0]) is int
        assert type(restored.rows[1][1]) is float

    def test_zero_rows_keep_the_schema(self):
        payload, _ = BinarySerializer().serialize(Table(EVERY_TYPE, []))
        restored, report = BinarySerializer().deserialize(payload, EVERY_TYPE)
        assert (restored.schema, restored.rows, report.rows) == (EVERY_TYPE, [], 0)

    def test_every_truncation_raises_datamodel_error(self):
        """Column boundaries, inside a packed vector, inside the variable-width
        lengths and bytes: a prefix never decodes to a (short) table and never
        leaks ``struct.error``."""
        table = Table(EVERY_TYPE, EVERY_TYPE_ROWS)
        payload, _ = BinarySerializer().serialize(table)
        for cut in range(len(payload)):
            with pytest.raises(DataModelError):
                BinarySerializer().deserialize(payload[:cut], EVERY_TYPE)

    def test_binary_wall_is_at_most_half_of_csv(self):
        """The Pipegen ordering holds in measured wall time, not only in the
        model (23275cc: 83 ms against csv's 90 ms on this table)."""
        from repro.middleware.migration import DataMigrator

        table = pipegen_table(10_000)

        def wall(strategy: str) -> float:
            runs = []
            for _ in range(3):
                _, report = DataMigrator().migrate(table, strategy=strategy)
                runs.append(report.details["measured_serialize_s"]
                            + report.details["measured_deserialize_s"])
            return min(runs)

        assert wall("binary_pipe") <= 0.5 * wall("csv")


@pytest.mark.parametrize("mode, expected", [
    ("polystore++", (41_412, 0.00036655808)),
    ("cpu_polystore", (41_412, 0.000577412)),
])
def test_charged_migration_cost_of_the_mimic_program_is_pinned(mode, expected):
    """``migration_bytes`` / ``migration_time_s`` captured at 23275cc: the wire
    format changed, what a migration is charged did not."""
    from repro.core import build_accelerated_polystore
    from repro.stores import MLEngine, RelationalEngine, TextEngine, TimeseriesEngine
    from repro.workloads import build_mimic_program, generate_mimic, load_mimic

    relational = RelationalEngine("clinical-db")
    timeseries = TimeseriesEngine("monitors")
    text = TextEngine("notes-db")
    load_mimic(generate_mimic(200, seed=7), relational=relational,
               timeseries=timeseries, text=text)
    system = build_accelerated_polystore(
        [relational, timeseries, text, MLEngine("dnn-engine")])
    summary = system.execute(build_mimic_program(epochs=1), mode=mode).summary()
    assert summary["migration_bytes"] == expected[0]
    assert summary["migration_time_s"] == pytest.approx(expected[1], rel=1e-9)
