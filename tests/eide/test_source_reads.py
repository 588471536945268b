"""Every source read and ML head the dataflow API builds runs through
``system.execute`` and answers what the engine it reads would answer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataflowProgram, dataset
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.stores import KeyValueEngine, MLEngine, RelationalEngine, TimeseriesEngine
from repro.stores.graph import GraphEngine, PatternStep


@pytest.fixture
def system():
    db = RelationalEngine("db")
    db.load_table("patients", Table(
        make_schema(("pid", DataType.INT), ("age", DataType.INT),
                    ("score", DataType.FLOAT), ("sick", DataType.INT)),
        [(1, 72, 0.9, 1), (2, 35, 0.4, 0), (3, 85, 0.7, 1), (4, 35, 0.2, 0)]))
    db.create_index("patients", "age")
    kv = KeyValueEngine("kv")
    for key in ("a1", "a2", "b1", "b2", "c1"):
        kv.put(key, {"n": int(key[1])})
    ts = TimeseriesEngine("ts")
    ts.append_many("hr/1", [(float(i), float(i)) for i in range(20)])
    wards = GraphEngine("wards")
    for ward in ("emergency", "icu", "surgery", "recovery", "general"):
        wards.add_node(ward, "ward", {"beds": 10})
    wards.add_node("p1", "patient", {"age": 70})
    wards.add_edge("emergency", "icu", "transfer", {"weight": 2.0})
    wards.add_edge("emergency", "general", "transfer", {"weight": 1.0})
    wards.add_edge("general", "recovery", "transfer", {"weight": 1.0})
    wards.add_edge("icu", "surgery", "transfer", {"weight": 1.0})
    wards.add_edge("surgery", "recovery", "transfer", {"weight": 1.0})
    wards.add_edge("p1", "emergency", "admitted_to")
    return build_cpu_polystore([db, kv, ts, wards, MLEngine("ml")])


def _read(system, ds):
    program = DataflowProgram("read")
    program.output("out", ds)
    return system.execute(program).output("out")


class TestRelationalSeek:
    def test_index_seek_returns_every_row_with_the_value(self, system):
        rows = _read(system, dataset("db").index_seek("patients", "age", 35)).to_dicts()
        assert sorted(row["pid"] for row in rows) == [2, 4]
        assert all(row["age"] == 35 for row in rows)

    def test_index_seek_of_an_absent_value_keeps_the_schema(self, system):
        table = _read(system, dataset("db").index_seek("patients", "age", 99))
        assert len(table) == 0
        assert table.schema.names == ("pid", "age", "score", "sick")


class TestKeyValueRange:
    def test_range_is_key_ordered_and_excludes_its_end(self, system):
        rows = _read(system, dataset("kv").kv_range("a2", "c1")).to_dicts()
        assert [row["key"] for row in rows] == ["a2", "b1", "b2"]
        assert [row["n"] for row in rows] == [2, 1, 2]

    def test_open_start_reads_from_the_first_key(self, system):
        rows = _read(system, dataset("kv").kv_range(None, "b1")).to_dicts()
        assert [row["key"] for row in rows] == ["a1", "a2"]


class TestTimeseriesWindow:
    def test_window_sums_each_tumbling_window(self, system):
        rows = _read(system, dataset("ts").window("hr/1", 5.0, aggregation="sum")).to_dicts()
        assert [row["window_start"] for row in rows] == [0.0, 5.0, 10.0, 15.0]
        assert [row["value"] for row in rows] == [10.0, 35.0, 60.0, 85.0]
        assert all(row["count"] == 5 for row in rows)

    def test_default_aggregation_is_the_engines_mean(self, system):
        rows = _read(system, dataset("ts").window("hr/1", 4.0)).to_dicts()
        direct = system.catalog.engine("ts").window_aggregate("hr/1", 4.0, "mean")
        assert [(row["window_start"], row["value"]) for row in rows] == \
            [(w.window_start, w.value) for w in direct]


class TestGraphReads:
    def test_weighted_shortest_path_prefers_cheap_edges(self, system):
        path = _read(system, dataset("wards").graph().shortest_path(
            "emergency", "surgery", weighted=True))
        assert path == {"path": ["emergency", "icu", "surgery"], "cost": 3.0, "hops": 2}

    def test_unweighted_shortest_path_counts_hops(self, system):
        path = _read(system, dataset("wards").graph().shortest_path("emergency", "recovery"))
        assert path["path"] == ["emergency", "general", "recovery"]
        assert path["hops"] == 2 and path["cost"] == 2.0

    def test_neighborhood_aggregates_a_neighbour_property(self, system):
        value = _read(system, dataset("wards").graph().neighborhood(
            "emergency", "beds", edge_label="transfer", aggregation="sum"))
        assert value == {"node_id": "emergency", "value": 20.0}

    def test_match_follows_a_label_path(self, system):
        table = _read(system, dataset("wards").graph().match(
            "patient", [PatternStep(edge_label="admitted_to", node_label="ward")]))
        assert table.to_dicts() == [{"start": "p1", "end": "emergency", "length": 1}]


class TestFeatureMatrix:
    def test_default_columns_are_the_numeric_non_label_ones(self, system):
        matrix = _read(system, dataset("db").table("patients")
                       .feature_matrix(label_column="sick"))
        assert isinstance(matrix, np.ndarray)
        assert matrix.shape == (4, 3)  # pid, age, score; the label is dropped
        assert sorted(matrix[:, 1].tolist()) == [35.0, 35.0, 72.0, 85.0]

    def test_named_columns_are_kept_in_the_order_given(self, system):
        matrix = _read(system, dataset("db").table("patients")
                       .feature_matrix(feature_columns=["score", "age"]))
        by_age = sorted(matrix.tolist(), key=lambda row: row[1])
        assert by_age[-1] == [0.7, 85.0]

    def test_a_named_head_reports_its_label(self):
        ds = dataset("db").table("patients").feature_matrix().named("features")
        assert ds.label == "features"
        assert dataset("db").table("patients").label is None
