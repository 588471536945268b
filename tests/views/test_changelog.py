"""The changelog layer: scoped delta batches, gaps, retention, scoped versions."""

from __future__ import annotations

import pytest

from repro.datamodel import DataType, Table, make_schema
from repro.eide.expressions import col
from repro.stores import KeyValueEngine, RelationalEngine, TextEngine, TimeseriesEngine
from repro.stores.changelog import (
    ChangeLog,
    docs_scope,
    kv_scope,
    leaf_read_scope,
    series_scope,
    table_scope,
)


def _orders_schema():
    return make_schema(("order_id", DataType.INT), ("customer_id", DataType.INT),
                       ("amount", DataType.FLOAT))


class TestChangeLogUnit:
    def test_append_read_since_and_scope_filtering(self):
        log = ChangeLog()
        log.register(self)
        log.append("table:a", [(("r1",), 1)])
        log.append("table:b", [(("r2",), 1)])
        log.append("table:a", [(("r1",), -1)])
        batches, complete = log.read_since(0, "table:a")
        assert complete
        assert [b.entries for b in batches] == [((("r1",), 1),), ((("r1",), -1),)]
        all_batches, _ = log.read_since(0, None)
        assert len(all_batches) == 3

    def test_cursor_advances_past_read_batches(self):
        log = ChangeLog()
        log.register(self)
        first = log.append("s", [(1, 1)])
        batches, complete = log.read_since(first.seq, "s")
        assert complete and batches == []
        log.append("s", [(2, 1)])
        batches, complete = log.read_since(first.seq, "s")
        assert complete and len(batches) == 1

    def test_gap_poisons_scope_readers(self):
        log = ChangeLog()
        log.register(self)
        log.append("table:a", [(1, 1)])
        log.mark_gap("table:a")
        _, complete = log.read_since(0, "table:a")
        assert not complete
        # Other scopes are unaffected by a scoped gap.
        log.append("table:b", [(2, 1)])
        _, complete_b = log.read_since(0, "table:b")
        assert complete_b

    def test_unscoped_gap_poisons_everyone(self):
        log = ChangeLog()
        log.register(self)
        log.append("table:a", [(1, 1)])
        log.mark_gap(None)
        _, complete = log.read_since(0, "table:a")
        assert not complete

    def test_retention_truncation_forces_resync(self):
        log = ChangeLog(capacity=2)
        log.register(self)
        for i in range(5):
            log.append("s", [(i, 1)])
        _, complete = log.read_since(0, "s")
        assert not complete
        # A cursor inside the retained window still reads fine.
        batches, complete = log.read_since(3, "s")
        assert complete and len(batches) == 2

    def test_pull_reports_head_and_scope_filtered_batches(self):
        log = ChangeLog()
        log.register(self)
        batches, complete, head = log.pull(0, "s")
        assert complete and batches == [] and head == 0
        log.append("s", [(1, 1)])
        log.append("other", [(2, 1)])
        batches, complete, head = log.pull(0, "s")
        assert complete and len(batches) == 1 and head == 2
        batches, complete, head = log.pull(head, "s")
        assert complete and batches == [] and head == 2

    def test_subscribe_and_unsubscribe(self):
        log = ChangeLog()
        seen = []
        log.subscribe(seen.append)
        log.append("s", [(1, 1)])
        log.mark_gap("s")
        assert [b.gap for b in seen] == [False, True]
        log.unsubscribe(seen.append)
        log.append("s", [(2, 1)])
        assert len(seen) == 2


class TestEngineDeltas:
    def test_relational_insert_emits_weighted_rows(self):
        engine = RelationalEngine("db")
        engine.changelog.register(self)
        engine.load_table("orders", Table(_orders_schema(), [(1, 1, 2.0)]))
        engine.insert("orders", [(2, 2, 3.0)])
        batches, complete = engine.changelog.read_since(0, table_scope("orders"))
        assert complete
        entries = [e for b in batches for e in b.entries]
        assert ((1, 1, 2.0), 1) in entries and ((2, 2, 3.0), 1) in entries

    def test_relational_delete_and_update_entries(self):
        engine = RelationalEngine("db")
        engine.changelog.register(self)
        engine.load_table("orders", Table(_orders_schema(),
                                          [(1, 1, 2.0), (2, 2, 3.0)]))
        deleted = engine.delete_rows("orders", col("order_id") == 1)
        assert deleted == [(1, 1, 2.0)]
        updated = engine.update_rows("orders", col("order_id") == 2,
                                     {"amount": 9.0})
        assert updated == [((2, 2, 3.0), (2, 2, 9.0))]
        batches, _ = engine.changelog.read_since(0, table_scope("orders"))
        entries = [e for b in batches for e in b.entries]
        assert ((1, 1, 2.0), -1) in entries
        assert ((2, 2, 3.0), -1) in entries and ((2, 2, 9.0), 1) in entries
        assert len(engine.scan("orders")) == 1

    def test_partial_insert_failure_logs_a_gap(self):
        # Rows that landed before a mid-batch failure must not go
        # unrecorded: pinned snapshots would replay pre-insert data and
        # delta consumers would diverge with no resync signal.
        engine = RelationalEngine("db")
        engine.changelog.register(self)
        engine.load_table("orders", Table(_orders_schema(), [(1, 1, 1.0)]))
        version = engine.data_version_for(table_scope("orders"))
        with pytest.raises(Exception):
            engine.insert("orders", [(2, 2, 2.0), ("bad", None)], validate=True)
        assert engine.data_version_for(table_scope("orders")) > version
        _, complete = engine.changelog.read_since(0, table_scope("orders"))
        assert not complete  # consumers are forced to resync

    def test_relational_drop_table_is_a_gap(self):
        engine = RelationalEngine("db")
        engine.changelog.register(self)
        engine.load_table("orders", Table(_orders_schema(), [(1, 1, 2.0)]))
        engine.drop_table("orders")
        _, complete = engine.changelog.read_since(0, table_scope("orders"))
        assert not complete

    def test_kv_put_delete_entries_with_previous_values(self):
        engine = KeyValueEngine("kv")
        engine.changelog.register(self)
        engine.put("a", 1)
        engine.put("a", 2)
        engine.delete("a")
        batches, complete = engine.changelog.read_since(0, kv_scope())
        assert complete
        entries = [e for b in batches for e in b.entries]
        assert entries == [(("a", 1), 1), (("a", 1), -1), (("a", 2), 1),
                           (("a", 2), -1)]

    def test_timeseries_append_entries(self):
        engine = TimeseriesEngine("ts")
        engine.changelog.register(self)
        engine.append_many("s/1", [(1.0, 2.0), (2.0, 3.0)])
        batches, complete = engine.changelog.read_since(0, series_scope("s/1"))
        assert complete
        entries = [e for b in batches for e in b.entries]
        assert ((1.0, 2.0), 1) in entries and ((2.0, 3.0), 1) in entries

    def test_text_add_remove_entries(self):
        engine = TextEngine("txt")
        engine.changelog.register(self)
        engine.add_document("d1", "hello")
        engine.add_document("d1", "world")
        engine.remove_document("d1")
        batches, complete = engine.changelog.read_since(0, docs_scope())
        assert complete
        entries = [e for b in batches for e in b.entries]
        assert entries == [(("d1", "hello"), 1), (("d1", "hello"), -1),
                           (("d1", "world"), 1), (("d1", "world"), -1)]


class TestScopedVersions:
    def test_table_scoped_versions_are_independent(self):
        engine = RelationalEngine("db")
        engine.load_table("a", Table(_orders_schema(), [(1, 1, 1.0)]))
        engine.load_table("b", Table(_orders_schema(), [(2, 2, 2.0)]))
        version_a = engine.data_version_for(table_scope("a"))
        version_b = engine.data_version_for(table_scope("b"))
        engine.insert("b", [(3, 3, 3.0)])
        assert engine.data_version_for(table_scope("a")) == version_a
        assert engine.data_version_for(table_scope("b")) > version_b

    def test_unscoped_mutation_bumps_every_scope(self):
        engine = RelationalEngine("db")
        engine.load_table("a", Table(_orders_schema(), [(1, 1, 1.0)]))
        version_a = engine.data_version_for(table_scope("a"))
        engine.mark_data_changed()  # an undescribed engine-wide mutation
        assert engine.data_version_for(table_scope("a")) > version_a

    def test_series_scoped_versions(self):
        engine = TimeseriesEngine("ts")
        engine.append("s/1", 1.0, 1.0)
        engine.append("s/2", 1.0, 1.0)
        version_1 = engine.data_version_for(series_scope("s/1"))
        engine.append("s/2", 2.0, 2.0)
        assert engine.data_version_for(series_scope("s/1")) == version_1
        assert engine.data_version > 0

    def test_engine_wide_counter_still_bumps_on_every_write(self):
        engine = RelationalEngine("db")
        engine.load_table("a", Table(_orders_schema(), [(1, 1, 1.0)]))
        before = engine.data_version
        engine.insert("a", [(2, 2, 2.0)])
        assert engine.data_version > before


class TestPartitionedChangelog:
    def _partitioned(self, partitions=3):
        engine = RelationalEngine("cluster", partitions=partitions)
        engine.changelog.register(self)
        engine.load_table("orders", Table(_orders_schema(), [
            (i, i % 5, float(i)) for i in range(20)
        ]))
        return engine

    def test_the_one_log_carries_every_write(self):
        engine = self._partitioned()
        engine.insert("orders", [(100, 1, 9.0)])
        batches, complete = engine.changelog.read_since(0, table_scope("orders"))
        assert complete
        entries = [e for b in batches for e in b.entries]
        assert ((100, 1, 9.0), 1) in entries
        # Every seeded row is on the log exactly once.
        weights = [w for _, w in entries]
        assert weights.count(1) == 21

    def test_scoped_versions_move_with_any_partitions_write(self):
        engine = self._partitioned()
        version = engine.data_version_for(table_scope("orders"))
        engine.insert("orders", [(300, 3, 1.0)])
        assert engine.data_version_for(table_scope("orders")) > version

    def test_bulk_batches_age_out_by_retained_rows(self):
        log = ChangeLog(capacity=100, max_rows=10)
        log.register(self)
        log.append("s", [(i, 1) for i in range(8)])
        assert log.retention_stats()["retained_rows"] == 8
        log.append("s", [(i, 1) for i in range(8)])  # 16 > 10: oldest drops
        stats = log.retention_stats()
        assert stats["retained_batches"] == 1 and stats["retained_rows"] == 8
        _, complete = log.read_since(0, "s")
        assert not complete  # trimmed-past cursors resync
        # A single oversized batch ages out immediately; head cursors and
        # later appends keep working.
        head = log.latest_seq
        log.append("s", [(i, 1) for i in range(50)])
        assert log.retention_stats()["retained_rows"] == 0
        _, complete = log.read_since(head, "s")
        assert not complete
        log.append("s", [(0, 1)])
        batches, complete = log.read_since(log.latest_seq - 1, "s")
        assert complete and len(batches) == 1

class TestLeafReadScopes:
    def test_scope_mapping(self):
        assert leaf_read_scope("scan", {"table": "t"}) == table_scope("t")
        assert leaf_read_scope("index_seek", {"table": "t", "column": "c",
                                              "value": 1}) == table_scope("t")
        assert leaf_read_scope("kv_get", {"keys": ["a"]}) == kv_scope()
        assert leaf_read_scope("ts_range", {"series": "s"}) == series_scope("s")
        assert leaf_read_scope("text_search", {"query": "q"}) == docs_scope()
        # Prefix reads cannot name their footprint: engine-wide.
        assert leaf_read_scope("ts_summarize", {"series_prefix": "s/"}) is None
