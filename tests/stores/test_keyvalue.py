"""Tests for the LSM-style key/value engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stores.keyvalue import KeyValueEngine, MemTable, SSTable, merge_sstables
from repro.stores.keyvalue.memtable import TOMBSTONE


class TestMemTable:
    def test_put_get_delete(self):
        memtable = MemTable(capacity=10)
        memtable.put("a", 1)
        memtable.delete("a")
        found, value = memtable.get("a")
        assert found and value is TOMBSTONE

    def test_items_sorted(self):
        memtable = MemTable()
        for key in ("c", "a", "b"):
            memtable.put(key, key)
        assert [k for k, _ in memtable.items()] == ["a", "b", "c"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MemTable(capacity=0)


class TestSSTable:
    def test_requires_sorted_entries(self):
        with pytest.raises(ValueError):
            SSTable([("b", 1), ("a", 2)])

    def test_range_scan(self):
        sstable = SSTable([(f"k{i}", i) for i in range(10)])
        assert [v for _, v in sstable.range("k2", "k5")] == [2, 3, 4]

    def test_key_bounds(self):
        sstable = SSTable([("apple", 1), ("kiwi", 2), ("pear", 3)])
        assert (sstable.min_key, sstable.max_key) == ("apple", "pear")
        empty = SSTable([])
        assert (empty.min_key, empty.max_key, len(empty)) == (None, None, 0)

    def test_merge_prefers_newer_and_drops_tombstones(self):
        old = SSTable([("a", 1), ("b", 2)])
        new = SSTable([("a", 10), ("b", TOMBSTONE)])
        merged = merge_sstables([old, new])
        assert merged.get("a") == (True, 10)
        assert merged.get("b") == (False, None)


class TestEngine:
    def test_get_put_delete(self):
        engine = KeyValueEngine(memtable_capacity=4)
        engine.put("x", {"v": 1})
        assert engine.get("x") == {"v": 1}
        engine.delete("x")
        assert engine.get("x") is None
        assert not engine.contains("x")

    def test_flush_and_read_from_sstable(self):
        engine = KeyValueEngine(memtable_capacity=2)
        for i in range(7):
            engine.put(f"k{i}", i)
        stats = engine.statistics()
        assert stats["sstables"] >= 2
        assert engine.get("k0") == 0 and engine.get("k6") == 6

    def test_overwrite_across_flushes(self):
        engine = KeyValueEngine(memtable_capacity=2)
        engine.put("k", "old")
        engine.flush()
        engine.put("k", "new")
        assert engine.get("k") == "new"

    def test_range_is_sorted_and_live_only(self):
        engine = KeyValueEngine(memtable_capacity=3)
        engine.put_many({f"user/{i}": i for i in range(5)})
        engine.delete("user/2")
        keys = [k for k, _ in engine.range("user/", "user0")]
        assert keys == ["user/0", "user/1", "user/3", "user/4"]

    def test_compact_reduces_sstables(self):
        engine = KeyValueEngine(memtable_capacity=2)
        for i in range(10):
            engine.put(f"k{i}", i)
        engine.compact()
        assert engine.statistics()["sstables"] == 1
        assert len(engine) == 10

    def test_multi_get_skips_missing(self):
        engine = KeyValueEngine()
        engine.put("a", 1)
        assert engine.multi_get(["a", "missing"]) == {"a": 1}

    def test_wal_recovery_reproduces_state(self):
        engine = KeyValueEngine(memtable_capacity=3)
        engine.put("a", 1)
        engine.put("b", 2)
        engine.delete("a")
        engine.put("c", 3)
        recovered = engine.recover_from_wal()
        assert recovered.get("a") is None
        assert recovered.get("b") == 2
        assert recovered.get("c") == 3

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["put", "delete"]),
                  st.text(alphabet="abcde", min_size=1, max_size=3),
                  st.integers(0, 100)),
        max_size=60,
    ))
    def test_property_matches_dict_model(self, operations):
        """The LSM engine behaves exactly like a plain dict reference model."""
        engine = KeyValueEngine(memtable_capacity=4)
        model: dict[str, int] = {}
        for op, key, value in operations:
            if op == "put":
                engine.put(key, value)
                model[key] = value
            else:
                engine.delete(key)
                model.pop(key, None)
        assert dict(engine.scan()) == model
