"""Relational checkpoints as manifests over page segments.

A sealed heap page (every page of a heap but its last) is written once, to a
``seg-%08d.pkl`` file; a checkpoint's snapshot names pages by ``(segment,
index)`` and holds only the open last page inline.  These tests count pages
and files, never time: what a checkpoint writes follows what changed, a
segment goes when nothing names it, the bytes on disk carry no import path,
and a data directory written by the parent commit still opens.
"""

from __future__ import annotations

import io
import pickle
import shutil
from pathlib import Path

import pytest

from repro import PolystorePlusPlus, col
from repro.core.system import SystemConfig
from repro.datamodel import DataType, make_schema
from repro.durability import InjectedFault, faults
from repro.durability.snapshot import SEGMENT_HEADER, load_manifest, load_snapshot, read_record
from repro.durability.wal import encode_record
from repro.exceptions import StorageError
from repro.stores import RelationalEngine
from repro.stores.changelog import table_scope

SCHEMA = make_schema(("order_id", DataType.INT), ("customer", DataType.STRING),
                     ("amount", DataType.FLOAT))


@pytest.fixture(autouse=True)
def _clear_faults():
    faults.clear()
    yield
    faults.clear()


def _open(data_dir, name="ordersdb"):
    """A durable system that checkpoints only when told to, and its engine."""
    system = PolystorePlusPlus(SystemConfig(
        data_dir=str(data_dir), durability_snapshot_every=1_000_000))
    return system, system.register_engine(RelationalEngine(name))


def _orders(start, stop):
    return [(i, f"c{i % 5}", float(i % 9)) for i in range(start, stop)]


def _checkpoint(system, name="ordersdb"):
    system.durability.checkpoint()
    return system.describe()["durability"]["checkpoints"][name]


def _segments(data_dir, name="ordersdb"):
    """Identity of every page-segment file: a rewritten file changes it."""
    directory = Path(data_dir) / "engines" / name
    return {path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in directory.glob("seg-*.pkl")}


def _layout(engine, table="orders"):
    return [len(page.rows) for page in engine._tables[table].heap._pages]


class TestCheckpointCostsWhatChanged:
    def test_pages_written_follow_the_write_not_the_table(self, tmp_path):
        system, db = _open(tmp_path)
        db.create_table("orders", SCHEMA)
        db.insert("orders", _orders(0, 100_000))
        first = _checkpoint(system)
        assert (first["pages_written"], first["pages_reused"]) == (390, 0)
        assert first["segments"] == 1
        on_disk = _segments(tmp_path)

        db.insert("orders", _orders(100_000, 101_000))
        state = _checkpoint(system)
        assert 1 <= state["pages_written"] <= 5
        assert state["pages_reused"] == 390
        after = _segments(tmp_path)
        assert len(after) == len(on_disk) + 1
        assert {name: after[name] for name in on_disk} == on_disk
        on_disk = after

        db.update_rows("orders", col("order_id") == 50_000, {"amount": -1.0})
        state = _checkpoint(system)
        assert state["pages_written"] == 1
        assert {name: _segments(tmp_path)[name] for name in on_disk} == on_disk
        on_disk = _segments(tmp_path)

        # 19 whole pages go, the 20th is copied without its first 136 rows.
        assert len(db.delete_rows("orders", col("order_id") < 5_000)) == 5_000
        state = _checkpoint(system)
        assert state["pages_written"] <= 1
        assert {name: _segments(tmp_path)[name] for name in on_disk} == on_disk

        state = _checkpoint(system)  # nothing changed: nothing written
        assert state["pages_written"] == 0 and state["segments"] == 4
        expected = db.scan("orders").rows, _layout(db)
        system.close()

        reborn, db2 = _open(tmp_path)
        report = reborn.durability.recovery_report()["ordersdb"]
        assert report["restored"] and report["replayed_batches"] == 0
        assert (db2.scan("orders").rows, _layout(db2)) == expected
        # The checkpoint an attach takes found every page where it was.
        state = reborn.describe()["durability"]["checkpoints"]["ordersdb"]
        assert state["pages_written"] == 0 and state["pages_reused"] > 370
        reborn.close()

    def test_segment_goes_with_the_checkpoint_that_stops_naming_it(self, tmp_path):
        system, db = _open(tmp_path)
        db.create_table("orders", SCHEMA, page_capacity=4)
        db.insert("orders", _orders(0, 42))  # ten sealed pages and an open one
        assert _checkpoint(system)["pages_written"] == 10
        (segment,) = _segments(tmp_path)

        db.delete_rows("orders", col("order_id") >= 0)
        assert segment in _segments(tmp_path)  # the manifest still names it
        state = _checkpoint(system)
        assert (state["pages_written"], state["segments"]) == (0, 0)
        assert _segments(tmp_path) == {}
        system.close()

    def test_half_dead_segment_requeues_its_survivors_once(self, tmp_path):
        system, db = _open(tmp_path)
        db.create_table("orders", SCHEMA, page_capacity=4)
        db.insert("orders", _orders(0, 42))
        assert _checkpoint(system)["pages_written"] == 10
        (first,) = _segments(tmp_path)

        # Five of its ten pages still named: exactly half, the segment stays.
        db.delete_rows("orders", col("order_id") < 20)
        state = _checkpoint(system)
        assert (state["pages_written"], state["pages_reused"]) == (0, 5)
        assert list(_segments(tmp_path)) == [first]

        # Four of ten: the survivors move to a new segment, the old one goes.
        db.delete_rows("orders", col("order_id") < 24)
        state = _checkpoint(system)
        assert (state["pages_written"], state["pages_reused"]) == (4, 0)
        (second,) = _segments(tmp_path)
        assert second != first

        # ... once: the next checkpoint finds them in place.
        state = _checkpoint(system)
        assert (state["pages_written"], state["pages_reused"]) == (0, 4)
        assert list(_segments(tmp_path)) == [second]
        assert db.scan("orders").rows == _orders(24, 42)
        system.close()

    def test_engine_carried_to_another_directory_keeps_no_foreign_ref(self, tmp_path):
        system, db = _open(tmp_path / "a")
        db.create_table("orders", SCHEMA, page_capacity=4)
        db.insert("orders", _orders(0, 20))
        assert _checkpoint(system)["pages_written"] == 4  # a/seg-00000002, pages 0..3
        db.delete_rows("orders", col("order_id") >= 16)  # page 3, full, is last now
        system.durability.liveness.kill()
        system.close()

        # The same engine object under a fresh directory: every page is written
        # again there, and the last page's old ref (seg-00000002, 3) must not
        # be mistaken for one into the seg-00000002 this store writes next.
        moved = PolystorePlusPlus(SystemConfig(
            data_dir=str(tmp_path / "b"), durability_snapshot_every=1_000_000))
        moved.register_engine(db)
        state = moved.describe()["durability"]["checkpoints"]["ordersdb"]
        assert (state["pages_written"], state["pages_reused"]) == (3, 0)
        db.update_rows("orders", col("order_id") == 0, {"amount": -1.0})
        assert _checkpoint(moved)["pages_written"] == 1  # b/seg-00000002
        db.insert("orders", _orders(16, 18))  # seals page 3
        assert _checkpoint(moved)["pages_written"] == 1
        expected = db.scan("orders").rows, _layout(db)
        moved.close()
        reborn, db2 = _open(tmp_path / "b")
        assert (db2.scan("orders").rows, _layout(db2)) == expected
        reborn.close()

    def test_kill_at_the_segment_write_recovers_from_the_previous_manifest(self, tmp_path):
        system, db = _open(tmp_path)
        db.create_table("orders", SCHEMA, page_capacity=4)
        db.insert("orders", _orders(0, 10))
        _checkpoint(system)
        directory = tmp_path / "engines" / "ordersdb"
        manifest = load_manifest(directory)
        db.insert("orders", _orders(10, 30))
        db.delete_rows("orders", col("order_id") < 3)
        expected = db.scan("orders").rows, _layout(db)

        faults.arm("snapshot.write")
        with pytest.raises(InjectedFault):
            system.durability.checkpoint()
        # Dead between the segment's temp file and its rename: the manifest
        # is the previous one and names nothing of the new checkpoint.
        assert load_manifest(directory) == manifest
        assert [p.name for p in directory.glob("*.tmp")] == \
            [f"seg-{manifest['snapshot_id'] + 1:08d}.pkl.tmp"]
        # What a kill after the rename leaves as well: a whole segment that
        # no manifest names.
        orphan = directory / "seg-00000099.pkl"
        orphan.write_bytes(SEGMENT_HEADER + encode_record([]))

        reborn, db2 = _open(tmp_path)
        report = reborn.durability.recovery_report()["ordersdb"]
        assert report["snapshot_id"] == manifest["snapshot_id"]
        assert report["replayed_batches"] == 2
        assert (db2.scan("orders").rows, _layout(db2)) == expected
        assert not list(directory.glob("*.tmp")) and not orphan.exists()
        named = {entry[0] for entry in load_snapshot(
            directory, load_manifest(directory)["snapshot"]
        )["state"]["tables"]["orders"]["pages"] if isinstance(entry, tuple)}
        assert set(_segments(tmp_path)) == named
        reborn.close()


class _NoImports(pickle.Unpickler):
    def find_class(self, module, name):
        raise AssertionError(f"persisted page bytes import {module}.{name}")


class TestSegmentFormat:
    def _one_segment(self, tmp_path) -> Path:
        system, db = _open(tmp_path)
        db.create_table("orders", SCHEMA, page_capacity=4)
        db.insert("orders", _orders(0, 9) + [(9, None, None)])
        _checkpoint(system)
        system.close()
        (name,) = _segments(tmp_path)
        return tmp_path / "engines" / "ordersdb" / name

    def test_payload_is_plain_builtins(self, tmp_path):
        path = self._one_segment(tmp_path)
        data = path.read_bytes()
        assert data.startswith(SEGMENT_HEADER)
        # Past the header and the record's length + crc32: the pickle itself.
        pages = _NoImports(io.BytesIO(data[len(SEGMENT_HEADER) + 8:])).load()
        columns = [("order_id", "int", True), ("customer", "string", True),
                   ("amount", "float", True)]
        assert pages == [(columns, _orders(0, 4)), (columns, _orders(4, 8))]
        assert read_record(path, SEGMENT_HEADER) == pages
        # The snapshot that names them: refs, then the open page's rows.
        directory = path.parent
        tables = load_snapshot(directory, load_manifest(directory)["snapshot"]
                               )["state"]["tables"]
        assert tables["orders"]["schema"] == columns
        assert tables["orders"]["pages"] == [
            (path.name, 0), (path.name, 1), [(8, "c3", 8.0), (9, None, None)]]

    @pytest.mark.parametrize("damage", ["magic", "version", "payload", "length"])
    def test_damaged_segment_is_a_storage_error(self, tmp_path, damage):
        path = self._one_segment(tmp_path)
        data = bytearray(path.read_bytes())
        at = {"magic": 0, "version": len(SEGMENT_HEADER) - 1,
              "length": len(SEGMENT_HEADER), "payload": len(data) - 20}[damage]
        data[at] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            read_record(path, SEGMENT_HEADER)
        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        with pytest.raises(StorageError):
            reborn.register_engine(RelationalEngine("ordersdb"))

    def test_page_written_for_other_columns_is_refused(self, tmp_path):
        path = self._one_segment(tmp_path)
        pages = read_record(path, SEGMENT_HEADER)
        other = [("order_id", "int", True), ("customer", "string", True),
                 ("amount", "int", True)]
        path.write_bytes(SEGMENT_HEADER + encode_record(
            [(other, rows) for _, rows in pages]))
        reborn = PolystorePlusPlus(data_dir=str(tmp_path))
        with pytest.raises(StorageError, match="not written for table 'orders'"):
            reborn.register_engine(RelationalEngine("ordersdb"))


class TestParentFormat:
    def test_directory_written_by_the_parent_commit_opens_and_upgrades(self, tmp_path):
        # data/legacy-relational was written by PR 22 (ce3b6b9), the last
        # commit whose snapshots hold whole tables under "rows" and pickle the
        # Schema by import path: create orders (8 rows a page), insert ids
        # 0..59, hash index on customer, sorted index on amount, delete ids
        # < 5, create notes and insert two rows, checkpoint; then — the WAL
        # tail — insert ids 100 and 101, set amount 99.0 on id 11, delete ids
        # 20 and 21, and a hard kill.
        data_dir = tmp_path / "data"
        shutil.copytree(Path(__file__).parent / "data" / "legacy-relational",
                        data_dir)
        directory = data_dir / "engines" / "ordersdb"
        assert "rows" in load_snapshot(directory, "snap-00000002.pkl"
                                       )["state"]["tables"]["orders"]
        expected = [(i, f"c{i % 5}", 99.0 if i == 11 else float(i % 9))
                    for i in range(5, 60) if i not in (20, 21)]
        expected += [(100, "c9", 1.5), (101, "c9", 2.5)]

        system, db = _open(data_dir)
        report = system.durability.recovery_report()["ordersdb"]
        assert report["restored"] and report["snapshot_id"] == 2
        assert report["replayed_batches"] == 3 and not report["truncated_records"]

        def check(db):
            assert db.scan("orders").rows == expected
            assert db.scan("notes").rows == [("a", 1), ("b", None)]
            assert {scope: db.data_version_for(scope)
                    for scope in sorted(db.known_scopes())} == {
                table_scope("notes"): 2, table_scope("orders"): 6}
            assert (db.data_version, db.changelog.latest_seq) == (8, 8)
            assert db.table_statistics("orders")["hash_indexes"] == ["customer"]
            assert db.table_statistics("orders")["sorted_indexes"] == ["amount"]
            assert db.index_lookup("orders", "customer", "c9").rows == expected[-2:]
            assert db.range_lookup("orders", "amount", 99.0, 99.0).rows == \
                [(11, "c1", 99.0)]

        check(db)
        # Attaching checkpointed it into the new format: refs, plain schema.
        spec = load_snapshot(directory, load_manifest(directory)["snapshot"]
                             )["state"]["tables"]["orders"]
        assert "rows" not in spec and spec["schema"][0] == ("order_id", "int", True)
        layout = _layout(db)
        assert layout == [8, 7, 7, 8, 8, 8, 8, 1]  # 55 rows cut into full pages
        assert [type(entry) for entry in spec["pages"]] == [tuple] * 7 + [list]
        assert len(_segments(data_dir)) == 1
        assert not (directory / "snap-00000002.pkl").exists()
        system.close()

        reborn, db2 = _open(data_dir)
        assert reborn.durability.recovery_report()["ordersdb"]["replayed_batches"] == 0
        check(db2)
        assert _layout(db2) == layout
        reborn.close()
