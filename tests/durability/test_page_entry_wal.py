"""A whole-page delete goes to the WAL as builtins, and old WALs still replay.

A delete that drops a sealed page whole logs one page entry; the WAL writes
it as ``(the page's row list, weight)``, so a record names no ``repro``
class and no ``Page`` is ever pickled.  Replay takes that shape and the
``(row, weight)`` pairs older WALs hold alike.
"""

from __future__ import annotations

import io
import pickle
import shutil
import struct
from pathlib import Path

from repro import PolystorePlusPlus, col
from repro.core.system import SystemConfig
from repro.datamodel import DataType, make_schema
from repro.stores import RelationalEngine
from repro.stores.changelog import table_scope

SCHEMA = make_schema(("order_id", DataType.INT), ("customer", DataType.STRING),
                     ("amount", DataType.FLOAT))
FRAME = struct.Struct("<II")  # length, crc32


class _NoImports(pickle.Unpickler):
    def find_class(self, module, name):
        raise AssertionError(f"a WAL record imports {module}.{name}")


def _open(data_dir):
    system = PolystorePlusPlus(SystemConfig(data_dir=str(data_dir),
                                            durability_snapshot_every=1_000_000))
    return system, system.register_engine(RelationalEngine("ordersdb"))


def _layout(db):
    return [len(page.rows) for page in db._tables["orders"].heap._pages]


def _records(path: Path) -> list:
    data, records, at = path.read_bytes(), [], 0
    while at < len(data):
        length, _ = FRAME.unpack_from(data, at)
        at += FRAME.size
        records.append(_NoImports(io.BytesIO(data[at:at + length])).load())
        at += length
    return records


def test_a_whole_page_trim_logs_builtins_only(tmp_path):
    system, db = _open(tmp_path)
    db.create_table("orders", SCHEMA, page_capacity=4)
    rows = [(i, f"c{i % 5}", float(i % 9)) for i in range(18)]
    db.insert("orders", rows)
    system.durability.checkpoint()  # the WAL segment after it holds the trim only
    db.delete_rows("orders", col("order_id") < 10)
    state = system.describe()["durability"]["checkpoints"]["ordersdb"]
    (record,) = _records(tmp_path / "engines" / "ordersdb" /
                         f"wal-{state['wal_segment']:08d}.log")
    assert record["entries"] == [(rows[0:4], -1), (rows[4:8], -1),
                                 (rows[8], -1), (rows[9], -1)]
    system.close()


def test_a_wal_written_by_the_parent_commit_replays(tmp_path):
    # data/legacy-wal was written by the commit before page entries: create
    # orders (4 rows a page), insert ids 0..23, delete ids < 10 (two whole
    # pages and two rows), set amount 99.0 on id 12, then a hard kill at the
    # next WAL append; no checkpoint after the table's creation.
    data_dir = tmp_path / "data"
    shutil.copytree(Path(__file__).parent / "data" / "legacy-wal", data_dir)
    expected = [(i, f"c{i % 5}", 99.0 if i == 12 else float(i % 9)) for i in range(10, 24)]
    system, db = _open(data_dir)
    report = system.durability.recovery_report()["ordersdb"]
    assert report["restored"] and report["replayed_batches"] == 4
    assert db.scan("orders").rows == expected and _layout(db) == [2, 4, 4, 4]
    assert db.data_version_for(table_scope("orders")) == 4
    system.close()

    reborn, db2 = _open(data_dir)
    assert reborn.durability.recovery_report()["ordersdb"]["replayed_batches"] == 0
    assert db2.scan("orders").rows == expected and _layout(db2) == [2, 4, 4, 4]
    reborn.close()
