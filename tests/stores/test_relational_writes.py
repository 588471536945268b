"""The relational write path against a plain list of tuples.

One Hypothesis state machine drives random ``insert`` / ``update_rows`` /
``delete_rows`` / ``create_index`` sequences through a small-paged engine
and, after every step, compares with the model: scan order, what each
statement returned, the changelog entries it logged, and every index —
hash and sorted, on columns the updates set and on ones they never touch.
Three more engines follow along and must answer exactly as the live one does:
one fed only the logged batches through WAL replay, one rebuilt from a state
dump at every check, and one fed the same batches inside a durable system in a
temporary directory, which is checkpointed, closed or killed, and reopened
from its page segments at random points — its page boundaries and counters,
not only its rows, must stay the live engine's.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import PolystorePlusPlus, col
from repro.core.system import SystemConfig
from repro.datamodel import DataType, make_schema
from repro.durability.state import dump_state, replay_record, restore_state
from repro.exceptions import SchemaError
from repro.stores.changelog import table_scope
from repro.stores.relational import RelationalEngine, storage
from repro.stores.relational.storage import Page

SCHEMA = make_schema(("id", DataType.INT), ("grp", DataType.INT),
                     ("amount", DataType.FLOAT))
ID, GRP, AMOUNT = range(3)
SCOPE = table_scope("t")

# Small domains: duplicate keys and whole duplicate rows are the common case.
_ids = st.integers(0, 12)
_groups = st.integers(0, 3)
_amounts = st.sampled_from([0.0, 1.5, 2.0, 7.25])
_rows = st.tuples(_ids, _groups, _amounts)

#: ``(engine predicate, the same test over a row tuple)`` pairs.
_predicates = st.one_of(
    _ids.map(lambda k: (col("id") < k, lambda row: row[ID] < k)),
    _ids.map(lambda k: (col("id") >= k, lambda row: row[ID] >= k)),
    _groups.map(lambda g: (col("grp").eq(g), lambda row: row[GRP] == g)),
    _amounts.map(lambda a: (col("amount") > a, lambda row: row[AMOUNT] > a)),
    st.tuples(_ids, st.integers(1, 5)).map(lambda span: (
        (col("id") >= span[0]) & (col("id") < span[0] + span[1]),
        lambda row: span[0] <= row[ID] < span[0] + span[1])),
)
_updates = st.fixed_dictionaries(
    {}, optional={"id": _ids, "grp": _groups, "amount": _amounts}
).filter(bool)


def _landed(sizes: list[int], count: int, capacity: int) -> list[int]:
    """Page sizes after ``count`` rows land on pages of ``sizes``: the last
    page is topped up, the rest go into new pages, full but for the last."""
    sizes = list(sizes)
    if sizes and sizes[-1] < capacity:
        top = min(capacity - sizes[-1], count)
        sizes[-1] += top
        count -= top
    while count:
        sizes.append(min(capacity, count))
        count -= sizes[-1]
    return sizes


def _layout(engine) -> tuple[list[int], int]:
    """Rows held by each heap page of ``t``, in order, and the heap's row count."""
    heap = engine._tables["t"].heap
    return [len(page.rows) for page in heap._pages], heap.num_rows


class RelationalWrites(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.model: list[tuple] = []
        self.indexes: set[tuple[str, str]] = set()
        self.live = RelationalEngine("live")
        self.live.changelog.register(self)  # _logged reads each write's batch
        self.replayed = RelationalEngine("replayed")
        wal: list[dict] = []
        self.live.changelog.subscribe(lambda batch: wal.append(
            {"k": "b", "scope": batch.scope, "entries": batch.entries,
             "gap": batch.gap, "op": batch.op}))
        self.live._durability_meta = lambda op: wal.append({"k": "m", "op": op})
        self.wal = wal
        # Four rows a page: statements cross, empty and drop pages all the time.
        self.live.create_table("t", SCHEMA, page_capacity=4)
        self.data_dir = tempfile.mkdtemp(prefix="relational-writes-")
        self._open()

    def _open(self) -> None:
        # Checkpoints only where a rule asks for one.
        self.system = PolystorePlusPlus(SystemConfig(
            data_dir=self.data_dir, durability_snapshot_every=10_000))
        self.durable = self.system.register_engine(RelationalEngine("durable"))

    def teardown(self) -> None:
        self.system.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def _logged(self, seq_before: int) -> list[tuple]:
        batches, complete = self.live.changelog.read_since(seq_before, SCOPE)
        assert complete and len(batches) <= 1
        return list(batches[0].entries) if batches else []

    @rule(rows=st.lists(_rows, min_size=1, max_size=9))
    def insert(self, rows):
        head = self.live.changelog.latest_seq
        stored = self.live._tables["t"]
        before, sizes = stored.heap._pages[:], _layout(self.live)[0]
        assert self.live.insert("t", rows) == len(rows)
        self.model.extend(rows)
        assert self._logged(head) == [(row, 1) for row in rows]
        # Only the old last page takes rows; the rest fill whole pages, and
        # only the new last page may be partial.
        pages = stored.heap._pages
        assert all(new is old for new, old in zip(pages[:len(before)], before, strict=True))
        assert _layout(self.live)[0] == _landed(sizes, len(rows), 4)
        # The new rows' ids resolve through the heap and every index.
        rids = [(page, slot) for page, held in enumerate(pages)
                for slot in range(len(held.rows))][-len(rows):]
        assert stored.heap.fetch_many(rids) == rows
        for indexes in (stored.hash_indexes, stored.sorted_indexes):
            for column, index in indexes.items():
                position = SCHEMA.index_of(column)
                for rid, row in zip(rids, rows):
                    assert rid in index.lookup(row[position]), (column, rid)

    @rule(predicate=_predicates, updates=_updates)
    def update(self, predicate, updates):
        expression, test = predicate
        head = self.live.changelog.latest_seq
        pairs = []
        for slot, row in enumerate(self.model):
            if test(row):
                new = tuple(updates.get(name, value)
                            for name, value in zip(SCHEMA.names, row))
                pairs.append((row, new))
                self.model[slot] = new
        assert self.live.update_rows("t", expression, updates) == pairs
        assert self._logged(head) == [
            entry for old, new in pairs for entry in ((old, -1), (new, 1))]

    @rule(predicate=_predicates)
    def delete(self, predicate):
        expression, test = predicate
        head = self.live.changelog.latest_seq
        deleted = [row for row in self.model if test(row)]
        self.model = [row for row in self.model if not test(row)]
        assert self.live.delete_rows("t", expression) == deleted
        assert self._logged(head) == [(row, -1) for row in deleted]

    @rule(column=st.sampled_from(SCHEMA.names),
          kind=st.sampled_from(["hash", "sorted"]))
    def create_index(self, column, kind):
        self.live.create_index("t", column, kind=kind)
        self.indexes.add((column, kind))

    @rule()
    def checkpoint(self):
        self.system.durability.checkpoint()

    @rule(clean=st.booleans())
    def reopen(self, clean):
        """Close (a last checkpoint) or kill (the WAL tail stays), then come
        back from the directory alone."""
        if not clean:
            self.system.durability.liveness.kill()
        self.system.close()
        self._open()
        report = self.system.durability.recovery_report()["durable"]
        assert report["restored"] and (not clean or not report["replayed_batches"])

    @invariant()
    def every_engine_agrees_with_the_model(self):
        while self.wal:
            record = self.wal.pop(0)
            replay_record(self.replayed, record)
            replay_record(self.durable, record)
        restored = RelationalEngine("restored")
        restore_state(restored, dump_state(self.live))
        for engine in (self.live, self.replayed, restored, self.durable):
            assert engine.scan("t").rows == self.model
            assert engine.table_statistics("t")["rows"] == len(self.model)
            for column, kind in self.indexes:
                position = SCHEMA.index_of(column)
                keys = sorted({row[position] for row in self.model} | {1, 2.0})
                for key in keys:
                    equal = [row for row in self.model if row[position] == key]
                    if kind == "sorted":
                        found = engine.range_lookup("t", column, key, key)
                    else:
                        found = engine.index_lookup("t", column, key)
                    assert found.rows == equal, (engine.name, column, kind, key)
                if kind == "sorted":
                    low, high = keys[0], keys[len(keys) // 2]
                    between = sorted(
                        (row for row in self.model
                         if low <= row[position] <= high),
                        key=lambda row: row[position])
                    assert engine.range_lookup("t", column, low, high).rows \
                        == between, (engine.name, column)
        assert self.replayed.data_version_for(SCOPE) == \
            self.live.data_version_for(SCOPE)
        live, durable = self.live, self.durable
        assert _layout(durable) == _layout(live) == _layout(restored)
        assert (durable.data_version, durable.data_version_for(SCOPE),
                durable.changelog.latest_seq) == (
            live.data_version, live.data_version_for(SCOPE),
            live.changelog.latest_seq)


RelationalWrites.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None)
TestRelationalWrites = RelationalWrites.TestCase


def _batched_engine(capacity: int, head: list[tuple], batches: list[list[tuple]]):
    """An engine with hash and sorted indexes, ``head`` loaded, then each of
    ``batches`` inserted; and the changelog entries the batches logged."""
    engine = RelationalEngine("batched")
    engine.changelog.register(engine)
    engine.create_table("t", SCHEMA, page_capacity=capacity)
    engine.create_index("t", "grp", kind="hash")
    engine.create_index("t", "id", kind="sorted")
    engine.insert("t", head)
    seq = engine.changelog.latest_seq
    for batch in batches:
        engine.insert("t", batch)
    batches_logged, complete = engine.changelog.read_since(seq, SCOPE)
    assert complete
    return engine, [entry for batch in batches_logged for entry in batch.entries]


def _state(engine, rows: list[tuple]) -> tuple:
    """Pages, row ids and index answers of ``engine``'s ``t`` over ``rows``."""
    stored = engine._tables["t"]
    return ([page.rows for page in stored.heap._pages], stored.heap.num_rows,
            {(column, row[SCHEMA.index_of(column)]):
             index.lookup(row[SCHEMA.index_of(column)])
             for indexes in (stored.hash_indexes, stored.sorted_indexes)
             for column, index in indexes.items() for row in rows})


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 8), head=st.lists(_rows, max_size=10),
       rows=st.lists(_rows, max_size=20), data=st.data())
def test_one_batch_its_splits_and_single_rows_land_alike(capacity, head, rows, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=5)))
    splits = [rows[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(rows)])]
    whole, logged = _batched_engine(capacity, head, [rows])
    expected = _state(whole, head + rows)
    assert expected[0] == [(head + rows)[at:at + capacity]
                           for at in range(0, len(head) + len(rows), capacity)]
    assert logged == [(row, 1) for row in rows]
    for batches in (splits, [[row] for row in rows]):
        engine, entries = _batched_engine(capacity, head, batches)
        assert _state(engine, head + rows) == expected
        assert entries == logged


@pytest.mark.parametrize("bad_at", [0, 1, 5, 8])
def test_a_validated_insert_lands_the_rows_before_its_first_bad_one(bad_at):
    engine = RelationalEngine("db")
    engine.changelog.register(engine)
    engine.create_table("t", SCHEMA, page_capacity=4)
    engine.insert("t", [(0, 0, 0.0)] * 3)
    rows = [(n, n % 4, 1.5) for n in range(10)]
    rows[bad_at] = ("bad", 0, 1.5)
    seq = engine.changelog.latest_seq
    notified: list = []
    engine.changelog.subscribe(notified.append)
    with pytest.raises(SchemaError):
        engine.insert("t", rows, validate=True)
    assert engine.scan("t").rows == [(0, 0, 0.0)] * 3 + rows[:bad_at]
    assert engine.table_statistics("t")["rows"] == 3 + bad_at
    assert [(batch.gap, batch.op) for batch in notified] == (
        [(True, ("insert_torn", {"table": "t", "rows": rows[:bad_at]}))] if bad_at else [])
    assert engine.changelog.read_since(seq, SCOPE)[1] == (not bad_at)


def test_a_failure_while_landing_names_the_rows_that_landed(monkeypatch):
    # The second page a batch opens fails to build: the old last page's
    # top-up and the first new page landed, and the gap names exactly those.
    engine = RelationalEngine("db")
    engine.changelog.register(engine)
    engine.create_table("t", SCHEMA, page_capacity=4)
    engine.insert("t", [(0, 0, 0.0)])
    rows = [(n, 0, 1.5) for n in range(1, 12)]
    built = []

    def page(capacity, held):
        if built:
            raise KeyboardInterrupt
        built.append(held)
        return Page(capacity, held)

    monkeypatch.setattr(storage, "Page", page)
    notified: list = []
    engine.changelog.subscribe(notified.append)
    with pytest.raises(KeyboardInterrupt):
        engine.insert("t", rows)
    monkeypatch.undo()
    assert engine.scan("t").rows == [(0, 0, 0.0)] + rows[:7]
    assert [(batch.gap, batch.op) for batch in notified] == [
        (True, ("insert_torn", {"table": "t", "rows": rows[:7]}))]


def _indexes_answer_as_the_heap(engine, column: str) -> None:
    """Every value a scan finds in ``column``: each index on it finds the
    same rows."""
    scanned = engine.scan("t").rows
    position = engine.table_schema("t").index_of(column)
    for value in {repr(row[position]): row[position] for row in scanned}.values():
        expected = [row for row in scanned if row[position] == value]
        assert engine.index_lookup("t", column, value).rows == expected


@pytest.mark.parametrize("kinds", [("hash",), ("hash", "sorted")])
def test_a_key_no_index_can_take_lands_nothing_after_it(kinds):
    # An unhashable value in a hash-indexed column: the heap must not hold
    # a row the index never took, and the gap names what did land.
    schema = make_schema(("id", DataType.INT), ("tag", DataType.STRING))
    engine = RelationalEngine("db")
    engine.changelog.register(engine)
    engine.create_table("t", schema, page_capacity=2)
    engine.create_index("t", "tag", kind=kinds[0])
    if len(kinds) > 1:
        engine.create_index("t", "id", kind=kinds[1])
    notified: list = []
    engine.changelog.subscribe(notified.append)
    with pytest.raises(TypeError):
        engine.insert("t", [(1, "a"), (2, ["x"]), (3, "a")])
    assert engine.scan("t").rows == [(1, "a")]
    assert engine.index_lookup("t", "tag", "a").rows == [(1, "a")]
    assert [(batch.gap, batch.op) for batch in notified] == [
        (True, ("insert_torn", {"table": "t", "rows": [(1, "a")]}))]
    engine.insert("t", [(4, "b"), (5, "a")])
    for column in ("tag", "id")[:len(kinds)]:
        _indexes_answer_as_the_heap(engine, column)


def test_indexes_hold_what_landed_when_landing_fails(monkeypatch):
    # The second page a batch opens fails to build: the indexes hold the
    # rows the heap took, no more and no fewer.
    engine = RelationalEngine("db")
    engine.create_table("t", SCHEMA, page_capacity=4)
    engine.create_index("t", "grp")
    engine.create_index("t", "id", kind="sorted")
    engine.insert("t", [(0, 0, 0.0)])
    built = []

    def page(capacity, held):
        if built:
            raise KeyboardInterrupt
        built.append(held)
        return Page(capacity, held)

    monkeypatch.setattr(storage, "Page", page)
    with pytest.raises(KeyboardInterrupt):
        engine.insert("t", [(n, n % 2, 1.5) for n in range(1, 12)])
    monkeypatch.undo()
    assert len(engine.scan("t")) == 8
    _indexes_answer_as_the_heap(engine, "grp")
    _indexes_answer_as_the_heap(engine, "id")


def test_a_key_a_sorted_index_cannot_order_lands_nothing_after_it():
    # An int in a sorted-indexed string column: refused at the insert, it
    # leaves the index answering every later lookup and range.
    schema = make_schema(("id", DataType.INT), ("tag", DataType.STRING))
    engine = RelationalEngine("db")
    engine.create_table("t", schema, page_capacity=2)
    engine.create_index("t", "tag", kind="sorted")
    engine.insert("t", [(1, "a")])
    with pytest.raises(TypeError):
        engine.insert("t", [(2, 3)])
    assert engine.scan("t").rows == [(1, "a")]
    for _ in range(3):
        _indexes_answer_as_the_heap(engine, "tag")
    assert engine.range_lookup("t", "tag", "a", "z").rows == engine.scan("t").rows
    engine.insert("t", [(4, "b"), (5, "a")])
    _indexes_answer_as_the_heap(engine, "tag")
