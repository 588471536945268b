"""Whole pages in a changelog window fold exactly as their rows would.

A delete that drops a sealed page whole logs one page entry, and a refresh
keeps it whole (its own key) only where that changes nothing, so the
aggregate can fold it from its columns.  The oracle here is the window
expanded to row entries: summed into one dict in order, as a pull always did,
and folded by the weighted row loop.  The two routes must give the same
output deltas and accumulators, bit for bit (``repr``), or raise the same
exception type — over windows where row entries cancel page rows, pages
share records, float sums carry, the source reads ``columns``, and the
aggregate is one the column fold declines.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import col
from repro.datamodel import DataType, Table, make_schema
from repro.stores.changelog import ChangeLog, PageEntry, PageParts, table_scope
from repro.stores.relational import operators
from repro.stores.relational.expressions import and_
from repro.stores.relational.operators import AggregateSpec, tuple_reader
from repro.stores.relational.storage import Page
from repro.views.delta_ops import DeltaAggregate
from repro.views.incremental import ChangelogSource
from repro.views.zset import ZSet

SCHEMA = make_schema(("id", DataType.INT), ("g", DataType.STRING),
                     ("v", DataType.FLOAT))
COLUMNS = (None, ["g", "v", "id"], ["v", "g"], ["id", "v"])
#: Values that make float sums carry and a -0.0; with an int among floats, a NULL.
FLOATS = (0.1, 0.2, 0.7, 1e16, -1e16, 1.0, 2.5, -0.0)
VALUES = FLOATS + (3, None)
FILTERS = (None, col("v") > 0.15, col("id") < 6, and_(col("id") >= 2, col("v") <= 1.0))
AGGREGATES = (("count", None), ("count", "v"), ("sum", "v"), ("sum", "id"),
              ("avg", "v"), ("min", "v"), ("max", "id"))
SETTINGS = settings(max_examples=200, deadline=None)


class _Engine:
    """What a ``ChangelogSource`` reads of an engine: one table's log."""

    def __init__(self) -> None:
        self.changelog = ChangeLog()

    def table_schema(self, table):
        return SCHEMA

    def snapshot_scan(self, table, columns=None):
        schema = SCHEMA if columns is None else SCHEMA.project(columns)
        return Table(schema, []), self.changelog.latest_seq


class _Catalog:
    def __init__(self, engine) -> None:
        self._engine = engine

    def engine(self, name):
        return self._engine


_rows = st.sampled_from([FLOATS, VALUES]).flatmap(lambda values: st.lists(
    st.tuples(st.sampled_from("ab"), st.sampled_from(values)), min_size=1, max_size=5))
#: Mostly what the column fold takes; sometimes one it declines (expanded).
_specs = st.one_of(*[st.lists(st.sampled_from(choices), min_size=1, max_size=3, unique=True)
                     for choices in (AGGREGATES[:4], AGGREGATES[:4], AGGREGATES)])


@st.composite
def _windows(draw):
    """Pages (some repeated, some holding a row twice or a NaN id), and a window of
    batches mixing their page entries with row entries of either sign."""
    pages, start = [], 0
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["fresh", "fresh", "repeat", "overlap", "twice", "nan"]))
        if kind == "repeat" and pages:
            pages.append(Page(8, list(draw(st.sampled_from(pages)).rows)))
            continue
        if kind == "overlap":
            start -= 2
        cells = draw(_rows)
        rows = [(start + i, g, v) for i, (g, v) in enumerate(cells)]
        if kind == "twice":  # a page holding one row twice
            rows.insert(draw(st.integers(1, len(rows))), rows[0])
        elif kind == "nan":
            rows.append((float("nan"), "a", 1.0))
        pages.append(Page(8, rows))
        start += len(cells)
    batches = []
    for page in pages:
        parts = [PageEntry(page, draw(st.sampled_from([-1, -1, 1, 2])))]
        for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
            if draw(st.booleans()):  # cancel (or repeat) a page row
                record = draw(st.sampled_from(page.rows))
            else:
                record = (draw(st.integers(-2, start + 2)), draw(st.sampled_from("ab")),
                          draw(st.sampled_from(VALUES)))
            parts.insert(draw(st.integers(0, len(parts))),
                         (record, draw(st.sampled_from([-1, 1]))))
        batches.append(parts)
    return pages, batches


def _expanded(batches, pick):
    """The window as a pull of row entries always summed it."""
    weights = {}
    for parts in batches:
        for part in parts:
            pairs = ([(row, part.weight) for row in part.page.rows]
                     if type(part) is PageEntry else [part])
            for record, weight in pairs:
                record = pick(record)
                total = weights.get(record, 0) + weight
                if total:
                    weights[record] = total
                elif record in weights:
                    del weights[record]
    return weights


def _outcome(aggregate, seed, delta):
    try:
        aggregate.apply(seed)
        out = aggregate.apply(delta)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc).__name__
    return repr(list(out.items())), repr(aggregate._groups)


@SETTINGS
@given(window=_windows(), columns=st.sampled_from(COLUMNS),
       predicate=st.sampled_from(FILTERS), grouped=st.booleans(),
       specs=_specs)
def test_a_window_folds_as_its_expanded_rows(window, columns, predicate, grouped, specs):
    pages, batches = window
    engine = _Engine()
    source = ChangelogSource("e", "t", columns)
    source.resync(_Catalog(engine))
    for parts in batches:
        engine.changelog.append(table_scope("t"), PageParts(parts))
    delta = source.pull(_Catalog(engine))
    schema = delta.schema
    pick = tuple_reader(SCHEMA, columns) if columns else (lambda row: row)
    rows = ZSet(schema, _expanded(batches, pick))
    assert delta.total_weight == rows.total_weight

    names = set(schema.names)
    below = [("filter", {"predicate": predicate})] \
        if predicate is not None and predicate.referenced_columns() <= names else []
    aggregates = tuple(AggregateSpec(function, column, f"a{i}")
                       for i, (function, column) in enumerate(specs)
                       if column is None or column in names)
    stages = below + [("aggregate", {"group_by": ["g"] if grouped and "g" in names else [],
                                     "aggregates": aggregates or (AggregateSpec("count", None, "n"),)})]
    # Seeded with every page row (and each cancelling row), so a delete usually
    # finds what it removes; one it does not is a divergence both must report.
    seed = [pick(row) for page in pages for row in page.rows]
    seed += [pick(part[0]) for parts in batches for part in parts if type(part) is not PageEntry]
    seeds = [ZSet.from_table(Table(schema, seed)) for _ in range(2)]
    assert _outcome(DeltaAggregate(stages), seeds[0], delta) == \
        _outcome(DeltaAggregate(stages), seeds[1], rows)
    assert repr(list(delta.items())) == repr(list(rows.items()))


def test_disjoint_pages_stay_whole_and_fold_as_columns(monkeypatch):
    folds = []
    fold = operators.VectorFold.fold
    monkeypatch.setattr(operators.VectorFold, "fold", lambda self, run, *args: (
        folds.append((len(run), args[2:])), fold(self, run, *args))[1])
    pages = [Page(4, [(4 * p + i, "ab"[i % 2], 0.1 * i) for i in range(4)]) for p in range(3)]
    engine = _Engine()
    source = ChangelogSource("e", "t", None)
    source.resync(_Catalog(engine))
    engine.changelog.append(table_scope("t"), PageParts(
        [((100, "a", 5.0), 1)] + [PageEntry(page, -1) for page in pages]
        + [((pages[1].rows[0]), 1)]))  # cancels a row of page 1
    delta = source.pull(_Catalog(engine))
    kept = [key.page for key, _ in delta.parts() if type(key) is PageEntry]
    assert kept == [pages[0], pages[2]]
    assert delta.total_weight == 1 + 12 + 1 - 2  # page 1's first row annihilated
    aggregate = DeltaAggregate([("aggregate", {"group_by": ["g"], "aggregates": (
        AggregateSpec("sum", "v", "total"), AggregateSpec("count", None, "n"))})])
    aggregate.apply(ZSet.from_table(Table(SCHEMA, [row for page in pages for row in page.rows])))
    aggregate.apply(delta)
    assert [(runs, weighted[0]) for runs, weighted in folds] == [(1, -1), (1, -1)]
