"""A fused scan-aggregate folds a sealed page with numpy where it can read the
page's columns exactly (``Page.column``), and with the generated row kernel
where it cannot; either way it answers as the row kernel alone does."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import DataflowProgram, col, dataset
from repro.compiler import CompilerOptions
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, make_schema
from repro.stores import RelationalEngine
from repro.stores.relational import engine as engine_module
from repro.stores.relational.operators import RUN, AggregateSpec, VectorFold, aggregate_kernel
from repro.stores.relational.partition import partition_of
from repro.stores.relational.storage import Page

ROWS = 50_000
PAGE = 256
FACTS = make_schema(("id", DataType.INT), ("grp", DataType.INT),
                    ("amount", DataType.FLOAT), ("flag", DataType.INT))
OVER = col("amount") > 100.0
COUNT_SUM = (AggregateSpec("count", None, "n"), AggregateSpec("sum", "amount", "total"))
#: A row in the fourth page, which is sealed.
ODD = 1_000


@pytest.fixture(scope="module")
def facts() -> list[tuple]:
    """``scan_agg``'s table: integer-valued amounts, 97 groups."""
    rng = random.Random(7)
    return [(i, rng.randrange(97), float(rng.randrange(1000)), 0) for i in range(ROWS)]


@pytest.fixture
def row_folds(monkeypatch) -> list[list[list[tuple]]]:
    """The chunks each call of a fused scan's row kernel is given."""
    calls: list[list[list[tuple]]] = []

    def spied(*args):
        fold, schema = aggregate_kernel(*args)

        def recording(chunks, groups):
            calls.append(list(chunks))
            return fold(chunks, groups)
        return recording, schema

    monkeypatch.setattr(engine_module, "aggregate_kernel", spied)
    return calls


def _outcome(engine: RelationalEngine, partial, predicate=OVER):
    try:
        table = engine.scan("facts", None, predicate, partial=partial)
    except Exception as exc:
        return type(exc)
    return repr(table.rows), table.schema


def _row_kernel_alone(rows: list[tuple], partial, predicate=OVER):
    """What the fused scan answered before sealed pages carried columns."""
    fold, schema = aggregate_kernel(FACTS, *partial, predicate)
    try:
        return repr(fold([rows], {})), schema
    except Exception as exc:
        return type(exc)


def _load(rows: list[tuple]) -> RelationalEngine:
    engine = RelationalEngine("db")
    engine.create_table("facts", FACTS, page_capacity=PAGE)
    engine.insert("facts", rows)  # unvalidated: a str may sit in a FLOAT column
    return engine


def test_only_the_open_last_page_reaches_the_row_kernel(facts, row_folds):
    partial = (("grp",), COUNT_SUM)
    engine = _load(facts)
    assert _outcome(engine, partial) == _row_kernel_alone(facts, partial)
    assert row_folds == [[facts[ROWS - ROWS % PAGE:]]]


def _set(column: int, value):
    def change(rows: list[tuple]) -> None:
        row = list(rows[ODD])
        row[column] = value
        rows[ODD] = tuple(row)
    return change


def _past_2_53(rows: list[tuple]) -> None:
    # The rows over 100 of any one page sum past 2**53, where float64 stops
    # holding every int.
    step = 2 ** 53 // (PAGE // 2)
    rows[:] = [(i, g, amount, step + i % 3) for i, g, amount, _ in rows]


#: name -> (change to the rows, partial aggregate, which pages the row kernel folds)
ODD_CASES = {
    "NaN in the summed column": (_set(2, float("nan")), (("grp",), COUNT_SUM), "odd"),
    "None in the group column": (_set(1, None), (("grp",), COUNT_SUM), "odd"),
    "str in a FLOAT column": (_set(2, "1e3"), (("grp",), COUNT_SUM), "odd"),
    "an int sum past 2**53": (_past_2_53, (("grp",), (
        AggregateSpec("sum", "flag", "s"),)), "all"),
    "min and max": (lambda rows: None, (("grp",), (
        AggregateSpec("min", "amount", "lo"), AggregateSpec("max", "amount", "hi"))),
        "all"),
}


@pytest.mark.parametrize("case", sorted(ODD_CASES))
def test_what_the_vector_fold_cannot_read_exactly_takes_the_row_kernel(
        case, facts, row_folds):
    change, partial, folded = ODD_CASES[case]
    rows = list(facts)
    change(rows)
    engine = _load(rows)
    outcome = _outcome(engine, partial)
    assert outcome == _row_kernel_alone(rows, partial)
    if case == "str in a FLOAT column":
        assert outcome is TypeError
    chunks = [chunk for call in row_folds for chunk in call]
    if folded == "all":
        assert chunks == [rows[at:at + PAGE] for at in range(0, ROWS, PAGE)]
    else:
        start = ODD - ODD % PAGE
        assert rows[start:start + PAGE] in chunks
        assert len(chunks) < 3  # the odd page and the open last page


def test_a_vector_fold_continues_the_row_kernels_running_sums(facts, row_folds):
    # Odd pages between clean runs: every run seeds its sums with the totals
    # the pages before it left, so the floats stay one left fold.
    rng = random.Random(11)
    rows = [(i, g, amount + rng.random(), flag) for i, g, amount, flag in facts]
    for at in range(3, 180, 29):
        rows[at * PAGE] = (at * PAGE, rows[at * PAGE][1], float("nan"), 0)
    partial = (("grp",), COUNT_SUM)
    assert _outcome(_load(rows), partial, None) == _row_kernel_alone(rows, partial, None)
    assert len(row_folds) == 8


def test_a_sum_going_on_from_a_total_of_another_type_takes_the_row_kernel(row_folds):
    # 1e16 + 1 rounds back to 1e16: the second page's ints must be added to
    # the float total the first page left one at a time, not as one int.
    rows = ([(i, 0, 0.0 if i else 1e16, 0) for i in range(PAGE)]
            + [(i, 0, 1, 0) for i in range(PAGE, 2 * PAGE)] + [(2 * PAGE, 0, 0.0, 0)])
    partial = (("grp",), COUNT_SUM)
    assert _outcome(_load(rows), partial, None) == _row_kernel_alone(rows, partial, None)
    assert [chunk for call in row_folds for chunk in call] == [rows[PAGE:2 * PAGE],
                                                               rows[2 * PAGE:]]


def test_a_group_first_seen_deep_in_a_run_keeps_its_place(facts, row_folds):
    # Groups 1000 and 1001 first show up thousands of rows into their runs,
    # past the prefix the first-seen order is read from first.
    rows = list(facts)
    for at, group in ((3_800, 1_000), (20_000, 1_001), (20_001, 1_000)):
        rows[at] = (at, group, 500.0, 0)
    partial = (("grp",), COUNT_SUM)
    outcome = _outcome(_load(rows), partial)
    assert outcome == _row_kernel_alone(rows, partial)
    assert len(row_folds) == 1


def test_a_count_of_every_row_reads_no_column(facts, row_folds):
    partial = ((), (AggregateSpec("count", None, "n"),))
    outcome = _outcome(_load(facts), partial, None)
    assert outcome == _row_kernel_alone(facts, partial, None)
    assert row_folds == [[facts[ROWS - ROWS % PAGE:]]]


# -- run boundaries ----------------------------------------------------------------------

#: Rows a page holds in the run-boundary layouts.
SMALL_PAGE = 64


def _stores(shards: int, place) -> list[tuple[RelationalEngine, list[tuple]]]:
    """The engine and its rows in heap order: ``2 * RUN + 2`` sealed pages of
    ``SMALL_PAGE`` rows and a half-full open one, laid out by ``place``; the
    table is partitioned on ``id`` into ``shards`` partitions unless that is
    0, its ids in partition order, so the insert keeps the rows' order."""
    count = (2 * RUN + 2) * SMALL_PAGE + SMALL_PAGE // 2
    rng = random.Random(13)
    rows = [(i, rng.randrange(97), float(rng.randrange(1000)), 0)
            for i in sorted(range(count), key=lambda i: partition_of(i, shards or 1))]
    place(rows)
    engine = RelationalEngine("db", partitions=shards or 1)
    engine.create_table("facts", FACTS, page_capacity=SMALL_PAGE)
    engine.insert("facts", rows)
    assert list(engine._tables["facts"].heap.scan()) == rows
    return [(engine, rows)]


def _page(rows: list[tuple], number: int) -> list[tuple]:
    return rows[number * SMALL_PAGE:(number + 1) * SMALL_PAGE]


def _at_page(number: int, column: int, value, offset: int = 5):
    """Set ``column`` of the row ``offset`` rows into page ``number``."""
    def change(rows: list[tuple]) -> None:
        at = number * SMALL_PAGE + offset
        row = list(rows[at])
        row[column] = value
        rows[at] = tuple(row)
    return change


def _all(*changes):
    def change(rows: list[tuple]) -> None:
        for one in changes:
            one(rows)
    return change


#: The last page of the first run, the first and the last page of the second.
EDGES = (RUN - 1, RUN, 2 * RUN - 1)
DECLINED = {"a NaN amount": (2, float("nan")), "a None key": (1, None)}


@pytest.mark.parametrize("shards", [0, 4])
@pytest.mark.parametrize("odd", sorted(DECLINED))
def test_declined_pages_at_run_edges_take_the_row_kernel(odd, shards, row_folds):
    column, value = DECLINED[odd]
    partial = (("grp",), COUNT_SUM)
    for engine, rows in _stores(shards, _all(*(_at_page(n, column, value)
                                               for n in EDGES))):
        row_folds.clear()
        assert _outcome(engine, partial) == _row_kernel_alone(rows, partial)
        chunks = [chunk for call in row_folds for chunk in call]
        assert chunks == [_page(rows, n) for n in EDGES] + [rows[(2 * RUN + 2) * SMALL_PAGE:]]


@pytest.mark.parametrize("shards", [0, 4])
def test_a_group_first_seen_in_the_second_run_keeps_its_place(shards, row_folds):
    # Group 1001 shows up before group 1000, both in page 65 only.
    partial = (("grp",), COUNT_SUM)
    first_seen = _all(*(_at_page(RUN + 1, column, value, offset)
                        for offset, key in ((5, 1_001), (9, 1_000))
                        for column, value in ((1, key), (2, 500.0))))
    for engine, rows in _stores(shards, first_seen):
        row_folds.clear()
        outcome = _outcome(engine, partial)
        assert outcome == _row_kernel_alone(rows, partial)
        assert outcome[0].endswith("(1001, 1, 500.0), (1000, 1, 500.0)]")
        assert row_folds == [[rows[(2 * RUN + 2) * SMALL_PAGE:]]]


def _fractional(rows: list[tuple]) -> None:
    """Fractions under 1 after a first 1e16, whose float ulp is 2: added to
    the total one at a time, each rounds away; added as a run's sum, not."""
    rng = random.Random(17)
    rows[:] = [(i, g % 3, rng.random(), 0) for i, g, _, _ in rows]
    rows[0] = (rows[0][0], 0, 1e16, 0)


@pytest.mark.parametrize("shards", [0, 4])
def test_a_float_sum_carries_across_a_run_boundary(shards, row_folds):
    partial = (("grp",), COUNT_SUM)
    for engine, rows in _stores(shards, _fractional):
        row_folds.clear()
        sealed = rows[:(2 * RUN + 2) * SMALL_PAGE]
        # The test can tell: summing each run apart, then adding the runs'
        # sums, lands on other bits than the left fold does.
        left = per_run = 0.0
        for at in range(0, len(sealed), RUN * SMALL_PAGE):
            run = [amount for _, g, amount, _ in sealed[at:at + RUN * SMALL_PAGE] if g == 0]
            per_run += sum(run)
            for amount in run:
                left += amount
        assert per_run != left
        assert _outcome(engine, partial, None) == _row_kernel_alone(rows, partial, None)
        assert row_folds == [[rows[len(sealed):]]]


def test_a_fused_read_fetches_each_sealed_pages_columns_once(monkeypatch):
    # The kinds check and the fold read the one list a run gathered: one
    # ``Page.column`` call per sealed page and column read, none on the open
    # last page.
    [(engine, rows)] = _stores(0, lambda rows: None)
    pages = engine._tables["facts"].heap._pages
    calls: Counter = Counter()
    column = Page.column

    def counted(page: Page, position: int):
        calls[id(page), position] += 1
        return column(page, position)

    monkeypatch.setattr(Page, "column", counted)
    partial = (("grp",), COUNT_SUM)
    assert _outcome(engine, partial) == _row_kernel_alone(rows, partial)
    assert len(pages) == 2 * RUN + 3
    assert calls == Counter({(id(page), position): 1
                             for page in pages[:-1] for position in (1, 2)})


def test_a_fused_avg_folds_its_sealed_pages_with_numpy(facts, monkeypatch):
    # An ``avg`` fused into its scan keeps the vector fold: every sealed page
    # goes through ``VectorFold.fold``, in more than one run, and the answer
    # is the unfused plan's, bit for bit.
    folded: list[int] = []
    fold = VectorFold.fold

    def counted(self, run, *args, **kwargs):
        folded.append(len(run))
        return fold(self, run, *args, **kwargs)

    monkeypatch.setattr(VectorFold, "fold", counted)
    system = build_cpu_polystore([_load(facts)])
    program = DataflowProgram("mean")
    program.output("out", dataset("db").table("facts").filter(OVER).aggregate(
        ["grp"], n=("count", None), mean=("avg", "amount")))
    fused = system.execute(program).output("out")
    assert len(folded) > 1 and sum(folded) == ROWS // PAGE
    folded.clear()
    unfused = system.execute(program, options=CompilerOptions(fusion=False)).output("out")
    assert folded == []
    assert (repr(fused.rows), fused.schema) == (repr(unfused.rows), unfused.schema)
