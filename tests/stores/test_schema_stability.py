"""Result schemas come from the plan, never from the surviving values.

The ROADMAP example: a predicated scan over ``(pid:int, score:float,
name:string)`` used to come back typed ``score:float``, ``score:int`` or
``score:string`` depending on whether the matching rows carried floats,
int-valued numbers or only ``None`` — and an empty result took a fourth
path.  Every relational operator, on the single-engine route and on a
4-partition table, must return the schema derived from its inputs'
schemas and its parameters, whichever rows match.
"""

from __future__ import annotations

import pytest

from repro import DataflowProgram, col
from repro.compiler.pipeline import CompilerOptions
from repro.core import SystemConfig, build_cpu_polystore
from repro.datamodel import Column, DataType, Schema, Table, make_schema
from repro.ir.nodes import Operator
from repro.middleware.adapters import TimeseriesAdapter
from repro.stores import RelationalEngine, TimeseriesEngine

PEOPLE = make_schema(("pid", DataType.INT), ("score", DataType.FLOAT),
                     ("name", DataType.STRING))
TAGS = make_schema(("pid", DataType.INT), ("tag", DataType.STRING))

#: One row per way a FLOAT cell can look: a float, an int-valued number, NULL.
PEOPLE_ROWS = [(1, 1.5, "ann"), (2, 2, "bob"), (3, None, "cat"), (4, 4.25, None)]
TAG_ROWS = [(1, "a"), (2, "b"), (3, "c"), (4, None)]

#: Which rows survive the scan's predicate -> what the old inference saw.
SELECTIONS = {
    "float": col("pid").eq(1),
    "int-valued": col("pid").eq(2),
    "null": col("pid").eq(3),
    "none-match": col("pid").eq(99),
}

AGGREGATED = Schema([
    Column("name", DataType.STRING), Column("n", DataType.INT),
    Column("total", DataType.FLOAT), Column("lo", DataType.FLOAT),
    Column("hi", DataType.STRING), Column("mean", DataType.FLOAT),
])
JOINED = Schema(list(PEOPLE) + [Column("tag", DataType.STRING)])

#: operator name -> (dataflow builder over the filtered scan, plan-derived schema)
OPERATORS = {
    "filter": (lambda people, tags: people, PEOPLE),
    "project": (lambda people, tags: people.project("score", "name"),
                PEOPLE.project(["score", "name"])),
    "aggregate": (lambda people, tags: people.aggregate(
        ["name"], n=("count", None), total=("sum", "score"), lo=("min", "score"),
        hi=("max", "name"), mean=("avg", "score")), AGGREGATED),
    "sort": (lambda people, tags: people.sort("score"), PEOPLE),
    "limit": (lambda people, tags: people.limit(5), PEOPLE),
    "top_k": (lambda people, tags: people.top_k("score", 2), PEOPLE),
    "hash_join": (lambda people, tags: people.join(tags, on="pid"), JOINED),
    "left_join": (lambda people, tags: people.join(tags, on="pid", how="left"),
                  JOINED),
    "left_join_sorted_on_key": (
        lambda people, tags: people.join(tags, on="pid", how="left").sort("pid"), JOINED),
}


def _system(sharded: bool):
    if sharded:
        system = build_cpu_polystore([])
        engine = system.register_sharded_engine("db", RelationalEngine, 4)
    else:
        engine = RelationalEngine("db")
        system = build_cpu_polystore([engine])
    engine.load_table("people", Table(PEOPLE, PEOPLE_ROWS))
    engine.load_table("tags", Table(TAGS, TAG_ROWS))
    return system


@pytest.fixture(scope="module", params=[False, True], ids=["single", "4-shard"])
def system(request):
    return _system(request.param)


@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("operator", OPERATORS)
def test_result_schema_is_plan_derived(system, operator, selection):
    build, expected = OPERATORS[operator]
    source = system.dataset("db")
    people = source.table("people").filter(SELECTIONS[selection])
    program = DataflowProgram(f"{operator}-{selection}")
    program.output("out", build(people, source.table("tags")))
    result = system.execute(program).output("out")
    if operator == "hash_join":
        # The optimizer may commute an inner join's inputs (a plan decision):
        # same typed columns, either side first.
        assert sorted(result.schema, key=lambda c: c.name) == \
            sorted(expected, key=lambda c: c.name)
    else:
        assert result.schema == expected
    if selection == "none-match":
        assert len(result) == 0


@pytest.mark.parametrize("descending", [False, True], ids=["asc", "desc"])
@pytest.mark.parametrize("sharded", [False, True], ids=["single", "4-shard"])
def test_a_left_join_sorted_on_its_key_keeps_its_unmatched_rows(sharded, descending):
    """A ``sort`` on the join key reading a left join must not turn it inner."""
    if sharded:
        system = build_cpu_polystore([])
        engine = system.register_sharded_engine("db", RelationalEngine, 4)
    else:
        engine = RelationalEngine("db")
        system = build_cpu_polystore([engine])
    engine.load_table("l", Table(make_schema(("k", DataType.INT), ("a", DataType.INT)),
                                 [(1, 10), (2, 20), (3, 30)]))
    engine.load_table("r", Table(make_schema(("k", DataType.INT), ("b", DataType.INT)),
                                 [(1, 100)]))
    source = system.dataset("db")
    program = DataflowProgram("left-join-sorted")
    program.output("out", source.table("l").join(source.table("r"), on="k", how="left")
                   .sort("k", descending=descending))
    expected = [(1, 10, 100), (2, 20, None), (3, 30, None)]
    assert system.execute(program).output("out").rows == \
        (expected[::-1] if descending else expected)


def test_engine_top_k_keeps_table_schema():
    engine = RelationalEngine("db")
    engine.load_table("people", Table(PEOPLE, PEOPLE_ROWS))
    assert engine.top_k("people", "score", 2).schema == PEOPLE
    assert engine.top_k("people", "score", 0).schema == PEOPLE


@pytest.mark.parametrize("where", ["pid = 2", "pid = 3", "pid = 99"])
def test_sql_aggregate_types_follow_the_source_column(where):
    """``min(name)`` is a string whatever matches (it used to come back FLOAT
    when nothing did, and typed by the first surviving value otherwise)."""
    engine = RelationalEngine("db")
    engine.load_table("people", Table(PEOPLE, PEOPLE_ROWS))
    result = engine.execute_sql(
        "SELECT pid, min(name) AS first_name, sum(score) AS total, count(*) AS n "
        f"FROM people WHERE {where} GROUP BY pid")
    assert result.schema == make_schema(
        ("pid", DataType.INT), ("first_name", DataType.STRING),
        ("total", DataType.FLOAT), ("n", DataType.INT))


# -- ts_summarize: one declared schema, rows or no rows -------------------------------

SUMMARY = make_schema(
    ("pid", DataType.INT), ("vital_count", DataType.FLOAT),
    ("vital_mean", DataType.FLOAT), ("vital_min", DataType.FLOAT),
    ("vital_max", DataType.FLOAT), ("vital_last", DataType.FLOAT))

#: case -> (summary read over the ``monitors`` dataset, rows expected)
SUMMARIES = {
    "rows": (lambda ts: ts.timeseries("hr/"), 6),
    "no-series-under-prefix": (lambda ts: ts.timeseries("bp/"), 0),
    "predicate-matches-nothing":
        (lambda ts: ts.timeseries("hr/").filter(col("vital_mean") > 1e9), 0),
    "series-keys-name-a-missing-series":
        (lambda ts: ts.timeseries("hr/").filter(col("pid") == 999), 0),
}


@pytest.fixture(scope="module", params=["live", "recovered"])
def monitors(request, tmp_path_factory):
    """The series as written, or as a restart reads them back from disk."""
    config = None
    if request.param == "recovered":
        config = SystemConfig(data_dir=str(tmp_path_factory.mktemp("monitors")))
    engine = TimeseriesEngine("monitors")
    system = build_cpu_polystore([engine], config=config)
    for pid in range(6):
        engine.append_many(f"hr/{pid}", [(float(t), 60.0 + pid + t) for t in range(5)])
    for bed in ("a", "b"):
        engine.append_many(f"bed/{bed}", [(0.0, 1.0)])
    if config is not None:
        system.close()
        system = build_cpu_polystore([TimeseriesEngine("monitors")], config=config)
    yield system
    system.close()


@pytest.mark.parametrize("case", SUMMARIES)
def test_ts_summarize_schema_is_declared(monitors, case):
    build, rows = SUMMARIES[case]
    program = DataflowProgram(f"summary-{case}")
    program.output("out", build(monitors.dataset("monitors")))
    result = monitors.execute(program).output("out")
    assert result.schema == SUMMARY
    assert len(result) == rows


def test_ts_summarize_key_is_a_string_when_suffixes_are_not_numeric(monitors):
    program = DataflowProgram("summary-named")
    program.output("out", monitors.dataset("monitors").timeseries("bed/"))
    result = monitors.execute(program).output("out")
    assert result.schema == Schema([Column("pid", DataType.STRING), *list(SUMMARY)[1:]])
    assert sorted(result.column("pid")) == ["a", "b"]


def test_ts_summarize_key_is_one_type_when_only_some_suffixes_are_numeric():
    """``bed/a`` beside ``bed/7`` on one engine: a STRING column of strings, not
    an int among strings typed by whichever series sorts first."""
    engine = TimeseriesEngine("monitors")
    for bed in ("a", "7"):
        engine.append_many(f"bed/{bed}", [(0.0, 1.0)])
    result = TimeseriesAdapter(engine).execute(
        Operator("ts_summarize", {"series_prefix": "bed/"}, engine="monitors"), [])
    assert result.schema[0] == Column("pid", DataType.STRING)
    assert result.column("pid") == ["7", "a"]


# -- materialized views: every maintenance route types like the direct run ------------

#: ``score`` is FLOAT but only ever holds ints; ``visits`` only ever holds NULL.
VISITS = make_schema(("pid", DataType.INT), ("score", DataType.FLOAT),
                     ("name", DataType.STRING), ("visits", DataType.INT))
VISIT_ROWS = [(1, 1, "ann", None), (2, 2, "bob", None), (3, None, "cat", None)]
MORE_VISIT_ROWS = [(4, 4, "dan", None), (5, 7, None, None)]

#: view shape -> (dataflow builder over the ``visits`` table, incremental?)
VIEW_SHAPES = {
    "filter": (lambda t: t.filter(col("pid") > 0), True),
    "project": (lambda t: t.project("score", "visits"), True),
    "aggregate": (lambda t: t.aggregate(
        ["name"], total=("sum", "score"), lo=("min", "visits"),
        mean=("avg", "score"), n=("count", None)), True),
    "global-aggregate": (lambda t: t.aggregate(
        [], total=("sum", "score"), hi=("max", "visits")), True),
    "sort": (lambda t: t.sort("score"), True),
    "top_k": (lambda t: t.top_k("score", 2), True),
    "udf": (lambda t: t.apply(lambda table: table), False),
}


def _insert(view, engine):
    engine.insert("visits", MORE_VISIT_ROWS)


def _insert_and_refresh(view, engine):
    engine.insert("visits", MORE_VISIT_ROWS)
    view.refresh()


def _insert_and_rebuild(view, engine):
    engine.insert("visits", MORE_VISIT_ROWS)
    view.refresh(force_full=True)


def _empty(view, engine):
    engine.delete_rows("visits", col("pid") > 0)
    view.refresh()


#: route -> (maintenance policy, steps; the view is checked after each)
VIEW_ROUTES = {
    "eager": ("eager", [_insert]),
    "deferred": ("deferred", [_insert]),
    "manual-refresh": ("manual", [_insert_and_refresh]),
    "force-full": ("manual", [_insert_and_rebuild]),
    "empties-and-refills": ("manual", [_empty, _insert_and_refresh]),
}


@pytest.mark.parametrize("sharded", [False, True], ids=["single", "4-shard"])
@pytest.mark.parametrize("route", VIEW_ROUTES)
@pytest.mark.parametrize("shape", VIEW_SHAPES)
def test_view_schema_matches_the_direct_run(shape, route, sharded):
    if sharded:
        system = build_cpu_polystore([])
        engine = system.register_sharded_engine("db", RelationalEngine, 4)
    else:
        engine = RelationalEngine("db")
        system = build_cpu_polystore([engine])
    engine.load_table("visits", Table(VISITS, VISIT_ROWS))
    build, incremental = VIEW_SHAPES[shape]
    policy, steps = VIEW_ROUTES[route]
    expr = build(system.dataset("db").table("visits"))
    view = system.create_view("v", expr, policy=policy)
    assert view.incremental is incremental
    program = DataflowProgram(f"direct-{shape}")
    program.output("out", expr)
    for step in [lambda view, engine: None, *steps]:  # as created, then each step
        step(view, engine)
        direct = system.execute(
            program, options=CompilerOptions(use_views=False)).output("out")
        table = view.read()[0]
        assert table.schema == direct.schema
        assert sorted(table.rows, key=repr) == sorted(direct.rows, key=repr)
