"""One SQL lowering, two trees: the engine's own ``execute_sql`` and a
``dataset(db).sql(text)`` program must agree on rows and schema.

Both fold the parsed statement with ``lower_select`` — the engine into
physical operators, the EIDE into a dataflow tree the compiler then optimizes
and runs, on one table or on a partitioned one.  ``CANONICAL`` pins the dataflow
trees to the strings captured at commit aee6108, where a separate
``LogicalPlan`` tree sat between the parser and both of them.
"""

from __future__ import annotations

import pytest

from repro import DataflowProgram, dataset
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.stores import RelationalEngine

PEOPLE = make_schema(("pid", DataType.INT), ("name", DataType.STRING),
                     ("age", DataType.INT), ("score", DataType.FLOAT),
                     ("city", DataType.STRING))
TAGS = make_schema(("pid", DataType.INT), ("tag", DataType.STRING))

#: Scores are multiples of 0.25 so a sum is exact in whatever order shards add it.
PEOPLE_ROWS = [
    (1, "ann", 34, 1.5, "oslo"), (2, "bob", 51, 2.0, "rome"),
    (3, "cat", 28, None, "oslo"), (4, "dan", 67, 4.25, "kyiv"),
    (5, "eve", 45, 0.75, None), (6, "fay", 39, 3.0, "rome"),
    (7, None, 72, 2.5, "lima"), (8, "hal", 19, None, "kyiv"),
]
TAG_ROWS = [(1, "a"), (1, "b"), (2, "x"), (4, "c"), (6, None), (9, "orphan")]

STATEMENTS = {
    "select-star": "SELECT * FROM people",
    "projection": "SELECT name, age FROM people",
    "where-and-or-in": "SELECT pid, name FROM people WHERE age > 30 AND "
                       "(city = 'oslo' OR city IN ('rome', 'kyiv')) AND score IS NOT NULL",
    "where-is-null-or-not": "SELECT pid FROM people WHERE score IS NULL OR NOT age >= 40",
    "inner-join": "SELECT name, tag FROM people JOIN tags ON people.pid = tags.pid",
    "left-join": "SELECT name, tag FROM people LEFT JOIN tags ON people.pid = tags.pid "
                 "WHERE age < 60",
    "group-by-every-aggregate":
        "SELECT city, count(*) AS n, count(score) AS scored, sum(age) AS total, "
        "avg(score) AS mean, min(name) AS first, max(age) AS oldest "
        "FROM people GROUP BY city",
    "unaliased-aggregates": "SELECT count(*), max(people.age) FROM people",
    "order-desc-limit": "SELECT pid, age FROM people ORDER BY age DESC LIMIT 3",
    "nothing-matches": "SELECT pid, score FROM people WHERE age > 200",
    "aggregate-over-nothing": "SELECT count(*) AS n, sum(age) AS total FROM people "
                              "WHERE age > 200",
    "everything": "SELECT city, count(*) AS n FROM people JOIN tags ON people.pid = tags.pid "
                  "WHERE tag != 'x' GROUP BY city ORDER BY city LIMIT 2",
}

#: ``dataset("db").sql(q).node.canonical()`` as the parent commit printed it.
CANONICAL = {
    "select-star":
        "scan@db({'columns':None,'table':'people'})[]",
    "projection":
        "project@db({'columns':['name','age']})[scan@db({'columns':None,'table':'people'})[]]",
    "where-and-or-in":
        "project@db({'columns':['pid','name']})[filter@db({'predicate':<BooleanOp:BooleanOp(o"
        "p='and', operands=(BooleanOp(op='or', operands=(Comparison(op='=', "
        "left=ColumnRef(name='city'), right=Literal(value='oslo')), "
        "InList(operand=ColumnRef(name='city'), values=('rome', 'kyiv')))), "
        "Comparison(op='>', left=ColumnRef(name='age'), right=Literal(value=30)), "
        "IsNull(operand=ColumnRef(name='score'), "
        "negated=True)))>})[scan@db({'columns':None,'table':'people'})[]]]",
    "where-is-null-or-not":
        "project@db({'columns':['pid']})[filter@db({'predicate':<BooleanOp:BooleanOp(op='or',"
        " operands=(BooleanOp(op='not', operands=(Comparison(op='>=', "
        "left=ColumnRef(name='age'), right=Literal(value=40)),)), "
        "IsNull(operand=ColumnRef(name='score'), "
        "negated=False)))>})[scan@db({'columns':None,'table':'people'})[]]]",
    "inner-join":
        "project@db({'columns':['name','tag']})[join@db({'algorithm':'hash','how':'inner','le"
        "ft_key':'pid','right_key':'pid'})[scan@db({'columns':None,'table':'people'})[],scan@"
        "db({'columns':None,'table':'tags'})[]]]",
    "left-join":
        "project@db({'columns':['name','tag']})[filter@db({'predicate':<Comparison:Comparison"
        "(op='<', left=ColumnRef(name='age'), right=Literal(value=60))>})[join@db({'algorithm"
        "':'hash','how':'left','left_key':'pid','right_key':'pid'})[scan@db({'columns':None,'"
        "table':'people'})[],scan@db({'columns':None,'table':'tags'})[]]]]",
    "group-by-every-aggregate":
        "aggregate@db({'aggregates':[<AggregateSpec:AggregateSpec(function='count', "
        "column=None, alias='n')>,<AggregateSpec:AggregateSpec(function='count', "
        "column='score', alias='scored')>,<AggregateSpec:AggregateSpec(function='sum', "
        "column='age', alias='total')>,<AggregateSpec:AggregateSpec(function='avg', "
        "column='score', alias='mean')>,<AggregateSpec:AggregateSpec(function='min', "
        "column='name', alias='first')>,<AggregateSpec:AggregateSpec(function='max', "
        "column='age', alias='oldest')>],'group_by':['city']})[scan@db({'columns':None,'table"
        "':'people'})[]]",
    "unaliased-aggregates":
        "aggregate@db({'aggregates':[<AggregateSpec:AggregateSpec(function='count', "
        "column=None, alias='count_all')>,<AggregateSpec:AggregateSpec(function='max', "
        "column='age', alias='max_people.age')>],'group_by':[]})[scan@db({'columns':None,'tab"
        "le':'people'})[]]",
    "order-desc-limit":
        "limit@db({'n':3})[sort@db({'by':'age','descending':True})[project@db({'columns':['pi"
        "d','age']})[scan@db({'columns':None,'table':'people'})[]]]]",
    "nothing-matches":
        "project@db({'columns':['pid','score']})[filter@db({'predicate':<Comparison:Compariso"
        "n(op='>', left=ColumnRef(name='age'), "
        "right=Literal(value=200))>})[scan@db({'columns':None,'table':'people'})[]]]",
    "aggregate-over-nothing":
        "aggregate@db({'aggregates':[<AggregateSpec:AggregateSpec(function='count', "
        "column=None, alias='n')>,<AggregateSpec:AggregateSpec(function='sum', column='age', "
        "alias='total')>],'group_by':[]})[filter@db({'predicate':<Comparison:Comparison(op='>"
        "', left=ColumnRef(name='age'), "
        "right=Literal(value=200))>})[scan@db({'columns':None,'table':'people'})[]]]",
    "everything":
        "limit@db({'n':2})[sort@db({'by':'city','descending':False})[aggregate@db({'aggregate"
        "s':[<AggregateSpec:AggregateSpec(function='count', column=None, alias='n')>],'group_"
        "by':['city']})[filter@db({'predicate':<Comparison:Comparison(op='!=', "
        "left=ColumnRef(name='tag'), right=Literal(value='x'))>})[join@db({'algorithm':'hash'"
        ",'how':'inner','left_key':'pid','right_key':'pid'})[scan@db({'columns':None,'table':"
        "'people'})[],scan@db({'columns':None,'table':'tags'})[]]]]]]",
}


def _load(engine) -> None:
    engine.load_table("people", Table(PEOPLE, PEOPLE_ROWS))
    engine.load_table("tags", Table(TAGS, TAG_ROWS))


@pytest.fixture(scope="module")
def reference() -> RelationalEngine:
    engine = RelationalEngine("db")
    _load(engine)
    return engine


@pytest.fixture(scope="module", params=[False, True], ids=["single", "4-shard"])
def system(request):
    if request.param:
        system = build_cpu_polystore([])
        _load(system.register_sharded_engine("db", RelationalEngine, 4))
    else:
        engine = RelationalEngine("db")
        _load(engine)
        system = build_cpu_polystore([engine])
    return system


def _comparable(table: Table, ordered: bool) -> list[tuple]:
    rows = [tuple(row) for row in table.rows]
    if ordered:
        return rows
    return sorted(rows, key=lambda row: [(cell is None, cell) for cell in row])


def test_the_statement_list_is_pinned():
    assert set(STATEMENTS) == set(CANONICAL)


@pytest.mark.parametrize("name", STATEMENTS)
def test_sql_reads_build_the_parents_dataflow_tree(name):
    assert dataset("db").sql(STATEMENTS[name]).node.canonical() == CANONICAL[name]


@pytest.mark.parametrize("name", STATEMENTS)
def test_engine_and_program_routes_agree(system, reference, name):
    query = STATEMENTS[name]
    direct = reference.execute_sql(query)
    program = DataflowProgram(f"sql-{name}")
    program.output("out", dataset("db").sql(query))
    routed = system.execute(program).output("out")
    assert routed.schema == direct.schema
    ordered = "ORDER BY" in query
    assert _comparable(routed, ordered) == _comparable(direct, ordered)
    if name in ("nothing-matches",):
        assert len(direct) == 0
    else:
        assert len(direct) > 0


def test_execute_sql_walks_each_table_once(reference, heap_calls):
    reference.execute_sql(STATEMENTS["everything"])
    walked = [call.heap for call in heap_calls if call.method == "select"]
    assert walked == [reference._stored(name).heap for name in ("people", "tags")]
    assert all(call.pages_skipped == 0 for call in heap_calls)
