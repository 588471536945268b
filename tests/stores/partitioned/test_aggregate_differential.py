"""Differential tests: a partitioned table's aggregate or top-k against one
unpartitioned engine's.

A read of a partitioned table is one fold over its one heap, and an
aggregate fused into that read finishes there: no partial rows are combined
anywhere.  So each aggregate function must come out of the fused partitioned
route exactly as out of the unfused plan and out of one engine holding the
same rows — rows and schema — for every null pattern.

Deliberately covered edge cases: partitions that are all empty, an entirely
empty table, all-NULL groups, ``avg`` over zero non-null rows, groups split
across every partition, ``min``/``max`` over strings, and int-vs-float ``sum``.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataflowProgram, dataset
from repro.cluster.partition import HashPartitioner
from repro.compiler import CompilerOptions
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.stores import RelationalEngine
from repro.stores.relational.operators import AggregateSpec
from repro.stores.relational.partition import partition_of


AGGREGATES = [
    AggregateSpec("sum", "int_val", "int_sum"),
    AggregateSpec("sum", "float_val", "float_sum"),
    AggregateSpec("avg", "int_val", "int_avg"),
    AggregateSpec("avg", "float_val", "float_avg"),
    AggregateSpec("min", "label", "label_min"),
    AggregateSpec("max", "label", "label_max"),
    AggregateSpec("min", "int_val", "int_min"),
    AggregateSpec("max", "float_val", "float_max"),
    AggregateSpec("count", "int_val", "int_count"),
    AggregateSpec("count", None, "n_rows"),
]

_TABLE = make_schema(("id", DataType.INT), ("group", DataType.STRING),
                     ("int_val", DataType.INT), ("float_val", DataType.FLOAT),
                     ("label", DataType.STRING))


def _random_rows(rng: random.Random, n: int) -> list[tuple]:
    """``n`` rows of ``_TABLE``; one group holds only NULL values, so its
    ``avg``s fold zero non-null rows.  Quarter-valued floats keep every sum
    exact in any order."""
    groups = [f"g{i}" for i in range(rng.randint(2, 5))]
    all_null_group = rng.choice(groups)
    rows = []
    for i in range(n):
        group = rng.choice(groups)
        force_null = group == all_null_group
        rows.append((
            i, group,
            None if force_null or rng.random() < 0.25 else rng.randint(-50, 50),
            None if force_null or rng.random() < 0.25 else rng.randint(-40, 40) / 4,
            None if rng.random() < 0.2 else rng.choice(["alpha", "beta", "gamma", "delta"]),
        ))
    return rows


def _program(engine: str, group_by: list[str]) -> DataflowProgram:
    program = DataflowProgram(f"agg-{engine}")
    program.output("agg", dataset(engine).table("t").aggregate(group_by, **{
        spec.alias: (spec.function, spec.column) for spec in AGGREGATES}))
    return program


def _aggregate(system, engine: str, group_by: list[str], options: CompilerOptions) -> Table:
    return system.execute(_program(engine, group_by), options=options).output("agg")


def _assert_result_dtypes(schema, grouped: bool) -> None:
    """min/max over string and int columns keep their dtype over no rows too."""
    if grouped:
        assert schema["group"].dtype is DataType.STRING
    assert schema["label_min"].dtype is DataType.STRING
    assert schema["label_max"].dtype is DataType.STRING
    assert schema["int_min"].dtype is DataType.INT
    assert schema["int_sum"].dtype is DataType.INT
    assert schema["float_max"].dtype is DataType.FLOAT
    assert schema["int_avg"].dtype is DataType.FLOAT
    assert schema["int_count"].dtype is DataType.INT
    assert schema["n_rows"].dtype is DataType.INT


def _deployment(rows: list[tuple], shards: int, **load) -> object:
    """One engine ``one`` and a ``shards``-way sharded engine ``many``, both
    holding ``rows`` as table ``t``."""
    single = RelationalEngine("one")
    single.load_table("t", Table(_TABLE, rows), **load)
    system = build_cpu_polystore([single])
    system.register_sharded_engine("many", RelationalEngine, shards) \
        .load_table("t", Table(_TABLE, rows), shard_key="id", **load)
    return system


@pytest.mark.parametrize("group_by", [["group"], []], ids=["grouped", "global"])
@pytest.mark.parametrize("n", [0, 60], ids=["empty-shards", "rows"])
def test_the_fused_sharded_aggregate_is_the_unfused_and_the_single_engine_one(n, group_by):
    rows = _random_rows(random.Random(n), n)
    system = _deployment(rows, 3, page_capacity=4)
    assert system.compile(_program("many", group_by)).pass_counts["aggregate_into_scan"] == 1

    fused = _aggregate(system, "many", group_by, CompilerOptions())
    unfused = _aggregate(system, "many", group_by, CompilerOptions(fusion=False))
    alone = _aggregate(system, "one", group_by, CompilerOptions())
    assert (repr(fused.rows), fused.schema) == (repr(unfused.rows), unfused.schema)
    assert Counter(map(repr, fused.rows)) == Counter(map(repr, alone.rows))
    assert fused.schema == alone.schema
    assert len(fused) == (len({row[1] for row in rows}) if group_by else 1)
    _assert_result_dtypes(fused.schema, bool(group_by))


def _by_hand(rows: list[tuple], group_by: list[str]) -> list[tuple]:
    """The SQL aggregates of ``AGGREGATES`` written out in plain Python: every
    aggregate but ``count(*)`` skips NULLs, ``sum`` folds from ``0`` and is
    NULL over no value, ``avg`` is that sum over the values' count."""
    position = {name: i for i, name in enumerate(_TABLE.names)}
    groups: dict[tuple, list[tuple]] = {} if group_by else {(): []}
    for row in rows:
        groups.setdefault(tuple(row[position[name]] for name in group_by), []).append(row)
    out = []
    for key, members in groups.items():
        result = list(key)
        for spec in AGGREGATES:
            if spec.column is None:
                result.append(len(members))
                continue
            values = [row[position[spec.column]] for row in members
                      if row[position[spec.column]] is not None]
            if spec.function == "count":
                result.append(len(values))
            elif not values:
                result.append(None)
            elif spec.function in ("sum", "avg"):
                total = sum(values)
                result.append(total if spec.function == "sum" else total / len(values))
            else:
                result.append(min(values) if spec.function == "min" else max(values))
        out.append(tuple(result))
    return out


def _randomized(rng: random.Random, sizes: list[int], max_shards: int,
                group_by: list[str]) -> None:
    """Random rows over a random number of shards, half the time with one
    shard left empty; the fused sharded aggregate must equal one engine's
    and the aggregates written out by hand."""
    shards = rng.randint(1, max_shards)
    rows = _random_rows(rng, rng.choice(sizes))
    empty = rng.randrange(shards) if shards > 1 and rng.random() < 0.5 else None
    if empty is not None:
        # Renumber the rows onto ids that the pinned shard does not own.
        partitioner = HashPartitioner(shards)
        ids = (i for i in range(10 * len(rows) + 10)
               if partitioner.shard_for(i) != empty)
        rows = [(next(ids), *row[1:]) for row in rows]
    system = _deployment(rows, shards, **({"page_capacity": 4} if rng.random() < 0.5 else {}))
    if empty is not None:
        assert not any(partition_of(row[0], shards) == empty
                       for row in system.engine("many").scan("t").rows)
    fused = _aggregate(system, "many", group_by, CompilerOptions())
    alone = _aggregate(system, "one", group_by, CompilerOptions())
    # repr tells an int sum from a float one.
    assert Counter(map(repr, fused.rows)) == Counter(map(repr, alone.rows))
    assert Counter(map(repr, fused.rows)) == Counter(map(repr, _by_hand(rows, group_by)))
    assert fused.schema == alone.schema


@pytest.mark.parametrize("seed", range(12))
def test_randomized_grouped_differential(seed):
    _randomized(random.Random(seed), [0, 1, 7, 40, 120], 5, ["group"])


@pytest.mark.parametrize("seed", range(8))
def test_randomized_global_differential(seed):
    """No GROUP BY: a single output row even when every shard is empty."""
    _randomized(random.Random(100 + seed), [0, 3, 25], 4, [])


def test_empty_result_schema_preserves_dtypes():
    """Over three empty shards the fused, unfused and single-engine
    aggregates all return no groups in the same typed schema."""
    system = _deployment([], 3)
    for engine, options in (("many", CompilerOptions()),
                            ("many", CompilerOptions(fusion=False)),
                            ("one", CompilerOptions())):
        result = _aggregate(system, engine, ["group"], options)
        assert len(result) == 0
        _assert_result_dtypes(result.schema, True)


# -- end to end: a partitioned table vs one RelationalEngine -----------------------------

_SCHEMA = make_schema(("id", DataType.INT), ("grp", DataType.INT),
                      ("int_val", DataType.INT), ("float_val", DataType.FLOAT),
                      ("label", DataType.STRING))
_END_TO_END = dict(n=("count", None), n_int=("count", "int_val"),
                   int_sum=("sum", "int_val"), float_sum=("sum", "float_val"),
                   int_avg=("avg", "int_val"), float_avg=("avg", "float_val"),
                   int_min=("min", "int_val"), float_max=("max", "float_val"),
                   label_min=("min", "label"), label_max=("max", "label"))

# Quarter-valued floats keep every sum exact in any order, so the two routes
# must agree with ``==``.
_rows = st.lists(st.tuples(
    st.sampled_from([0, 1, 2, None]),
    st.none() | st.integers(-50, 50),
    st.none() | st.integers(-400, 400).map(lambda q: q / 4),
    st.none() | st.sampled_from(["alpha", "beta", "gamma"]),
), max_size=30)


def _aggregated(system, engine: str, group_by: list[str]) -> Table:
    program = DataflowProgram(f"agg-{engine}")
    program.output("agg", dataset(engine).table("t").aggregate(group_by, **_END_TO_END))
    return system.execute(program).output("agg")


@settings(max_examples=60, deadline=None)
@given(rows=_rows, shards=st.integers(1, 5), grouped=st.booleans())
def test_sharded_engine_aggregates_match_a_single_engine(rows, shards, grouped):
    table = Table(_SCHEMA, [(i, *row) for i, row in enumerate(rows)])
    single = RelationalEngine("one")
    single.load_table("t", table)
    system = build_cpu_polystore([single])
    system.register_sharded_engine("many", RelationalEngine, shards) \
        .load_table("t", table, shard_key="id")
    group_by = ["grp"] if grouped else []

    expected = _aggregated(system, "one", group_by)
    actual = _aggregated(system, "many", group_by)
    assert Counter(actual.rows) == Counter(expected.rows)
    assert actual.schema == expected.schema


# -- top-k over shards vs one engine ---------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("descending", [True, False])
def test_global_top_k_matches_single_node(seed, descending):
    """The top-k runs on the primary shard over the one table the read
    folded: NULL scores never qualify and the score sequence is one
    engine's (tied rows may come from other shards)."""
    rng = random.Random(seed)
    schema = make_schema(("item", DataType.INT), ("score", DataType.FLOAT))
    rows = [(i, None if rng.random() < 0.3 else rng.choice([1.0, 2.0, 3.0, rng.uniform(0, 10)]))
            for i in range(rng.choice([0, 5, 30]))]
    k = rng.choice([0, 1, 3, 10])
    reference = RelationalEngine("one")
    reference.load_table("scores", Table(schema, rows))
    system = build_cpu_polystore([reference])
    system.register_sharded_engine("many", RelationalEngine, rng.randint(1, 4)) \
        .load_table("scores", Table(schema, rows), shard_key="item")

    def scores(engine: str) -> list:
        program = DataflowProgram(f"top-{engine}")
        program.output("best", dataset(engine).table("scores")
                       .top_k("score", k, descending=descending))
        return [row[1] for row in system.execute(program).output("best").rows]

    assert None not in scores("many")
    assert scores("many") == scores("one")


def test_global_top_k_is_deterministic_across_repeats():
    """Ties across shards resolve the same way on every run."""
    schema = make_schema(("item", DataType.INT), ("score", DataType.FLOAT))
    system = build_cpu_polystore([])
    system.register_sharded_engine("many", RelationalEngine, 3) \
        .load_table("scores", Table(schema, [(i, float(i % 3)) for i in range(30)]),
                    shard_key="item")
    program = DataflowProgram("top-ties")
    program.output("best", dataset("many").table("scores").top_k("score", 7))
    first = system.execute(program).output("best").rows
    assert [row[1] for row in first] == [2.0] * 7
    for _ in range(5):
        assert system.execute(program).output("best").rows == first


def test_sharded_ascending_top_k_excludes_null_scores():
    """End-to-end: ascending top_k over shards must not surface NULL rows."""
    system = build_cpu_polystore([])
    engine = system.register_sharded_engine("scoresdb", RelationalEngine, 3)
    schema = make_schema(("item", DataType.INT), ("score", DataType.FLOAT))
    rows = [(i, None if i % 4 == 0 else float(i % 11)) for i in range(60)]
    engine.create_table("scores", schema, shard_key="item")
    engine.insert("scores", rows)

    cheapest = dataset("scoresdb").table("scores").top_k("score", 5,
                                                         descending=False)
    program = DataflowProgram("cheapest")
    program.output("best", cheapest)
    result = system.execute(program).output("best").to_dicts()

    reference = RelationalEngine("ref")
    reference.load_table("scores", Table(schema, rows))
    single = build_cpu_polystore([reference])
    ref_rows = single.execute(_reference_program()).output("best").to_dicts()

    assert all(row["score"] is not None for row in result)
    assert [row["score"] for row in result] == [row["score"] for row in ref_rows]


def _reference_program() -> DataflowProgram:
    cheapest = dataset("ref").table("scores").top_k("score", 5, descending=False)
    program = DataflowProgram("cheapest-ref")
    program.output("best", cheapest)
    return program
