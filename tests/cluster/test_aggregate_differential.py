"""Randomized differential tests: sharded aggregation vs the single-node operator.

``combine_partial_aggregates`` and ``_global_top_k`` must be
indistinguishable from the single-node ``GroupByAggregate``/``TopK``
operators for every aggregate function and null pattern.  Each trial builds
a random table, partitions it across a random number of shards (some left
empty on purpose), computes per-shard partials with the *real* single-node
operator and compares the combined result against the single-node reference
over the whole table.

Deliberately covered edge cases: empty shards, an entirely empty table,
all-NULL groups, ``avg`` over zero non-null rows, groups split across every
shard, ``min``/``max`` over strings, and int-vs-float ``sum``.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataflowProgram, dataset
from repro.cluster.scatter import (
    _global_top_k,
    combine_partial_aggregates,
    decompose_aggregates,
)
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.stores import RelationalEngine
from repro.stores.relational.operators import AggregateSpec, GroupByAggregate, TableScan


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


def _random_rows(rng: random.Random, n: int) -> list[dict]:
    rows = []
    groups = [f"g{i}" for i in range(rng.randint(1, 5))]
    all_null_group = rng.choice(groups)  # avg over zero non-null rows
    for _ in range(n):
        group = rng.choice(groups)
        force_null = group == all_null_group
        rows.append({
            "group": group,
            "int_val": None if force_null or rng.random() < 0.25
            else rng.randint(-50, 50),
            "float_val": None if force_null or rng.random() < 0.25
            else round(rng.uniform(-10, 10), 3),
            "label": None if rng.random() < 0.2
            else rng.choice(["alpha", "beta", "gamma", "delta"]),
        })
    return rows


def _partition(rng: random.Random, rows: list[dict], shards: int) -> list[list[dict]]:
    parts: list[list[dict]] = [[] for _ in range(shards)]
    # Sometimes pin one shard empty, so the empty-partial path is exercised.
    empty = rng.randrange(shards) if shards > 1 and rng.random() < 0.5 else None
    targets = [i for i in range(shards) if i != empty]
    for row in rows:
        parts[rng.choice(targets)].append(row)
    return parts


def _single_node(rows: list[dict], group_by: list[str],
                 aggregates: list[AggregateSpec]) -> list[dict]:
    return GroupByAggregate(TableScan(rows), group_by, aggregates).execute()


def _sharded(parts: list[list[dict]], group_by: list[str],
             aggregates: list[AggregateSpec]) -> Table:
    partial_specs, combines = decompose_aggregates(aggregates)
    partial_tables = []
    for shard_rows in parts:
        partial_rows = _single_node(shard_rows, group_by, partial_specs)
        if partial_rows:
            partial_tables.append(Table.from_dicts(partial_rows))
        else:
            partial_tables.append(Table(make_schema(
                ("group", DataType.STRING), ("int_val", DataType.INT),
                ("float_val", DataType.FLOAT), ("label", DataType.STRING)), []))
    return combine_partial_aggregates(partial_tables, group_by, combines)


def _assert_same(actual: list[dict], expected: list[dict], group_by: list[str]):
    def key(row):
        return tuple(repr(row.get(name)) for name in group_by)

    actual, expected = sorted(actual, key=key), sorted(expected, key=key)
    assert len(actual) == len(expected)
    for actual_row, expected_row in zip(actual, expected):
        assert set(actual_row) == set(expected_row)
        for name, expected_value in expected_row.items():
            value = actual_row[name]
            if isinstance(expected_value, float):
                assert value == pytest.approx(expected_value), name
            else:
                assert value == expected_value, name
                # int sums must stay int when partials combine across shards
                assert type(value) is type(expected_value), name


@pytest.mark.parametrize("seed", range(12))
def test_randomized_grouped_differential(seed):
    rng = random.Random(seed)
    rows = _random_rows(rng, rng.choice([0, 1, 7, 40, 120]))
    parts = _partition(rng, rows, rng.randint(1, 5))
    combined = _sharded(parts, ["group"], AGGREGATES)
    reference = _single_node(rows, ["group"], AGGREGATES)
    _assert_same(combined.to_dicts(), reference, ["group"])


@pytest.mark.parametrize("seed", range(8))
def test_randomized_global_differential(seed):
    """No GROUP BY: a single output row even when every shard is empty."""
    rng = random.Random(100 + seed)
    rows = _random_rows(rng, rng.choice([0, 3, 25]))
    parts = _partition(rng, rows, rng.randint(1, 4))
    combined = _sharded(parts, [], AGGREGATES)
    reference = _single_node(rows, [], AGGREGATES)
    _assert_same(combined.to_dicts(), reference, [])


def test_empty_result_schema_preserves_dtypes():
    """min/max over string/int columns keep their dtype when all shards are empty."""
    combined = _sharded([[], [], []], ["group"], AGGREGATES)
    assert len(combined) == 0
    schema = combined.schema
    assert schema["group"].dtype is DataType.STRING
    assert schema["label_min"].dtype is DataType.STRING
    assert schema["label_max"].dtype is DataType.STRING
    assert schema["int_min"].dtype is DataType.INT
    assert schema["int_sum"].dtype is DataType.INT
    assert schema["float_max"].dtype is DataType.FLOAT
    assert schema["int_avg"].dtype is DataType.FLOAT
    assert schema["int_count"].dtype is DataType.INT
    assert schema["n_rows"].dtype is DataType.INT


# -- end to end: a ShardedEngine vs one RelationalEngine ---------------------------------

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


# -- global top-k vs the single-node TopK operator --------------------------------------


def _topk_rows(rng: random.Random, n: int) -> list[dict]:
    return [{"item": i,
             "score": None if rng.random() < 0.3 else rng.choice(
                 [1.0, 2.0, 3.0, rng.uniform(0, 10)])}
            for i in range(n)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("descending", [True, False])
def test_global_top_k_matches_single_node(seed, descending):
    from repro.stores.relational.operators import TopK

    rng = random.Random(seed)
    rows = _topk_rows(rng, rng.choice([0, 5, 30]))
    k = rng.choice([0, 1, 3, 10])
    parts = []
    for shard_rows in _partition(rng, rows, rng.randint(1, 4)):
        local = TopK(TableScan(shard_rows), "score", k, descending=descending).execute()
        parts.append(Table.from_dicts(local) if local
                     else Table(make_schema(("item", DataType.INT),
                                            ("score", DataType.FLOAT)), []))
    combined = _global_top_k(parts, "score", k, descending)
    reference = TopK(TableScan(rows), "score", k, descending=descending).execute()

    combined_rows = combined.to_dicts()
    # None scores never qualify (single-node drops them before the heap).
    assert all(row["score"] is not None for row in combined_rows)
    assert sorted(row["score"] for row in combined_rows) == \
        sorted(row["score"] for row in reference)
    # The score sequence is ordered identically to the single-node result.
    assert [row["score"] for row in combined_rows] == \
        [row["score"] for row in reference]


def test_global_top_k_is_deterministic_across_repeats():
    rows = [{"item": i, "score": float(i % 3)} for i in range(30)]
    parts = [Table.from_dicts(rows[i::3]) for i in range(3)]
    first = _global_top_k(parts, "score", 7, True).to_dicts()
    for _ in range(5):
        assert _global_top_k(parts, "score", 7, True).to_dicts() == first


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
