"""Randomized differential tests: incremental refresh vs full recompute.

For each seed, a random stream of mixed insert/update/delete batches is
applied to the base table(s); after *every* batch the maintained view is
refreshed and compared against a from-scratch recompute of the same
expression (``use_views=False``).  Edge cases are forced into the stream:
empty deltas, deletes emptying a group, aggregates over zero non-NULL
values, and the same streams run against partitioned and single-node bases.
"""

from __future__ import annotations

import random

import pytest

from repro import PolystorePlusPlus, col
from repro.compiler.pipeline import CompilerOptions
from repro.datamodel import DataType, Table, make_schema
from repro.eide.dataflow import DataflowProgram, Dataset
from repro.stores import RelationalEngine
from repro.stores.relational.partition import partition_of

GROUPS = ("alpha", "beta", "gamma", "delta")


def _schema():
    return make_schema(("row_id", DataType.INT), ("grp", DataType.STRING),
                       ("value", DataType.FLOAT))


def _build_system(sharded: bool, seed: int):
    rng = random.Random(seed)
    system = PolystorePlusPlus()
    if sharded:
        engine = system.register_sharded_engine("base", RelationalEngine, 3)
    else:
        engine = system.register_engine(RelationalEngine("base"))
    rows = [(i, rng.choice(GROUPS),
             None if rng.random() < 0.15 else float(rng.randint(0, 20)))
            for i in range(rng.randint(30, 80))]
    engine.load_table("events", Table(_schema(), rows), **(
        {"shard_key": "row_id"} if sharded else {}))
    return system, engine, rng


def _agg_expr(system):
    return (system.dataset("base").table("events")
            .filter(col("value") >= 0.0)  # NULLs drop here, like SQL
            .aggregate(["grp"],
                       total=("sum", "value"),
                       n=("count", None),
                       n_vals=("count", "value"),
                       mean=("avg", "value"),
                       lo=("min", "value"),
                       hi=("max", "value")))


def _recompute_table(system, expr):
    program = DataflowProgram("differential-recompute")
    program.output("res", Dataset(expr.node))
    result = system.execute(program, options=CompilerOptions(use_views=False))
    return result.output("res")


def _recompute(system, expr):
    return _recompute_table(system, expr).to_dicts()


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


def _assert_matches(table, system, expr, step, *, ordered=False):
    """The maintained table equals a from-scratch run: schema, then rows."""
    expected = _recompute_table(system, expr)
    assert table.schema == expected.schema, f"schema drifted at step {step}"
    if ordered:
        assert table.rows == expected.rows, f"diverged at step {step}"
    else:
        assert _canon(table.to_dicts()) == _canon(expected.to_dicts()), \
            f"diverged at step {step}"


def _mutate(engine, rng, next_id, step):
    """One random mutation batch; returns the advanced id counter."""
    choice = rng.random()
    if step == 3:
        # Forced edge case: delete a whole group (possibly emptying it).
        engine.delete_rows("events", col("grp") == rng.choice(GROUPS))
    elif step == 5:
        # Forced edge case: an empty delta (predicate matches nothing).
        engine.delete_rows("events", col("row_id") == -1)
    elif choice < 0.45:
        batch = [(next_id + i, rng.choice(GROUPS),
                  None if rng.random() < 0.25 else float(rng.randint(0, 20)))
                 for i in range(rng.randint(1, 12))]
        engine.insert("events", batch)
        next_id += len(batch)
    elif choice < 0.75:
        threshold = rng.randint(0, max(1, next_id))
        engine.delete_rows("events", col("row_id") < threshold)
    else:
        engine.update_rows(
            "events", col("grp") == rng.choice(GROUPS),
            {"value": None if rng.random() < 0.3
             else float(rng.randint(0, 20))})
    return next_id


@pytest.mark.parametrize("sharded", [False, True],
                         ids=["single-node", "sharded"])
@pytest.mark.parametrize("seed", [7, 23, 101, 911])
def test_grouped_aggregate_differential(seed, sharded):
    system, engine, rng = _build_system(sharded, seed)
    expr = _agg_expr(system)
    view = system.create_view("agg", expr, policy="manual")
    assert view.incremental
    next_id = 10_000
    for step in range(10):
        next_id = _mutate(engine, rng, next_id, step)
        view.refresh()
        _assert_matches(view.read()[0], system, expr, step)
    # The stream must have exercised the incremental path, not fallbacks.
    assert view.incremental_refreshes > 0
    assert view.full_recomputes == 0


@pytest.mark.parametrize("seed", [3, 77])
def test_prepared_program_over_view_matches_recompute(seed):
    """Acceptance: a prepared program reading a registered view returns
    results identical to recompute after every mutation batch."""
    system, engine, rng = _build_system(False, seed)
    expr = _agg_expr(system)
    system.create_view("agg", expr, policy="deferred")
    program = DataflowProgram("dashboard")
    program.output("res", Dataset(expr.node))
    session = system.session()
    prepared = session.prepare(program)
    assert {r.kind for r in prepared.run().report.records} == {"view_read"}
    next_id = 20_000
    for step in range(8):
        next_id = _mutate(engine, rng, next_id, step)
        _assert_matches(prepared.run().output("res"), system, expr, step)


@pytest.mark.parametrize("seed", [11, 42])
def test_join_view_differential(seed):
    system, engine, rng = _build_system(False, seed)
    dims = make_schema(("grp", DataType.STRING), ("weight", DataType.INT))
    engine.load_table("dims", Table(dims, [(g, i + 1)
                                           for i, g in enumerate(GROUPS)]))
    expr = (system.dataset("base").table("events")
            .join(system.dataset("base").table("dims"), on="grp")
            .filter(col("weight") > 1)
            .aggregate(["grp"], total=("sum", "value"), n=("count", None)))
    view = system.create_view("joined", expr, policy="manual")
    assert view.incremental
    next_id = 30_000
    for step in range(8):
        next_id = _mutate(engine, rng, next_id, step)
        if step == 4:  # mutate the other join side too
            engine.update_rows("dims", col("grp") == rng.choice(GROUPS),
                               {"weight": rng.randint(0, 5)})
        view.refresh()
        _assert_matches(view.read()[0], system, expr, step)
    assert view.full_recomputes == 0


@pytest.mark.parametrize("seed", [13, 59])
def test_sort_then_limit_chain_differential(seed):
    # Regression: a sort feeding a limit must recompute as one unit — the
    # ordering would not survive a Z-set boundary between two recomputes
    # and the limit would cut arbitrary rows.
    system, engine, rng = _build_system(False, seed)
    expr = (system.dataset("base").table("events")
            .sort("value", descending=True)
            .limit(4))
    view = system.create_view("topfour", expr, policy="manual")
    assert view.incremental
    next_id = 60_000
    for step in range(8):
        next_id = _mutate(engine, rng, next_id, step)
        view.refresh()
        got = view.read()[0]
        expected = _recompute_table(system, expr)
        assert got.schema == expected.schema, f"schema drifted at step {step}"
        # The descending sort's value order must match exactly (ties among
        # equal values may legitimately differ in row identity).
        assert got.column("value") == expected.column("value"), \
            f"diverged at step {step}"


def test_mid_refresh_failure_falls_back_to_full_rebuild():
    # Regression: any exception during delta application (cursors already
    # advanced, operator state partially mutated) must trigger a full
    # rebuild — not leave half-applied state that reads as fresh.
    system = PolystorePlusPlus()
    engine = system.register_engine(RelationalEngine("base"))
    engine.load_table("events", Table(_schema(), [(1, "alpha", 3.0)]))
    expr = (system.dataset("base").table("events")
            .aggregate(["grp"], total=("sum", "value"), n=("count", None)))
    view = system.create_view("sums", expr, policy="manual")
    # A type-confused row makes the weighted sum raise mid-apply; the
    # refresh falls back to a full rebuild, whose aggregate hits the same
    # bad row — the failure surfaces loudly (exactly like the engine's own
    # sum over mixed types would) instead of leaving silent divergence.
    engine.insert("events", [(2, "alpha", "oops")])
    with pytest.raises(TypeError):
        view.refresh()
    # Repairing the data lets the next refresh rebuild and converge.
    engine.delete_rows("events", col("row_id") == 2)
    view.refresh()
    assert _canon(view.read()[0].to_dicts()) == _canon(_recompute(system, expr))


def test_a_write_to_either_partition_is_detected_via_scoped_version():
    # Whichever partition a row lands in, its batch is on the engine's one
    # log at once: the view sees it is stale and folds the row in.
    system = PolystorePlusPlus()
    engine = system.register_sharded_engine("base", RelationalEngine, 2)
    engine.load_table("events", Table(_schema(), [
        (i, "alpha", 1.0) for i in range(6)]))
    expr = (system.dataset("base").table("events")
            .aggregate(["grp"], n=("count", None)))
    view = system.create_view("counts", expr, policy="manual")
    assert view.read()[0].to_dicts()[0]["n"] == 6
    engine.insert("events", [(100, "alpha", 1.0)])
    assert view.stale
    view.refresh()
    assert view.read()[0].to_dicts()[0]["n"] == 7
    # Two writes, one to each partition, with no refresh between: a forced
    # full refresh gives the recomputed rows.
    assert partition_of(101, 2) != partition_of(104, 2)
    engine.insert("events", [(101, "beta", 1.0)])
    engine.insert("events", [(104, "alpha", 1.0)])
    view.refresh(force_full=True)
    counts = {r["grp"]: r["n"] for r in view.read()[0].to_dicts()}
    assert counts == {"alpha": 8, "beta": 1}
    assert _canon(view.read()[0].to_dicts()) == _canon(_recompute(system, expr))


def test_facade_partial_write_failure_still_relays_landed_rows():
    # Regression: a routed insert that fails mid-batch must still append the
    # shard batches that DID land to the facade log — dropping them would
    # leave rows visible to scans that no batch tells the view about,
    # silently diverging it.
    system = PolystorePlusPlus()
    engine = system.register_sharded_engine("base", RelationalEngine, 2)
    engine.load_table("events", Table(_schema(), [
        (i, "alpha", 5.0) for i in range(10)]))
    expr = (system.dataset("base").table("events")
            .aggregate(["grp"], total=("sum", "value"), n=("count", None)))
    view = system.create_view("sums", expr, policy="manual")
    with pytest.raises(Exception):
        engine.insert("events", [(100, "alpha", 5.0), ("bad",)], validate=True)
    engine.insert("events", [(200, "alpha", 2.0)])  # a later, whole write
    view.refresh()
    assert _canon(view.read()[0].to_dicts()) == _canon(_recompute(system, expr))


def test_limit_without_an_ordering_producer_falls_back_to_recompute():
    # Regression: a limit separated from its sort by a linear operator (or
    # with no sort at all) cannot be maintained from unordered Z-sets —
    # the view must fall back to full recomputation and stay row-exact.
    system = PolystorePlusPlus()
    engine = system.register_engine(RelationalEngine("base"))
    engine.load_table("events", Table(_schema(), [
        (i, "alpha", float(i)) for i in range(50)]))
    expr = (system.dataset("base").table("events")
            .sort("value", descending=True)
            .project("row_id")
            .limit(3))
    view = system.create_view("broken-chain", expr, policy="manual")
    assert not view.incremental  # no ordering producer in the limit's unit
    engine.insert("events", [(100, "alpha", 1000.0)])
    view.refresh()
    assert view.read()[0].to_dicts() == _recompute(system, expr)
    # A contiguous sort->limit (ordering producer present) stays incremental.
    contiguous = (system.dataset("base").table("events")
                  .sort("value", descending=True).limit(3))
    assert system.create_view("contiguous", contiguous,
                              policy="manual").incremental


@pytest.mark.parametrize("seed", [5, 131])
def test_top_k_view_differential_with_exact_order(seed):
    system, engine, rng = _build_system(False, seed)
    expr = _agg_expr(system).top_k("total", 2)
    view = system.create_view("top", expr, policy="manual")
    next_id = 40_000
    for step in range(8):
        next_id = _mutate(engine, rng, next_id, step)
        view.refresh()
        # Ordered roots must match the recompute row-for-row, order included.
        _assert_matches(view.read()[0], system, expr, step, ordered=True)


def test_avg_over_zero_non_null_rows():
    system = PolystorePlusPlus()
    engine = system.register_engine(RelationalEngine("base"))
    engine.load_table("events", Table(_schema(), [
        (1, "alpha", 3.0), (2, "alpha", 4.0), (3, "beta", None),
    ]))
    expr = (system.dataset("base").table("events")
            .aggregate(["grp"], mean=("avg", "value"), n=("count", None),
                       n_vals=("count", "value")))
    view = system.create_view("avgs", expr, policy="manual")
    # beta has rows but zero non-NULL values: avg must be NULL, count 1.
    assert _canon(view.read()[0].to_dicts()) == _canon(_recompute(system, expr))
    # Delete alpha's values so it too averages over nothing, then empty it.
    engine.update_rows("events", col("grp") == "alpha", {"value": None})
    view.refresh()
    assert _canon(view.read()[0].to_dicts()) == _canon(_recompute(system, expr))
    engine.delete_rows("events", col("grp") == "alpha")
    view.refresh()
    rows = view.read()[0].to_dicts()
    assert _canon(rows) == _canon(_recompute(system, expr))
    assert all(r["grp"] != "alpha" for r in rows)


def test_global_aggregate_survives_emptying_the_table():
    system = PolystorePlusPlus()
    engine = system.register_engine(RelationalEngine("base"))
    engine.load_table("events", Table(_schema(), [(1, "alpha", 3.0)]))
    expr = (system.dataset("base").table("events")
            .aggregate([], total=("sum", "value"), n=("count", None)))
    view = system.create_view("global", expr, policy="manual")
    engine.delete_rows("events", col("row_id") >= 0)
    view.refresh()
    # A global aggregate over an empty input still yields exactly one row.
    assert view.read()[0].to_dicts() == _recompute(system, expr)
    assert view.read()[0].to_dicts() == [{"total": None, "n": 0}]
