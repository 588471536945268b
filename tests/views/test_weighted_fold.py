"""The fused weighted refresh against the unfused delta chain and recompute.

A view's aggregate folds a Z-set delta at each row's weight in one generated
loop, with the filters and projects right below it fused in.  Three routes
must agree window by window:

* **fused** — one ``DeltaAggregate`` lifting the whole run of stages;
* **unfused** — a ``DeltaFilter`` / ``DeltaProject`` per stage feeding a
  one-stage ``DeltaAggregate``, and beside it the per-row interpreter the
  generated loop replaced (``_Interpreted``, written plainly): the same
  output deltas, in the same order, bit for bit (``repr``), or the same
  exception type;
* **recompute** — the physical chain over the live rows, compared as a
  multiset while every value is an exact small number and no window deleted
  a row that was never there.

The last test drives the same through an engine, its changelog and a view.
"""

from __future__ import annotations

import operator
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PolystorePlusPlus, col
from repro.compiler.pipeline import CompilerOptions
from repro.datamodel import DataType, Table, make_schema
from repro.eide.dataflow import DataflowProgram, Dataset
from repro.exceptions import QueryError
from repro.middleware.executor import Executor
from repro.stores import RelationalEngine
from repro.stores.relational.kernels import factory
from repro.stores.relational.operators import (
    AggregateSpec,
    TableScan,
    build_operator,
    tuple_reader,
)
from repro.stores.changelog import table_scope
from repro.views.delta_ops import DeltaAggregate, DeltaFilter, DeltaProject
from repro.views.incremental import ChangelogSource
from repro.views.zset import ZSet

SCHEMA = make_schema(("id", DataType.INT), ("g", DataType.INT),
                     ("h", DataType.STRING), ("x", DataType.FLOAT))
NAMES = SCHEMA.names
FUNCTIONS = ("count", "sum", "avg", "min", "max")
COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge,
               operator.eq, operator.ne)


class _Interpreted:
    """The per-row interpreter the weighted loop replaced: one accumulator
    object per group, one test of the function name per aggregate per row."""

    def __init__(self, schema, group_by, specs):
        self.key = tuple_reader(schema, group_by)
        self.inputs = [(spec.function, spec.column and (
            (lambda i: lambda row: row[i])(schema.index_of(spec.column))
            if spec.column in schema else (lambda row: None)))
            for spec in specs]
        self.grouped = bool(group_by)
        self.groups = {}
        self.genesis = self.grouped

    def fresh(self):
        n = len(self.inputs)
        return {"weight": 0, "nonnull": [0] * n, "sums": [0] * n,
                "values": [Counter() for _ in range(n)]}

    def row(self, key, state):
        cells = []
        for i, (function, read) in enumerate(self.inputs):
            if function == "count":
                cells.append(state["weight"] if read is None else state["nonnull"][i])
            elif state["nonnull"][i] == 0:
                cells.append(None)
            elif function == "sum":
                cells.append(state["sums"][i])
            elif function == "avg":
                cells.append(state["sums"][i] / state["nonnull"][i])
            else:
                cells.append({"min": min, "max": max}[function](state["values"][i]))
        return key + tuple(cells)

    def apply(self, delta, schema):
        touched = {}
        if not self.genesis:
            touched[()] = None
            self.groups[()] = self.fresh()
            self.genesis = True
        for row, weight in delta.items():
            key = self.key(row)
            state = self.groups.get(key)
            if key not in touched:
                touched[key] = None if state is None else self.row(key, state)
            if state is None:
                state = self.groups[key] = self.fresh()
            state["weight"] += weight
            for i, (function, read) in enumerate(self.inputs):
                value = read(row) if read is not None else None
                if value is None:
                    continue
                state["nonnull"][i] += weight
                if function in ("sum", "avg"):
                    state["sums"][i] += value * weight
                elif function in ("min", "max"):
                    state["values"][i][value] += weight
                    if state["values"][i][value] == 0:
                        del state["values"][i][value]
        out = ZSet(schema)
        for key, before in touched.items():
            state = self.groups[key]
            if state["weight"] < 0 or any(n < 0 for n in state["nonnull"]):
                raise ValueError(f"group {key!r} reached negative multiplicity")
            if state["weight"] == 0 and self.grouped:
                del self.groups[key]
                state = None
            if before is not None:
                out.add(before, -1)
            if state is not None:
                out.add(self.row(key, state), 1)
        return out


# -- strategies ------------------------------------------------------------------------

_small = st.one_of(st.none(), st.integers(-4, 4), st.integers(-4, 4).map(float))
_wild = st.one_of(_small, st.floats(), st.just(1e16), st.just(-0.0), st.just("s"))
_predicate = st.builds(lambda name, compare, literal: compare(col(name), literal),
                       st.sampled_from(["g", "x"]), st.sampled_from(COMPARISONS),
                       st.one_of(st.integers(-4, 4), st.just(0.5)))
_predicates = st.one_of(_predicate, st.builds(operator.and_, _predicate, _predicate),
                        st.builds(operator.or_, _predicate, _predicate))
_stage = st.one_of(
    st.builds(lambda p: ("filter", {"predicate": p}), _predicates),
    st.builds(lambda names: ("project", {"columns": names}),
              st.lists(st.sampled_from(NAMES), min_size=1, unique=True)))
_specs = st.lists(st.tuples(st.sampled_from(FUNCTIONS),
                            st.sampled_from([None, "x", "g", "h"])),
                  min_size=1, max_size=4).map(lambda pairs: [
    AggregateSpec(function, column if function == "count" else column or "x", f"a{i}")
    for i, (function, column) in enumerate(pairs)])


@st.composite
def _streams(draw):
    """Seed rows and windows of actions; ``exact`` keeps every value small."""
    exact = draw(st.booleans())
    values = _small if exact else _wild
    ids = iter(range(10_000))

    def row():
        return (next(ids), draw(st.one_of(st.none(), st.integers(0, 2))),
                draw(st.sampled_from([None, "a", "b"])), draw(values))

    seed = [row() for _ in range(draw(st.integers(0, 8)))]
    windows = []
    for _ in range(draw(st.integers(1, 5))):
        actions = []
        for kind in draw(st.lists(st.sampled_from(
                ["insert", "insert", "delete", "delete", "ghost", "phantom"]),
                max_size=8)):
            actions.append((kind, row() if kind != "delete"
                            else draw(st.integers(0, 10**6))))
        windows.append(actions)
    return exact, seed, windows


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raised", type(exc)


def _physical(rows, stages):
    """The physical chain of ``stages`` over ``rows``: what a recompute runs."""
    physical = TableScan(Table.wrap(SCHEMA, rows))
    for kind, stage in stages:
        physical = build_operator(kind, stage, physical)
    return physical


def _window(live, actions):
    """Apply ``actions`` to the live rows; the window's consolidated delta, and
    whether it deleted a row that was never there."""
    delta, phantom = ZSet(SCHEMA), False
    for kind, arg in actions:
        if kind == "insert":
            live.append(arg)
            delta.add(arg, 1)
        elif kind == "delete" and live:
            delta.add(live.pop(arg % len(live)), -1)
        elif kind == "ghost":
            delta.add(arg, 1)
            delta.add(arg, -1)
        elif kind == "phantom":
            delta.add(arg, -1)
            phantom = True
    return delta, phantom


@settings(max_examples=300, deadline=None)
@given(_streams(), st.lists(_stage, max_size=3),
       st.sampled_from([[], ["g"], ["h"]]), _specs)
def test_fused_unfused_and_recompute_agree(stream, below, group_by, specs):
    exact, seed, windows = stream
    params = {"group_by": group_by, "aggregates": specs}
    fused = DeltaAggregate([*below, ("aggregate", params)])
    if _outcome(lambda: _physical([], [*below, ("aggregate", params)]))[0] != "ok":
        # A name a step cannot resolve fails the whole run at its bind, before
        # any row is read (the unfused chain binds stage by stage as rows reach it).
        with pytest.raises(QueryError):
            fused.apply(ZSet.from_table(Table.wrap(SCHEMA, seed)))
        return
    linear = [(DeltaFilter if kind == "filter" else DeltaProject)([(kind, stage)])
              for kind, stage in below]
    unfused = DeltaAggregate([("aggregate", params)])
    interpreted = None

    def run_unfused(delta):
        for op in linear:
            delta = op.apply(delta)
        return delta, unfused.apply(delta)

    def run_interpreted(linear_out):
        nonlocal interpreted
        if interpreted is None:
            interpreted = _Interpreted(linear_out.schema, group_by, specs)
        return interpreted.apply(linear_out, unfused.schema)

    live = list(seed)
    state, diverged = None, False
    for step, actions in enumerate([None, *windows]):
        if actions is None:  # the seed pass
            delta, phantom = ZSet.from_table(Table.wrap(SCHEMA, seed)), False
        else:
            delta, phantom = _window(live, actions)
        diverged = diverged or phantom
        got = _outcome(lambda: fused.apply(delta))
        chain = _outcome(lambda: run_unfused(delta))
        if chain[0] == "ok":
            linear_out, chain = chain[1][0], ("ok", chain[1][1])
            reference = _outcome(lambda: run_interpreted(linear_out))
        else:
            reference = chain
        assert got[0] == chain[0] == reference[0], f"step {step}"
        if got[0] == "raised":
            assert got[1] is chain[1] is reference[1]
            return
        assert fused.schema == unfused.schema
        assert repr(list(got[1].items())) == repr(list(chain[1].items())) \
            == repr(list(reference[1].items())), f"step {step}"
        if state is None:
            state = got[1]
        else:
            state.update(got[1])
        if exact and not diverged:
            physical = _physical(live, [*below, ("aggregate", params)])
            assert physical.schema == fused.schema
            assert Counter(state.to_rows()) == Counter(physical.rows()), f"step {step}"


def test_a_row_inserted_and_deleted_in_one_window_is_never_folded():
    # A string under a sum raises when folded: the ghost's never is.
    params = {"group_by": ["g"], "aggregates": [AggregateSpec("sum", "x", "total")]}
    fused = DeltaAggregate([("aggregate", params)])
    fused.apply(ZSet.from_table(Table.wrap(SCHEMA, [(0, 1, "a", 2.0)])))
    ghost = (1, 1, "a", "s")
    delta = ZSet(SCHEMA)
    delta.add(ghost, 1)
    delta.add(ghost, -1)
    assert fused.apply(delta).is_empty


def test_a_delete_that_empties_a_group_only_retracts():
    params = {"group_by": ["h"], "aggregates": [AggregateSpec("count", None, "n"),
                                                AggregateSpec("min", "x", "low")]}
    for below in ([], [("filter", {"predicate": col("x") > 0})]):
        fused = DeltaAggregate([*below, ("aggregate", params)])
        rows = [(0, 1, "a", 2.0), (1, 1, "b", 3.0)]
        fused.apply(ZSet.from_table(Table.wrap(SCHEMA, rows)))
        delta = ZSet(SCHEMA)
        delta.add(rows[0], -1)
        assert list(fused.apply(delta).items()) == [(("a", 1, 2.0), -1)]
        assert list(fused._groups) == ["b"]


@pytest.mark.parametrize("group_by", [[], ["g"]])
def test_a_divergent_negative_weight_still_raises(group_by):
    params = {"group_by": group_by, "aggregates": [AggregateSpec("sum", "x", "t")]}
    fused = DeltaAggregate([("filter", {"predicate": col("x") > 0}),
                            ("aggregate", params)])
    fused.apply(ZSet(SCHEMA))
    delta = ZSet(SCHEMA)
    delta.add((5, 1, "a", 2.0), -1)
    with pytest.raises(ValueError, match="negative multiplicity"):
        fused.apply(delta)


# -- through an engine, its changelog and a view --------------------------------------

_batches = st.lists(st.tuples(st.sampled_from(["insert", "delete"]),
                              st.lists(st.integers(0, 3), min_size=1, max_size=4)),
                    min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(_batches, st.sampled_from([None, ["h", "g"]]))
def test_a_pull_sums_its_batches_as_z_set_adds_would(batches, columns):
    """Same records, weights and order as ``ZSet.add`` over every entry: rows
    repeat within a batch and across batches, and deletes re-add nothing."""
    system = PolystorePlusPlus()
    engine = system.register_engine(RelationalEngine("db"))
    engine.load_table("t", Table(SCHEMA, [(i, i, "a", 1.0) for i in range(4)]))
    source = ChangelogSource("db", "t", columns)
    source.resync(system.catalog)
    for kind, ids in batches:
        if kind == "insert":
            engine.insert("t", [(i, i, "a", 1.0) for i in ids])
        else:
            engine.delete_rows("t", col("id") == ids[0])
    logged, _, _ = engine.changelog.pull(source.cursor, table_scope("t"))
    pick = tuple_reader(SCHEMA, columns) if columns else (lambda row: row)
    expected = ZSet(SCHEMA)
    for batch in logged:
        for record, weight in batch.entries:
            expected.add(pick(record), weight)
    assert list(source.pull(system.catalog).items()) == list(expected.items())


_writes = st.lists(st.tuples(st.sampled_from(["insert", "delete", "update", "ghost"]),
                             st.integers(0, 2), st.integers(-3, 6)),
                   min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(_writes, min_size=1, max_size=5), _predicates,
       st.sampled_from([[], ["g"], ["h"]]), st.booleans())
def test_a_view_refresh_equals_recompute(windows, predicate, group_by, project):
    system = PolystorePlusPlus()
    engine = system.register_engine(RelationalEngine("db"))
    engine.load_table("t", Table(SCHEMA, [(i, i % 3, "ab"[i % 2], float(i % 5))
                                          for i in range(12)]))
    expr = system.dataset("db").table("t").filter(predicate)
    if project:
        expr = expr.project("h", "x", "g")
    expr = expr.aggregate(group_by, n=("count", None), total=("sum", "x"),
                          mean=("avg", "x"), low=("min", "x"), high=("max", "x"))
    view = system.create_view("v", expr, policy="manual")
    program = DataflowProgram("recompute")
    program.output("res", Dataset(expr.node))
    next_id = 100
    for writes in windows:
        for kind, g, x in writes:
            if kind == "insert":
                engine.insert("t", [(next_id, g, "ab"[x % 2], float(x))])
            elif kind == "delete":
                engine.delete_rows("t", col("g") == g)
            elif kind == "update":
                engine.update_rows("t", col("g") == g, {"x": None if x < 0 else float(x)})
            else:
                engine.insert("t", [(next_id, g, "a", float(x))])
                engine.delete_rows("t", col("id") == next_id)
            next_id += 1
        view.refresh()
        got = view.read()[0]
        expected = system.execute(program, options=CompilerOptions(use_views=False)
                                  ).output("res")
        assert got.schema == expected.schema
        assert Counter(got.rows) == Counter(expected.rows)
    assert view.incremental and view.full_recomputes == 0


# -- counts -----------------------------------------------------------------------------


def _orders(policy="deferred", threshold=1.0):
    system = PolystorePlusPlus()
    engine = system.register_engine(RelationalEngine("db"))
    engine.load_table("t", Table(SCHEMA, [(i, i % 3, "ab"[i % 2], float(i % 5))
                                          for i in range(50)]))
    expr = (system.dataset("db").table("t").filter(col("x") > threshold)
            .aggregate(["h"], n=("count", None), total=("sum", "x")))
    return system, engine, system.create_view("v", expr, policy=policy), expr


def test_a_deferred_refresh_builds_no_executor(monkeypatch):
    system, engine, view, expr = _orders()
    engine.insert("t", [(100, 0, "a", 4.0)])
    engine.delete_rows("t", col("id") < 10)

    def refuse(*args, **kwargs):
        raise AssertionError("a refresh built an Executor")

    monkeypatch.setattr(Executor, "__init__", refuse)
    table, charged, wall = view.read()
    monkeypatch.undo()
    assert view.incremental_refreshes == 1 and view.full_recomputes == 0
    assert 0.0 < charged <= wall
    program = DataflowProgram("recompute")
    program.output("res", Dataset(expr.node))
    expected = system.execute(program, options=CompilerOptions(use_views=False))
    assert Counter(table.rows) == Counter(expected.output("res").rows)


def test_polls_that_differ_in_a_literal_compile_no_kernel():
    _, engine, view, _ = _orders(threshold=0.0)
    engine.insert("t", [(100, 0, "a", 4.0)])
    view.read()
    misses = factory.cache_info().misses
    folds = set()
    for threshold in range(1, 21):
        _, engine, view, _ = _orders(threshold=float(threshold))
        engine.insert("t", [(100, 0, "a", 4.0)])
        view.read()
        assert view.incremental_refreshes == 1
        folds.add(view._delta.steps[-1][0]._fold.__code__)
    assert factory.cache_info().misses == misses
    # The literal is an argument of the factory, not a constant of the code.
    assert len(folds) == 1
