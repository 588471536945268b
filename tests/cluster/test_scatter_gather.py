"""Scatter-gather execution: sharded results must match unsharded results."""

from __future__ import annotations

import pytest

from repro import DataflowProgram, Dataset, col, dataset
from repro.compiler.pipeline import CompilerOptions
from repro.core import build_accelerated_polystore, build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.stores import KeyValueEngine, RelationalEngine, TextEngine, TimeseriesEngine

# Amounts are unique so ORDER BY comparisons are deterministic across
# shard-run merge order (ties may legally interleave differently).
ROWS = [(i, f"c{i % 7}", float((i * 13) % 101) + i / 1000.0, i % 3 == 0)
        for i in range(120)]


def _schema():
    return make_schema(("order_id", DataType.INT), ("customer", DataType.STRING),
                       ("amount", DataType.FLOAT), ("rush", DataType.BOOL))


def _reference_system():
    engine = RelationalEngine("ordersdb")
    engine.load_table("orders", Table(_schema(), ROWS))
    return build_cpu_polystore([engine])


def _sharded_system(num_shards: int = 4):
    system = build_cpu_polystore([])
    engine = system.register_sharded_engine("ordersdb", RelationalEngine, num_shards)
    engine.load_table("orders", Table(_schema(), ROWS))
    return system, engine


def _program(name: str, result: Dataset) -> DataflowProgram:
    program = DataflowProgram(name)
    program.output("result", result)
    return program


def _sql_program(query: str) -> DataflowProgram:
    return _program("q", dataset("ordersdb").sql(query))


def _rows(result):
    return result.output("result").to_dicts()


def _assert_rows_match(actual, expected, *, ordered=False):
    """Row-set equality tolerant of float summation order across shards."""
    if not ordered:
        key = lambda r: sorted((k, repr(v)) for k, v in r.items())  # noqa: E731
        actual, expected = sorted(actual, key=key), sorted(expected, key=key)
    assert len(actual) == len(expected)
    for actual_row, expected_row in zip(actual, expected):
        assert set(actual_row) == set(expected_row)
        for name, expected_value in expected_row.items():
            if isinstance(expected_value, float):
                assert actual_row[name] == pytest.approx(expected_value)
            else:
                assert actual_row[name] == expected_value


SQL_CASES = [
    "SELECT order_id, amount FROM orders",
    "SELECT order_id, customer FROM orders WHERE amount > 50.0",
    "SELECT customer, sum(amount) AS total, avg(amount) AS mean, count(*) AS n, "
    "min(amount) AS lo, max(amount) AS hi FROM orders GROUP BY customer",
    "SELECT count(*) AS n, sum(amount) AS total FROM orders",
    "SELECT order_id, amount FROM orders ORDER BY amount",
    "SELECT order_id, amount FROM orders ORDER BY amount DESC LIMIT 10",
]


class TestSqlParity:
    @pytest.mark.parametrize("query", SQL_CASES)
    def test_sharded_matches_unsharded(self, query):
        reference = _reference_system()
        system, _ = _sharded_system(4)
        expected = _rows(reference.execute(_sql_program(query)))
        actual = _rows(system.execute(_sql_program(query)))
        _assert_rows_match(actual, expected, ordered="ORDER BY" in query)

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_parity_across_shard_counts(self, num_shards):
        reference = _reference_system()
        query = SQL_CASES[2]
        expected = _rows(reference.execute(_sql_program(query)))
        system, _ = _sharded_system(num_shards)
        actual = _rows(system.execute(_sql_program(query)))
        _assert_rows_match(actual, expected)

    def test_a_relational_read_records_one_fold_over_every_shard(self):
        system, engine = _sharded_system(4)
        result = system.execute(_sql_program(SQL_CASES[2]))
        scans = [r for r in result.report.records if r.kind == "scan"]
        aggregates = [r for r in result.report.records if r.kind == "aggregate"]
        assert scans and scans[0].details["shards"] == 4
        assert scans[0].details["fan_out"] == "fold"
        assert scans[0].details["contacted_shards"] == [s.name for s in engine.shards]
        # One read on one machine: charged its one CPU time, no critical path.
        [cpu] = scans[0].details["shard_times_s"]
        assert scans[0].charged_time_s == cpu
        # The aggregate above hands on the read's one table, on the primary shard.
        assert "merge" not in aggregates[0].details

    def test_single_shard_degenerates_cleanly(self):
        system, _ = _sharded_system(1)
        reference = _reference_system()
        query = SQL_CASES[1]
        _assert_rows_match(_rows(system.execute(_sql_program(query))),
                           _rows(reference.execute(_sql_program(query))))


class TestRoutedReads:
    def test_index_seek_on_shard_key_routes_to_one_shard(self):
        # The SQL frontend lowers equality predicates to filters; build the
        # index_seek IR node directly to exercise the routed-read path.
        from repro.ir.graph import IRGraph
        from repro.ir.nodes import Operator
        from repro.middleware.executor import Executor

        system, engine = _sharded_system(3)
        for shard in engine.shards:
            shard.create_index("orders", "order_id")
        graph = IRGraph("seek")
        node = graph.add(Operator("index_seek", {
            "table": "orders", "column": "order_id", "value": 17,
        }, [], "ordersdb"))
        graph.mark_output(node.op_id)
        outputs, report = Executor(system.catalog).execute(graph)
        rows = outputs[node.op_id].to_dicts()
        assert [row["order_id"] for row in rows] == [17]
        seek = report.records[0]
        assert seek.details["fan_out"] == "routed"
        assert seek.details["shards"] == 1
        owner = seek.details["shard"]
        assert owner == engine.shard_for(17).name

    def test_index_seek_on_other_column_fans_out(self):
        from repro.ir.graph import IRGraph
        from repro.ir.nodes import Operator
        from repro.middleware.executor import Executor

        system, engine = _sharded_system(3)
        for shard in engine.shards:
            shard.create_index("orders", "customer")
        graph = IRGraph("seek")
        node = graph.add(Operator("index_seek", {
            "table": "orders", "column": "customer", "value": "c3",
        }, [], "ordersdb"))
        graph.mark_output(node.op_id)
        outputs, report = Executor(system.catalog).execute(graph)
        rows = outputs[node.op_id].to_dicts()
        assert sorted(r["order_id"] for r in rows) == [
            i for i in range(len(ROWS)) if i % 7 == 3
        ]
        assert report.records[0].details["shards"] == 3

    def test_kv_lookup_with_keys_hits_owning_shards_only(self):
        system = build_cpu_polystore([])
        engine = system.register_sharded_engine("profiles", KeyValueEngine, 4)
        engine.put_many({f"user/{i}": {"uid": i, "score": float(i)} for i in range(40)})
        program = _program("kv", dataset("profiles").kv(["user/3", "user/17"]))
        result = system.execute(program)
        rows = result.output("result").to_dicts()
        assert sorted(r["uid"] for r in rows) == [3, 17]
        records = [r for r in result.report.records if r.kind == "kv_get"]
        assert records and records[0].details["shards"] <= 2

    def test_kv_prefix_scan_fans_out(self):
        system = build_cpu_polystore([])
        engine = system.register_sharded_engine("profiles", KeyValueEngine, 3)
        engine.put_many({f"user/{i}": {"uid": i} for i in range(30)})
        engine.put("other/1", {"uid": -1})
        program = _program("kv", dataset("profiles").kv(key_prefix="user/"))
        rows = system.execute(program).output("result").to_dicts()
        assert sorted(r["uid"] for r in rows) == list(range(30))


class TestTimeseriesScatter:
    def test_summaries_merge_across_shards(self):
        reference_engine = TimeseriesEngine("monitors")
        system = build_cpu_polystore([])
        engine = system.register_sharded_engine("monitors", TimeseriesEngine, 3)
        for pid in range(12):
            points = [(float(t), float(pid * 10 + t)) for t in range(6)]
            reference_engine.append_many(f"hr/{pid}", points)
            engine.append_many(f"hr/{pid}", points)
        reference = build_cpu_polystore([reference_engine])

        def program():
            return _program("ts", dataset("monitors").timeseries("hr/"))

        expected = sorted(reference.execute(program()).output("result").to_dicts(),
                          key=lambda r: r["pid"])
        actual = sorted(system.execute(program()).output("result").to_dicts(),
                        key=lambda r: r["pid"])
        assert actual == expected


class TestTextScatter:
    def test_search_reranks_globally(self):
        system = build_cpu_polystore([])
        engine = system.register_sharded_engine("notes", TextEngine, 3)
        for i in range(30):
            body = "sepsis " * (i % 5 + 1) + "stable vitals"
            engine.add_document(f"note/{i}", body)
        program = _program("txt", dataset("notes").text().search("sepsis", top_k=5))
        result = system.execute(program)
        rows = result.output("result").to_dicts()
        assert len(rows) == 5
        scores = [row["score"] for row in rows]
        assert scores == sorted(scores, reverse=True)
        records = [r for r in result.report.records if r.kind == "text_search"]
        assert records and records[0].details["merge"] == "rerank"


class TestFallbacksAndMixing:
    def test_join_with_unsharded_engine(self):
        kv = KeyValueEngine("profiles")
        for c in range(7):
            kv.put(f"cust/c{c}", {"customer": f"c{c}", "tier": "gold" if c % 2 else "basic"})
        system = build_cpu_polystore([kv])
        engine = system.register_sharded_engine("ordersdb", RelationalEngine, 3)
        engine.load_table("orders", Table(_schema(), ROWS))
        spend = dataset("ordersdb").sql(
            "SELECT customer, sum(amount) AS total FROM orders GROUP BY customer")
        tiers = dataset("profiles").kv(key_prefix="cust/")
        program = _program("mix", spend.join(tiers, on="customer"))
        rows = system.execute(program).output("result").to_dicts()
        assert len(rows) == 7
        assert all("tier" in row and "total" in row for row in rows)

    def test_python_udf_gathers_sharded_input(self):
        system, _ = _sharded_system(3)
        program = _program("udf", dataset("ordersdb").sql(
            "SELECT order_id, amount FROM orders"
        ).apply(lambda table: {"rows": len(table)}, engine="ordersdb"))
        result = system.execute(program)
        assert result.output("result") == {"rows": len(ROWS)}

    def test_sharded_output_is_gathered(self):
        system, _ = _sharded_system(3)
        result = system.execute(_sql_program("SELECT order_id FROM orders"))
        table = result.output("result")
        assert len(table) == len(ROWS)
        assert sorted(table.column("order_id")) == list(range(len(ROWS)))


class TestSnapshotPinning:
    def test_pinned_scans_replay_until_any_shard_writes(self):
        system, engine = _sharded_system(3)
        session = system.session()
        prepared = session.prepare(_sql_program(
            "SELECT count(*) AS n FROM orders"))
        first = prepared.run()
        assert _n(first) == len(ROWS)
        second = prepared.run()
        assert second.report.cached_tasks > 0
        assert _n(second) == len(ROWS)
        engine.insert("orders", [(9999, "cX", 1.0, False)])
        third = prepared.run()
        assert _n(third) == len(ROWS) + 1

    def test_accelerated_mode_still_correct(self):
        system = build_accelerated_polystore([])
        engine = system.register_sharded_engine("ordersdb", RelationalEngine, 3)
        engine.load_table("orders", Table(_schema(), ROWS))
        rows = _rows(system.execute(_sql_program(SQL_CASES[2])))
        reference = _rows(_reference_system().execute(_sql_program(SQL_CASES[2])))
        _assert_rows_match(rows, reference)


def _n(result):
    return result.output("result").to_dicts()[0]["n"]


class TestShardedOrdering:
    """Sharded reads must preserve the ordering the unsharded engine gives."""

    def _kv_pair(self, num_shards=4, n=40):
        reference = KeyValueEngine("profiles")
        system = build_cpu_polystore([])
        sharded = system.register_sharded_engine("profiles", KeyValueEngine,
                                                 num_shards)
        for i in range(n):
            value = {"uid": i}
            reference.put(f"user/{i}", value)
            sharded.put(f"user/{i}", value)
        return build_cpu_polystore([reference]), system

    def test_prefix_lookup_preserves_key_order(self):
        reference_system, sharded_system = self._kv_pair()
        program = _program("kv", dataset("profiles").kv(key_prefix="user/"))
        expected = reference_system.execute(program).output("result").to_dicts()
        actual = sharded_system.execute(program).output("result").to_dicts()
        assert actual == expected  # identical rows in identical (key) order

    @pytest.mark.parametrize("columns", [None, ("key", "uid"), ("uid",)])
    def test_a_filter_and_project_over_the_merged_read_keep_key_order(self, columns):
        # Without pushdown the filter (and project) stay nodes; they run on
        # the primary shard over the leaf's one table, merged in key order.
        reference_system, sharded_system = self._kv_pair()
        read = dataset("profiles").kv(key_prefix="user/").filter(col("uid") > 12)
        if columns is not None:
            read = read.project(*columns)
        program = _program("kv", read)
        options = CompilerOptions(pushdown=False)
        expected = reference_system.execute(program, options=options).output("result")
        result = sharded_system.execute(program, options=options)
        assert result.output("result").to_dicts() == expected.to_dicts()
        assert [row["uid"] for row in expected.to_dicts()][:3] == [13, 14, 15]
        leaf = result.report.records[0]
        assert leaf.kind in ("kv_get", "kv_range")
        assert leaf.details["merge"] == "ordered" and leaf.details["shards"] == 4
        filters = [r for r in result.report.records if r.kind == "filter"]
        assert "shards" not in filters[0].details  # ran once, on the primary shard

    def test_kv_range_gather_merges_in_key_order(self):
        from repro.ir.graph import IRGraph
        from repro.ir.nodes import Operator
        from repro.middleware.executor import Executor

        reference_system, sharded_system = self._kv_pair()

        def run(system):
            graph = IRGraph("rng")
            scan = graph.add(Operator("kv_range", {}, [], "profiles"))
            graph.mark_output(scan.op_id)
            outputs, _ = Executor(system.catalog).execute(graph)
            return outputs[scan.op_id].to_dicts()

        assert run(sharded_system) == run(reference_system)

    def test_ordered_merge_merges_subset_partitions(self):
        from repro.cluster.scatter import _ordered_merge

        parts = tuple(
            Table.from_dicts([
                {"key": f"user/{i}", "uid": i}
                for i in sorted(range(30), key=str)
                if i % 3 == shard
            ])
            for shard in range(3)
        )
        keys = [row["key"] for row in _ordered_merge(parts, "key").to_dicts()]
        assert keys == sorted(f"user/{i}" for i in range(30))

    def test_filter_on_sharded_kv_engine_runs_over_the_merged_read(self):
        # The dataflow API lets filters stay on non-relational engines; the
        # KV adapter evaluates them over materialized tables, so the filter
        # runs once, on the primary shard, over the leaf's merged table.
        from repro.ir.graph import IRGraph
        from repro.ir.nodes import Operator
        from repro.middleware.executor import Executor
        from repro.stores.relational.expressions import compare

        plain_system, sharded_system = self._kv_pair(3, 30)

        def run(system):
            graph = IRGraph("chain")
            scan = graph.add(Operator("kv_range", {}, [], "profiles"))
            kept = graph.add(Operator("filter", {
                "predicate": compare("uid", ">=", 5),
            }, [scan.op_id], "profiles"))
            graph.mark_output(kept.op_id)
            outputs, report = Executor(system.catalog).execute(graph)
            return outputs[kept.op_id], report

        sharded_out, report = run(sharded_system)
        plain_out, _ = run(plain_system)
        assert sorted(r["uid"] for r in sharded_out.to_dicts()) == \
            sorted(r["uid"] for r in plain_out.to_dicts())
        [leaf] = [r for r in report.records if r.kind == "kv_range"]
        assert leaf.details["merge"] == "ordered" and leaf.details["shards"] == 3
        filters = [r for r in report.records if r.kind == "filter"]
        assert filters and "merge" not in filters[0].details

    def test_unsupported_kind_on_shard_adapter_errors_cleanly(self):
        # An aggregate bound to a (sharded) KV engine is not executable by
        # the KV adapter; the scatter path must decline so the executor
        # raises its ordinary error instead of a duck-typed misread.
        from repro.exceptions import ExecutionError
        from repro.ir.graph import IRGraph
        from repro.ir.nodes import Operator
        from repro.middleware.executor import Executor
        from repro.stores.relational.operators import AggregateSpec

        _, sharded_system = self._kv_pair(3, 30)
        graph = IRGraph("chain")
        scan = graph.add(Operator("kv_range", {}, [], "profiles"))
        total = graph.add(Operator("aggregate", {
            "group_by": [],
            "aggregates": [AggregateSpec("sum", "uid", "total")],
        }, [scan.op_id], "profiles"))
        graph.mark_output(total.op_id)
        with pytest.raises(ExecutionError):
            Executor(sharded_system.catalog).execute(graph)
