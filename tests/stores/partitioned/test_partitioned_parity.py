"""A partitioned table answers every program as an unpartitioned one does."""

from __future__ import annotations

import pytest

from repro import DataflowProgram, Dataset, col, dataset
from repro.compiler.pipeline import CompilerOptions
from repro.core import build_accelerated_polystore, build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.stores import KeyValueEngine, RelationalEngine

# Amounts are unique so ORDER BY comparisons are deterministic whatever order
# the partitions' rows are read in (ties may legally interleave differently).
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
    """Row-set equality tolerant of float summation order across partitions."""
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
    # A predicate on the shard key: the pages of the other partitions are skipped.
    "SELECT order_id, amount FROM orders WHERE order_id = 17",
    "SELECT order_id, customer FROM orders WHERE order_id IN (3, 40, 77, 200)",
    "SELECT order_id FROM orders WHERE order_id = 5 OR order_id = 99",
    "SELECT * FROM orders WHERE order_id = 1000",
    "SELECT customer, count(*) AS n FROM orders WHERE order_id < 60 GROUP BY customer",
    "SELECT rush, count(*) AS n, sum(amount) AS total FROM orders GROUP BY rush",
    "SELECT order_id, amount FROM orders WHERE customer = 'c3' "
    "ORDER BY amount DESC LIMIT 5",
]


class TestSqlParity:
    @pytest.mark.parametrize("query", SQL_CASES)
    def test_partitioned_matches_unpartitioned(self, query):
        reference = _reference_system()
        system, _ = _sharded_system(4)
        expected = _rows(reference.execute(_sql_program(query)))
        actual = _rows(system.execute(_sql_program(query)))
        _assert_rows_match(actual, expected, ordered="ORDER BY" in query)

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 16, 150])
    def test_parity_across_partition_counts(self, num_shards):
        reference = _reference_system()
        query = SQL_CASES[2]
        expected = _rows(reference.execute(_sql_program(query)))
        system, _ = _sharded_system(num_shards)
        actual = _rows(system.execute(_sql_program(query)))
        _assert_rows_match(actual, expected)

    def test_a_read_records_the_partitions_it_allows(self):
        system, engine = _sharded_system(4)
        result = system.execute(_sql_program(SQL_CASES[2]))
        scans = [r for r in result.report.records if r.kind == "scan"]
        aggregates = [r for r in result.report.records if r.kind == "aggregate"]
        assert scans and scans[0].details == {"shards": 4}
        # One read of one heap, charged as any operator: its wall time.
        assert scans[0].charged_time_s == scans[0].wall_time_s
        # The aggregate above hands on the read's one table.
        assert aggregates[0].details == {}

    def test_single_partition_degenerates_cleanly(self):
        system, _ = _sharded_system(1)
        reference = _reference_system()
        query = SQL_CASES[1]
        _assert_rows_match(_rows(system.execute(_sql_program(query))),
                           _rows(reference.execute(_sql_program(query))))


class TestKeyedReads:
    def test_index_seek_on_shard_key_allows_one_partition(self):
        # The SQL frontend lowers equality predicates to filters; build the
        # index_seek IR node directly, with the predicate pushdown leaves on it.
        from repro.ir.graph import IRGraph
        from repro.ir.nodes import Operator
        from repro.middleware.executor import Executor

        system, engine = _sharded_system(3)
        engine.create_index("orders", "order_id")
        graph = IRGraph("seek")
        node = graph.add(Operator("index_seek", {
            "table": "orders", "column": "order_id", "value": 17,
            "predicate": col("order_id") == 17,
        }, [], "ordersdb"))
        graph.mark_output(node.op_id)
        outputs, report = Executor(system.catalog).execute(graph)
        rows = outputs[node.op_id].to_dicts()
        assert [row["order_id"] for row in rows] == [17]
        assert report.records[0].details["shards"] == 1

    def test_index_seek_on_other_column_allows_every_partition(self):
        from repro.ir.graph import IRGraph
        from repro.ir.nodes import Operator
        from repro.middleware.executor import Executor

        system, engine = _sharded_system(3)
        engine.create_index("orders", "customer")
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


class TestFallbacksAndMixing:
    def test_join_with_another_engine(self):
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

    def test_python_udf_reads_the_partitioned_input(self):
        system, _ = _sharded_system(3)
        program = _program("udf", dataset("ordersdb").sql(
            "SELECT order_id, amount FROM orders"
        ).apply(lambda table: {"rows": len(table)}, engine="ordersdb"))
        result = system.execute(program)
        assert result.output("result") == {"rows": len(ROWS)}

    def test_partitioned_output_is_whole(self):
        system, _ = _sharded_system(3)
        result = system.execute(_sql_program("SELECT order_id FROM orders"))
        table = result.output("result")
        assert len(table) == len(ROWS)
        assert sorted(table.column("order_id")) == list(range(len(ROWS)))


class TestSnapshotPinning:
    def test_pinned_scans_replay_until_any_partition_is_written(self):
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
