"""Sharded scatter-gather throughput: scan + partial aggregate vs shard count.

The same sales table is loaded into a :class:`~repro.cluster.ShardedEngine`
with 1, 2 and 4 shards (hash-partitioned on ``order_id``), and one prepared
program — scan, filter, group-by partial aggregate — is re-executed against
each deployment.  The headline metric is *charged* throughput: the executor
charges a scatter-gathered operator its critical path (the slowest shard's
thread-CPU time plus the merge), modeling shards as independent machines the
same way migration charges model the network.  Throughput must improve
monotonically from 1 to 4 shards.

A second check rebalances the 2-shard deployment online to 4 shards and
verifies the query answers are identical before, during and after cutover.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_sharded_scan.py -q
Smoke mode (CI):  SHARDED_BENCH_ITERS=1 PYTHONPATH=src python -m pytest ...
"""

from __future__ import annotations

import math
import os

from repro import DataflowProgram, dataset
from repro.cluster import HashPartitioner
from repro.core import build_cpu_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.stores import RelationalEngine

N_ROWS = 6000
SHARD_COUNTS = (1, 2, 4)
#: Timed repetitions per configuration; CI smoke mode sets 1.
ITERATIONS = max(1, int(os.environ.get("SHARDED_BENCH_ITERS", "5")))
#: Required charged-throughput gain per shard doubling.  Ideal scaling is
#: ~2x; the bar is low enough to absorb merge overhead and timer noise while
#: still failing fast if the scatter path stops partitioning work.
MIN_STEP_SPEEDUP = float(os.environ.get("SHARDED_BENCH_MIN_STEP", "1.2"))

_SCHEMA = make_schema(("order_id", DataType.INT), ("customer", DataType.STRING),
                      ("amount", DataType.FLOAT))
_ROWS = [(i, f"c{i % 16}", float((i * 37) % 997)) for i in range(N_ROWS)]


def _deployment(num_shards: int):
    system = build_cpu_polystore([])
    engine = system.register_sharded_engine(
        "salesdb", RelationalEngine, partitioner=HashPartitioner(num_shards))
    engine.load_table("sales", Table(_SCHEMA, _ROWS))
    return system, engine


def _program() -> DataflowProgram:
    program = DataflowProgram("sharded-scan-agg")
    program.output("result", dataset("salesdb").sql(
        "SELECT customer, sum(amount) AS total, count(*) AS n FROM sales "
        "WHERE amount > 100.0 GROUP BY customer"))
    return program


def _charged_time(system) -> tuple[float, list[dict]]:
    """Best-of-N charged execution time plus the (stable) result rows."""
    session = system.session(name="bench-sharded")
    prepared = session.prepare(_program())
    prepared.run(reuse_scans=False)  # warm plan cache and adapters
    best = float("inf")
    rows: list[dict] = []
    for _ in range(ITERATIONS):
        result = prepared.run(reuse_scans=False)
        best = min(best, result.report.total_time_s)
        rows = result.output("result").to_dicts()
    return best, rows


def _totals_match(actual: list[dict], expected: list[dict]) -> bool:
    """Group totals equal modulo float summation order across shards."""
    by_customer = {row["customer"]: row for row in expected}
    if {row["customer"] for row in actual} != set(by_customer):
        return False
    return all(
        row["n"] == by_customer[row["customer"]]["n"]
        and math.isclose(row["total"], by_customer[row["customer"]]["total"],
                         rel_tol=1e-9)
        for row in actual
    )


def test_throughput_improves_monotonically_with_shards():
    charged: dict[int, float] = {}
    reference_rows = None
    for num_shards in SHARD_COUNTS:
        system, _ = _deployment(num_shards)
        charged[num_shards], rows = _charged_time(system)
        if reference_rows is None:
            reference_rows = rows
        else:
            assert _totals_match(rows, reference_rows), \
                f"wrong results at {num_shards} shards"
    throughput = {n: N_ROWS / charged[n] for n in SHARD_COUNTS}
    headline = {
        "experiment": "sharded_scan",
        "rows": N_ROWS,
        **{f"rows_per_s_{n}_shards": throughput[n] for n in SHARD_COUNTS},
        "speedup_1_to_4": throughput[4] / throughput[1],
    }
    for num_shards in SHARD_COUNTS:
        print(f"\n{num_shards} shard(s): {throughput[num_shards]:12,.0f} rows/s "
              f"(charged {charged[num_shards] * 1000:.3f} ms)")
    previous = SHARD_COUNTS[0]
    for num_shards in SHARD_COUNTS[1:]:
        step = throughput[num_shards] / throughput[previous]
        assert step >= MIN_STEP_SPEEDUP, (
            f"{previous} -> {num_shards} shards only scaled {step:.2f}x", headline)
        previous = num_shards


def test_rebalance_2_to_4_keeps_answers_stable():
    system, engine = _deployment(2)
    expected = system.execute(_program()).output("result").to_dicts()

    # Begin the split: reads must keep serving the old map during the copy.
    payloads = engine.begin_rebalance(HashPartitioner(4))
    during = system.execute(_program()).output("result").to_dicts()
    assert during == expected
    from repro.middleware.migration import DataMigrator

    migrator = DataMigrator(system.network)
    for payload in payloads:
        received, _ = migrator.migrate(payload.table, source=payload.source_shard,
                                       target="salesdb")
        engine.apply_payload(payload, received)
    engine.cutover()

    assert engine.num_shards == 4
    after = system.execute(_program()).output("result").to_dicts()
    assert _totals_match(after, expected)
    print(f"\nrebalance moved {sum(p.rows for p in payloads)} rows across "
          f"{len(payloads)} payloads; answers stable")


if __name__ == "__main__":
    test_throughput_improves_monotonically_with_shards()
    test_rebalance_2_to_4_keeps_answers_stable()
