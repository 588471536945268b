"""Serving demo: a durable partitioned deployment behind the async front-end.

Builds a Polystore++ deployment with a durable data directory and a
relational engine whose table splits into four partitions, starts the serving tier (``system.serve()``), registers
two read programs, and drives it with concurrent tenants over both
transports:

* tenant **pro** (stride weight 4) runs a fleet of in-process clients,
* tenant **free** is quota-throttled (2 requests/s) and collects the
  retryable ``QUOTA_EXCEEDED`` rejections a well-behaved client backs off
  on,
* one client speaks real TCP to show the length-prefixed JSON wire
  protocol round-trips.

The demo finishes by printing the per-tenant serving families from the
Prometheus scrape — requests by outcome, rejects by reason, queue-depth
gauges — exactly what a dashboard would consume.

Run with:  PYTHONPATH=src python examples/serving_demo.py
Fast mode: EXAMPLES_FAST=1 ...  (CI smoke settings)
"""

from __future__ import annotations

import os
import tempfile
import threading

from repro import DataflowProgram, SystemConfig, col
from repro.core import PolystorePlusPlus
from repro.datamodel import DataType, Table, make_schema
from repro.eide import Param
from repro.serve.client import ServeError, TcpClient
from repro.stores import RelationalEngine

FAST = bool(os.environ.get("EXAMPLES_FAST"))
N_ROWS = 500 if FAST else 5_000
N_PRO_CLIENTS = 4 if FAST else 12
N_REQUESTS = 4 if FAST else 10
N_FREE_ATTEMPTS = 6 if FAST else 15


def build_system(data_dir: str) -> PolystorePlusPlus:
    """A durable deployment with a 4-way partitioned relational table."""
    system = PolystorePlusPlus(SystemConfig(
        data_dir=data_dir, obs_enabled=True, obs_trace_sample_rate=0.05,
        serve_pool_size=4))
    engine = system.register_engine(RelationalEngine("ordersdb", partitions=4))
    schema = make_schema(("order_id", DataType.INT),
                         ("customer_id", DataType.INT),
                         ("amount", DataType.FLOAT))
    engine.load_table("orders", Table(schema, [
        (i, i % 100, (i % 37) * 3.5) for i in range(N_ROWS)
    ]), shard_key="order_id")
    return system


def register_programs(system, server) -> None:
    big_spenders = (system.dataset("ordersdb").table("orders")
                    .filter(col("amount") > Param("min_amount", default=100.0))
                    .aggregate(["customer_id"], spend=("sum", "amount")))
    program = DataflowProgram("big_spenders")
    program.output("spend", big_spenders)
    server.register("big_spenders", program)

    order_count = (system.dataset("ordersdb").table("orders")
                   .aggregate([], n=("count", None)))
    count_program = DataflowProgram("order_count")
    count_program.output("n", order_count)
    server.register("order_count", count_program)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="polystore-serving-") as data_dir:
        system = build_system(data_dir)
        server = system.serve(max_queue=64)
        try:
            register_programs(system, server)
            server.set_tenant("pro", weight=4.0)
            server.set_tenant("free", rate=2.0, burst=2.0)

            print("== serving tier ==")
            print(f"TCP address        : {server.address[0]}:{server.address[1]}")
            print(f"programs           : {server.connect().programs()}")

            # -- tenant "pro": a fleet of concurrent in-process clients ----------------
            results = []

            def pro_client(client_id: int) -> None:
                client = server.connect()
                for step in range(N_REQUESTS):
                    response = client.execute(
                        "big_spenders",
                        {"min_amount": 50.0 + 10.0 * (step % 5)},
                        tenant="pro", timeout=120)
                    results.append(len(response["outputs"]["spend"]["rows"]))

            threads = [threading.Thread(target=pro_client, args=(i,))
                       for i in range(N_PRO_CLIENTS)]
            for thread in threads:
                thread.start()

            # -- tenant "free": throttled at 2 req/s, must back off --------------------
            free = server.connect()
            served = rejected = 0
            for _ in range(N_FREE_ATTEMPTS):
                try:
                    free.execute("order_count", tenant="free", timeout=120)
                    served += 1
                except ServeError as exc:
                    assert exc.code == "QUOTA_EXCEEDED" and exc.retryable
                    rejected += 1

            for thread in threads:
                thread.join()

            # -- one real TCP round trip ------------------------------------------------
            host, port = server.address
            with TcpClient(host, port) as tcp:
                over_tcp = tcp.execute("order_count", timeout=120)
            [[total]] = over_tcp["outputs"]["n"]["rows"]
            assert total == N_ROWS, f"TCP count {total} != {N_ROWS}"

            print("\n== traffic ==")
            print(f"pro requests served: {len(results)} "
                  f"({N_PRO_CLIENTS} clients x {N_REQUESTS})")
            print(f"free tenant        : {served} served, {rejected} "
                  "quota-rejected (retryable, with retry_after_s hints)")
            print(f"order_count via TCP: {total} rows")

            print("\n== /metrics scrape (serving families) ==")
            scrape = server.connect().metrics()
            for line in scrape.splitlines():
                if line.startswith("polystore_serve_") and "_bucket" not in line:
                    print(f"  {line}")

            assert len(results) == N_PRO_CLIENTS * N_REQUESTS
            assert rejected > 0, "the free tenant was never throttled"
        finally:
            server.stop()
            system.close()
    print("\nserving demo OK")


if __name__ == "__main__":
    main()
