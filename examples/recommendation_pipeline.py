"""Enterprise recommendation pipeline across three data stores (paper Figure 1).

Customers and transactions live in an RDBMS, user profiles in a key/value
store and clickstreams in a timeseries store.  The pipeline is declared with
the composable dataflow API: engine scans composed into a feature table that
trains a next-best-offer model.  The example also shows a reporting query, a
structured-predicate point read (the kind the compiler pushes into the scan
— and, on a partitioned table, reads only the key's partition), and the
compiler's view of the optimized plan.

Run with:  python examples/recommendation_pipeline.py
Fast mode: EXAMPLES_FAST=1 python examples/recommendation_pipeline.py
"""

from __future__ import annotations

import os

from repro import DataflowProgram, col
from repro.core import build_accelerated_polystore
from repro.stores import KeyValueEngine, MLEngine, RelationalEngine, TimeseriesEngine
from repro.workloads import generate_recommendation, load_recommendation

FAST = bool(os.environ.get("EXAMPLES_FAST"))
NUM_CUSTOMERS = 120 if FAST else 800
EPOCHS = 2 if FAST else 4


def build_recommendation_flow(system) -> DataflowProgram:
    """The Figure 1 program: RDBMS ⋈ KV ⋈ timeseries -> train."""
    spend = (system.dataset("sales-db").table("transactions")
             .aggregate(["customer_id"],
                        total_spend=("sum", "amount"), n_orders=("count", None))
             .named("spend"))
    profiles = system.dataset("profiles").kv(key_prefix="customer/").named("profiles")
    engagement = system.dataset("clickstream").timeseries("clicks/").named("engagement")
    behaviour = (spend.join(engagement, left_key="customer_id", right_key="pid")
                 .named("behaviour"))
    features = (behaviour.join(profiles, left_key="customer_id",
                               right_key="customer_id").named("features"))
    model = features.train(label_column="converted", model_name="offer_model",
                           epochs=EPOCHS, engine="reco-ml")
    program = DataflowProgram("next-best-offer")
    program.output("offer_model", model)
    return program


def build_top_spenders_flow(system, k: int) -> DataflowProgram:
    """A reporting query: the top-k customers by total spend."""
    top = (system.dataset("sales-db").table("transactions")
           .aggregate(["customer_id"], total_spend=("sum", "amount"))
           .sort("total_spend", descending=True)
           .limit(k))
    program = DataflowProgram("top-spenders")
    program.output("top", top)
    return program


def build_customer_flow(system, customer_id: int) -> DataflowProgram:
    """A structured-predicate point read the compiler pushes into the scan."""
    rows = (system.dataset("sales-db").table("transactions")
            .filter(col("customer_id") == customer_id)
            .aggregate([], total=("sum", "amount"), n=("count", None)))
    program = DataflowProgram("one-customer")
    program.output("summary", rows)
    return program


def main() -> None:
    print(f"Generating a synthetic retail dataset with {NUM_CUSTOMERS} customers...")
    dataset = generate_recommendation(NUM_CUSTOMERS, seed=7)

    relational = RelationalEngine("sales-db")
    keyvalue = KeyValueEngine("profiles")
    timeseries = TimeseriesEngine("clickstream")
    ml = MLEngine("reco-ml")
    load_recommendation(dataset, relational=relational, keyvalue=keyvalue,
                        timeseries=timeseries)
    system = build_accelerated_polystore([relational, keyvalue, timeseries, ml])

    # A reporting query that stays inside the relational engine.
    report = system.execute(build_top_spenders_flow(system, 5))
    print("\nTop 5 customers by spend:")
    for row in report.output("top").to_dicts():
        print(f"  customer {row['customer_id']:>4}  total spend {row['total_spend']:.2f}")

    # A keyed read: the filter is absorbed into the scan as structured IR
    # (with an index it becomes an index_seek; on a partitioned table it
    # reads only the pages of the key's partition).
    summary = system.execute(build_customer_flow(system, 7)).output("summary")
    row = summary.to_dicts()[0]
    print(f"\nCustomer 7: {row['n']} transactions totalling {row['total']:.2f}")

    # The cross-store recommendation program.
    program = build_recommendation_flow(system)
    compilation = system.compile(program)
    print("\nOptimized IR for the recommendation program:")
    print(compilation.graph.render())

    print("\nExecution-mode comparison:")
    print(f"{'mode':<22}{'charged (ms)':>14}{'offloaded ops':>15}{'accuracy':>10}")
    for mode in ("one_size_fits_all", "cpu_polystore", "polystore++"):
        result = system.execute(program, mode=mode)
        model = result.output("offer_model")
        print(f"{mode:<22}{result.total_time_s * 1e3:>14.2f}"
              f"{result.report.offloaded_tasks:>15}"
              f"{model['metrics']['accuracy']:>10.3f}")


if __name__ == "__main__":
    main()
