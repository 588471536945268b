"""Synthetic retail recommendation workload (paper Figure 1).

An enterprise keeps customers and transactions in an RDBMS, user profiles
and external events in a key/value store, and clickstreams in a timeseries
store.  The recommendation program joins all three to predict which
customers will convert on the next best offer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datamodel.schema import Column, DataType, Schema
from repro.datamodel.table import Table
from repro.eide.dataflow import DataflowProgram, dataset
from repro.stores.keyvalue.engine import KeyValueEngine
from repro.stores.relational.engine import RelationalEngine
from repro.stores.timeseries.engine import TimeseriesEngine
from repro.workloads.generator import random_name, rng_for

CUSTOMERS_SCHEMA = Schema([
    Column("customer_id", DataType.INT),
    Column("name", DataType.STRING),
    Column("region", DataType.STRING),
    Column("tenure_years", DataType.INT),
])

TRANSACTIONS_SCHEMA = Schema([
    Column("txn_id", DataType.INT),
    Column("customer_id", DataType.INT),
    Column("amount", DataType.FLOAT),
    Column("category", DataType.STRING),
    Column("timestamp", DataType.FLOAT),
])

_REGIONS = ("north", "south", "east", "west")
_CATEGORIES = ("grocery", "electronics", "travel", "apparel", "home")


@dataclass
class RecommendationDataset:
    """The generated retail dataset, one field per data store."""

    customers: Table
    transactions: Table
    profiles: dict[str, dict[str, object]]
    clickstreams: dict[int, list[tuple[float, float]]]

    @property
    def num_customers(self) -> int:
        """Number of generated customers."""
        return len(self.customers)


def generate_recommendation(num_customers: int = 500, *, transactions_per_customer: int = 8,
                            clicks_per_customer: int = 30, seed: int = 11
                            ) -> RecommendationDataset:
    """Generate a synthetic retail dataset with a learnable conversion label."""
    rng = rng_for(seed)
    customer_rows = []
    transaction_rows = []
    profiles: dict[str, dict[str, object]] = {}
    clickstreams: dict[int, list[tuple[float, float]]] = {}
    txn_id = 0
    for customer_id in range(1, num_customers + 1):
        tenure = int(rng.integers(0, 15))
        region = _REGIONS[int(rng.integers(len(_REGIONS)))]
        customer_rows.append((customer_id, random_name(rng), region, tenure))
        n_txns = max(1, int(rng.poisson(transactions_per_customer)))
        total_spend = 0.0
        for _ in range(n_txns):
            txn_id += 1
            amount = float(rng.gamma(2.0, 40.0))
            total_spend += amount
            transaction_rows.append((
                txn_id, customer_id, amount,
                _CATEGORIES[int(rng.integers(len(_CATEGORIES)))],
                float(rng.uniform(0, 90 * 24 * 3600)),
            ))
        click_rate = rng.uniform(0.5, 5.0)
        clicks = [(float(i * 3600), float(rng.poisson(click_rate)))
                  for i in range(clicks_per_customer)]
        clickstreams[customer_id] = clicks
        engagement = click_rate / 5.0 + tenure / 15.0 + min(total_spend, 2000.0) / 2000.0
        converted = int(engagement + rng.normal(0, 0.35) > 1.2)
        profiles[f"customer/{customer_id}"] = {
            "customer_id": customer_id,
            "loyalty_tier": int(min(3, tenure // 5)),
            "email_opt_in": bool(rng.random() < 0.6),
            "converted": converted,
        }
    return RecommendationDataset(
        customers=Table(CUSTOMERS_SCHEMA, customer_rows),
        transactions=Table(TRANSACTIONS_SCHEMA, transaction_rows),
        profiles=profiles,
        clickstreams=clickstreams,
    )


def load_recommendation(dataset: RecommendationDataset, *, relational: RelationalEngine,
                        keyvalue: KeyValueEngine, timeseries: TimeseriesEngine) -> None:
    """Load the retail dataset into its engines."""
    relational.load_table("customers", dataset.customers)
    relational.load_table("transactions", dataset.transactions)
    relational.create_index("transactions", "customer_id", kind="hash")
    keyvalue.put_many(dataset.profiles)
    for customer_id, clicks in dataset.clickstreams.items():
        timeseries.append_many(f"clicks/{customer_id}", clicks)


def build_recommendation_program(*, relational: str = "sales-db", keyvalue: str = "profiles",
                                 timeseries: str = "clickstream", ml: str = "reco-ml",
                                 epochs: int = 3) -> DataflowProgram:
    """The Figure 1 recommendation program across RDBMS, KV and timeseries stores."""
    spend = dataset(relational).sql(
        "SELECT customer_id, sum(amount) AS total_spend, count(*) AS n_orders "
        "FROM transactions GROUP BY customer_id").named("spend")
    profiles = dataset(keyvalue).kv(key_prefix="customer/").named("profiles")
    engagement = dataset(timeseries).timeseries("clicks/").named("engagement")
    behaviour = spend.join(engagement, left_key="customer_id",
                           right_key="pid").named("behaviour")
    features = behaviour.join(profiles, on="customer_id").named("features")
    program = DataflowProgram("next-best-offer")
    program.output("offer_model", features.train(
        label_column="converted", model_name="offer_model", epochs=epochs,
        engine=ml))
    return program


def build_top_spenders_program(k: int = 10, *, relational: str = "sales-db"
                               ) -> DataflowProgram:
    """A reporting query: the top-k customers by total spend."""
    program = DataflowProgram("top-spenders")
    program.output("top", dataset(relational).sql(
        "SELECT customer_id, sum(amount) AS total_spend FROM transactions "
        f"GROUP BY customer_id ORDER BY total_spend DESC LIMIT {k}"))
    return program
