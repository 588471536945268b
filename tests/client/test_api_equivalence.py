"""SQL-text vs typed-expression equivalence: fingerprints, IR, plan cache, outputs.

For each example pipeline, the build whose relational part is ``.sql(text)``
and the build that composes the same part from typed combinators must
produce the same fingerprint (so they share one plan-cache entry), lower to
the identical optimized IR, and return identical results under both the
accelerated ``polystore++`` mode and a baseline mode.
"""

from __future__ import annotations

import math

import pytest

from repro import DataflowProgram, col, dataset
from repro.core import build_accelerated_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.stores import (
    KeyValueEngine,
    MLEngine,
    RelationalEngine,
    TimeseriesEngine,
)
from repro.workloads import (
    build_mimic_program,
    build_recommendation_program,
    build_top_spenders_program,
    generate_recommendation,
    load_recommendation,
)


# -- pipeline pairs ---------------------------------------------------------------------


def quickstart_pair() -> tuple[DataflowProgram, DataflowProgram]:
    """The quickstart pipeline: SQL aggregate + session features -> train."""
    def build(spend) -> DataflowProgram:
        sessions = dataset("telemetry").timeseries("sessions/").named("sessions")
        features = spend.named("spend").join(
            sessions, left_key="customer_id", right_key="pid").named("features")
        program = DataflowProgram("quickstart")
        program.output("return_model", features.train(
            label_column="any_return", model_name="return_model", epochs=2,
            engine="ml"))
        return program

    return (build(dataset("ordersdb").sql(
        "SELECT customer_id, sum(amount) AS total_spend, count(*) AS n_orders, "
        "max(returned) AS any_return FROM orders GROUP BY customer_id")),
            build(dataset("ordersdb").table("orders").aggregate(
                ["customer_id"], total_spend=("sum", "amount"),
                n_orders=("count", None), any_return=("max", "returned"))))


def recommendation_pair() -> tuple[DataflowProgram, DataflowProgram]:
    """The Figure 1 recommendation pipeline across three stores."""
    from_sql = build_recommendation_program(epochs=2)

    spend = (dataset("sales-db").table("transactions")
             .aggregate(["customer_id"],
                        total_spend=("sum", "amount"), n_orders=("count", None))
             .named("spend"))
    profiles = dataset("profiles").kv(key_prefix="customer/").named("profiles")
    engagement = dataset("clickstream").timeseries("clicks/").named("engagement")
    behaviour = spend.join(engagement, left_key="customer_id",
                           right_key="pid").named("behaviour")
    features = behaviour.join(profiles, left_key="customer_id",
                              right_key="customer_id").named("features")
    model = features.train(label_column="converted", model_name="offer_model",
                           epochs=2, engine="reco-ml")
    typed = DataflowProgram("next-best-offer")
    typed.output("offer_model", model)
    return from_sql, typed


def top_spenders_pair() -> tuple[DataflowProgram, DataflowProgram]:
    """The reporting query: top-k customers by total spend."""
    from_sql = build_top_spenders_program(5)

    top = (dataset("sales-db").table("transactions")
           .aggregate(["customer_id"], total_spend=("sum", "amount"))
           .sort("total_spend", descending=True)
           .limit(5))
    typed = DataflowProgram("top-spenders")
    typed.output("top", top)
    return from_sql, typed


def mimic_pair() -> tuple[DataflowProgram, DataflowProgram]:
    """The Figure 2 ICU-stay pipeline (relational + stream + text -> train)."""
    from_sql = build_mimic_program(min_age=40, epochs=2)

    admissions = (dataset("clinical-db")
                  .table("admissions")
                  .filter(col("age") >= 40)
                  .project("pid", "age", "num_procedures", "prior_admissions",
                           "long_stay")
                  .named("admissions"))
    vitals = dataset("monitors").timeseries("hr/").named("vitals")
    notes = (dataset("notes-db").text()
             .keyword_features(["sepsis", "ventilator", "stable"],
                               doc_prefix="note/", id_column="pid")
             .named("note_features"))
    clinical = admissions.join(vitals, on="pid").named("clinical")
    features = clinical.join(notes, on="pid").named("features")
    model = features.train(label_column="long_stay", model_name="stay_model",
                           hidden_dims=(32, 16), epochs=2, engine="dnn-engine")
    typed = DataflowProgram("mimic-icu-stay")
    typed.output("stay_model", model)
    return from_sql, typed


# -- deployments ------------------------------------------------------------------------


@pytest.fixture
def quickstart_system():
    relational = RelationalEngine("ordersdb")
    schema = make_schema(("order_id", DataType.INT), ("customer_id", DataType.INT),
                         ("amount", DataType.FLOAT), ("returned", DataType.INT))
    relational.load_table("orders", Table(schema, [
        (i, i % 40, (i % 37) * 3.5, int((i % 37) * 3.5 > 90)) for i in range(400)
    ]))
    timeseries = TimeseriesEngine("telemetry")
    for customer in range(40):
        timeseries.append_many(
            f"sessions/{customer}",
            [(float(day), float((customer + day) % 10)) for day in range(10)])
    return build_accelerated_polystore([relational, timeseries, MLEngine("ml")])


@pytest.fixture
def recommendation_system():
    dataset_ = generate_recommendation(80, seed=7)
    relational = RelationalEngine("sales-db")
    keyvalue = KeyValueEngine("profiles")
    timeseries = TimeseriesEngine("clickstream")
    load_recommendation(dataset_, relational=relational, keyvalue=keyvalue,
                        timeseries=timeseries)
    return build_accelerated_polystore([relational, keyvalue, timeseries,
                                        MLEngine("reco-ml")])


PAIRS = {
    "quickstart": quickstart_pair,
    "recommendation": recommendation_pair,
    "top_spenders": top_spenders_pair,
    "mimic": mimic_pair,
}


def _system_for(name: str, request) -> object:
    if name == "quickstart":
        return request.getfixturevalue("quickstart_system")
    if name == "mimic":
        return request.getfixturevalue("mimic_accelerated_system")
    return request.getfixturevalue("recommendation_system")


def _comparable(value) -> object:
    """Canonical form of an output for equality checks."""
    if isinstance(value, Table):
        return sorted(tuple(sorted(row.items())) for row in value.to_dicts())
    if isinstance(value, dict) and "metrics" in value:
        return value["metrics"]
    return value


# -- the equivalence contract -----------------------------------------------------------


@pytest.mark.parametrize("pipeline", sorted(PAIRS))
def test_fingerprints_match(pipeline):
    from_sql, typed = PAIRS[pipeline]()
    assert from_sql.fingerprint() == typed.fingerprint()


@pytest.mark.parametrize("pipeline", sorted(PAIRS))
def test_optimized_ir_is_identical(pipeline, request):
    from_sql, typed = PAIRS[pipeline]()
    system = _system_for(pipeline, request)
    sql_graph = system.compile(from_sql).graph
    typed_graph = system.compile(typed).graph
    assert sql_graph.render() == typed_graph.render()


@pytest.mark.parametrize("pipeline", sorted(PAIRS))
def test_programs_share_one_plan_cache_entry(pipeline, request):
    from_sql, typed = PAIRS[pipeline]()
    system = _system_for(pipeline, request)
    with system.session(name="equivalence") as session:
        first = session.prepare(from_sql)
        second = session.prepare(typed)
        assert first.fingerprint == second.fingerprint
        stats = session.stats()["plan_cache"]
        assert stats["size"] == 1 and stats["hits"] == 1


@pytest.mark.parametrize("pipeline", sorted(PAIRS))
@pytest.mark.parametrize("mode", ["polystore++", "cpu_polystore"])
def test_outputs_identical_across_apis(pipeline, mode, request):
    from_sql, typed = PAIRS[pipeline]()
    system = _system_for(pipeline, request)
    sql_result = system.execute(from_sql, mode=mode)
    typed_result = system.execute(typed, mode=mode)
    assert list(sql_result.outputs) == list(typed_result.outputs)
    for name in sql_result.outputs:
        sql_value = _comparable(sql_result.output(name))
        typed_value = _comparable(typed_result.output(name))
        if isinstance(sql_value, dict):  # model metrics
            for metric, value in sql_value.items():
                assert math.isclose(value, typed_value[metric], rel_tol=1e-9), metric
        else:
            assert sql_value == typed_value
