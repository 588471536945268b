"""A small natural-language frontend.

Paper §IV-A-e asks how a natural-language query should be compiled into a
semantically-equivalent heterogeneous program (citing SQLizer and Almond).
This module implements the modest, template-based version of that idea: a
handful of intent patterns are recognized with keyword matching and expanded
into :class:`~repro.eide.dataflow.DataflowProgram` templates over the
deployed stores.  Extracted slots are integers and enter the templates as
typed expressions (``col("pid") == pid``), never as query text.  It is
intentionally rule-based — the paper treats the full problem as open
research.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.eide.dataflow import DataflowProgram, dataset
from repro.eide.expressions import col
from repro.exceptions import CompilationError


@dataclass(frozen=True)
class Intent:
    """A recognized intent with its extracted slots."""

    name: str
    slots: dict[str, int]


_PATTERNS: list[tuple[str, re.Pattern[str]]] = [
    ("predict_stay", re.compile(
        r"(long stay|length of stay|stay at the hospital|stay in (the )?icu)", re.I)),
    ("recommend", re.compile(r"(recommend|next best offer|suggest.*product)", re.I)),
    ("patient_history", re.compile(
        r"(admission history|history of (the )?patient|patient.*admissions)", re.I)),
    ("top_customers", re.compile(r"(top|best).*(customers|spenders)", re.I)),
]

_PATIENT_ID = re.compile(r"patient\s+(?:id\s*)?(\d+)", re.I)
_NUMBER = re.compile(r"\b(\d+)\b")


def recognize_intent(text: str) -> Intent:
    """Classify a natural-language request into one of the known intents."""
    for name, pattern in _PATTERNS:
        if pattern.search(text):
            slots: dict[str, int] = {}
            patient = _PATIENT_ID.search(text)
            if patient:
                slots["patient_id"] = int(patient.group(1))
            number = _NUMBER.search(text)
            if number:
                slots["number"] = int(number.group(1))
            return Intent(name, slots)
    raise CompilationError(
        f"cannot recognize an intent in {text!r}; known intents: "
        f"{[name for name, _ in _PATTERNS]}"
    )


def compile_natural_language(text: str, *, relational_engine: str = "relational",
                             timeseries_engine: str = "timeseries",
                             text_engine: str = "text",
                             ml_engine: str = "ml",
                             kv_engine: str = "keyvalue") -> DataflowProgram:
    """Translate a natural-language request into a dataflow program."""
    intent = recognize_intent(text)
    if intent.name == "predict_stay":
        return _predict_stay_program(relational_engine, timeseries_engine, text_engine,
                                     ml_engine)
    if intent.name == "patient_history":
        return _patient_history_program(intent, relational_engine)
    if intent.name == "top_customers":
        return _top_customers_program(intent, relational_engine)
    return _recommendation_program(relational_engine, kv_engine, ml_engine)


def _predict_stay_program(relational: str, timeseries: str, text: str,
                          ml: str) -> DataflowProgram:
    """The paper's Figure 2 query: will the patient stay more than five days."""
    admissions = (dataset(relational).table("admissions")
                  .project("pid", "age", "num_procedures", "prior_admissions",
                           "long_stay").named("admissions"))
    vitals = dataset(timeseries).timeseries("hr/").named("vitals")
    notes = dataset(text).text().keyword_features(
        ["sepsis", "ventilator", "stable"]).named("notes")
    clinical = admissions.join(vitals, on="pid").named("clinical")
    features = clinical.join(notes, on="pid").named("features")
    program = DataflowProgram("nl-predict-stay")
    program.output("model", features.train(label_column="long_stay",
                                           model_name="model", engine=ml))
    return program


def _patient_history_program(intent: Intent, relational: str) -> DataflowProgram:
    pid = intent.slots.get("patient_id", 1)
    program = DataflowProgram("nl-patient-history")
    program.output("history", dataset(relational).table("admissions")
                   .filter(col("pid") == pid)
                   .project("pid", "admit_date", "diagnosis")
                   .sort("admit_date"))
    return program


def _top_customers_program(intent: Intent, relational: str) -> DataflowProgram:
    k = intent.slots.get("number", 10)
    program = DataflowProgram("nl-top-customers")
    program.output("spend", dataset(relational).table("transactions")
                   .aggregate(["customer_id"], total_spend=("sum", "amount"))
                   .sort("total_spend", descending=True)
                   .limit(k))
    return program


def _recommendation_program(relational: str, kv: str, ml: str) -> DataflowProgram:
    purchases = (dataset(relational).table("transactions")
                 .aggregate(["customer_id"], total_spend=("sum", "amount"),
                            n_orders=("count", None)).named("purchases"))
    profiles = dataset(kv).kv(key_prefix="customer/").named("profiles")
    features = purchases.join(profiles, on="customer_id").named("features")
    program = DataflowProgram("nl-recommendation")
    program.output("model", features.train(label_column="converted",
                                           model_name="model", engine=ml))
    return program
