"""Golden identities of every shipped program builder.

The literals below were recorded at the last commit that still authored
these programs through the named-fragment builder (PR 14, 9444e7a), under two
``PYTHONHASHSEED`` values.  The builders now author the dataflow form
directly; they must keep producing the same program fingerprint (so existing
plan caches and feedback keys stay valid) and the same compiled physical
plan.
"""

from __future__ import annotations

import pytest

from repro import compile_natural_language
from repro.core import build_accelerated_polystore
from repro.stores import (
    KeyValueEngine,
    MLEngine,
    RelationalEngine,
    TimeseriesEngine,
)
from repro.workloads import (
    build_admission_history_program,
    build_mimic_program,
    build_recommendation_program,
    build_snorkel_program,
    build_top_spenders_program,
    generate_documents,
    generate_recommendation,
    load_documents,
    load_recommendation,
)

_CLINICAL = {"relational_engine": "clinical-db", "timeseries_engine": "monitors",
             "text_engine": "notes-db", "ml_engine": "dnn-engine"}
_RETAIL = {"relational_engine": "sales-db", "kv_engine": "profiles",
           "ml_engine": "reco-ml"}

#: case -> (deployment, builder)
CASES = {
    "mimic": ("clinical", lambda: build_mimic_program()),
    "mimic_min_age_40": ("clinical", lambda: build_mimic_program(min_age=40)),
    "admission_history_7": ("clinical", lambda: build_admission_history_program(7)),
    "recommendation": ("retail", lambda: build_recommendation_program()),
    "top_spenders_5": ("retail", lambda: build_top_spenders_program(5)),
    "snorkel": ("corpus", lambda: build_snorkel_program()),
    "nl_predict_stay": ("clinical", lambda: compile_natural_language(
        "Will patients have a long stay at the hospital (> 5 days)?", **_CLINICAL)),
    "nl_patient_history": ("clinical", lambda: compile_natural_language(
        "admission history of patient 7", **_CLINICAL)),
    "nl_top_customers": ("retail", lambda: compile_natural_language(
        "top 3 customers this quarter", **_RETAIL)),
    "nl_recommendation": ("retail", lambda: compile_natural_language(
        "recommend the next best offer for users", **_RETAIL)),
}

#: case -> (program.fingerprint(), system.compile(program).plan_fingerprint)
GOLDEN: dict[str, tuple[str, str]] = {
    "admission_history_7": (
        "a1c4473df0f8d93210ff4559779ccaf33cdf00472a92dc1561a9bfb7afbd94a9",
        "9b7387afa46f4beab62d9c2145467a3a55e872258750c41801e9825683c13993"),
    "mimic": (
        "fe01473181f89323c4ba7af923cb512559d6d6b2cb885d2fe33d9a8959574270",
        "c05ebf6a8a302ec71c74c4c0f906244451ecd54bce3962ce8d21ceeb60f799fb"),
    "mimic_min_age_40": (
        "d537f014247455cd741ba9235e8e40a84b8a4fa7351a5bbdd48135615fe3819c",
        "766ba1ce28cb7acd9507f96e36248c375ca11dba959fc8605569b43092cc92f3"),
    "nl_patient_history": (
        "f00f2f2fb8c9c1f29a00625a7c782e8796038a5f4433542b5176d45d80d3da40",
        "9b7387afa46f4beab62d9c2145467a3a55e872258750c41801e9825683c13993"),
    "nl_predict_stay": (
        "ead2a72270e9b58a2003e55523b713267641ef61c58f4792e1e9abeebff335d7",
        "1b622bda0dd70210092bd1229985ac14dc7ceb505b416e673514821565293f5f"),
    "nl_recommendation": (
        "8bc452dffbec50c7cb94f27bc84f1dd7b24a6e5c63efae78ddfee64b33d8ac97",
        "d3d61c0f472cf85eac3c9629aa9e48ec9cc5e3597ae5f5a8a1951733ca978272"),
    "nl_top_customers": (
        "d8453ce87841d7ce2b346ac49e67575ffd8e0d1bfb100111d729c39e1150f626",
        "191baddee6dd285ab5de30e7a780d24c90ab307fd177d811edd86c13af05faa5"),
    "recommendation": (
        "555e13900589355efb0b140bdce6617cc358309e972a90595bcaba5f60e2a360",
        "9dda05dc103466d58c032e64dae96a0400ae40dd9cd1cce934a78b70ede48718"),
    "snorkel": (
        "39649e88b9c38737a532ba2044af333cb25853a68cd6572433d65bb0218ddfc9",
        "28b2fdc647f553cac58da0abf79290146f5682fd4d62db353bfb9f8a1556a871"),
    "top_spenders_5": (
        "f71e14b851d300c3b46699b966bf8cb803150a6c74970b53b7857fc8ea6e5142",
        "97bc19aa10756ca6cfa055074315c777b930f09ccab0d23af0d550b1337b3f33"),
}


def retail_system():
    data = generate_recommendation(80, seed=7)
    relational = RelationalEngine("sales-db")
    keyvalue = KeyValueEngine("profiles")
    timeseries = TimeseriesEngine("clickstream")
    load_recommendation(data, relational=relational, keyvalue=keyvalue,
                        timeseries=timeseries)
    return build_accelerated_polystore([relational, keyvalue, timeseries,
                                        MLEngine("reco-ml")])


def corpus_system():
    relational = RelationalEngine("corpus-db")
    load_documents(generate_documents(200, seed=23), relational)
    return build_accelerated_polystore([relational, MLEngine("label-ml")])


@pytest.fixture
def systems(request):
    return {"clinical": lambda: request.getfixturevalue("mimic_accelerated_system"),
            "retail": retail_system, "corpus": corpus_system}


@pytest.mark.parametrize("case", sorted(CASES))
def test_program_and_plan_fingerprints_are_unchanged(case, systems):
    deployment, build = CASES[case]
    program = build()
    compiled = systems[deployment]().compile(program)
    assert (program.fingerprint(), compiled.plan_fingerprint) == GOLDEN[case]
