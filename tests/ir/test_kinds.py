"""The operator-kind table: complete, consistent with the layers that read it,
and equal to the fifteen hand-kept lists it replaced.

The ``PARENT_*`` literals below were copied from the source at commit aee6108
(the last one that kept them per module), less the ``kmeans`` kind deleted
since; each intended difference between them and the table is called out
where it is asserted.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.accelerators.kernels import DEFAULT_MAPPINGS
from repro.catalog import Catalog
from repro.eide.dataflow import DataflowNode, resolve_node_engine
from repro.ir import KINDS, Kind, Operator, validate_operator
from repro.middleware.adapters import adapter_for
from repro.stores import (
    ArrayEngine,
    GraphEngine,
    KeyValueEngine,
    MLEngine,
    RelationalEngine,
    TextEngine,
    TimeseriesEngine,
)
from repro.stores.base import DataModel
from repro.stores.changelog import leaf_read_scope

ENGINES = [RelationalEngine("r"), KeyValueEngine("k"), TimeseriesEngine("t"),
           GraphEngine("g"), TextEngine("d"), MLEngine("m"), ArrayEngine("a")]
ADAPTER_KINDS = {engine.data_model: adapter_for(engine).supported_kinds()
                 for engine in ENGINES}

# -- the lists as the parent commit spelled them ------------------------------------------

PARENT_OPERATOR_KINDS = {
    "scan", "index_seek", "filter", "project", "join", "aggregate", "sort",
    "limit", "top_k", "kv_get", "kv_range", "ts_range", "window_aggregate",
    "ts_summarize", "graph_match", "shortest_path", "neighborhood",
    "graph_nodes", "text_search", "keyword_features", "matmul", "gemv", "train",
    "predict", "feature_matrix", "migrate", "materialize", "union",
    "python_udf", "view_read",
}
PARENT_REQUIRED_PARAMS = {
    "scan": ("table",),
    "index_seek": ("table", "column", "value"),
    "join": ("left_key", "right_key"),
    "aggregate": ("aggregates",),
    "sort": ("by",),
    "limit": ("n",),
    "top_k": ("by", "k"),
    "kv_get": ("keys",),
    "ts_range": ("series",),
    "window_aggregate": ("window_s",),
    "ts_summarize": ("series_prefix",),
    "graph_match": ("start_label",),
    "shortest_path": ("start", "end"),
    "text_search": ("query",),
    "keyword_features": ("keywords",),
    "train": ("model_name",),
    "predict": ("model_name",),
    "migrate": ("source_engine", "target_engine"),
    "python_udf": ("fn",),
    "view_read": ("view",),
}
PARENT_EXPECTED_INPUTS = {
    "scan": 0, "index_seek": 0, "kv_get": 0, "ts_range": 0, "ts_summarize": 0,
    "graph_match": 0, "graph_nodes": 0, "shortest_path": 0, "text_search": 0,
    "join": 2, "union": None, "filter": 1, "project": 1, "aggregate": 1,
    "sort": 1, "limit": 1, "top_k": 1, "window_aggregate": None,
    "keyword_features": None, "matmul": 2, "gemv": 2, "train": None,
    "predict": 1, "feature_matrix": None, "migrate": 1,
    "materialize": 1, "python_udf": None, "neighborhood": 0, "view_read": 0,
}
PARENT_SOURCE_KINDS = {
    "scan", "index_seek", "kv_get", "kv_range", "ts_range", "ts_summarize",
    "window_aggregate", "graph_nodes", "shortest_path", "neighborhood",
    "graph_match", "text_search", "keyword_features",
}
PARENT_KIND_MODELS = {
    DataModel.RELATIONAL: {"scan", "index_seek", "filter", "project", "aggregate",
                           "sort", "limit", "top_k", "union", "materialize",
                           "join", "python_udf"},
    DataModel.KEY_VALUE: {"kv_get", "kv_range"},
    DataModel.TIMESERIES: {"ts_range", "ts_summarize", "window_aggregate"},
    DataModel.GRAPH: {"graph_nodes", "shortest_path", "neighborhood", "graph_match"},
    DataModel.DOCUMENT: {"text_search", "keyword_features"},
    DataModel.TENSOR: {"feature_matrix", "train", "predict"},
}
PARENT_SNAPSHOT_KINDS = {
    "scan", "index_seek", "filter", "project", "join", "aggregate", "sort",
    "limit", "top_k", "kv_get", "kv_range", "ts_range", "window_aggregate",
    "ts_summarize", "graph_match", "shortest_path", "neighborhood",
    "graph_nodes", "text_search", "keyword_features", "feature_matrix",
    "predict", "migrate", "materialize", "union",
}
PARENT_DIFFABLE_LEAVES = {
    "scan", "index_seek", "kv_get", "kv_range", "ts_range", "ts_summarize",
    "window_aggregate", "keyword_features", "text_search", "graph_nodes",
}
PARENT_ABSORBING_LEAF_KINDS = {
    "scan", "kv_get", "kv_range", "ts_summarize", "keyword_features",
}
PARENT_KIND_TO_OPERATOR = {
    "sort": "sort", "filter": "filter", "project": "project",
    "window_aggregate": "window_aggregate", "matmul": "gemm", "gemv": "gemv",
    "train": "train", "predict": "predict", "migrate": "serialize",
}
#: ``scheduler._run_node``'s two tuples: kernels that stream rows on the
#: device, and GEMM work run on the host and charged at the device's rate.
PARENT_DEVICE_RUN = {"sort", "filter", "project", "window_aggregate"}
PARENT_HOST_RUN_DEVICE_CHARGED = {"train", "predict", "matmul", "gemv"}


def _where(**columns) -> set[str]:
    return {name for name, row in KINDS.items()
            if all(getattr(row, column) == value for column, value in columns.items())}


# -- completeness -----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(KINDS))
def test_every_column_is_filled(name):
    row = KINDS[name]
    assert row.name == name
    assert {f.name for f in dataclasses.fields(Kind)} == set(vars(row))
    assert isinstance(row.required, tuple) and all(
        isinstance(param, str) for param in row.required)
    assert row.inputs is None or row.inputs >= 0
    for flag in ("source", "pure", "absorbs", "diffable", "matrix"):
        assert isinstance(getattr(row, flag), bool)
    # A kind names the data model that runs it by default, or says why none does.
    assert isinstance(row.model, DataModel) or (row.model is None and row.note)
    # Columns that only make sense together.
    assert not row.matrix or row.kernel
    assert not (row.absorbs or row.diffable) or row.source


@pytest.mark.parametrize("name", sorted(KINDS))
def test_a_kind_with_a_model_runs_on_that_models_adapter(name):
    model = KINDS[name].model
    if model is not None:
        assert name in ADAPTER_KINDS[model]


def test_adapters_support_nothing_outside_the_table():
    for kinds in ADAPTER_KINDS.values():
        assert kinds <= set(KINDS)


#: The scope a pinned read of each source kind revalidates against (``None`` =
#: the whole engine: prefix summaries and graph traversals cannot name theirs).
READ_SCOPES = {
    "scan": "table:x", "index_seek": "table:x",
    "kv_get": "kv", "kv_range": "kv",
    "ts_range": "series:x", "window_aggregate": "series:x", "ts_summarize": None,
    "graph_match": None, "shortest_path": None, "neighborhood": None,
    "graph_nodes": None,
    "text_search": "docs", "keyword_features": "docs",
}


def test_every_engine_read_has_a_scope_answer():
    assert set(READ_SCOPES) == _where(source=True)
    for name, scope in READ_SCOPES.items():
        assert leaf_read_scope(name, {"table": "x", "series": "x"}) == scope


# -- parity with the lists the table replaced -----------------------------------------------


def test_kind_names():
    assert set(KINDS) == PARENT_OPERATOR_KINDS


def test_required_params():
    assert {name: row.required for name, row in KINDS.items() if row.required} \
        == PARENT_REQUIRED_PARAMS


def test_input_arity():
    # Intended difference: ``kv_range`` had no entry, so one given inputs validated.
    assert {name: row.inputs for name, row in KINDS.items()} \
        == {**PARENT_EXPECTED_INPUTS, "kv_range": 0}


def test_sources():
    assert _where(source=True) == PARENT_SOURCE_KINDS


def test_models():
    for model, kinds in PARENT_KIND_MODELS.items():
        assert _where(model=model) == kinds
    # Intended differences: ``matmul``/``gemv`` had no model, so they could not
    # default to the array engine; ``migrate``/``view_read`` have none by design.
    assert _where(model=DataModel.ARRAY) == {"matmul", "gemv"}
    assert _where(model=None) == {"migrate", "view_read"}


def test_pinnable():
    assert _where(pure=True) == PARENT_SNAPSHOT_KINDS


def test_diffable_and_absorbing_leaves():
    assert _where(diffable=True) == PARENT_DIFFABLE_LEAVES
    assert _where(absorbs=True) == PARENT_ABSORBING_LEAF_KINDS


def test_offload():
    assert {name: row.kernel for name, row in KINDS.items() if row.kernel} \
        == PARENT_KIND_TO_OPERATOR
    # ``ACCELERABLE_KINDS`` (read by nothing but ``is_accelerable``) was the same set.
    assert {name for name in KINDS if Operator(name).is_accelerable} \
        == set(PARENT_KIND_TO_OPERATOR)
    assert _where(matrix=True) == PARENT_HOST_RUN_DEVICE_CHARGED
    assert {name for name, row in KINDS.items()
            if row.kernel and not row.matrix} - {"migrate"} == PARENT_DEVICE_RUN


# -- the drift the table exposed (each fails at the parent commit) ------------------------


@pytest.mark.parametrize("name", sorted(_where(inputs=0)))
def test_a_leaf_given_inputs_is_rejected(name):
    params = {param: "x" for param in KINDS[name].required}
    node = Operator(name, params, inputs=["upstream"], op_id="n1")
    assert validate_operator(node) == [f"n1: {name} expects 0 inputs, has 1"]
    assert validate_operator(Operator(name, params, op_id="n1")) == []


@pytest.mark.parametrize("name", sorted(KINDS))
def test_every_kind_resolves_a_default_engine_or_says_why_not(name):
    """At the parent ``matmul`` and ``gemv`` resolved to nothing."""
    catalog = Catalog()
    for engine in ENGINES:
        catalog.register_engine(engine)
    resolved = resolve_node_engine(DataflowNode(name), catalog)
    row = KINDS[name]
    if row.model is None:
        assert resolved is None and row.note
    else:
        assert catalog.engine(resolved).data_model is row.model
    assert resolve_node_engine(DataflowNode(name, engine="pinned"), catalog) == "pinned"


@pytest.mark.parametrize("name", sorted(n for n, row in KINDS.items() if row.kernel))
def test_every_offloadable_kind_names_a_registered_kernel(name):
    assert KINDS[name].kernel in DEFAULT_MAPPINGS
