"""The operator vocabulary: one row per kind, one column per question.

The paper's compiler chapter (§IV-B-1) asks for one IR that the EIDE, the
optimizer, offload placement and the adapters all speak.  What a kind *is* —
which data model runs it, how many inputs it takes, whether its result can
be pinned, diffed or offloaded — is declared here once; every
layer looks its answer up in :data:`KINDS` instead of keeping a list of its
own.  Adding a kind is one row here plus one branch in the adapter that
executes it (adapters keep ``supported_kinds()`` beside the dispatch it
describes).  DESIGN.md "Operator kinds" says which layer reads each column.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stores.base import DataModel


@dataclass(frozen=True)
class Kind:
    """What the layers know about one operator kind."""

    name: str
    #: Data model of the engine that runs the kind when a program names none
    #: (the first registered engine of that model wins); ``None`` = there is
    #: no default engine by design, and ``note`` says why.
    model: DataModel | None
    #: Data-flow inputs the kind takes (``None`` = any number); 0 makes it a leaf.
    inputs: int | None
    #: Parameters an adapter needs to execute the kind.
    required: tuple[str, ...]
    #: Reads engine state (as opposed to only its data-flow inputs).
    source: bool = False
    #: A pure function of engine state and inputs: a prepared program may pin it.
    pure: bool = False
    #: Accepts a structured ``predicate`` parameter the pushdown pass absorbs.
    absorbs: bool = False
    #: A tabular leaf read a view can maintain by diffing snapshots.
    diffable: bool = False
    #: Abstract operator name in the accelerators' kernel registry when the
    #: kind is an offload candidate (paper §III-A).
    kernel: str | None = None
    #: The offloaded work is a dense matrix product: placement sizes it by
    #: matrix dimensions, and the executor charges the device for the flops
    #: the engine counted instead of the rows and bytes it streamed.
    matrix: bool = False
    #: Why the row is unusual (required when ``model`` is ``None``).
    note: str = ""


_M = DataModel

#: kind name -> its row.  Order is presentation only.
KINDS: dict[str, Kind] = {row.name: row for row in (
    # relational
    Kind("scan", _M.RELATIONAL, 0, ("table",), source=True, pure=True,
         absorbs=True, diffable=True),
    Kind("index_seek", _M.RELATIONAL, 0, ("table", "column", "value"),
         source=True, pure=True, diffable=True),
    Kind("filter", _M.RELATIONAL, 1, (), pure=True, kernel="filter"),
    Kind("project", _M.RELATIONAL, 1, (), pure=True, kernel="project"),
    Kind("join", _M.RELATIONAL, 2, ("left_key", "right_key"), pure=True),
    Kind("aggregate", _M.RELATIONAL, 1, ("aggregates",), pure=True),
    Kind("sort", _M.RELATIONAL, 1, ("by",), pure=True, kernel="sort"),
    Kind("limit", _M.RELATIONAL, 1, ("n",), pure=True),
    Kind("top_k", _M.RELATIONAL, 1, ("by", "k"), pure=True),
    # key/value
    Kind("kv_get", _M.KEY_VALUE, 0, ("keys",), source=True, pure=True,
         absorbs=True, diffable=True),
    Kind("kv_range", _M.KEY_VALUE, 0, (), source=True, pure=True, absorbs=True, diffable=True),
    # timeseries
    Kind("ts_range", _M.TIMESERIES, 0, ("series",), source=True, pure=True, diffable=True),
    Kind("window_aggregate", _M.TIMESERIES, None, ("window_s",), source=True,
         pure=True, diffable=True, kernel="window_aggregate"),
    Kind("ts_summarize", _M.TIMESERIES, 0, ("series_prefix",), source=True,
         pure=True, absorbs=True, diffable=True),
    # graph
    Kind("graph_match", _M.GRAPH, 0, ("start_label",), source=True, pure=True),
    Kind("shortest_path", _M.GRAPH, 0, ("start", "end"), source=True, pure=True),
    Kind("neighborhood", _M.GRAPH, 0, (), source=True, pure=True),
    Kind("graph_nodes", _M.GRAPH, 0, (), source=True, pure=True, diffable=True),
    # text
    Kind("text_search", _M.DOCUMENT, 0, ("query",), source=True, pure=True, diffable=True),
    Kind("keyword_features", _M.DOCUMENT, None, ("keywords",), source=True,
         pure=True, absorbs=True, diffable=True),
    # array / ML (train keeps state in its engine: never pinned)
    Kind("matmul", _M.ARRAY, 2, (), kernel="gemm", matrix=True),
    Kind("gemv", _M.ARRAY, 2, (), kernel="gemv", matrix=True),
    Kind("train", _M.TENSOR, None, ("model_name",), kernel="train", matrix=True),
    Kind("predict", _M.TENSOR, 1, ("model_name",), pure=True, kernel="predict", matrix=True),
    Kind("feature_matrix", _M.TENSOR, None, (), pure=True),
    # data movement and glue
    Kind("migrate", None, 1, ("source_engine", "target_engine"), pure=True,
         kernel="serialize",
         note="inserted by the compiler between two engines it has already "
              "chosen; costed per byte, not per row"),
    Kind("materialize", _M.RELATIONAL, 1, (), pure=True),
    Kind("union", _M.RELATIONAL, None, (), pure=True),
    Kind("python_udf", _M.RELATIONAL, None, ("fn",)),
    Kind("view_read", None, 0, ("view",),
         note="served by the view registry, not by an engine"),
)}
