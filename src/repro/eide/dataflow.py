"""The composable dataflow API: typed expression trees over engine scans.

A program is built from :class:`Dataset` handles.  Each engine read
(``dataset("salesdb").table(...)``, ``.sql("SELECT ...")``, ``.kv(...)``,
``.timeseries(...)``, ``.text()``, ``.graph()``) returns a lazily-built
expression tree that is composed with ``.filter(col("age") > 60)``,
``.project(...)``, ``.join(...)``, ``.aggregate(...)``, ``.train(...)`` and
``.apply(fn)``.  Nothing executes until the tree is handed to
:meth:`~repro.client.Session.prepare` or
:meth:`~repro.core.system.PolystorePlusPlus.execute`.

The tree vocabulary is deliberately the IR operator vocabulary
(:data:`repro.ir.kinds.KINDS`): a :class:`DataflowNode` is a
value-semantics IR operator, so lowering is a structural walk and the
compiler's passes see *structured* predicate payloads instead of opaque SQL.
SQL text is one more source: :meth:`DatasetSource.sql` parses it, when the
program is built, and folds it into the same tree the combinators build, so
a ``.sql()`` read and its expression twin produce identical fingerprints,
identical IR and share one plan-cache entry.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable, Sequence

from repro.eide.expressions import as_predicate, find_params
from repro.eide.program import Param, canonical_value
from repro.exceptions import CompilationError
from repro.ir.kinds import KINDS
from repro.stores.base import DataModel
from repro.stores.relational.operators import AggregateSpec
from repro.stores.relational.sql import lower_select, parse_select

@dataclass(eq=False)
class DataflowNode:
    """One value-semantics operator of a dataflow expression tree.

    Nodes are shared by reference when a :class:`Dataset` feeds several
    consumers (the subtree then lowers once).
    ``label`` carries the fragment name for reports and output naming; it is
    excluded from the canonical form so renaming intermediates never changes
    a fingerprint.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    inputs: tuple["DataflowNode", ...] = ()
    engine: str | None = None
    label: str | None = None

    def canonical(self) -> str:
        """Deterministic structural form, the unit fingerprints hash over."""
        children = ",".join(child.canonical() for child in self.inputs)
        return (f"{self.kind}@{self.engine or '<auto>'}"
                f"({canonical_value(self.params)})[{children}]")

    def walk(self) -> Iterable["DataflowNode"]:
        """All nodes of the subtree, children first, shared nodes once."""
        seen: set[int] = set()

        def visit(node: "DataflowNode") -> Iterable["DataflowNode"]:
            if id(node) in seen:
                return
            seen.add(id(node))
            for child in node.inputs:
                yield from visit(child)
            yield node

        yield from visit(self)


class _FrozenNode(DataflowNode):
    """A :class:`DataflowNode` that refuses writes: what a frozen program holds.

    Its params are a read-only mapping whose nested lists are tuples.  It
    pickles as a plain :class:`DataflowNode` with dict params, so a view
    defined over a frozen program's output persists like any other.
    """

    @classmethod
    def of(cls, node: DataflowNode,
           inputs: tuple[DataflowNode, ...]) -> "_FrozenNode":
        """A frozen copy of ``node`` over already-frozen ``inputs``."""
        frozen = object.__new__(cls)
        frozen.__dict__.update(kind=node.kind, params=_frozen_value(node.params),
                               inputs=inputs, engine=node.engine,
                               label=node.label)
        return frozen

    def __setattr__(self, name: str, value: Any) -> None:
        raise CompilationError(
            f"cannot set {name!r}: the node belongs to a frozen program")

    def __delattr__(self, name: str) -> None:
        raise CompilationError(
            f"cannot delete {name!r}: the node belongs to a frozen program")

    def __reduce__(self) -> tuple:
        return (DataflowNode, (self.kind, _thawed_value(self.params),
                               self.inputs, self.engine, self.label))


def _frozen_value(value: Any) -> Any:
    """A read-only twin of a param value: mappings become read-only
    mappings, lists tuples and sets frozensets, recursively."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _frozen_value(v) for k, v in value.items()})
    if isinstance(value, list) or type(value) is tuple:
        return tuple(_frozen_value(v) for v in value)
    if isinstance(value, set):
        return frozenset(value)
    return value


def _thawed_value(value: Any) -> Any:
    """The value with plain dicts for the read-only mappings (which cannot
    be pickled) :func:`_frozen_value` made."""
    if isinstance(value, Mapping):
        return {k: _thawed_value(v) for k, v in value.items()}
    if type(value) is tuple:
        return tuple(_thawed_value(v) for v in value)
    return value


class Dataset:
    """A lazily-built dataflow expression; every method returns a new handle."""

    def __init__(self, node: DataflowNode) -> None:
        self.node = node

    # -- relational-style combinators --------------------------------------------------

    def filter(self, predicate: Any) -> "Dataset":
        """Keep rows satisfying a structured predicate (``col("age") > 60``).

        The predicate is canonicalized (commutative operands sorted) so the
        two orders of ``a & b`` fingerprint identically, and stays a typed
        expression all the way down: the pushdown pass absorbs it into the
        leaf scan, which skips the pages its summaries rule out.
        """
        return self._chain("filter", {"predicate": as_predicate(predicate)})

    def project(self, *columns: str) -> "Dataset":
        """Keep only the named columns."""
        if len(columns) == 1 and isinstance(columns[0], (list, tuple)):
            columns = tuple(columns[0])
        if not columns:
            raise CompilationError("project needs at least one column")
        return self._chain("project", {"columns": [str(c) for c in columns]})

    def join(self, other: "Dataset", *, on: str | None = None,
             left_key: str | None = None, right_key: str | None = None,
             how: str = "inner", engine: str | None = None) -> "Dataset":
        """Equi-join with another dataset on a key column."""
        if on is not None:
            left_key = right_key = on
        if left_key is None or right_key is None:
            raise CompilationError("join needs either on= or both left_key= and right_key=")
        node = DataflowNode("join",
                            {"left_key": left_key, "right_key": right_key, "how": how},
                            (self.node, other.node), engine)
        return Dataset(node)

    def aggregate(self, group_by: Sequence[str] | None = None,
                  aggregates: Sequence[AggregateSpec | tuple] | None = None,
                  *, engine: str | None = None,
                  **named: tuple | str) -> "Dataset":
        """Group-by aggregation.

        Aggregates are given either as :class:`AggregateSpec` objects /
        ``(function, column, alias)`` tuples, or as keyword arguments mapping
        the output alias to ``(function, column)`` — ``count`` may pass
        ``None`` as the column::

            ds.aggregate(["region"], total=("sum", "amount"), n=("count", None))
        """
        specs: list[AggregateSpec] = []
        for item in aggregates or ():
            if isinstance(item, AggregateSpec):
                specs.append(item)
            else:
                function, column, alias = item
                specs.append(AggregateSpec(str(function), column, str(alias)))
        for alias, spec in named.items():
            if isinstance(spec, str):
                function, column = spec, alias
            else:
                function, column = spec
            specs.append(AggregateSpec(str(function), column, alias))
        if not specs:
            raise CompilationError("aggregate needs at least one aggregate spec")
        return self._chain("aggregate", {
            "group_by": [str(c) for c in group_by or []],
            "aggregates": specs,
        }, engine=engine)

    def sort(self, by: str, *, descending: bool = False) -> "Dataset":
        """Sort by a column."""
        return self._chain("sort", {"by": str(by), "descending": descending})

    def limit(self, n: int) -> "Dataset":
        """Keep the first ``n`` rows."""
        return self._chain("limit", {"n": int(n)})

    def top_k(self, by: str, k: int, *, descending: bool = True) -> "Dataset":
        """Keep the ``k`` best rows by a column."""
        return self._chain("top_k", {"by": str(by), "k": int(k),
                                     "descending": descending})

    # -- ML heads ----------------------------------------------------------------------

    def feature_matrix(self, *, feature_columns: Sequence[str] | None = None,
                       label_column: str | None = None,
                       engine: str | None = None) -> "Dataset":
        """Convert tabular rows into a dense feature matrix (and labels)."""
        return self._chain("feature_matrix", {
            "feature_columns": list(feature_columns) if feature_columns else None,
            "label_column": label_column,
        }, engine=engine)

    def train(self, *, label_column: str, model_name: str,
              model_type: str = "mlp", hidden_dims: tuple[int, ...] = (32,),
              epochs: int = 5, batch_size: int = 32,
              engine: str | None = None) -> "Dataset":
        """Train a classifier on this dataset's rows."""
        return self._chain("train", {
            "model_name": model_name,
            "model_type": model_type,
            "label_column": label_column,
            "hidden_dims": tuple(hidden_dims),
            "epochs": epochs,
            "batch_size": batch_size,
        }, engine=engine)

    def predict(self, *, model_name: str, engine: str | None = None) -> "Dataset":
        """Score a trained model on this dataset's rows."""
        return self._chain("predict", {"model_name": model_name}, engine=engine)

    # -- escape hatch ------------------------------------------------------------------

    def apply(self, fn: Callable[..., Any], *others: "Dataset",
              engine: str | None = None) -> "Dataset":
        """An arbitrary Python transformation of this (and other) datasets."""
        inputs = (self.node,) + tuple(other.node for other in others)
        return Dataset(DataflowNode("python_udf", {"fn": fn}, inputs, engine))

    # -- naming ------------------------------------------------------------------------

    def named(self, name: str) -> "Dataset":
        """Label this node (fragment name in reports and ``describe()``)."""
        self.node.label = name
        return self

    @property
    def label(self) -> str | None:
        """The node's fragment label, if any."""
        return self.node.label

    # -- internals ---------------------------------------------------------------------

    def _chain(self, kind: str, params: dict[str, Any], *,
               engine: str | None = None) -> "Dataset":
        # Row-shaped combinators inherit the source engine unless overridden
        # (as a ``.sql()`` read binds its whole plan to one engine); ML heads
        # pass an explicit engine (or None for the default tensor engine).
        if engine is None and KINDS[kind].model is not DataModel.TENSOR:
            engine = self.node.engine
        return Dataset(DataflowNode(kind, params, (self.node,), engine))

    def describe(self) -> str:
        """Multi-line rendering of the expression tree."""
        lines: list[str] = []

        def visit(node: DataflowNode, depth: int) -> None:
            label = f" [{node.label}]" if node.label else ""
            interesting = {k: v for k, v in node.params.items()
                           if isinstance(v, (str, int, float, bool))}
            params = ", ".join(f"{k}={v!r}" for k, v in sorted(interesting.items()))
            lines.append(f"{'  ' * depth}{node.kind} @ {node.engine or '<auto>'}"
                         f"({params}){label}")
            for child in node.inputs:
                visit(child, depth + 1)

        visit(self.node, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Dataset({self.node.kind} @ {self.node.engine or '<auto>'})"


class DatasetSource:
    """Scans over one engine; obtained from :func:`dataset`."""

    def __init__(self, engine: str | None) -> None:
        self.engine = engine

    # -- relational --------------------------------------------------------------------

    def table(self, name: str, columns: Sequence[str] | None = None) -> Dataset:
        """A relational table scan."""
        return Dataset(DataflowNode("scan", {
            "table": str(name),
            "columns": list(columns) if columns else None,
        }, (), self.engine))

    def sql(self, query: str) -> Dataset:
        """A ``SELECT`` statement, parsed here into the tree the combinators
        would build, with the whole plan bound to this engine."""
        if not query:
            raise CompilationError("sql() needs query text")

        def step(kind: str, params: dict[str, Any],
                 *children: DataflowNode) -> DataflowNode:
            if kind == "filter":
                params = {"predicate": as_predicate(params["predicate"])}
            return DataflowNode(kind, params, children, self.engine)

        return Dataset(lower_select(
            parse_select(query),
            lambda table: self.table(table).node,
            step))

    def index_seek(self, table: str, column: str, value: Any) -> Dataset:
        """An index lookup on one column value."""
        return Dataset(DataflowNode("index_seek", {
            "table": str(table), "column": str(column), "value": value,
        }, (), self.engine))

    # -- key/value ---------------------------------------------------------------------

    def kv(self, keys: Sequence[str] | None = None, *,
           key_prefix: str | None = None) -> Dataset:
        """A key/value point or prefix lookup."""
        if keys is None and key_prefix is None:
            raise CompilationError("kv needs keys or a key_prefix")
        return Dataset(DataflowNode("kv_get", {
            "keys": list(keys) if keys is not None else None,
            "key_prefix": key_prefix,
        }, (), self.engine))

    def kv_range(self, start: str | None = None, end: str | None = None) -> Dataset:
        """A key-ordered key/value range scan."""
        return Dataset(DataflowNode("kv_range", {"start": start, "end": end},
                                    (), self.engine))

    # -- timeseries --------------------------------------------------------------------

    def timeseries(self, series_prefix: str, *, start: Any = None,
                   end: Any = None) -> Dataset:
        """Per-series summary features for every series under a prefix."""
        return Dataset(DataflowNode("ts_summarize", {
            "series_prefix": str(series_prefix), "start": start, "end": end,
        }, (), self.engine))

    def series(self, key: str, *, start: Any = None, end: Any = None) -> Dataset:
        """The raw points of one series."""
        return Dataset(DataflowNode("ts_range", {
            "series": str(key), "start": start, "end": end,
        }, (), self.engine))

    def window(self, series: str, window_s: float, *,
               aggregation: str = "mean") -> Dataset:
        """Tumbling-window aggregation over one series."""
        return Dataset(DataflowNode("window_aggregate", {
            "series": str(series), "window_s": window_s, "aggregation": aggregation,
        }, (), self.engine))

    # -- text and graph ----------------------------------------------------------------

    def text(self) -> "TextSource":
        """Handle onto a document engine's search and feature reads."""
        return TextSource(self.engine)

    def graph(self) -> "GraphSource":
        """Handle onto a graph engine's traversals."""
        return GraphSource(self.engine)

    def __repr__(self) -> str:
        return f"DatasetSource(engine={self.engine!r})"


class TextSource:
    """Reads over a document (text) engine."""

    def __init__(self, engine: str | None) -> None:
        self.engine = engine

    def search(self, query: str, *, top_k: int = 10) -> Dataset:
        """Ranked full-text search over the indexed documents."""
        return Dataset(DataflowNode("text_search", {
            "query": str(query), "top_k": int(top_k),
        }, (), self.engine))

    def keyword_features(self, keywords: Sequence[str], *,
                         doc_prefix: str | None = None,
                         id_column: str = "doc_id") -> Dataset:
        """Keyword-count features per document."""
        return Dataset(DataflowNode("keyword_features", {
            "keywords": [str(k) for k in keywords],
            "doc_prefix": doc_prefix,
            "id_column": id_column,
        }, (), self.engine))


class GraphSource:
    """Reads over a graph engine."""

    def __init__(self, engine: str | None) -> None:
        self.engine = engine

    def nodes(self, label: str = "") -> Dataset:
        """Properties of every node with the given label."""
        return Dataset(DataflowNode("graph_nodes", {"label": label}, (), self.engine))

    def shortest_path(self, start: str, end: str, *, weighted: bool = False,
                      edge_label: str | None = None) -> Dataset:
        """The shortest path between two nodes."""
        return Dataset(DataflowNode("shortest_path", {
            "start": start, "end": end, "weighted": weighted,
            "edge_label": edge_label,
        }, (), self.engine))

    def neighborhood(self, node_id: str, property_name: str, *,
                     edge_label: str | None = None,
                     aggregation: str = "mean") -> Dataset:
        """An aggregate over one node's neighbourhood property values."""
        return Dataset(DataflowNode("neighborhood", {
            "node_id": node_id, "property_name": property_name,
            "edge_label": edge_label, "aggregation": aggregation,
        }, (), self.engine))

    def match(self, start_label: str, steps: Sequence[Any] = ()) -> Dataset:
        """Label-path pattern matching."""
        return Dataset(DataflowNode("graph_match", {
            "start_label": start_label, "steps": list(steps),
        }, (), self.engine))


def dataset(engine: str | None = None) -> DatasetSource:
    """Scans over the named engine (``None`` lets placement pick defaults)."""
    return DatasetSource(engine)


def resolve_node_engine(node: DataflowNode, catalog: Any) -> str | None:
    """The engine a dataflow node executes on, or ``None`` when there is none.

    The one default-engine rule: an explicit binding wins, otherwise the
    first registered engine speaking the kind's data model.  The frontend
    (which raises on ``None``), the view registry (which engines to
    subscribe to) and the incremental compiler (which engine a delta source
    reads) all resolve through here, so they can never disagree.
    """
    if node.engine is not None:
        return node.engine
    model = KINDS[node.kind].model
    candidates = catalog.engines_with_model(model) if model is not None else ()
    return candidates[0].name if candidates else None


def view_dataset(name: str) -> Dataset:
    """A read of a registered materialized view, as a composable dataset.

    Programs composed over a view read its *maintained* state: the executor
    serves the ``view_read`` from the system's view registry, refreshing
    first when the view's maintenance policy calls for it.  (Programs whose
    subtree merely *matches* a registered view's expression are rewritten to
    this form automatically at compile time.)
    """
    return Dataset(DataflowNode("view_read", {"view": str(name)}, (), None))


class DataflowProgram:
    """A named set of output datasets — the unit sessions prepare and run."""

    def __init__(self, name: str) -> None:
        if not name:
            raise CompilationError("program name must be non-empty")
        self.name = name
        self._outputs: dict[str, DataflowNode] = {}
        self._frozen = False
        self._fingerprint: str | None = None

    # -- construction ------------------------------------------------------------------

    def output(self, name: str, dataset: Dataset) -> Dataset:
        """Mark a dataset as a named program output."""
        if self._frozen:
            raise CompilationError(
                f"program {self.name!r} is frozen; prepared programs cannot be mutated"
            )
        if name in self._outputs:
            raise CompilationError(f"duplicate output name {name!r}")
        if not isinstance(dataset, Dataset):
            raise CompilationError(
                f"output {name!r} must be a Dataset, got {type(dataset).__name__}"
            )
        for existing_name, node in self._outputs.items():
            if node is dataset.node:
                # The executor names results by the producing operator, so
                # one node cannot answer under two output names — fail loudly
                # instead of silently dropping the first name.
                raise CompilationError(
                    f"dataset is already output as {existing_name!r}; outputs "
                    f"must be distinct expression trees (chain e.g. "
                    f".project(...) to output it twice)"
                )
        self._outputs[name] = dataset.node
        return dataset

    # -- identity ----------------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` was called (the program is now immutable)."""
        return self._frozen

    def freeze(self) -> "DataflowProgram":
        """Make the program immutable; returns ``self`` for chaining.

        The output trees are replaced by frozen copies (shared subtrees stay
        shared): a frozen node refuses attribute writes and its params are a
        read-only mapping with tuples for lists.  The :class:`Dataset`
        handles the program was built from keep the originals, so editing
        them no longer reaches the program.  The fingerprint is computed
        here, once.  Freezing a frozen program does nothing.
        """
        if self._frozen:
            return self
        copies: dict[int, DataflowNode] = {}

        def frozen(node: DataflowNode) -> DataflowNode:
            copy = copies.get(id(node))
            if copy is None:
                copy = _FrozenNode.of(node, tuple(frozen(child)
                                                  for child in node.inputs))
                copies[id(node)] = copy
            return copy

        self._outputs = {name: frozen(root) for name, root in self._outputs.items()}
        self._fingerprint = self.fingerprint()
        self._frozen = True
        return self

    def fingerprint(self) -> str:
        """Deterministic identity hash over the canonical dataflow form.

        Structurally equivalent programs — whether read with ``.sql()`` text
        or composed from combinators, frozen or not — produce the same
        fingerprint and therefore share one plan-cache entry.  A frozen
        program returns the hash :meth:`freeze` stored; an unfrozen one
        hashes its trees on every call, so in-place edits show.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        if not self._outputs:
            raise CompilationError(f"program {self.name!r} declares no outputs")
        return fingerprint_outputs(self.name, self._outputs)

    def declared_params(self) -> dict[str, Param]:
        """All :class:`Param` placeholders appearing anywhere in the trees."""
        found: dict[str, Param] = {}
        for root in self._outputs.values():
            for node in root.walk():
                find_params(node.params, found)
        return found

    # -- access ------------------------------------------------------------------------

    @property
    def outputs(self) -> list[str]:
        """Names of the program outputs, in declaration order."""
        return list(self._outputs)

    def output_items(self) -> list[tuple[str, DataflowNode]]:
        """``(name, root node)`` pairs, in declaration order."""
        return list(self._outputs.items())

    def describe(self) -> str:
        """Multi-line summary of the program's expression trees."""
        lines = [f"DataflowProgram({self.name!r}, outputs={len(self._outputs)})"]
        for name, node in self._outputs.items():
            lines.append(f"  {name}:")
            for line in Dataset(node).describe().splitlines():
                lines.append(f"    {line}")
        return "\n".join(lines)


def fingerprint_outputs(name: str, outputs: dict[str, DataflowNode]) -> str:
    """Hash a program name plus its output trees' canonical forms."""
    digest = hashlib.sha256()
    digest.update(name.encode())
    for output_name, node in outputs.items():
        digest.update(b"\x00")
        digest.update(output_name.encode())
        digest.update(b"\x1f")
        digest.update(node.canonical().encode())
    return digest.hexdigest()
