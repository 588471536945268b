"""Predicate-pushdown passes (L1 optimizations, paper §IV-B-3).

Two cooperating rewrites:

* :func:`push_down_filters` moves filters as close to the scans as possible:
  through projections, and into one side of a join when the predicate
  references only that side's columns.  Pushing a filter below a join
  shrinks the data crossing engine boundaries — the dominant cost a
  polystore optimizer fights.
* :func:`absorb_into_leaves` then merges a filter sitting directly on a leaf
  read into the leaf itself as a *structured* predicate parameter — no SQL
  string is ever parsed.  Relational scans, key/value lookups, timeseries
  summaries and text keyword features all participate: their adapters
  evaluate the predicate engine-side, and key-equality conjuncts
  additionally become explicit ``keys`` / ``series_keys`` / ``doc_ids`` lists
  that narrow the engine-side read.
"""

from __future__ import annotations

from typing import Any

from repro.catalog import Catalog
from repro.ir.graph import IRGraph
from repro.ir.kinds import KINDS
from repro.ir.nodes import Operator
from repro.stores.relational.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Literal,
    and_,
    split_conjunction,
)


def infer_columns(graph: IRGraph, catalog: Catalog | None = None) -> dict[str, frozenset[str]]:
    """Best-effort set of output column names per node.

    Only the relational subset participates: scans (from catalog schemas),
    projections (their column list), joins (union of both sides), and
    pass-through operators.  Nodes with unknown columns map to an empty set,
    which the pushdown pass treats as "don't touch".
    """
    columns: dict[str, frozenset[str]] = {}
    for node in graph.topological_order():
        if node.kind == "scan":
            names: frozenset[str] = frozenset()
            if catalog is not None and node.engine is not None and node.params.get("table"):
                names = frozenset(catalog.table_columns(node.engine, str(node.params["table"])))
            explicit = node.params.get("columns")
            if explicit:
                names = frozenset(explicit)
            columns[node.op_id] = names
        elif node.kind == "project":
            columns[node.op_id] = frozenset(node.params.get("columns") or [])
        elif node.kind == "join":
            left, right = node.inputs[0], node.inputs[1]
            columns[node.op_id] = columns.get(left, frozenset()) | columns.get(right, frozenset())
        elif node.kind in ("filter", "sort", "limit", "top_k", "migrate", "materialize"):
            source = node.inputs[0] if node.inputs else None
            columns[node.op_id] = columns.get(source, frozenset()) if source else frozenset()
        elif node.kind == "aggregate":
            group_by = frozenset(node.params.get("group_by") or [])
            aliases = frozenset(a.alias for a in node.params.get("aggregates") or [])
            columns[node.op_id] = group_by | aliases
        else:
            columns[node.op_id] = frozenset()
    return columns


def push_down_filters(graph: IRGraph, catalog: Catalog | None = None) -> int:
    """Push filters below projects and joins; returns the number of rewrites."""
    rewrites = 0
    changed = True
    while changed:
        changed = False
        columns = infer_columns(graph, catalog)
        for node in list(graph.nodes()):
            if node.kind != "filter" or not node.inputs:
                continue
            child = graph.node(node.inputs[0])
            if child.kind == "project" and _swap_filter_project(graph, node, child):
                rewrites += 1
                changed = True
                break
            if child.kind == "join" and _push_into_join(graph, node, child, columns):
                rewrites += 1
                changed = True
                break
    return rewrites


def _swap_filter_project(graph: IRGraph, filter_node: Operator,
                         project_node: Operator) -> bool:
    """Rewrite filter(project(x)) into project(filter(x)) when safe."""
    predicate = filter_node.params.get("predicate")
    if not isinstance(predicate, Expression):
        return False
    project_columns = set(project_node.params.get("columns") or [])
    if project_columns and not predicate.referenced_columns() <= project_columns:
        return False
    if len(graph.consumers(project_node.op_id)) != 1 \
            or project_node.op_id in graph.outputs:
        return False  # someone else reads the unfiltered projection
    source = project_node.inputs[0]
    # Rewire: source -> filter -> project -> (old consumers of filter)
    filter_node.inputs = [source]
    project_node.inputs = [filter_node.op_id]
    for consumer in graph.consumers(filter_node.op_id):
        if consumer.op_id != project_node.op_id:
            graph.replace_input(consumer.op_id, filter_node.op_id, project_node.op_id)
    if filter_node.op_id in graph.outputs:
        graph.replace_output(filter_node.op_id, project_node.op_id)
    return True


def _push_into_join(graph: IRGraph, filter_node: Operator, join_node: Operator,
                    columns: dict[str, frozenset[str]]) -> bool:
    """Push conjuncts of a post-join filter into the join side that owns them."""
    predicate = filter_node.params.get("predicate")
    if not isinstance(predicate, Expression):
        return False
    if len(graph.consumers(join_node.op_id)) != 1:
        return False
    left_id, right_id = join_node.inputs[0], join_node.inputs[1]
    left_columns = columns.get(left_id, frozenset())
    right_columns = columns.get(right_id, frozenset())
    if not left_columns and not right_columns:
        return False
    conjuncts = split_conjunction(predicate)
    pushed_left: list[Expression] = []
    pushed_right: list[Expression] = []
    remaining: list[Expression] = []
    for conjunct in conjuncts:
        referenced = conjunct.referenced_columns()
        if left_columns and referenced <= left_columns:
            pushed_left.append(conjunct)
        elif right_columns and referenced <= right_columns:
            pushed_right.append(conjunct)
        else:
            remaining.append(conjunct)
    if not pushed_left and not pushed_right:
        return False
    for side_input, side_predicates in ((left_id, pushed_left), (right_id, pushed_right)):
        if side_predicates:
            side_filter = Operator(
                "filter",
                {"predicate": and_(*side_predicates)},
                engine=graph.node(side_input).engine,
            )
            side_filter.annotations["fragment"] = filter_node.annotations.get("fragment", "")
            graph.insert_between(side_input, join_node.op_id, side_filter)
    if remaining:
        filter_node.params["predicate"] = and_(*remaining)
    else:
        graph.remove(filter_node.op_id)
    return True


# -- absorbing filters into leaf reads --------------------------------------------------

def absorb_into_leaves(graph: IRGraph, catalog: Catalog | None = None) -> int:
    """Merge filters that directly follow a leaf read into the leaf.

    The filter's predicate lands in the leaf's ``predicate`` parameter (ANDed
    with any predicate already absorbed), the filter node disappears, and —
    where a conjunct pins the read's key column to literal values — the leaf
    additionally gains the explicit key list its engine reads by.  Returns the number of filters absorbed.
    """
    rewrites = 0
    changed = True
    while changed:
        changed = False
        for node in list(graph.nodes()):
            if node.kind != "filter" or len(node.inputs) != 1:
                continue
            leaf = graph.node(node.inputs[0])
            if not KINDS[leaf.kind].absorbs or leaf.inputs:
                continue
            if len(graph.consumers(leaf.op_id)) != 1:
                continue  # another consumer needs the unfiltered read
            if leaf.op_id in graph.outputs:
                continue  # the unfiltered read is itself a program output
            predicate = node.params.get("predicate")
            if not isinstance(predicate, Expression):
                continue
            existing = leaf.params.get("predicate")
            if isinstance(existing, Expression):
                predicate = and_(existing, predicate)
            leaf.params["predicate"] = predicate
            _extract_key_routing(leaf)
            _convert_to_index_seek(leaf, catalog)
            if node.op_id in graph.outputs and node.annotations.get("fragment"):
                # The filter was a named program output; its name must keep
                # resolving once the leaf answers in its place.
                leaf.annotations["fragment"] = node.annotations["fragment"]
            graph.remove(node.op_id)
            rewrites += 1
            changed = True
    return rewrites


def _extract_key_routing(leaf: Operator) -> None:
    """Derive explicit key lists from key-column equality conjuncts.

    Key/value prefix lookups become explicit-key lookups, timeseries
    summaries gain a ``series_keys`` list and keyword features a ``doc_ids``
    list, each of which narrows the engine-side read.  Relational scans carry
    the predicate itself, which a partitioned table's heap prunes pages by.
    """
    predicate = leaf.params.get("predicate")
    if not isinstance(predicate, Expression):
        return
    if leaf.kind == "kv_get" and not leaf.params.get("keys"):
        prefix = leaf.params.get("key_prefix")
        key_column = str(leaf.params.get("key_column", "key"))
        values = predicate_key_values(predicate, key_column)
        if values is not None and prefix is not None:
            leaf.params["keys"] = [f"{prefix}{key_text(value)}" for value in values]
    elif leaf.kind == "ts_summarize" and not leaf.params.get("series_keys"):
        prefix = str(leaf.params.get("series_prefix", ""))
        key_column = str(leaf.params.get("key_column", "pid"))
        values = predicate_key_values(predicate, key_column)
        if values is not None:
            leaf.params["series_keys"] = [f"{prefix}{key_text(value)}" for value in values]
    elif leaf.kind == "keyword_features" and not leaf.params.get("doc_ids"):
        prefix = leaf.params.get("doc_prefix") or ""
        id_column = str(leaf.params.get("id_column", "doc_id"))
        values = predicate_key_values(predicate, id_column)
        if values is not None:
            leaf.params["doc_ids"] = [f"{prefix}{key_text(value)}" for value in values]


def _convert_to_index_seek(leaf: Operator, catalog: Catalog | None) -> None:
    """Turn a predicated scan into an ``index_seek`` when an index matches.

    A single-value equality conjunct on an indexed column lets the engine
    answer from the index instead of scanning the heap; the full predicate
    stays on the node (re-checking the equality is cheap and the residual
    conjuncts still must filter).
    """
    if leaf.kind != "scan" or catalog is None or leaf.engine is None:
        return
    predicate = leaf.params.get("predicate")
    if not isinstance(predicate, Expression):
        return
    try:
        engine = catalog.engine(leaf.engine)
    except Exception:  # noqa: BLE001 - unbound engines stay plain scans
        return
    has_index = getattr(engine, "has_index", None)
    if not callable(has_index):
        return
    table = str(leaf.params.get("table", ""))
    for conjunct in split_conjunction(predicate):
        if not (isinstance(conjunct, Comparison) and conjunct.op in ("=", "==")):
            continue
        left, right = conjunct.left, conjunct.right
        if isinstance(right, ColumnRef) and isinstance(left, Literal):
            left, right = right, left
        if not (isinstance(left, ColumnRef) and isinstance(right, Literal)
                and isinstance(right.value, (str, int, float, bool))):
            continue
        if not has_index(table, left.name):
            continue
        leaf.kind = "index_seek"
        leaf.params["column"] = left.name
        leaf.params["value"] = right.value
        return


def predicate_key_values(predicate: Expression, column: str) -> list[Any] | None:
    """Literal values a predicate pins ``column`` to, or ``None``.

    Only top-level conjuncts constrain the key: an equality against a
    literal yields one value, an ``IN`` list yields its members, and several
    key conjuncts intersect.  Non-key conjuncts are ignored (they filter
    rows, not the key list).  Returns ``None`` when no conjunct pins the key.
    """
    values: list[Any] | None = None
    for conjunct in split_conjunction(predicate):
        found = _conjunct_key_values(conjunct, column)
        if found is None:
            continue
        if values is None:
            values = list(found)
        else:
            values = [value for value in values if value in found]
    return values


def key_text(value: Any) -> str:
    """Render a key value the way engines spell it inside prefixed keys.

    Integer-valued floats collapse to their integer form so a predicate
    written as ``col("pid") == 5.0`` still finds the series ``"hr/5"``.
    """
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _conjunct_key_values(conjunct: Expression, column: str) -> list[Any] | None:
    if isinstance(conjunct, Comparison) and conjunct.op in ("=", "=="):
        left, right = conjunct.left, conjunct.right
        if isinstance(right, ColumnRef) and isinstance(left, Literal):
            left, right = right, left
        if (isinstance(left, ColumnRef) and left.name == column
                and isinstance(right, Literal)
                and isinstance(right.value, (str, int, float, bool))):
            return [right.value]
    if (isinstance(conjunct, InList) and isinstance(conjunct.operand, ColumnRef)
            and conjunct.operand.name == column
            and all(isinstance(v, (str, int, float, bool))
                    for v in conjunct.values)):
        return list(conjunct.values)
    return None
