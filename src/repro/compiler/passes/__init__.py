"""L1/L2 optimization passes over the IR."""

from repro.compiler.passes.cse import eliminate_common_subexpressions
from repro.compiler.passes.dce import eliminate_dead_code
from repro.compiler.passes.fusion import fold_aggregates_into_scans, fuse_operators
from repro.compiler.passes.join_reorder import reorder_joins
from repro.compiler.passes.placement import place_accelerators
from repro.compiler.passes.pushdown import (
    absorb_into_leaves,
    infer_columns,
    predicate_key_values,
    push_down_filters,
)

__all__ = [
    "push_down_filters",
    "absorb_into_leaves",
    "predicate_key_values",
    "infer_columns",
    "fuse_operators",
    "fold_aggregates_into_scans",
    "eliminate_dead_code",
    "eliminate_common_subexpressions",
    "reorder_joins",
    "place_accelerators",
]
