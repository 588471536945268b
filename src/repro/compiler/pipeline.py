"""The compiler pipeline: frontend -> L1 passes -> placement -> backend plan.

This is the Polystore++ compiler of the paper's Figure 4/6: it takes a
heterogeneous program from the EIDE, lowers it to the hierarchical IR,
applies domain-agnostic L1 optimizations, decides accelerator placement and
hands the executor a staged plan.  Individual passes can be toggled, which
the ablation benchmark (experiment E10) uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.accelerators.simulator import OffloadPlanner, PlacementDecision
from repro.catalog import Catalog
from repro.compiler.annotate import annotate_graph, total_estimated_bytes
from repro.compiler.frontend import Frontend
from repro.compiler.passes import (
    absorb_into_leaves,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_aggregates_into_scans,
    fuse_operators,
    push_down_filters,
    reorder_joins,
)
from repro.compiler.passes.placement import place_accelerators
from repro.eide.dataflow import DataflowProgram
from repro.ir.graph import IRGraph
from repro.ir.validation import assert_valid

if TYPE_CHECKING:  # runtime stats are duck-typed to keep the layering acyclic
    from repro.middleware.feedback import RuntimeStats


@dataclass(frozen=True)
class CompilerOptions:
    """Which optimizations the compiler applies."""

    pushdown: bool = True
    fusion: bool = True
    cse: bool = True
    join_reorder: bool = True
    dce: bool = True
    accelerator_placement: bool = True
    #: Rewrite program subtrees matching registered materialized views into
    #: ``view_read`` operators.  Disable to force base-table execution (the
    #: recompute baseline benchmarks compare against).
    use_views: bool = True

    @classmethod
    def none(cls) -> "CompilerOptions":
        """All optimizations disabled (the unoptimized baseline).

        View rewriting stays on: reading a maintained view is a semantic
        routing choice, not an optimization pass.
        """
        return cls(pushdown=False, fusion=False, cse=False, join_reorder=False,
                   dce=False, accelerator_placement=False)


@dataclass
class CompilationResult:
    """Everything the compiler produces for one program."""

    graph: IRGraph
    pass_counts: dict[str, int] = field(default_factory=dict)
    placement_decisions: list[PlacementDecision] = field(default_factory=list)
    estimated_bytes_before: int = 0
    estimated_bytes_after: int = 0
    #: Wall time the full pipeline took; the plan cache's saved cost.
    compile_time_s: float = 0.0
    #: Fingerprint of the source program (set when compiled via a session).
    source_fingerprint: str | None = None
    #: Structural hash of the optimized, placed plan (operators, engines,
    #: accelerators); two compiles that made the same physical decisions
    #: share it even when their cardinality annotations differ.
    plan_fingerprint: str = ""

    @property
    def offloaded_operators(self) -> int:
        """Number of operators placed on an accelerator."""
        return sum(1 for node in self.graph.nodes() if node.accelerator)

    def summary(self) -> dict[str, object]:
        """Compact dictionary for logs and reports."""
        return {
            "nodes": len(self.graph),
            "offloaded": self.offloaded_operators,
            "passes": dict(self.pass_counts),
            "estimated_bytes_before": self.estimated_bytes_before,
            "estimated_bytes_after": self.estimated_bytes_after,
            "compile_time_s": self.compile_time_s,
        }


class Compiler:
    """Compiles heterogeneous programs to optimized, placed IR graphs."""

    def __init__(self, catalog: Catalog, *, planner: OffloadPlanner | None = None,
                 options: CompilerOptions | None = None,
                 stats: "RuntimeStats | None" = None) -> None:
        self.catalog = catalog
        self.planner = planner
        self.options = options if options is not None else CompilerOptions()
        #: Runtime feedback store; when set, annotation prefers observed
        #: cardinalities and placement uses measured host times.
        self.stats = stats
        self.frontend = Frontend(catalog)

    def compile(self, program: DataflowProgram,
                options: CompilerOptions | None = None) -> CompilationResult:
        """Run the full pipeline on ``program``."""
        started = time.perf_counter()
        opts = options if options is not None else self.options
        graph = self.frontend.lower(program)
        assert_valid(graph)
        annotate_graph(graph, self.catalog, self.stats)
        result = CompilationResult(graph=graph,
                                   estimated_bytes_before=total_estimated_bytes(graph))
        self._optimize(result, opts)
        annotate_graph(graph, self.catalog, self.stats)
        result.estimated_bytes_after = total_estimated_bytes(graph)
        if opts.accelerator_placement and self.planner is not None:
            result.placement_decisions = place_accelerators(graph, self.planner,
                                                            self.stats)
        assert_valid(graph)
        result.plan_fingerprint = _plan_fingerprint(graph)
        result.compile_time_s = time.perf_counter() - started
        return result

    def _optimize(self, result: CompilationResult, opts: CompilerOptions) -> None:
        graph = result.graph
        if opts.cse:
            result.pass_counts["cse"] = eliminate_common_subexpressions(graph)
        if opts.pushdown:
            result.pass_counts["pushdown"] = push_down_filters(graph, self.catalog)
        if opts.fusion:
            result.pass_counts["fusion"] = fuse_operators(graph)
        if opts.pushdown:
            # After fusion merged adjacent filters, fold filters sitting on
            # leaf reads into the leaves as structured predicates (enables
            # engine-side evaluation and shard pruning).
            result.pass_counts["absorb"] = absorb_into_leaves(graph, self.catalog)
        if opts.fusion:
            # After absorption, so the scan's page walk already filters.
            result.pass_counts["aggregate_into_scan"] = fold_aggregates_into_scans(graph)
        annotate_graph(graph, self.catalog, self.stats)
        if opts.join_reorder:
            result.pass_counts["join_reorder"] = reorder_joins(graph)
        if opts.dce:
            result.pass_counts["dce"] = eliminate_dead_code(graph)


def _plan_fingerprint(graph: IRGraph) -> str:
    from repro.middleware.feedback.fingerprint import plan_fingerprint

    return plan_fingerprint(graph)
