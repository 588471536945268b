"""Intermediate-representation nodes.

The paper's compiler chapter (§IV-B-1) calls for a *hierarchical* IR: a
control-level graph whose nodes each carry a data-flow description of one
operator.  Here every node is an :class:`Operator` — a typed, parameterized
unit of work bound (eventually) to an engine or accelerator — and the
:class:`~repro.ir.graph.IRGraph` holds the data-flow edges between them.

A deliberately generic node shape (kind + params + annotations) keeps the
optimization passes uniform: passes match on ``kind`` and rewrite ``params``
without needing one class per operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import IRError
from repro.ir.kinds import KINDS

#: Annotation of a ``scan`` the fusion pass folded an aggregate into: the
#: aggregate's own ``(group_by, AggregateSpecs)``, so the scan returns the
#: aggregate's result (:func:`~repro.compiler.passes.fusion.fold_aggregates_into_scans`).
SCAN_AGGREGATE = "scan_aggregate"
#: Annotation of the ``aggregate`` above such a scan: its input already is
#: its result, which it hands on unchanged.
FOLDED_INTO_SCAN = "folded_into_scan"


@dataclass
class Operator:
    """One IR node: a unit of work with data-flow inputs.

    Attributes:
        op_id: Unique node identifier, assigned by the owning
            :class:`~repro.ir.graph.IRGraph` on :meth:`~IRGraph.add` (each
            graph numbers its own operators, so ids are deterministic per
            graph and independent of any global state).
        kind: Operator kind, a row of :data:`repro.ir.kinds.KINDS`.
        params: Operator-specific parameters (table names, predicates,
            hyper-parameters, ...).
        inputs: ``op_id``\\ s of producer nodes whose outputs this node reads.
        engine: Name of the engine the node is bound to (``None`` until
            placement decides).
        accelerator: Name of the accelerator chosen by the offload planner
            (``None`` when the operator runs on the host engine).
        annotations: Optimizer annotations such as estimated cardinality,
            estimated bytes, selectivity and data model.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    inputs: list[str] = field(default_factory=list)
    engine: str | None = None
    accelerator: str | None = None
    annotations: dict[str, Any] = field(default_factory=dict)
    op_id: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise IRError(f"unknown operator kind {self.kind!r}")

    # -- annotation helpers -----------------------------------------------------------

    @property
    def estimated_rows(self) -> int:
        """Estimated output cardinality (0 when unknown)."""
        return int(self.annotations.get("estimated_rows", 0))

    @estimated_rows.setter
    def estimated_rows(self, value: int) -> None:
        self.annotations["estimated_rows"] = int(value)

    @property
    def estimated_bytes(self) -> int:
        """Estimated output size in bytes (0 when unknown)."""
        return int(self.annotations.get("estimated_bytes", 0))

    @estimated_bytes.setter
    def estimated_bytes(self, value: int) -> None:
        self.annotations["estimated_bytes"] = int(value)

    @property
    def is_accelerable(self) -> bool:
        """Whether this operator kind is an offload candidate."""
        return KINDS[self.kind].kernel is not None

    def describe(self) -> str:
        """One-line rendering used by plan dumps and the executor log."""
        target = self.accelerator or self.engine or "?"
        interesting = {k: v for k, v in self.params.items()
                       if isinstance(v, (str, int, float, bool))}
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(interesting.items()))
        return f"{self.op_id} [{self.kind} @ {target}] ({params})"

    def copy(self) -> "Operator":
        """A deep-enough copy for pass rewrites (new params/annotations dicts)."""
        return Operator(
            kind=self.kind,
            params=dict(self.params),
            inputs=list(self.inputs),
            engine=self.engine,
            accelerator=self.accelerator,
            annotations=dict(self.annotations),
            op_id=self.op_id,
        )
