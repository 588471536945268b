"""Incremental materialized views over the cross-engine changelog.

See DESIGN.md ("Materialized views and the changelog") for the architecture:
engines emit scoped Z-set delta batches (:mod:`repro.stores.changelog`),
:func:`~repro.views.incremental.compile_incremental` lowers a view's
dataflow tree into delta operators, and the
:class:`~repro.views.registry.ViewRegistry` keeps registered views fresh
under eager/deferred/manual/auto maintenance policies while rewriting
matching program subtrees to read the maintained state.
"""

from repro.views.incremental import DeltaProgram, ResyncRequired, compile_incremental
from repro.views.registry import ViewRegistry
from repro.views.view import MaintenancePolicy, MaterializedView, RefreshOutcome
from repro.views.zset import ZSet

__all__ = [
    "DeltaProgram",
    "MaintenancePolicy",
    "MaterializedView",
    "RefreshOutcome",
    "ResyncRequired",
    "ViewRegistry",
    "ZSet",
    "compile_incremental",
]
