"""Runtime statistics feedback: observe executions, re-optimize plans.

The compiler and offload planner both start from *a-priori*
cost estimates (catalog row counts, predicate selectivity guesses, roofline
host models).  The executor already measures what actually happened — this
package closes the loop:

* :mod:`~repro.middleware.feedback.fingerprint` gives every IR operator a
  stable structural identity that survives recompilation, so observations
  from one plan inform the next compile of the same (sub)program.
* :mod:`~repro.middleware.feedback.stats` is the thread-safe, EWMA-smoothed
  store of per-operator observed time / cardinality / selectivity the
  executor populates on every run.

Consumers: :func:`~repro.compiler.annotate.annotate_graph` prefers observed
cardinalities over the analytical model, accelerator placement feeds the
measured host time (scaled to the current row estimate) into
:meth:`~repro.accelerators.simulator.OffloadPlanner.decide`, and the session
layer uses drifted estimates to age cached plans (see
:mod:`repro.client.cache`).
"""

from repro.middleware.feedback.fingerprint import (
    baked_estimates,
    fingerprint_graph,
    operator_fingerprint,
    plan_fingerprint,
)
from repro.middleware.feedback.stats import ObservedOperator, RuntimeStats, drift_ratio

__all__ = [
    "RuntimeStats",
    "ObservedOperator",
    "drift_ratio",
    "operator_fingerprint",
    "fingerprint_graph",
    "plan_fingerprint",
    "baked_estimates",
]
