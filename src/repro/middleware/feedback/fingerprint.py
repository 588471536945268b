"""Structural operator fingerprints: the keys runtime feedback is stored under.

A fingerprint identifies one operator by *what it computes* — its kind, its
engine binding, its parameters in :func:`~repro.eide.program.canonical_value`
form and (recursively) its inputs' fingerprints — and deliberately excludes
everything that varies between compiles of the same program: op ids,
cardinality annotations and the accelerator chosen by placement.  Two plans
that contain the same subtree therefore share observations, which is what
lets a re-compile consume the statistics the previous plan's execution
recorded.

The *plan* fingerprint is the complement: a hash over the whole optimized
graph including accelerator placements, so the session layer can tell
whether re-optimizing with fed-back statistics actually changed the physical
plan (and only then drop the old plan's pinned scans).
"""

from __future__ import annotations

import hashlib

from repro.eide.program import canonical_value
from repro.ir.graph import IRGraph
from repro.ir.nodes import Operator

#: Annotation key the graph fingerprinting pass writes per node.
FINGERPRINT_KEY = "fingerprint"


def operator_fingerprint(node: Operator, input_fingerprints: list[str]) -> str:
    """Structural fingerprint of one operator given its inputs' fingerprints."""
    digest = hashlib.sha256()
    digest.update(f"{node.kind}@{node.engine or '<unbound>'}".encode())
    digest.update(b"\x00")
    digest.update(canonical_value(node.params).encode())
    for fingerprint in input_fingerprints:
        digest.update(b"\x1f")
        digest.update(fingerprint.encode())
    return digest.hexdigest()


def fingerprint_graph(graph: IRGraph) -> dict[str, str]:
    """Fingerprint every node (bottom-up) and annotate it in place.

    Returns the ``op_id -> fingerprint`` map.  Called from
    :func:`~repro.compiler.annotate.annotate_graph` so the fingerprints always
    reflect the graph's *current* structural form; the last annotate of a
    compile (after absorption and fusion) therefore matches what the executor
    runs and records against.
    """
    fingerprints: dict[str, str] = {}
    for node in graph.topological_order():
        fingerprint = operator_fingerprint(
            node, [fingerprints[input_id] for input_id in node.inputs])
        fingerprints[node.op_id] = fingerprint
        node.annotations[FINGERPRINT_KEY] = fingerprint
    return fingerprints


def plan_fingerprint(graph: IRGraph) -> str:
    """Hash of the physical plan: structure plus accelerator placements.

    Cardinality annotations are excluded on purpose — estimates only matter
    through the decisions they drive (placement, join order, absorption),
    and those are all structural.  Re-optimization that produces the same
    plan fingerprint is a no-op the session can discard, keeping the old
    entry's pinned scans alive.
    """
    digest = hashlib.sha256()
    fingerprints: dict[str, str] = {}
    for node in graph.topological_order():
        fingerprint = node.annotations.get(FINGERPRINT_KEY)
        if not isinstance(fingerprint, str):
            fingerprint = operator_fingerprint(
                node, [fingerprints[input_id] for input_id in node.inputs])
        fingerprints[node.op_id] = fingerprint
        digest.update(fingerprint.encode())
        digest.update(b"\x00")
        digest.update((node.accelerator or "-").encode())
        digest.update(b"\x1e")
    for output_id in graph.outputs:
        digest.update(fingerprints.get(output_id, output_id).encode())
        digest.update(b"\x1f")
    return digest.hexdigest()


def baked_estimates(graph: IRGraph) -> dict[str, int]:
    """``fingerprint -> estimated_rows`` snapshot of a freshly compiled plan.

    The session stores this next to the cached plan; drift between these
    baked estimates and the runtime statistics is what marks a plan stale.
    """
    baked: dict[str, int] = {}
    for node in graph.nodes():
        fingerprint = node.annotations.get(FINGERPRINT_KEY)
        if isinstance(fingerprint, str):
            baked[fingerprint] = node.estimated_rows
    return baked
