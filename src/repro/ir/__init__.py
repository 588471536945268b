"""Hierarchical intermediate representation for heterogeneous programs."""

from repro.ir.graph import IRGraph
from repro.ir.kinds import KINDS, Kind
from repro.ir.nodes import Operator
from repro.ir.validation import assert_valid, validate_graph, validate_operator

__all__ = [
    "IRGraph",
    "Operator",
    "KINDS",
    "Kind",
    "validate_graph",
    "validate_operator",
    "assert_valid",
]
