"""EIDE: the expressive programming environment for heterogeneous programs.

One program form: the **dataflow API** (:mod:`repro.eide.dataflow`) —
composable :class:`Dataset` expression trees over engine reads, with
structured predicates (``dataset("db").table("orders").filter(col("age") > 60)``)
or SQL text (``dataset("db").sql("SELECT ... WHERE age > 60")``), which
parses into the same tree.
"""

from repro.eide.dataflow import (
    DataflowNode,
    DataflowProgram,
    Dataset,
    DatasetSource,
    dataset,
    view_dataset,
)
from repro.eide.expressions import Col, canonicalize, col, lit
from repro.eide.natural_language import compile_natural_language, recognize_intent
from repro.eide.program import Param

__all__ = [
    "Param",
    "DataflowProgram",
    "Dataset",
    "DatasetSource",
    "DataflowNode",
    "dataset",
    "view_dataset",
    "col",
    "lit",
    "Col",
    "canonicalize",
    "compile_natural_language",
    "recognize_intent",
]
