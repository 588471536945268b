"""Snorkel-style SQL-in-the-training-loop workload (paper Figure 3).

The paper's Figure 3 shows a weak-supervision pipeline where ``load_data``
SQL calls are interspersed in the mini-batch SGD loop — the tight SQL/ML
integration Polystore++ wants to identify and accelerate.  This module
provides:

* a generator for an unlabeled-documents table plus labeling functions,
* :func:`run_labeling_pipeline` — the epoch/batch loop issuing a SQL query
  per batch, applying labeling functions, and taking SGD steps,
* a dataflow-program builder expressing the same pipeline so the
  Polystore++ compiler can see (and deduplicate/accelerate) the repeated
  ``load_data`` scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.datamodel.schema import Column, DataType, Schema
from repro.datamodel.table import Table
from repro.eide.dataflow import DataflowProgram, dataset
from repro.stores.ml.logistic import LogisticRegression
from repro.stores.relational.engine import RelationalEngine
from repro.workloads.generator import rng_for

DOCUMENTS_SCHEMA = Schema([
    Column("doc_id", DataType.INT),
    Column("length", DataType.INT),
    Column("num_tables", DataType.INT),
    Column("num_figures", DataType.INT),
    Column("caption_overlap", DataType.FLOAT),
    Column("header_score", DataType.FLOAT),
    Column("true_label", DataType.INT),
])

#: Labeling functions: heuristic votes of -1 (abstain), 0 or 1.
LabelingFunction = Callable[[dict[str, object]], int]


def _lf_many_tables(row: dict[str, object]) -> int:
    return 1 if int(row["num_tables"]) >= 3 else -1


def _lf_caption_overlap(row: dict[str, object]) -> int:
    return 1 if float(row["caption_overlap"]) > 0.6 else -1


def _lf_short_document(row: dict[str, object]) -> int:
    return 0 if int(row["length"]) < 400 else -1


def _lf_header_score(row: dict[str, object]) -> int:
    score = float(row["header_score"])
    if score > 0.7:
        return 1
    if score < 0.2:
        return 0
    return -1


DEFAULT_LABELING_FUNCTIONS: tuple[LabelingFunction, ...] = (
    _lf_many_tables, _lf_caption_overlap, _lf_short_document, _lf_header_score,
)


def generate_documents(num_documents: int = 2000, *, seed: int = 23) -> Table:
    """Generate the unlabeled-documents table stored in the RDBMS."""
    rng = rng_for(seed)
    rows = []
    for doc_id in range(1, num_documents + 1):
        is_rich = rng.random() < 0.45          # documents with extractable tables
        num_tables = int(rng.poisson(4 if is_rich else 1))
        num_figures = int(rng.poisson(2))
        length = int(rng.integers(100, 3000))
        caption_overlap = float(np.clip(rng.normal(0.7 if is_rich else 0.3, 0.15), 0, 1))
        header_score = float(np.clip(rng.normal(0.75 if is_rich else 0.25, 0.2), 0, 1))
        rows.append((doc_id, length, num_tables, num_figures, caption_overlap,
                     header_score, int(is_rich)))
    return Table(DOCUMENTS_SCHEMA, rows)


def load_documents(table: Table, relational: RelationalEngine,
                   *, table_name: str = "documents") -> None:
    """Load the documents table into the relational engine."""
    relational.load_table(table_name, table)


def weak_labels(rows: list[dict[str, object]],
                labeling_functions: tuple[LabelingFunction, ...] = DEFAULT_LABELING_FUNCTIONS
                ) -> np.ndarray:
    """Majority-vote labels from the labeling functions (abstains excluded)."""
    labels = []
    for row in rows:
        votes = [lf(row) for lf in labeling_functions]
        votes = [v for v in votes if v >= 0]
        labels.append(round(sum(votes) / len(votes)) if votes else 0)
    return np.array(labels, dtype=np.float64)


@dataclass
class LabelingPipelineResult:
    """Outcome of one run of the Snorkel-style loop."""

    epochs: int
    batches: int
    sql_queries_issued: int
    rows_loaded: int
    losses: list[float] = field(default_factory=list)
    accuracy_vs_true: float = 0.0


def run_labeling_pipeline(relational: RelationalEngine, *, table_name: str = "documents",
                          epochs: int = 3, batch_size: int = 128,
                          learning_rate: float = 0.2,
                          seed: int = 0) -> LabelingPipelineResult:
    """The Figure 3 loop: per batch, load data with SQL, weak-label it, SGD-step.

    Every batch issues a fresh SQL query against the relational engine (as the
    paper's ``load_data(offset=batch, limit=batch_size)`` does), which is why
    the data-access path is such a large fraction of the pipeline's time.
    """
    total = relational.table_statistics(table_name)["rows"]
    feature_columns = ("length", "num_tables", "num_figures", "caption_overlap",
                       "header_score")
    model = LogisticRegression(len(feature_columns), learning_rate=learning_rate)
    sql_queries = 0
    rows_loaded = 0
    losses: list[float] = []
    batches = 0
    for _ in range(epochs):
        for offset in range(0, total, batch_size):
            query = (
                f"SELECT doc_id, length, num_tables, num_figures, caption_overlap, "
                f"header_score FROM {table_name} WHERE doc_id > {offset} "
                f"AND doc_id <= {offset + batch_size}"
            )
            batch = relational.execute_sql(query)
            sql_queries += 1
            rows_loaded += len(batch)
            if not len(batch):
                continue
            rows = batch.to_dicts()
            labels = weak_labels(rows)
            features = np.array([[float(r[c]) for c in feature_columns] for r in rows])
            # Normalize the length feature so SGD stays well conditioned.
            features[:, 0] = features[:, 0] / 3000.0
            losses.extend(model.fit(features, labels, epochs=1, batch_size=len(rows),
                                    seed=seed))
            batches += 1
    # Accuracy against the hidden true label, evaluated on the full table.
    full = relational.execute_sql(
        f"SELECT length, num_tables, num_figures, caption_overlap, header_score, "
        f"true_label FROM {table_name}")
    rows = full.to_dicts()
    features = np.array([[float(r[c]) for c in feature_columns] for r in rows])
    features[:, 0] = features[:, 0] / 3000.0
    truth = np.array([float(r["true_label"]) for r in rows])
    predictions = model.predict(features)
    accuracy = float(np.mean(predictions == truth)) if len(truth) else 0.0
    return LabelingPipelineResult(
        epochs=epochs,
        batches=batches,
        sql_queries_issued=sql_queries,
        rows_loaded=rows_loaded,
        losses=losses,
        accuracy_vs_true=accuracy,
    )


def build_snorkel_program(*, relational: str = "corpus-db", ml: str = "label-ml",
                          epochs: int = 3) -> DataflowProgram:
    """The same pipeline as one declarative heterogeneous program.

    Expressed this way, the Polystore++ compiler sees a single ``load_data``
    scan feeding training (instead of one SQL round trip per batch), so CSE
    and data-access offload apply.
    """
    load_data = dataset(relational).sql(
        "SELECT doc_id, length, num_tables, num_figures, caption_overlap, header_score, "
        "true_label FROM documents").named("load_data")
    program = DataflowProgram("snorkel-labeling")
    program.output("label_model", load_data.train(
        label_column="true_label", model_name="label_model",
        model_type="logistic", epochs=epochs, engine=ml))
    return program
