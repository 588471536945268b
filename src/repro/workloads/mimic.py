"""Synthetic MIMIC-III-like clinical workload (paper Figure 2).

Real MIMIC-III requires credentialed access, so this generator produces a
synthetic dataset with the same cross-store shape:

* **admissions** (relational): patient demographics, admission metadata and
  the ``long_stay`` label (> 5 days).
* **vital signs** (timeseries): one heart-rate series per patient from the
  bedside monitors.
* **clinical notes** (text): doctors'/nurses' notes; acutely ill patients'
  notes mention sepsis/ventilator terms.
* **ward transfers** (graph): the path each patient takes through hospital
  wards.

The label is correlated with age, number of procedures, abnormal vitals and
acute note language so that the Figure 2 prediction task is learnable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datamodel.schema import Column, DataType, Schema
from repro.datamodel.table import Table
from repro.eide.dataflow import DataflowProgram, dataset
from repro.stores.graph.engine import GraphEngine
from repro.stores.relational.engine import RelationalEngine
from repro.stores.text.engine import TextEngine
from repro.stores.timeseries.engine import TimeseriesEngine
from repro.workloads.generator import clinical_note, rng_for, vital_sign_series

ADMISSIONS_SCHEMA = Schema([
    Column("pid", DataType.INT),
    Column("age", DataType.INT),
    Column("gender", DataType.STRING),
    Column("admit_date", DataType.FLOAT),
    Column("num_procedures", DataType.INT),
    Column("prior_admissions", DataType.INT),
    Column("diagnosis", DataType.STRING),
    Column("long_stay", DataType.INT),
])

_WARDS = ("emergency", "icu", "surgery", "cardiology", "general", "recovery")
_DIAGNOSES = ("pneumonia", "heart failure", "sepsis", "fracture", "copd", "stroke")


@dataclass
class MimicDataset:
    """The generated clinical dataset, one field per data store."""

    admissions: Table
    vitals: dict[int, list[tuple[float, float]]]
    notes: dict[int, str]
    transfers: list[tuple[int, str, str]]
    keywords: tuple[str, ...] = ("sepsis", "ventilator", "stable")

    @property
    def num_patients(self) -> int:
        """Number of generated patients."""
        return len(self.admissions)


def generate_mimic(num_patients: int = 500, *, points_per_patient: int = 48,
                   seed: int = 7) -> MimicDataset:
    """Generate a synthetic MIMIC-like dataset."""
    rng = rng_for(seed)
    rows = []
    vitals: dict[int, list[tuple[float, float]]] = {}
    notes: dict[int, str] = {}
    transfers: list[tuple[int, str, str]] = []
    for pid in range(1, num_patients + 1):
        age = int(rng.integers(18, 95))
        num_procedures = int(rng.poisson(2))
        prior_admissions = int(rng.poisson(1))
        acuity = (
            0.02 * (age - 50)
            + 0.5 * num_procedures
            + 0.4 * prior_admissions
            + rng.normal(0.0, 1.0)
        )
        long_stay = int(acuity > 1.5)
        diagnosis = _DIAGNOSES[int(rng.integers(len(_DIAGNOSES)))]
        rows.append((
            pid, age, "F" if rng.random() < 0.5 else "M",
            float(rng.uniform(0, 365 * 24 * 3600)), num_procedures, prior_admissions,
            diagnosis, long_stay,
        ))
        base_hr = 75.0 + (18.0 if long_stay else 0.0) + rng.normal(0, 4)
        vitals[pid] = vital_sign_series(rng, n_points=points_per_patient, base=base_hr,
                                        spread=6.0 if long_stay else 3.0,
                                        trend=0.05 if long_stay else 0.0)
        notes[pid] = clinical_note(rng, acute=bool(long_stay))
        path_length = int(rng.integers(2, 5))
        wards = ["emergency"] + [
            _WARDS[int(rng.integers(1, len(_WARDS)))] for _ in range(path_length)
        ]
        for src, dst in zip(wards[:-1], wards[1:]):
            transfers.append((pid, src, dst))
    return MimicDataset(Table(ADMISSIONS_SCHEMA, rows), vitals, notes, transfers)


def load_mimic(dataset: MimicDataset, *, relational: RelationalEngine,
               timeseries: TimeseriesEngine, text: TextEngine,
               graph: GraphEngine | None = None) -> None:
    """Load a generated dataset into its engines (one store per data model)."""
    relational.load_table("admissions", dataset.admissions)
    relational.create_index("admissions", "pid", kind="hash")
    for pid, points in dataset.vitals.items():
        timeseries.append_many(f"hr/{pid}", points)
    text.add_documents([
        {"doc_id": f"note/{pid}", "text": note, "metadata": {"pid": pid}}
        for pid, note in dataset.notes.items()
    ])
    if graph is not None:
        for ward in _WARDS:
            if not graph.graph.has_node(ward):
                graph.add_node(ward, "ward", {"name": ward})
        for pid, src, dst in dataset.transfers:
            graph.add_edge(src, dst, "transfer", {"pid": pid})


def build_mimic_program(*, relational: str = "clinical-db", timeseries: str = "monitors",
                        text: str = "notes-db", ml: str = "dnn-engine",
                        min_age: int | None = None,
                        keywords: tuple[str, ...] = ("sepsis", "ventilator", "stable"),
                        epochs: int = 3) -> DataflowProgram:
    """The Figure 2 heterogeneous program: will the patient stay > 5 days.

    P (admissions, relational) ⋈ S (vital-sign summaries, stream) ⋈ notes
    features (text) -> feature vector -> neural-network training.
    """
    where = f" WHERE age >= {min_age}" if min_age is not None else ""
    admissions = dataset(relational).sql(
        "SELECT pid, age, num_procedures, prior_admissions, long_stay "
        f"FROM admissions{where}").named("admissions")
    vitals = dataset(timeseries).timeseries("hr/").named("vitals")
    note_features = dataset(text).text().keyword_features(
        keywords, doc_prefix="note/", id_column="pid").named("note_features")
    clinical = admissions.join(vitals, on="pid").named("clinical")
    features = clinical.join(note_features, on="pid").named("features")
    program = DataflowProgram("mimic-icu-stay")
    program.output("stay_model", features.train(
        label_column="long_stay", model_name="stay_model", hidden_dims=(32, 16),
        epochs=epochs, engine=ml))
    return program


def build_admission_history_program(pid: int, *, relational: str = "clinical-db"
                                    ) -> DataflowProgram:
    """The §III walk-through query: a patient's admissions sorted by date."""
    program = DataflowProgram("mimic-admission-history")
    program.output("history", dataset(relational).sql(
        f"SELECT pid, admit_date, diagnosis FROM admissions WHERE pid = {pid} "
        "ORDER BY admit_date"))
    return program
