"""Shared fixtures for the Polystore++ test suite."""

from __future__ import annotations

import pytest

from repro.core import build_accelerated_polystore, build_cpu_polystore
from repro.datamodel import Column, DataType, Schema, Table
from repro.stores import (
    KeyValueEngine,
    MLEngine,
    RelationalEngine,
    TextEngine,
    TimeseriesEngine,
)
from repro.workloads import generate_mimic, load_mimic


@pytest.fixture
def patients_schema() -> Schema:
    """A small patients schema used across relational tests."""
    return Schema([
        Column("pid", DataType.INT),
        Column("age", DataType.INT),
        Column("name", DataType.STRING),
        Column("score", DataType.FLOAT),
    ])


@pytest.fixture
def patients_table(patients_schema: Schema) -> Table:
    """A small patients table."""
    rows = [
        (1, 72, "ada", 0.9),
        (2, 35, "grace", 0.4),
        (3, 85, "alan", 0.7),
        (4, 51, "edsger", 0.2),
        (5, 64, "barbara", 0.6),
    ]
    return Table(patients_schema, rows)


@pytest.fixture
def relational_engine(patients_table: Table) -> RelationalEngine:
    """A relational engine preloaded with the patients table."""
    engine = RelationalEngine("testdb")
    engine.load_table("patients", patients_table)
    return engine


@pytest.fixture
def mimic_engines():
    """A small MIMIC deployment: engines loaded with 60 synthetic patients."""
    dataset = generate_mimic(60, points_per_patient=8, seed=3)
    relational = RelationalEngine("clinical-db")
    timeseries = TimeseriesEngine("monitors")
    text = TextEngine("notes-db")
    ml = MLEngine("dnn-engine")
    load_mimic(dataset, relational=relational, timeseries=timeseries, text=text)
    return {
        "dataset": dataset,
        "relational": relational,
        "timeseries": timeseries,
        "text": text,
        "ml": ml,
    }


@pytest.fixture
def mimic_cpu_system(mimic_engines):
    """A CPU-only polystore over the MIMIC deployment."""
    return build_cpu_polystore([
        mimic_engines["relational"], mimic_engines["timeseries"],
        mimic_engines["text"], mimic_engines["ml"],
    ])


@pytest.fixture
def mimic_accelerated_system(mimic_engines):
    """An accelerated Polystore++ over the MIMIC deployment."""
    return build_accelerated_polystore([
        mimic_engines["relational"], mimic_engines["timeseries"],
        mimic_engines["text"], mimic_engines["ml"],
    ])


@pytest.fixture(autouse=True)
def _views_type_like_the_direct_run(monkeypatch):
    """Suite-wide oracle: whenever any test creates an incremental view, the
    schema its delta program bound to on the seed pass must equal the schema
    of a direct run of the same program through the ordinary pipeline."""
    from repro.views.view import MaterializedView

    seed = MaterializedView.initialize

    def initialize(view):
        seed(view)
        if view.incremental:
            direct = view.system.default_session().prepare(
                view._program, freeze=False).run(reuse_scans=False)
            maintained = view._table if view._state is None else view._state
            assert maintained.schema == direct.output(view.name).schema

    monkeypatch.setattr(MaterializedView, "initialize", initialize)
