"""Polystore++ middleware: adapters, data migration, executor and runtime feedback."""

from repro.middleware.adapters import Adapter, adapter_for
from repro.middleware.executor import ExecutionReport, Executor, TaskRecord
from repro.middleware.feedback import ObservedOperator, RuntimeStats
from repro.middleware.migration import DataMigrator, MigrationReport, SimulatedNetwork

__all__ = [
    "Adapter",
    "adapter_for",
    "Executor",
    "ExecutionReport",
    "TaskRecord",
    "RuntimeStats",
    "ObservedOperator",
    "DataMigrator",
    "MigrationReport",
    "SimulatedNetwork",
]
