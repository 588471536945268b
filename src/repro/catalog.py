"""The global catalog of a Polystore++ deployment.

The catalog knows every registered data-processing engine and hardware
accelerator, which data model each engine speaks, and (through the engines'
own statistics) roughly how much data each holds.  The compiler's frontend
uses it to bind operators to engines; the placement pass uses it to
enumerate offload targets; the executor uses it to find the engine
or device an operator was bound to.
"""

from __future__ import annotations

from typing import Any

from repro.accelerators.base import Accelerator
from repro.exceptions import CatalogError
from repro.stores.base import DataModel, Engine

class Catalog:
    """Registry of engines, accelerators and their metadata."""

    def __init__(self) -> None:
        self._engines: dict[str, Engine] = {}
        self._accelerators: dict[str, Accelerator] = {}

    # -- registration --------------------------------------------------------------

    def register_engine(self, engine: Engine) -> None:
        """Register a data-processing engine under its name."""
        if engine.name in self._engines:
            raise CatalogError(f"engine {engine.name!r} is already registered")
        self._engines[engine.name] = engine

    def register_accelerator(self, accelerator: Accelerator) -> None:
        """Register a hardware accelerator under its device name."""
        name = accelerator.profile.name
        if name in self._accelerators:
            raise CatalogError(f"accelerator {name!r} is already registered")
        self._accelerators[name] = accelerator

    # -- engine lookup -----------------------------------------------------------------

    def engine(self, name: str) -> Engine:
        """The engine registered under ``name``."""
        try:
            return self._engines[name]
        except KeyError as exc:
            raise CatalogError(f"no engine named {name!r}") from exc

    def has_engine(self, name: str) -> bool:
        """Whether an engine with this name is registered."""
        return name in self._engines

    def engines(self) -> list[Engine]:
        """All registered engines."""
        return list(self._engines.values())

    def engines_with_model(self, model: DataModel) -> list[Engine]:
        """Engines speaking the given data model."""
        return [e for e in self._engines.values() if e.data_model is model]

    # -- accelerator lookup ---------------------------------------------------------------

    def accelerator(self, name: str) -> Accelerator:
        """The accelerator registered under ``name``."""
        try:
            return self._accelerators[name]
        except KeyError as exc:
            raise CatalogError(f"no accelerator named {name!r}") from exc

    def accelerators(self) -> list[Accelerator]:
        """All registered accelerators."""
        return list(self._accelerators.values())

    # -- statistics -------------------------------------------------------------------------

    def table_rows(self, engine_name: str, table: str) -> int:
        """Row count of a relational table, or 0 when unknown."""
        engine = self.engine(engine_name)
        statistics = getattr(engine, "table_statistics", None)
        if statistics is None:
            return 0
        try:
            return int(statistics(table).get("rows", 0))
        except Exception:  # noqa: BLE001 - statistics are best effort
            return 0

    def table_columns(self, engine_name: str, table: str) -> tuple[str, ...]:
        """Column names of a relational table, or ``()`` when unknown."""
        engine = self.engine(engine_name)
        schema_of = getattr(engine, "table_schema", None)
        if schema_of is None:
            return ()
        try:
            return schema_of(table).names
        except Exception:  # noqa: BLE001 - best effort
            return ()

    def describe(self) -> dict[str, Any]:
        """A configuration snapshot (what the EIDE would display)."""
        return {
            "engines": [engine.describe() for engine in self._engines.values()],
            "accelerators": [acc.describe() for acc in self._accelerators.values()],
        }
