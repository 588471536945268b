"""Exception hierarchy for the Polystore++ reproduction.

All library-raised exceptions derive from :class:`PolystoreError` so that
callers can distinguish library failures from programming errors with a
single ``except`` clause.
"""

from __future__ import annotations


class PolystoreError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class SchemaError(PolystoreError):
    """A schema is malformed or two schemas are incompatible."""


class DataModelError(PolystoreError):
    """A value does not fit the declared data model (bad type, arity, ...)."""


class StorageError(PolystoreError):
    """A storage engine failed (missing table, duplicate key, bad page, ...)."""


class QueryError(PolystoreError):
    """A query could not be parsed or is semantically invalid."""


class IRError(PolystoreError):
    """An intermediate-representation graph is invalid."""


class CompilationError(PolystoreError):
    """The compiler could not translate a heterogeneous program to IR."""


class ExecutionError(PolystoreError):
    """The executor failed while running a physical plan."""


class CancelledError(ExecutionError):
    """A request was cancelled cooperatively before it completed.

    Raised by :meth:`repro.cancellation.CancellationToken.check` at the
    executor's cancellation checkpoints (stage boundaries, operator starts,
    shard-subtask dispatch), so in-flight work stops instead of running to
    completion after the caller has given up.
    """


class DeadlineExceededError(CancelledError):
    """A request's deadline passed before it completed.

    A deadline is a cancellation with a cause, so ``except CancelledError``
    catches both; callers that care about the distinction (the serving tier
    maps them to different wire error codes) catch this subclass first.
    """


class MigrationError(PolystoreError):
    """Moving data between engines failed."""


class AdapterError(PolystoreError):
    """An engine adapter could not translate or run an IR fragment."""


class AcceleratorError(PolystoreError):
    """An accelerator model was configured or used incorrectly."""


class ConfigurationError(PolystoreError):
    """The Polystore++ deployment configuration is invalid."""


class CatalogError(PolystoreError):
    """The global catalog does not know about a referenced object."""
