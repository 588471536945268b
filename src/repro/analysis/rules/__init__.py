"""The project rules; importing this package registers all of them.

Adding a rule: create a module here that subclasses
:class:`repro.analysis.core.Rule`, calls
:func:`repro.analysis.core.register` at import time, and import it below.
Document it in DESIGN.md ("Invariants & static checks") and
give it positive/negative fixture tests in ``tests/analysis/``.
"""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    async_hygiene,
    cancellation_safety,
    changelog_contract,
    lock_discipline,
    obs_taxonomy,
)

__all__ = [
    "async_hygiene",
    "cancellation_safety",
    "changelog_contract",
    "lock_discipline",
    "obs_taxonomy",
]
