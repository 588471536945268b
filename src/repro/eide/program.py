"""Runtime-bound placeholders and the canonical parameter form fingerprints hash.

Both live here (not in :mod:`repro.eide.dataflow`) because persisted view
definitions pickle :class:`Param` by this import path.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

_MISSING = object()


@dataclass(frozen=True)
class Param:
    """A runtime-bound placeholder inside an operator's parameters.

    Prepared programs (``Session.prepare``) compile once with the placeholder
    in place and substitute the bound value on every
    :meth:`~repro.client.PreparedProgram.run` call, like a prepared
    statement's ``?`` markers.  Placeholders may appear anywhere in an
    operator's ``params`` except inside SQL text (``.sql()`` parses when the
    program is built).
    """

    name: str
    default: Any = _MISSING

    @property
    def has_default(self) -> bool:
        """Whether the placeholder carries a fallback value."""
        return self.default is not _MISSING

    def __repr__(self) -> str:  # stable across runs, used by fingerprints
        if self.has_default:
            return f"Param({self.name!r}, default={self.default!r})"
        return f"Param({self.name!r})"


def canonical_value(value: Any) -> str:
    """A deterministic string form of an operator parameter value.

    Containers are recursed (lists and tuples render alike, as do dicts
    and read-only mappings, so freezing a program moves no fingerprint);
    mappings are key-sorted.  Callables
    (``.apply(fn)`` functions) are identified *by identity*, not by
    content — two distinct function objects never collide, so a plan cached
    for one can never be replayed for the other.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_value(v) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(canonical_value(v) for v in value)) + "}"
    if isinstance(value, Mapping):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return "{" + ",".join(f"{canonical_value(k)}:{canonical_value(v)}"
                              for k, v in items) + "}"
    if isinstance(value, Param):
        return repr(value)
    if callable(value):
        module = getattr(value, "__module__", "?")
        qualname = getattr(value, "__qualname__", type(value).__name__)
        return f"<callable {module}.{qualname}@{id(value):x}>"
    return f"<{type(value).__name__}:{value!r}>"
