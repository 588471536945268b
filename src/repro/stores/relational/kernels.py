"""The one source generator behind the engine's row-at-a-time loops.

A :class:`Source` writes one *kernel* — a predicate or value over ``row[i]``,
a tuple reader, the filter-and-project pass of :func:`select`, the
group-aggregate loop — as Python text specialised to the query and to the
schema's positions, and :meth:`Source.kernel` turns the text into a function.

Literals never reach the text: each is bound as an argument ``k0, k1, …`` of
the factory the text defines.  So compiled factories are cached by query
*shape* (a point read binding a fresh key per request compiles nothing),
values with no source form need no special case, and nothing a user supplies
is ever executed — column names resolve to positions, SQL text to expression
objects.  Each text is compiled under a filename of its own and registered
with :mod:`linecache` for as long as a function made from it is alive:
tracebacks and profiles show the generated line.
"""

from __future__ import annotations

import functools
import itertools
import linecache
import operator
import textwrap
import weakref
from typing import Any, Callable, Iterable, Sequence

from repro.exceptions import QueryError


class _Atom(str):
    """Text that is free to repeat and cannot raise: a column read or ``None``."""


class _Bound(_Atom):
    """A literal bound as an argument: an atom that is never ``None``."""


def _none_on_zero(apply: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def safe(a: Any, b: Any) -> Any:
        try:
            return apply(a, b)
        except ZeroDivisionError:
            return None
    return safe


#: All that a kernel's text can name besides its arguments (no other builtins).
_GLOBALS = {"__builtins__": {}, "div": _none_on_zero(operator.truediv),
            "mod": _none_on_zero(operator.mod), "min": min, "max": max}


#: Numbers each compile's filename: a text compiled again after the cache
#: evicted it gets a new name, so the first one's finalizer cannot pop the
#: entry of its live twin.
_COMPILES = itertools.count()


@functools.lru_cache(maxsize=512)
def factory(kind: str, signature: str, body: str, literals: int
            ) -> Callable[..., Callable[..., Any]]:
    """``bind(k0, k1, …) -> kernel`` for one generated text, compiled once."""
    source = (f"def bind({', '.join(f'k{i}' for i in range(literals))}):\n"
              f"    def kernel({signature}):\n{textwrap.indent(body, ' ' * 8)}\n"
              f"    return kernel\n")
    filename = f"<kernel {kind} {next(_COMPILES)}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = dict(_GLOBALS)
    exec(compile(source, filename, "exec"), namespace)
    # The text lives as long as the factory or a kernel it bound does.
    weakref.finalize(namespace["bind"], linecache.cache.pop, filename, None)
    return namespace["bind"]


class Source:
    """One kernel being written for rows laid out in ``schema``."""

    #: What a column read indexes: ``row[i]``, or another name for one array
    #: per column.
    row = "row"

    def __init__(self, schema: Any) -> None:
        self._schema = schema
        self.constants: list[Any] = []
        self._temporaries = 0

    def column(self, name: str, *, or_none: bool = False) -> str:
        """``row[i]``.  A name the schema lacks reads ``None`` if ``or_none``
        (key columns) and is a :class:`QueryError` otherwise (expressions)."""
        if name in self._schema:
            return _Atom(f"{self.row}[{self._schema.index_of(name)}]")
        if or_none:
            return _Atom("None")
        raise QueryError(f"unknown column {name!r} in expression")

    def cells(self, names: Sequence[str], *, or_none: bool = False) -> str:
        """``(row[2], None, row[0],)``: a tuple of the named columns."""
        return "(" + "".join(self.column(name, or_none=or_none) + "," for name in names) + ")"

    def constant(self, value: Any) -> str:
        """The argument ``value`` is bound as (``None`` is part of the shape)."""
        if value is None:
            return _Atom("None")
        self.constants.append(value)
        return _Bound(f"k{len(self.constants) - 1}")

    def value(self, node: Any, *, truth: bool = False) -> str:
        """``node`` read as a value — a predicate's truth as a ``bool`` — or,
        with ``truth``, where only its truth is read (a filter, a conjunct)."""
        text = node._emit(self)
        return text if truth or not node._truth_only else f"(True if {text} else False)"

    def operands(self, *nodes: Any) -> tuple[list[str], str]:
        """Each operand's value and the test that none of them is ``None``.

        Every operand is evaluated exactly once, left to right, before any is
        tested — so whatever one of them raises, it raises whether or not
        another is ``None`` (operands that cannot raise short-circuit).
        """
        values, checks, strict = [], [], False
        for node in nodes:
            text = bound = self.value(node)
            if not isinstance(text, _Atom):
                self._temporaries += 1
                text = f"t{self._temporaries}"
                bound = f"({text} := {bound})"
                strict = strict or bool(values)
            values.append(text)
            if not isinstance(text, _Bound):
                checks.append(f"({bound} is not None)")
        return values, (" & " if strict else " and ").join(checks) or "True"

    def kernel(self, kind: str, signature: str, body: str) -> Callable[..., Any]:
        """``def kernel(signature): body`` with this source's literals bound."""
        return factory(kind, signature, body, len(self.constants))(*self.constants)


def select(schema: Any, predicate: Any = None, columns: Sequence[str] | None = None
           ) -> Callable[[Iterable[Iterable[Any]]], list[Any]]:
    """``chunks -> rows``: the rows of each chunk that satisfy ``predicate``
    (all, without one), cut down to ``columns`` if given — filtered and
    projected in one comprehension per chunk."""
    out = Source(schema)
    cells = "row" if columns is None else out.cells(columns)
    where = "" if predicate is None else f"\n    if {out.value(predicate, truth=True)}"
    return out.kernel("select", "chunks", "rows = []\nfor chunk in chunks:\n"
                      f"    rows.extend([{cells} for row in chunk{where}])\nreturn rows")
