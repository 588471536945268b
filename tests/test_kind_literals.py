"""Ratchet on the operator vocabulary: lists of kinds live in ``ir/kinds.py``.

What a kind *is* — its data model, arity, whether it can be pinned,
diffed or offloaded — is one row of ``repro.ir.kinds.KINDS``.
A set, tuple, list or dict literal elsewhere under ``src/repro`` holding three
or more strings that are all operator kinds is a second copy of some column,
and copies drift (DESIGN.md "Operator kinds").  This test lists the literals
that stay, with the reason each does, and fails on any other; removing one
means lowering its count here, adding one means arguing for a new line — or,
better, for a new column.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.ir.kinds import KINDS

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
THE_TABLE = "ir/kinds.py"

#: file (relative to ``src/repro``) -> (literals allowed, why they stay)
ALLOWED = {
    "middleware/adapters/relational_adapter.py":
        (1, "supported_kinds(): sits beside the dispatch chain it describes"),
    "middleware/adapters/nosql_adapters.py":
        (4, "supported_kinds() of the key/value, timeseries, graph and text adapters"),
    "middleware/adapters/ml_adapter.py":
        (1, "supported_kinds() of the ML adapter (the array adapter's has two kinds)"),
    "views/incremental.py":
        (1, "_LIFTED maps a kind to its delta-operator class: a dispatch table"),
    "views/delta_ops.py":
        (1, "ORDERED_KINDS: whose recomputed row order a view keeps; only views ask"),
    "compiler/passes/cse.py":
        (1, "never-merged kinds: the stateful ones plus migrate, a placement "
            "artifact; a rule of this pass, not a property of the kinds"),
    "compiler/passes/pushdown.py":
        (1, "kinds whose output columns are their input's: one arm of the "
            "column-provenance rule chain"),
}


def _kind_literals(tree: ast.AST) -> list[int]:
    """Line numbers of literals holding >= 3 strings, all of them operator kinds."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
            items = node.elts
        elif isinstance(node, ast.Dict):
            items = [key for key in node.keys if key is not None]
        else:
            continue
        if len(items) >= 3 and all(
                isinstance(item, ast.Constant) and isinstance(item.value, str)
                and item.value in KINDS for item in items):
            lines.append(node.lineno)
    return sorted(lines)


def _sites() -> dict[str, list[int]]:
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        lines = _kind_literals(ast.parse(path.read_text()))
        if lines and name != THE_TABLE:
            found[name] = lines
    return found


def test_kind_lists_live_in_the_table():
    found = _sites()
    strays = {path: lines for path, lines in found.items() if path not in ALLOWED}
    assert not strays, f"operator-kind literals outside ir/kinds.py (file: lines): {strays}"
    grown = {path: lines for path, lines in found.items()
             if len(lines) > ALLOWED[path][0]}
    assert not grown, f"more kind literals than allowed (file: lines): {grown}"
    stale = {path: (len(found.get(path, ())), allowed)
             for path, (allowed, _) in ALLOWED.items()
             if len(found.get(path, ())) < allowed}
    assert not stale, f"lower these counts, the literals are gone (found, allowed): {stale}"


def test_the_walk_sees_what_it_should():
    source = (
        'A = frozenset({"scan", "filter", "sort"})\n'
        'B = {"scan": 1, "filter": 2, "sort": 3}\n'
        'C = ("scan", "filter")\n'             # two: a local rule, not a list
        'D = ("scan", "filter", "banana")\n'   # not all kinds
        'E = ["join", "union", "limit", 3]\n'  # not all strings
    )
    assert _kind_literals(ast.parse(source)) == [1, 2]
