"""What the invariant tests share: the parsed ``src/repro`` tree and AST helpers.

Each ``test_<invariant>.py`` beside this module is one check, shaped like
``tests/test_kind_literals.py``: plain functions over an ``ast.Module`` that
return ``[(line, message)]``, one test that walks the real tree and fails
on any finding its ``ALLOWED`` dict does not name, and fixtures that call
the functions on inline code.
"""

from __future__ import annotations

import ast
import functools
import textwrap
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parents[2]

#: A check: ``(tree, repo-relative path) -> [(line, message)]``.
Check = Callable[[ast.Module, str], list[tuple[int, str]]]


@functools.cache
def src_trees() -> dict[str, ast.Module]:
    """Every module under ``src/repro``, parsed once, by repo-relative path."""
    return {path.relative_to(ROOT).as_posix():
            ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "repro").rglob("*.py"))}


def parse(code: str) -> ast.Module:
    return ast.parse(textwrap.dedent(code))


def qualname_at(tree: ast.Module, line: int) -> str:
    """``Class.method`` of the innermost classes and defs spanning ``line``."""
    names: list[str] = []
    node: ast.AST = tree
    while True:
        for child in ast.iter_child_nodes(node):
            if getattr(child, "lineno", line + 1) <= line <= getattr(
                    child, "end_lineno", 0):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    names.append(child.name)
                node = child
                break
        else:
            return ".".join(names) or "<module>"


def tree_problems(check: Check, allowed: dict[tuple[str, str], str],
                  trees: dict[str, ast.Module] | None = None) -> list[str]:
    """What the real tree breaks, against its allow-list.

    A finding whose ``(file, "Class.method")`` is not in ``allowed`` is a
    problem; so is an entry with an empty reason, and an entry that excuses
    no finding -- an exemption must not outlive the method it names.
    """
    found: dict[tuple[str, str], list[str]] = {}
    for path, tree in (src_trees() if trees is None else trees).items():
        for line, message in check(tree, path):
            found.setdefault((path, qualname_at(tree, line)), []).append(
                f"{path}:{line}: {message}")
    problems = [text for key, texts in found.items() if key not in allowed
                for text in texts]
    problems += [f"ALLOWED{key} gives no reason"
                 for key, reason in allowed.items() if not reason.strip()]
    problems += [f"ALLOWED{key} excuses no finding; delete the entry"
                 for key in allowed if key not in found]
    return problems


def seeded_problems(check: Check, allowed: dict[tuple[str, str], str],
                    path: str, *edits: tuple[str, str]) -> str:
    """The tree test's report on ``path`` alone (checks run per file), edited."""
    text = (ROOT / path).read_text(encoding="utf-8")
    for old, new in edits:
        assert text.count(old) == 1, f"{path} no longer holds {old!r} once"
        text = text.replace(old, new)
    return "\n".join(tree_problems(check, allowed, {path: ast.parse(text)}))


def attr_chain(node: ast.AST) -> list[str] | None:
    """The dotted-name chain of an attribute/name expression.

    ``self._shards[i].insert`` -> ``["self", "_shards", "insert"]`` —
    subscripts are transparent, calls and anything else terminate the
    chain (``None`` when the expression is not chain-shaped).
    """
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return list(reversed(parts))
        else:
            return None


def fstring_prefix(node: ast.AST) -> str | None:
    """Static leading text of a string or f-string expression.

    Returns the full value for plain string constants, the leading literal
    part of an f-string (``f"op:{x}"`` -> ``"op:"``), and ``None`` when
    nothing static leads the expression.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


def walk_scope(root: ast.AST, *, skip_nested_functions: bool = True
               ) -> Iterator[ast.AST]:
    """Walk ``root``'s body without descending into nested function defs.

    Nested ``def``/``lambda`` bodies execute at call time, not while the
    enclosing block (and its locks) is live, so scope-sensitive rules must
    not attribute their statements to the enclosing context.
    """
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if skip_nested_functions and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
