"""The rule framework: findings, rules, parsed sources and suppressions.

A :class:`Rule` inspects one parsed module at a time and yields
:class:`Finding` objects anchored to a file and line.  Cross-file state
(e.g. the metric families registered in ``obs/__init__.py``) lives on the
shared :class:`AnalysisContext`, which also serves as a per-run cache.

Suppression pragma
------------------

``# repro: allow(<rule-id>): <reason>`` suppresses findings of the named
rule(s) on the pragma's own line — or, when the pragma is alone on its
line, on the next line (so a long ``def`` can carry its pragma above
itself).  Several rule ids may be listed comma-separated.  The reason is
mandatory: a pragma without one is reported under the ``pragma`` pseudo
rule and never suppresses anything.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

#: Pseudo rule id for malformed suppression pragmas.
PRAGMA_RULE = "pragma"
#: Pseudo rule id for files that fail to parse.
PARSE_RULE = "parse"

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*(?P<rules>[^)]*)\)\s*(?::\s*(?P<reason>.*))?$"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file and line."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Suppression:
    """One well-formed ``# repro: allow(...)`` pragma."""

    line: int
    rules: frozenset[str]
    reason: str
    #: Whether the pragma is the only content on its line (then it also
    #: covers the following line).
    standalone: bool

    def covers(self, finding: Finding) -> bool:
        if finding.rule not in self.rules:
            return False
        if finding.line == self.line:
            return True
        return self.standalone and finding.line == self.line + 1


class SourceFile:
    """One parsed module plus its suppression pragmas."""

    def __init__(self, rel_path: str, text: str) -> None:
        #: Repo-relative posix-style path, used in findings and for rules
        #: that only apply to parts of the tree.
        self.rel_path = rel_path
        self.text = text
        self.lines = text.splitlines()
        self.tree: ast.Module | None = None
        self.parse_error: Finding | None = None
        try:
            self.tree = ast.parse(text)
        except SyntaxError as exc:
            self.parse_error = Finding(
                path=rel_path, line=exc.lineno or 1, rule=PARSE_RULE,
                message=f"file does not parse: {exc.msg}")
        self.suppressions: list[Suppression] = []
        self.pragma_errors: list[Finding] = []
        self._scan_pragmas()

    @classmethod
    def from_path(cls, path: Path, root: Path | None = None) -> "SourceFile":
        rel: str
        if root is not None:
            try:
                rel = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = path.as_posix()
        else:
            rel = path.as_posix()
        return cls(rel, path.read_text(encoding="utf-8"))

    def _iter_comments(self) -> Iterator[tuple[int, int, str]]:
        """``(line, column, text)`` for each real comment token.

        Tokenizing (rather than regex-scanning lines) keeps docstrings and
        string literals that merely *mention* the pragma syntax from being
        treated as pragmas.
        """
        readline = iter(self.text.splitlines(keepends=True)).__next__
        try:
            for token in tokenize.generate_tokens(readline):
                if token.type == tokenize.COMMENT:
                    yield token.start[0], token.start[1], token.string
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return  # unparseable tail; the parse finding covers it

    def _scan_pragmas(self) -> None:
        for lineno, column, comment in self._iter_comments():
            if "repro:" not in comment:
                continue
            match = _PRAGMA_RE.search(comment)
            if match is None:
                if re.search(r"#\s*repro:\s*allow", comment):
                    self.pragma_errors.append(Finding(
                        path=self.rel_path, line=lineno, rule=PRAGMA_RULE,
                        message="malformed suppression pragma; expected "
                                "'# repro: allow(<rule>): <reason>'"))
                continue
            rules = frozenset(
                part.strip() for part in match.group("rules").split(",")
                if part.strip())
            reason = (match.group("reason") or "").strip()
            if not rules or not reason:
                self.pragma_errors.append(Finding(
                    path=self.rel_path, line=lineno, rule=PRAGMA_RULE,
                    message="suppression pragma needs rule id(s) and a "
                            "non-empty reason: "
                            "'# repro: allow(<rule>): <reason>'"))
                continue
            line_text = self.lines[lineno - 1] if lineno <= len(self.lines) \
                else ""
            standalone = not line_text[:column].strip()
            self.suppressions.append(Suppression(
                line=lineno, rules=rules, reason=reason,
                standalone=standalone))

    def suppressed(self, finding: Finding) -> bool:
        return any(s.covers(finding) for s in self.suppressions)


@dataclass
class AnalysisContext:
    """Cross-file state shared by all rules during one run."""

    files: list[SourceFile] = field(default_factory=list)
    #: Per-rule cache (e.g. the obs-taxonomy rule parks the parsed metric
    #: registry here so it is computed once per run, and tests can inject
    #: a synthetic registry).
    cache: dict[str, Any] = field(default_factory=dict)

    def find_file(self, suffix: str) -> SourceFile | None:
        """The analyzed file whose path ends with ``suffix`` (if any)."""
        for source in self.files:
            if source.rel_path.endswith(suffix):
                return source
        return None


class Rule:
    """Base class for one invariant check.

    Subclasses set :attr:`id`/:attr:`description` and implement
    :meth:`check`.  Registration happens via :func:`register`; the CLI and
    runner pick every registered rule up automatically.
    """

    id: str = ""
    description: str = ""

    def check(self, source: SourceFile,
              context: AnalysisContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, source: SourceFile, node: ast.AST | int,
                message: str) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(path=source.rel_path, line=line, rule=self.id,
                       message=message)


_REGISTRY: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    """Register one rule instance (last registration of an id wins)."""
    if not rule.id:
        raise ValueError(f"rule {type(rule).__name__} has no id")
    _REGISTRY[rule.id] = rule
    return rule


def registered_rules() -> list[Rule]:
    """Every registered rule, in id order."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


# -- shared AST helpers ------------------------------------------------------------------


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
