"""changelog-contract: every public engine mutator must emit its delta.

The incremental-view machinery (and the durability WAL riding on the same
stream) is only correct if **every** mutation of engine state is described
to the changelog: a mutator that forgets ``mark_data_changed`` (or, for
changelog-bypassing DDL, ``emit_durability_meta``) silently diverges every
materialized view and breaks crash recovery — the worst kind of bug,
because nothing fails at the write site.

The rule applies to engine classes in ``src/repro/stores/*/engine.py`` and
``src/repro/cluster/sharded.py``.  A *public* method counts as a mutator
when it writes ``self`` state (attribute/subscript assignment, or a
mutating call like ``self._wal.append(...)``) or writes through a local
that was derived from ``self`` state (``owner = self._shards[i];
owner.put(...)``).  It satisfies the contract when it reaches
``mark_data_changed`` / ``emit_durability_meta`` — directly, or through a
same-class helper it calls (e.g. routed writes through the
``_routed_write`` context manager).

Maintenance operations that reorganize storage without changing logical
content (flush, compact) are expected to carry an explicit
``# repro: allow(changelog-contract): <why>`` pragma — the exemption
should be visible at the definition, not buried in the checker.  Only
attach/detach/recover lifecycle hooks are exempt by name.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.core import (
    AnalysisContext,
    Finding,
    Rule,
    SourceFile,
    attr_chain,
    register,
    walk_scope,
)

#: Method names that mutate their receiver in-place.
MUTATING_CALLS = frozenset({
    "append", "appendleft", "add", "insert", "extend", "remove", "discard",
    "pop", "popitem", "popleft", "clear", "update", "setdefault", "put",
    "delete", "write", "push",
})

#: ``self.<attr>`` chains that are bookkeeping, not engine data state.
_BOOKKEEPING_ATTRS = frozenset({"changelog", "name"})

#: Calls that satisfy the contract directly.
_MARKING_CALLS = frozenset({"mark_data_changed", "emit_durability_meta"})

#: Lifecycle hooks exempt by name: they wire sinks or rebuild state through
#: the public (marking) API rather than mutating logical data.
_EXEMPT_NAME_RE = re.compile(r"^(attach_|detach_|recover_)")

#: Files the contract applies to.
_ENGINE_FILE_RE = re.compile(
    r"(stores/[^/]+/engine\.py|cluster/sharded\.py)$")


def _is_engine_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        chain = attr_chain(base)
        if chain and chain[-1].endswith("Engine"):
            return True
    return False


def _self_data_chain(node: ast.AST) -> list[str] | None:
    """Attr chain rooted at ``self`` that names data state (else ``None``)."""
    chain = attr_chain(node)
    if (chain and len(chain) >= 2 and chain[0] == "self"
            and chain[1] not in _BOOKKEEPING_ATTRS):
        return chain
    return None


class _MethodScan:
    """Classify one method: does it mutate, does it mark, whom does it call."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.mutates: int | None = None  # line of the first mutation
        self.marks = False
        self.callees: set[str] = set()
        #: Locals holding values derived from self data state.  Collected
        #: in a first pass (the walk is not in source order, and taint is
        #: flow-insensitive anyway).
        self._tainted: set[str] = set()
        nodes = list(walk_scope(func))
        for node in nodes:
            self._collect_taint(node)
        for node in nodes:
            self._scan(node)

    def _collect_taint(self, node: ast.AST) -> None:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if node.value is not None and self._derives_from_self(node.value):
                for target in targets:
                    for name in self._target_names(target):
                        self._tainted.add(name)
        elif isinstance(node, ast.withitem):
            # ``with self._routed_write() as relay:`` taints ``relay``.
            if (node.optional_vars is not None
                    and isinstance(node.optional_vars, ast.Name)
                    and isinstance(node.context_expr, ast.Call)
                    and self._derives_from_self(node.context_expr)):
                self._tainted.add(node.optional_vars.id)

    def _scan(self, node: ast.AST) -> None:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                self._scan_target(target, node)
        elif isinstance(node, ast.Call):
            self._scan_call(node)

    def _scan_target(self, target: ast.AST, stmt: ast.stmt) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_target(element, stmt)
            return
        if _self_data_chain(target) is not None:
            if self.mutates is None:
                self.mutates = stmt.lineno

    def _target_names(self, target: ast.AST) -> list[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            names: list[str] = []
            for element in target.elts:
                names.extend(self._target_names(element))
            return names
        return []

    def _derives_from_self(self, expr: ast.AST) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, (ast.Attribute, ast.Name)):
                if _self_data_chain(node) is not None:
                    return True
        return False

    def _scan_call(self, call: ast.Call) -> None:
        chain = attr_chain(call.func)
        if chain is None:
            return
        terminal = chain[-1]
        if chain[0] == "self":
            if len(chain) == 2:
                self.callees.add(terminal)
                if terminal in _MARKING_CALLS:
                    self.marks = True
                return
            if chain[1] == "changelog" and terminal in ("append", "mark_gap"):
                self.marks = True
                return
            if (terminal in MUTATING_CALLS
                    and chain[1] not in _BOOKKEEPING_ATTRS):
                if self.mutates is None:
                    self.mutates = call.lineno
            return
        # A mutating call through a local derived from self data state
        # (``owner = self._shards[i]; owner.put(...)``).
        if (chain[0] in self._tainted and len(chain) >= 2
                and terminal in MUTATING_CALLS):
            if self.mutates is None:
                self.mutates = call.lineno


class ChangelogContractRule(Rule):
    id = "changelog-contract"
    description = (
        "public engine mutators must reach mark_data_changed / "
        "emit_durability_meta (directly or via a same-class helper)")

    def check(self, source: SourceFile,
              context: AnalysisContext) -> Iterable[Finding]:
        if source.tree is None or not _ENGINE_FILE_RE.search(source.rel_path):
            return
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and _is_engine_class(node):
                yield from self._check_class(source, node)

    def _check_class(self, source: SourceFile,
                     cls: ast.ClassDef) -> Iterable[Finding]:
        funcs = [child for child in cls.body
                 if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))]
        scans = {func.name: _MethodScan(func) for func in funcs}
        # Propagate "marks" through the same-class call graph.
        marking = {name for name, scan in scans.items() if scan.marks}
        changed = True
        while changed:
            changed = False
            for name, scan in scans.items():
                if name in marking:
                    continue
                if scan.callees & marking:
                    marking.add(name)
                    changed = True
        for func in funcs:
            name = func.name
            if name.startswith("_"):
                continue
            if _EXEMPT_NAME_RE.match(name):
                continue
            if any(isinstance(dec, ast.Name) and dec.id == "property"
                   for dec in func.decorator_list):
                continue
            scan = scans[name]
            if scan.mutates is not None and name not in marking:
                yield self.finding(source, func, (
                    f"{cls.name}.{name} mutates engine state (line "
                    f"{scan.mutates}) but never reaches mark_data_changed/"
                    f"emit_durability_meta — views and durable replay will "
                    f"silently diverge; emit the delta batch, or pragma "
                    f"with a reason if the mutation does not change "
                    f"logical content"))


register(ChangelogContractRule())
