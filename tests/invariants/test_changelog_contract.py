"""Every public engine mutator emits its delta.

The incremental-view machinery (and the durability WAL riding on the same
stream) is only correct if **every** mutation of engine state is described
to the changelog: a mutator that forgets ``mark_data_changed`` (or, for
changelog-bypassing DDL, ``emit_durability_meta``) silently diverges every
materialized view and breaks crash recovery — the worst kind of bug,
because nothing fails at the write site.

The check applies to engine classes in ``src/repro/stores/*/engine.py`` and
``src/repro/cluster/sharded.py``.  A *public* method counts as a mutator
when it writes ``self`` state (attribute/subscript assignment, or a
mutating call like ``self._wal.append(...)``) or writes through a local
that was derived from ``self`` state (``owner = self._shards[i];
owner.put(...)``).  It satisfies the contract when it reaches
``mark_data_changed`` / ``emit_durability_meta`` — directly, or through a
same-class helper it calls (e.g. routed writes through the
``_routed_write`` context manager).

Maintenance operations that reorganize storage without changing logical
content (the key/value engine's flush and compact) are named in ``ALLOWED``
with their reason.  Only attach/detach/recover lifecycle hooks are exempt by
name.
"""

from __future__ import annotations

import ast
import re

import pytest
from srcwalk import attr_chain, parse, seeded_problems, tree_problems, walk_scope

#: (file, "Class.method") -> why the method changes no logical content.
ALLOWED = {
    ("src/repro/stores/keyvalue/engine.py", "KeyValueEngine.flush"):
        "structural reorganization; logical content unchanged",
    ("src/repro/stores/keyvalue/engine.py", "KeyValueEngine.compact"):
        "merges SSTables in place; logical content unchanged",
}

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
_ENGINE_FILE_RE = re.compile(r"(stores/[^/]+/engine\.py|cluster/sharded\.py)$")


def _is_engine_class(node: ast.ClassDef) -> bool:
    return any((chain := attr_chain(base)) and chain[-1].endswith("Engine")
               for base in node.bases)


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
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
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
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
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
        return any(isinstance(node, (ast.Attribute, ast.Name))
                   and _self_data_chain(node) is not None
                   for node in ast.walk(expr))

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
            if terminal in MUTATING_CALLS and chain[1] not in _BOOKKEEPING_ATTRS:
                if self.mutates is None:
                    self.mutates = call.lineno
            return
        # A mutating call through a local derived from self data state
        # (``owner = self._shards[i]; owner.put(...)``).
        if chain[0] in self._tainted and len(chain) >= 2 and terminal in MUTATING_CALLS:
            if self.mutates is None:
                self.mutates = call.lineno


def _unmarked_in_class(cls: ast.ClassDef) -> list[tuple[int, str]]:
    funcs = [child for child in cls.body
             if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))]
    scans = {func.name: _MethodScan(func) for func in funcs}
    # Propagate "marks" through the same-class call graph.
    marking = {name for name, scan in scans.items() if scan.marks}
    changed = True
    while changed:
        changed = False
        for name, scan in scans.items():
            if name not in marking and scan.callees & marking:
                marking.add(name)
                changed = True
    findings = []
    for func in funcs:
        name = func.name
        if name.startswith("_") or _EXEMPT_NAME_RE.match(name) or any(
                isinstance(dec, ast.Name) and dec.id == "property"
                for dec in func.decorator_list):
            continue
        scan = scans[name]
        if scan.mutates is not None and name not in marking:
            findings.append((func.lineno, (
                f"{cls.name}.{name} mutates engine state (line {scan.mutates}) but never "
                f"reaches mark_data_changed/emit_durability_meta — views and durable replay "
                f"will silently diverge; emit the delta batch, or name it in ALLOWED with a "
                f"reason if the mutation does not change logical content")))
    return findings


def unmarked_mutators(tree: ast.Module, path: str) -> list[tuple[int, str]]:
    """Public engine mutators in ``tree`` that never reach a marking call."""
    if not _ENGINE_FILE_RE.search(path):
        return []
    return [finding for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_engine_class(node)
            for finding in _unmarked_in_class(node)]


def test_every_engine_mutator_in_src_emits_its_delta():
    assert tree_problems(unmarked_mutators, ALLOWED) == []


COMPACT = ("src/repro/stores/keyvalue/engine.py", "KeyValueEngine.compact")


def test_an_exemption_needs_a_reason():
    assert f"ALLOWED{COMPACT} gives no reason" in tree_problems(
        unmarked_mutators, {**ALLOWED, COMPACT: " "})


def test_an_exemption_needs_a_live_finding():
    # Renaming an exempt method must fail, not silently widen the exemption.
    problems = seeded_problems(unmarked_mutators, ALLOWED, COMPACT[0],
                               ("def compact(", "def compact_all("))
    assert "KeyValueEngine.compact_all mutates engine state" in problems
    assert f"ALLOWED{COMPACT} excuses no finding; delete the entry" in problems


#: Real mutators whose marking call a seed renames away -> what the tree test reports.
SEEDS = {
    "keyvalue_put": ("src/repro/stores/keyvalue/engine.py",
                     "entries.append(((key, value), 1))\n        self.mark_data_changed(",
                     "KeyValueEngine.put mutates"),
    "text_remove_document": ("src/repro/stores/text/engine.py",
                             "self._index.remove(doc_id)\n        self.mark_data_changed(",
                             "TextEngine.remove_document mutates"),
    "sharded_relay": ("src/repro/cluster/sharded.py",
                      "appended = [self.mark_data_changed(scope, entries,",
                      "ShardedEngine.insert mutates"),
}


@pytest.mark.parametrize("path, old, expected", SEEDS.values(), ids=list(SEEDS))
def test_a_seeded_violation_in_src_fails_the_tree_test(path, old, expected):
    assert expected in seeded_problems(unmarked_mutators, ALLOWED, path,
                                       (old, old.replace("mark_data_changed", "forget_delta")))


ENGINE_PATH = "src/repro/stores/demo/engine.py"


def run(code, path=ENGINE_PATH):
    return unmarked_mutators(parse(code), path)


def test_unmarked_public_mutator_flagged_at_def():
    [(line, message)] = run("""\
        class DemoEngine(Engine):
            def put(self, key, value):
                self._data[key] = value
        """)
    assert line == 2  # anchored at the def, not the store
    assert "DemoEngine.put" in message


def test_mutation_through_tainted_local():
    [(_, message)] = run("""\
        class DemoEngine(Engine):
            def route(self, key, value):
                owner = self._shards[0]
                owner.put(key, value)
        """)
    assert "DemoEngine.route" in message


def test_mutating_call_on_self_state():
    assert len(run("""\
        class DemoEngine(Engine):
            def push(self, row):
                self._rows.append(row)
        """)) == 1


#: Engine code that keeps the contract, or that the check leaves alone.
CLEAN = {
    "marked_mutator": """\
        class DemoEngine(Engine):
            def put(self, key, value):
                self._data[key] = value
                self.mark_data_changed(self._scope(), entries=[])
        """,
    # The ShardedEngine _routed_write pattern: the public mutator only
    # reaches mark_data_changed through a private relay.
    "mark_through_same_class_helper": """\
        class DemoEngine(Engine):
            def put(self, key, value):
                with self._routed_write("put") as relay:
                    relay.put(key, value)
                    self._relay(key)

            def _relay(self, key):
                self.mark_data_changed(self._scope(), entries=[key])
        """,
    "emit_durability_meta_satisfies": """\
        class DemoEngine(Engine):
            def create_index(self, name):
                self._indexes[name] = {}
                self.emit_durability_meta(("create_index", name))
        """,
    "non_engine_class_is_out_of_scope": """\
        class Helper:
            def put(self, key, value):
                self._data[key] = value
        """,
    "private_methods_and_properties_exempt": """\
        class DemoEngine(Engine):
            def _internal(self, key, value):
                self._data[key] = value

            @property
            def size(self):
                self._cache = None
                return len(self._data)
        """,
    "lifecycle_hooks_exempt_by_name": """\
        class DemoEngine(Engine):
            def attach_spill(self, spill):
                self._spill = spill
        """,
    "readonly_method_is_clean": """\
        class DemoEngine(Engine):
            def get(self, key):
                return self._data.get(key)
        """,
    "bookkeeping_writes_do_not_count": """\
        class DemoEngine(Engine):
            def scan(self, query):
                self.changelog.reads["scan"] += 1
                return list(self._data)
        """,
}


@pytest.mark.parametrize("code", CLEAN.values(), ids=list(CLEAN))
def test_clean_code_has_no_findings(code):
    assert run(code) == []


def test_non_engine_file_is_out_of_scope():
    assert run("""\
        class DemoEngine(Engine):
            def put(self, key, value):
                self._data[key] = value
        """, path="src/repro/middleware/session.py") == []
