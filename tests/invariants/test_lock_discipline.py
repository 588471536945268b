"""Per-class lock order is consistent, and no listener runs under a held lock.

Two invariant families, both learned the hard way in review:

* **Inconsistent pairwise lock order** — within one class, if some code
  path acquires lock A and then (directly, or through a same-class method
  it calls) lock B, no other path may acquire B then A: two threads taking
  the two paths concurrently deadlock (ABBA).  The check builds the
  per-class acquisition-order graph from ``with self._lock:`` nesting plus
  one-class-deep call propagation and flags contradictory pairs.

* **Listener invocation under a held lock** — calling back into arbitrary
  code (changelog listeners, subscribers, callbacks) while holding a lock
  invites deadlock: the listener may re-enter the locking object (an eager
  view refresh reads the engine that just notified it).  Notification must
  be deferred until after the lock is released (the
  ``mark_data_changed(notify=False)`` / ``notify_batch`` split exists for
  exactly this).

Lock identity is the dotted expression (``self._lock``,
``self._prepare_lock``); any name whose last component contains ``lock``
or ``mutex`` counts.  Nested function bodies are analyzed as independent
contexts — they run at call time, not while the enclosing block's locks
are held.  The check covers the whole tree.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

import pytest
from srcwalk import attr_chain, parse, seeded_problems, tree_problems

#: (file, "Class.method") -> why the lock use there is safe.
ALLOWED: dict[tuple[str, str], str] = {}

_LOCKISH_RE = re.compile(r"lock|mutex", re.IGNORECASE)
_NOTIFY_RE = re.compile(r"notify|callback", re.IGNORECASE)
#: Bare callables whose very name says "I am someone else's code".
_NOTIFY_BARE_RE = re.compile(r"^(listener|callback|subscriber|hook)s?$", re.IGNORECASE)


def _lock_name(expr: ast.AST) -> str | None:
    """The lock identity of a ``with`` item (or ``None`` if not a lock)."""
    chain = attr_chain(expr)
    if chain and _LOCKISH_RE.search(chain[-1]):
        return ".".join(chain)
    return None


def _notify_name(call: ast.Call) -> str | None:
    """The display name of a notify-like call (or ``None``)."""
    func = call.func
    if isinstance(func, ast.Attribute) and _NOTIFY_RE.search(func.attr):
        chain = attr_chain(func)
        return ".".join(chain) if chain else func.attr
    if isinstance(func, ast.Name) and _NOTIFY_BARE_RE.match(func.id):
        return func.id
    return None


@dataclass
class _MethodFacts:
    """What one method does with locks, before call propagation."""

    name: str
    #: Locks acquired anywhere in the body: lock -> first line.
    acquires: dict[str, int] = field(default_factory=dict)
    #: Directly nested acquisitions: (outer, inner) -> line of the inner.
    pairs: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Same-class calls: (held locks at the call, callee, line).
    calls: list[tuple[tuple[str, ...], str, int]] = field(default_factory=list)
    #: Notify-like calls: (held locks at the call, display name, line).
    notifies: list[tuple[tuple[str, ...], str, int]] = field(default_factory=list)


class _MethodVisitor:
    """Collects :class:`_MethodFacts` from one function body."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef,
                 nested_sink: list[_MethodFacts]) -> None:
        self.facts = _MethodFacts(func.name)
        self._nested = nested_sink
        for stmt in func.body:
            self._visit(stmt, ())

    def _visit(self, node: ast.AST, held: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Deferred body: analyze as an independent context.
            self._nested.append(_MethodVisitor(node, self._nested).facts)
            return
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._visit_with(node, held)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node, held)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _visit_with(self, node: ast.With | ast.AsyncWith,
                    held: tuple[str, ...]) -> None:
        for item in node.items:
            lock = _lock_name(item.context_expr)
            if lock is not None:
                self.facts.acquires.setdefault(lock, item.context_expr.lineno)
                for outer in held:
                    if outer != lock:
                        self.facts.pairs.setdefault((outer, lock), item.context_expr.lineno)
                held = held + (lock,)
            else:
                self._visit(item.context_expr, held)
        for stmt in node.body:
            self._visit(stmt, held)

    def _visit_call(self, node: ast.Call, held: tuple[str, ...]) -> None:
        chain = attr_chain(node.func)
        if chain is not None and len(chain) == 2 and chain[0] == "self":
            self.facts.calls.append((held, chain[1], node.lineno))
        notify = _notify_name(node)
        if notify is not None:
            self.facts.notifies.append((held, notify, node.lineno))


def _transitive_acquires(methods: dict[str, _MethodFacts]) -> dict[str, set[str]]:
    """Locks each method may end up holding, via same-class calls."""
    closure = {name: set(facts.acquires) for name, facts in methods.items()}
    changed = True
    while changed:
        changed = False
        for name, facts in methods.items():
            for _, callee, _ in facts.calls:
                extra = closure.get(callee)
                if extra and not extra <= closure[name]:
                    closure[name] |= extra
                    changed = True
    return closure


def _transitive_notifies(methods: dict[str, _MethodFacts]) -> set[str]:
    """Methods that (transitively) invoke a notify-like callable."""
    notifying = {name for name, facts in methods.items() if facts.notifies}
    changed = True
    while changed:
        changed = False
        for name, facts in methods.items():
            if name in notifying:
                continue
            if any(callee in notifying for _, callee, _ in facts.calls):
                notifying.add(name)
                changed = True
    return notifying


def _scope_findings(scope_name: str,
                    funcs: list[ast.FunctionDef | ast.AsyncFunctionDef]
                    ) -> list[tuple[int, str]]:
    nested: list[_MethodFacts] = []
    methods = {func.name: _MethodVisitor(func, nested).facts for func in funcs}
    acquires = _transitive_acquires(methods)
    notifying = _transitive_notifies(methods)
    findings = []

    # -- notify under a held lock ------------------------------------------------------
    for facts in list(methods.values()) + nested:
        for held, name, line in facts.notifies:
            if held:
                findings.append((line, (
                    f"{scope_name}.{facts.name} invokes {name!r} while holding {held[-1]!r}; "
                    f"deliver notifications after releasing the lock "
                    f"(mark_data_changed(notify=False) + notify_batch)")))
        for held, callee, line in facts.calls:
            if held and callee in notifying:
                findings.append((line, (
                    f"{scope_name}.{facts.name} calls self.{callee}() while holding "
                    f"{held[-1]!r}, and {callee!r} (transitively) notifies listeners; "
                    f"deliver notifications after releasing the lock")))

    # -- pairwise acquisition order ----------------------------------------------------
    edges: dict[tuple[str, str], int] = {}
    for facts in list(methods.values()) + nested:
        for pair, line in facts.pairs.items():
            edges.setdefault(pair, line)
        for held, callee, line in facts.calls:
            for inner in acquires.get(callee, ()):
                for outer in held:
                    if outer != inner:
                        edges.setdefault((outer, inner), line)
    reported: set[frozenset[str]] = set()
    for (a, b), line in sorted(edges.items(), key=lambda kv: kv[1]):
        if (b, a) not in edges:
            continue
        key = frozenset((a, b))
        if key in reported:
            continue
        reported.add(key)
        other = edges[(b, a)]
        if other > line:  # anchor the finding at the later site
            a, b, line, other = b, a, other, line
        findings.append((line, (
            f"{scope_name}: inconsistent lock order — {a!r} is taken before {b!r} here, but "
            f"{b!r} is taken before {a!r} at line {other} (ABBA deadlock)")))
    return findings


def lock_findings(tree: ast.Module) -> list[tuple[int, str]]:
    """ABBA lock orders and notifications under a lock, per class of ``tree``."""
    def funcs(body):
        return [node for node in body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]

    scopes = [(node.name, funcs(node.body)) for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef)]
    if funcs(tree.body):
        scopes.insert(0, ("<module>", funcs(tree.body)))
    return [finding for scope_name, funcs in scopes
            for finding in _scope_findings(scope_name, funcs)]


def test_no_lock_order_or_notify_violation_in_src():
    assert tree_problems(lambda tree, path: lock_findings(tree), ALLOWED) == []


def test_a_seeded_violation_in_src_fails_the_tree_test():
    # Session nests its two locks one way in prepare and the other in re-bake.
    assert "ABBA deadlock" in seeded_problems(
        lambda tree, path: lock_findings(tree), ALLOWED, "src/repro/client/session.py", (
        "with self._prepare_lock:\n            entry = self.plan_cache",
        "with self._prepare_lock, self._lock:\n            entry = self.plan_cache"), (
        "with self._prepare_lock:\n            if entry.superseded_by",
        "with self._lock, self._prepare_lock:\n            if entry.superseded_by"))


def run(code):
    return lock_findings(parse(code))


def test_inconsistent_pair_flagged_at_later_site():
    [(line, message)] = run("""\
        class Store:
            def one(self):
                with self._a_lock:
                    with self._b_lock:
                        pass

            def two(self):
                with self._b_lock:
                    with self._a_lock:
                        pass
        """)
    assert line == 9  # the later of the two nesting sites
    assert "ABBA" in message
    assert "self._a_lock" in message


def test_conflict_through_same_class_call():
    [(_, message)] = run("""\
        class Store:
            def outer(self):
                with self._a_lock:
                    self.inner()

            def inner(self):
                with self._b_lock:
                    pass

            def reversed(self):
                with self._b_lock:
                    with self._a_lock:
                        pass
        """)
    assert "inconsistent lock order" in message


def test_notify_call_under_lock():
    [(line, message)] = run("""\
        class Engine:
            def put(self, key, value):
                with self._lock:
                    self._data[key] = value
                    self._notify_listeners(key)
        """)
    assert line == 5
    assert "notify" in message


def test_bare_callback_invocation_under_lock():
    [(_, message)] = run("""\
        class Hub:
            def fire(self):
                with self._lock:
                    for listener in self._listeners:
                        listener(self)
        """)
    assert "'listener'" in message


def test_transitive_notify_through_helper():
    [(_, message)] = run("""\
        class Engine:
            def put(self, key):
                with self._lock:
                    self.emit(key)

            def emit(self, key):
                self.changelog.notify_batch(key)
        """)
    assert "transitively" in message


#: Code whose locks are taken in one order, with listeners called outside them.
CLEAN = {
    "consistent_nesting": """\
        class Store:
            def one(self):
                with self._a_lock:
                    with self._b_lock:
                        pass

            def two(self):
                with self._a_lock:
                    with self._b_lock:
                        pass
        """,
    "classes_are_independent_scopes": """\
        class One:
            def m(self):
                with self._a_lock:
                    with self._b_lock:
                        pass

        class Two:
            def m(self):
                with self._b_lock:
                    with self._a_lock:
                        pass
        """,
    "notify_after_release": """\
        class Engine:
            def put(self, key, value):
                with self._lock:
                    self._data[key] = value
                self._notify_listeners(key)
        """,
    # The closure executes later, not while the lock is held; but a
    # lock taken *inside* the closure still gets its own context.
    "nested_def_runs_outside_the_lock": """\
        class Server:
            def handle(self):
                with self._lock:
                    def deliver(response):
                        self._notify_listeners(response)
                    self._queue.append(deliver)
        """,
}


@pytest.mark.parametrize("code", CLEAN.values(), ids=list(CLEAN))
def test_clean_code_has_no_findings(code):
    assert run(code) == []
