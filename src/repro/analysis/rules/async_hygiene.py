"""async-hygiene: the serving tier's event loop must never block unbounded.

Every coroutine in ``src/repro/serve/`` runs on the server's single event
loop thread, which owns all admission/coalescing state — one blocking call
inside an ``async def`` stalls every connected client at once.  (The loop
does run a registered program observed to take under one
``sys.getswitchinterval()`` itself, from a plain callback; that bounded
work is by design and outside this rule.)  The rule flags, inside
``async def`` bodies in serve code:

* ``time.sleep(...)`` — use ``await asyncio.sleep(...)``;
* synchronous file or socket I/O (``open``/``os.open``, ``socket.*``
  constructors, ``recv``/``sendall``/``accept``/``connect`` calls) — use
  asyncio streams or hand the work to the session-pool workers;
* holding or acquiring a thread lock (``with self._lock:`` or an
  ``.acquire()`` without a timeout) — loop-thread state must be owned by
  the loop thread, not locked (see ``serve/server.py``'s design), and an
  unbounded acquire can freeze the loop behind a worker thread.

Nested synchronous ``def``s inside a coroutine are skipped: they execute
when called, typically from a worker thread (e.g. response-delivery
closures), not on the loop.
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

_SERVE_PATH_RE = re.compile(r"(^|/)serve/")
_LOCKISH_RE = re.compile(r"lock|mutex|sem", re.IGNORECASE)

#: Socket methods that block the calling thread.
_BLOCKING_SOCKET_CALLS = frozenset({
    "recv", "recv_into", "recvfrom", "sendall", "accept", "connect",
    "connect_ex",
})


def _is_lockish(expr: ast.AST) -> bool:
    chain = attr_chain(expr)
    return bool(chain and _LOCKISH_RE.search(chain[-1]))


class AsyncHygieneRule(Rule):
    id = "async-hygiene"
    description = (
        "no blocking sleep, sync I/O, or thread-lock waits inside "
        "async def in the serving tier")

    def check(self, source: SourceFile,
              context: AnalysisContext) -> Iterable[Finding]:
        if source.tree is None or not _SERVE_PATH_RE.search(source.rel_path):
            return
        for node in ast.walk(source.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_coroutine(source, node)

    def _check_coroutine(self, source: SourceFile,
                         func: ast.AsyncFunctionDef) -> Iterable[Finding]:
        where = f"async {func.name}"
        for node in walk_scope(func):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if _is_lockish(item.context_expr):
                        chain = attr_chain(item.context_expr)
                        yield self.finding(source, item.context_expr, (
                            f"{where} holds thread lock "
                            f"{'.'.join(chain or ['?'])!r} on the event "
                            f"loop; loop-thread state must be loop-owned, "
                            f"not locked"))
                continue
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain is None:
                continue
            dotted = ".".join(chain)
            if dotted == "time.sleep":
                yield self.finding(source, node, (
                    f"{where} calls time.sleep(), blocking the event "
                    f"loop; use 'await asyncio.sleep(...)'"))
            elif dotted in ("open", "os.open", "io.open"):
                yield self.finding(source, node, (
                    f"{where} performs synchronous file I/O ({dotted}); "
                    f"run it in a worker via run_in_executor"))
            elif chain[0] == "socket" and len(chain) == 2:
                yield self.finding(source, node, (
                    f"{where} creates a blocking socket ({dotted}); use "
                    f"asyncio streams"))
            elif (len(chain) >= 2 and chain[-1] in _BLOCKING_SOCKET_CALLS
                  and not isinstance(node.func, ast.Name)):
                yield self.finding(source, node, (
                    f"{where} calls blocking socket method "
                    f".{chain[-1]}(); use asyncio streams"))
            elif (chain[-1] == "acquire" and len(chain) >= 2
                  and _LOCKISH_RE.search(chain[-2])):
                if not self._bounded_acquire(node):
                    yield self.finding(source, node, (
                        f"{where} may block the event loop on an "
                        f"unbounded {'.'.join(chain[:-1])}.acquire(); "
                        f"pass a timeout or keep lock waits off the loop"))

    @staticmethod
    def _bounded_acquire(call: ast.Call) -> bool:
        for keyword in call.keywords:
            if keyword.arg == "timeout":
                return True
        if call.args:
            first = call.args[0]
            # ``acquire(False)`` / ``acquire(blocking=False)`` never block.
            if isinstance(first, ast.Constant) and first.value is False:
                return True
        return any(keyword.arg == "blocking"
                   and isinstance(keyword.value, ast.Constant)
                   and keyword.value.value is False
                   for keyword in call.keywords)


register(AsyncHygieneRule())
