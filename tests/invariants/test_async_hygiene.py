"""The serving tier's event loop never blocks unbounded.

Every coroutine in ``src/repro/serve/`` runs on the server's single event
loop thread, which owns all admission/coalescing state — one blocking call
inside an ``async def`` stalls every connected client at once.  (The loop
does run a registered program observed to take under one
``sys.getswitchinterval()`` itself, from a plain callback; that bounded
work is by design and outside this check.)  The check flags, inside
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

import pytest
from srcwalk import attr_chain, parse, seeded_problems, tree_problems, walk_scope

#: (file, "Class.method") -> why the coroutine may block there.
ALLOWED: dict[tuple[str, str], str] = {}

_SERVE_PATH_RE = re.compile(r"(^|/)serve/")
_LOCKISH_RE = re.compile(r"lock|mutex|sem", re.IGNORECASE)

#: Socket methods that block the calling thread.
_BLOCKING_SOCKET_CALLS = frozenset({
    "recv", "recv_into", "recvfrom", "sendall", "accept", "connect", "connect_ex"})


def _is_lockish(expr: ast.AST) -> bool:
    chain = attr_chain(expr)
    return bool(chain and _LOCKISH_RE.search(chain[-1]))


def _bounded_acquire(call: ast.Call) -> bool:
    if any(keyword.arg == "timeout" for keyword in call.keywords):
        return True
    # ``acquire(False)`` / ``acquire(blocking=False)`` never block.
    if call.args and isinstance(call.args[0], ast.Constant) and call.args[0].value is False:
        return True
    return any(keyword.arg == "blocking" and isinstance(keyword.value, ast.Constant)
               and keyword.value.value is False for keyword in call.keywords)


def _coroutine_findings(func: ast.AsyncFunctionDef) -> list[tuple[int, str]]:
    where = f"async {func.name}"
    findings = []
    for node in walk_scope(func):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if _is_lockish(item.context_expr):
                    chain = attr_chain(item.context_expr)
                    findings.append((item.context_expr.lineno, (
                        f"{where} holds thread lock {'.'.join(chain or ['?'])!r} on the event "
                        f"loop; loop-thread state must be loop-owned, not locked")))
            continue
        if not isinstance(node, ast.Call):
            continue
        chain = attr_chain(node.func)
        if chain is None:
            continue
        dotted = ".".join(chain)
        if dotted == "time.sleep":
            findings.append((node.lineno, f"{where} calls time.sleep(), blocking the event "
                                          f"loop; use 'await asyncio.sleep(...)'"))
        elif dotted in ("open", "os.open", "io.open"):
            findings.append((node.lineno, f"{where} performs synchronous file I/O ({dotted}); "
                                          f"run it in a worker via run_in_executor"))
        elif chain[0] == "socket" and len(chain) == 2:
            findings.append((node.lineno, f"{where} creates a blocking socket ({dotted}); use "
                                          f"asyncio streams"))
        elif (len(chain) >= 2 and chain[-1] in _BLOCKING_SOCKET_CALLS
              and not isinstance(node.func, ast.Name)):
            findings.append((node.lineno, f"{where} calls blocking socket method "
                                          f".{chain[-1]}(); use asyncio streams"))
        elif (chain[-1] == "acquire" and len(chain) >= 2 and _LOCKISH_RE.search(chain[-2])
              and not _bounded_acquire(node)):
            findings.append((node.lineno, (
                f"{where} may block the event loop on an unbounded {'.'.join(chain[:-1])}"
                f".acquire(); pass a timeout or keep lock waits off the loop")))
    return findings


def blocking_calls(tree: ast.Module, path: str) -> list[tuple[int, str]]:
    """Blocking sleeps, sync I/O and lock waits in the serve coroutines of ``tree``."""
    if not _SERVE_PATH_RE.search(path):
        return []
    return [finding for node in ast.walk(tree) if isinstance(node, ast.AsyncFunctionDef)
            for finding in _coroutine_findings(node)]


def test_no_serve_coroutine_in_src_blocks_the_loop():
    assert tree_problems(blocking_calls, ALLOWED) == []


def test_a_seeded_violation_in_src_fails_the_tree_test():
    assert "time.sleep" in seeded_problems(
        blocking_calls, ALLOWED, "src/repro/serve/server.py",
        ("await asyncio.sleep(_SWEEP_INTERVAL_S)\n            for",
         "time.sleep(1)\n            for"))


SERVE_PATH = "src/repro/serve/example.py"


def run(code, path=SERVE_PATH):
    return blocking_calls(parse(code), path)


def test_time_sleep_in_coroutine():
    [(line, message)] = run("""\
        import time

        async def poll(self):
            time.sleep(0.1)
        """)
    assert line == 4
    assert "asyncio.sleep" in message


def test_sync_file_io():
    [(_, message)] = run("""\
        async def load(path):
            with open(path) as fh:
                return fh.read()
        """)
    assert "file I/O" in message


def test_blocking_socket_constructor_and_method():
    assert len(run("""\
        import socket

        async def fetch(addr):
            sock = socket.socket()
            sock.connect(addr)
        """)) == 2


def test_thread_lock_held_on_loop():
    [(_, message)] = run("""\
        async def mutate(self):
            with self._lock:
                self._state += 1
        """)
    assert "self._lock" in message


def test_unbounded_acquire_flagged_bounded_ok():
    [(line, _)] = run("""\
        async def grab(self):
            self._lock.acquire()
            self._lock.acquire(timeout=0.5)
            self._lock.acquire(False)
            self._lock.acquire(blocking=False)
        """)
    assert line == 2


def test_non_serve_path_is_out_of_scope():
    assert run("""\
        import time

        async def poll(self):
            time.sleep(0.1)
        """, path="src/repro/middleware/runner.py") == []


#: Serve code that keeps the loop free, or that the check leaves alone.
CLEAN = {
    "await_asyncio_sleep_is_clean": """\
        import asyncio

        async def poll(self):
            await asyncio.sleep(0.1)
        """,
    "sync_def_in_serve_is_out_of_scope": """\
        import time

        def worker():
            time.sleep(0.1)
        """,
    # Delivery closures execute on worker threads, not the loop.
    "nested_sync_def_runs_off_loop": """\
        import time

        async def handle(self):
            def deliver(response):
                time.sleep(0.01)
                with self._lock:
                    pass
            self._pool.submit(deliver)
        """,
}


@pytest.mark.parametrize("code", CLEAN.values(), ids=list(CLEAN))
def test_clean_code_has_no_findings(code):
    assert run(code) == []
