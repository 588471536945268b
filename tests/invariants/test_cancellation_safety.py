"""Dispatch code never swallows cancellation.

Cooperative cancellation only works if ``CancelledError`` /
``DeadlineExceededError`` propagate from the cancellation checkpoints back
to the caller that owns the request.  A broad ``except Exception`` in the
dispatch path (the serving tier, the executor's stage scheduler) quietly
converts "this request was cancelled" into
"this request failed (or worse, succeeded with partial work)" — the serve
tier then reports INTERNAL instead of CANCELLED, retries fire, and
execution slots leak.

The check flags ``except Exception``, ``except BaseException`` and bare
``except:`` handlers in dispatch code (``serve/``,
``middleware/executor/``) and in any ``async
def`` anywhere, unless:

* an earlier handler of the same ``try`` catches ``CancelledError`` or
  ``DeadlineExceededError`` explicitly (the pattern in ``_run_on_slot``),
  or
* the handler body contains a ``raise`` (re-raise or translate-and-raise
  both keep control flowing).

``except BaseException`` / bare ``except`` are held to the stricter bar:
only a ``raise`` excuses them, because ``asyncio.CancelledError`` derives
from ``BaseException`` and sails past any earlier ``Exception``-level
handler.
"""

from __future__ import annotations

import ast
import re

import pytest
from srcwalk import attr_chain, parse, seeded_problems, tree_problems

#: (file, "Class.method") -> why the broad handler may swallow cancellation.
ALLOWED: dict[tuple[str, str], str] = {}

_DISPATCH_PATH_RE = re.compile(r"(^|/)(serve/|middleware/executor/)")

_CANCEL_NAMES = frozenset({"CancelledError", "DeadlineExceededError"})


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    """Terminal names of the exception types one handler catches."""
    if handler.type is None:
        return {"<bare>"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {chain[-1] for node in types if (chain := attr_chain(node))}


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for stmt in handler.body for node in ast.walk(stmt))


def _try_findings(node: ast.Try) -> list[tuple[int, str]]:
    findings = []
    cancel_handled = False
    for handler in node.handlers:
        names = _handler_names(handler)
        if names & _CANCEL_NAMES:
            cancel_handled = True
            continue
        broad_base = bool(names & {"BaseException", "<bare>"})
        broad = broad_base or "Exception" in names
        if not broad or _reraises(handler) or (cancel_handled and not broad_base):
            continue
        caught = ("bare except" if "<bare>" in names
                  else f"except {'BaseException' if broad_base else 'Exception'}")
        hint = ("re-raise inside the handler" if broad_base else
                "add 'except (CancelledError, DeadlineExceededError): raise' before it "
                "(or re-raise inside the handler)")
        findings.append((handler.lineno, (
            f"{caught} in dispatch code swallows cancellation — a cancelled request would be "
            f"reported as an ordinary failure and leak its slot; {hint}")))
    return findings


def swallowed_cancellations(tree: ast.Module, path: str) -> list[tuple[int, str]]:
    """Broad handlers in ``tree``'s dispatch code or coroutines that eat cancellation."""
    whole_file = bool(_DISPATCH_PATH_RE.search(path))
    # The line spans of async defs: a try in one is in scope even outside dispatch files.
    tries, async_spans = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            tries.append(node)
        elif isinstance(node, ast.AsyncFunctionDef):
            async_spans.append((node.lineno, node.end_lineno or node.lineno))
    return [finding for node in tries
            if whole_file or any(lo <= node.lineno <= hi for lo, hi in async_spans)
            for finding in _try_findings(node)]


def test_no_dispatch_handler_in_src_swallows_cancellation():
    assert tree_problems(swallowed_cancellations, ALLOWED) == []


#: A method per dispatch path that a seed opens with a swallowing handler.
SEEDS = {
    "serve": ("src/repro/serve/server.py", "_release_slot(self) -> None:\n"),
    "executor": ("src/repro/middleware/executor/scheduler.py", "engine_name: str) -> Adapter:\n"),
}


@pytest.mark.parametrize("path, old", SEEDS.values(), ids=list(SEEDS))
def test_a_seeded_violation_in_src_fails_the_tree_test(path, old):
    swallow = "        try:\n            pass\n        except BaseException:\n            pass\n"
    assert "BaseException" in seeded_problems(swallowed_cancellations, ALLOWED, path,
                                              (old, old + swallow))


DISPATCH_PATH = "src/repro/serve/example.py"


def run(code, path=DISPATCH_PATH):
    return swallowed_cancellations(parse(code), path)


def test_swallowing_except_exception_flagged():
    [(line, message)] = run("""\
        def dispatch(self, message):
            try:
                self._route(message)
            except Exception:
                return None
        """)
    assert line == 4
    assert "swallows cancellation" in message


def test_base_exception_needs_reraise_even_after_cancel_handler():
    # asyncio.CancelledError derives from BaseException and sails past
    # an Exception-level CancelledError handler.
    [(_, message)] = run("""\
        def dispatch(self, message):
            try:
                self._route(message)
            except CancelledError:
                self._release_slot()
            except BaseException:
                return None
        """)
    assert "BaseException" in message


def test_bare_except_flagged():
    [(_, message)] = run("""\
        def dispatch(self, message):
            try:
                self._route(message)
            except:
                pass
        """)
    assert "bare except" in message


def test_async_def_outside_dispatch_paths_in_scope():
    assert len(run("""\
        async def refresh(self):
            try:
                await self._pull()
            except Exception:
                pass
        """, path="src/repro/views/example.py")) == 1


def test_sync_code_outside_dispatch_paths_out_of_scope():
    assert run("""\
        def refresh(self):
            try:
                self._pull()
            except Exception:
                pass
        """, path="src/repro/views/example.py") == []


#: Dispatch code whose handlers let cancellation through.
CLEAN = {
    "earlier_cancel_handler_excuses": """\
        def dispatch(self, message):
            try:
                self._route(message)
            except CancelledError:
                self._release_slot()
            except Exception as exc:
                return exc
        """,
    "deadline_handler_also_excuses": """\
        def dispatch(self, message):
            try:
                self._route(message)
            except (DeadlineExceededError, TimeoutError):
                self._release_slot()
            except Exception as exc:
                return exc
        """,
    "reraise_inside_handler_excuses": """\
        def dispatch(self, message):
            try:
                self._route(message)
            except Exception as exc:
                raise ExecutionError(str(exc)) from exc
        """,
    "narrow_handler_is_fine": """\
        def dispatch(self, message):
            try:
                self._route(message)
            except KeyError:
                return None
        """,
}


@pytest.mark.parametrize("code", CLEAN.values(), ids=list(CLEAN))
def test_clean_code_has_no_findings(code):
    assert run(code) == []
