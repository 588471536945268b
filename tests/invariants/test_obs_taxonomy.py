"""Call sites use registered metric families and taxonomy span names.

The observability contract has two halves:

* **Metric families** are pre-registered once, as attributes of
  ``Observability`` in ``src/repro/obs/__init__.py``; instrumented hot
  paths do one attribute access per event.  A typo at a call site
  (``obs.serve_reject_total`` for ``serve_rejects_total``) raises
  ``AttributeError`` only on the first event that executes that line —
  typically in production, under load.  The check parses the registry and
  checks every ``obs.<family>.inc/observe/set/labels`` chain against it.
  It also keeps registration honest: families must be registered in the
  hub (not ad hoc), counters end in ``_total``, histograms in
  ``_seconds``/``_rows``, and everything carries the ``polystore_``
  prefix (see DESIGN.md "Metric naming").

* **Span names** follow the DESIGN.md taxonomy (``request:<p>``,
  ``stage:<i>``, ``op:<id>``, ...).  Exporters, tests and dashboards key
  on those prefixes; a free-hand span name silently falls out of every
  span-tree assertion.  ``tracer.span(name, category)`` call sites with a
  statically known prefix must use a taxonomy prefix, paired with its
  declared category.  (``tracer.request`` names are user-extensible and
  not checked.)

The check covers the whole tree.
"""

from __future__ import annotations

import ast
import re

import pytest
from srcwalk import (attr_chain, fstring_prefix, parse, seeded_problems, src_trees,
                     tree_problems)

#: (file, "Class.method") -> why the call site may leave the taxonomy.
ALLOWED: dict[tuple[str, str], str] = {}

#: Span-name prefix -> category, mirroring the DESIGN.md span taxonomy
#: table ("Span taxonomy").  Update both together.
SPAN_TAXONOMY: dict[str, str] = {
    "request": "session",
    "serve": "session",
    "compile": "compile",
    "execute": "executor",
    "stage": "executor",
    "op": "operator",
    "view_refresh": "view",
    "wal_fsync": "durability",
    "snapshot": "durability",
    "health": "session",
}

_REGISTRY_SUFFIX = "repro/obs/__init__.py"
_KINDS = frozenset({"counter", "gauge", "histogram"})
_RECORD_CALLS = frozenset({"inc", "observe", "set", "labels"})
_OBS_MARKERS = frozenset({"obs", "_obs"})
#: Attributes of the hub that are not metric families.
_NON_FAMILY_ATTRS = frozenset({
    "registry", "tracer", "slow_log", "enabled", "events", "profiler", "slos"})
_FAMILY_NAME_RE = re.compile(r"^polystore_[a-z0-9_]+$")
_REGISTRY_RECEIVER_RE = re.compile(r"^(reg|registry|_registry)$")


def parse_registry(tree: ast.Module) -> dict[str, str]:
    """``{family attribute: kind}`` from the Observability hub's source."""
    families: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        chain = attr_chain(node.targets[0])
        if chain is None or len(chain) != 2 or chain[0] != "self":
            continue
        value = node.value
        if isinstance(value, ast.Call):
            name = value.func.attr if isinstance(value.func, ast.Attribute) else None
            if name in _KINDS:
                families[chain[1]] = name
    return families


def _span_messages(call: ast.Call) -> list[str]:
    if not call.args:
        return []
    static = fstring_prefix(call.args[0])
    if static is None:
        return []  # dynamic name; nothing to check statically
    prefix = static.split(":", 1)[0]
    category = SPAN_TAXONOMY.get(prefix)
    if category is None:
        return [f"span name prefix {prefix!r} is not in the DESIGN.md span taxonomy "
                f"({', '.join(sorted(SPAN_TAXONOMY))}); exporters and span-tree "
                f"assertions key on these prefixes"]
    declared = call.args[1] if len(call.args) >= 2 else None
    if (isinstance(declared, ast.Constant) and isinstance(declared.value, str)
            and declared.value != category):
        return [f"span {prefix!r} declares category {declared.value!r} but the taxonomy "
                f"pairs it with {category!r}"]
    return []


def _family_use_messages(chain: list[str], families: dict[str, str]) -> list[str]:
    for index, part in enumerate(chain[:-2]):
        if part not in _OBS_MARKERS:
            continue
        family = chain[index + 1]
        if family in _NON_FAMILY_ATTRS or family in _OBS_MARKERS:
            continue
        if family not in families:
            return [f"metric family attribute {family!r} is not pre-registered on "
                    f"Observability (src/repro/obs/__init__.py); this line raises "
                    f"AttributeError on its first event"]
        return []
    return []


def _registration_messages(call: ast.Call, chain: list[str],
                           is_registry_file: bool) -> list[str]:
    if not call.args:
        return []
    first = call.args[0]
    if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
        return []
    name = first.value
    receiver_is_registry = len(chain) >= 2 and bool(_REGISTRY_RECEIVER_RE.match(chain[-2]))
    if not receiver_is_registry and not name.startswith("polystore_"):
        return []  # not a metric registration at all
    kind = chain[-1]
    messages = []
    if not _FAMILY_NAME_RE.match(name):
        messages.append(f"metric family {name!r} must match "
                        f"'polystore_<subsystem>_<what>' (lowercase, underscores)")
    elif kind == "counter" and not name.endswith("_total"):
        messages.append(f"counter {name!r} must end in '_total' (DESIGN.md metric naming)")
    elif kind == "histogram" and not name.endswith(("_seconds", "_rows")):
        messages.append(f"histogram {name!r} must end in '_seconds' or '_rows' "
                        f"(DESIGN.md metric naming)")
    if not is_registry_file:
        messages.append(f"metric family {name!r} registered outside the Observability hub; "
                        f"pre-register it in src/repro/obs/__init__.py so call sites share "
                        f"one source of truth")
    return messages


def taxonomy_findings(tree: ast.Module, path: str,
                      families: dict[str, str]) -> list[tuple[int, str]]:
    """Span names, family uses and registrations in ``tree`` off the taxonomy.

    ``families`` is the hub's registry, as :func:`parse_registry` reads it.
    """
    is_registry_file = path.endswith(_REGISTRY_SUFFIX)
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or (chain := attr_chain(node.func)) is None:
            continue
        terminal = chain[-1]
        if terminal == "span" and "tracer" in chain[:-1]:
            messages = _span_messages(node)
        elif terminal in _RECORD_CALLS:
            messages = _family_use_messages(chain, families)
        elif terminal in _KINDS:
            messages = _registration_messages(node, chain, is_registry_file)
        else:
            continue
        findings += [(node.lineno, message) for message in messages]
    return findings


def test_every_span_and_metric_family_in_src_is_registered():
    families = parse_registry(src_trees()["src/" + _REGISTRY_SUFFIX])
    assert tree_problems(lambda tree, path: taxonomy_findings(tree, path, families),
                         ALLOWED) == []


#: A misspelt family and a free-hand span name -> what the tree test reports.
SEEDS = {
    "family": ("src/repro/views/view.py", "obs.view_refreshes_total.inc(",
               "obs.view_refresh_total.inc(", "'view_refresh_total' is not pre-registered"),
    "span": ("src/repro/middleware/executor/scheduler.py", 'tracer.span("execute", ',
             'tracer.span("exec", ', "prefix 'exec' is not in"),
}


@pytest.mark.parametrize("path, old, new, expected", SEEDS.values(), ids=list(SEEDS))
def test_a_seeded_violation_in_src_fails_the_tree_test(path, old, new, expected):
    families = parse_registry(src_trees()["src/" + _REGISTRY_SUFFIX])
    assert expected in seeded_problems(
        lambda tree, path: taxonomy_findings(tree, path, families), ALLOWED, path, (old, new))


HUB = '''\
class Observability:
    def __init__(self, reg):
        self.requests_total = reg.counter(
            "polystore_requests_total", "requests", ("outcome",))
        self.exec_seconds = reg.histogram(
            "polystore_exec_seconds", "latency", ())
        self.queue_depth = reg.gauge("polystore_queue_depth", "depth", ())
'''


def run(code, path="src/repro/middleware/example.py"):
    return taxonomy_findings(parse(code), path, parse_registry(parse(HUB)))


def test_parse_registry_extracts_families():
    assert parse_registry(parse(HUB)) == {
        "requests_total": "counter",
        "exec_seconds": "histogram",
        "queue_depth": "gauge",
    }


def test_unregistered_family_flagged():
    [(line, message)] = run("""\
        def record(self):
            self._obs.request_total.inc(outcome="ok")
        """)
    assert line == 2
    assert "request_total" in message


def test_unknown_prefix_flagged():
    [(_, message)] = run("""\
        def trace(self):
            with self.tracer.span("bogus:phase", "session"):
                pass
        """)
    assert "'bogus'" in message


def test_category_mismatch_flagged():
    [(_, message)] = run("""\
        def trace(self):
            with self.tracer.span("op:scan-1", "session"):
                pass
        """)
    assert "'operator'" in message


def test_taxonomy_prefixes_accepted_with_their_category():
    calls = "\n".join(
        f'        with self.tracer.span("{prefix}:x", "{category}"):\n'
        f"            pass"
        for prefix, category in SPAN_TAXONOMY.items())
    assert run("def trace(self):\n" + calls,
               path="src/repro/middleware/spans.py") == []


def test_fstring_prefix_checked_dynamic_tail_ignored():
    [(_, message)] = run("""\
        def trace(self, op_id):
            with self.tracer.span(f"op:{op_id}", "operator"):
                pass
            with self.tracer.span(f"weird:{op_id}", "operator"):
                pass
        """)
    assert "'weird'" in message


def test_registration_outside_hub_flagged():
    [(_, message)] = run("""\
        def setup(reg):
            return reg.counter("polystore_adhoc_total", "d", ())
        """)
    assert "outside the Observability hub" in message


def test_naming_conventions():
    messages = " | ".join(message for _, message in run("""\
        def setup(reg):
            reg.counter("polystore_bad_counter", "d", ())
            reg.histogram("polystore_bad_hist", "d", ())
            reg.gauge("unprefixed_depth", "d", ())
        """))
    assert "_total" in messages
    assert "_seconds" in messages
    assert "polystore_<subsystem>_<what>" in messages


#: Call sites the registry and the taxonomy accept.
CLEAN = {
    "registered_family_is_clean": """\
        def record(self, obs):
            obs.requests_total.inc(outcome="ok")
            self._obs.exec_seconds.observe(0.2)
            obs.queue_depth.set(3)
        """,
    "non_family_hub_attrs_ignored": """\
        def record(self, obs):
            obs.tracer.annotations.set("k", 1)
        """,
}


@pytest.mark.parametrize("code", CLEAN.values(), ids=list(CLEAN))
def test_clean_code_has_no_findings(code):
    assert run(code) == []
