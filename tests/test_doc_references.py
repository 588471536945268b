"""The docs name only what exists: every backticked identifier in DESIGN.md and
README.md is a word of some Python file under ``src/``, ``tests/`` or
``benchmarks/``.

An identifier is a span like ``KINDS``, ``engine.scan`` or ``select()``;
each dotted part must occur.  File names (``DESIGN.md``) and spans that are
not identifiers (SQL, shell, expressions) are not checked.  Deleting a class
or function therefore fails here until the docs stop naming it.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md")
CODE = ("src", "tests", "benchmarks")

IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\(\))?")
FILE_SUFFIXES = {"md", "py", "json", "txt", "log", "pkl", "yml", "toml"}


def _backticked_identifiers(doc: str) -> list[str]:
    text = re.sub(r"```.*?```", "", (ROOT / doc).read_text(), flags=re.S)
    return [span for span in re.findall(r"`([^`\n]+)`", text)
            if IDENTIFIER.fullmatch(span)
            and span.rsplit(".", 1)[-1] not in FILE_SUFFIXES]


def test_every_backticked_identifier_names_something_in_the_code():
    words = {word for top in CODE for path in (ROOT / top).rglob("*.py")
             for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))}
    dangling = sorted({f"{doc}: `{span}`" for doc in DOCS
                       for span in _backticked_identifiers(doc)
                       if any(part not in words
                              for part in span.removesuffix("()").split("."))})
    assert dangling == []


def test_the_check_reads_the_docs():
    assert len(_backticked_identifiers("DESIGN.md")) > 100
    assert len(_backticked_identifiers("README.md")) > 10
