"""Ratchet on the dict edge: ``to_dicts(`` / ``from_dicts(`` / ``Schema.infer(``.

One row form — positional tuples typed by the plan — runs between the heap
and a result.  A row dict, or a schema inferred from values, is "either the
public edge or a bug" (ROADMAP, "Subtraction"): this test lists the public
edges, with the reason each exists and how many call sites it has, and fails
on anything else under ``src/repro``.  Removing a site means lowering its
count here; adding one means arguing for a new line.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SITE = re.compile(r"(?<!def )\b(?:to_dicts|from_dicts|Schema\.infer)\(")

#: file (relative to ``src/repro``) -> (call sites allowed, why they exist)
ALLOWED = {
    "datamodel/table.py":
        (1, "the Table API itself: from_dicts infers"),
    "middleware/adapters/nosql_adapters.py":
        (2, "key/value and graph leaves are schemaless: typed from their records"),
    "middleware/adapters/base.py":
        (1, "a python_udf may hand a federated operator dict rows"),
    "views/view.py":
        (1, "a view over a python_udf may be handed dict rows"),
    "stores/relational/operators.py":
        (1, "TableScan(<dicts>), kept while benchmarks/suite/w_scan_agg.py probes it"),
    "workloads/snorkel.py":
        (2, "labeling functions are user code over row dicts"),
}


def _sites() -> dict[str, int]:
    found: dict[str, int] = {}
    for path in sorted(SRC.rglob("*.py")):
        count = len(SITE.findall(path.read_text()))
        if count:
            found[path.relative_to(SRC).as_posix()] = count
    return found


def test_dict_rows_and_inferred_schemas_stay_at_the_public_edge():
    found = _sites()
    strays = {path: count for path, count in found.items() if path not in ALLOWED}
    assert not strays, f"dict-edge calls outside the allow-list: {strays}"
    grown = {path: (count, ALLOWED[path][0]) for path, count in found.items()
             if count > ALLOWED[path][0]}
    assert not grown, f"dict-edge call sites grew (found, allowed): {grown}"
    stale = {path: (found.get(path, 0), allowed) for path, (allowed, _) in ALLOWED.items()
             if found.get(path, 0) < allowed}
    assert not stale, f"lower these counts, the sites are gone (found, allowed): {stale}"
