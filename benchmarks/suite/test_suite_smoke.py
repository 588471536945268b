"""Smoke test of the benchmark suite (tier-1; small scale, fixed cycle counts).

Checks the contract, not the numbers: ``BENCHMARK.json`` matches the metric
dictionary, every named metric comes out for every workload with its unit,
nothing fails, counts repeat exactly under one seed and the op schedule
changes under another.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Per-layer metrics that are pure counts of a fixed op schedule.
COUNTS = re.compile(r"(\.bytes|\.checkpoints|_n|views\..*_refreshes"
                    r"|views\.full_recomputes|\.shards_contacted"
                    r"|\.offloaded_ops|\.schedule_crc)$")


def _start(workload: str, trace: int, seed: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--scale", "0.02", "--cycles", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def results() -> dict[tuple[str, str], dict]:
    """Every run the tests below look at, started at once (two cores)."""
    runs = {(w, kind): _start(w, trace, 13) for w in WORKLOADS
            for kind, trace in (("untraced", 0), ("traced", 1), ("again", 1))}
    runs[WORKLOADS[0], "other_seed"] = _start(WORKLOADS[0], 1, 14)
    out = {}
    for key, process in runs.items():
        stdout, _ = process.communicate(timeout=120)
        assert process.returncode == 0, key
        out[key] = json.loads(stdout.strip().splitlines()[-1])
    return out


def test_benchmark_json_matches_the_metric_dictionary():
    sys.path.insert(0, str(SUITE))
    try:
        import metricdefs
    finally:
        sys.path.remove(str(SUITE))
    assert BENCHMARK == metricdefs.benchmark_json(BENCHMARK["run_seconds"])
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names + WORKLOADS)
    assert "setup_s" in names
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(results, workload):
    result = results[workload, "untraced"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_counts_repeat(results, workload):
    first, again = results[workload, "traced"], results[workload, "again"]
    assert first["correct"] and again["correct"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in first["metrics"].items()} == want
    trace = json.loads((SUITE / "_work" / f"trace-{workload}.json").read_text())
    assert trace["traceEvents"], "the traced pass must write loadable spans"
    assert first["attempted"] == again["attempted"]
    for name in filter(COUNTS.search, want):
        assert first["metrics"][name] == again["metrics"][name], name


def test_another_seed_changes_the_op_schedule(results):
    first = results[WORKLOADS[0], "traced"]
    other = results[WORKLOADS[0], "other_seed"]
    assert other["correct"] and other["attempted"] == first["attempted"]
    assert (other["metrics"]["harness.schedule_crc"]
            != first["metrics"]["harness.schedule_crc"])
