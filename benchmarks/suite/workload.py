"""What every workload shares: seeded draws, the adapter walk, report helpers."""

from __future__ import annotations

import random
from typing import Any, Callable

from harness import Spans, fast, no_span

_DRAWS = 8192


class Workload:
    """One benchmark workload: data, deployment, op mix and its oracle.

    Subclasses set ``name``, ``cycle`` (op classes of one mix cycle, in
    order) and implement ``setup``/``run``/``check``/``close`` plus
    ``layers`` for the traced pass.  All data and the op schedule are a pure
    function of ``(seed, op index)``: ``draw(i)`` is the i-th op's uniform
    draw, data comes from ``data_rng``.
    """

    name = ""
    cycle: tuple[str, ...] = ()

    def __init__(self, seed: int, scale: float, workdir: str,
                 spans: Spans | None = None) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        #: Set on the traced pass only; ``span`` is a no-op otherwise.
        self.spans = spans
        self.span: Callable[..., Any] = spans.span if spans else no_span
        #: Layer metrics only ``finish`` can measure (e.g. recovery time).
        self.finish_metrics: dict[str, float] = {}
        # String seeds hash through SHA-512, so draws do not depend on
        # PYTHONHASHSEED or on how much data generation consumed.
        self.data_rng = random.Random(f"{seed}:data")
        ops_rng = random.Random(f"{seed}:ops")
        self._draws = [ops_rng.random() for _ in range(_DRAWS)]

    def draw(self, index: int) -> float:
        """The uniform [0, 1) draw of op ``index``."""
        return self._draws[index % _DRAWS]

    def scaled(self, size: int, floor: int) -> int:
        """``size`` at ``--scale 1.0``, proportionally smaller below it."""
        return max(floor, int(size * self.scale))

    # -- the contract with the harness ---------------------------------------------------

    def setup(self, stage: Callable[[], None]) -> None:
        """Build data and deployment; call ``stage()`` between stages."""
        raise NotImplementedError

    def args(self, cls: str, index: int) -> Any:
        """Inputs of op ``index`` of class ``cls``; built outside the timing."""
        raise NotImplementedError

    def run(self, cls: str, args: Any) -> Any:
        """The timed call of one op of class ``cls``."""
        raise NotImplementedError

    def check(self, cls: str, args: Any, result: Any) -> bool:
        """The oracle: is ``result`` right?  Also advances the model."""
        raise NotImplementedError

    def begin_trace(self) -> None:
        """Called before the traced phase (to remember counter baselines)."""

    def finish(self) -> list[bool]:
        """Post-run checks, each counted as one attempted op."""
        return []

    def layers(self, seconds: float, phase: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics this workload can measure (traced pass).

        ``seconds`` is the probe budget; ``phase`` the traced phase's summary.
        """
        raise NotImplementedError

    def span_fast_ms(self, name: str) -> float:
        """Fast-quartile duration (raw ms) of the traced spans called ``name``."""
        return fast(self.spans.durations_s(name)) * 1e3

    def close(self) -> None:
        """Stop servers and threads, close stores."""


def adapter_walk(graph: Any, adapters: dict[str, Any]) -> Any:
    """Run a compiled graph by calling each node's adapter directly.

    The executor's job minus the executor: no stages, pool, records, spans
    or feedback — the onion depth just below ``Executor.execute``.
    """
    results: dict[str, Any] = {}
    for node in graph.topological_order():
        results[node.op_id] = adapters[node.engine].execute(
            node, [results[op_id] for op_id in node.inputs])
    return results[graph.outputs[0]]


def executor_run(system: Any, graph: Any, workers: int) -> Any:
    """Build an executor the way a session does and run ``graph`` on it.

    The onion depth just below ``prepared.run``: no bind, no plan-cache
    revalidation, no aging check, no request span.
    """
    from repro.middleware.executor import Executor
    from repro.middleware.migration import DataMigrator

    executor = Executor(system.catalog, DataMigrator(system.network),
                        max_workers=workers,
                        runtime_stats=system.feedback_stats,
                        views=system.views, obs=system.obs)
    return executor.execute(graph)


def record_wall_ms(report: Any, *kinds: str) -> float:
    """Summed per-operator wall (ms) of the report's records of ``kinds``."""
    return sum(record.wall_time_s for record in report.records
               if record.kind in kinds) * 1e3


def executor_layer_metrics(run_s: float, report: Any) -> dict[str, float]:
    """Session/executor split of one run from its public report.

    ``run_s`` is what the caller measured around ``prepared.run``;
    ``elapsed_wall_s`` is the executor's own stopwatch and ``wall_time_s``
    the sum of its operators' walls.
    """
    summary = report.summary()
    return {
        "client.session_self_us": (run_s - summary["elapsed_wall_s"]) * 1e6,
        "middleware.executor_self_us":
            (summary["elapsed_wall_s"] - summary["wall_time_s"]) * 1e6,
        "middleware.executor.charged_ms": summary["total_time_s"] * 1e3,
        "middleware.executor.wall_uncharged_frac":
            1.0 - summary["wall_time_s"] / run_s,
        "middleware.executor.observed_concurrency":
            summary["observed_concurrency"],
    }


def plan_cache_hit_ratio(*sessions: Any) -> float:
    """Hits over lookups across the given sessions' plan caches."""
    hits = misses = 0
    for session in sessions:
        stats = session.stats()["plan_cache"]
        hits += stats["hits"]
        misses += stats["misses"]
    return hits / max(hits + misses, 1)
