#!/usr/bin/env python3
"""One command for the whole benchmark suite.

    python3 benchmarks/suite/run.py                       # all workloads, untraced
    python3 benchmarks/suite/run.py --workload scan_agg --seed 13 --seconds 15 --trace 1
    python3 benchmarks/suite/run.py --selfcheck 10        # steadiness evidence

Every measurement runs in a fresh subprocess (``PYTHONHASHSEED=0``).  An
untraced run of one workload starts three: two that only set up (``setup_s``
is the median of the three set-ups) and one that sets up, warms up and runs
the timed phase.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(HERE, "_work")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import metricdefs  # noqa: E402

#: workload name -> (module, class); modules import ``repro`` and are only
#: loaded inside worker subprocesses, where import time counts as set-up.
_WORKLOADS = {
    "point_serve": ("w_point_serve", "PointServe"),
    "scan_agg": ("w_scan_agg", "ScanAgg"),
    "mimic_pipeline": ("w_mimic_pipeline", "MimicPipeline"),
    "ingest_dash": ("w_ingest_dash", "IngestDash"),
}
#: Set-ups per run whose median is ``setup_s`` (one of them is the main run).
SETUPS = 3
WARMUP_S = 2.0
WARMUP_CYCLES = 2
DEFAULT_SEED = 13
DEFAULT_SECONDS = 15


# -- worker: one workload in this process -------------------------------------------------


def worker(opts: argparse.Namespace) -> dict:
    """Set up one workload, then (unless ``--setup-only``) measure it."""
    # One core: the system's threads time-share it (see README, "One core").
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[os.getpid() % len(cpus)]})
    cal_ms: list[float] = []
    cal_wall = [0.0]

    def stage() -> None:
        start = time.perf_counter()
        cal_ms.append(harness.cal_sample())
        cal_wall[0] += time.perf_counter() - start

    stage()
    module, cls_name = _WORKLOADS[opts.workload]
    workload_cls = getattr(importlib.import_module(module), cls_name)
    stage()
    spans = harness.Spans() if opts.trace else None
    workdir = os.path.join(WORK, f"{opts.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workload_cls(opts.seed, opts.scale, workdir, spans)
    try:
        workload.setup(stage)
        # Set-up ends at the first validated op of every class.
        first, index = harness.run_phase(_OncePerClass(workload), 0, cycles=1)
        stage()
        setup_raw = time.time() - opts.spawned_at - cal_wall[0]
        out = {
            "setup_s": setup_raw * harness.CAL_REF_MS / statistics.median(cal_ms),
            "setup_s.raw": setup_raw,
            "attempted": first.attempted, "failed": first.failed,
            "errors": first.errors,
        }
        if opts.setup_only:
            return out
        _, index = _phase(workload, index, opts, WARMUP_S, warmup=True)
        gc.collect()
        gc.freeze()
        if opts.trace:
            detail, recs = _traced(workload, spans, index, opts)
        else:
            rec, index = _phase(workload, index, opts, opts.seconds)
            detail, recs = harness.summarize(rec), [rec]
        # Post-run checks; each counts as one more attempted op.
        checks = workload.finish()
        detail.update(workload.finish_metrics)
        out["attempted"] += sum(r.attempted for r in recs) + len(checks)
        out["failed"] += sum(r.failed for r in recs) + checks.count(False)
        out["errors"] += [error for r in recs for error in r.errors]
        out["errors"] += [f"post-run check {i} failed"
                          for i, ok in enumerate(checks) if not ok]
        out["detail"] = detail
        return out
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


class _OncePerClass:
    """A workload's view whose cycle holds each op class exactly once."""

    def __init__(self, workload) -> None:
        self.cycle = tuple(dict.fromkeys(workload.cycle))
        self.args, self.run, self.check = (workload.args, workload.run,
                                           workload.check)


def _phase(workload, index: int, opts: argparse.Namespace, seconds: float,
           span=harness.no_span, warmup: bool = False):
    """A phase: ``--cycles`` whole cycles if given, else ``seconds`` long.

    The warm-up runs at least ``WARMUP_CYCLES`` cycles either way.
    """
    if opts.cycles:
        return harness.run_phase(
            workload, index, cycles=WARMUP_CYCLES if warmup else opts.cycles,
            span=span)
    return harness.run_phase(workload, index, seconds=seconds, span=span,
                             min_cycles=WARMUP_CYCLES if warmup else 1)


def _traced(workload, spans, index: int, opts: argparse.Namespace):
    """The traced pass: a plain phase, the same phase with spans, the probes.

    Returns the metrics and the two phases' recorders.
    """
    share = opts.seconds / 4.0
    plain, index = _phase(workload, index, opts, share)
    workload.begin_trace()
    traced, index = _phase(workload, index, opts, share, spans.span)
    phase = harness.summarize(traced)
    phase["harness.trace_overhead_frac"] = (
        1.0 - phase["ops_per_s"] / harness.summarize(plain)["ops_per_s"])
    detail = dict(phase)
    with spans.span("probes"):
        detail.update(workload.layers(opts.seconds / 2.0, phase))
    # Witness that the op schedule is a function of the seed.
    detail["harness.schedule_crc"] = float(zlib.crc32(
        repr([workload.draw(i) for i in range(64)]).encode()))
    for name, total in spans.self_times_s().items():
        detail[f"span_self_s.{name}"] = total
    os.makedirs(WORK, exist_ok=True)
    spans.write(os.path.join(WORK, f"trace-{opts.workload}.json"))
    return detail, [plain, traced]


# -- parent: orchestrate subprocesses, aggregate, print ------------------------------------


def _spawn(opts: argparse.Namespace, *extra: str) -> dict:
    """Run one worker subprocess to completion; its result document."""
    command = [sys.executable, os.path.abspath(__file__), "--worker",
               "--workload", opts.workload, "--seed", str(opts.seed),
               "--seconds", str(opts.seconds), "--scale", str(opts.scale),
               "--trace", str(opts.trace), "--cycles", str(opts.cycles),
               "--spawned-at", repr(time.time()), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                          check=False)
    if done.returncode != 0:
        raise SystemExit(f"worker for {opts.workload} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(opts: argparse.Namespace) -> dict:
    """One full run of ``opts.workload``: every metric, plus the counts."""
    setups = ([] if opts.trace else
              [_spawn(opts, "--setup-only") for _ in range(SETUPS - 1)])
    main = _spawn(opts)
    setups.append(main)
    values = dict(main["detail"])
    values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    values["setup_s.raw"] = statistics.median(s["setup_s.raw"] for s in setups)
    return {
        "workload": opts.workload, "seed": opts.seed, "values": values,
        "attempted": sum(s["attempted"] for s in setups),
        "failed": sum(s["failed"] for s in setups),
        "errors": [e for s in setups for e in s["errors"]],
    }


def contract_line(result: dict, trace: int) -> str:
    """The result document the driver reads from the last line."""
    names = metricdefs.PER_LAYER if trace else metricdefs.END_TO_END
    values = result["values"]
    # A layer this workload never enters spends 0 there.
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit, *_ in names}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_result(result: dict) -> None:
    """Every metric by name with its unit, raw beside calibrated."""
    values = result["values"]
    print(f"== {result['workload']} seed={result['seed']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for error in result["errors"]:
        print(f"   FAILED {error}")
    for name in sorted(values):
        if name.endswith(".raw"):
            continue
        raw = values.get(f"{name}.raw")
        beside = f"   (raw {raw:.6g})" if raw is not None else ""
        print(f"   {name:<48} {values[name]:>14.6g} "
              f"{metricdefs.UNITS.get(name, ''):<6}{beside}")


def selfcheck(opts: argparse.Namespace, workloads: list[str]) -> int:
    """``opts.selfcheck`` full untraced runs; is every gate metric steady?

    Prints, per workload and gate metric, the median, IQR/median and
    range/median of the calibrated and of the raw values, and fails when a
    calibrated IQR/median exceeds half the metric's bound (``setup_s``,
    whose spread the driver does not gate, is reported but never fails).
    """
    runs: dict[str, list[dict]] = {name: [] for name in workloads}
    for k in range(opts.selfcheck):
        for name in workloads:
            opts.workload, opts.seed = name, opts.base_seed + k
            runs[name].append(measure(opts))
            print(f"run {k + 1}/{opts.selfcheck} {name}: "
                  f"failed={runs[name][-1]['failed']}", flush=True)
    report: dict = {"runs": opts.selfcheck, "seconds": opts.seconds,
                    "base_seed": opts.base_seed, "workloads": {}}
    worst = 0
    header = (f"{'metric':<16}{'median':>12}{'iqr/med':>9}{'rng/med':>9}   "
              f"{'raw median':>12}{'iqr/med':>9}{'rng/med':>9}  verdict")
    for name in workloads:
        print(f"\n== {name}\n{header}")
        rows = report["workloads"][name] = {}
        failed = sum(run["failed"] for run in runs[name])
        for metric, _, _, bound in metricdefs.END_TO_END:
            row = {"bound": bound}
            for label, key in (("cal", metric), ("raw", f"{metric}.raw")):
                series = [run["values"].get(key, run["values"][metric])
                          for run in runs[name]]
                q1, median, q3 = statistics.quantiles(series, n=4)
                row[label] = {"median": median, "iqr_frac": (q3 - q1) / median,
                              "range_frac": (max(series) - min(series)) / median,
                              "values": series}
            steady = (metric == "setup_s"
                      or row["cal"]["iqr_frac"] <= bound / 2.0)
            row["steady"] = steady
            worst += not steady
            rows[metric] = row
            print(f"{metric:<16}{row['cal']['median']:>12.5g}"
                  f"{row['cal']['iqr_frac']:>9.3f}{row['cal']['range_frac']:>9.3f}   "
                  f"{row['raw']['median']:>12.5g}{row['raw']['iqr_frac']:>9.3f}"
                  f"{row['raw']['range_frac']:>9.3f}  "
                  f"{'ok' if steady else 'NOISY'} (bound {bound})")
        rows["failed"] = failed
        worst += failed
    if opts.out:
        with open(opts.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return 1 if worst else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(_WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="data-size multiplier (smoke tests use 0.02)")
    parser.add_argument("--cycles", type=int, default=0,
                        help="run exactly this many mix cycles per phase "
                             "instead of --seconds (counts then repeat exactly)")
    parser.add_argument("--selfcheck", type=int, default=0, metavar="N")
    parser.add_argument("--out", help="write the --selfcheck report here")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    opts = parser.parse_args()
    if opts.worker:
        print(json.dumps(worker(opts)))
        return 0
    # The suite needs the system under test; fail before measuring anything.
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no system to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    workloads = [opts.workload] if opts.workload else list(_WORKLOADS)
    if opts.selfcheck:
        opts.base_seed = opts.seed
        return selfcheck(opts, workloads)
    failed = 0
    for name in workloads:
        opts.workload = name
        result = measure(opts)
        failed += result["failed"]
        print_result(result)
        if len(workloads) == 1:
            print(contract_line(result, opts.trace))
    return 0 if len(workloads) == 1 or not failed else 1


if __name__ == "__main__":
    sys.exit(main())
