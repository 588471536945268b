"""``mimic_pipeline``: the paper's Figure-2 program, served and kept fresh.

``build_mimic_program(epochs=3)`` over synthetic MIMIC patients on the
accelerated deployment, mode ``polystore++``.  The only workload where
compile, optimise, offload planning, migration, the simulated accelerators
and the non-relational engines (timeseries, text, ML) carry weight.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from harness import probe
from workload import (Workload, executor_layer_metrics, plan_cache_hit_ratio,
                      record_wall_ms)

from repro.core import SystemConfig, build_accelerated_polystore
from repro.stores import MLEngine, RelationalEngine, TextEngine, TimeseriesEngine
from repro.workloads import build_mimic_program, generate_mimic, load_mimic
from repro.workloads.generator import clinical_note, rng_for, vital_sign_series

#: Patients at ``--scale 1.0``.  (ISSUE 13 asked for 3 000; 2 000 gives a
#: 15 s run about 20 samples of the one-per-cycle classes instead of 13.)
PATIENTS = 2_000
POINTS = 48
EPOCHS = 3
MODE = "polystore++"
#: ``alt`` cycles ``min_age`` through more values than the plan cache holds
#: (64), so under LRU every one-shot is a never-seen fingerprint.
ALT_AGES = 81
MIN_ACCURACY = 0.6
#: Pre-drawn admission payloads (vitals + note), reused round-robin.
ADMIT_POOL = 64
SESSION_WORKERS = 2


class MimicPipeline(Workload):
    name = "mimic_pipeline"
    cycle = ("hot",) * 8 + ("alt", "write")

    def setup(self, stage: Callable[[], None]) -> None:
        patients = self.scaled(PATIENTS, 200)
        dataset = generate_mimic(patients, points_per_patient=POINTS,
                                 seed=self.seed)
        #: The oracle's model: every admitted patient's age, by pid order.
        self.ages = [row[1] for row in dataset.admissions.rows]
        stage()
        self.relational = RelationalEngine("clinical-db")
        self.timeseries = TimeseriesEngine("monitors")
        self.text = TextEngine("notes-db")
        load_mimic(dataset, relational=self.relational,
                   timeseries=self.timeseries, text=self.text)
        stage()
        self.system = build_accelerated_polystore(
            [self.relational, self.timeseries, self.text, MLEngine("dnn-engine")],
            config=SystemConfig(session_workers=SESSION_WORKERS))
        self.session = self.system.session(name="mimic")
        self.prepared = self.session.prepare(build_mimic_program(epochs=EPOCHS),
                                             mode=MODE)
        self.alt_runs = 0
        # Admission payloads are drawn here, not inside the timed write.
        rng = rng_for(self.seed + 1)
        self.payloads = []
        for k in range(ADMIT_POOL):
            acute = k % 3 == 0
            self.payloads.append((acute, vital_sign_series(
                rng, n_points=POINTS, base=93.0 if acute else 75.0,
                spread=6.0 if acute else 3.0), clinical_note(rng, acute=acute)))
        stage()

    # -- ops -----------------------------------------------------------------------------

    def _min_age(self) -> int:
        return 18 + self.alt_runs % ALT_AGES

    def args(self, cls: str, index: int) -> Any:
        if cls == "hot":
            return None
        if cls == "alt":
            return self._min_age()
        age = 18 + int(self.draw(index) * 77)
        return (len(self.ages) + 1, age) + self.payloads[index % ADMIT_POOL]

    def run(self, cls: str, args: Any) -> Any:
        if cls == "hot":
            return self.prepared.run()
        if cls == "alt":
            # Building the program is part of what a one-shot client pays.
            return self.system.execute(
                build_mimic_program(epochs=EPOCHS, min_age=args), mode=MODE)
        pid, age, acute, vitals, note = args
        with self.span("stores.relational.insert"):
            self.relational.insert("admissions", [(
                pid, age, "F", 0.0, 2 + acute, int(acute), "sepsis", int(acute))])
        with self.span("stores.timeseries.append_many"):
            self.timeseries.append_many(f"hr/{pid}", vitals)
        with self.span("stores.text.add_documents"):
            self.text.add_documents([{
                "doc_id": f"note/{pid}", "text": note, "metadata": {"pid": pid}}])
        return None

    def check(self, cls: str, args: Any, result: Any) -> bool:
        if cls == "write":
            self.ages.append(args[1])
            return True
        want = len(self.ages)
        if cls == "alt":
            self.alt_runs += 1
            want = sum(1 for age in self.ages if age >= args)
        model = result.output("stay_model")
        return (model["rows"] == want
                and model["metrics"]["accuracy"] > MIN_ACCURACY)

    def close(self) -> None:
        self.session.close()

    # -- per-layer metrics (traced pass) -------------------------------------------------

    def layers(self, seconds: float, phase: dict[str, float]) -> dict[str, float]:
        span, system = self.span, self.system
        with span("probe:mimic_oneshot"):
            oneshot = self.system.execute(
                build_mimic_program(epochs=EPOCHS, min_age=self._min_age()),
                mode=MODE)
            self.alt_runs += 1
        report = oneshot.report
        self.prepared.run()  # re-pin after any write
        t0 = time.perf_counter()
        pinned = self.prepared.run()
        pinned_s = time.perf_counter() - t0

        def compile_with(accelerated: bool) -> Callable[[int], Any]:
            return lambda i: system.compile(
                build_mimic_program(epochs=EPOCHS, min_age=18 + i % ALT_AGES),
                accelerated=accelerated)

        rounds = max(3, int(seconds))
        with span("probe:compile"):
            depth = probe({
                "compiler.compile": compile_with(True),
                "compiler.compile.no_offload": compile_with(False),
                "compiler.fingerprint": lambda i: build_mimic_program(
                    epochs=EPOCHS, min_age=18 + i % ALT_AGES).fingerprint(),
                "compiler.build_program": lambda i: build_mimic_program(
                    epochs=EPOCHS, min_age=18 + i % ALT_AGES),
            }, rounds, span)
        with span("probe:charged_speedup"):
            charged = {mode: min(
                system.execute(build_mimic_program(epochs=EPOCHS), mode=mode)
                .total_time_s for _ in range(2))
                for mode in ("cpu_polystore", MODE)}
        offloaded = [r for r in report.records if r.offloaded]
        out = executor_layer_metrics(pinned_s, pinned.report)
        out.update({
            "client.plan_cache_hit_ratio": plan_cache_hit_ratio(
                self.session, system.default_session()),
            "client.pinned_frac":
                pinned.report.cached_tasks / len(pinned.report.records),
            "compiler.compile_ms": depth["compiler.compile"] * 1e3,
            "compiler.fingerprint_us": (depth["compiler.fingerprint"]
                                        - depth["compiler.build_program"]) * 1e6,
            "middleware.optimizer.plan_ms":
                (depth["compiler.compile"]
                 - depth["compiler.compile.no_offload"]) * 1e3,
            "middleware.migration.charged_ms": report.migration_time_s * 1e3,
            "middleware.migration.bytes": float(report.migration_bytes),
            "accelerators.offloaded_ops": float(report.offloaded_tasks),
            "accelerators.charged_ms":
                sum(r.charged_time_s for r in offloaded) * 1e3,
            "accelerators.charged_speedup_x":
                charged["cpu_polystore"] / charged[MODE],
            "stores.timeseries.summarize_ms":
                record_wall_ms(report, "ts_summarize"),
            "stores.text.features_ms": record_wall_ms(report, "keyword_features"),
            "stores.relational.join_ms": record_wall_ms(report, "join"),
            "stores.ml.train_ms": record_wall_ms(report, "train"),
            # The scan record is the adapter's leaf read: scan + pushed predicate.
            "middleware.adapters.predicate_rows_per_s":
                len(self.ages) / (record_wall_ms(report, "scan", "index_seek")
                                  / 1e3),
            "stores.relational.insert_rows_per_s":
                1e3 / self.span_fast_ms("stores.relational.insert"),
        })
        return out
