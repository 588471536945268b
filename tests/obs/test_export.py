"""Exporters and describe(): Chrome trace shape, scrape contents, drift."""

from __future__ import annotations

import json

from repro import DataflowProgram, SystemConfig
from repro.core import build_accelerated_polystore
from repro.datamodel import DataType, Table, make_schema
from repro.obs import chrome_trace_json, parse_prometheus_text
from repro.obs.export import (
    _escape_label,
    _split_label_pairs,
    _unescape_label,
    prometheus_text,
)
from repro.obs.metrics import MetricsRegistry
from repro.stores import RelationalEngine


def _run_system(tmp_path=None, reader=None):
    engine = RelationalEngine("ordersdb")
    if reader is not None:
        engine.changelog.register(reader)
    schema = make_schema(("order_id", DataType.INT),
                         ("amount", DataType.FLOAT))
    engine.load_table("orders", Table(
        schema, [(i, float(i % 7)) for i in range(40)]))
    config = SystemConfig(obs_enabled=True, obs_trace_sample_rate=1.0,
                          durability_sync="always")
    system = build_accelerated_polystore([engine], config=config)
    if tmp_path is not None:
        system.open(str(tmp_path))
        engine.insert("orders", [(1000, 3.5)])
    totals = (system.dataset("ordersdb").table("orders")
              .aggregate(None, total=("sum", "amount")).named("totals"))
    program = DataflowProgram("totals")
    program.output("out", totals)
    system.execute(program, mode="polystore++")
    return system


class TestChromeTrace:
    def test_trace_events_reconstruct_the_span_tree(self):
        system = _run_system()
        document = system.export_chrome_trace()
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        ids = {e["args"]["span_id"] for e in complete}
        for event in complete:
            parent = event["args"]["parent_id"]
            assert parent is None or parent in ids
            assert event["ts"] >= 0 and event["dur"] >= 0
        # Thread metadata events name every track that appears.
        tids = {e["tid"] for e in complete}
        named = {e["tid"] for e in events
                 if e["ph"] == "M" and e.get("name") == "thread_name"}
        assert tids <= named
        # The document round-trips through JSON (Perfetto-loadable).
        assert json.loads(chrome_trace_json(system.obs.tracer.spans()))


class TestPrometheusScrape:
    def test_scrape_includes_durability_and_gauge_families(self, tmp_path):
        system = _run_system(tmp_path)
        families = parse_prometheus_text(system.export_prometheus())
        for name in ("polystore_requests_total",
                     "polystore_wal_appends_total",
                     "polystore_wal_fsync_seconds",
                     "polystore_changelog_retained_batches"):
            assert name in families, name
        system.close()


#: Label values a client can actually send (tenant ids flow into
#: ``serve_*`` labels): embedded quotes, newlines, backslashes, and the
#: mixed sequences that break naive sequential-replace codecs.
_HOSTILE_VALUES = [
    'evil"name',
    "multi\nline",
    "back\\slash",
    "trailing\\",
    "literal\\n-not-a-newline",
    'mix\\"ed\n"all"\\three\\',
    'comma,inside',
    "",
]


class TestHostileLabelValues:
    def test_escape_unescape_round_trips_every_hostile_value(self):
        for value in _HOSTILE_VALUES:
            escaped = _escape_label(value)
            assert "\n" not in escaped  # exposition stays line-oriented
            assert _unescape_label(escaped) == value, value

    def test_unescape_decodes_each_sequence_exactly_once(self):
        # A literal backslash followed by 'n' escapes to \\n; sequential
        # str.replace would re-decode the result into a newline.
        assert _escape_label("literal\\n") == "literal\\\\n"
        assert _unescape_label("literal\\\\n") == "literal\\n"
        # Unknown escape sequences pass through verbatim.
        assert _unescape_label("odd\\t") == "odd\\t"

    def test_split_tracks_escape_runs_inside_quotes(self):
        # In a="x\\" the quote is real (the backslash is itself escaped);
        # a naive single-lookbehind splitter treats it as escaped and
        # swallows the comma into the first pair.
        assert _split_label_pairs('a="x\\\\",b="y"') == ['a="x\\\\"', 'b="y"']
        assert _split_label_pairs('a="x\\"y,z",b="w"') == \
            ['a="x\\"y,z"', 'b="w"']

    def test_scrape_with_hostile_tenant_labels_round_trips(self):
        registry = MetricsRegistry()
        family = registry.counter("polystore_serve_requests_total", "help",
                                  ("tenant", "outcome"))
        for index, value in enumerate(_HOSTILE_VALUES):
            family.inc(index + 1, tenant=value, outcome="ok")
        parsed = parse_prometheus_text(prometheus_text(registry))
        samples = parsed["polystore_serve_requests_total"]["samples"]
        seen = {s["labels"]["tenant"]: s["value"] for s in samples}
        for index, value in enumerate(_HOSTILE_VALUES):
            assert seen[value] == index + 1

    def test_hostile_histogram_labels_round_trip(self):
        registry = MetricsRegistry()
        family = registry.histogram("polystore_serve_request_seconds",
                                    "help", ("tenant",))
        family.observe(0.2, tenant='t"en\\ant\n1')
        parsed = parse_prometheus_text(prometheus_text(registry))
        samples = parsed["polystore_serve_request_seconds"]["samples"]
        assert samples
        for sample in samples:
            assert sample["labels"]["tenant"] == 't"en\\ant\n1'


class TestDescribeFoldIn:
    def test_describe_carries_metrics_changelog_and_checkpoints(self, tmp_path):
        # open() checkpoints every store on attach, so describe() already
        # carries a snapshot id without an explicit checkpoint call.
        system = _run_system(tmp_path, reader=self)
        description = system.describe()

        obs = description["observability"]
        assert obs["enabled"] and obs["requests_sampled"] >= 1
        assert "polystore_requests_total" in description["metrics"]

        changelog = description["changelog"]["ordersdb"]
        assert changelog["retained_batches"] >= 1

        checkpoints = description["durability"]["checkpoints"]
        assert "ordersdb" in checkpoints
        assert checkpoints["ordersdb"]["snapshot_id"] is not None
        system.close()
