"""Exporters: Prometheus text exposition and Chrome ``trace_event`` JSON.

Two read-side formats over the registry and tracer:

* :func:`prometheus_text` renders every metric family in the Prometheus
  text exposition format (``# HELP`` / ``# TYPE`` headers, one sample per
  labeled series, histograms as cumulative ``_bucket``/``_sum``/``_count``
  samples with ``le`` labels) — the payload a scrape endpoint would serve.
  :func:`parse_prometheus_text` is the matching minimal parser, used by CI
  and tests to assert the output round-trips.
* :func:`chrome_trace` renders finished spans as Chrome ``trace_event``
  complete events (``"ph": "X"``), loadable in ``about:tracing`` or
  Perfetto.  Each event carries ``span_id``/``parent_id`` in its ``args``
  so the span tree is recoverable exactly even where Perfetto's
  per-track time-nesting heuristic cannot see it.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import HistogramChild, MetricsRegistry

if TYPE_CHECKING:
    from repro.obs.trace import Span


# -- Prometheus text format -----------------------------------------------------------


def _escape_label(value: str) -> str:
    """Prometheus label-value escaping: backslash, newline, double quote.

    Label values are client-supplied (tenant ids flow into ``serve_*``
    labels), so hostile values must stay inside their quotes and keep the
    exposition line-oriented.  Backslash must be escaped first.
    """
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _unescape_label(value: str) -> str:
    """Single-pass inverse of :func:`_escape_label`.

    Sequential ``str.replace`` calls mis-decode mixed sequences (a literal
    backslash followed by ``n`` escapes to ``\\\\n``, which a later
    ``\\n -> newline`` replace would corrupt); a scanner decodes each
    escape exactly once.
    """
    out: list[str] = []
    index = 0
    length = len(value)
    while index < length:
        char = value[index]
        if char == "\\" and index + 1 < length:
            follower = value[index + 1]
            if follower == "\\":
                out.append("\\")
                index += 2
                continue
            if follower == "n":
                out.append("\n")
                index += 2
                continue
            if follower == '"':
                out.append('"')
                index += 2
                continue
        out.append(char)
        index += 1
    return "".join(out)


def _format_labels(names: tuple[str, ...] | list[str],
                   values: tuple[str, ...], extra: str = "") -> str:
    pairs = [f'{name}="{_escape_label(value)}"'
             for name, value in zip(names, values)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.families():
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for child in family.children():
            if isinstance(child, HistogramChild):
                with child._lock:
                    counts = list(child.bucket_counts)
                    total = child.count
                    total_sum = child.sum
                cumulative = 0
                for boundary, count in zip(child.boundaries, counts):
                    cumulative += count
                    labels = _format_labels(family.label_names,
                                            child.label_values,
                                            f'le="{_format_value(boundary)}"')
                    lines.append(f"{family.name}_bucket{labels} {cumulative}")
                labels = _format_labels(family.label_names, child.label_values,
                                        'le="+Inf"')
                lines.append(f"{family.name}_bucket{labels} {total}")
                labels = _format_labels(family.label_names, child.label_values)
                lines.append(f"{family.name}_sum{labels} "
                             f"{_format_value(total_sum)}")
                lines.append(f"{family.name}_count{labels} {total}")
            else:
                labels = _format_labels(family.label_names, child.label_values)
                lines.append(f"{family.name}{labels} "
                             f"{_format_value(child.value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> dict[str, dict[str, Any]]:
    """Parse exposition text back into ``{family: {type, samples}}``.

    A deliberately small parser covering the subset :func:`prometheus_text`
    emits; it raises ``ValueError`` on malformed lines, which is exactly
    what CI uses to assert the exporter output stays well-formed.
    """
    families: dict[str, dict[str, Any]] = {}
    current: str | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ValueError(f"malformed HELP line: {raw!r}")
            current = parts[2]
            families.setdefault(current, {"type": None, "help":
                                          parts[3] if len(parts) > 3 else "",
                                          "samples": []})
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"malformed TYPE line: {raw!r}")
            families.setdefault(parts[2], {"type": None, "help": "",
                                           "samples": []})
            families[parts[2]]["type"] = parts[3]
            continue
        if line.startswith("#"):
            continue
        name, labels, value = _parse_sample(raw)
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in families:
                base = name[:-len(suffix)]
                break
        if base not in families:
            raise ValueError(f"sample for unknown family: {raw!r}")
        families[base]["samples"].append(
            {"name": name, "labels": labels, "value": value})
    return families


def _parse_sample(line: str) -> tuple[str, dict[str, str], float]:
    rest = line.strip()
    if "{" in rest:
        name, _, tail = rest.partition("{")
        body, _, value_part = tail.rpartition("}")
        labels = _parse_labels(body)
    else:
        name, _, value_part = rest.partition(" ")
        labels = {}
    value_str = value_part.strip()
    if not name or not value_str:
        raise ValueError(f"malformed sample line: {line!r}")
    return name, labels, float(value_str)


def _parse_labels(body: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    if not body:
        return labels
    for pair in _split_label_pairs(body):
        key, _, quoted = pair.partition("=")
        if not (quoted.startswith('"') and quoted.endswith('"')):
            raise ValueError(f"malformed label pair: {pair!r}")
        labels[key] = _unescape_label(quoted[1:-1])
    return labels


def _split_label_pairs(body: str) -> list[str]:
    # Quote state must track escape *runs*, not just the previous
    # character: in `a\\"` the quote is real (the backslash is itself
    # escaped), while in `a\"` it is not.  An explicit escaped flag
    # consumes backslashes pairwise.
    pairs: list[str] = []
    in_quote = False
    escaped = False
    start = 0
    for index, char in enumerate(body):
        if in_quote:
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_quote = False
        elif char == '"':
            in_quote = True
        elif char == ",":
            pairs.append(body[start:index])
            start = index + 1
    pairs.append(body[start:])
    return [pair for pair in pairs if pair]


# -- Chrome trace_event JSON ----------------------------------------------------------


def chrome_trace(spans: "list[Span]", *, process_name: str = "polystore",
                 ) -> dict[str, Any]:
    """Finished spans as a Chrome/Perfetto ``trace_event`` document.

    Timestamps are microseconds relative to the earliest span, one track
    (``tid``) per originating thread.  ``args`` carries the exact span
    tree (``span_id``/``parent_id``/``trace_id``) plus every span
    attribute.
    """
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    epoch = min(span.start_s for span in spans)
    events: list[dict[str, Any]] = []
    thread_names: dict[int, str] = {}
    for span in spans:
        thread_names.setdefault(span.thread_id, span.thread_name)
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": (span.start_s - epoch) * 1e6,
            "dur": span.duration_s * 1e6,
            "pid": 1,
            "tid": span.thread_id,
            "args": {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "trace_id": span.trace_id,
                **span.attrs,
            },
        })
    metadata: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 1,
        "args": {"name": process_name},
    }]
    for tid, name in sorted(thread_names.items()):
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": name},
        })
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def chrome_trace_json(spans: "list[Span]", **kwargs: Any) -> str:
    """:func:`chrome_trace` serialized to a JSON string."""
    return json.dumps(chrome_trace(spans, **kwargs), indent=None,
                      default=repr)
