"""Prometheus text exposition (format 0.0.4) for a MetricRegistry.

Renders the registry's live primitives as the plain-text scrape format
every Prometheus-compatible collector understands, so ``GET /metrics``
works with standard tooling instead of a bespoke JSON shape (which stays
available behind ``?format=json``).

Mapping:

* ``Counter``    → ``counter`` with the conventional ``_total`` suffix;
* ``Gauge``      → ``gauge``;
* ``Histogram``  → ``histogram`` with cumulative ``_bucket{le="..."}``
  lines over the fixed bounds plus ``+Inf``, ``_sum`` and ``_count``.

Registry names are slash-namespaced (``serve/latency_ms``); exposition
prefixes ``repro_`` and rewrites every character outside
``[a-zA-Z0-9_:]`` to ``_`` (``repro_serve_latency_ms``). A trailing
``{label="value",...}`` block in a registry name passes through as
Prometheus labels, which is how per-sensor series are modelled:
``quality/missing_rate{node="3"}`` renders as
``repro_quality_missing_rate{node="3"}``.
"""

from __future__ import annotations

import re

from .registry import MetricRegistry

__all__ = [
    "CONTENT_TYPE",
    "escape_label_value",
    "label_block",
    "render_prometheus",
]

#: the Content-Type Prometheus scrapers expect for text format 0.0.4
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")
# A label value may contain backslash-escaped sequences (\\, \", \n) but
# never a raw quote or backslash — those would corrupt the exposition.
_LABELS = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)=\"((?:[^\"\\]|\\.)*)\"$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def escape_label_value(value: str) -> str:
    """Escape ``value`` for use inside a ``label="..."`` block.

    Implements the text-format 0.0.4 escaping rules: backslash, double
    quote and newline are the only characters that can corrupt the
    exposition, and each has a defined escape. Everything else (UTF-8
    included) passes through, so a hostile tenant name like
    ``evil"} bad 1`` stays one well-formed label value.
    """
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def label_block(labels: dict[str, str]) -> str:
    """Render ``labels`` as a ``{k="v",...}`` block with escaped values.

    Keys are emitted in sorted order so metric names are deterministic
    (the registry treats the rendered name as the identity of a series).
    Label *names* cannot be escaped in the format, so an invalid name
    raises rather than silently corrupting the exposition.
    """
    if not labels:
        return ""
    pairs = []
    for key in sorted(labels):
        if not _LABEL_NAME.match(key):
            raise ValueError(f"invalid Prometheus label name {key!r}")
        pairs.append(f'{key}="{escape_label_value(labels[key])}"')
    return "{" + ",".join(pairs) + "}"


def _split_labels(name: str) -> tuple[str, str]:
    """``base{k="v"}`` → (``base``, ``{k="v"}``); no block → (name, '')."""
    brace = name.find("{")
    if brace == -1 or not name.endswith("}"):
        return name, ""
    base, block = name[:brace], name[brace + 1 : -1]
    pairs = []
    for part in _split_label_pairs(block):
        match = _LABELS.match(part.strip())
        if match is None:  # not a well-formed label block: sanitize whole name
            return name, ""
        pairs.append(f'{match.group(1)}="{match.group(2)}"')
    return base, "{" + ",".join(pairs) + "}"


def _split_label_pairs(block: str) -> list[str]:
    """Split ``k="v",k2="v2"`` on commas outside quoted values."""
    parts: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for char in block:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\" and in_quotes:
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    parts.append("".join(current))
    return parts


def _metric_name(name: str, namespace: str) -> tuple[str, str]:
    base, labels = _split_labels(name)
    base = _INVALID.sub("_", base).strip("_")
    if namespace:
        base = f"{namespace}_{base}"
    if base and base[0].isdigit():
        base = "_" + base
    return base, labels


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def render_prometheus(
    registry: MetricRegistry, namespace: str = "repro", exemplars: bool = False
) -> str:
    """Render every metric in ``registry`` as Prometheus text format.

    Series sharing a base name (label variants) are grouped under one
    ``# TYPE`` header, as the format requires.

    With ``exemplars=True``, histogram ``_bucket`` lines whose bucket
    has a pinned trace id gain an OpenMetrics-style exemplar suffix —
    `` # {trace_id="..."} value`` — so a slow bucket links directly to
    the merged trace that landed in it. Off by default because strict
    text-format 0.0.4 parsers may reject the suffix; OpenMetrics-aware
    scrapers (and humans) read it fine.
    """
    counters: dict[str, list[str]] = {}
    gauges: dict[str, list[str]] = {}
    histograms: dict[str, list[str]] = {}

    with registry._create_lock:  # freeze membership against concurrent creation
        counter_items = sorted(registry._counters.items())
        gauge_items = sorted(registry._gauges.items())
        histogram_items = sorted(registry._histograms.items())

    for name, metric in counter_items:
        base, labels = _metric_name(name, namespace)
        counters.setdefault(base + "_total", []).append(
            f"{base}_total{labels} {_format_value(metric.value)}"
        )

    for name, metric in gauge_items:
        base, labels = _metric_name(name, namespace)
        gauges.setdefault(base, []).append(
            f"{base}{labels} {_format_value(metric.value)}"
        )

    for name, metric in histogram_items:
        base, labels = _metric_name(name, namespace)
        lines = histograms.setdefault(base, [])
        inner = labels[1:-1] if labels else ""
        for idx, (bound, cumulative) in enumerate(metric.cumulative_buckets()):
            le = f'le="{_format_value(bound)}"'
            label_block = "{" + (inner + "," if inner else "") + le + "}"
            line = f"{base}_bucket{label_block} {cumulative}"
            if exemplars:
                pinned = metric.bucket_exemplars[idx]
                if pinned is not None:
                    trace_id, value = pinned
                    line += (
                        f' # {{trace_id="{escape_label_value(trace_id)}"}}'
                        f" {_format_value(value)}"
                    )
            lines.append(line)
        lines.append(f"{base}_sum{labels} {_format_value(metric.sum if metric.count else 0.0)}")
        lines.append(f"{base}_count{labels} {metric.count}")

    out: list[str] = []
    for family, kind in (
        (counters, "counter"),
        (gauges, "gauge"),
        (histograms, "histogram"),
    ):
        for base in sorted(family):
            out.append(f"# TYPE {base} {kind}")
            out.extend(family[base])
    return "\n".join(out) + ("\n" if out else "")
