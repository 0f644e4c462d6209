"""Tests for Prometheus text exposition (repro.telemetry.prometheus)."""

import re

import pytest

from repro.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    MetricRegistry,
    render_prometheus,
)

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE = re.compile(
    rf"^({_NAME})(\{{{_NAME}=\"[^\"]*\"(,{_NAME}=\"[^\"]*\")*\}})? "
    r"(NaN|[+-]Inf|[0-9.eE+-]+)$"
)
_TYPE = re.compile(rf"^# TYPE ({_NAME}) (counter|gauge|histogram)$")


def parse_exposition(text: str) -> dict[str, dict]:
    """Validate ``text`` under the Prometheus 0.0.4 text-format rules.

    Returns ``{family: {"type": kind, "samples": {series_line_lhs: value}}}``
    and asserts the structural rules a real scraper enforces: every
    sample belongs to a preceding ``# TYPE`` family, histogram families
    carry ``_bucket``/``_sum``/``_count`` series, bucket counts are
    cumulative, and the text ends with a newline.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families: dict[str, dict] = {}
    current: str | None = None
    for line in text.splitlines():
        type_match = _TYPE.match(line)
        if type_match:
            current = type_match.group(1)
            assert current not in families, f"duplicate TYPE for {current}"
            families[current] = {"type": type_match.group(2), "samples": {}}
            continue
        sample = _SAMPLE.match(line)
        assert sample, f"malformed sample line: {line!r}"
        assert current is not None, f"sample before any # TYPE: {line!r}"
        name = sample.group(1)
        kind = families[current]["type"]
        if kind == "histogram":
            assert name in (current + "_bucket", current + "_sum",
                            current + "_count")
        elif kind == "counter":
            assert name == current
        else:
            assert name == current
        lhs = line.rsplit(" ", 1)[0]
        value = sample.group(4)
        families[current]["samples"][lhs] = (
            float("nan") if value == "NaN"
            else float(value.replace("Inf", "inf"))
        )
    return families


class TestRendering:
    def test_counter_gets_total_suffix(self):
        registry = MetricRegistry()
        registry.counter("serve/requests").inc(3)
        families = parse_exposition(render_prometheus(registry))
        family = families["repro_serve_requests_total"]
        assert family["type"] == "counter"
        assert family["samples"]["repro_serve_requests_total"] == 3.0

    def test_gauge_renders_plain(self):
        registry = MetricRegistry()
        registry.gauge("quality/degraded").set(1.0)
        families = parse_exposition(render_prometheus(registry))
        assert families["repro_quality_degraded"]["type"] == "gauge"

    def test_histogram_buckets_cumulative_and_inf_terminated(self):
        registry = MetricRegistry()
        h = registry.histogram("serve/latency_ms", buckets=(1.0, 5.0))
        for v in (0.5, 0.9, 3.0, 100.0):
            h.observe(v)
        families = parse_exposition(render_prometheus(registry))
        samples = families["repro_serve_latency_ms"]["samples"]
        assert samples['repro_serve_latency_ms_bucket{le="1.0"}'] == 2.0
        assert samples['repro_serve_latency_ms_bucket{le="5.0"}'] == 3.0
        assert samples['repro_serve_latency_ms_bucket{le="+Inf"}'] == 4.0
        assert samples["repro_serve_latency_ms_count"] == 4.0
        assert samples["repro_serve_latency_ms_sum"] == pytest.approx(104.4)

    def test_label_suffix_passes_through_as_labels(self):
        registry = MetricRegistry()
        registry.gauge('quality/missing_rate{node="0"}').set(0.25)
        registry.gauge('quality/missing_rate{node="1"}').set(0.75)
        families = parse_exposition(render_prometheus(registry))
        family = families["repro_quality_missing_rate"]
        assert family["samples"]['repro_quality_missing_rate{node="0"}'] == 0.25
        assert family["samples"]['repro_quality_missing_rate{node="1"}'] == 0.75
        # label variants share one # TYPE header
        assert render_prometheus(registry).count("# TYPE") == 1

    def test_labelled_histogram_merges_le_into_block(self):
        registry = MetricRegistry()
        registry.histogram('lat{route="/f"}', buckets=(1.0,)).observe(0.5)
        text = render_prometheus(registry)
        assert 'repro_lat_bucket{route="/f",le="1.0"} 1' in text
        parse_exposition(text)

    def test_slash_names_sanitized(self):
        registry = MetricRegistry()
        registry.counter("serve/cache-hits.total").inc()
        families = parse_exposition(render_prometheus(registry))
        assert "repro_serve_cache_hits_total_total" in families

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricRegistry()) == ""

    def test_namespace_override(self):
        registry = MetricRegistry()
        registry.counter("x").inc()
        assert "acme_x_total 1.0" in render_prometheus(registry, namespace="acme")

    def test_content_type_constant(self):
        assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain")
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE

    def test_nonfinite_values_render_as_prometheus_tokens(self):
        registry = MetricRegistry()
        registry.gauge("weird").set(float("nan"))
        registry.gauge("hot").set(float("inf"))
        text = render_prometheus(registry)
        assert "repro_weird NaN" in text
        assert "repro_hot +Inf" in text
        parse_exposition(text)

class TestLabelHygiene:
    """Tenant and bundle ids become label values; hostile input must not
    corrupt the exposition."""

    def test_escape_label_value_covers_the_three_specials(self):
        from repro.telemetry import escape_label_value

        assert escape_label_value('evil"} bad') == r'evil\"} bad'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("line1\nline2") == r"line1\nline2"
        assert escape_label_value("tenant-α") == "tenant-α"  # UTF-8 passes

    def test_label_block_sorts_and_escapes(self):
        from repro.telemetry import label_block

        assert label_block({}) == ""
        block = label_block({"tenant": 'a"b', "role": "shadow"})
        assert block == '{role="shadow",tenant="a\\"b"}'

    def test_invalid_label_name_raises(self):
        from repro.telemetry import label_block

        with pytest.raises(ValueError, match="label name"):
            label_block({'bad"name': "v"})
        with pytest.raises(ValueError, match="label name"):
            label_block({"0leading": "v"})

    def test_hostile_label_value_renders_one_wellformed_series(self):
        registry = MetricRegistry()
        from repro.telemetry import label_block

        name = "fleet/requests" + label_block({"tenant": 'evil"} bad'})
        registry.counter(name).inc()
        text = render_prometheus(registry)
        (sample_line,) = [l for l in text.splitlines() if not l.startswith("#")]
        assert sample_line == (
            'repro_fleet_requests_total{tenant="evil\\"} bad"} 1.0'
        )
