"""The stdlib Prometheus layer: counters, gauges, histograms, text I/O."""

import math

import pytest

from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)


def test_counter_counts_and_rejects_decrements():
    counter = Counter("repro_test_total", "Test counter.")
    counter.inc()
    counter.inc(2.0)
    assert "repro_test_total 3" in counter.render()
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_counter_labels_are_independent_series():
    counter = Counter("repro_faults_total", "Faults.")
    counter.inc(kind="node_crash")
    counter.inc(kind="node_crash")
    counter.inc(kind="node_slowdown")
    lines = counter.render()
    assert 'repro_faults_total{kind="node_crash"} 2' in lines
    assert 'repro_faults_total{kind="node_slowdown"} 1' in lines


def test_idle_counter_still_renders_a_zero_sample():
    counter = Counter("repro_idle_total", "Never fired.")
    assert "repro_idle_total 0" in counter.render()


def test_gauge_goes_up_and_down():
    gauge = Gauge("repro_vms", "VMs.")
    gauge.set(10)
    gauge.inc(-3)
    assert "repro_vms 7" in gauge.render()


def test_histogram_buckets_are_cumulative():
    histogram = Histogram("repro_latency_seconds", "Latency.", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        histogram.observe(value)
    lines = histogram.render()
    assert 'repro_latency_seconds_bucket{le="0.1"} 1' in lines
    assert 'repro_latency_seconds_bucket{le="1"} 2' in lines
    assert 'repro_latency_seconds_bucket{le="+Inf"} 3' in lines
    assert "repro_latency_seconds_count 3" in lines
    series = parse_prometheus_text("\n".join(lines))
    assert series["repro_latency_seconds_sum"] == [({}, pytest.approx(5.55))]


def test_histogram_rejects_duplicate_buckets():
    with pytest.raises(ValueError):
        Histogram("repro_bad_seconds", "Bad.", buckets=(1.0, 1.0))


def test_registry_rejects_duplicate_names():
    registry = MetricsRegistry()
    registry.counter("repro_x_total", "X.")
    with pytest.raises(ValueError):
        registry.counter("repro_x_total", "Again.")


def test_invalid_metric_name_is_rejected():
    with pytest.raises(ValueError):
        Counter("0bad name", "Nope.")


def test_render_parses_back_losslessly():
    registry = MetricsRegistry()
    faults = registry.counter("repro_faults_total", "Faults applied.")
    faults.inc(kind="node_crash")
    gauge = registry.gauge("repro_simulated_time_seconds", "Sim time.")
    gauge.set(120.5)
    histogram = registry.histogram(
        "repro_round_latency_seconds", "Round latency.", buckets=(0.1, 1.0)
    )
    histogram.observe(0.25)

    series = parse_prometheus_text(registry.render())
    assert series["repro_faults_total"] == [({"kind": "node_crash"}, 1.0)]
    assert series["repro_simulated_time_seconds"] == [({}, 120.5)]
    buckets = dict(
        (labels["le"], value)
        for labels, value in series["repro_round_latency_seconds_bucket"]
    )
    assert buckets == {"0.1": 0.0, "1": 1.0, "+Inf": 1.0}
    assert series["repro_round_latency_seconds_count"] == [({}, 1.0)]


def test_parser_handles_inf_and_escaped_labels():
    text = (
        "# HELP x_total Help.\n"
        "# TYPE x_total counter\n"
        'x_total{path="a\\"b\\\\c"} +Inf\n'
    )
    series = parse_prometheus_text(text)
    ((labels, value),) = series["x_total"]
    assert labels == {"path": 'a"b\\c'}
    assert value == math.inf


@pytest.mark.parametrize(
    "document",
    [
        "garbage line\n",
        "# TYPE x_total counter\nx_total not-a-number\n",
        "undeclared_total 1\n",
        "# TYPE x_total counter gauge extra\n",
    ],
)
def test_parser_rejects_malformed_documents(document):
    with pytest.raises(ValueError):
        parse_prometheus_text(document)
