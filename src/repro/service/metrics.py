"""Prometheus-style metrics: counters, gauges, histograms, text exposition.

A tiny, stdlib-only metrics layer in the spirit of ``prometheus_client``: the
daemon's ``GET /metrics`` renders every registered metric in the Prometheus
text exposition format (version 0.0.4), so the reproduction's control loop
can be scraped by a real Prometheus exactly like descheduler-sim's closed
loop.  :func:`parse_prometheus_text` is the validating inverse used by the
tests and the CI service-smoke job.

All metric types are thread-safe (the control-loop thread writes while
scrape threads render) and support optional labels::

    registry = MetricsRegistry()
    faults = registry.counter("repro_faults_total", "Faults applied.")
    faults.inc(kind="node_crash")
    print(registry.render())
"""

from __future__ import annotations

import math
import re
import threading
from typing import Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus_text",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram buckets (seconds) — sized for control-loop round
#: latencies, from sub-millisecond no-op rounds to multi-second CP solves.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0
)


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    # Most series carry no label and are updated every round.
    return tuple(sorted(labels.items())) if labels else ()


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared bookkeeping: name, help text, per-label-set storage."""

    type_name = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help_text = help_text
        self._lock = threading.Lock()

    def render(self) -> list[str]:
        raise NotImplementedError

    def _header(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.type_name}",
        ]


class _Labelled(_Metric):
    """One value per label set, rendered one sample line each."""

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            items = sorted(self._values.items())
        if not items:
            # An idle series still exposes its zero: dashboards can tell
            # "never fired" from "metric does not exist".
            lines.append(f"{self.name} 0")
            return lines
        for key, value in items:
            lines.append(
                f"{self.name}{_format_labels(dict(key))} {_format_value(value)}"
            )
        return lines


class Counter(_Labelled):
    """A monotonically increasing value, optionally split by labels."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        super().inc(amount, **labels)


class Gauge(_Labelled):
    """A value that goes up and down (fleet size, viability, queue depth)."""

    type_name = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)


class Histogram(_Metric):
    """A cumulative-bucket histogram in the Prometheus convention:
    ``<name>_bucket{le="..."}`` series plus ``_sum`` and ``_count``."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        if not buckets:
            raise ValueError("a histogram needs at least one bucket")
        bounds = sorted(float(b) for b in buckets)
        if bounds != list(dict.fromkeys(bounds)):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = tuple(bounds)
        self._counts = [0] * (len(self.buckets) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    def render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            counts = list(self._counts)
            total_sum, total_count = self._sum, self._count
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            lines.append(
                f'{self.name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
            )
        cumulative += counts[-1]
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{self.name}_sum {_format_value(total_sum)}")
        lines.append(f"{self.name}_count {total_count}")
        return lines


class MetricsRegistry:
    """An ordered collection of metrics rendered as one text document."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str) -> Counter:
        return self.register(Counter(name, help_text))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str) -> Gauge:
        return self.register(Gauge(name, help_text))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self.register(Histogram(name, help_text, buckets))  # type: ignore[return-value]

    def render(self) -> str:
        """The whole registry in Prometheus text format (0.0.4)."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def parse_prometheus_text(
    text: str,
) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse a Prometheus text-format document into
    ``{series_name: [(labels, value), ...]}``.

    Validating: an unparseable sample line, a sample whose name was not
    announced by a ``# TYPE`` header (histogram ``_bucket``/``_sum``/
    ``_count`` suffixes are resolved to their base metric) or a malformed
    label set raises :class:`ValueError`.  This is what "``/metrics`` output
    parses as valid Prometheus text format" means in the tests and the CI
    smoke job.
    """
    declared: dict[str, str] = {}
    series: dict[str, list[tuple[dict[str, str], float]]] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {number}: malformed TYPE comment: {raw!r}")
            declared[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {number}: unparseable sample: {raw!r}")
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = name[: -len(suffix)] if name.endswith(suffix) else None
            if stripped and declared.get(stripped) == "histogram":
                base = stripped
                break
        if base not in declared:
            raise ValueError(
                f"line {number}: sample {name!r} has no preceding # TYPE"
            )
        labels_text = match.group("labels") or ""
        labels: dict[str, str] = {}
        if labels_text:
            consumed = 0
            for label_match in _LABEL_RE.finditer(labels_text):
                labels[label_match.group(1)] = (
                    label_match.group(2)
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                consumed += len(label_match.group(0))
            plain = labels_text.replace(",", "").replace(" ", "")
            matched = "".join(
                f'{k}="{_escape_label(v)}"' for k, v in labels.items()
            ).replace(" ", "")
            if len(plain) != len(matched):
                raise ValueError(
                    f"line {number}: malformed label set {{{labels_text}}}"
                )
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {number}: bad sample value {match.group('value')!r}"
            ) from None
        series.setdefault(name, []).append((labels, value))
    return series
