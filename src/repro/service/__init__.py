"""repro.service — the long-running operator daemon and its building blocks.

The paper's control loop (Section 3.1) is a cluster *operator*: it watches,
decides and reconfigures forever.  This package gives the reproduction that
operational shape: :class:`OperatorDaemon` runs one scenario's loop behind a
REST/JSON API (stdlib ``http.server``; no new dependencies) with live
telemetry, Prometheus-format metrics and an append-only audit log whose
replay loader reconstructs the executed plan sequence byte-for-byte.

Quick start::

    from repro import Scenario

    daemon = Scenario(nodes=nodes, workloads=workloads).serve(port=0)
    with daemon:                      # binds the server; .port is now real
        daemon.start_run()
        ...                           # curl http://127.0.0.1:<port>/metrics
        daemon.wait()

Every piece also works standalone: :class:`ServiceObserver` attaches to any
run via ``Scenario(observers=[...])``; :class:`LoopCommandQueue` feeds a
loop built with ``Scenario.build(command_queue=...)``; the
:mod:`~repro.service.metrics` registry renders valid Prometheus text without
any HTTP on top.  See ``docs/OPERATOR_GUIDE.md`` for the endpoint reference.
"""

from .audit import AuditLog, replay_plans
from .client import OperatorClient, ServiceError
from .commands import LoopCommandQueue
from .daemon import OperatorDaemon
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from .observer import ServiceObserver
from .telemetry import TelemetryBuffer

__all__ = [
    "AuditLog",
    "Counter",
    "Gauge",
    "Histogram",
    "LoopCommandQueue",
    "MetricsRegistry",
    "OperatorClient",
    "OperatorDaemon",
    "ServiceError",
    "ServiceObserver",
    "TelemetryBuffer",
    "parse_prometheus_text",
    "replay_plans",
]
