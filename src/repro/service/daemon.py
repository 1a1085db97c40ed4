"""The long-running operator daemon: REST/JSON over the control loop.

:class:`OperatorDaemon` owns one :class:`~repro.api.scenario.Scenario`, runs
its control loop on a worker thread and serves live state over HTTP
(stdlib-only: :class:`http.server.ThreadingHTTPServer`, no new
dependencies).  Endpoints:

======================  =====================================================
``GET /healthz``        liveness + run state
``GET /configuration``  latest observed placement and viability
``GET /telemetry``      bounded ring buffer of per-round utilization samples
``GET /metrics``        Prometheus text format (round latency histogram,
                        migration/violation/fault/SLA counters)
``GET /plans``          executed plan sequence (audit replay)
``GET /audit``          append-only audit log entries
``GET /result``         the finished run's full :class:`RunResult`
``GET /trace``          the run's span tree (:mod:`repro.obs`) — live
                        snapshot while running, final tree when done — plus
                        recent per-request HTTP spans
``POST /run``           start the scenario's control loop
``POST /vjobs``         submit a vjob workload (applied mid-run at the next
                        iteration boundary)
``POST /faults``        inject a fault (crash / slowdown / migration failure)
======================  =====================================================

Commands posted while the loop runs are queued on a
:class:`~repro.service.commands.LoopCommandQueue` and drained by the loop at
iteration boundaries — so HTTP never races the simulation, and a scenario
driven entirely over HTTP (vjobs and faults posted before ``POST /run``)
reproduces the exact deterministic :class:`RunResult` of the equivalent
in-process run.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional
from urllib.parse import parse_qs, urlparse

from ..api.loop import ControlLoop
from ..api.results import RunResult
from ..api.scenario import Scenario
from ..obs import Tracer
from ..sim.faults import FaultSchedule
from .audit import replay_plans
from .commands import LoopCommandQueue
from .observer import ServiceObserver
from .serialize import fault_event_from_dict, workload_from_dict
from .telemetry import TelemetryBuffer

#: How many finished per-request HTTP spans ``GET /trace`` keeps.
REQUEST_TRACE_CAPACITY = 256

__all__ = ["OperatorDaemon"]


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class OperatorDaemon:
    """One scenario, one control loop, one HTTP server.

    The daemon is inert until :meth:`start` binds the server (``port=0``
    picks an ephemeral port — read :attr:`port` afterwards).  The control
    loop itself starts on ``POST /run`` (or :meth:`start_run`) and runs
    exactly once per daemon: states ``idle`` → ``running`` →
    ``completed``/``failed``.  Use as a context manager to guarantee
    shutdown.
    """

    def __init__(
        self,
        scenario: Scenario,
        host: str = "127.0.0.1",
        port: int = 8090,
        audit_path: Optional[str] = None,
        telemetry_capacity: int = 512,
    ) -> None:
        self.scenario = scenario
        self.host = host
        self.port = port
        self.observer = ServiceObserver(
            audit_path=audit_path, telemetry_capacity=telemetry_capacity
        )
        self.commands = LoopCommandQueue()
        # A fault injector is always attached so POST /faults works even on
        # scenarios that declared no schedule of their own.
        if self.scenario.faults is None:
            self.scenario.faults = FaultSchedule()
        self.scenario.observe(self.observer)

        self._lock = threading.Lock()
        self._state = "idle"
        self._error: Optional[str] = None
        self._run_thread: Optional[threading.Thread] = None
        #: The live control loop of the in-flight run, published by the run
        #: thread as soon as it is built so :meth:`close` can stop it.
        self._loop: Optional[ControlLoop] = None
        self._closing = False
        #: Completed per-request HTTP span dicts, newest last (bounded so a
        #: chatty operator cannot grow the daemon without limit).
        self.request_spans = TelemetryBuffer(REQUEST_TRACE_CAPACITY)
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def start(self) -> "OperatorDaemon":
        """Bind the HTTP server and serve requests on a daemon thread."""
        if self._server is not None:
            return self
        server = ThreadingHTTPServer((self.host, self.port), _Handler)
        server.daemon_threads = True
        server.operator = self  # type: ignore[attr-defined]
        self.port = server.server_address[1]
        self._server = server
        self._server_thread = threading.Thread(
            target=server.serve_forever, name="repro-operator-http", daemon=True
        )
        self._server_thread.start()
        return self

    def close(self) -> None:
        """Stop serving and wind down an in-flight run.

        A running control loop is asked to stop at its next iteration
        boundary (:meth:`ControlLoop.request_stop`) and joined, so its
        planning engine is released deterministically — a partitioned or
        repair run must never leak its worker-process pool past the daemon's
        lifetime.  Idempotent."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._server_thread is not None:
            self._server_thread.join(timeout=5.0)
            self._server_thread = None
        with self._lock:
            self._closing = True
            loop, thread = self._loop, self._run_thread
        if loop is not None:
            loop.request_stop()
        if thread is not None:
            thread.join(timeout=30.0)
        if loop is not None:
            # run() already closed the loop on its way out; this is the
            # belt-and-braces for a run thread that never reached run()
            # (close() is idempotent).
            loop.close()

    def __enter__(self) -> "OperatorDaemon":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # run state machine                                                   #
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def start_run(self) -> None:
        """Launch the scenario's control loop on a worker thread.

        One run per daemon: the loop mutates vjob state, so a second run
        would observe terminated vjobs — restart the daemon with a fresh
        scenario instead.
        """
        with self._lock:
            if self._state == "running":
                raise _HTTPError(409, "a run is already in progress")
            if self._state in ("completed", "failed"):
                raise _HTTPError(
                    409,
                    "this daemon's run already finished; a run mutates vjob "
                    "state, so restart the daemon with a fresh scenario",
                )
            self._state = "running"

        def _run() -> None:
            try:
                loop = self.scenario.build(command_queue=self.commands)
                with self._lock:
                    self._loop = loop
                    closing = self._closing
                if closing:
                    # close() raced the build: stop before the first
                    # iteration so run() releases the loop immediately.
                    loop.request_stop()
                loop.run()
            except Exception as error:
                with self._lock:
                    self._state = "failed"
                    self._error = repr(error)
            else:
                with self._lock:
                    self._state = "completed"

        self._run_thread = threading.Thread(
            target=_run, name="repro-operator-loop", daemon=True
        )
        self._run_thread.start()

    def wait(self, timeout: Optional[float] = None) -> str:
        """Block until the run finishes; returns the final state."""
        thread = self._run_thread
        if thread is not None:
            thread.join(timeout=timeout)
        return self.state

    # ------------------------------------------------------------------ #
    # tracing                                                             #
    # ------------------------------------------------------------------ #

    def run_trace(self) -> Optional[Dict[str, Any]]:
        """The run's span tree: the finished result's attached trace when
        the run is over, a live snapshot of the control loop's tracer while
        it runs, or ``None`` for an untraced scenario."""
        result = self.observer.result
        if result is not None and result.trace is not None:
            return result.trace
        with self._lock:
            loop = self._loop
        tracer = getattr(loop, "tracer", None)
        if tracer is not None:
            return tracer.to_dict()
        return None

    # ------------------------------------------------------------------ #
    # request handling (called from HTTP threads)                         #
    # ------------------------------------------------------------------ #

    def handle_get(
        self, path: str, query: Dict[str, list[str]]
    ) -> tuple[int, Any]:
        if path == "/healthz":
            with self._lock:
                state, error = self._state, self._error
            return 200, {
                "status": "ok",
                "state": state,
                "error": error,
                "simulated_time": self.observer.simulated_time,
                "pending_commands": self.commands.pending,
            }
        if path == "/configuration":
            return 200, {
                "state": self.state,
                "simulated_time": self.observer.simulated_time,
                "configuration": self.observer.configuration,
            }
        if path == "/telemetry":
            limit = _int_param(query, "limit")
            return 200, {
                "samples": self.observer.telemetry.snapshot(limit=limit),
                "total": self.observer.telemetry.total,
                "dropped": self.observer.telemetry.dropped,
            }
        if path == "/metrics":
            return 200, self.observer.metrics.render()
        if path == "/plans":
            plans = replay_plans(self.observer.audit)
            return 200, {"plans": plans, "count": len(plans)}
        if path == "/audit":
            kinds = query.get("kind")
            entries = self.observer.audit.entries(
                offset=_int_param(query, "offset") or 0,
                limit=_int_param(query, "limit"),
                kind=kinds[0] if kinds else None,
            )
            return 200, {"entries": entries, "total": len(self.observer.audit)}
        if path == "/result":
            result = self.observer.result
            if result is None:
                raise _HTTPError(404, f"no result yet (state: {self.state})")
            return 200, result.to_dict()
        if path == "/trace":
            return 200, {
                "state": self.state,
                "trace": self.run_trace(),
                "requests": self.request_spans.snapshot(
                    limit=_int_param(query, "limit")
                ),
            }
        if path == "/commands":
            return 200, {
                "pending": self.commands.pending,
                "applied": list(self.commands.applied),
                "errors": [
                    {"label": label, "error": error}
                    for label, error in self.commands.errors
                ],
            }
        raise _HTTPError(404, f"unknown path {path!r}")

    def handle_post(self, path: str, payload: Any) -> tuple[int, Any]:
        if path == "/run":
            self.start_run()
            return 202, {"state": self.state}
        if path == "/vjobs":
            try:
                workload = workload_from_dict(_require_object(payload, "vjob"))
            except ValueError as error:
                raise _HTTPError(400, str(error)) from None
            self.commands.submit_workload(workload)
            return 202, {
                "queued": workload.vjob.name,
                "pending_commands": self.commands.pending,
            }
        if path == "/faults":
            try:
                event = fault_event_from_dict(_require_object(payload, "fault"))
            except ValueError as error:
                raise _HTTPError(400, str(error)) from None
            self.commands.inject_fault(event)
            return 202, {
                "queued": f"{event.kind.value}:{event.target}",
                "pending_commands": self.commands.pending,
            }
        raise _HTTPError(404, f"unknown path {path!r}")


def _require_object(payload: Any, what: str) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise _HTTPError(400, f"the {what} payload must be a JSON object")
    return payload


def _refuse_constant(literal: str) -> Any:
    """``NaN`` / ``Infinity`` / ``-Infinity`` are not JSON: a non-finite
    time or duration would only resurface in a ``/result`` body that no
    JSON parser reads."""
    raise ValueError(f"{literal} is not a JSON number")


def _int_param(query: Dict[str, list[str]], name: str) -> Optional[int]:
    """A non-negative integer query parameter (``None`` when absent): a
    negative ``offset`` or ``limit`` would slice from the end."""
    values = query.get(name)
    if not values:
        return None
    if not values[0].isdecimal():
        raise _HTTPError(
            400, f"query parameter {name!r} must be a non-negative integer"
        )
    return int(values[0])


class _Handler(BaseHTTPRequestHandler):
    """Maps HTTP requests onto the owning :class:`OperatorDaemon`."""

    server_version = "repro-operator/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def operator(self) -> OperatorDaemon:
        return self.server.operator  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        pass  # keep test output and operator terminals quiet

    def _reply(self, status: int, body: Any) -> None:
        if isinstance(body, str):
            data = body.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = (json.dumps(body, sort_keys=True) + "\n").encode()
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _dispatch(self, handler: Callable[[], tuple[int, Any]]) -> None:
        # Every request gets its own transient tracer: the span times the
        # handler (not the socket write) and lands in the daemon's bounded
        # request-span buffer, served back by ``GET /trace``.
        tracer = Tracer(name="request")
        with tracer.activate() as root:
            root.set(method=self.command, path=urlparse(self.path).path)
            try:
                status, body = handler()
            except _HTTPError as error:
                status, body = error.status, {"error": error.message}
            except Exception as error:  # the daemon must outlive a bad request
                status, body = 500, {"error": repr(error)}
            root.set(status=status)
        self.operator.request_spans.append(tracer.to_dict()["root"])
        self._reply(status, body)

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        self._dispatch(lambda: self.operator.handle_get(parsed.path, query))

    def do_POST(self) -> None:
        parsed = urlparse(self.path)

        def handle() -> tuple[int, Any]:
            length = int(self.headers.get("Content-Length", 0) or 0)
            raw = self.rfile.read(length) if length else b""
            if raw:
                try:
                    payload = json.loads(raw, parse_constant=_refuse_constant)
                except ValueError as error:
                    raise _HTTPError(400, f"request body is not JSON: {error}")
            else:
                payload = {}
            return self.operator.handle_post(parsed.path, payload)

        self._dispatch(handle)
