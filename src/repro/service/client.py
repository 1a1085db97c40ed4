"""A thin HTTP client for the operator daemon (stdlib ``urllib`` only).

Used by the tests, the operator guide and the service smoke tool; every
method maps 1:1 onto a daemon endpoint and returns the decoded JSON
payload (or, for :meth:`OperatorClient.result`, a rebuilt
:class:`~repro.api.results.RunResult`).  Error responses raise
:class:`ServiceError` carrying the HTTP status and the daemon's message.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Mapping, Optional, Union
from urllib.parse import urlencode

from ..api.results import RunResult
from ..sim.faults import FaultEvent
from ..workloads.traces import VJobWorkload
from .metrics import parse_prometheus_text
from .serialize import fault_event_to_dict, workload_to_dict

__all__ = ["OperatorClient", "ServiceError"]


class ServiceError(Exception):
    """An HTTP error response from the daemon."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class OperatorClient:
    """Talks to one :class:`~repro.service.OperatorDaemon`.

    ``base_url`` is the daemon's root (``http://127.0.0.1:8090``); pass a
    per-request ``timeout`` ceiling suited to the deployment (local daemons
    answer in milliseconds).
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    # plumbing                                                            #
    # ------------------------------------------------------------------ #

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
        query: Optional[Mapping[str, Any]] = None,
    ) -> tuple[int, str]:
        url = self.base_url + path
        if query:
            url += "?" + urlencode(
                {k: v for k, v in query.items() if v is not None}
            )
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                return reply.status, reply.read().decode()
        except urllib.error.HTTPError as error:
            body = error.read().decode()
            try:
                message = json.loads(body).get("error", body)
            except (json.JSONDecodeError, AttributeError):
                message = body
            raise ServiceError(error.code, str(message)) from None

    def _get_json(
        self, path: str, query: Optional[Mapping[str, Any]] = None
    ) -> Any:
        _, body = self._request("GET", path, query=query)
        return json.loads(body)

    def _post_json(self, path: str, payload: Mapping[str, Any]) -> Any:
        _, body = self._request("POST", path, payload=payload)
        return json.loads(body)

    # ------------------------------------------------------------------ #
    # read endpoints                                                      #
    # ------------------------------------------------------------------ #

    def healthz(self) -> Dict[str, Any]:
        return self._get_json("/healthz")

    def state(self) -> str:
        return str(self.healthz()["state"])

    def configuration(self) -> Dict[str, Any]:
        return self._get_json("/configuration")

    def telemetry(self, limit: Optional[int] = None) -> Dict[str, Any]:
        return self._get_json("/telemetry", query={"limit": limit})

    def metrics_text(self) -> str:
        """The raw ``GET /metrics`` document (Prometheus text format)."""
        _, body = self._request("GET", "/metrics")
        return body

    def metrics(self) -> Dict[str, Any]:
        """Parsed metrics: ``{series_name: [(labels, value), ...]}``
        (validating — raises ValueError on malformed exposition)."""
        return parse_prometheus_text(self.metrics_text())

    def plans(self) -> list[Dict[str, Any]]:
        return list(self._get_json("/plans")["plans"])

    def audit(
        self,
        offset: int = 0,
        limit: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> list[Dict[str, Any]]:
        return list(
            self._get_json(
                "/audit", query={"offset": offset or None, "limit": limit, "kind": kind}
            )["entries"]
        )

    def commands(self) -> Dict[str, Any]:
        """Queued/applied/failed operator commands, for post-run assertions."""
        return self._get_json("/commands")

    def trace(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The run's span tree (live snapshot while running, final tree
        when done; ``None`` for untraced scenarios) plus the daemon's recent
        per-request HTTP spans — ``limit`` bounds the request list."""
        return self._get_json("/trace", query={"limit": limit})

    def result(self) -> RunResult:
        """The finished run as a full :class:`RunResult` (404 → ServiceError
        while the run is still going)."""
        return RunResult.from_dict(self._get_json("/result"))

    # ------------------------------------------------------------------ #
    # write endpoints                                                     #
    # ------------------------------------------------------------------ #

    def start_run(self) -> Dict[str, Any]:
        return self._post_json("/run", {})

    def submit_vjob(
        self, workload: Union[VJobWorkload, Mapping[str, Any]]
    ) -> Dict[str, Any]:
        """Submit a workload: a live :class:`VJobWorkload` (serialized in
        full fidelity) or an already-JSON payload (full form or the simple
        ``{"name", "vm_count", ...}`` spec)."""
        if isinstance(workload, VJobWorkload):
            payload: Mapping[str, Any] = workload_to_dict(workload)
        else:
            payload = workload
        return self._post_json("/vjobs", payload)

    def inject_fault(
        self, event: Union[FaultEvent, Mapping[str, Any]]
    ) -> Dict[str, Any]:
        if isinstance(event, FaultEvent):
            payload: Mapping[str, Any] = fault_event_to_dict(event)
        else:
            payload = event
        return self._post_json("/faults", payload)

    # ------------------------------------------------------------------ #
    # convenience                                                         #
    # ------------------------------------------------------------------ #

    def wait(self, timeout: float = 300.0, poll: float = 0.05) -> str:
        """Poll ``/healthz`` until the run leaves the ``running`` state (or
        never entered it); returns the final state."""
        deadline = time.monotonic() + timeout
        while True:
            state = self.state()
            if state in ("completed", "failed"):
                return state
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"run still {state!r} after {timeout} seconds"
                )
            time.sleep(poll)
