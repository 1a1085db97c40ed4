"""Bounded, thread-safe telemetry ring buffer.

The operator daemon keeps the last ``capacity`` per-round samples in memory —
a ring buffer, like RackMind's telemetry store: old samples fall off the
back, the daemon never grows without bound, and ``GET /telemetry`` serves
whatever window is still held together with how much history was dropped.

Samples are plain dicts (JSON-ready); the
:class:`~repro.service.observer.ServiceObserver` appends one per control-loop
round, and the daemon keeps its finished per-request HTTP spans
(``GET /trace``) in a second buffer.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Optional


class TelemetryBuffer:
    """A bounded ring buffer of per-round telemetry samples (or of any
    JSON-ready dicts, such as request spans).

    Thread-safe: the control-loop or HTTP threads append while HTTP handler
    threads snapshot.  ``total`` counts every sample ever appended; ``dropped`` is
    how many fell off the back (``total - len(buffer)``).
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError("telemetry capacity must be positive")
        self.capacity = capacity
        self._samples: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._total = 0
        self._lock = threading.Lock()

    def append(self, sample: dict[str, Any]) -> None:
        with self._lock:
            self._samples.append(sample)
            self._total += 1

    def snapshot(self, limit: Optional[int] = None) -> list[dict[str, Any]]:
        """The retained samples, oldest first (the last ``limit`` if given)."""
        with self._lock:
            samples = list(self._samples)
        if limit is not None and limit >= 0:
            samples = samples[-limit:] if limit else []
        return samples

    @property
    def total(self) -> int:
        """Samples ever appended (dropped ones included)."""
        with self._lock:
            return self._total

    @property
    def dropped(self) -> int:
        """Samples that fell off the back of the ring."""
        with self._lock:
            return self._total - len(self._samples)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)
