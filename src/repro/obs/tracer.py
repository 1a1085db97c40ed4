"""Hierarchical span tracer — zero-dependency, contextvar-scoped.

The tracer answers "where did this reconfiguration round spend its
time?" without pulling in an OpenTelemetry stack: a :class:`Tracer`
owns a tree of :class:`Span` objects, the *active* ``(tracer, span)``
pair lives in a :mod:`contextvars` variable, and the module-level
:func:`span` context manager opens a child under whatever is active —
or returns a shared no-op span when tracing is off, so instrumented
code paths cost a single contextvar read when no tracer is installed.

Timestamps are seconds since the tracer started, taken from an
injectable monotonic clock (:func:`time.perf_counter` by default; tests
and doctests inject counters for determinism).  The wall-clock epoch of
the start is recorded once (``started_at``) so exported traces can be
aligned with log lines.  All tree mutation happens under an
:class:`threading.RLock` so the operator daemon's HTTP threads can
snapshot a live trace (:meth:`Tracer.to_dict`) while the control loop
is still writing to it.

``contextvars`` do **not** propagate into new threads: a thread that
should trace must enter :meth:`Tracer.activate` itself (the control loop
does).  Worker processes record nothing; the parent spans what they
return (``repro.scale`` does, for a pooled zone).
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "span",
    "current_span",
    "current_tracer",
]

#: The active ``(tracer, span)`` pair for the current context, or ``None``
#: when tracing is off.  One variable (not two) so the pair is swapped
#: atomically.
_ACTIVE: ContextVar[Optional[Tuple["Tracer", "Span"]]] = ContextVar(
    "repro_obs_active", default=None
)


class Span:
    """One timed node of the trace tree.

    ``start``/``end`` are seconds relative to the owning tracer's origin
    (``end is None`` while the span is open).  ``attributes`` are
    structured facts set once (``set``), ``counters`` are additive
    integers (``inc``), and ``events`` are timestamped point-in-time
    markers (``event``) such as the solver's improving-objective
    timeline.
    """

    __slots__ = (
        "name",
        "start",
        "end",
        "attributes",
        "counters",
        "events",
        "children",
        "_tracer",
    )

    def __init__(self, name: str, start: float = 0.0) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = {}
        self.counters: Dict[str, int] = {}
        self.events: List[Dict[str, Any]] = []
        self.children: List["Span"] = []
        self._tracer: Optional["Tracer"] = None

    # -- recording -------------------------------------------------------

    def set(self, **attributes: Any) -> "Span":
        """Attach structured attributes (last write wins)."""
        self.attributes.update(attributes)
        return self

    def inc(self, counter: str, amount: int = 1) -> None:
        """Add ``amount`` to an additive counter."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def event(self, name: str, **attributes: Any) -> None:
        """Record a timestamped point-in-time marker inside this span."""
        at = self._tracer.now() if self._tracer is not None else self.start
        entry: Dict[str, Any] = {"name": name, "at": at}
        if attributes:
            entry["attributes"] = attributes
        self.events.append(entry)

    # -- introspection ---------------------------------------------------

    @property
    def duration(self) -> Optional[float]:
        """Seconds between start and end, or ``None`` while open."""
        if self.end is None:
            return None
        return self.end - self.start

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form; empty collections are omitted to keep
        ``RunResult`` documents small."""
        data: Dict[str, Any] = {"name": self.name, "start": self.start}
        data["end"] = self.end
        if self.attributes:
            data["attributes"] = dict(self.attributes)
        if self.counters:
            data["counters"] = dict(self.counters)
        if self.events:
            data["events"] = [dict(event) for event in self.events]
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict` (the rebuilt tree has no tracer)."""
        node = cls(data["name"], start=data.get("start", 0.0))
        node.end = data.get("end")
        node.attributes = dict(data.get("attributes", {}))
        node.counters = dict(data.get("counters", {}))
        node.events = [dict(event) for event in data.get("events", [])]
        node.children = [
            cls.from_dict(child) for child in data.get("children", [])
        ]
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, start={self.start:.6f}, "
            f"end={self.end}, children={len(self.children)})"
        )


class _NullSpan(Span):
    """Shared do-nothing span handed out when no tracer is active, so
    instrumented code never branches on ``if tracing:``."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "Span":
        return self

    def inc(self, counter: str, amount: int = 1) -> None:
        return None

    def event(self, name: str, **attributes: Any) -> None:
        return None


#: Module singleton; identity-comparable (``sp is NULL_SPAN``) in tests.
NULL_SPAN = _NullSpan("null")


class span:
    """Context manager opening a child span under the active one.

    When no tracer is active the manager yields :data:`NULL_SPAN` and
    records nothing.  A class (not a generator) because it sits on hot
    paths — every control-loop round, every CP solve.
    """

    __slots__ = ("_name", "_attributes", "_span", "_token", "_tracer")

    def __init__(self, name: str, **attributes: Any) -> None:
        self._name = name
        self._attributes = attributes
        self._span: Optional[Span] = None
        self._token = None
        self._tracer: Optional[Tracer] = None

    def __enter__(self) -> Span:
        active = _ACTIVE.get()
        if active is None:
            return NULL_SPAN
        tracer, parent = active
        child = tracer._start_span(self._name, parent, self._attributes)
        self._tracer = tracer
        self._span = child
        self._token = _ACTIVE.set((tracer, child))
        return child

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._span is not None:
            assert self._tracer is not None and self._token is not None
            if exc_type is not None:
                # The exception goes on to the caller; the span closes with
                # whatever subtree it had and says what cut it short.
                self._span.set(error=exc_type.__name__)
            _ACTIVE.reset(self._token)
            self._tracer._finish_span(self._span)
            self._span = None
        return False


def current_span() -> Optional[Span]:
    """The innermost active span, or ``None`` when tracing is off."""
    active = _ACTIVE.get()
    return active[1] if active is not None else None


def current_tracer() -> Optional["Tracer"]:
    """The active tracer, or ``None`` when tracing is off."""
    active = _ACTIVE.get()
    return active[0] if active is not None else None


class _Activation:
    """Context manager returned by :meth:`Tracer.activate`."""

    __slots__ = ("_tracer", "_token")

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self._token = None

    def __enter__(self) -> Span:
        self._tracer.start()
        self._token = _ACTIVE.set((self._tracer, self._tracer.root))
        return self._tracer.root

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._token is not None
        _ACTIVE.reset(self._token)
        self._tracer.finish()
        return False


class Tracer:
    """Owner of one span tree.

    ``clock`` is any zero-argument callable returning monotonically
    increasing seconds; the default is :func:`time.perf_counter`.
    Injecting a counter makes traces fully deterministic:

    >>> ticks = iter(i * 0.5 for i in range(100))
    >>> tracer = Tracer(name="run", clock=lambda: next(ticks))
    >>> with tracer.activate():
    ...     with span("round", index=0) as sp:
    ...         sp.inc("moves", 3)
    >>> tracer.root.children[0].name
    'round'
    >>> tracer.root.children[0].duration
    0.5
    """

    def __init__(
        self,
        name: str = "run",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._clock = clock
        self._lock = threading.RLock()
        self._origin: Optional[float] = None
        #: Wall-clock epoch (``time.time()``) captured at :meth:`start`.
        self.started_at: Optional[float] = None
        self.root = Span(name)
        self.root._tracer = self

    # -- clock -----------------------------------------------------------

    def now(self) -> float:
        """Seconds since :meth:`start` (0.0 before the tracer starts)."""
        if self._origin is None:
            return 0.0
        return self._clock() - self._origin

    def start(self) -> None:
        """Fix the origin; idempotent so nested activations are safe."""
        with self._lock:
            if self._origin is None:
                self._origin = self._clock()
                self.started_at = time.time()
                self.root.start = 0.0

    def finish(self) -> None:
        """Close the root span; idempotent."""
        with self._lock:
            if self.root.end is None:
                self.root.end = self.now()

    def activate(self) -> _Activation:
        """Install this tracer in the current context and open the root
        span.  Must be entered *on the thread doing the work* —
        contextvars do not cross thread boundaries."""
        return _Activation(self)

    # -- span lifecycle (called by the ``span`` context manager) ---------

    def _start_span(
        self, name: str, parent: Span, attributes: Dict[str, Any]
    ) -> Span:
        with self._lock:
            child = Span(name, start=self.now())
            child._tracer = self
            if attributes:
                child.attributes.update(attributes)
            parent.children.append(child)
            return child

    def _finish_span(self, node: Span) -> None:
        with self._lock:
            if node.end is None:
                node.end = self.now()

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Snapshot the whole tree as plain JSON.  Safe to call from
        another thread while spans are still being recorded; open spans
        serialize with ``end: null``."""
        with self._lock:
            return {
                "version": 1,
                "started_at": self.started_at,
                "root": self.root.to_dict(),
            }
