"""FCFS submission queue of vjobs (Section 3.2).

The sample decision module relies on the queue provided by the FCFS policy:
vjobs are ordered by descending priority, i.e. by submission order.  Because
running vjobs may have to be re-evaluated when resources are freed, the whole
queue (running + ready vjobs) is considered at every decision round.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import DuplicateElementError, ModelError
from .vjob import VJob


class VJobQueue:
    """An ordered collection of vjobs.

    The iteration order is the *priority order* used by the Running Job
    Selection Problem: ascending ``(priority, submitted_at, insertion rank)``.
    Terminated vjobs stay in the queue (so statistics can be computed) but are
    excluded from :meth:`pending`.
    """

    def __init__(self, vjobs: Iterable[VJob] = ()) -> None:
        self._vjobs: dict[str, VJob] = {}
        self._rank: dict[str, int] = {}
        self._counter = 0
        for vjob in vjobs:
            self.submit(vjob)

    # -- mutation ------------------------------------------------------------

    def submit(self, vjob: VJob) -> None:
        if vjob.name in self._vjobs:
            raise DuplicateElementError(f"vjob {vjob.name!r} already submitted")
        self._vjobs[vjob.name] = vjob
        self._rank[vjob.name] = self._counter
        self._counter += 1

    # -- lookups ---------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._vjobs

    def __len__(self) -> int:
        return len(self._vjobs)

    def get(self, name: str) -> VJob:
        try:
            return self._vjobs[name]
        except KeyError:
            raise ModelError(f"unknown vjob {name!r}") from None

    def _sort_key(self, vjob: VJob) -> tuple:
        return (vjob.priority, vjob.submitted_at, self._rank[vjob.name])

    def ordered(self) -> list[VJob]:
        """Every vjob in priority order, terminated ones included."""
        return sorted(self._vjobs.values(), key=self._sort_key)

    def pending(self) -> list[VJob]:
        """Non-terminated vjobs in priority order — the queue the RJSP scans."""
        return [vjob for vjob in self.ordered() if not vjob.is_terminated]

    def terminated(self) -> list[VJob]:
        return [vjob for vjob in self.ordered() if vjob.is_terminated]

    def all_terminated(self) -> bool:
        return all(vjob.is_terminated for vjob in self._vjobs.values())

    def __iter__(self) -> Iterator[VJob]:
        return iter(self.ordered())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        states = {}
        for vjob in self._vjobs.values():
            states[vjob.state.value] = states.get(vjob.state.value, 0) + 1
        return f"<VJobQueue {len(self._vjobs)} vjobs {states}>"
