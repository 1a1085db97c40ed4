"""FCFS submission queue of vjobs (Section 3.2).

The sample decision module relies on the queue provided by the FCFS policy:
vjobs are ordered by descending priority, i.e. by submission order.  Because
running vjobs may have to be re-evaluated when resources are freed, the whole
queue (running + ready vjobs) is considered at every decision round.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator

from .errors import DuplicateElementError, ModelError
from .vjob import VJob


class VJobQueue:
    """An ordered collection of vjobs.

    The iteration order is the *priority order* used by the Running Job
    Selection Problem: ascending ``(priority, submitted_at, insertion rank)``.
    Terminated vjobs stay in the queue (so statistics can be computed) but are
    excluded from :meth:`pending`.

    The key is read once, at :meth:`submit`, which inserts the vjob at its
    place: the views below walk that order and sort nothing.  A vjob's
    ``priority`` or ``submitted_at`` written after its submission does not
    move it (the operator daemon bumps ``submitted_at`` *before* it submits).
    """

    def __init__(self, vjobs: Iterable[VJob] = ()) -> None:
        self._vjobs: dict[str, VJob] = {}
        #: Every vjob in priority order, and its key at submission.
        self._order: list[VJob] = []
        self._keys: list[tuple[int, float, int]] = []
        for vjob in vjobs:
            self.submit(vjob)

    # -- mutation ------------------------------------------------------------

    def submit(self, vjob: VJob) -> None:
        if vjob.name in self._vjobs:
            raise DuplicateElementError(f"vjob {vjob.name!r} already submitted")
        # The rank is the insertion count: a later submission goes after
        # every vjob it ties with.
        key = (vjob.priority, vjob.submitted_at, len(self._vjobs))
        self._vjobs[vjob.name] = vjob
        place = bisect_right(self._keys, key)
        self._keys.insert(place, key)
        self._order.insert(place, vjob)

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

    def ordered(self) -> list[VJob]:
        """Every vjob in priority order, terminated ones included."""
        return list(self._order)

    def pending(self) -> list[VJob]:
        """Non-terminated vjobs in priority order — the queue the RJSP scans."""
        return [vjob for vjob in self._order if not vjob.is_terminated]

    def terminated(self) -> list[VJob]:
        return [vjob for vjob in self._order if vjob.is_terminated]

    def __iter__(self) -> Iterator[VJob]:
        return iter(self.ordered())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        states = {}
        for vjob in self._vjobs.values():
            states[vjob.state.value] = states.get(vjob.state.value, 0) + 1
        return f"<VJobQueue {len(self._vjobs)} vjobs {states}>"
