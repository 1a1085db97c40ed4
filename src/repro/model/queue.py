"""FCFS submission queue of vjobs (Section 3.2).

The sample decision module relies on the queue provided by the FCFS policy:
vjobs are ordered by descending priority, i.e. by submission order.  Because
running vjobs may have to be re-evaluated when resources are freed, the whole
queue (running + ready vjobs) is considered at every decision round.
"""

from __future__ import annotations

from bisect import insort
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
    The views walk only the vjobs not yet seen terminated, and move those
    that terminated since to :meth:`stopping` until :meth:`stopped`.
    """

    def __init__(self, vjobs: Iterable[VJob] = ()) -> None:
        self._vjobs: dict[str, VJob] = {}
        #: Every vjob's key at submission; in that order, every vjob, those
        #: not seen terminated, and the terminated ones that may run a VM.
        self._key: dict[str, tuple[int, float, int]] = {}
        self._order: list[VJob] = []
        self._pending: list[VJob] = []
        self._stopping: list[VJob] = []
        for vjob in vjobs:
            self.submit(vjob)

    # -- mutation ------------------------------------------------------------

    def submit(self, vjob: VJob) -> None:
        if vjob.name in self._vjobs:
            raise DuplicateElementError(f"vjob {vjob.name!r} already submitted")
        # The rank is the insertion count: a later submission goes after
        # every vjob it ties with.
        self._key[vjob.name] = (vjob.priority, vjob.submitted_at, len(self._vjobs))
        self._vjobs[vjob.name] = vjob
        insort(self._order, vjob, key=self._key_of)
        insort(self._pending, vjob, key=self._key_of)

    def stopped(self, vjob: VJob) -> None:
        """None of ``vjob``'s VMs runs any more: it leaves :meth:`stopping`
        (a TERMINATED VM never runs again)."""
        self._stopping.remove(vjob)

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
        self._sweep()
        return list(self._pending)

    def stopping(self) -> list[VJob]:
        """Terminated vjobs that may still run a VM, in priority order."""
        self._sweep()
        return list(self._stopping)

    def __iter__(self) -> Iterator[VJob]:
        return iter(self.ordered())

    def _key_of(self, vjob: VJob) -> tuple[int, float, int]:
        return self._key[vjob.name]

    def _sweep(self) -> None:
        """Move the vjobs terminated since the last view out of the
        pending ones, into :meth:`stopping`."""
        pending = self._pending
        kept = [vjob for vjob in pending if not vjob.is_terminated]
        if len(kept) < len(pending):
            for vjob in pending:
                if vjob.is_terminated:
                    insort(self._stopping, vjob, key=self._key_of)
            self._pending = kept

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        states = {}
        for vjob in self._vjobs.values():
            states[vjob.state.value] = states.get(vjob.state.value, 0) + 1
        return f"<VJobQueue {len(self._vjobs)} vjobs {states}>"
