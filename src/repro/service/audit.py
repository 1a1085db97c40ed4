"""Append-only audit log of everything the operator daemon executed.

Every plan the control loop executed, every action inside it, every fault,
repair, vjob submission and completion becomes one numbered entry — held in
memory and, when a path is given, mirrored to an append-only JSON-lines file
(one ``json.dumps(..., sort_keys=True)`` object per line, RackMind-style
attestation).  The file survives the daemon; :meth:`AuditLog.load` reads it
back (skipping a malformed trailing line from a crash mid-write) and
:func:`replay_plans` reconstructs the executed plan sequence byte-for-byte
from either a live log or a loaded file.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Iterable, Optional, Union

__all__ = ["AuditLog", "replay_plans"]


class AuditLog:
    """Thread-safe, append-only event log with an optional JSONL mirror.

    Each entry is a dict with at least ``seq`` (0-based, gap-free), ``kind``
    and ``time`` (simulated seconds); the remaining keys are the event
    payload.  Entries are immutable once appended.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._entries: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, kind: str, time: float, **payload: Any) -> dict[str, Any]:
        """Append one entry; returns the stored (sequenced) entry."""
        with self._lock:
            entry = {"seq": len(self._entries), "kind": kind, "time": time}
            entry.update(payload)
            self._entries.append(entry)
            if self.path is not None:
                with self.path.open("a") as handle:
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return entry

    def entries(
        self,
        offset: int = 0,
        limit: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> list[dict[str, Any]]:
        """A slice of the log, oldest first (filtered by ``kind`` if given)."""
        with self._lock:
            entries = list(self._entries)
        if kind is not None:
            entries = [e for e in entries if e["kind"] == kind]
        if offset:
            entries = entries[offset:]
        if limit is not None:
            entries = entries[:limit]
        return entries

    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        return self.entries(kind=kind)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def load(path: Union[str, Path]) -> list[dict[str, Any]]:
        """Entries of a JSONL audit file, oldest first.

        A malformed line (daemon killed mid-write) ends the load: everything
        before it is returned, everything after would be ambiguous.
        """
        entries: list[dict[str, Any]] = []
        file_path = Path(path)
        if not file_path.exists():
            return entries
        for line in file_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                break
            if isinstance(entry, dict):
                entries.append(entry)
        return entries


def replay_plans(
    source: Union[AuditLog, str, Path, Iterable[dict[str, Any]]],
) -> list[dict[str, Any]]:
    """Reconstruct the executed plan sequence from an audit log.

    ``source`` is a live :class:`AuditLog`, a path to its JSONL mirror, or an
    already-loaded entry list.  Returns the ``plan`` payloads of every
    ``kind == "plan"`` entry in execution order — the exact dicts
    (:func:`repro.service.serialize.plan_to_dict` shape) the observer stored,
    so re-serializing with ``json.dumps(..., sort_keys=True)`` reproduces the
    original byte sequence.
    """
    if isinstance(source, AuditLog):
        entries: Iterable[dict[str, Any]] = source.entries()
    elif isinstance(source, (str, Path)):
        entries = AuditLog.load(source)
    else:
        entries = source
    plans = []
    for entry in entries:
        if entry.get("kind") == "plan":
            plans.append(entry["plan"])
    return plans
