"""The standalone benchmark suite: versioned instances, verifier, floors.

Three faces, in the astro-reason / BtrPlace lineage where the checker is
independent of the compiler:

* **instances** (:mod:`repro.instances.format`) — fleet + vjobs +
  constraints + faults + seed as one canonical JSON document with a schema
  version and a content fingerprint; lossless round trips;
* **verifier** (:mod:`repro.instances.verifier`, the ``repro-verify``
  entry point) — scores any submitted plan or assignment against an
  instance using only the independent checker pipeline and the Table 1
  cost model, never the optimizer;
* **baseline floors** (:mod:`repro.instances.pack`,
  :mod:`repro.instances.baselines`) — a committed instance pack plus the
  scoreboard of every stock policy over it, the floors any submitted
  method must beat.

Exports resolve lazily (PEP 562): importing the format or the verifier
never loads the optimizer — ``baselines``/``pack`` helpers pull the
control loop only when actually called.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - static-analysis / IDE resolution only
    from .baselines import (
        BASELINE_POLICIES,
        baseline_scoreboard,
        floor_violations,
        load_scoreboard,
        scoreboard_to_json,
    )
    from .format import (
        FORMAT_NAME,
        SCHEMA_VERSION,
        Instance,
        InstanceFormatError,
        canonical_json,
        constraint_from_dict,
        constraint_to_dict,
        fingerprint_of,
        instance_from_dict,
        instance_to_json,
        load_instance,
        save_instance,
    )
    from .pack import (
        PACK_DIR,
        SCOREBOARD_PATH,
        build_pack,
        load_pack_instance,
        pack_instance_names,
        write_pack,
    )
    from .verifier import (
        SubmissionError,
        VerificationReport,
        verify_submission,
    )

#: Export name -> defining submodule, resolved on first attribute access.
_EXPORTS = {
    "FORMAT_NAME": "format",
    "SCHEMA_VERSION": "format",
    "Instance": "format",
    "InstanceFormatError": "format",
    "canonical_json": "format",
    "constraint_from_dict": "format",
    "constraint_to_dict": "format",
    "fingerprint_of": "format",
    "instance_from_dict": "format",
    "instance_to_json": "format",
    "load_instance": "format",
    "save_instance": "format",
    "SubmissionError": "verifier",
    "VerificationReport": "verifier",
    "verify_submission": "verifier",
    "PACK_DIR": "pack",
    "SCOREBOARD_PATH": "pack",
    "build_pack": "pack",
    "load_pack_instance": "pack",
    "pack_instance_names": "pack",
    "write_pack": "pack",
    "BASELINE_POLICIES": "baselines",
    "baseline_scoreboard": "baselines",
    "floor_violations": "baselines",
    "load_scoreboard": "baselines",
    "scoreboard_to_json": "baselines",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(f".{module_name}", __name__), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
