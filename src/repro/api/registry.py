"""String-keyed registry of decision modules.

Scenarios select their policy declaratively (``Scenario(..., policy="fcfs")``)
instead of importing and wiring a concrete class.  The registry maps a name to
a factory returning a :class:`~repro.api.decision.DecisionModule`; the four
policies of the paper are pre-registered lazily (the concrete modules are only
imported on first use, which keeps :mod:`repro.api` free of import cycles):

``consolidation``
    Dynamic consolidation with cluster-wide context switches — the paper's
    sample decision module (Section 3.2).
``fcfs``
    FCFS static booking run inside the same loop — the Section 2.1 baseline.
``ffd``
    First-Fit Decreasing replacement planner — the Section 5.1 baseline.
``rjsp``
    Pure Running Job Selection without an FFD fallback.

Third-party policies register themselves with
:func:`register_decision_module`, either directly or as a class decorator::

    @register_decision_module("greedy")
    class GreedyModule:
        def decide(self, configuration, queue) -> Decision:
            ...
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Optional

from .decision import DecisionModule

#: Lazily-resolved factories for the built-in policies ("module:attribute").
_BUILTIN_PATHS: dict[str, str] = {
    "consolidation": "repro.decision.consolidation:ConsolidationDecisionModule",
    "fcfs": "repro.decision.fcfs:FCFSDecisionModule",
    "ffd": "repro.decision.consolidation:FFDDecisionModule",
    "rjsp": "repro.decision.consolidation:RJSPDecisionModule",
}

_FACTORIES: dict[str, Callable[..., DecisionModule]] = {}


class UnknownDecisionModuleError(KeyError):
    """Raised when a scenario names a policy the registry does not know."""

    def __init__(self, name: str) -> None:
        self.name = name
        available = ", ".join(sorted(available_decision_modules()))
        super().__init__(
            f"unknown decision module {name!r}; registered modules: {available}"
        )

    def __str__(self) -> str:  # KeyError quotes its payload; keep it readable
        return self.args[0]


def _resolve_builtin(name: str) -> Callable[..., DecisionModule]:
    module_path, _, attribute = _BUILTIN_PATHS[name].partition(":")
    return getattr(import_module(module_path), attribute)


def register_decision_module(
    name: str,
    factory: Optional[Callable[..., DecisionModule]] = None,
    *,
    overwrite: bool = False,
) -> Callable[..., Any]:
    """Register ``factory`` (a class or callable) under ``name``.

    Usable directly — ``register_decision_module("mine", MyModule)`` — or as a
    class decorator.  Registering an already-known name raises ``ValueError``
    unless ``overwrite=True``; this catches accidental collisions with the
    built-in policies.
    """
    if not name or not isinstance(name, str):
        raise ValueError("a decision module needs a non-empty string name")

    def _register(target: Callable[..., DecisionModule]):
        if not overwrite and (name in _FACTORIES or name in _BUILTIN_PATHS):
            raise ValueError(
                f"decision module {name!r} is already registered "
                "(pass overwrite=True to replace it)"
            )
        _FACTORIES[name] = target
        return target

    if factory is None:
        return _register
    return _register(factory)


def get_decision_module(name: str, **options: Any) -> DecisionModule:
    """Instantiate the decision module registered under ``name``.

    ``options`` are forwarded to the factory (e.g.
    ``get_decision_module("fcfs", backfilling="none")``).
    """
    factory = _FACTORIES.get(name)
    if factory is None:
        if name not in _BUILTIN_PATHS:
            raise UnknownDecisionModuleError(name)
        factory = _resolve_builtin(name)
        _FACTORIES[name] = factory
    return factory(**options)


def available_decision_modules() -> tuple[str, ...]:
    """Names of every registered policy, built-ins included, sorted."""
    return tuple(sorted(set(_BUILTIN_PATHS) | set(_FACTORIES)))
