"""Base machinery of the declarative placement-constraint catalog.

Every catalog constraint (:mod:`repro.constraints.catalog`) has **three
faces**, mirroring how Entropy's successor line (BtrPlace) structures its
constraint system:

1. a **compiler** — the constraint contributes to the CP model built by
   :mod:`repro.core.optimizer`: unary relations shrink the domains of the
   assignment variables (:meth:`PlacementConstraint.allowed_nodes`), n-ary
   relations inject dedicated propagators
   (:meth:`PlacementConstraint.cp_constraints`); a repair solve, whose
   model holds only the VMs it re-places, compiles
   :meth:`PlacementConstraint.residual` instead;
2. a **checker** — the constraint validates a concrete
   :class:`~repro.model.configuration.Configuration`
   (:meth:`PlacementConstraint.is_satisfied_by`, with a human-readable
   :meth:`PlacementConstraint.explain`);
3. a **repair hook** — when a node dies mid-run the control loop offers every
   constraint the chance to adapt (:meth:`PlacementConstraint.on_node_failure`)
   before fault-driven replanning re-applies the catalog to the survivors.

Heuristic packers (FFD / FCFS) cannot run a CP search.  They read the unary
relations through the same ``allowed_nodes`` face as the compiler, and the
*relational* constraints also expose a greedy **candidate filter**
(:meth:`PlacementConstraint.allows`) answering "may VM *v* join node *n*
given the placement built so far?" — see :mod:`repro.constraints.filtering`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping, Optional, Sequence, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cp.constraints import Constraint as CPConstraint
    from ..cp.variables import IntVar
    from ..decision.ffd import PackingTrial
    from ..model.configuration import Configuration


class PlacementConstraint:
    """Base class of every catalog constraint.

    Subclasses override the faces they participate in; every default is the
    *neutral* behaviour (no domain restriction, no propagator, always
    satisfied, keep the constraint unchanged on node failure).
    """

    #: VMs the relation is scoped to; empty for node-scoped constraints
    #: (``RunningCapacity`` watches every running VM).
    vms: tuple[str, ...] = ()

    #: Relational constraints couple the placement of several VMs (or of
    #: every VM against a node set) and therefore anchor all the involved
    #: nodes into a *single* placement zone when the cluster is decomposed
    #: into independent subproblems (:mod:`repro.scale.partition`).  Unary
    #: relations (``Ban``, ``Fence``) restrict each VM independently and
    #: never force zones to merge on their own.
    relational: bool = False

    #: True when :meth:`allowed_nodes` returns the *same* restriction for
    #: every member VM (``Ban`` complements and ``Fence`` node sets depend
    #: only on the constraint itself), letting the partitioner compute it
    #: once per decomposition instead of once per member.  A restriction
    #: that reads the VM's own state (its current host, say) must leave
    #: this False.
    uniform_restriction: bool = False

    # -- compiler face ---------------------------------------------------------

    def allowed_nodes(
        self,
        vm_name: str,
        node_names: Sequence[str],
        configuration: Optional["Configuration"] = None,
    ) -> Optional[Set[str]]:
        """Nodes on which ``vm_name`` may run, or ``None`` when the constraint
        does not restrict that VM individually.

        ``configuration`` is the observed configuration the optimizer plans
        from, for a restriction that depends on where the VM runs now.
        Returning an empty set marks the VM as unplaceable.
        """
        return None

    def cp_constraints(
        self,
        variables: Mapping[str, "IntVar"],
        node_index: Mapping[str, int],
    ) -> list["CPConstraint"]:
        """Solver constraints over the assignment variables of the running
        VMs (empty when the relation is purely unary).

        ``variables`` maps every running VM to its assignment variable;
        ``node_index`` maps node names to the variable values standing for
        them.
        """
        return []

    def residual(
        self, current: "Configuration", moving: AbstractSet[str]
    ) -> Optional["PlacementConstraint"]:
        """What the relation asks of the VMs a repair solve places when every
        running VM of ``current`` not in ``moving`` keeps its host, or
        ``None`` when those stayers alone already break it.

        The solve compiles the residual over the placed VMs only.  The
        default, the relation itself, is right for a unary relation and for
        a group the repair engine frees whole or not at all; a relation
        whose compile reads VMs it does not list must override it."""
        return self

    # -- checker face ----------------------------------------------------------

    def is_satisfied_by(self, configuration: "Configuration") -> bool:
        """Check the relation on a concrete configuration."""
        raise NotImplementedError

    def explain(self, configuration: "Configuration") -> Optional[str]:
        """Human-readable account of the violation, ``None`` when satisfied."""
        if self.is_satisfied_by(configuration):
            return None
        return f"{self.label} is violated"

    # -- greedy candidate filter ----------------------------------------------

    def allows(
        self,
        vm_name: str,
        node_name: str,
        trial: "PackingTrial",
    ) -> bool:
        """May ``vm_name`` be placed on ``node_name`` given the partial
        placement already committed to ``trial``?

        The relational face of the heuristic packers (FFD / FCFS): only
        asked of constraints with :attr:`relational` set, and only about
        nodes inside the VM's :meth:`allowed_nodes` domain, so a unary
        relation never overrides it (``trial`` reads as a configuration
        running the VMs placed so far).  The default accepts every candidate.
        """
        return True

    # -- repair hook -----------------------------------------------------------

    def on_node_failure(self, node_name: str) -> Optional["PlacementConstraint"]:
        """The constraint to enforce after ``node_name`` died.

        Return ``self`` (the default) to keep enforcing the relation
        unchanged, an adjusted instance to adapt it to the surviving fleet
        (e.g. an elastic ``Fence`` dropping the dead node), or ``None`` to
        retire the relation entirely.
        """
        return self

    # -- shared helpers --------------------------------------------------------

    @property
    def label(self) -> str:
        """Stable display identifier used in violation records and metrics."""
        return repr(self)

    def _running_locations(self, configuration: "Configuration") -> list[str]:
        """Hosts of the group's running VMs (VMs absent from the
        configuration or not running are skipped)."""
        return configuration.hosts_of(self.vms)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(self.vms)})"


class VMGroupConstraint(PlacementConstraint):
    """A constraint scoped to an explicit, non-empty group of VMs.

    ``vms`` keeps the declaration order (labels, repr); ``vm_set`` is the
    frozen membership view used on hot paths — ``allowed_nodes`` runs once
    per (VM, constraint) pair in every CP compilation *and* in the
    partitioner, so membership must not scan a tuple.
    """

    def __init__(self, vms: Iterable[str]):
        self.vms = tuple(vms)
        if not self.vms:
            raise ValueError("a placement constraint needs at least one VM")
        self.vm_set: frozenset[str] = frozenset(self.vms)


class NodeSetConstraint(PlacementConstraint):
    """A constraint scoped to an explicit, non-empty set of nodes."""

    def __init__(self, nodes: Iterable[str]):
        self.nodes: frozenset[str] = frozenset(nodes)
        if not self.nodes:
            raise ValueError(
                f"{type(self).__name__} requires at least one node"
            )

    def _sorted_nodes(self) -> list[str]:
        return sorted(self.nodes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(self._sorted_nodes())})"
