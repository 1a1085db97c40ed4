"""A small finite-domain constraint solver (Choco 1.2 replacement).

Provides integer variables, propagation-based constraints (2-dimensional
bin packing, table-based cost sums, all-different), depth-first
search with pluggable variable/value ordering heuristics, and branch-and-bound
minimization with a wall-clock timeout — the exact feature set the paper's
optimization of the cluster-wide context switch relies on (Section 4.3).
"""

from .constraints import (
    AllDifferent,
    Constraint,
    CostTable,
    CountInValuesAtMost,
    ElementSum,
    NotEqual,
    VectorPacking,
)
from .domain import Domain, IntervalDomain
from .solver import (
    ActivityLastConflict,
    Model,
    SearchResult,
    SearchStatistics,
    Solution,
    Solver,
    ascending_values,
    first_fail,
    prefer_value,
    static_order,
)
from .variables import IntVar, make_interval_var

__all__ = [
    "AllDifferent",
    "Constraint",
    "CostTable",
    "CountInValuesAtMost",
    "ElementSum",
    "NotEqual",
    "VectorPacking",
    "Domain",
    "IntervalDomain",
    "ActivityLastConflict",
    "Model",
    "SearchResult",
    "SearchStatistics",
    "Solution",
    "Solver",
    "ascending_values",
    "first_fail",
    "prefer_value",
    "static_order",
    "IntVar",
    "make_interval_var",
]
