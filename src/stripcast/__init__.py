"""Exact solvers for the minimum-broadcast problem on unit-disk graphs in strips.

A broadcast set is a connected dominating set that contains a designated
source.  The package provides the narrow-strip solver, the hop-bounded
narrow-strip solver, the planar 2-hop solver, the any-width window DP, a
brute-force oracle, instance file I/O, generators, and an SVG renderer.
"""

from .model import (
    BroadcastSet,
    ContractError,
    InfeasibleError,
    InstanceError,
    InternalError,
    LevelPartition,
    NARROW_LIMIT,
    Point,
    StripcastError,
    StripInstance,
    TractabilityError,
    UnitDiskGraph,
    ValidationReport,
    make_broadcast_set,
    make_instance,
    validate_broadcast,
)
from .narrow import solve_narrow
from .hopdp import solve_hop
from .twohop import solve_two_hop
from .wide import solve_wide, mu
from .oracle import brute_min_broadcast

__all__ = [
    "BroadcastSet",
    "ContractError",
    "InfeasibleError",
    "InstanceError",
    "InternalError",
    "LevelPartition",
    "NARROW_LIMIT",
    "Point",
    "StripcastError",
    "StripInstance",
    "TractabilityError",
    "UnitDiskGraph",
    "ValidationReport",
    "brute_min_broadcast",
    "make_broadcast_set",
    "make_instance",
    "mu",
    "solve_hop",
    "solve_narrow",
    "solve_two_hop",
    "solve_wide",
    "validate_broadcast",
]

__version__ = "0.1.0"
