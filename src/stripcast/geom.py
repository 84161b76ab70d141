"""The prefix/suffix coverage scan of the bidirectional-solution detector.

For a probe p, ``prefix_suffix_cover`` gives how long a prefix (suffix) of
one side's y-sorted outside points lies entirely inside the unit disk of p.
Each scan stops at the first uncovered point, under the exact test
``dist2 <= 1.0``.  Every other adjacency the solvers need is read from the
instance's unit-disk graph (``StripInstance.graph``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import Point, dist2


@dataclass(frozen=True)
class ZValues:
    """z_le: longest covered prefix; z_gt: least i with the suffix beyond i covered."""

    z_le: int
    z_gt: int


def prefix_suffix_cover(points: Sequence[Point], p: Point) -> ZValues:
    """Longest prefix and suffix of ``points`` inside the unit disk of p."""
    k = len(points)
    z_le = 0
    while z_le < k and dist2(points[z_le], p) <= 1.0:
        z_le += 1
    z_gt = k
    while z_gt > 0 and dist2(points[z_gt - 1], p) <= 1.0:
        z_gt -= 1
    return ZValues(z_le, z_gt)
