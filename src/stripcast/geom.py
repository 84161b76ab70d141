"""Disk-intersection membership and the prefix/suffix coverage scan.

``intersection_mask`` answers "which query points lie inside the
intersection of a family of unit disks" by the exact pairwise test
``dist2 <= 1.0``.

``prefix_suffix_cover`` gives the coverage numbers used by the
bidirectional-solution detector: for a probe p, how long a prefix (suffix) of
one side's y-sorted outside points lies entirely inside the unit disk of p.
Each scan stops at the first uncovered point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import InstanceError, Point, dist2


def intersection_mask(
    centers: Sequence[Point], queries: Sequence[Point]
) -> list[bool]:
    """For each query, whether it lies within distance 1 of every center."""
    if not centers:
        raise InstanceError("intersection membership needs a nonempty center set")
    return [all(dist2(c, q) <= 1.0 for c in centers) for q in queries]


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
