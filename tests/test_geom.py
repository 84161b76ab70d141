import random

from stripcast.geom import ZValues, prefix_suffix_cover
from stripcast.model import Point, dist2


def P(*pairs):
    return [Point(x, y) for x, y in pairs]


def test_z_structure_empty():
    assert prefix_suffix_cover([], Point(0.0, 0.1)) == ZValues(0, 0)


def test_z_structure_single_disk():
    u = Point(-1.2, 0.4)
    covered = Point(-0.4, 0.4)
    uncovered = Point(0.4, 0.4)
    assert dist2(u, covered) <= 1.0 < dist2(u, uncovered)
    assert prefix_suffix_cover([u], covered) == ZValues(1, 0)
    assert prefix_suffix_cover([u], uncovered) == ZValues(0, 1)


def test_z_all_or_none():
    pts = [Point(-1.05, 0.1 * i) for i in range(5)]
    assert prefix_suffix_cover(pts, Point(-0.2, 0.2)) == ZValues(5, 0)
    assert prefix_suffix_cover(pts, Point(0.5, 0.7)) == ZValues(0, 5)


def test_query_z_matches_prefix_oracle():
    # against the definitions: the longest prefix whose disks all contain p,
    # and the least i whose suffix disks all contain p
    rng = random.Random(99)
    for trial in range(150):
        w = rng.choice([0.3, 0.6, 0.86])
        k = rng.randrange(0, 11)
        pts = sorted(
            (Point(rng.uniform(-2.2, -0.55), rng.uniform(0, w)) for _ in range(k)),
            key=lambda p: p.y,
        )
        for _ in range(15):
            p = Point(rng.uniform(-0.5, 0.5), rng.uniform(0, w))
            inside = [dist2(q, p) <= 1.0 for q in pts]
            z_le = max(j for j in range(k + 1) if all(inside[:j]))
            z_gt = min(j for j in range(k + 1) if all(inside[j:]))
            assert prefix_suffix_cover(pts, p) == ZValues(z_le, z_gt)
