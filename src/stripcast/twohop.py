"""Planar 2-hop broadcast: every point reachable from the source in two hops.

All useful extra disks are centered inside the source disk, so a solution is
the source plus a set of such disks covering the points outside the source
disk.  Those points are ordered by angle around the source; the key fact is
that in an optimal solution each disk's contribution to the boundary of the
covered union is at most two angular runs, which makes a circular-interval
dynamic program over "minimum disks to cover the arc [i, j]" exact.

Only non-dominated disks are candidates, as any cover can swap a disk for one
covering a superset of its outside points.  The table holds costs only; the
traceback recomputes each of its cells' winning split.

Works on planar and strip instances alike; no width restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add

from .model import (
    BroadcastSet,
    ContractError,
    InfeasibleError,
    Point,
    StripInstance,
    check_answer,
    dist2,
    make_broadcast_set,
    outside_source_disk,
)
from .narrow import find_small


@dataclass(frozen=True)
class AngularInstance:
    """Outside points in counterclockwise order plus the candidate disks.

    ``order[i]`` is the input index of the i-th outside point; ``disks`` are
    input indices of candidate centers, in increasing order: the points of
    the source disk whose outside points are not a subset of another such
    point's (of equal sets the lowest index stays), since any cover can swap
    a dominated disk for the one containing it; ``disks_at[i]`` lists
    positions into ``disks`` whose disk covers outside point i; ``covers[d]``
    is the coverage bitmask of candidate d over outside positions.
    """

    instance: StripInstance
    order: tuple[int, ...]
    disks: tuple[int, ...]
    disks_at: tuple[tuple[int, ...], ...]
    covers: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.order)


def _ccw_angle(s: Point, p: Point) -> float:
    a = math.atan2(p.y - s.y, p.x - s.x)
    return a if a >= 0.0 else a + 2.0 * math.pi


def angular_order(instance: StripInstance) -> AngularInstance:
    """Order the outside points CCW and materialize the candidate disks."""
    pts = instance.points
    s = instance.source_point
    outside = outside_source_disk(instance)
    if not outside:
        raise ContractError(
            "no points outside the source disk; sizes 1-2 apply"
        )
    outside.sort(key=lambda i: (_ccw_angle(s, pts[i]), dist2(pts[i], s), i))
    m = len(outside)
    adj = instance.graph.adj
    centers = sorted(adj[instance.source])
    bit = {q: 1 << pos for pos, q in enumerate(outside)}
    masks = [sum(bit[q] for q in adj[c] if q in bit) for c in centers]
    # widest first, lower index first among equals: a mask contained in a
    # dropped one is contained in the kept mask that dropped it
    kept: list[int] = []
    for k in sorted(range(len(centers)), key=lambda k: (-masks[k].bit_count(), k)):
        if masks[k] and all(masks[k] | masks[e] != masks[e] for e in kept):
            kept.append(k)
    kept.sort()
    disks = [centers[k] for k in kept]
    covers = [masks[k] for k in kept]
    disks_at = []
    for pos in range(m):
        at = tuple(d for d in range(len(disks)) if covers[d] >> pos & 1)
        if not at:
            raise InfeasibleError(
                "a point outside the source disk is coverable by no candidate disk",
                witness=(outside[pos],),
            )
        disks_at.append(at)
    return AngularInstance(
        instance, tuple(outside), tuple(disks), tuple(disks_at), tuple(covers)
    )


def _rotated_prefix(ai: AngularInstance, i: int, disk: int) -> tuple[int, int]:
    """The disk's coverage mask rotated to start at position i, and the number
    of positions it covers from i on (its trailing ones)."""
    m = ai.m
    cover = ai.covers[disk]
    rot = ((cover >> i) | (cover << (m - i))) & ((1 << m) - 1)
    return rot, (rot ^ (rot + 1)).bit_length() - 1


def _next_after(ai: AngularInstance, i: int, prefix: int) -> int:
    """The position just past a covered prefix of the given length from i."""
    if prefix == ai.m:
        raise ContractError(
            "candidate disk covers every outside point; sizes <= 2 were missed"
        )
    return (i + prefix) % ai.m


def _runs_after_prefix(
    ai: AngularInstance, i: int, disk: int
) -> tuple[int, list[tuple[int, int]]]:
    """The disk's covered prefix length from position i (0 when the disk
    misses i), and its covered runs read cyclically from i after that prefix.

    Each run is ``(start_off, end_off)``, inclusive offsets from i in
    ``[0, m)``.  One pass over the disk's coverage mask rotated to start at i.
    """
    rot, prefix = _rotated_prefix(ai, i, disk)
    rest = rot >> prefix << prefix
    runs = []
    while rest:
        low = rest & -rest
        carry = rest + low  # clears the lowest run, sets the bit after it
        runs.append((low.bit_length() - 1, (carry & -carry).bit_length() - 2))
        rest &= carry
    return prefix, runs


@dataclass
class CoverTable:
    """Circular-interval cover costs.

    ``values[length][start]`` is the fewest disks covering the ``length``
    positions from ``start`` on (row 0 is all zeros).  Per start i, the
    farthest-reaching disk's covered prefix ends just before ``next1[i]`` and
    ``prefix_disk[i]`` is the smallest such disk; ``splits[i]`` holds each
    (disk, later covered run) pair as ``(run start offset, left length, left
    start, run end offset + 1, right start, disk)``, in the fill's order.
    """

    ai: AngularInstance
    values: list[list[int]]
    next1: list[int]
    prefix_disk: list[int]
    splits: list[list[tuple[int, int, int, int, int, int]]]


def cover_dp(ai: AngularInstance) -> CoverTable:
    """Fill every proper circular interval by increasing length.

    A cell [i, i + length) is covered either by one disk, or by the disk
    reaching farthest from i plus the rest, or by a disk d covering i whose
    later covered run splits the rest into a left and a right part.  Each
    disk's runs are read once per start; the O(m^2) cells then only walk
    their start's (disk, run) pairs, sorted by run start, up to the cell's end.
    """
    m = ai.m
    next1 = []
    prefix_disk = []
    splits = []
    for i in range(m):
        reach = []
        row = []
        for d in ai.disks_at[i]:
            offd, runs = _runs_after_prefix(ai, i, d)
            nxd = _next_after(ai, i, offd)
            reach.append((offd, d))
            # offd < start_off, so every left part is nonempty
            for start_off, end_off in runs:
                right = (i + end_off + 1) % m
                row.append((start_off, start_off - offd, nxd, end_off + 1, right, d))
        off1 = max(offd for offd, _ in reach)
        next1.append((i + off1) % m)
        prefix_disk.append(min(d for offd, d in reach if offd == off1))
        row.sort(key=lambda pair: pair[0])
        splits.append(row)

    values = [[0] * m]
    for length in range(1, m):
        cur = [1] * m
        for i in range(m):
            nx = next1[i]
            off1 = (nx - i) % m
            if off1 >= length:
                continue
            best = values[length - off1][nx]
            for start_off, left_len, nxd, offb, b, _ in splits[i]:
                if start_off >= length:
                    break
                cand = values[left_len][nxd]
                if offb < length:
                    cand += values[length - offb][b]
                if cand < best:
                    best = cand
            cur[i] = 1 + best
        values.append(cur)
    return CoverTable(ai, values, next1, prefix_disk, splits)


def _collect_disks(table: CoverTable, start: int, length: int, out: set[int]) -> None:
    """Add the disks of the cell's cover to ``out``, recomputing its winning
    split in the fill's order, so ties go to the first minimiser."""
    if length <= 0:
        return
    ai, values = table.ai, table.values
    nx = table.next1[start]
    off1 = (nx - start) % ai.m
    if off1 >= length:
        at = ai.disks_at[start]
        out.add(min(d for d in at if _rotated_prefix(ai, start, d)[1] >= length))
        return
    target = values[length][start] - 1
    if values[length - off1][nx] == target:
        out.add(table.prefix_disk[start])
        _collect_disks(table, nx, length - off1, out)
        return
    for start_off, left_len, nxd, offb, b, d in table.splits[start]:
        right_len = max(length - offb, 0)
        if start_off < length and values[left_len][nxd] + values[right_len][b] == target:
            out.add(d)
            _collect_disks(table, nxd, left_len, out)
            _collect_disks(table, b, right_len, out)
            return


def _best_split(table: CoverTable) -> tuple[int, int]:
    """The first ``(start, length)`` minimising the cost of [start, start +
    length) plus that of the rest of the circle."""
    v, m = table.values, table.ai.m
    # row k plus row m - k rotated by k: the totals of every split with length k
    totals = [list(map(add, v[k], v[m - k][k:] + v[m - k][:k])) for k in range(1, m)]
    best = min(map(min, totals))
    return min((row.index(best), k) for k, row in enumerate(totals, 1) if best in row)


def solve_two_hop(instance: StripInstance) -> BroadcastSet:
    """Minimum 2-hop broadcast set for a planar (or strip) instance."""
    small = find_small(instance)
    if small is not None:
        return small

    s = instance.source
    ai = angular_order(instance)
    table = cover_dp(ai)
    i, length = _best_split(table)
    disks: set[int] = set()
    _collect_disks(table, i, length, disks)
    _collect_disks(table, (i + length) % ai.m, ai.m - length, disks)
    active = [s] + [ai.disks[d] for d in sorted(disks)]
    return check_answer(instance, make_broadcast_set(instance, active), hops=2)

