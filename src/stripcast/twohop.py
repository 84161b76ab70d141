"""Planar 2-hop broadcast: every point reachable from the source in two hops.

All useful extra disks are centered inside the source disk, so a solution is
the source plus a set of such disks covering the points outside the source
disk.  Those points are ordered by angle around the source; the key fact is
that in an optimal solution each disk's contribution to the boundary of the
covered union is at most two angular runs, which makes a circular-interval
dynamic program over "minimum disks to cover the arc [i, j]" exact.

Only non-dominated disks are candidates, as any cover can swap a disk for one
covering a superset of its outside points.  The table is filled by cost, not
by length: level c is how far c disks reach from each start, built from each
candidate's circular runs, found once per disk, in O(K (R + m) + m^2) for K
levels and R pairs of one disk's runs.  The table holds costs only; the
traceback rebuilds the split list of each cell it visits and recomputes that
cell's winning split.

Works on planar and strip instances alike; no width restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, itemgetter

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
    far = bit.keys()
    masks = [sum(map(bit.__getitem__, adj[c] & far)) for c in centers]
    # widest first, lower index first among equals: a mask contained in a
    # dropped one is contained in the kept mask that dropped it
    kept: list[int] = []
    for k in sorted(range(len(centers)), key=lambda k: (-masks[k].bit_count(), k)):
        if masks[k] and all(masks[k] | masks[e] != masks[e] for e in kept):
            kept.append(k)
    kept.sort()
    disks = [centers[k] for k in kept]
    covers = [masks[k] for k in kept]
    at: list[list[int]] = [[] for _ in range(m)]
    for d, cover in enumerate(covers):
        while cover:
            low = cover & -cover
            at[low.bit_length() - 1].append(d)
            cover ^= low
    for pos in range(m):
        if not at[pos]:
            raise InfeasibleError(
                "a point outside the source disk is coverable by no candidate disk",
                witness=(outside[pos],),
            )
    disks_at = tuple(map(tuple, at))
    return AngularInstance(instance, tuple(outside), tuple(disks), disks_at, tuple(covers))


def _rotated_prefix(ai: AngularInstance, i: int, disk: int) -> tuple[int, int]:
    """The disk's coverage mask rotated to start at position i, and the number
    of positions it covers from i on (its trailing ones)."""
    m = ai.m
    cover = ai.covers[disk]
    rot = ((cover >> i) | (cover << (m - i))) & ((1 << m) - 1)
    return rot, (rot ^ (rot + 1)).bit_length() - 1


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


def _circular_runs(cover: int, m: int) -> list[tuple[int, int]]:
    """The maximal circular runs of a coverage mask that misses some position,
    as ``(start, length)``; a run through position m - 1 and 0 is one run."""
    runs = []
    rest = cover
    while rest:
        low = rest & -rest
        carry = rest + low
        start = low.bit_length() - 1
        runs.append((start, (carry & -carry).bit_length() - 1 - start))
        rest &= carry
    if len(runs) > 1 and runs[0][0] == 0 and sum(runs[-1]) == m:
        start, length = runs.pop()
        runs[0] = (start, length + runs[0][1])
    return runs


@dataclass
class CoverTable:
    """Circular-interval cover costs.

    ``values[length][start]`` is the fewest disks covering the ``length``
    positions from ``start`` on (row 0 is all zeros).  Per start i, the
    farthest-reaching disk's covered prefix ends just before ``next1[i]`` and
    ``prefix_disk[i]`` is the smallest such disk.
    """

    ai: AngularInstance
    values: list[list[int]]
    next1: list[int]
    prefix_disk: list[int]


def cover_dp(ai: AngularInstance) -> CoverTable:
    """Fill the cover table by cost: ``reach[c][i]`` is the longest interval
    from position i (at most m - 1 positions) that c disks cover.

    A cell is the fewest disks covering its interval, so it never falls as
    its interval grows and never rises as its interval loses its first
    position.  By the first, the lengths c disks cover from i form a prefix
    ending at ``reach[c][i]``, and ``values[length][i]`` is the least c whose
    reach covers ``length``; by the second, ``reach[c][i + 1] >= reach[c][i]
    - 1``.  Level c takes, at the first position of each circular run of each
    disk, the farthest end of

    * the run, then ``reach[c - 1]`` from the position after it (over all
      disks covering i this is the farthest prefix plus the rest);
    * the run, the gap up to a later run r of the same disk at A disks (read
      from the levels below), r, then ``reach[c - 1 - A]`` from the position
      after r;

    and carries each end forward around the circle, one less per position.
    A start inside a run reaches the same absolute ends through the run and
    through its later runs, so one level is one pass over each disk's pairs
    of runs.  Once the complement of some run costs fewer than c disks, that
    run's disk and those cover the whole circle, and every start reaches m -
    1 (a start inside the run meets the run's own head after a full turn).
    These are the options of the circular-interval recurrence: the disk
    reaching farthest from i plus the rest, or a disk covering i whose later
    run splits the rest into a left and a right part.  ``values`` is written
    in place as each level lands; with K levels and R run pairs the fill is
    O(K (R + m) + m^2).
    """
    m = ai.m
    if (1 << m) - 1 in ai.covers:
        raise ContractError(
            "candidate disk covers every outside point; sizes <= 2 were missed"
        )
    off1 = [0] * m
    prefix_disk = [0] * m
    # per disk run: its start, its length, the position after it and, per
    # later run of the disk, the gap's length and start, the later run's end
    # offset + 1 from this run's start, and the position after the later run
    run_pairs = []
    for d, cover in enumerate(ai.covers):
        runs = _circular_runs(cover, m)
        for start, length in runs:
            after = (start + length) % m
            for t in range(length):
                i = (start + t) % m
                if length - t > off1[i]:
                    off1[i] = length - t
                    prefix_disk[i] = d
            later = [
                ((s - after) % m, after, (s + k - start) % m, (s + k) % m)
                for s, k in runs
                if s != start
            ]
            run_pairs.append((start, length, after, later))
    next1 = [(i + off1[i]) % m for i in range(m)]

    values = [[0] * m] + [[m] * m for _ in range(1, m)]
    top = m - 1
    reach = [[0] * m]
    prev = reach[0]
    c = 0
    while min(prev) < top:
        c += 1
        if any(values[m - length][after] < c for _, length, after, _ in run_pairs):
            cur = [top] * m
        else:
            cur = [0] * m
            for start, length, after, later in run_pairs:
                best = length + prev[after]
                for gap, gap_start, end, right in later:
                    cost = values[gap][gap_start]
                    if cost < c:
                        far = end + reach[c - 1 - cost][right]
                        if far > best:
                            best = far
                if best > cur[start]:
                    cur[start] = best
            carried = 0
            for _ in range(2):
                for i in range(m):
                    carried = max(carried - 1, cur[i])
                    cur[i] = min(carried, top)
        for i in range(m):
            for length in range(prev[i] + 1, cur[i] + 1):
                values[length][i] = c
        reach.append(cur)
        prev = cur
    return CoverTable(ai, values, next1, prefix_disk)


def _splits(ai: AngularInstance, i: int) -> list[tuple[int, int, int, int, int, int]]:
    """Each (disk, later covered run) pair of start i as ``(run start offset,
    left length, left start, run end offset + 1, right start, disk)``: disks
    in increasing order, runs in order, then stably by run start offset."""
    m = ai.m
    row = []
    for d in ai.disks_at[i]:
        offd, runs = _runs_after_prefix(ai, i, d)
        nxd = (i + offd) % m
        # offd < start_off, so every left part is nonempty
        for start_off, end_off in runs:
            right = (i + end_off + 1) % m
            row.append((start_off, start_off - offd, nxd, end_off + 1, right, d))
    row.sort(key=itemgetter(0))
    return row


def _collect_disks(table: CoverTable, start: int, length: int, out: set[int]) -> None:
    """Add the disks of the cell's cover to ``out``, recomputing its winning
    split from the start's split list, so ties go to the first minimiser."""
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
    for start_off, left_len, nxd, offb, b, d in _splits(ai, start):
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

