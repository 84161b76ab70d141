"""Minimum broadcast in strips of width <= sqrt(3)/2.

The solver checks the three possible structures of an optimum in order:

* small: {s} alone, or {s, p} with one disk covering everything outside the
  source disk;
* bidirectional: a star {s, p, p'} with both extra centers in the source
  disk, whose neighbourhoods together hold every outside point;
* path-like: a shortest path from s to the right-covering set plus a shortest
  path to the left-covering set, sharing at most their second vertex.

The right-/left-covering sets are the ones the instance keeps
(``StripInstance.covering``), read from its unit-disk graph.  Every adjacency
the solver asks about, the closed source disk included, is a lookup in the
same graph.

Path-like is the (path -, path +) pairing of the suffix-pair table, which
`hopdp` runs over tree sides as well.  A side is a list of terminals with
cost rows over the source's level-1 children.  A path side has one
pseudo-terminal, its covering set: from a level-1 point the cost is the
length of the path that levelling the points backwards from that set (a
breadth-first search in the graph) walks from there, else INF.

The table over suffix pairs: G(i, k) is the cheapest cover, source excluded,
of the left terminals i..m_l and the right ones k..m_r.  The source's
children take consecutive (left interval, right interval) pairs in order, so
G(i, k) is the cheapest first child over (i..t, k..u) plus G(t + 1, u + 1),
and the answer is 1 + G(1, 1).  A child serving both sides counts once, so
two covering paths share their second vertex whenever they can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Callable

from .model import (
    BroadcastSet,
    ContractError,
    InfeasibleError,
    StripInstance,
    check_answer,
    connected_levels,
    make_broadcast_set,
    outside_source_disk,
)

INF = math.inf

# rows[i][t - i + 1][c]: root-inclusive cost of level-1 point c on [i, t]
Rows = list[list[list[float]]]
# a side: its cost rows and a walker adding a child's actives for [i, t]
Side = tuple[Rows, Callable[[int, int, int, set[int]], None]]


@dataclass(frozen=True)
class BackwardLevels:
    """Backward hop levels from a covering set toward the source disk.

    ``levels[0]`` is the covering set itself; ``levels[i]`` holds the points
    whose shortest path to it has i hops.  ``reached`` is False when the
    search died out before touching the source disk (disconnected side).
    """

    levels: tuple[tuple[int, ...], ...]
    reached: bool

    @property
    def hops(self) -> int:
        return len(self.levels)


def _require_narrow(instance: StripInstance) -> None:
    if not instance.is_narrow():
        raise ContractError("this solver requires a strip of width <= sqrt(3)/2")


def find_small(instance: StripInstance) -> BroadcastSet | None:
    """Solution of size 1 ({s} dominates) or 2 ({s, p} with p covering the rest).

    p is the first point of the source disk, in index order, whose
    neighbourhood holds every outside point.
    """
    s = instance.source
    outside = outside_source_disk(instance)
    if not outside:
        return make_broadcast_set(instance, [s])
    adj = instance.graph.adj
    for i in sorted(adj[s] & adj[outside[0]]):
        if adj[i].issuperset(outside):
            return make_broadcast_set(instance, [s, i])
    return None


def find_bidirectional(instance: StripInstance) -> BroadcastSet | None:
    """Size-3 star {s, p, p'}: p, p' in the source disk cover every outside point.

    Checked on the unit-disk graph by definition.  A star dominates only the
    points within two hops of s, so the outside points are hop level 2.  For
    each p in index order, p' must cover the outside points p misses, so only
    the common neighbours of s and one such point are tried; the first such
    star is reported.
    """
    _require_narrow(instance)
    part = instance.levels
    if part.depth != 2 or part.unreachable:
        return None
    outside = set(part.levels[2])
    adj = instance.graph.adj
    s = instance.source
    for a in sorted(adj[s]):
        rest = outside - adj[a]
        for b in sorted(adj[s] & adj[min(rest)] if rest else adj[s]):
            if b != a and adj[b] >= rest:
                return make_broadcast_set(instance, [s, a, b])
    return None


def backward_level_sets(instance: StripInstance, side: str) -> BackwardLevels:
    """Level the points backwards from one covering set toward the source disk.

    A multi-source breadth-first search in the unit-disk graph, from the
    instance's right- (side "+") or left-covering set, that stops at the
    first level touching the closed source disk.
    """
    _require_narrow(instance)
    if side not in ("+", "-"):
        raise ContractError("side must be '+' or '-'")
    covering = instance.covering
    first = covering.q_plus if side == "+" else covering.q_minus
    if not first:
        raise ContractError("backward levelling needs a nonempty covering set")
    adj = instance.graph.adj
    s = instance.source
    near_source = adj[s]

    levels = [tuple(first)]
    seen = set(first)
    while True:
        cur = levels[-1]
        if s in cur or not near_source.isdisjoint(cur):
            return BackwardLevels(tuple(levels), True)
        if not cur:
            return BackwardLevels(tuple(levels[:-1]), False)
        nxt = set().union(*(adj[i] for i in cur))
        nxt -= seen
        seen |= nxt
        levels.append(tuple(sorted(nxt)))


def _suffix_pairs(
    lrows: Rows, rrows: Rows
) -> tuple[list[list[float]], list[list[tuple[int, int] | None]]]:
    """G(i, k) of the module docstring, with each cell's winning first pair
    (t, u), or None on G(m_l + 1, m_r + 1) = 0 and on INF cells.

    A pair's unit cost is its cheapest level-1 child, counted once when it
    serves both sides; on a single tree leaf that is the source's shortest DAG
    path.  Ties go to the first (t, u).
    """
    ml, mr = len(lrows) - 2, len(rrows) - 2
    g = [[INF] * (mr + 2) for _ in range(ml + 2)]
    pick: list[list[tuple[int, int] | None]] = [
        [None] * (mr + 2) for _ in range(ml + 2)
    ]
    # the cheapest child per side bounds a pair's unit cost from below; the
    # empty pair comes first and reads the cell itself, so it never wins
    lmin = [[min(row, default=INF) for row in rows] for rows in lrows]
    rmin = [[min(row, default=INF) for row in rows] for rows in rrows]
    g[ml + 1][mr + 1] = 0.0
    for i in range(ml + 1, 0, -1):
        for k in range(mr + 1, 0, -1):
            best = g[i][k]
            for t, al in enumerate(lrows[i], i - 1):
                rest = g[t + 1]
                low = lmin[i][t - i + 1]
                for u, ar in enumerate(rrows[k], k - 1):
                    shared = 1.0 if (t >= i and u >= k) else 0.0
                    if low + rmin[k][u - k + 1] - shared + rest[u + 1] >= best:
                        continue
                    cost = min(map(add, al, ar)) - shared + rest[u + 1]
                    if cost < best:
                        best = cost
                        pick[i][k] = (t, u)
            g[i][k] = best
    return g, pick


def _path_side(
    instance: StripInstance, level1: list[int], side: str, paths: dict[str, list[int]]
) -> Side:
    """The side's covering path as one pseudo-terminal; its walker records the
    path it activates, from the source, in ``paths[side]``.

    A level-1 point p in the last backward level costs the path's length
    (p included), any other INF; a side with no outside point has no
    terminal.  A side whose backward levelling dies out is infeasible.
    """
    sign = 1.0 if side == "+" else -1.0
    empty = [0.0] * len(level1)
    if not any(instance.points[i].x * sign > 0.0 for i in instance.covering.outside):
        return [[], [empty]], lambda p, i, t, out: None
    back = backward_level_sets(instance, side)
    if not back.reached:
        raise InfeasibleError(
            f"side {side} cannot be reached from the source disk",
            witness=back.levels[0],
        )
    entry = set(back.levels[-1])
    cost = [float(back.hops) if p in entry else INF for p in level1]
    adj = instance.graph.adj

    def walk(p: int, i: int, t: int, out: set[int]) -> None:
        if t >= i:
            path = paths[side] = [instance.source, p]
            for level in reversed(back.levels[:-1]):
                path.append(min(j for j in level if j in adj[path[-1]]))
            out.update(path)

    return [[], [empty, cost], [empty]], walk


def _two_sided(
    instance: StripInstance, level1: list[int], left: Side, right: Side
) -> BroadcastSet | None:
    """The cheapest cover of two sides' terminals, or None when G(1, 1) is INF.

    The traceback follows the winning first pairs from G(1, 1); each pair's
    child is its first cheapest level-1 point.
    """
    (lrows, lwalk), (rrows, rwalk) = left, right
    g, pick = _suffix_pairs(lrows, rrows)
    if g[1][1] == INF:
        return None
    out: set[int] = {instance.source}
    i = k = 1
    while (split := pick[i][k]) is not None:
        t, u = split
        joint = list(map(add, lrows[i][t - i + 1], rrows[k][u - k + 1]))
        p = level1[joint.index(min(joint))]
        out.add(p)
        lwalk(p, i, t, out)
        rwalk(p, k, u, out)
        i, k = t + 1, u + 1
    return make_broadcast_set(instance, out)


def solve_narrow(instance: StripInstance) -> BroadcastSet:
    """Minimum broadcast set on a narrow strip."""
    result, _ = solve_narrow_detailed(instance)
    return result


def solve_narrow_detailed(instance: StripInstance) -> tuple[BroadcastSet, dict]:
    """Like solve_narrow, also reporting the structure class and path witnesses."""
    _require_narrow(instance)
    part = connected_levels(instance)

    small = find_small(instance)
    if small is not None:
        return small, {"kind": "small"}
    bidi = find_bidirectional(instance)
    if bidi is not None:
        return check_answer(instance, bidi), {"kind": "bidirectional"}

    level1 = sorted(part.levels[1])
    paths: dict[str, list[int]] = {}
    plus, minus = (_path_side(instance, level1, side, paths) for side in "+-")
    result = _two_sided(instance, level1, minus, plus)
    return check_answer(instance, result), {"kind": "path", "paths": paths}
