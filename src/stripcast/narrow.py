"""Minimum broadcast in strips of width <= sqrt(3)/2.

The solver checks the three possible structures of an optimum in order:

* small: {s} alone, or {s, p} with one disk covering everything outside the
  source disk;
* bidirectional: a star {s, p, p'} with both extra centers in the source
  disk, whose neighbourhoods together hold every outside point;
* path-like: a shortest path from s to the right-covering set plus a shortest
  path to the left-covering set, sharing at most their second vertex.

The right-/left-covering sets are the ones the instance keeps
(``StripInstance.covering``), read from its unit-disk graph.  Path-like
solutions are found by levelling the points backwards from them: a
breadth-first search in that graph.  Every adjacency the solver asks about,
the closed source disk included, is a lookup in the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def walk_backward_path(
    instance: StripInstance, back: BackwardLevels, start: int
) -> list[int]:
    """Path from a point of the last backward level down to the covering set."""
    adj = instance.graph.adj
    path = [start]
    for depth in range(back.hops - 2, -1, -1):
        cur = path[-1]
        path.append(min(i for i in back.levels[depth] if i in adj[cur]))
    return path


def solve_narrow(instance: StripInstance) -> BroadcastSet:
    """Minimum broadcast set on a narrow strip."""
    result, _ = solve_narrow_detailed(instance)
    return result


def solve_narrow_detailed(instance: StripInstance) -> tuple[BroadcastSet, dict]:
    """Like solve_narrow, also reporting the structure class and path witnesses."""
    _require_narrow(instance)
    connected_levels(instance)

    small = find_small(instance)
    if small is not None:
        return small, {"kind": "small"}
    bidi = find_bidirectional(instance)
    if bidi is not None:
        return check_answer(instance, bidi), {"kind": "bidirectional"}

    covering = instance.covering
    pts = instance.points
    s = instance.source
    near = instance.graph.adj[s]

    def in_source_disk(i: int) -> bool:
        return i == s or i in near

    sides: dict[str, BackwardLevels] = {}
    for side, sign in (("+", 1.0), ("-", -1.0)):
        if any(pts[i].x * sign > 0.0 for i in covering.outside):
            back = backward_level_sets(instance, side)
            if not back.reached:
                raise InfeasibleError(
                    f"side {side} cannot be reached from the source disk",
                    witness=back.levels[0],
                )
            sides[side] = back

    active = {s}
    paths: dict[str, list[int]] = {}
    if len(sides) == 2:
        bp, bm = sides["+"], sides["-"]
        last_minus = set(bm.levels[-1])
        shared = [
            i for i in bp.levels[-1] if i in last_minus and in_source_disk(i)
        ]
        if shared:
            second = min(shared)
            paths["+"] = [s] + walk_backward_path(instance, bp, second)
            paths["-"] = [s] + walk_backward_path(instance, bm, second)
        else:
            start_p = min(filter(in_source_disk, bp.levels[-1]))
            start_m = min(filter(in_source_disk, bm.levels[-1]))
            paths["+"] = [s] + walk_backward_path(instance, bp, start_p)
            paths["-"] = [s] + walk_backward_path(instance, bm, start_m)
    else:
        side, back = next(iter(sides.items()))
        start = min(filter(in_source_disk, back.levels[-1]))
        paths[side] = [s] + walk_backward_path(instance, back, start)

    for path in paths.values():
        active.update(path)
    result = make_broadcast_set(instance, active)
    return check_answer(instance, result), {"kind": "path", "paths": paths}
