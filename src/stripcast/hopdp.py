"""Hop-bounded broadcast in narrow strips.

With t the number of hop levels: t > h is infeasible, t < h reduces to the
unbounded solver, and t = h splits by depth.  At t = h <= 2 the problem is
the 2-hop broadcast problem, which the planar 2-hop solver answers exactly.
At t = h >= 3 no 2-hop set exists: a level-3 point lies outside every disk
centered in the source disk.  There the unbounded (narrow) optimum is
returned whenever it meets the bound, as no h-hop set can be smaller.
Otherwise the answer is the minimum over two candidate structures: a mixed
solution (path on one side, arborescence on the other, possibly sharing the
second vertex) and a two-sided arborescence.

Arborescences live in the level DAG (edges between consecutive levels,
oriented upward).  The one-sided table M(p, [i, j]) is the minimum number of
active points, excluding the root p, of an order-respecting arborescence
rooted at p whose leaf set is the y-interval [i, j] of the last level.  The
two-sided structure at the source is a table over suffix pairs: G(i, k) is
the cheapest cover, source excluded, of the left last-level points i..m_l
and the right ones k..m_r.  The source's children take consecutive (left
interval, right interval) pairs in order, so G(i, k) is the cheapest first
child over (i..t, k..u) plus G(t + 1, u + 1), and the answer is 1 + G(1, 1):
(m_l + 1)(m_r + 1) cells, each trying every first pair.

`solve_hop` reads the levels and covering sets the instance keeps, and at
t = h >= 3 builds one level DAG and one pair of side tables (left: points with
x < 0, right: x >= 0, both with all of level 1) that the mixed and two-sided
candidates share.  On a one-sided instance (source leftmost) the right table
is the whole problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Iterable

from . import narrow as narrow_mod
from . import twohop as twohop_mod
from .model import (
    BroadcastSet,
    ContractError,
    InfeasibleError,
    InternalError,
    LevelPartition,
    StripInstance,
    connected_levels,
    make_broadcast_set,
    validate_broadcast,
)

INF = math.inf


@dataclass(frozen=True)
class LevelDag:
    """Graph edges between consecutive levels, oriented low to high."""

    instance: StripInstance
    part: LevelPartition
    children: tuple[tuple[int, ...], ...]
    parents: tuple[tuple[int, ...], ...]


def build_level_dag(instance: StripInstance) -> LevelDag:
    """Orient inter-level edges upward; same-level edges are dropped."""
    part = connected_levels(instance)
    adj = instance.graph.adj
    n = instance.n
    children: list[list[int]] = [[] for _ in range(n)]
    parents: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in adj[u]:
            if part.level[v] == part.level[u] + 1:
                children[u].append(v)
                parents[v].append(u)
    return LevelDag(
        instance,
        part,
        tuple(tuple(sorted(c)) for c in children),
        tuple(tuple(sorted(p)) for p in parents),
    )


@dataclass
class OneSidedTable:
    """M(p, [i, j]) over 1-based terminal intervals, with witness choices."""

    dag: LevelDag
    vertices: frozenset[int]
    terminals: tuple[int, ...]  # last-level points in (y, index) order
    values: dict[tuple[int, int, int], float]
    choice: dict[tuple[int, int, int], tuple]
    reach: dict[int, frozenset[int]]  # terminal -> vertices with a path to it

    @property
    def m(self) -> int:
        return len(self.terminals)

    def value(self, p: int, i: int, j: int) -> float:
        if j < i:
            return 0.0
        return self.values.get((p, i, j), INF)


def _sorted_terminals(instance: StripInstance, idx: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(idx, key=lambda q: (instance.points[q].y, q)))


def _restricted_reach(dag: LevelDag, vertices: frozenset[int], q: int) -> frozenset[int]:
    seen = {q}
    stack = [q]
    while stack:
        u = stack.pop()
        for v in dag.parents[u]:
            if v in vertices and v not in seen:
                seen.add(v)
                stack.append(v)
    return frozenset(seen)


def _fill_table(
    dag: LevelDag, vertices: frozenset[int], terminals: tuple[int, ...]
) -> OneSidedTable:
    """Fill M by increasing interval length."""
    part = dag.part
    m = len(terminals)
    reach = {q: _restricted_reach(dag, vertices, q) for q in terminals}
    values: dict[tuple[int, int, int], float] = {}
    choice: dict[tuple[int, int, int], tuple] = {}
    # the descend branch reads same-interval cells one level deeper, so roots
    # go deepest-first within a span
    verts = sorted(vertices, key=lambda p: (-part.level[p], p))
    for span in range(1, m + 1):
        for i in range(1, m - span + 2):
            j = i + span - 1
            q = terminals[i - 1]
            for p in verts:
                if span == 1:
                    if p == q:
                        values[(p, i, j)] = -1.0
                        choice[(p, i, j)] = ("leaf",)
                    elif p in reach[q]:
                        values[(p, i, j)] = part.level[q] - part.level[p] - 1.0
                        choice[(p, i, j)] = ("leaf",)
                    continue
                best = INF
                pick = None
                for t in range(i, j):
                    a = values.get((p, i, t), INF)
                    b = values.get((p, t + 1, j), INF)
                    if a + b < best:
                        best = a + b
                        pick = ("merge", t)
                for c in dag.children[p]:
                    if c not in vertices:
                        continue
                    sub = values.get((c, i, j), INF)
                    if 1.0 + sub < best:
                        best = 1.0 + sub
                        pick = ("descend", c)
                if best < INF:
                    values[(p, i, j)] = best
                    choice[(p, i, j)] = pick
    return OneSidedTable(dag, vertices, terminals, values, choice, reach)


def _walk_dag_path(table: OneSidedTable, p: int, q: int, out: set[int]) -> None:
    """Activate the interior of the min-index DAG path from p to q."""
    dag = table.dag
    cur = p
    while cur != q:
        nxt = min(
            c
            for c in dag.children[cur]
            if c in table.vertices and c in table.reach[q]
        )
        if nxt != q:
            out.add(nxt)
        cur = nxt


def _walk_table(table: OneSidedTable, p: int, i: int, j: int, out: set[int]) -> None:
    """Active points (excluding the root p) of the witness arborescence."""
    if j < i:
        return
    pick = table.choice[(p, i, j)]
    if pick[0] == "leaf":
        _walk_dag_path(table, p, table.terminals[i - 1], out)
    elif pick[0] == "merge":
        _walk_table(table, p, i, pick[1], out)
        _walk_table(table, p, pick[1] + 1, j, out)
    else:
        out.add(pick[1])
        _walk_table(table, pick[1], i, j, out)


def _second_point_split(table: OneSidedTable, p: int) -> tuple[int, int] | None:
    """Interval [i, j] witnessing p as an optimal child of the source."""
    src = table.dag.instance.source
    m = table.m
    total = table.value(src, 1, m)
    if total == INF:
        return None
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            if (
                table.value(src, 1, i - 1)
                + table.value(p, i, j)
                + table.value(src, j + 1, m)
                + 1.0
                == total
            ):
                return (i, j)
    return None


def _side_tables(
    instance: StripInstance, dag: LevelDag
) -> tuple[OneSidedTable, OneSidedTable]:
    """Left and right tables, over the x < 0 and x >= 0 parts of the levels.

    A side's vertices are the source, all of level 1 and the side's points of
    levels >= 2; its terminals are the side's part of the last level.
    """
    part = dag.part
    left, right = (
        _fill_table(
            dag,
            frozenset({instance.source}.union(*part.levels[1:2], *side[2:])),
            _sorted_terminals(instance, side[part.depth]),
        )
        for side in (part.minus, part.plus)
    )
    return left, right


def _root_cost(table: OneSidedTable, p: int, i: int, j: int) -> float:
    """Root-inclusive one-sided cost: M + 1 on nonempty intervals, 0 on empty."""
    if j < i:
        return 0.0
    v = table.value(p, i, j)
    return v + 1.0 if v < INF else INF


def _cost_rows(table: OneSidedTable, level1: list[int]) -> list[list[list[float]]]:
    """``rows[i][t - i + 1]``: the root-inclusive costs of [i, t] for each
    level-1 point, for t = i - 1 .. m (the empty interval first)."""
    m = table.m
    return [[]] + [
        [[_root_cost(table, p, i, t) for p in level1] for t in range(i - 1, m + 1)]
        for i in range(1, m + 2)
    ]


def _suffix_pairs(
    lrows: list[list[list[float]]], rrows: list[list[list[float]]]
) -> tuple[list[list[float]], list[list[tuple[int, int] | None]]]:
    """G(i, k) of the module docstring, with each cell's winning first pair
    (t, u), or None on G(m_l + 1, m_r + 1) = 0 and on INF cells.

    A pair's unit cost is its cheapest level-1 child, counted once when it
    serves both sides; on a single leaf that is the source's shortest DAG
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


def _two_sided(
    instance: StripInstance,
    dag: LevelDag,
    left: OneSidedTable,
    right: OneSidedTable,
) -> BroadcastSet | None:
    """The two-sided arborescence over already filled side tables, or None
    when no such arborescence spans the last level (G(1, 1) is INF).

    The traceback follows the winning first pairs from G(1, 1); each pair's
    child is its first cheapest level-1 point.
    """
    levels = dag.part.levels
    level1 = sorted(levels[1]) if len(levels) > 1 else []
    lrows, rrows = _cost_rows(left, level1), _cost_rows(right, level1)
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
        _walk_table(left, p, i, t, out)
        _walk_table(right, p, k, u, out)
        i, k = t + 1, u + 1
    return make_broadcast_set(instance, out)


def solve_hop(instance: StripInstance, hops: int | None = None) -> BroadcastSet:
    """Minimum h-hop broadcast on a narrow strip."""
    if not instance.is_narrow():
        raise ContractError("hop-bounded solving requires a narrow strip")
    h = hops if hops is not None else instance.hops
    if h is None:
        return narrow_mod.solve_narrow(instance)
    if h < 1:
        raise ContractError("hop bound must be >= 1")
    t = connected_levels(instance).depth
    if t > h:
        raise InfeasibleError(f"points at hop level t={t} exceed the bound h={h}")
    if t < h:
        return narrow_mod.solve_narrow(instance)
    if t <= 2:
        return twohop_mod.solve_two_hop(instance)

    # the h-hop optimum is never below the unbounded one, so an unbounded
    # optimum that meets the bound is optimal here too
    unbounded = narrow_mod.solve_narrow(instance)
    if validate_broadcast(instance, unbounded, hops=h).valid:
        return unbounded

    candidates: list[BroadcastSet] = []

    def consider(result: BroadcastSet | None) -> None:
        if result is not None and validate_broadcast(
            instance, result, hops=h
        ).valid:
            candidates.append(result)

    # one DAG and one pair of side tables serve the mixed and two-sided
    # candidates alike
    dag = build_level_dag(instance)
    left, right = _side_tables(instance, dag)
    consider(_mixed_candidate(instance, right, "+"))
    consider(_mixed_candidate(instance, left, "-"))
    consider(_two_sided(instance, dag, left, right))

    if not candidates:
        raise InternalError("no feasible hop-bounded candidate")
    return min(candidates, key=lambda c: c.size)


def _mixed_candidate(
    instance: StripInstance, table: OneSidedTable, arb_side: str
) -> BroadcastSet | None:
    """Arborescence toward one side plus a shortest covering path to the other.

    ``table`` is the arborescence side's one-sided table; the path runs to the
    instance's covering set on the other side.  The path may enter the
    arborescence at a shared second vertex; sharing is possible exactly when
    some optimal-child candidate of the arborescence is also a possible
    second vertex of a shortest covering path.
    """
    src = instance.source
    if not table.terminals or table.value(src, 1, table.m) == INF:
        return None
    pts = instance.points
    sign = 1.0 if arb_side == "+" else -1.0
    outside = instance.covering.outside
    path_side_used = any(pts[i].x * sign < 0.0 for i in outside)
    if not path_side_used:
        actives: set[int] = {src}
        _walk_table(table, src, 1, table.m, actives)
        return make_broadcast_set(instance, actives)

    path_side = "-" if arb_side == "+" else "+"
    back = narrow_mod.backward_level_sets(instance, path_side)
    if not back.reached:
        return None
    near = instance.graph.adj[src]
    entry = [i for i in back.levels[-1] if i == src or i in near]

    start = None
    actives = {src}
    for p in sorted(entry):
        split = _second_point_split(table, p)
        if split is not None:
            i, j = split
            actives.add(p)
            _walk_table(table, src, 1, i - 1, actives)
            _walk_table(table, p, i, j, actives)
            _walk_table(table, src, j + 1, table.m, actives)
            start = p
            break
    if start is None:
        _walk_table(table, src, 1, table.m, actives)
        start = min(entry)
    path = narrow_mod.walk_backward_path(instance, back, start)
    actives.update(path)
    return make_broadcast_set(instance, actives)

