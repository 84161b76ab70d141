"""Hop-bounded broadcast in narrow strips.

With t the number of hop levels: t > h is infeasible, t < h reduces to the
unbounded solver, and t = h splits by depth.  At t = h <= 2 the problem is
the 2-hop broadcast problem, which the planar 2-hop solver answers exactly.
At t = h >= 3 no 2-hop set exists: a level-3 point lies outside every disk
centered in the source disk.  Neither can a small or bidirectional set, so
the unbounded optimum is the (path -, path +) pairing of `narrow`'s
suffix-pair table; it is returned whenever it meets the bound, as no h-hop
set can be smaller.  Only when it breaks the bound are the tree tables
filled, and the answer is the smallest valid set of the same table over
three pairings of sides: (path -, tree +), (tree -, path +) and
(tree -, tree +).

Arborescences live in the level DAG (edges between consecutive levels,
oriented upward).  The one-sided table M(p, [i, j]) is the minimum number of
active points, excluding the root p, of an order-respecting arborescence
rooted at p whose leaf set is the y-interval [i, j] of the last level.  A tree
side's terminals are its part of the last level, and its costs read M.  A
child serving both sides counts once, so a (path, tree) set is the optimal
tree plus the path, less one when the path can start at an optimal child of
the tree.

`solve_hop` reads the levels and covering sets the instance keeps, and at
t = h >= 3 builds the two path sides once, then, if needed, one level DAG
and one pair of tree tables (left: x < 0, right: x >= 0, both with all of
level 1) that every pairing shares.  On a one-sided instance (source
leftmost) the right table is the whole problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from . import narrow as narrow_mod
from . import twohop as twohop_mod
from .model import (
    BroadcastSet,
    ContractError,
    InfeasibleError,
    InternalError,
    LevelPartition,
    StripInstance,
    check_answer,
    connected_levels,
    validate_broadcast,
)
from .narrow import Rows, Side, _path_side, _two_sided

INF = math.inf


@dataclass(frozen=True)
class LevelDag:
    """Graph edges between consecutive levels, oriented low to high."""

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


def _side_tables(
    instance: StripInstance, dag: LevelDag
) -> tuple[OneSidedTable, OneSidedTable]:
    """Left and right tables, over the x < 0 and x >= 0 parts of the levels.

    A side's vertices are the source, all of level 1 and the side's points of
    levels >= 2; its terminals are the side's part of the last level.
    """
    part = dag.part
    pts = instance.points
    left, right = (
        _fill_table(
            dag,
            frozenset({instance.source}.union(*part.levels[1:2], *side[2:])),
            tuple(sorted(side[part.depth], key=lambda q: (pts[q].y, q))),
        )
        for side in (part.minus, part.plus)
    )
    return left, right


def _root_cost(table: OneSidedTable, p: int, i: int, j: int) -> float:
    """Root-inclusive one-sided cost: M + 1 on nonempty intervals, 0 on empty."""
    return 0.0 if j < i else table.value(p, i, j) + 1.0


def _cost_rows(table: OneSidedTable, level1: list[int]) -> Rows:
    """``rows[i][t - i + 1]``: the root-inclusive costs of [i, t] for each
    level-1 point, for t = i - 1 .. m (the empty interval first)."""
    m = table.m
    return [[]] + [
        [[_root_cost(table, p, i, t) for p in level1] for t in range(i - 1, m + 1)]
        for i in range(1, m + 2)
    ]


def _candidates(
    instance: StripInstance, dag: LevelDag, minus: Side, plus: Side
) -> list[BroadcastSet | None]:
    """The (path -, tree +), (tree -, path +) and (tree -, tree +) sets, in
    that order, given the two path sides; None where a pairing covers
    nothing."""
    level1 = sorted(dag.part.levels[1])
    left, right = (
        (_cost_rows(table, level1), partial(_walk_table, table))
        for table in _side_tables(instance, dag)
    )
    return [
        _two_sided(instance, level1, a, b)
        for a, b in ((minus, right), (left, plus), (left, right))
    ]


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
        return check_answer(instance, narrow_mod.solve_narrow(instance), hops=h)
    if t <= 2:
        return twohop_mod.solve_two_hop(instance)

    # the h-hop optimum is never below the unbounded one, so an unbounded
    # optimum that meets the bound is optimal here too
    level1 = sorted(instance.levels.levels[1])
    plus, minus = (_path_side(instance, level1, side, {}) for side in "+-")
    unbounded = check_answer(instance, _two_sided(instance, level1, minus, plus))
    if validate_broadcast(instance, unbounded, hops=h).valid:
        return unbounded

    valid = [
        c
        for c in _candidates(instance, build_level_dag(instance), minus, plus)
        if c is not None and validate_broadcast(instance, c, hops=h).valid
    ]
    if not valid:
        raise InternalError("no feasible hop-bounded candidate")
    return min(valid, key=lambda c: c.size)
