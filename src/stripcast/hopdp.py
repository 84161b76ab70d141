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
two-sided table at the source adds the root back in, so empty-interval cells
are 0 and single-leaf cells are plain DAG distances.

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


@dataclass
class TwoSidedTable:
    """Joint source table over (left interval, right interval) pairs.

    Intervals are numbered once per side, empty ones (j = i - 1) included:
    ``left_ids[(i, j)]`` and ``right_ids[(k, l)]`` index the dense rows
    ``values[left_id][right_id]`` and ``choice[left_id][right_id]``.
    """

    left: OneSidedTable
    right: OneSidedTable
    left_ids: dict[tuple[int, int], int]
    right_ids: dict[tuple[int, int], int]
    values: list[list[float]]
    choice: list[list[tuple]]

    def value(self, i: int, j: int, k: int, l: int) -> float:
        return self.values[self.left_ids[(i, j)]][self.right_ids[(k, l)]]


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


def _interval_ids(m: int) -> dict[tuple[int, int], int]:
    """Number the intervals [i, j] of 1..m, empty ones (j = i - 1) included."""
    ids: dict[tuple[int, int], int] = {}
    for i in range(1, m + 2):
        for j in range(i - 1, m + 1):
            ids[(i, j)] = len(ids)
    return ids


def _split_ids(ids: dict[tuple[int, int], int]) -> list[list[tuple[int, int]]]:
    """Per interval, the pairs (id [i, t], id [t + 1, j]) for t = i - 1 .. j."""
    return [
        [(ids[(i, t)], ids[(t + 1, j)]) for t in range(i - 1, j + 1)]
        for i, j in ids
    ]


def _fill_joint(
    instance: StripInstance,
    dag: LevelDag,
    left: OneSidedTable,
    right: OneSidedTable,
) -> TwoSidedTable:
    """Fill the joint table as dense rows, by increasing total interval length.

    A cell reads only cells of smaller total length, except the two trivial
    branch splits, which read the cell itself; it is still INF while being
    filled, so they never win.  Ties go to the first (t, u) split, then to
    the first level-1 child, as picks replace only on a strict ``<``.
    """
    src = instance.source
    part = dag.part
    level1 = sorted(part.levels[1]) if len(part.levels) > 1 else []
    lids, rids = _interval_ids(left.m), _interval_ids(right.m)
    lint, rint = list(lids), list(rids)
    lsplits, rsplits = _split_ids(lids), _split_ids(rids)
    # root-inclusive one-sided costs of each interval, over the level-1 points
    lcost = [[_root_cost(left, p, i, j) for p in level1] for i, j in lint]
    rcost = [[_root_cost(right, p, k, l) for p in level1] for k, l in rint]
    values = [[INF] * len(rint) for _ in lint]
    choice = [[("dead",)] * len(rint) for _ in lint]
    lby_len: list[list[int]] = [[] for _ in range(left.m + 1)]
    rby_len: list[list[int]] = [[] for _ in range(right.m + 1)]
    for a, (i, j) in enumerate(lint):
        lby_len[j - i + 1].append(a)
    for b, (k, l) in enumerate(rint):
        rby_len[l - k + 1].append(b)

    for a in lby_len[0]:
        for b in rby_len[0]:
            values[a][b] = 0.0
            choice[a][b] = ("empty",)
    if left.m:
        for a in lby_len[1]:
            q = left.terminals[lint[a][0] - 1]
            for b in rby_len[0]:
                values[a][b] = part.level[q] if src in left.reach[q] else INF
                choice[a][b] = ("path-left", q)
    if right.m:
        for b in rby_len[1]:
            q = right.terminals[rint[b][0] - 1]
            for a in lby_len[0]:
                values[a][b] = part.level[q] if src in right.reach[q] else INF
                choice[a][b] = ("path-right", q)

    for total in range(2, left.m + right.m + 1):
        for ln_l in range(max(0, total - right.m), min(left.m, total) + 1):
            ln_r = total - ln_l
            # child term: the source plus both root-inclusive costs, less
            # the child itself when both nonempty sides count it
            child_extra = 0.0 if (ln_l and ln_r) else 1.0
            for a in lby_len[ln_l]:
                i = lint[a][0]
                vrow = values[a]
                crow = choice[a]
                splits = lsplits[a]
                al = lcost[a]
                for b in rby_len[ln_r]:
                    k = rint[b][0]
                    rs = rsplits[b]
                    best = INF
                    pick = None
                    # branching at the source: split both intervals
                    for t, (a1, a2) in enumerate(splits):
                        r1 = values[a1]
                        r2 = values[a2]
                        row = [r1[b1] + r2[b2] for b1, b2 in rs]
                        low = min(row)
                        if low - 1.0 < best:
                            best = low - 1.0
                            pick = ("branch", i - 1 + t, k - 1 + row.index(low))
                    if level1:
                        joint = list(map(add, al, rcost[b]))
                        low = min(joint)
                        if low + child_extra < best:
                            best = low + child_extra
                            pick = ("child", level1[joint.index(low)])
                    if pick is not None:
                        vrow[b] = best
                        crow[b] = pick
    return TwoSidedTable(left, right, lids, rids, values, choice)


def _walk_joint(
    table: TwoSidedTable,
    instance: StripInstance,
    i: int,
    j: int,
    k: int,
    l: int,
    out: set[int],
) -> None:
    src = instance.source
    pick = table.choice[table.left_ids[(i, j)]][table.right_ids[(k, l)]]
    kind = pick[0]
    if kind == "empty":
        return
    if kind == "path-left":
        out.add(src)
        _walk_dag_path(table.left, src, pick[1], out)
        return
    if kind == "path-right":
        out.add(src)
        _walk_dag_path(table.right, src, pick[1], out)
        return
    if kind == "branch":
        t, u = pick[1], pick[2]
        _walk_joint(table, instance, i, t, k, u, out)
        _walk_joint(table, instance, t + 1, j, u + 1, l, out)
        return
    if kind == "child":
        p = pick[1]
        out.add(src)
        out.add(p)
        if j >= i:
            _walk_table(table.left, p, i, j, out)
        if l >= k:
            _walk_table(table.right, p, k, l, out)
        return
    raise AssertionError("walking a dead table cell")


_MAX_TWO_SIDED_POINTS = 400


def _two_sided(
    instance: StripInstance,
    dag: LevelDag,
    left: OneSidedTable,
    right: OneSidedTable,
) -> BroadcastSet:
    """The two-sided arborescence over already filled side tables."""
    table = _fill_joint(instance, dag, left, right)
    total = table.value(1, left.m, 1, right.m)
    if total == INF:
        raise InfeasibleError("no two-sided arborescence spans the last level")
    out: set[int] = {instance.source}
    _walk_joint(table, instance, 1, left.m, 1, right.m, out)
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
        raise InfeasibleError(
            f"infeasible: points at hop level t={t} exceed the bound h={h}"
        )
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
    if instance.n > _MAX_TWO_SIDED_POINTS:
        raise ContractError(
            f"two-sided DP refuses n={instance.n} > {_MAX_TWO_SIDED_POINTS} "
            "(table memory)"
        )
    try:
        consider(_two_sided(instance, dag, left, right))
    except InfeasibleError:
        pass

    if not candidates:
        raise AssertionError("internal error: no feasible hop-bounded candidate")
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.size < best.size:
            best = cand
    return best


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

