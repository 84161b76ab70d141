"""Core data types: strip instances, unit-disk graphs, hop levels, validation.

Everything downstream (the narrow/hop/two-hop/wide solvers and the brute-force
oracle) works on the immutable types defined here.  An instance is prepared
once: it keeps its unit-disk graph, its BFS hop levels from the source and,
on narrow strips, its right-/left-covering sets, each computed on first use,
and every solver reads those copies.  Levels, covering sets and the points
outside the source disk (`outside_source_disk`) are all read from the graph,
and `connected_levels` is the one place a disconnected instance is refused.

Every error the library raises on purpose is a `StripcastError`: bad input
(`InstanceError`), an instance with no broadcast set (`InfeasibleError`), a
typed refusal (`ContractError` outside a precondition, `TractabilityError`
past a size cap) or a failed self-check (`InternalError`, from
`check_answer`).  Conventions:

* instances are normalized on construction: the source is translated to x = 0
  and coordinates are rescaled so the transmission radius is 1;
* adjacency is the closed unit disk, decided by exact squared-distance
  comparison in double precision (no epsilon);
* a "narrow" strip has width <= sqrt(3)/2, where every unit disk covers a
  full-width slab of the strip at least 1 unit long.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import takewhile
from typing import Iterable, Sequence

NARROW_LIMIT = math.sqrt(3.0) / 2.0
INF = math.inf

# Pairwise distances closer than this to the radius make the graph depend on
# the last ulps of the input; the loader flags such instances instead of
# silently picking a side.
FRAGILE_TOL = 1e-9


class StripcastError(Exception):
    """Base of every error the library raises on purpose.

    Anything else escaping a solver is a bug outside the failure contract.
    """


class InstanceError(StripcastError, ValueError):
    """Malformed input: bad coordinates, indices, widths, candidate sets."""


class InfeasibleError(StripcastError):
    """The instance admits no broadcast set under the given constraints."""

    def __init__(self, reason: str, witness: tuple = ()):
        super().__init__(reason)
        self.reason = reason
        self.witness = tuple(witness)


class ContractError(StripcastError, RuntimeError):
    """An operation was invoked outside its stated precondition."""


class TractabilityError(StripcastError, RuntimeError):
    """The instance is past a solver's size cap (a window or the oracle)."""


class InternalError(StripcastError):
    """A solver's self-check failed: its answer is not a broadcast set."""


@dataclass(frozen=True, order=True)
class Point:
    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y


def dist2(p: Point, q: Point) -> float:
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


@dataclass(frozen=True)
class StripInstance:
    """A normalized problem instance.

    ``width`` is None for planar (unbounded) instances.  After normalization
    the source sits at x = 0 and the radius is 1.  ``graph`` and ``fragile``
    each come from their own sweep over the points on first use, ``levels``
    from one breadth-first search in that graph and ``covering`` from that
    graph's adjacency; all four are kept with the instance, and equality and
    hashing see only the four fields.
    """

    points: tuple[Point, ...]
    source: int
    width: float | None = None
    hops: int | None = None

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def source_point(self) -> Point:
        return self.points[self.source]

    def is_narrow(self) -> bool:
        return self.width is not None and self.width <= NARROW_LIMIT

    @cached_property
    def graph(self) -> UnitDiskGraph:
        """The closed unit-disk graph: (p, q) is an edge iff dist2(p, q) <= 1."""
        return _sweep(self.points)

    @cached_property
    def fragile(self) -> bool:
        """Whether some pairwise distance lies within FRAGILE_TOL of the radius."""
        return _fragile_scan(self.points)

    @cached_property
    def levels(self) -> LevelPartition:
        """BFS hop levels from the source in ``graph``.

        On a narrow strip, raises ContractError if neighbouring levels overlap
        by more than 1/2 in x.
        """
        return _bfs_levels(self)

    @cached_property
    def covering(self) -> CoveringSets:
        """Right-/left-covering sets, read from ``graph``.

        Raises ContractError on a strip that is not narrow.
        """
        return _covering_sets(self)


def make_instance(
    coords: Sequence[tuple[float, float]] | Sequence[Point],
    source: int = 0,
    width: float | None = None,
    radius: float = 1.0,
    hops: int | None = None,
    warn_fragile: bool = True,
) -> StripInstance:
    """Validate, normalize (source to x=0, radius to 1) and freeze an instance."""
    pts = [p if isinstance(p, Point) else Point(float(p[0]), float(p[1])) for p in coords]
    if not pts:
        raise InstanceError("instance needs at least one point")
    if not 0 <= source < len(pts):
        raise InstanceError(f"source index {source} out of range 0..{len(pts) - 1}")
    for i, p in enumerate(pts):
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise InstanceError(f"point {i} has non-finite coordinates")
    if radius <= 0 or not math.isfinite(radius):
        raise InstanceError("radius must be positive and finite")
    if width is not None:
        if width <= 0 or not math.isfinite(width):
            raise InstanceError("width must be positive (or None for planar)")
    if hops is not None and hops < 1:
        raise InstanceError("hop bound must be a positive integer")

    sx = pts[source].x
    if sx != 0.0:
        pts = [Point(p.x - sx, p.y) for p in pts]
    if radius != 1.0:
        pts = [Point(p.x / radius, p.y / radius) for p in pts]
        if width is not None:
            width = width / radius
    if width is not None:
        for i, p in enumerate(pts):
            if not 0.0 <= p.y <= width:
                raise InstanceError(f"point {i} lies outside the strip [0, {width}]")

    inst = StripInstance(tuple(pts), source, width, hops)
    if warn_fragile and inst.fragile:
        warnings.warn(
            "instance has a pairwise distance within 1e-9 of the radius; "
            "the adjacency of such pairs is decided by the last bits of the input",
            stacklevel=2,
        )
    return inst


@dataclass(frozen=True)
class UnitDiskGraph:
    n: int
    adj: tuple[frozenset[int], ...]


def _x_sorted(pts: Sequence[Point]) -> tuple[list[int], list[float], list[float]]:
    """The point indices by x, with their x and y coordinates in that order."""
    for i, p in enumerate(pts):
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise InstanceError(f"point {i} has non-finite coordinates")
    order = sorted(range(len(pts)), key=lambda i: pts[i].x)
    return order, [pts[i].x for i in order], [pts[i].y for i in order]


def _sweep(pts: Sequence[Point]) -> UnitDiskGraph:
    """Adjacency from one x-sorted sweep over the pairs.

    Only pairs whose x-gap is at most 1 are looked at: a pair farther apart
    in x has dist2 > 1 (the square of a float gap above 1).  dist2 <= 1.0, in
    dist2's own arithmetic, decides every edge.
    """
    order, xs, ys = _x_sorted(pts)
    n = len(pts)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a in range(n):
        i = order[a]
        xa = xs[a]
        ya = ys[a]
        b = a + 1
        while b < n:
            dx = xs[b] - xa
            if dx > 1.0:
                break
            dy = ys[b] - ya
            if dx * dx + dy * dy <= 1.0:
                j = order[b]
                nbrs[i].append(j)
                nbrs[j].append(i)
            b += 1
    return UnitDiskGraph(n, tuple(frozenset(s) for s in nbrs))


def _fragile_scan(pts: Sequence[Point]) -> bool:
    """Whether some pair lies within FRAGILE_TOL of distance 1, by an x-sorted
    sweep over the pairs whose x-gap is at most 1 + 2 FRAGILE_TOL (a pair
    farther apart in x is beyond the band).  The square root is taken only
    for pairs whose dist2 lies within 4 FRAGILE_TOL of 1, a band that holds
    every distance within FRAGILE_TOL of 1.
    """
    _, xs, ys = _x_sorted(pts)
    n = len(pts)
    reach = 1.0 + 2.0 * FRAGILE_TOL
    band = 4.0 * FRAGILE_TOL
    for a in range(n):
        xa = xs[a]
        ya = ys[a]
        b = a + 1
        while b < n:
            dx = xs[b] - xa
            if dx > reach:
                break
            dy = ys[b] - ya
            d2 = dx * dx + dy * dy
            if abs(d2 - 1.0) < band and abs(math.sqrt(d2) - 1.0) < FRAGILE_TOL:
                return True
            b += 1
    return False


@dataclass(frozen=True)
class LevelPartition:
    """BFS hop levels from the source, split by the sign of x.

    ``level[i]`` is the hop distance of point i (math.inf if unreachable).
    ``levels[d]`` lists the points at distance d; ``minus``/``plus`` split each
    level into x < 0 and x >= 0 parts.
    """

    level: tuple[float, ...]
    levels: tuple[tuple[int, ...], ...]
    minus: tuple[tuple[int, ...], ...]
    plus: tuple[tuple[int, ...], ...]
    unreachable: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def connected_levels(instance: StripInstance) -> LevelPartition:
    """The instance's levels; raises InfeasibleError if some point is unreachable."""
    part = instance.levels
    if part.unreachable:
        raise InfeasibleError(
            "graph is disconnected; no broadcast set exists",
            witness=part.unreachable,
        )
    return part


def outside_source_disk(instance: StripInstance) -> list[int]:
    """Points farther than 1 from the source: neither it nor its neighbours."""
    s = instance.source
    near = instance.graph.adj[s]
    return [i for i in range(instance.n) if i != s and i not in near]


@dataclass(frozen=True)
class CoveringSets:
    """Right-/left-covering points: adjacent to every farther outside point.

    Point i is right-covering iff every point outside the source disk with a
    larger x is in ``graph.adj[i]``; left-covering is the mirror image.  With
    no point outside the source disk every point is in both sets.
    """

    q_plus: tuple[int, ...]
    q_minus: tuple[int, ...]
    outside: tuple[int, ...]  # points outside the source disk


def _covering_sets(instance: StripInstance) -> CoveringSets:
    if not instance.is_narrow():
        raise ContractError("covering sets are only defined on narrow strips")
    outside = outside_source_disk(instance)
    if not outside:
        everyone = tuple(range(instance.n))
        return CoveringSets(everyone, everyone, ())
    return CoveringSets(
        _covering_side(instance, outside, 1.0),
        _covering_side(instance, outside, -1.0),
        tuple(outside),
    )


def _covering_side(
    instance: StripInstance, outside: list[int], sign: float
) -> tuple[int, ...]:
    """Points adjacent to every outside point farther along sign * x.

    Only the farthest outside point a, its neighbours and the points at least
    as far as a can qualify.  Each is checked against the farther outside
    points, farthest first, up to the first non-neighbour.
    """
    adj = instance.graph.adj
    xs = [sign * p.x for p in instance.points]
    far = sorted(outside, key=xs.__getitem__, reverse=True)
    a = far[0]
    cand = adj[a].union([a], (i for i, x in enumerate(xs) if x >= xs[a]))

    def covers(i: int) -> bool:
        farther = takewhile(lambda j: xs[j] > xs[i], far)
        return all(j in adj[i] for j in farther)

    return tuple(i for i in sorted(cand) if covers(i))


def _bfs_levels(instance: StripInstance) -> LevelPartition:
    adj = instance.graph.adj
    src = instance.source
    n = instance.n
    level: list[float] = [INF] * n
    level[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if level[v] == INF:
                level[v] = level[u] + 1
                queue.append(v)
    depth = max((int(d) for d in level if d != INF), default=0)
    levels: list[list[int]] = [[] for _ in range(depth + 1)]
    unreachable = []
    for i, d in enumerate(level):
        if d == INF:
            unreachable.append(i)
        else:
            levels[int(d)].append(i)
    pts = instance.points
    minus = tuple(tuple(i for i in lv if pts[i].x < 0.0) for lv in levels)
    plus = tuple(tuple(i for i in lv if pts[i].x >= 0.0) for lv in levels)
    part = LevelPartition(
        tuple(level),
        tuple(tuple(lv) for lv in levels),
        minus,
        plus,
        tuple(unreachable),
    )
    if instance.is_narrow():
        _check_level_overlap(instance, part)
    return part


def _check_level_overlap(instance: StripInstance, part: LevelPartition) -> None:
    # On narrow strips neighboring levels overlap by at most 1/2 in x.
    pts = instance.points
    for i in range(1, len(part.levels)):
        if part.plus[i] and part.plus[i - 1]:
            hi_prev = max(pts[j].x for j in part.plus[i - 1])
            lo_cur = min(pts[j].x for j in part.plus[i])
            if hi_prev > lo_cur + 0.5:
                raise ContractError(
                    f"level overlap bound violated on the right at level {i}"
                )
        if part.minus[i] and part.minus[i - 1]:
            lo_prev = min(pts[j].x for j in part.minus[i - 1])
            hi_cur = max(pts[j].x for j in part.minus[i])
            if lo_prev < hi_cur - 0.5:
                raise ContractError(
                    f"level overlap bound violated on the left at level {i}"
                )


@dataclass(frozen=True)
class BroadcastSet:
    """A candidate solution: a sorted index set that contains the source."""

    active: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.active)

    @cached_property
    def _members(self) -> frozenset[int]:
        return frozenset(self.active)

    def __contains__(self, i: int) -> bool:
        return i in self._members


def make_broadcast_set(instance: StripInstance, indices: Iterable[int]) -> BroadcastSet:
    idx = sorted(set(int(i) for i in indices))
    if any(i < 0 or i >= instance.n for i in idx):
        raise InstanceError("active index out of range")
    if instance.source not in idx:
        raise InstanceError("active set must contain the source")
    return BroadcastSet(tuple(idx))


@dataclass(frozen=True)
class ValidationReport:
    is_dominating: bool
    is_connected: bool
    max_hops_needed: float
    hops_ok: bool | None
    witnesses: tuple[int, ...]

    @property
    def valid(self) -> bool:
        return self.is_dominating and self.is_connected and self.hops_ok is not False


def validate_broadcast(
    instance: StripInstance,
    candidate: BroadcastSet | Iterable[int],
    hops: int | None = None,
) -> ValidationReport:
    """Check domination, connectivity, and the hop count of a candidate set.

    ``max_hops_needed`` is the worst shortest-path length from the source
    where only active points may relay (the endpoint itself may be inactive).
    The hop bound checked is the ``hops`` argument, else the instance's.
    """
    graph = instance.graph
    if isinstance(candidate, BroadcastSet):
        active = set(candidate.active)
    else:
        active = set(int(i) for i in candidate)
    if any(i < 0 or i >= instance.n for i in active):
        raise InstanceError("active index out of range")
    if instance.source not in active:
        raise InstanceError("active set must contain the source")
    n = graph.n
    src = instance.source

    covered = set(active)
    for a in active:
        covered |= graph.adj[a]
    uncovered = [i for i in range(n) if i not in covered]
    is_dominating = not uncovered

    # BFS where only active vertices relay; inactive points are absorbing.
    # An active point it leaves at INF has no all-active path from the source.
    dist: list[float] = [INF] * n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in graph.adj[u]:
            if dist[v] == INF:
                dist[v] = dist[u] + 1
                if v in active:
                    queue.append(v)
    max_hops = max(dist)
    stranded = sorted(i for i in active if dist[i] == INF)
    is_connected = not stranded

    bound = hops if hops is not None else instance.hops
    hops_ok = None if bound is None else max_hops <= bound
    witnesses = tuple(uncovered + stranded)
    return ValidationReport(is_dominating, is_connected, max_hops, hops_ok, witnesses)


def check_answer(
    instance: StripInstance, result: BroadcastSet, hops: int | None = None
) -> BroadcastSet:
    """A solver's self-check: ``result`` if it dominates, is connected and,
    when ``hops`` is given, meets that bound (the instance's own is not read);
    else InternalError with the witnesses."""
    report = validate_broadcast(instance, result, hops=hops)
    if report.is_dominating and report.is_connected and (hops is None or report.hops_ok):
        return result
    raise InternalError(
        f"solver produced an invalid set {result.active}: witnesses "
        f"{report.witnesses}, max_hops={report.max_hops_needed}, bound {hops}"
    )
