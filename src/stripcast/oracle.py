"""Exhaustive ground truth for small instances.

Subsets are enumerated in increasing cardinality and, within a cardinality,
in lexicographic index order, so the first feasible subset found is both a
minimum and the lexicographically smallest minimum.  Adjacency is kept as
bitmasks; connectivity, domination, and the hop bound are all mask walks.
Instances above ``max_n`` points (16 by default) raise TractabilityError.
"""

from __future__ import annotations

from itertools import combinations

from .model import (
    BroadcastSet,
    InfeasibleError,
    StripInstance,
    TractabilityError,
    UnitDiskGraph,
    make_broadcast_set,
)


def _masks(graph: UnitDiskGraph) -> tuple[list[int], list[int]]:
    nbr = [0] * graph.n
    for i in range(graph.n):
        for j in graph.adj[i]:
            nbr[i] |= 1 << j
    closed = [nbr[i] | (1 << i) for i in range(graph.n)]
    return nbr, closed


def _connected(subset: int, src_bit: int, nbr: list[int], n: int) -> bool:
    seen = src_bit
    frontier = src_bit
    while frontier:
        grow = 0
        f = frontier
        while f:
            low = f & -f
            grow |= nbr[low.bit_length() - 1]
            f ^= low
        grow &= subset & ~seen
        seen |= grow
        frontier = grow
    return seen == subset


def _dominates(subset: int, closed: list[int], full: int) -> bool:
    cover = 0
    s = subset
    while s:
        low = s & -s
        cover |= closed[low.bit_length() - 1]
        s ^= low
    return cover == full


def _hops_within(
    subset: int, src: int, nbr: list[int], full: int, bound: int
) -> bool:
    # BFS where only subset members relay; every point must be seen in <= bound.
    seen = 1 << src
    frontier = 1 << src
    depth = 0
    while frontier and seen != full and depth < bound:
        relays = frontier & subset
        grow = 0
        f = relays
        while f:
            low = f & -f
            grow |= nbr[low.bit_length() - 1]
            f ^= low
        grow &= ~seen
        seen |= grow
        frontier = grow
        depth += 1
    return seen == full


def brute_min_broadcast(
    instance: StripInstance,
    hops: int | None = None,
    *,
    max_n: int = 16,
) -> BroadcastSet:
    """Minimum broadcast set containing the source, optionally hop-bounded."""
    n = instance.n
    if n > max_n:
        raise TractabilityError(f"oracle refuses n={n} > max_n={max_n}")
    nbr, closed = _masks(instance.graph)
    full = (1 << n) - 1
    src = instance.source
    bound = hops if hops is not None else instance.hops

    all_active = full
    if not _connected(all_active, 1 << src, nbr, n) or not _dominates(
        all_active, closed, full
    ):
        raise InfeasibleError("graph is disconnected; no broadcast set exists")
    if bound is not None and not _hops_within(all_active, src, nbr, full, bound):
        raise InfeasibleError(
            f"even the all-active set needs more than {bound} hops"
        )

    others = [i for i in range(n) if i != src]
    for k in range(0, n):
        for extra in combinations(others, k):
            subset = 1 << src
            for i in extra:
                subset |= 1 << i
            if not _connected(subset, 1 << src, nbr, n):
                continue
            if not _dominates(subset, closed, full):
                continue
            if bound is not None and not _hops_within(subset, src, nbr, full, bound):
                continue
            return make_broadcast_set(instance, [src, *extra])
    raise InfeasibleError("no feasible broadcast set found")  # pragma: no cover
