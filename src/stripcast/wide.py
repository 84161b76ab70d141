"""Broadcast on strips of arbitrary width via a window-frontier DP.

The state at anchor k is the set of active points inside the two 2-by-w
windows [-k-1, -k+1] and [k-1, k+1], together with the partition of those
points into connectivity classes of the graph spanned by all actives chosen
so far.  Both are bitmasks over point indices: a state is the pair
(active mask, class masks), the classes sorted by lowest member.  Advancing
the anchor adds fresh actives from the newly exposed 1-wide slabs, restricts
the old classes to the surviving points, merges in every fresh point with the
classes its closed neighbourhood touches, and checks that the newly interior
slabs are dominated.  The fresh subsets of an anchor, with their cover masks
and their own connectivity classes, are listed once and shared by every
state.

A class with no representative in the leading slabs can never reconnect, so
such states are dropped - except when the class is the only one, which covers
solutions whose actives end before the strip does.  Acceptance at the final
anchor requires at most one class and all input points dominated.

Before the fill, ``_tree_broadcast_set`` builds one broadcast set: the
inner points of a BFS tree, pruned deepest first while the rest still
dominates and is connected.  Its size U bounds the fill: no state costing
more than U is ever built.  Anchor 0 lists fresh subsets only up to size
U - 1, anchor k only up to U minus the cost of its cheapest state, and each
state stops at the first subset (they come by size) that would take it past
U.  This is exact.  Cost never falls along a trajectory, so every state on an
optimal one costs at most OPT <= U and survives; by induction every key whose
cheapest cost is at most U keeps that cost, so a connected instance never
gets a false "infeasible" and the optimum and the final tie-break among
optima are unchanged.  Only the parent kept among equally cheap ones may
differ, as pruned states no longer take part in the dicts' insertion order.
The bound set ignores any hop bound the instance carries, as the fill does.

The fill is still bounded by WINDOW_CAP points per 2-by-w window; a window
holding more raises TractabilityError.  The paper's density bound ``mu``
(some optimum has at most mu(w) actives in any 2-by-w window) is checked
against oracle optima but not used by the fill: under the cap it is vacuous
at w >= 1, where mu(w) >= 32.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Sequence

from .model import (
    BroadcastSet,
    ContractError,
    InfeasibleError,
    StripInstance,
    TractabilityError,
    UnitDiskGraph,
    check_answer,
    connected_levels,
    make_broadcast_set,
    validate_broadcast,
)

WINDOW_CAP = 16


def mu(width: float) -> int:
    """The paper's density bound on some optimum's actives in a 2-by-w window."""
    if width <= 0:
        raise ContractError("width must be positive")
    return math.floor(32.0 * width / math.sqrt(3.0) + 14.0)


def _in_window(x: float, k: int) -> bool:
    return (-k - 1.0 <= x <= -k + 1.0) or (k - 1.0 <= x <= k + 1.0)


def _in_leading(x: float, k: int) -> bool:
    return (k <= x <= k + 1.0) or (-k - 1.0 <= x <= -k)


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _closed_masks(graph: UnitDiskGraph) -> list[int]:
    """Each point's closed neighbourhood (itself and every point within 1)."""
    return [_mask(nbrs) | (1 << i) for i, nbrs in enumerate(graph.adj)]


def _cover(mask: int, closed: Sequence[int]) -> int:
    cover = 0
    while mask:
        low = mask & -mask
        cover |= closed[low.bit_length() - 1]
        mask ^= low
    return cover


def _merge(
    classes: Iterable[int], groups: Iterable[tuple[int, int]]
) -> tuple[int, ...]:
    """Classes after adding each ``(members, touch)`` group in turn.

    A group absorbs every class its touch mask meets.  The result is sorted
    by lowest member, the order of ``min`` on the index sets.
    """
    out = list(classes)
    for members, touch in groups:
        kept = []
        for c in out:
            if c & touch:
                members |= c
            else:
                kept.append(c)
        kept.append(members)
        out = kept
    out.sort(key=lambda c: c & -c)
    return tuple(out)


def _fresh_subsets(pool: int, closed: Sequence[int], max_size: int):
    """The pool's subsets of at most ``max_size`` points by size, then
    lexicographically (the empty subset first), each as ``(mask, cover mask,
    size, its classes as (members, cover) groups)``."""
    items = _bits(pool)
    out = []
    for size in range(min(len(items), max_size) + 1):
        for extra in combinations(items, size):
            own = _merge((), ((1 << i, closed[i]) for i in extra))
            groups = tuple((c, _cover(c, closed)) for c in own)
            mask = _mask(extra)
            out.append((mask, _cover(mask, closed), size, groups))
    return out


def _tree_broadcast_set(instance: StripInstance) -> BroadcastSet:
    """The fill's upper bound: a broadcast set from a BFS tree.

    Each non-source point's parent is its lowest-index neighbour one level
    up; the source and the parents dominate and are connected.  Members are
    then dropped, deepest level first and by index within a level, while the
    rest still dominates and is connected.  Any hop bound is ignored.
    """
    level = connected_levels(instance).level
    adj = instance.graph.adj
    src = instance.source
    members = {src}
    for i in range(instance.n):
        if i != src:
            members.add(min(j for j in adj[i] if level[j] == level[i] - 1))
    for i in sorted(members - {src}, key=lambda i: (-level[i], i)):
        report = validate_broadcast(instance, members - {i})
        if report.is_dominating and report.is_connected:
            members.discard(i)
    return make_broadcast_set(instance, members)


def solve_wide(instance: StripInstance) -> BroadcastSet:
    """Minimum broadcast set on a strip of any width."""
    if instance.width is None:
        raise ContractError("the window DP requires a finite strip width")
    connected_levels(instance)
    pts = instance.points
    n = instance.n
    src = instance.source
    k_final = math.ceil(max(abs(p.x) for p in pts))

    for k in range(k_final + 1):
        for lo, hi, name in (
            (k - 1.0, k + 1.0, f"[{k - 1}, {k + 1}]"),
            (-k - 1.0, -k + 1.0, f"[{-k - 1}, {-k + 1}]"),
        ):
            load = sum(1 for p in pts if lo <= p.x <= hi)
            if load > WINDOW_CAP:
                raise TractabilityError(
                    f"window {name} holds {load} candidate points (cap {WINDOW_CAP})"
                )

    bound = _tree_broadcast_set(instance).size
    closed = _closed_masks(instance.graph)
    window = [
        _mask(i for i in range(n) if _in_window(pts[i].x, k))
        for k in range(k_final + 1)
    ]

    # states: (active, classes) -> (cost, parent_key_at_prev_k)
    src_bit = 1 << src
    must_cover = _mask(i for i in range(n) if pts[i].x == 0.0)
    states: dict[tuple, tuple[int, tuple | None]] = {}
    for extra, cover, size, groups in _fresh_subsets(
        window[0] & ~src_bit, closed, bound - 1
    ):
        if must_cover & ~(cover | closed[src]):
            continue
        states[(src_bit | extra, _merge((src_bit,), groups))] = (1 + size, None)

    trail: list[dict[tuple, tuple[int, tuple | None]]] = [states]
    for k in range(1, k_final + 1):
        cheapest = min(cost for cost, _ in states.values())
        subsets = _fresh_subsets(
            window[k] & ~window[k - 1], closed, bound - cheapest
        )
        newly_required = _mask(
            i
            for i in range(n)
            if (k - 1.0 < pts[i].x <= k) or (-k <= pts[i].x < -k + 1.0)
        )
        leading = _mask(i for i in range(n) if _in_leading(pts[i].x, k))
        nxt: dict[tuple, tuple[int, tuple | None]] = {}
        for p_key, (p_cost, _) in states.items():
            p_active, p_classes = p_key
            carried = p_active & window[k]
            kept = [m for c in p_classes if (m := c & carried)]
            uncovered = newly_required & ~_cover(p_active, closed)
            # once the frontier empties, fresh actives could never reconnect
            for extra, cover, size, groups in subsets if carried else subsets[:1]:
                if p_cost + size > bound:
                    break
                if uncovered & ~cover:
                    continue
                classes = _merge(kept, groups)
                if len(classes) > 1 and any(not c & leading for c in classes):
                    continue
                key = (carried | extra, classes)
                cost = p_cost + size
                if key not in nxt or cost < nxt[key][0]:
                    nxt[key] = (cost, p_key)
        states = nxt
        trail.append(states)
        if not states:
            raise InfeasibleError("window DP ran out of states before the end")

    finals = {
        key: val for key, val in states.items() if len(key[1]) <= 1
    }
    if not finals:
        raise InfeasibleError("no connected dominating trajectory reaches the end")
    best_key = min(
        finals,
        key=lambda key: (
            finals[key][0],
            _bits(key[0]),
            [_bits(c) for c in key[1]],
        ),
    )

    # walk the trail backwards collecting every point that was ever active
    chosen = 0
    key = best_key
    for k in range(k_final, -1, -1):
        chosen |= key[0]
        parent = trail[k][key][1]
        if parent is None:
            break
        key = parent
    return check_answer(instance, make_broadcast_set(instance, _bits(chosen)))
