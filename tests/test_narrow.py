import math

import pytest

from stripcast.io_cli import gen_random_strip
from stripcast.model import (
    ContractError,
    CoveringSets,
    InfeasibleError,
    dist2,
    make_instance,
    outside_source_disk,
    validate_broadcast,
)
from stripcast.narrow import (
    backward_level_sets,
    find_bidirectional,
    find_small,
    solve_narrow,
    solve_narrow_detailed,
)
from stripcast.oracle import brute_min_broadcast
from test_wide import _lattice_ulp_strip_corpus

NARROW_WIDTHS = (0.5, 0.75, math.sqrt(3) / 2)


def chain(k, spacing=1.0, width=0.5):
    return make_instance(
        [(i * spacing, 0.25) for i in range(k)], width=width, warn_fragile=False
    )


def covering_sets_oracle(instance):
    """Definitional O(n^2) scan by dist2 (reference for StripInstance.covering)."""
    pts = instance.points
    outside = outside_source_disk(instance)
    if not outside:
        inside = tuple(i for i in range(instance.n))
        return CoveringSets(inside, inside, ())
    q_plus = tuple(
        i
        for i in range(instance.n)
        if all(
            dist2(pts[i], pts[j]) <= 1.0
            for j in outside
            if pts[j].x > pts[i].x
        )
    )
    q_minus = tuple(
        i
        for i in range(instance.n)
        if all(
            dist2(pts[i], pts[j]) <= 1.0
            for j in outside
            if pts[j].x < pts[i].x
        )
    )
    return CoveringSets(q_plus, q_minus, tuple(outside))


def narrow_lattice_instances():
    return [
        make_instance(coords, width=w, warn_fragile=False)
        for coords, w in _lattice_ulp_strip_corpus(widths=NARROW_WIDTHS)
    ]


def test_covering_sets_chain():
    cs = chain(4).covering
    assert cs.outside == (2, 3)
    assert set(cs.q_plus) >= {2, 3}
    assert 0 not in cs.q_plus and 1 not in cs.q_plus
    assert set(cs.q_minus) >= {0, 1}


def test_covering_sets_all_inside():
    inst = make_instance(
        [(0.0, 0.25), (0.4, 0.2), (-0.3, 0.1)], width=0.5, warn_fragile=False
    )
    cs = inst.covering
    assert cs.outside == ()
    assert cs.q_plus == cs.q_minus == (0, 1, 2)


def test_covering_sets_match_definitional_scan():
    # random strips plus the narrow lattice-plus-ulp draws, whose points sit
    # within an ulp of the half-unit and unit x-gaps
    corpus = narrow_lattice_instances()
    for seed in range(100):
        n = 4 + seed % 9
        w = (0.3, 0.6, 0.86)[seed % 3]
        corpus.append(gen_random_strip(n, w, seed + 200, min_sep=0.05))
    mismatches = [
        inst.points for inst in corpus if inst.covering != covering_sets_oracle(inst)
    ]
    assert mismatches == []


def test_covering_rejects_wide():
    inst = make_instance([(0.0, 0.3)], width=1.2)
    with pytest.raises(ContractError):
        inst.covering


def test_find_small_single_point():
    assert find_small(make_instance([(0.0, 0.25)], width=0.5)).active == (0,)


def test_find_small_two_disks():
    inst = make_instance(
        [(0.0, 0.0), (0.5, 0.0), (1.4, 0.0)], width=0.5, warn_fragile=False
    )
    got = find_small(inst)
    assert got is not None and got.active == (0, 1)


def test_find_small_absent_on_long_chain():
    inst = chain(5, spacing=0.95)
    assert find_small(inst) is None
    assert brute_min_broadcast(inst).size == 4


def test_bidirectional_none_without_outside_points():
    inst = make_instance([(0.0, 0.25), (0.3, 0.3)], width=0.5, warn_fragile=False)
    assert find_bidirectional(inst) is None


def bidirectional_instance():
    # two outside points per side split by y; exactly one core pair works
    w = 0.86
    return make_instance(
        [
            (0.0, 0.43),  # source
            (0.0, 0.02),  # covers both low points
            (0.0, 0.84),  # covers both high points
            (-0.95, 0.02),
            (0.95, 0.02),
            (-0.95, 0.84),
            (0.95, 0.84),
        ],
        width=w,
        warn_fragile=False,
    )


def test_bidirectional_crafted_instance():
    inst = bidirectional_instance()
    assert find_small(inst) is None
    got = find_bidirectional(inst)
    assert got is not None
    assert got.active == (0, 1, 2)
    report = validate_broadcast(inst, got)
    assert report.is_dominating and report.is_connected


def test_bidirectional_star_outside_the_old_core():
    # both centers lie 0.7 from the source, outside the x-window |x| <= 1/2
    inst = make_instance(
        [(0.0, 0.15), (0.7, 0.15), (-0.7, 0.15), (1.6, 0.15), (-1.6, 0.15)],
        width=0.3,
        warn_fragile=False,
    )
    assert find_small(inst) is None
    got = find_bidirectional(inst)
    assert got is not None and got.active == (0, 1, 2)
    result, info = solve_narrow_detailed(inst)
    assert info["kind"] == "bidirectional" and result == got


def test_bidirectional_centers_stay_in_core():
    # the centers are neighbours of the source and the star is valid
    hits = 0
    for seed in range(150):
        n = 4 + seed % 9
        w = (0.3, 0.6, 0.86)[seed % 3]
        inst = gen_random_strip(n, w, seed + 700, min_sep=0.05)
        if find_small(inst) is not None:
            continue
        got = find_bidirectional(inst)
        if got is None:
            continue
        hits += 1
        assert got.size == 3
        near = inst.graph.adj[inst.source]
        assert all(i in near for i in got.active if i != inst.source)
        report = validate_broadcast(inst, got)
        assert report.is_dominating and report.is_connected
    assert hits > 0


def test_bidirectional_agrees_with_pair_scan():
    for seed in range(100):
        n = 4 + seed % 9
        w = (0.3, 0.6, 0.86)[seed % 3]
        inst = gen_random_strip(n, w, seed + 1000, min_sep=0.05)
        if find_small(inst) is not None:
            continue
        pts = inst.points
        src = inst.source_point
        outside = [i for i in range(inst.n) if dist2(pts[i], src) > 1.0]
        near = [
            i
            for i in range(inst.n)
            if i != inst.source and dist2(pts[i], src) <= 1.0
        ]
        want = any(
            all(
                dist2(pts[q], pts[a]) <= 1.0 or dist2(pts[q], pts[b]) <= 1.0
                for q in outside
            )
            for a in near
            for b in near
            if a != b
        )
        assert (find_bidirectional(inst) is not None) == want


def test_backward_levels_chain():
    inst = chain(4)
    back = backward_level_sets(inst, "+")
    assert back.levels[0] == (2, 3)
    assert back.levels[1] == (1,)
    assert back.reached and back.hops == 2


def test_backward_levels_immediate_stop():
    # a covering point already inside the source disk
    inst = make_instance(
        [(0.0, 0.25), (0.9, 0.25), (1.7, 0.25)], width=0.5, warn_fragile=False
    )
    assert 1 in inst.covering.q_plus
    back = backward_level_sets(inst, "+")
    assert back.hops == 1 and back.reached


def test_backward_levels_disconnected_side():
    inst = make_instance(
        [(0.0, 0.25), (5.0, 0.25)], width=0.5, warn_fragile=False
    )
    back = backward_level_sets(inst, "+")
    assert not back.reached


def _bfs_backward_levels(inst, first):
    # multi-source BFS over all points in inst.graph, stopped at the
    # first level with a point in the closed source disk
    adj = inst.graph.adj
    sp = inst.source_point
    levels = [tuple(first)]
    seen = set(first)
    while True:
        cur = levels[-1]
        if any(dist2(inst.points[i], sp) <= 1.0 for i in cur):
            return tuple(levels), True
        if not cur:
            return tuple(levels[:-1]), False
        nxt = tuple(
            j
            for j in range(inst.n)
            if j not in seen and any(j in adj[i] for i in cur)
        )
        seen.update(nxt)
        levels.append(nxt)


def test_backward_levels_are_graph_bfs():
    corpus = narrow_lattice_instances()
    for seed in range(300):
        w = (0.3, 0.6, 0.86)[seed % 3]
        span = 1.0 + seed % 3
        corpus.append(
            gen_random_strip(6 + seed % 20, w, seed + 5200, min_sep=0.01, span=span)
        )
    mismatches = []
    seen = {"reached": 0, "unreached": 0, "levels >= 3": 0}
    for inst in corpus:
        cs = inst.covering
        for side, sign, first in (("+", 1.0, cs.q_plus), ("-", -1.0, cs.q_minus)):
            if not any(inst.points[i].x * sign > 0.0 for i in cs.outside):
                continue
            want = _bfs_backward_levels(inst, first)
            back = backward_level_sets(inst, side)
            if (back.levels, back.reached) != want:
                mismatches.append((inst.points, side))
            seen["reached" if want[1] else "unreached"] += 1
            seen["levels >= 3"] += len(want[0]) >= 3
    assert mismatches == []
    assert all(seen.values()), seen


def test_solve_narrow_chain_sizes():
    for k in (3, 4, 5, 6):
        inst = chain(k + 1, spacing=0.95)
        got = solve_narrow(inst)
        assert got.size == k
        assert got.active == tuple(range(k))


def test_solve_narrow_single_disk():
    inst = make_instance(
        [(0.0, 0.25), (0.5, 0.3), (-0.6, 0.2)], width=0.5, warn_fragile=False
    )
    assert solve_narrow(inst).active == (0,)


def test_solve_narrow_disconnected():
    inst = make_instance([(0.0, 0.25), (9.0, 0.25)], width=0.5, warn_fragile=False)
    with pytest.raises(InfeasibleError) as err:
        solve_narrow(inst)
    assert err.value.witness == (1,)


def test_solve_narrow_matches_oracle():
    for seed in range(120):
        n = 4 + seed % 9
        w = (0.3, 0.6, 0.86)[seed % 3]
        inst = gen_random_strip(n, w, seed + 2500, min_sep=0.05)
        try:
            got = solve_narrow(inst)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                brute_min_broadcast(inst)
            continue
        want = brute_min_broadcast(inst)
        assert got.size == want.size
        report = validate_broadcast(inst, got)
        assert report.is_dominating and report.is_connected


def test_solve_narrow_fragile_lattice_matches_oracle():
    # the narrow lattice-plus-ulp draws: every connected one is solved
    # optimally; reading inst.levels on every draw shows that the levels'
    # overlap check raises ContractError on none of them
    mismatches = []
    connected = 0
    for inst in narrow_lattice_instances():
        if inst.levels.unreachable:
            continue
        connected += 1
        want = brute_min_broadcast(inst).size
        try:
            got = solve_narrow(inst)
        except InfeasibleError:
            mismatches.append(inst.points)
            continue
        if got.size != want or not validate_broadcast(inst, got).valid:
            mismatches.append(inst.points)
    assert mismatches == []
    assert connected >= 800


def test_solve_narrow_shared_second_vertex_shape():
    # symmetric two-sided instance where both paths share their second vertex
    inst = make_instance(
        [
            (0.0, 0.25),
            (0.05, 0.3),
            (0.95, 0.25),
            (-0.9, 0.25),
            (1.8, 0.25),
            (-1.75, 0.25),
        ],
        width=0.5,
        warn_fragile=False,
    )
    got, info = solve_narrow_detailed(inst)
    report = validate_broadcast(inst, got)
    assert report.is_dominating and report.is_connected
    assert got.size == brute_min_broadcast(inst).size


def test_detailed_path_witnesses_are_paths():
    graph_checked = 0
    for seed in range(80):
        n = 5 + seed % 8
        inst = gen_random_strip(n, 0.6, seed + 3300, min_sep=0.05)
        try:
            got, info = solve_narrow_detailed(inst)
        except InfeasibleError:
            continue
        if info["kind"] != "path":
            continue
        graph_checked += 1
        pts = inst.points
        for side, path in info["paths"].items():
            assert path[0] == inst.source
            for a, b in zip(path, path[1:]):
                assert dist2(pts[a], pts[b]) <= 1.0
            assert set(path) <= set(got.active)
    assert graph_checked > 0
