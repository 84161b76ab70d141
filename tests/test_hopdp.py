import math
from functools import lru_cache

import pytest

from stripcast import hopdp, model, narrow
from stripcast.hopdp import (
    _candidates,
    _cost_rows,
    _root_cost,
    _side_tables,
    _walk_table,
    build_level_dag,
    solve_hop,
)
from stripcast.io_cli import gen_bundle, gen_mirrored_bundle, gen_random_strip
from stripcast.model import (
    ContractError,
    InfeasibleError,
    InternalError,
    dist2,
    make_broadcast_set,
    make_instance,
    validate_broadcast,
)
from stripcast.narrow import _path_side, _suffix_pairs, backward_level_sets, solve_narrow
from stripcast.oracle import brute_min_broadcast
from stripcast.twohop import solve_two_hop
from test_wide import _lattice_ulp_strip_corpus

INF = math.inf


def chain(k, spacing=0.95, width=0.5):
    return make_instance(
        [(i * spacing, 0.25) for i in range(k)], width=width, warn_fragile=False
    )


def one_sided(n, w, seed):
    return gen_random_strip(
        n, w, seed, min_sep=0.05, span=max(1.0, 0.2 * n), one_sided=True
    )


def one_sided_best(inst):
    """The right side table of a one-sided instance (source leftmost), which
    holds every point, and the smaller valid set of its arborescence and the
    path-like solution at h = depth."""
    h = inst.levels.depth
    _, table = _side_tables(inst, build_level_dag(inst))
    src = inst.source
    candidates = []
    if table.value(src, 1, table.m) < INF:
        actives = {src}
        _walk_table(table, src, 1, table.m, actives)
        candidates.append(make_broadcast_set(inst, actives))
    try:
        candidates.append(solve_narrow(inst))
    except InfeasibleError:
        pass
    valid = [c for c in candidates if validate_broadcast(inst, c, hops=h).valid]
    return table, min(valid, key=lambda b: b.size)


def candidates(inst):
    """The (path -, tree +), (tree -, path +) and (tree -, tree +) sets that
    solve_hop chooses from when the (path -, path +) set breaks the bound."""
    level1 = sorted(inst.levels.levels[1])
    minus, plus = (_path_side(inst, level1, side, {}) for side in "-+")
    return _candidates(inst, build_level_dag(inst), minus, plus)


def two_sided(inst):
    """The (tree -, tree +) set."""
    return candidates(inst)[2]


def test_level_dag_chain():
    inst = chain(4)
    dag = build_level_dag(inst)
    assert dag.children[0] == (1,)
    assert dag.children[1] == (2,)
    assert dag.children[2] == (3,) and dag.parents[3] == (2,)


def test_level_dag_no_same_level_arcs():
    inst = make_instance(
        [(0.0, 0.25), (0.9, 0.1), (0.9, 0.4)], width=0.5, warn_fragile=False
    )
    dag = build_level_dag(inst)
    assert 2 not in dag.children[1] and 1 not in dag.children[2]


def test_level_dag_hop_bound(monkeypatch):
    # the DAG spans every level; solve_hop refuses t > h before building it
    assert build_level_dag(chain(5)).part.depth == 4

    def no_dag(inst):
        raise AssertionError("level DAG built although t > h")

    monkeypatch.setattr(hopdp, "build_level_dag", no_dag)
    with pytest.raises(InfeasibleError):
        solve_hop(chain(5), 3)


def two_interleaved_paths():
    # two level-disjoint routes to a single last-level point; the bottom
    # route's interior does not dominate the top route's level-2 point
    w = 0.85
    return make_instance(
        [
            (0.0, 0.5),  # 0 source
            (0.1, 0.02),  # 1 bottom level-1
            (0.8, 0.84),  # 2 top level-1
            (1.75, 0.84),  # 3 top level-2
            (0.95, 0.02),  # 4 bottom level-2
            (1.7, 0.02),  # 5 terminal level-3
        ],
        width=w,
        warn_fragile=False,
    )


def test_interleaved_paths_dag_structure():
    inst = two_interleaved_paths()
    part = inst.levels
    assert [int(part.level[i]) for i in range(6)] == [0, 1, 1, 2, 2, 3]
    dag = build_level_dag(inst)
    assert dag.parents[5] == (3, 4)
    # both routes exist
    assert 4 in dag.children[1]
    assert 3 in dag.children[2]
    assert 5 in dag.children[3] and 5 in dag.children[4]


def test_infeasible_witness_tree_is_never_returned():
    # the bottom route {0,1,4} spans the terminal but leaves point 3 uncovered;
    # the solver must return a feasible minimum of the same size instead
    inst = two_interleaved_paths()
    bad = validate_broadcast(inst, [0, 1, 4], hops=3)
    assert not bad.is_dominating
    got = solve_hop(inst, 3)
    assert validate_broadcast(inst, got, hops=3).valid
    assert got.size == brute_min_broadcast(inst, hops=3).size == 3


def test_one_sided_single_path():
    inst = chain(4)
    table, got = one_sided_best(inst)
    assert table.vertices == frozenset(range(4)) and table.terminals == (3,)
    assert got.size == 3
    assert got.active == (0, 1, 2)


def test_one_sided_requires_tight_bound(monkeypatch):
    # the tables are only built at t = h; below it solve_hop is solve_narrow
    def no_dag(inst):
        raise AssertionError("level DAG built although t < h")

    monkeypatch.setattr(hopdp, "build_level_dag", no_dag)
    inst = chain(3)
    assert solve_hop(inst, 5).active == solve_narrow(inst).active


def test_one_sided_matches_oracle():
    for seed in range(200):
        n = 4 + seed % 7
        w = (0.3, 0.6, 0.86)[seed % 3]
        inst = one_sided(n, w, seed + 6000)
        part = inst.levels
        if part.unreachable or part.depth < 1:
            continue
        table, got = one_sided_best(inst)
        want = brute_min_broadcast(inst, hops=part.depth)
        assert got.size == want.size
        assert validate_broadcast(inst, got, hops=part.depth).valid


def test_two_sided_mirror_symmetry():
    # mirror image of a one-sided instance: both sides need the full depth
    # and share only the source
    pts = [(0.0, 0.25)]
    for i in range(1, 4):
        pts.append((i * 0.95, 0.25))
        pts.append((-i * 0.95, 0.25))
    inst = make_instance(pts, width=0.5, warn_fragile=False)
    part = inst.levels
    _, one_got = one_sided_best(chain(4))
    got = two_sided(inst)
    assert got.size == 2 * one_got.size - 1
    assert got.size == brute_min_broadcast(inst, hops=part.depth).size


def test_two_sided_one_side_empty_reduces():
    inst = chain(5)
    table, one_got = one_sided_best(inst)
    two_got = two_sided(inst)
    assert two_got.size == one_got.size


def test_two_sided_counts_a_shared_child_once():
    # one level-1 point covers the last level on both sides: G(1, 1) is that
    # child alone, not one copy per side
    inst = make_instance(
        [(0.0, 0.1), (0.0, 0.8), (-0.9, 0.8), (0.9, 0.8)],
        width=0.86,
        warn_fragile=False,
    )
    part = inst.levels
    assert [part.level[i] for i in range(4)] == [0, 1, 2, 2]
    dag = build_level_dag(inst)
    left, right = _side_tables(inst, dag)
    level1 = sorted(part.levels[1])
    g, pick = _suffix_pairs(_cost_rows(left, level1), _cost_rows(right, level1))
    assert g[1][1] == 1.0 and pick[1][1] == (1, 1)
    assert two_sided(inst).active == (0, 1)
    assert brute_min_broadcast(inst, hops=2).size == 2


def test_two_sided_matches_oracle():
    # whenever the joint arborescence defines a feasible broadcast it is
    # optimal; an infeasible witness may only undershoot (the dispatcher
    # discards it and another structure type supplies the optimum)
    matched = 0
    for seed in range(200):
        n = 4 + seed % 7
        w = (0.3, 0.6, 0.86)[seed % 3]
        inst = gen_random_strip(n, w, seed + 7000, min_sep=0.05)
        part = inst.levels
        if part.unreachable or part.depth < 2:
            continue
        h = part.depth
        got = two_sided(inst)
        if got is None:
            continue
        want = brute_min_broadcast(inst, hops=h)
        if validate_broadcast(inst, got, hops=h).valid:
            assert got.size == want.size
            matched += 1
        else:
            assert got.size <= want.size
    assert matched >= 40


def joint_root(inst, part, left, right):
    """The root of the 4-tuple recurrence over (left interval, right interval)
    cells, memoized: a cell is a single-leaf source path, a branch at the
    source into two smaller cells, or one level-1 child over both intervals.
    Root-inclusive, so the source is counted once per cell."""
    src = inst.source

    @lru_cache(maxsize=None)
    def cell(i, j, k, l):
        ln_l, ln_r = j - i + 1, l - k + 1
        if ln_l == 0 and ln_r == 0:
            return 0.0
        if (ln_l, ln_r) == (1, 0):
            q = left.terminals[i - 1]
            return part.level[q] if src in left.reach[q] else INF
        if (ln_l, ln_r) == (0, 1):
            q = right.terminals[k - 1]
            return part.level[q] if src in right.reach[q] else INF
        best = INF
        for t in range(i - 1, j + 1):
            for u in range(k - 1, l + 1):
                if (t, u) in ((i - 1, k - 1), (j, l)):
                    continue
                best = min(best, cell(i, t, k, u) + cell(t + 1, j, u + 1, l) - 1.0)
        for p in part.levels[1]:
            al = _root_cost(left, p, i, j)
            ar = _root_cost(right, p, k, l)
            joint = al + ar - 1.0 if (ln_l and ln_r) else al + ar
            best = min(best, 1.0 + joint)
        return best

    return cell(1, left.m, 1, right.m)


def suffix_cell(inst, part, left, right, g, i, k):
    """G(i, k) from its own recursion, reading later cells of ``g``: the
    cheapest first pair (i..t, k..u), its unit cost a level-1 child or, on a
    single leaf, the source's DAG path."""
    src = inst.source
    if (i, k) == (left.m + 1, right.m + 1):
        return 0.0
    best = INF
    for t in range(i - 1, left.m + 1):
        for u in range(k - 1, right.m + 1):
            if (t, u) == (i - 1, k - 1):
                continue
            units = [
                _root_cost(left, p, i, t)
                + _root_cost(right, p, k, u)
                - (1.0 if (t >= i and u >= k) else 0.0)
                for p in part.levels[1]
            ]
            if (t - i, u - k) == (0, -1) and src in left.reach[left.terminals[i - 1]]:
                units.append(part.level[left.terminals[i - 1]] - 1.0)
            if (t - i, u - k) == (-1, 0) and src in right.reach[right.terminals[k - 1]]:
                units.append(part.level[right.terminals[k - 1]] - 1.0)
            best = min(best, min(units) + g[t + 1][u + 1])
    return best


def test_suffix_pair_table_recurrence_at_benchmark_scale():
    # hop-dense-shaped draws (n = 50 on a strip of length 3, depth 2) with at
    # least 5 last-level points on each side; every G cell matches its own
    # recursion, and the root matches the 4-tuple recurrence
    cells = 0
    for seed in (1, 2, 4, 20):
        inst = gen_random_strip(50, 0.86, seed, min_sep=0.05, span=1.5)
        part = inst.levels
        assert not part.unreachable and part.depth == 2
        dag = build_level_dag(inst)
        left, right = _side_tables(inst, dag)
        assert left.m >= 5 and right.m >= 5
        level1 = sorted(part.levels[1])
        g, _ = _suffix_pairs(_cost_rows(left, level1), _cost_rows(right, level1))
        for i in range(1, left.m + 2):
            for k in range(1, right.m + 2):
                want = suffix_cell(inst, part, left, right, g, i, k)
                assert g[i][k] == want, (seed, i, k)
                cells += 1
        root = 1.0 + g[1][1]
        assert root < INF
        assert root == joint_root(inst, part, left, right)
        assert two_sided(inst).size <= root
    assert cells >= 400


@pytest.mark.parametrize(
    "strings, hops", [(2, 3), (2, 4), (3, 3), (3, 4), (4, 5), (2, 8), (3, 10)]
)
def test_mirrored_bundle_two_sided_meets_the_formula(strings, hops):
    # both sides need one full row per string: 1 + 2 * strings * (hops - 1)
    inst = gen_mirrored_bundle(strings, hops)
    assert inst.n == 1 + 2 * strings * (2 * hops - 1)
    assert inst.levels.depth == hops
    want = 1 + 2 * strings * (hops - 1)
    got = two_sided(inst)
    assert validate_broadcast(inst, got, hops=hops).valid
    assert got.size == want
    assert solve_hop(inst, hops).size == want
    if inst.n == 21:
        oracle = brute_min_broadcast(inst, hops=hops, max_n=21)
        assert oracle.size == want == 9


def _deep_random_strips():
    """Connected random narrow strips of hop depth >= 3, with their depth."""
    for seed in range(40000, 40600):
        n = 6 + seed % 11
        w = (0.3, 0.6, 0.86)[seed % 3]
        span = 1.0 + (seed // 3 % 5) * 0.5
        inst = gen_random_strip(n, w, seed, min_sep=0.05, span=span)
        part = inst.levels
        if part.unreachable or part.depth < 3:
            continue
        yield seed, inst, part.depth


def test_solve_hop_matches_oracle_at_depth_three_to_five():
    # deeper strips, where the two-sided structure can return a set that is
    # not a broadcast; solve_hop must drop it and still find the optimum
    kept = invalid_two_sided = 0
    for seed, inst, h in _deep_random_strips():
        kept += 1
        got = solve_hop(inst, h)
        assert validate_broadcast(inst, got, hops=h).valid
        assert got.size == brute_min_broadcast(inst, hops=h).size, seed
        if not validate_broadcast(inst, two_sided(inst), hops=h).valid:
            invalid_two_sided += 1
    assert kept >= 100
    assert invalid_two_sided >= 30


def test_smallest_valid_candidate_is_optimal_without_the_certificate():
    # the pairings alone, with the narrow set never consulted, reach the
    # oracle's optimum on every deep draw
    kept = 0
    for seed, inst, h in _deep_random_strips():
        kept += 1
        valid = [
            c
            for c in candidates(inst)
            if c is not None and validate_broadcast(inst, c, hops=h).valid
        ]
        assert valid, seed
        best = min(c.size for c in valid)
        assert best == brute_min_broadcast(inst, hops=h).size, seed
    assert kept >= 100


def test_path_side_shares_an_optimal_tree_child():
    # a path entry that is an optimal child of the other side's tree is
    # counted once: each (path, tree) set is the tree plus the path, less one
    inst = gen_random_strip(24, 0.6, 41818, min_sep=0.05, span=3.0)
    h = inst.levels.depth
    assert h == 5
    left, right = _side_tables(inst, build_level_dag(inst))
    path_tree, tree_path, _ = candidates(inst)
    for got, table, path_side in ((path_tree, right, "-"), (tree_path, left, "+")):
        tree = 1 + table.value(inst.source, 1, table.m)
        path = backward_level_sets(inst, path_side).hops
        assert got.size == tree + path - 1 == 8
        assert validate_broadcast(inst, got, hops=h).valid


def test_path_side_with_an_empty_tree_side_is_the_optimum():
    # a lattice strip with its last level on the left only: both pairings
    # with a left tree are invalid, and the left path beside a right tree
    # with no terminal is the oracle's optimum
    corpus = _lattice_ulp_strip_corpus(
        seed=7, trials=6000, widths=(0.3, 0.5, math.sqrt(3) / 2)
    )
    coords, w = corpus[5051]
    inst = make_instance(coords, width=w, warn_fragile=False)
    assert inst.levels.depth == 3
    path_tree, tree_path, tree_tree = candidates(inst)
    assert path_tree.active == (0, 6, 7)
    assert validate_broadcast(inst, path_tree, hops=3).valid
    for other in (tree_path, tree_tree):
        assert not validate_broadcast(inst, other, hops=3).valid
    assert brute_min_broadcast(inst, hops=3).active == (0, 6, 7)


def test_no_two_hop_set_at_depth_three_to_five():
    # a level-3 point lies outside every disk centered in the source disk,
    # so solve_hop runs no 2-hop candidate at t = h >= 3
    kept = 0
    for seed, inst, h in _deep_random_strips():
        kept += 1
        with pytest.raises(InfeasibleError):
            solve_two_hop(inst)
    assert kept >= 100


def test_solve_hop_at_depth_two_is_the_two_hop_set(monkeypatch):
    # hop-dense-shaped draws: at t = h = 2 solve_hop returns the exact 2-hop
    # set, with neither a path side nor a level DAG built, and no other
    # candidate structure finds a smaller valid set
    insts = []
    for n, w, seed in ((40, 0.86, 3), (50, 0.6, 5), (60, 0.86, 4), (45, 0.3, 5)):
        inst = gen_random_strip(n, w, seed, min_sep=0.05, span=1.5)
        part = inst.levels
        assert not part.unreachable and part.depth == 2
        got = solve_hop(inst, 2)
        assert got.active == solve_two_hop(inst).active
        for other in candidates(inst):
            if other is not None and validate_broadcast(inst, other, hops=2).valid:
                assert other.size >= got.size, (seed, other.active)
        insts.append(inst)

    def refuse(*args):
        raise AssertionError("path or tree sides built at t = h = 2")

    monkeypatch.setattr(narrow, "backward_level_sets", refuse)
    monkeypatch.setattr(hopdp, "build_level_dag", refuse)
    for inst in insts:
        assert solve_hop(inst, 2).active == solve_two_hop(inst).active


def test_solve_hop_solves_large_depth_two_strip():
    # n = 401 at t = h = 2 goes to the 2-hop solver, not the level DAG
    inst = gen_random_strip(401, 0.6, 0, min_sep=0.01, span=1.1)
    assert inst.levels.depth == 2
    got = solve_hop(inst, 2)
    assert got.size == 3
    assert validate_broadcast(inst, got, hops=2).valid


def test_solve_hop_fragile_lattice_every_depth():
    mismatches = []
    seen = {"depth 1": 0, "depth 2": 0, "depth >= 3": 0, "ulp moved": 0}
    narrow_widths = (0.5, 0.75, math.sqrt(3) / 2)
    for coords, w in _lattice_ulp_strip_corpus(widths=narrow_widths):
        inst = make_instance(coords, width=w, warn_fragile=False)
        part = inst.levels
        if part.unreachable or part.depth == 0:
            continue
        h = part.depth
        seen[f"depth {h}" if h <= 2 else "depth >= 3"] += 1
        seen["ulp moved"] += any(x != 0.25 * round(4 * x) for x, _ in coords)
        want = brute_min_broadcast(inst, hops=h).size
        try:
            got = solve_hop(inst, h)
        except (InfeasibleError, ContractError):
            mismatches.append((coords, w))
            continue
        if got.size != want or not validate_broadcast(inst, got, hops=h).valid:
            mismatches.append((coords, w))
    assert mismatches == []
    assert seen["depth 2"] >= 200 and seen["depth >= 3"] >= 400, seen
    assert all(seen.values()), seen


def test_solve_hop_computes_covering_sets_at_most_once(monkeypatch):
    # every pairing at t = h >= 3 shares the instance's covering sets and
    # levels each path side backwards once, also on the mirrored bundles,
    # where the (path -, path +) set breaks the bound and the tables run; the
    # 2-hop path at t = h = 2 needs neither
    calls, sides = [], []
    covering_sets = model._covering_sets
    backward = narrow.backward_level_sets

    def counted(inst):
        calls.append(inst)
        return covering_sets(inst)

    def counted_backward(inst, side):
        sides.append(side)
        return backward(inst, side)

    monkeypatch.setattr(model, "_covering_sets", counted)
    monkeypatch.setattr(narrow, "backward_level_sets", counted_backward)
    bundles = [
        ((s, h), gen_mirrored_bundle(s, h), h) for s, h in ((2, 3), (3, 10))
    ]
    for seed, inst, h in [*_deep_random_strips(), *bundles]:
        calls.clear()
        sides.clear()
        solve_hop(inst, h)
        assert len(calls) == 1, seed
        assert sorted(sides) == sorted(set(sides)), seed
    inst = gen_random_strip(40, 0.86, 3, min_sep=0.05, span=1.5)
    assert inst.levels.depth == 2
    calls.clear()
    sides.clear()
    solve_hop(inst, 2)
    assert calls == sides == []


def test_solve_hop_checks_the_narrow_set_below_the_depth(monkeypatch):
    # at t < h the unbounded optimum is returned only once it meets h; a set
    # needing h + 1 hops is an internal error, not an answer
    inst = gen_random_strip(10, 0.86, 60089, min_sep=0.05, span=2.0)
    assert inst.levels.depth == 2
    detour = make_broadcast_set(inst, [0, 2, 5, 6])
    report = validate_broadcast(inst, detour)
    assert report.is_dominating and report.is_connected
    assert report.max_hops_needed == 4
    monkeypatch.setattr(narrow, "solve_narrow", lambda inst: detour)
    with pytest.raises(InternalError, match="max_hops=4, bound 3"):
        solve_hop(inst, 3)


def test_bundle_of_403_points_solves_at_the_formula():
    # on a bundle the narrow set breaks the hop bound, so the DP runs; its
    # tables grow with the last level (2 points here), not with n
    inst = gen_bundle(2, 101)
    assert inst.n == 403
    part = inst.levels
    assert not part.unreachable and part.depth == 101
    assert not validate_broadcast(inst, solve_narrow(inst), hops=101).valid
    got = solve_hop(inst, 101)
    assert got.size == 1 + 2 * (101 - 1) == 201
    assert validate_broadcast(inst, got, hops=101).valid


def test_narrow_set_within_the_bound_is_returned_before_the_dp(monkeypatch):
    # the narrow set meets the bound, so no level DAG is built
    def no_dag(inst):
        raise AssertionError("level DAG built although the narrow set is optimal")

    monkeypatch.setattr(hopdp, "build_level_dag", no_dag)
    inst = gen_random_strip(500, 0.6, 70000, min_sep=0.05, span=20)
    part = inst.levels
    assert not part.unreachable and part.depth >= 3
    got = solve_hop(inst, part.depth)
    assert got == solve_narrow(inst)
    assert validate_broadcast(inst, got, hops=part.depth).valid


def test_solve_hop_dispatch_bounds():
    inst = chain(4)
    with pytest.raises(InfeasibleError) as err:
        solve_hop(inst, 2)
    assert "t=3" in str(err.value) and "h=2" in str(err.value)
    relaxed = solve_hop(inst, 5)
    assert relaxed.size == solve_narrow(inst).size


def test_solve_hop_no_bound_equals_narrow():
    for seed in range(40):
        inst = gen_random_strip(4 + seed % 7, 0.6, seed + 7700, min_sep=0.05)
        try:
            a = solve_hop(inst)
        except InfeasibleError:
            continue
        assert a.size == solve_narrow(inst).size


def test_solve_hop_monotone_in_h():
    for seed in range(40):
        inst = gen_random_strip(4 + seed % 6, 0.6, seed + 8800, min_sep=0.05)
        part = inst.levels
        if part.unreachable:
            continue
        sizes = []
        for h in range(max(1, part.depth), part.depth + 3):
            sizes.append(solve_hop(inst, h).size)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_solve_hop_matches_oracle():
    for seed in range(150):
        n = 4 + seed % 7
        w = (0.3, 0.6, 0.86)[seed % 3]
        h = 2 + seed % 4
        inst = gen_random_strip(n, w, seed + 9900, min_sep=0.05)
        try:
            got = solve_hop(inst, h)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                brute_min_broadcast(inst, hops=h)
            continue
        want = brute_min_broadcast(inst, hops=h)
        assert got.size == want.size
        assert validate_broadcast(inst, got, hops=h).valid


def test_active_level_spread_one_sided():
    # one-sided optimum: actives of a common level stay within 1/2 in x
    for seed in range(60):
        n = 4 + seed % 7
        inst = one_sided(n, 0.6, seed + 11000)
        part = inst.levels
        if part.unreachable or part.depth < 2:
            continue
        h = part.depth
        got = solve_hop(inst, h)
        pts = inst.points
        for lvl in range(1, h):
            xs = [pts[i].x for i in got.active if part.level[i] == lvl]
            if len(xs) >= 2:
                assert max(xs) - min(xs) <= 0.5 + 1e-9


def test_active_levels_reachable_tightly():
    # each active point at level i is reached in exactly i hops via actives
    from collections import deque

    for seed in range(60):
        n = 4 + seed % 7
        w = (0.3, 0.6)[seed % 2]
        inst = gen_random_strip(n, w, seed + 12000, min_sep=0.05)
        part = inst.levels
        if part.unreachable:
            continue
        h = part.depth
        if h < 1:
            continue
        try:
            got = solve_hop(inst, h)
        except InfeasibleError:
            continue
        graph = inst.graph
        active = set(got.active)
        dist = {inst.source: 0}
        queue = deque([inst.source])
        while queue:
            u = queue.popleft()
            for v in graph.adj[u]:
                if v in active and v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for i in active:
            assert dist[i] == part.level[i]


def build_pred_arborescence(instance, active):
    """Arcs (pred(p), p) of the boundary-exit predecessor construction.

    The construction is per side: a point at level >= 2 takes its predecessor
    among the same-side active points of the previous level (level-1 points
    of both signs feed level 2), through the exit point of the outward
    horizontal ray from p; ties go to the highest y, then the smallest index.
    Raises ContractError naming the point when no eligible active disk covers
    it (possible on non-optimal inputs).
    """
    part = instance.levels
    pts = instance.points
    act = set(active.active)
    t = part.depth
    arcs = []
    nodes = sorted(act | set(part.levels[t]))
    for p in nodes:
        if p == instance.source:
            continue
        lvl = part.level[p]
        if lvl == INF or lvl == 0:
            continue
        side = "+" if pts[p].x >= 0.0 else "-"
        sign = 1.0 if side == "+" else -1.0
        side_levels = part.plus if side == "+" else part.minus
        prev = [
            u
            for u in part.levels[int(lvl) - 1]
            if (u in act or u == instance.source)
            and (int(lvl) - 1 <= 1 or u in side_levels[int(lvl) - 1])
        ]
        if not any(dist2(pts[u], pts[p]) <= 1.0 for u in prev):
            raise ContractError(
                f"predecessor undefined for point {p}: no active disk on level "
                f"{int(lvl) - 1} covers it"
            )
        y = pts[p].y
        reach_x = pts[p].x * sign
        grown = True
        while grown:
            grown = False
            for u in prev:
                dy = pts[u].y - y
                if abs(dy) > 1.0:
                    continue
                g = math.sqrt(max(0.0, 1.0 - dy * dy))
                lo = pts[u].x * sign - g
                hi = pts[u].x * sign + g
                if lo <= reach_x <= hi and hi > reach_x:
                    reach_x = hi
                    grown = True
        owners = []
        for u in prev:
            dy = pts[u].y - y
            if abs(dy) > 1.0:
                continue
            g = math.sqrt(max(0.0, 1.0 - dy * dy))
            if pts[u].x * sign + g == reach_x:
                owners.append(u)
        owner = max(owners, key=lambda u: (pts[u].y, -u))
        arcs.append((owner, p))
    return arcs


def arborescence_is_nice(instance, arcs):
    """Same-side arcs between the same two levels must preserve y-order."""
    part = instance.levels
    pts = instance.points
    by_group = {}
    for u, v in arcs:
        side = "+" if pts[v].x >= 0.0 else "-"
        by_group.setdefault((side, part.level[v]), []).append((u, v))
    for group in by_group.values():
        for u, v in group:
            for a, b in group:
                if u == a:
                    continue
                if pts[v].y < pts[b].y and not (pts[u].y < pts[a].y):
                    return False, ((u, v), (a, b))
    return True, None


def test_pred_arborescence_single_path():
    inst = chain(4)
    opt = brute_min_broadcast(inst, hops=3)
    arcs = build_pred_arborescence(inst, opt)
    assert sorted(arcs) == [(0, 1), (1, 2), (2, 3)]
    ok, _ = arborescence_is_nice(inst, arcs)
    assert ok


def test_pred_arborescence_nice_on_oracle_optima():
    checked = 0
    for seed in range(200):
        n = 4 + seed % 7
        w = (0.3, 0.6, 0.86)[seed % 3]
        inst = gen_random_strip(n, w, seed + 13000, min_sep=0.05)
        part = inst.levels
        if part.unreachable or part.depth < 2:
            continue
        try:
            opt = brute_min_broadcast(inst, hops=part.depth)
        except InfeasibleError:
            continue
        arcs = build_pred_arborescence(inst, opt)
        ok, bad = arborescence_is_nice(inst, arcs)
        assert ok, (seed, bad)
        checked += 1
    assert checked >= 50


def test_pred_undefined_reports_point():
    # beyond-depth hop budget: a valid set may leave a level-2 point with no
    # active level-1 cover, and the helper must name it
    w = 0.8
    inst = make_instance(
        [
            (0.0, 0.4),
            (0.9, 0.75),  # 1: level 1, active
            (0.9, 0.05),  # 2: level 1, inactive
            (1.8, 0.75),  # 3: level 2, active
            (1.8, 0.05),  # 4: level 2, covered only by 2 on level 1
        ],
        width=w,
        warn_fragile=False,
    )
    report = validate_broadcast(inst, [0, 1, 3], hops=3)
    assert report.valid
    with pytest.raises(ContractError) as err:
        build_pred_arborescence(inst, __import__("stripcast").make_broadcast_set(inst, [0, 1, 3]))
    assert "point 4" in str(err.value)
