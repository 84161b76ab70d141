import math
import random

import pytest

from stripcast.io_cli import gen_random_strip
from stripcast.model import (
    ContractError,
    InfeasibleError,
    TractabilityError,
    make_instance,
    validate_broadcast,
)
from stripcast.narrow import solve_narrow
from stripcast.oracle import brute_min_broadcast
from stripcast.wide import _tree_broadcast_set, mu, solve_wide
from test_oracle import per_source


def test_mu_values():
    assert mu(math.sqrt(3) / 2) == 30
    assert mu(math.sqrt(3)) == 46
    assert mu(0.01) == 14
    with pytest.raises(ContractError):
        mu(0.0)


def test_solve_wide_single_point():
    inst = make_instance([(0.0, 0.5)], width=1.5)
    assert solve_wide(inst).active == (0,)


def test_solve_wide_requires_finite_width():
    inst = make_instance([(0.0, 0.0), (0.5, 0.0)], warn_fragile=False)
    with pytest.raises(ContractError):
        solve_wide(inst)


def test_solve_wide_disconnected():
    inst = make_instance([(0.0, 0.5), (8.0, 0.5)], width=1.0, warn_fragile=False)
    with pytest.raises(InfeasibleError):
        solve_wide(inst)


def test_solve_wide_candidate_cap():
    pts = [(0.01 * i, 0.5) for i in range(20)]
    inst = make_instance(pts, width=1.0, warn_fragile=False)
    with pytest.raises(TractabilityError):
        solve_wide(inst)


def test_solve_wide_matches_oracle():
    solved = 0
    for seed in range(90):
        n = 4 + seed % 9
        w = (1.0, 1.5, 2.0)[seed % 3]
        inst = gen_random_strip(n, w, seed + 50_000, min_sep=0.05, span=max(1.0, 0.2 * n))
        try:
            got = solve_wide(inst)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                brute_min_broadcast(inst)
            continue
        want = brute_min_broadcast(inst)
        assert got.size == want.size
        report = validate_broadcast(inst, got)
        assert report.is_dominating and report.is_connected
        solved += 1
    assert solved > 30


def test_solve_wide_agrees_with_narrow():
    for seed in range(60):
        n = 4 + seed % 9
        w = (0.3, 0.6, 0.86)[seed % 3]
        inst = gen_random_strip(n, w, seed + 60_000, min_sep=0.05)
        try:
            a = solve_wide(inst)
        except InfeasibleError:
            continue
        assert a.size == solve_narrow(inst).size


def test_solve_wide_agrees_with_narrow_beyond_the_oracle():
    solved = 0
    for s in range(30):
        n = 20 + s % 11
        w = (0.3, 0.6, 0.86)[s % 3]
        inst = gen_random_strip(n, w, 500_000 + s, min_sep=0.05, span=n / 12)
        try:
            got = solve_wide(inst)
        except (InfeasibleError, TractabilityError):
            continue
        assert got.size == solve_narrow(inst).size
        solved += 1
    assert solved >= 26


@pytest.mark.parametrize(
    "seed, active", [(900, (0, 1, 2, 4)), (902, (0, 1, 2, 9, 10))]
)
def test_solve_wide_n24_strips(seed, active):
    # the unpruned fill took 85-100 s on each of these
    inst = gen_random_strip(24, 1.0, seed, min_sep=0.05, span=2)
    assert solve_wide(inst).active == active


def _assert_upper_bound(inst, optimum_size):
    bound = _tree_broadcast_set(inst)
    report = validate_broadcast(inst, bound)
    assert inst.source in bound
    assert report.is_dominating and report.is_connected
    assert bound.size >= optimum_size


def test_tree_broadcast_set_bounds_the_optimum():
    checked = 0
    for seed in range(216):
        n = 4 + seed % 13
        w = (0.3, 0.6, 0.86, 1.0, 1.5, 2.0)[seed % 6]
        inst = gen_random_strip(n, w, seed + 85_000, min_sep=0.05, span=max(1.0, n / 8))
        try:
            want = brute_min_broadcast(inst).size
        except InfeasibleError:
            continue
        _assert_upper_bound(inst, want)
        checked += 1
    assert checked > 150


def test_wide_monotone_under_added_covered_point():
    import random

    rng = random.Random(12)
    for seed in range(25):
        inst = gen_random_strip(6, 1.2, seed + 70_000, min_sep=0.05)
        try:
            base = solve_wide(inst)
        except InfeasibleError:
            continue
        # drop a new point inside an existing active disk
        anchor = inst.points[base.active[rng.randrange(base.size)]]
        new = (anchor.x + 0.3, min(inst.width, max(0.0, anchor.y + 0.1)))
        pts = [(p.x, p.y) for p in inst.points] + [new]
        grown = make_instance(pts, width=inst.width, warn_fragile=False)
        try:
            bigger = solve_wide(grown)
        except InfeasibleError:
            continue
        assert bigger.size <= base.size + 1


def test_density_cap_on_oracle_optima():
    for seed in range(40):
        n = 4 + seed % 9
        w = (1.0, 1.5, 2.0)[seed % 3]
        inst = gen_random_strip(n, w, seed + 80_000, min_sep=0.05, span=max(1.0, 0.2 * n))
        try:
            opt = brute_min_broadcast(inst)
        except InfeasibleError:
            continue
        cap = mu(inst.width)
        pts = inst.points
        span = math.ceil(max(abs(p.x) for p in pts))
        for k in range(span + 1):
            load = sum(1 for i in opt.active if k - 1 <= pts[i].x <= k + 1)
            assert load <= cap
            load = sum(1 for i in opt.active if -k - 1 <= pts[i].x <= -k + 1)
            assert load <= cap


def test_cds_triangle():
    inst = make_instance(
        [(0.0, 0.2), (0.5, 0.2), (0.25, 0.6)], width=1.0, warn_fragile=False
    )
    assert [solve_wide(c).size for c in per_source(inst)] == [1, 1, 1]


def test_cds_path_of_five():
    inst = make_instance(
        [(i * 0.95, 0.5) for i in range(5)], width=1.0, warn_fragile=False
    )
    assert [solve_wide(c).size for c in per_source(inst)] == [4, 3, 3, 3, 4]


def test_cds_matches_oracle():
    # every source's broadcast, so also their minimum, the connected
    # dominating set
    for seed in range(30):
        n = 4 + seed % 7
        w = (1.0, 1.5)[seed % 2]
        inst = gen_random_strip(n, w, seed + 90_000, min_sep=0.05, span=max(1.0, 0.2 * n))
        for copy in per_source(inst):
            try:
                got = solve_wide(copy)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    brute_min_broadcast(copy)
                continue
            assert got.size == brute_min_broadcast(copy).size


def _lattice_ulp_strip_corpus(
    seed=0, trials=3000, widths=(math.sqrt(3) / 2, 1.0, 1.5)
):
    """Strip draws with x on the 0.25 lattice in [-2, 2], about 40% moved one
    ulp either way, so many points sit within an ulp of a window edge or of
    the unit radius; y in {0, w/2, w}; the source at the origin."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(trials):
        w = rng.choice(widths)
        ys = (0.0, w / 2, w)
        coords = [(0.0, rng.choice(ys))]
        for _ in range(rng.randrange(2, 10)):
            x = 0.25 * rng.randrange(-8, 9)
            r = rng.random()
            if r < 0.2:
                x = math.nextafter(x, math.inf)
            elif r < 0.4:
                x = math.nextafter(x, -math.inf)
            p = (x, rng.choice(ys))
            if p not in coords:  # duplicate points are skipped
                coords.append(p)
        corpus.append((coords, w))
    return corpus


def _ulp_off_edge(x):
    # window and slab edges sit at the integers +-k +- 1
    edge = float(round(x))
    return x != edge and math.nextafter(x, edge) == edge


def test_fragile_lattice_matches_oracle():
    mismatches = []
    seen = {"feasible": 0, "infeasible": 0, "ulp off an edge": 0}
    for coords, w in _lattice_ulp_strip_corpus():
        inst = make_instance(coords, width=w, warn_fragile=False)
        seen["ulp off an edge"] += any(_ulp_off_edge(p.x) for p in inst.points)
        try:
            want = brute_min_broadcast(inst).size
        except InfeasibleError:
            want = None
        try:
            got = solve_wide(inst)
        except InfeasibleError:
            got = None
        seen["infeasible" if want is None else "feasible"] += 1
        if want is not None:
            _assert_upper_bound(inst, want)
        if got is None:
            if want is not None:
                mismatches.append((coords, w))
        elif got.size != want or not validate_broadcast(inst, got).valid:
            mismatches.append((coords, w))
    assert mismatches == []
    assert all(seen.values()), seen


def test_window_dp_matches_oracle_at_benchmark_scale():
    # wide-window-shaped draws: n 11-13 on strips of width 1.0 and 1.5; the
    # span-1.0 draws keep every |x| <= 1, so the whole strip is one window
    # and the fill lists its subsets up to the bound set's size
    draws = [
        (11, 1.0, 1.0, 8),
        (13, 1.5, 1.0, 8),
        (11, 1.5, 11 / 8, 0),
        (12, 1.0, 12 / 8, 8),
        (12, 1.5, 12 / 8, 17),
        (13, 1.0, 13 / 8, 1),
    ]
    for n, w, span, seed in draws:
        inst = gen_random_strip(n, w, seed + 95_000, min_sep=0.05, span=span)
        got = solve_wide(inst)
        assert got.size == brute_min_broadcast(inst).size
        assert validate_broadcast(inst, got).valid
