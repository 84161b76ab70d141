import pytest

from stripcast.io_cli import gen_random_strip
from stripcast.model import (
    InfeasibleError,
    TractabilityError,
    make_instance,
    validate_broadcast,
)
from stripcast.oracle import brute_min_broadcast


def chain(k, spacing=0.95, width=0.5):
    return make_instance(
        [(i * spacing, 0.25) for i in range(k)], width=width, warn_fragile=False
    )


def test_single_point():
    got = brute_min_broadcast(make_instance([(0.0, 0.25)], width=0.5))
    assert got.active == (0,)


def test_chain_of_four():
    got = brute_min_broadcast(chain(4))
    assert got.size == 3
    assert got.active == (0, 1, 2)  # the only size-3 set, and lexicographic


def test_chain_hop_bound_infeasible():
    with pytest.raises(InfeasibleError):
        brute_min_broadcast(chain(4), hops=2)


def test_hop_none_equals_large_bound():
    inst = gen_random_strip(9, 0.6, seed=77, min_sep=0.05)
    try:
        a = brute_min_broadcast(inst)
    except InfeasibleError:
        pytest.skip("disconnected sample")
    b = brute_min_broadcast(inst, hops=inst.n)
    assert a.size == b.size


def test_max_n_refusal():
    inst = gen_random_strip(18, 0.6, seed=1, min_sep=0.0)
    with pytest.raises(TractabilityError, match=r"oracle refuses n=18 > max_n=16"):
        brute_min_broadcast(inst)


def per_source(inst):
    """The instance once for each choice of source; the smallest of their
    broadcast sets is a minimum connected dominating set."""
    coords = [(p.x, p.y) for p in inst.points]
    return [
        make_instance(coords, source=src, width=inst.width, warn_fragile=False)
        for src in range(inst.n)
    ]


def test_cds_clique():
    inst = make_instance(
        [(0.0, 0.2), (0.3, 0.2), (0.15, 0.4)], width=0.5, warn_fragile=False
    )
    assert [brute_min_broadcast(c).size for c in per_source(inst)] == [1, 1, 1]


def test_cds_path_of_five():
    got = [brute_min_broadcast(c) for c in per_source(chain(5))]
    assert [b.size for b in got] == [4, 3, 3, 3, 4]
    assert got[2].active == (1, 2, 3)


def test_cds_star():
    pts = [(0.0, 0.5)]
    import math

    for i in range(6):
        ang = 2 * math.pi * i / 6
        pts.append((0.95 * math.cos(ang), 0.5 + 0.45 * math.sin(ang)))
    inst = make_instance(pts, width=1.0, warn_fragile=False)
    got = [brute_min_broadcast(c) for c in per_source(inst)]
    assert got[0].active == (0,)
    assert [b.size for b in got] == [1] + [2] * 6


def test_permutation_invariance():
    import random

    rng = random.Random(4)
    inst = gen_random_strip(8, 0.6, seed=21, min_sep=0.05)
    try:
        base = brute_min_broadcast(inst)
    except InfeasibleError:
        pytest.skip("disconnected sample")
    perm = list(range(inst.n))
    rng.shuffle(perm)
    pts = [None] * inst.n
    for old, new in enumerate(perm):
        pts[new] = (inst.points[old].x, inst.points[old].y)
    shuffled = make_instance(pts, source=perm[0], width=inst.width, warn_fragile=False)
    assert brute_min_broadcast(shuffled).size == base.size


def test_minimality_by_double_enumeration():
    from itertools import combinations

    for seed in range(10):
        inst = gen_random_strip(7, 0.6, seed + 90, min_sep=0.05)
        try:
            got = brute_min_broadcast(inst)
        except InfeasibleError:
            continue
        k = got.size
        if k <= 1:
            continue
        others = [i for i in range(inst.n) if i != inst.source]
        for extra in combinations(others, k - 2):
            cand = {inst.source, *extra}
            report = validate_broadcast(inst, cand)
            assert not (report.is_dominating and report.is_connected)
