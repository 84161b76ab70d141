import math
import random

import pytest

from stripcast.acceptance import boundary_sequence, gen_planar, sigma_properties_ok
from stripcast.model import (
    ContractError,
    InfeasibleError,
    Point,
    dist2,
    make_instance,
    validate_broadcast,
)
from stripcast.oracle import brute_min_broadcast
from stripcast.twohop import (
    AngularInstance,
    _best_split,
    _collect_disks,
    _rotated_prefix,
    _runs_after_prefix,
    angular_order,
    cover_dp,
    solve_two_hop,
)


def planar(pts, source=0):
    return make_instance(pts, source=source, warn_fragile=False)


def test_angular_order_compass():
    inst = planar(
        [
            (0, 0),
            (1.5, 0),
            (0, 1.5),
            (-1.5, 0),
            (0, -1.5),
            (0.9, 0),
            (0, 0.9),
            (-0.9, 0),
            (0, -0.9),
        ]
    )
    ai = angular_order(inst)
    assert ai.order == (1, 2, 3, 4)  # E, N, W, S from angle 0
    assert ai.disks == (5, 6, 7, 8)


def test_angular_order_needs_outside_points():
    inst = planar([(0, 0), (0.5, 0.5)])
    with pytest.raises(ContractError):
        angular_order(inst)


def test_angular_order_infeasible_witness():
    inst = planar([(0, 0), (3.0, 0.0), (0.5, 0.0)])
    with pytest.raises(InfeasibleError) as err:
        angular_order(inst)
    assert err.value.witness == (1,)


def test_angular_order_drops_dominated_disks():
    inst = planar(
        [
            (0, 0),
            (1.5, 0),  # outside: positions 0 and 1 ...
            (1.5, 0.4),
            (-1.5, 0),  # ... and 2
            (0.6, -0.1),  # covers position 0 only: inside disk 5's set
            (0.8, 0.2),  # covers positions 0 and 1
            (-0.8, 0),  # covers position 2 ...
            (-0.7, 0.1),  # ... exactly as disk 6 does
        ]
    )
    ai = angular_order(inst)
    assert ai.order == (1, 2, 3)
    assert ai.disks == (5, 6)
    assert ai.covers == (0b011, 0b100)
    assert ai.disks_at == ((0,), (0,), (1,))
    family = unpruned(ai)
    assert family.disks == (4, 5, 6, 7)
    assert family.covers == (0b001, 0b011, 0b100, 0b100)


def test_angular_order_matches_sort_oracle():
    rng = random.Random(9)
    for _ in range(50):
        inst = gen_planar(10, rng.randrange(10_000))
        ai = angular_order(inst)
        s = inst.source_point
        pts = inst.points
        want = sorted(
            (i for i in range(inst.n) if dist2(pts[i], s) > 1.0),
            key=lambda i: (
                math.atan2(pts[i].y - s.y, pts[i].x - s.x) % (2 * math.pi),
                dist2(pts[i], s),
                i,
            ),
        )
        assert list(ai.order) == want


def fan_instance():
    """Five outside points on a fan; disk 5 covers positions 0-1, disk 6
    covers position 2, disk 7 covers positions 3-4."""
    def polar(r, deg):
        a = math.radians(deg)
        return (r * math.cos(a), r * math.sin(a))

    pts = [(0.0, 0.0)]
    for deg in (0, 30, 90, 180, 210):
        pts.append(polar(1.5, deg))
    pts.append(polar(0.9, 15))
    pts.append(polar(0.9, 90))
    pts.append(polar(0.9, 195))
    return planar(pts)


def lookup(table, start, length):
    """The table's cost of the ``length`` positions from ``start``; 0 when empty."""
    return table.values[length][start] if length > 0 else 0


def next_for_disk(ai, i, d):
    """First position from i past disk d's covered prefix."""
    return (i + _rotated_prefix(ai, i, d)[1]) % ai.m


def split_pairs(ai, i, j, d):
    """The (before-run, after-run) position pairs of disk d's covered runs
    inside [i, j] beyond its prefix, read from the runs cover_dp walks."""
    m = ai.m
    length = (j - i) % m + 1
    return [
        ((i + start_off - 1) % m, (i + min(end_off, length - 1) + 1) % m)
        for start_off, end_off in _runs_after_prefix(ai, i, d)[1]
        if start_off < length
    ]


def test_compute_next_per_disk():
    inst = fan_instance()
    ai = angular_order(inst)
    assert ai.order == (1, 2, 3, 4, 5)
    d0 = ai.disks.index(6)
    # disk 6 covers q positions 0 and 1, so the scan from 0 stops at 2
    assert next_for_disk(ai, 0, d0) == 2
    d1 = ai.disks.index(7)
    assert next_for_disk(ai, 2, d1) == 3
    # the farthest reach over every disk covering position 0
    table = cover_dp(ai)
    assert table.next1[0] == 2
    assert table.prefix_disk[0] == d0
    # the traceback recomputes the one-disk cell [0, 2), and the cell [0, 3)
    # as disk 6's prefix plus the one-disk cell [2, 3)
    out = set()
    _collect_disks(table, 0, 2, out)
    assert out == {d0}
    out = set()
    _collect_disks(table, 0, 3, out)
    assert out == {d0, d1}


def test_compute_next_single_coverage_wraps():
    inst = fan_instance()
    ai = angular_order(inst)
    d1 = ai.disks.index(7)
    # disk 7 covers position 2 only; from position 2 the next index is 3
    assert next_for_disk(ai, 2, d1) == 3


def test_interval_set_prefix_only():
    inst = fan_instance()
    ai = angular_order(inst)
    d0 = ai.disks.index(6)
    assert split_pairs(ai, 0, 4, d0) == []


def test_interval_set_detects_second_run():
    def polar(r, deg):
        a = math.radians(deg)
        return (r * math.cos(a), r * math.sin(a))

    # disk at angle 0 covers angular positions on both ends of the order
    pts = [(0.0, 0.0)]
    for deg in (20, 90, 180, 270, 340):
        pts.append(polar(1.5, deg))
    pts.append(polar(0.95, 0))  # covers positions 0 and 4
    pts.append(polar(0.95, 90))
    pts.append(polar(0.95, 180))
    pts.append(polar(0.95, 270))
    inst = planar(pts)
    ai = angular_order(inst)
    d = ai.disks.index(6)
    pairs = split_pairs(ai, 0, 4, d)
    assert pairs == [(3, 0)]  # run [4, 4] -> pair (3, 5 mod 5 = 0)


def test_interval_set_matches_scan_oracle():
    rng = random.Random(31)
    for _ in range(40):
        inst = gen_planar(9, rng.randrange(50_000))
        ai = angular_order(inst)
        m = ai.m
        for i in range(m):
            for d in ai.disks_at[i]:
                length = rng.randrange(2, m + 1) if m >= 2 else 1
                j = (i + length - 1) % m
                pairs = split_pairs(ai, i, j, d)
                covered = [
                    bool(ai.covers[d] >> ((i + off) % m) & 1)
                    for off in range(length)
                ]
                runs = []
                off = 0
                while off < length and covered[off]:
                    off += 1
                while off < length:
                    if covered[off]:
                        start = off
                        while off < length and covered[off]:
                            off += 1
                        runs.append(((i + start - 1) % m, (i + off) % m))
                    else:
                        off += 1
                assert pairs == runs


def brute_cover(ai, i, length):
    """Exhaustive minimum number of disks covering the circular interval."""
    from itertools import combinations

    m = ai.m
    need = 0
    for off in range(length):
        need |= 1 << ((i + off) % m)
    for k in range(1, len(ai.disks) + 1):
        for combo in combinations(range(len(ai.disks)), k):
            mask = 0
            for d in combo:
                mask |= ai.covers[d]
            if mask & need == need:
                return k
    return None


def unpruned(ai):
    """The same outside order with every source-disk disk that covers an
    outside point as a candidate, dominated or not."""
    inst = ai.instance
    adj = inst.graph.adj
    disks, covers = [], []
    for c in sorted(adj[inst.source]):
        mask = sum(1 << pos for pos, q in enumerate(ai.order) if q in adj[c])
        if mask:
            disks.append(c)
            covers.append(mask)
    disks_at = tuple(
        tuple(d for d in range(len(disks)) if covers[d] >> pos & 1)
        for pos in range(ai.m)
    )
    return AngularInstance(inst, ai.order, tuple(disks), disks_at, tuple(covers))


def reference_cover_values(ai):
    """The cover table's costs by the plain loop, the reference cover_dp's
    fill must reproduce: a dict of next positions, each start's pairs walked
    disk by disk, and one clamped right part per pair."""
    m = ai.m
    next1 = {}
    rows = []
    for i in range(m):
        reach_i = []
        row = []
        for d in ai.disks_at[i]:
            offd, runs = _runs_after_prefix(ai, i, d)
            nxd = (i + offd) % m
            reach_i.append(offd)
            if runs:
                row.append((offd, nxd, runs))
        next1[i] = (i + max(reach_i)) % m
        rows.append(row)

    values = [[0] * m]
    for length in range(1, m):
        cur = [0] * m
        for i in range(m):
            nx = next1[i]
            off1 = (nx - i) % m
            if off1 >= length:
                cur[i] = 1
                continue
            best = 1 + values[length - off1][nx]
            for offd, nxd, runs in rows[i]:
                for start_off, end_off in runs:
                    if start_off >= length:
                        break
                    offb = min(end_off, length - 1) + 1
                    b = (i + offb) % m
                    left_len = start_off - offd
                    cand = 1 + values[left_len][nxd] + values[length - offb][b]
                    best = min(best, cand)
            cur[i] = best
        values.append(cur)
    return values


def test_dominated_disks_keep_interval_costs():
    # the costs-only fill over the non-dominated disks gives the reference
    # fill's table over every candidate disk, cell for cell
    checked = 0
    dropped = 0
    trial = 0
    while checked < 6:
        inst = gen_planar(60 + 10 * (trial % 5), 610_000 + trial)
        trial += 1
        ai = angular_order(inst)
        family = unpruned(ai)
        full = (1 << ai.m) - 1
        if any(c == full for c in family.covers):
            continue
        checked += 1
        for a, ca in enumerate(ai.covers):
            for b, cb in enumerate(ai.covers):
                assert a == b or ca | cb != cb
        dropped += len(family.disks) - len(ai.disks)
        assert cover_dp(ai).values == reference_cover_values(family)
    assert dropped > 0


def reference_instances():
    """Two planar draws at each of n = 60, 80 and 100, one at each of n = 160,
    240 and 320, one where a split's right part decides a cell (rare: 1 of
    1,503 draws), and two short crowded strips (the benchmark's 2-hop strip
    shape) whose candidates are two disks; none has a disk covering every
    outside point."""
    from stripcast.io_cli import gen_random_strip

    insts = [gen_planar(n, 900_000 + k) for n in (60, 80, 100) for k in range(2)]
    insts += [gen_planar(n, 900_000 + k) for k, n in enumerate((160, 240, 320))]
    insts.append(gen_planar(69, 500_007))
    insts += [
        gen_random_strip(n, w, 1000, min_sep=0.05, span=1.5)
        for n, w in ((40, 0.6), (50, 0.8))
    ]
    return insts


def test_cover_dp_matches_reference_fill():
    strips = 0
    for inst in reference_instances():
        ai = angular_order(inst)
        assert (1 << ai.m) - 1 not in ai.covers
        strips += len(ai.disks) == 2
        want = reference_cover_values(ai)
        # a cell never falls as its interval grows, the fill's premise
        for shorter, longer in zip(want[1:], want[2:]):
            assert all(a <= b for a, b in zip(shorter, longer))
        assert cover_dp(ai).values == want
    assert strips == 2


def test_solve_two_hop_sets_pinned_to_n_640():
    # the sets the fill-by-length table gave, before the fill by cost
    pinned = {
        (320, 900_000): (0, 12, 21, 24, 56, 57, 70, 73, 77, 109),
        (320, 900_001): (0, 6, 11, 14, 46, 70, 78, 96, 101, 105, 158),
        (320, 900_002): (0, 15, 24, 27, 35, 36, 44, 65, 66, 101, 132),
        (640, 900_000): (0, 12, 21, 56, 147, 154, 214, 216, 262, 281, 310),
    }
    for (n, seed), active in pinned.items():
        assert solve_two_hop(gen_planar(n, seed)).active == active


def loop_split(table):
    """The first (start, length) minimising the two-interval total, by the
    O(m^2) loop of lookups."""
    m = table.ai.m
    best = split = None
    for i in range(m):
        for length in range(1, m):
            total = lookup(table, i, length) + lookup(table, (i + length) % m, m - length)
            if best is None or total < best:
                best, split = total, (i, length)
    return split


def test_best_split_matches_loop():
    checked = 0
    trial = 0
    while checked < 40:
        inst = gen_planar(6 + trial % 40, 620_000 + trial)
        trial += 1
        ai = angular_order(inst)
        full = (1 << ai.m) - 1
        if ai.m < 2 or any(c == full for c in ai.covers):
            continue
        checked += 1
        table = cover_dp(ai)
        assert _best_split(table) == loop_split(table)


def test_cover_dp_matches_exhaustive_cover():
    checked = 0
    trial = 0
    while checked < 25:
        inst = gen_planar(4 + trial % 8, 90_000 + trial)
        trial += 1
        ai = angular_order(inst)
        m = ai.m
        full = (1 << m) - 1
        if m < 2 or any(c == full for c in ai.covers):
            continue  # a size-2 solution exists; the DP is never reached then
        checked += 1
        table = cover_dp(ai)
        for i in range(m):
            for length in range(1, m):
                assert lookup(table, i, length) == brute_cover(ai, i, length)


def reevaluate(table, i, length):
    """One cell of the cover recurrence, from split_pairs and the table."""
    ai = table.ai
    m = ai.m
    j = (i + length - 1) % m
    nx = table.next1[i]
    off = (nx - i) % m
    if off >= length:
        return 1
    best = 1 + lookup(table, nx, length - off)
    for d in ai.disks_at[i]:
        nxd = next_for_disk(ai, i, d)
        offd = (nxd - i) % m
        if offd >= length:
            best = min(best, 1)
            continue
        for a, b in split_pairs(ai, i, j, d):
            offa = (a - i) % m
            offb = (b - i) % m
            cand = (
                1
                + lookup(table, nxd, offa - offd + 1)
                + lookup(table, b, length - offb)
            )
            best = min(best, cand)
    return best


def test_cover_dp_self_consistent():
    # re-evaluating every filled cell from the recursion changes nothing
    checked = 0
    trial = 0
    while checked < 15:
        inst = gen_planar(5 + trial % 7, 260_000 + trial)
        trial += 1
        ai = angular_order(inst)
        m = ai.m
        full = (1 << m) - 1
        if m < 2 or any(c == full for c in ai.covers):
            continue
        checked += 1
        table = cover_dp(ai)
        for i in range(m):
            for length in range(1, m):
                assert lookup(table, i, length) == reevaluate(table, i, length)


def test_cover_dp_recurrence_and_witnesses_at_benchmark_scale():
    # at n = 80 almost every (start, disk) pair has a covered run after its
    # prefix; at the n <= 12 of the tests above few do
    checked = 0
    trial = 0
    split_cells = 0
    while checked < 4:
        inst = gen_planar(80, 880_000 + trial)
        trial += 1
        ai = angular_order(inst)
        m = ai.m
        full = (1 << m) - 1
        if any(c == full for c in ai.covers):
            continue
        checked += 1
        table = cover_dp(ai)
        for i in range(m):
            for length in range(1, m):
                value = lookup(table, i, length)
                assert value == reevaluate(table, i, length)
                # the traceback takes a split only where it beats the prefix
                nx = table.next1[i]
                off = (nx - i) % m
                split_cells += off < length and value < 1 + lookup(table, nx, length - off)
                disks = set()
                _collect_disks(table, i, length, disks)
                assert len(disks) <= value
                union = 0
                for d in disks:
                    union |= ai.covers[d]
                for off in range(length):
                    assert union >> ((i + off) % m) & 1
    assert split_cells > 0


def test_cover_dp_single_disk_intervals():
    inst = fan_instance()
    ai = angular_order(inst)
    table = cover_dp(ai)
    assert lookup(table, 0, 2) == 1  # disk 6 covers positions 0..1
    assert lookup(table, 0, 3) == 2


def test_cover_dp_refuses_a_disk_covering_every_outside_point():
    # the size-2 answer find_small returns first; the table is never reached
    inst = planar([(0, 0), (1.5, 0), (1.6, 0.1), (0.9, 0)])
    ai = angular_order(inst)
    assert ai.covers == (0b11,)
    with pytest.raises(ContractError):
        cover_dp(ai)
    assert solve_two_hop(inst).active == (0, 3)


def test_solve_all_inside():
    inst = planar([(0, 0), (0.5, 0.1), (-0.3, 0.2)])
    assert solve_two_hop(inst).active == (0,)


def test_solve_size_two():
    inst = planar([(0, 0), (0.5, 0.0), (1.4, 0.0)])
    assert solve_two_hop(inst).active == (0, 1)


def test_solve_matches_oracle():
    for seed in range(120):
        n = 4 + seed % 9
        inst = gen_planar(n, 123_000 + seed)
        got = solve_two_hop(inst)
        want = brute_min_broadcast(inst, hops=2)
        assert got.size == want.size
        assert validate_broadcast(inst, got, hops=2).valid


def test_solve_off_the_origin_matches_oracle():
    # every gen_planar source sits at (0, 0); the angular order must measure
    # from the source wherever it is (seeds 99 and 165 catch p.y + s.y)
    for seed in range(300):
        inst = gen_planar(12, seed)
        moved = make_instance(
            [(p.x, p.y + 3.7) for p in inst.points], warn_fragile=False
        )
        got = solve_two_hop(moved)
        assert got.size == solve_two_hop(inst).size, seed
        assert got.size == brute_min_broadcast(moved, hops=2).size, seed


def test_sigma_properties_on_optima():
    for seed in range(60):
        inst = gen_planar(6 + seed % 7, 321_000 + seed)
        got = solve_two_hop(inst)
        sigma = boundary_sequence(inst, got)
        assert sigma_properties_ok(sigma)


def test_sigma_property_checker_rejects_bad_sequences():
    assert sigma_properties_ok([1, 2, 1, 3])
    assert not sigma_properties_ok([1, 1, 1])  # appears three times
    assert not sigma_properties_ok([1, 2, 1, 2])  # interleaved


def star_shape_ok(instance, active, rng, samples):
    """Sampled check: segments from the source into the union stay inside it."""
    pts = instance.points
    s = instance.source_point
    centers = [pts[i] for i in active.active]
    for _ in range(samples):
        c = centers[rng.randrange(len(centers))]
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = math.sqrt(rng.uniform(0.0, 1.0))
        z = Point(c.x + rad * math.cos(ang), c.y + rad * math.sin(ang))
        for step in range(1, 21):
            t = step / 20.0
            m = Point(s.x + t * (z.x - s.x), s.y + t * (z.y - s.y))
            if all(dist2(m, ctr) > 1.0 for ctr in centers):
                return False
    return True


def test_star_shape_sampled():
    rng = random.Random(8)
    for seed in range(10):
        inst = gen_planar(8, 555_000 + seed)
        got = solve_two_hop(inst)
        assert star_shape_ok(inst, got, rng, samples=300)


def test_strip_instances_accepted():
    from stripcast.io_cli import gen_random_strip

    for seed in range(40):
        inst = gen_random_strip(6, 0.6, 777_000 + seed, min_sep=0.05)
        try:
            got = solve_two_hop(inst)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                brute_min_broadcast(inst, hops=2)
            continue
        want = brute_min_broadcast(inst, hops=2)
        assert got.size == want.size


def _lattice_ulp_planar_corpus(seed=0, trials=1500):
    """Planar draws around a source at the origin on the 0.25 lattice in
    [-2, 2]^2; about 40% of x coordinates are moved one ulp either way, so
    many pairs sit within an ulp of the unit radius.  One to three relays lie
    in the source disk, most other points a lattice step 0.5-1 from a relay,
    and a few anywhere in the radius-2 disk (often uncoverable)."""
    rng = random.Random(seed)
    steps = range(-8, 9)

    def lattice(lo, hi):
        while True:
            i, j = rng.choice(steps), rng.choice(steps)
            if 16 * lo * lo <= i * i + j * j <= 16 * hi * hi:
                return (0.25 * i, 0.25 * j)

    def jitter(x):
        r = rng.random()
        if r < 0.2:
            return math.nextafter(x, math.inf)
        if r < 0.4:
            return math.nextafter(x, -math.inf)
        return x

    corpus = []
    for _ in range(trials):
        n = rng.randrange(3, 11)
        relays = [lattice(0.25, 1.0) for _ in range(rng.randrange(1, 4))]
        lattice_pts = list(relays)
        while len(lattice_pts) < n - 1:
            if rng.random() < 0.05:
                x, y = lattice(0.0, 2.0)
            else:
                bx, by = rng.choice(relays)
                dx, dy = lattice(0.5, 1.0)
                x, y = bx + dx, by + dy
            if max(abs(x), abs(y)) <= 2.0:
                lattice_pts.append((x, y))
        coords = [(0.0, 0.0)]
        for x, y in lattice_pts:
            p = (jitter(x), y)
            if p not in coords:  # duplicate points are skipped
                coords.append(p)
        corpus.append(coords)
    return corpus


def test_fragile_lattice_matches_oracle():
    mismatches = []
    seen = {"infeasible": 0, "size 2": 0, "cover dp": 0, "fragile": 0}
    for coords in _lattice_ulp_planar_corpus():
        inst = planar(coords)
        seen["fragile"] += inst.fragile
        try:
            want = brute_min_broadcast(inst, hops=2).size
        except InfeasibleError:
            want = None
        try:
            got = solve_two_hop(inst)
        except InfeasibleError:
            got = None
        if want is None:
            seen["infeasible"] += 1
        elif want == 2:
            seen["size 2"] += 1
        elif want > 2:
            seen["cover dp"] += 1
        if got is None:
            if want is not None:
                mismatches.append(coords)
        elif got.size != want or not validate_broadcast(inst, got, hops=2).valid:
            mismatches.append(coords)
    assert mismatches == []
    assert all(seen.values()), seen
