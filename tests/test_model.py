import io
import math
import random
import warnings
from contextlib import redirect_stdout

import pytest

import stripcast
from stripcast import cli, io_cli, model
from stripcast.model import (
    FRAGILE_TOL,
    InstanceError,
    InternalError,
    NARROW_LIMIT,
    Point,
    StripcastError,
    check_answer,
    dist2,
    make_broadcast_set,
    make_instance,
    outside_source_disk,
    validate_broadcast,
)
from stripcast.hopdp import solve_hop
from stripcast.io_cli import gen_bundle, gen_random_strip, save_instance
from test_wide import _lattice_ulp_strip_corpus


def chain(k, spacing=1.0, width=0.5):
    return make_instance(
        [(i * spacing, 0.25) for i in range(k)],
        width=width,
        warn_fragile=False,
    )


def test_boundary_distance_is_adjacent():
    inst = make_instance([(0.0, 0.0), (1.0, 0.0)], warn_fragile=False)
    assert 1 in inst.graph.adj[0]


def test_single_point_graph_has_no_edges():
    g = make_instance([(0.0, 0.0)]).graph
    assert g.n == 1 and g.adj[0] == frozenset()


def test_chain_adjacency_exact():
    g = chain(3).graph
    assert g.adj[0] == frozenset({1})
    assert g.adj[1] == frozenset({0, 2})
    assert g.adj[2] == frozenset({1})


def test_graph_symmetry_random():
    inst = gen_random_strip(30, 0.7, seed=11, min_sep=0.01)
    g = inst.graph
    for i in range(g.n):
        for j in g.adj[i]:
            assert i in g.adj[j]


def test_normalization_translates_and_scales():
    inst = make_instance(
        [(4.0, 1.0), (6.0, 1.0)], source=0, width=2.0, radius=2.0, warn_fragile=False
    )
    assert inst.points[0] == Point(0.0, 0.5)
    assert inst.points[1] == Point(1.0, 0.5)
    assert inst.width == 1.0


def test_instance_rejects_bad_input():
    with pytest.raises(InstanceError):
        make_instance([])
    with pytest.raises(InstanceError):
        make_instance([(0, 0)], source=2)
    with pytest.raises(InstanceError):
        make_instance([(float("nan"), 0)])
    with pytest.raises(InstanceError):
        make_instance([(0, 0), (0, 5.0)], width=1.0)
    with pytest.raises(InstanceError):
        make_instance([(0, 0)], hops=0)


def test_fragility_flag():
    with pytest.warns(UserWarning):
        inst = make_instance([(0.0, 0.0), (1.0, 0.0)])
    assert inst.fragile
    quiet = make_instance([(0.0, 0.0), (0.5, 0.0)])
    assert not quiet.fragile


def _lattice_ulp_corpus(seed=0, trials=400):
    rng = random.Random(seed)
    corpus = []
    for _ in range(trials):
        w = rng.choice([0.5, 0.75, NARROW_LIMIT])
        coords = [(0.0, rng.choice([0.0, w / 2, w]))]
        for _ in range(rng.randrange(2, 10)):
            x = 0.25 * rng.randrange(-12, 13)
            r = rng.random()
            if r < 0.2:
                x = math.nextafter(x, math.inf)
            elif r < 0.4:
                x = math.nextafter(x, -math.inf)
            coords.append((x, rng.choice([0.0, w / 2, w])))
        corpus.append((coords, w))
    # hand-placed: x-gap exactly 1.0, and distance 1 +- 5e-10 (inside the
    # fragile band) along the strip and across it
    w = NARROW_LIMIT
    for x0 in (0.75, -2.5):
        corpus.append(([(0.0, w), (x0, 0.0), (x0 + 1.0, 0.0)], w))
        for d in (1.0 + 5e-10, 1.0 - 5e-10):
            corpus.append(([(0.0, w), (x0, 0.0), (x0 + d, 0.0)], w))
            dx = math.sqrt(d * d - w * w)
            corpus.append(([(0.0, w / 2), (x0, 0.0), (x0 + dx, w)], w))
    return corpus


def test_sweep_matches_all_pairs_definition():
    mismatches = []
    seen = {"edge at dx 1": 0, "band beyond dx 1": 0, "fragile": 0, "robust": 0}
    for coords, w in _lattice_ulp_corpus():
        inst = make_instance(coords, width=w, warn_fragile=False)
        pts = inst.points
        adj = [set() for _ in pts]
        fragile = False
        for i in range(inst.n):
            for j in range(i + 1, inst.n):
                d2 = dist2(pts[i], pts[j])
                gap = abs(pts[i].x - pts[j].x)
                if d2 <= 1.0:
                    adj[i].add(j)
                    adj[j].add(i)
                    seen["edge at dx 1"] += gap == 1.0
                if abs(math.sqrt(d2) - 1.0) < FRAGILE_TOL:
                    fragile = True
                    seen["band beyond dx 1"] += gap > 1.0
        seen["fragile" if fragile else "robust"] += 1
        want = tuple(frozenset(s) for s in adj)
        # warn_fragile=True scans inside make_instance, False on first use
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loud = make_instance(coords, width=w)
        warned = any(issubclass(c.category, UserWarning) for c in caught)
        for got in (inst, loud):
            if got.graph.adj != want or got.fragile != fragile:
                mismatches.append(coords)
        if warned != fragile:
            mismatches.append(coords)
    assert mismatches == []
    assert all(seen.values()), seen


def test_graph_does_not_change_identity():
    coords = [(0.0, 0.2), (0.7, 0.4), (1.5, 0.1)]
    built = make_instance(coords, width=0.5, warn_fragile=False)
    fresh = make_instance(coords, width=0.5, warn_fragile=False)
    assert built.graph.adj[1] == frozenset({0, 2})
    assert built == fresh and hash(built) == hash(fresh)
    assert {built: "x"}[fresh] == "x"


def test_one_sweep_per_cli_solve(tmp_path, monkeypatch):
    # one graph build per solve, and no fragile scan: the CLI never reads it
    sweeps = []
    scans = []
    real = model._sweep

    def counting(pts):
        sweeps.append(len(pts))
        return real(pts)

    monkeypatch.setattr(model, "_sweep", counting)
    monkeypatch.setattr(model, "_fragile_scan", lambda pts: scans.append(len(pts)))
    depth_two = make_instance(
        [(0.0, 0.25), (0.9, 0.25), (1.7, 0.25), (-0.9, 0.3), (0.5, 0.1)],
        width=0.5,
        hops=2,
        warn_fragile=False,
    )
    depth_three = make_instance(
        [(0.0, 0.25), (0.9, 0.25), (1.8, 0.2), (2.7, 0.3), (-0.9, 0.25), (1.2, 0.4)],
        width=0.5,
        hops=3,
        warn_fragile=False,
    )
    runs = [
        (depth_two, ("narrow", "hop", "two-hop", "wide")),
        (depth_three, ("narrow", "hop", "wide")),
    ]
    for k, (inst, algos) in enumerate(runs):
        path = str(tmp_path / f"i{k}.json")
        save_instance(inst, path)
        for algo in algos:
            sweeps.clear()
            with redirect_stdout(io.StringIO()) as out:
                code = cli.main(["solve", path, "--algo", algo])
            assert code == 0, (algo, out.getvalue())
            assert "valid: dominating=True connected=True" in out.getvalue()
            assert sweeps == [inst.n], (algo, sweeps)
    assert scans == []


def test_levels_chain():
    part = chain(4, spacing=0.95).levels
    assert [part.level[i] for i in range(4)] == [0, 1, 2, 3]
    assert part.levels[0] == (0,)
    assert part.depth == 3


def test_levels_unreachable():
    inst = make_instance([(0.0, 0.2), (10.0, 0.2)], width=0.5, warn_fragile=False)
    part = inst.levels
    assert part.level[1] == math.inf
    assert part.unreachable == (1,)


def test_levels_bundle_columns():
    inst = gen_bundle(2, 3)
    part = inst.levels
    rows = 4
    for col in (1, 2):
        for r in range(rows):
            assert part.level[1 + (col - 1) * rows + r] == col
    assert part.depth == 3


def test_level_side_split():
    inst = make_instance(
        [(0.0, 0.25), (0.9, 0.25), (-0.9, 0.25)], width=0.5, warn_fragile=False
    )
    part = inst.levels
    assert part.plus[1] == (1,)
    assert part.minus[1] == (2,)


def test_levels_kept_with_the_instance(monkeypatch):
    searches = []
    real = model._bfs_levels

    def counting(inst):
        searches.append(inst.n)
        return real(inst)

    monkeypatch.setattr(model, "_bfs_levels", counting)
    # t < h (solve_narrow) and t = h >= 3 (DAG, side tables, candidates)
    for inst, h in ((chain(4, spacing=0.95), 5), (chain(5, spacing=0.95), 4)):
        searches.clear()
        part = inst.levels
        solve_hop(inst, h)
        assert inst.levels is part
        assert searches == [inst.n]


def test_outside_source_disk_is_the_distance_test():
    narrow_widths = (0.5, 0.75, math.sqrt(3) / 2)
    corpus = _lattice_ulp_strip_corpus() + _lattice_ulp_strip_corpus(
        widths=narrow_widths
    )
    fragile = 0
    for coords, w in corpus:
        inst = make_instance(coords, width=w, warn_fragile=False)
        s = inst.source_point
        want = [i for i, p in enumerate(inst.points) if dist2(p, s) > 1.0]
        assert outside_source_disk(inst) == want, (coords, w)
        fragile += inst.fragile
    assert fragile >= 500


def test_validate_all_active():
    inst = chain(4, spacing=0.95)
    report = validate_broadcast(inst, range(4))
    assert report.is_dominating and report.is_connected
    assert report.max_hops_needed == 3  # eccentricity of the source


def test_validate_missing_source_is_input_error():
    inst = chain(3, spacing=0.95)
    with pytest.raises(InstanceError):
        validate_broadcast(inst, [1, 2])


def test_validate_chain_prefix():
    inst = chain(4, spacing=0.95)
    report = validate_broadcast(inst, [0, 1, 2])
    assert report.is_dominating and report.is_connected
    assert report.max_hops_needed == 3


def test_validate_witnesses():
    inst = make_instance(
        [(0.0, 0.2), (0.9, 0.2), (1.8, 0.2), (2.7, 0.2)],
        width=0.5,
        warn_fragile=False,
    )
    report = validate_broadcast(inst, [0, 1])
    assert not report.is_dominating
    assert 3 in report.witnesses
    report = validate_broadcast(inst, [0, 2])
    assert not report.is_connected
    assert report.max_hops_needed == math.inf


def reference_report(inst, active, bound):
    """The report's fields from their definitions: pairwise distances, the
    source's component among the actives, and relay rounds in which only
    the points reached by actives in the previous round are new."""
    pts, n, src = inst.points, inst.n, inst.source

    def near(a, b):
        return a != b and dist2(pts[a], pts[b]) <= 1.0

    uncovered = [
        i for i in range(n) if i not in active and not any(near(i, a) for a in active)
    ]
    component = {src}
    grown = True
    while grown:
        new = {a for a in active - component if any(near(a, c) for c in component)}
        component |= new
        grown = bool(new)
    stranded = sorted(active - component)
    hop = {src: 0}
    relays = [src]
    rounds = 0
    while relays:
        rounds += 1
        reached = [v for v in range(n) if v not in hop and any(near(u, v) for u in relays)]
        hop.update((v, rounds) for v in reached)
        relays = [v for v in reached if v in active]
    max_hops = max(hop.values()) if len(hop) == n else math.inf
    hops_ok = None if bound is None else max_hops <= bound
    return (not uncovered, not stranded, max_hops, hops_ok, tuple(uncovered + stranded))


def test_validate_fields_match_their_definitions():
    rng = random.Random(2024)
    stranded = hop_failures = 0
    for seed in range(300):
        n = 4 + seed % 12
        inst = gen_random_strip(n, (0.3, 0.6, 0.86)[seed % 3], seed, min_sep=0.05)
        keep = rng.choice((0.3, 0.6, 0.9))
        active = {inst.source} | {i for i in range(n) if rng.random() < keep}
        bound = rng.choice((None, 1, 2, 3, 4))
        report = validate_broadcast(inst, active, hops=bound)
        got = (
            report.is_dominating,
            report.is_connected,
            report.max_hops_needed,
            report.hops_ok,
            report.witnesses,
        )
        assert got == reference_report(inst, active, bound), seed
        stranded += not report.is_connected
        hop_failures += report.hops_ok is False
    assert stranded >= 30 and hop_failures >= 30


def test_validate_hop_bound_flag():
    inst = chain(4, spacing=0.95)
    assert validate_broadcast(inst, range(4), hops=3).hops_ok is True
    assert validate_broadcast(inst, range(4), hops=2).hops_ok is False
    assert validate_broadcast(inst, range(4)).hops_ok is None


def test_check_answer_raises_internal_error_and_ignores_the_file_bound():
    inst = make_instance(
        [(i * 0.95, 0.25) for i in range(4)], width=0.5, hops=2, warn_fragile=False
    )
    full = make_broadcast_set(inst, range(4))
    assert check_answer(inst, full) is full
    with pytest.raises(InternalError, match="max_hops=3, bound 2"):
        check_answer(inst, full, hops=2)
    with pytest.raises(InternalError, match=r"witnesses \(3,\)"):
        check_answer(inst, make_broadcast_set(inst, [0, 1]))


def test_every_error_is_a_stripcast_error():
    exported = [getattr(stripcast, name) for name in stripcast.__all__]
    errors = [e for e in exported if isinstance(e, type) and issubclass(e, Exception)]
    errors += [io_cli.ParseError, io_cli.GeneratorError]
    assert len(errors) == 8
    assert all(issubclass(e, StripcastError) for e in errors)


def test_broadcast_set_requires_source():
    inst = chain(3, spacing=0.95)
    with pytest.raises(InstanceError):
        make_broadcast_set(inst, [1, 2])
    bs = make_broadcast_set(inst, [2, 0])
    assert bs.active == (0, 2)
    assert 2 in bs and 1 not in bs
    assert bs == make_broadcast_set(inst, [0, 2])


def test_coincident_points_are_adjacent():
    inst = make_instance([(0.0, 0.1), (0.0, 0.1)], width=0.3, warn_fragile=False)
    assert 1 in inst.graph.adj[0]
