"""Acceptance suites: solver-vs-oracle equivalence and structural checks.

Each criterion is a zero-argument callable returning (ok, detail); the CLI
``bench`` subcommand and the test module run the same registry and print one
PASS/FAIL line per criterion, a criterion that raises a StripcastError
failing with the error as its detail.  All corpora are seeded and
deterministic.

``hashlib`` is imported inside ``criterion_plumbing``, the one criterion that
hashes, not here: ``cli`` imports this module for ``bench``, and hashlib maps
OpenSSL's libcrypto (about 3.6 MB of resident memory), which a process that
only solves would otherwise carry.
"""

from __future__ import annotations

import math
import random
import warnings
from collections import Counter, deque
from typing import Sequence

from . import hopdp, io_cli, narrow, oracle, twohop, wide
from .model import (
    BroadcastSet,
    InfeasibleError,
    InstanceError,
    InternalError,
    Point,
    StripcastError,
    StripInstance,
    dist2,
    make_instance,
    outside_source_disk,
    validate_broadcast,
)

WIDTHS_NARROW = (0.3, 0.6, 0.86)
WIDTHS_WIDE = (1.0, 1.5, 2.0)


def _narrow_corpus(count: int, base_seed: int):
    for s in range(count):
        n = 4 + s % 9
        w = WIDTHS_NARROW[s % 3]
        yield s, io_cli.gen_random_strip(
            n, w, base_seed + s, min_sep=0.05, span=max(1.0, 0.2 * n)
        )


def gen_planar(n: int, seed: int) -> StripInstance:
    """Planar instance with inner relay points and coverable outer points."""
    rng = random.Random(seed)
    pts = [(0.0, 0.0)]
    n_in = max(2, n // 2)
    while len(pts) < n_in:
        ang = rng.uniform(0, 2 * math.pi)
        rad = math.sqrt(rng.uniform(0, 1)) * 0.98
        cand = (rad * math.cos(ang), rad * math.sin(ang))
        if all(
            abs(math.hypot(cand[0] - q[0], cand[1] - q[1]) - 1.0) > 1e-6 for q in pts
        ):
            pts.append(cand)
    inner = list(pts[1:])
    while len(pts) < n:
        ang = rng.uniform(0, 2 * math.pi)
        rad = rng.uniform(1.0, 1.9)
        cand = (rad * math.cos(ang), rad * math.sin(ang))
        if not all(
            abs(math.hypot(cand[0] - q[0], cand[1] - q[1]) - 1.0) > 1e-6 for q in pts
        ):
            continue
        if any(
            math.hypot(cand[0] - q[0], cand[1] - q[1]) < 1.0 - 1e-6 for q in inner
        ):
            pts.append(cand)
    return make_instance(pts, source=0, warn_fragile=False)


def _solved(fn, *args) -> BroadcastSet | None:
    """``fn(*args)``, or None when it finds the instance infeasible."""
    try:
        return fn(*args)
    except InfeasibleError:
        return None


def criterion_narrow_optimality():
    """200 narrow instances: solve_narrow equals the oracle exactly."""
    solved = 0
    for s, inst in _narrow_corpus(200, base_seed=0):
        got = _solved(narrow.solve_narrow, inst)
        want = _solved(oracle.brute_min_broadcast, inst)
        if (got is None) != (want is None):
            return False, f"seed {s}: feasibility disagrees"
        if got is None:
            continue
        report = validate_broadcast(inst, got)
        if not (report.is_dominating and report.is_connected):
            return False, f"seed {s}: returned set invalid"
        if got.size != want.size:
            return False, f"seed {s}: size {got.size} != oracle {want.size}"
        solved += 1
    return True, f"{solved} feasible instances matched the oracle"


def _is_shortest_covering_path(inst, graph, path, targets) -> bool:
    # path[0] = source; must be a graph path ending in the target set whose
    # length equals the BFS distance from the source to the set
    pts = inst.points
    for a, b in zip(path, path[1:]):
        if dist2(pts[a], pts[b]) > 1.0:
            return False
    if path[-1] not in targets:
        return False
    dist = {inst.source: 0}
    queue = deque([inst.source])
    while queue:
        u = queue.popleft()
        for v in graph.adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    best = min(dist.get(t, math.inf) for t in targets)
    return len(path) - 1 == best


def criterion_structure():
    """Returned narrow solutions classify as small / bidirectional / path-like."""
    kinds = {"small": 0, "bidirectional": 0, "path": 0}
    for s, inst in _narrow_corpus(200, base_seed=0):
        try:
            got, info = narrow.solve_narrow_detailed(inst)
        except InfeasibleError:
            continue
        kind = info["kind"]
        kinds[kind] += 1
        if kind == "small":
            if got.size > 2:
                return False, f"seed {s}: small solution of size {got.size}"
        elif kind == "bidirectional":
            if got.size != 3:
                return False, f"seed {s}: bidirectional size {got.size}"
            near = inst.graph.adj[inst.source]
            centers = [i for i in got.active if i != inst.source]
            if not all(i in near for i in centers):
                return False, f"seed {s}: bidirectional center not next to the source"
        else:
            graph = inst.graph
            covering = inst.covering
            paths = info["paths"]
            seen = []
            for side, path in paths.items():
                targets = set(
                    covering.q_plus if side == "+" else covering.q_minus
                )
                if not _is_shortest_covering_path(inst, graph, path, targets):
                    return False, f"seed {s}: side {side} path not shortest"
                seen.append(set(path) - {inst.source})
            if len(seen) == 2 and len(seen[0] & seen[1]) > 1:
                return False, f"seed {s}: paths share more than one point"
    return True, (
        f"small={kinds['small']} bidirectional={kinds['bidirectional']} "
        f"path={kinds['path']}"
    )


def criterion_hop_optimality():
    """300 narrow instances with h in 2..5: solve_hop equals the hop oracle."""
    solved = 0
    infeasible = 0
    for s in range(300):
        n = 4 + s % 7
        w = WIDTHS_NARROW[s % 3]
        inst = io_cli.gen_random_strip(n, w, 40000 + s, min_sep=0.05)
        if s % 3 == 0:
            part = inst.levels
            h = min(5, max(2, part.depth))  # bias toward t = h
        else:
            h = 2 + s % 4
        got = _solved(hopdp.solve_hop, inst, h)
        want = _solved(oracle.brute_min_broadcast, inst, h)
        if (got is None) != (want is None):
            return False, f"seed {s}: feasibility flags disagree"
        if got is None:
            infeasible += 1
            continue
        if not validate_broadcast(inst, got, hops=h).valid:
            return False, f"seed {s}: returned set invalid for h={h}"
        if got.size != want.size:
            return False, f"seed {s}: size {got.size} != oracle {want.size} (h={h})"
        solved += 1
    return True, f"{solved} solved, {infeasible} infeasible, all matching"


def criterion_dp_consistency():
    """Every filled one-sided cell re-evaluates to itself under the recursion."""
    cells = 0
    instances = 0
    s = 0
    while instances < 100:
        n = 4 + s % 7
        w = WIDTHS_NARROW[s % 3]
        inst = io_cli.gen_random_strip(
            n, w, 60000 + s, min_sep=0.05, span=max(1.0, 0.2 * n), one_sided=True
        )
        s += 1
        part = inst.levels
        if part.unreachable or part.depth < 1:
            continue
        instances += 1
        # the source is leftmost, so the right side table holds every point
        dag = hopdp.build_level_dag(inst)
        _, table = hopdp._side_tables(inst, dag)
        for (p, i, j), val in table.values.items():
            cells += 1
            if i == j:
                q = table.terminals[i - 1]
                if p == q:
                    want = -1.0
                elif p in table.reach[q]:
                    want = dag.part.level[q] - dag.part.level[p] - 1.0
                else:
                    want = math.inf
            else:
                want = math.inf
                for t in range(i, j):
                    want = min(
                        want, table.value(p, i, t) + table.value(p, t + 1, j)
                    )
                for c in dag.children[p]:
                    if c in table.vertices:
                        want = min(want, 1.0 + table.value(c, i, j))
            if val != want:
                return False, f"instance {s}: cell ({p},[{i},{j}]) {val} != {want}"
    return True, f"{cells} cells re-evaluated across {instances} instances"


# The two-hop criterion's check that each disk owns at most two boundary runs.
def _ray_exit(
    s: Point, direction: tuple[float, float], centers: Sequence[tuple[int, Point]]
) -> tuple[float, list[int]]:
    """Leave-point of the ray from s through the union of unit disks.

    Returns (t_exit, indices of disks whose boundary passes through it).
    The ray is parametrized s + t * direction with |direction| = 1.
    """
    spans = []
    for idx, c in centers:
        # |s + t d - c|^2 = 1
        fx = s.x - c.x
        fy = s.y - c.y
        b = fx * direction[0] + fy * direction[1]
        cc = fx * fx + fy * fy - 1.0
        disc = b * b - cc
        if disc < 0.0:
            continue
        r = math.sqrt(disc)
        spans.append((-b - r, -b + r, idx))
    reach = 0.0
    grown = True
    while grown:
        grown = False
        for t0, t1, _ in spans:
            if t0 <= reach < t1:
                reach = t1
                grown = True
    owners = [idx for t0, t1, idx in spans if t1 == reach]
    return reach, owners


def boundary_sequence(instance: StripInstance, active: BroadcastSet) -> list[int]:
    """Deduplicated circular sequence of boundary owners around the source.

    For each outside point in CCW order, shoot a ray from the source through
    it and record which active disk's boundary the ray exits the union at
    (ties by smallest index).  Consecutive duplicates are merged circularly.
    """
    pts = instance.points
    s = instance.source_point
    outside = sorted(
        outside_source_disk(instance),
        key=lambda i: (twohop._ccw_angle(s, pts[i]), dist2(pts[i], s), i),
    )
    centers = [(i, pts[i]) for i in active.active]
    seq = []
    for q in outside:
        d = math.sqrt(dist2(pts[q], s))
        direction = ((pts[q].x - s.x) / d, (pts[q].y - s.y) / d)
        _, owners = _ray_exit(s, direction, centers)
        if not owners:
            raise InternalError(f"ray through point {q} never inside the union")
        seq.append(min(owners))
    dedup: list[int] = []
    for v in seq:
        if not dedup or dedup[-1] != v:
            dedup.append(v)
    while len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def sigma_properties_ok(sigma: list[int]) -> bool:
    """Each owner appears at most twice and no two owners interleave."""
    counts = Counter(sigma)
    if any(v > 2 for v in counts.values()):
        return False
    pos: dict[int, list[int]] = {}
    for i, v in enumerate(sigma):
        pos.setdefault(v, []).append(i)
    doubles = [v for v, ps in pos.items() if len(ps) == 2]
    for x in doubles:
        a, b = pos[x]
        for y in doubles:
            if y == x:
                continue
            c, d = pos[y]
            inside_c = a < c < b
            inside_d = a < d < b
            if inside_c != inside_d:
                return False
    return True


def criterion_two_hop():
    """200 planar instances: solve_two_hop equals the 2-hop oracle; sigma holds."""
    solved = 0
    for s in range(200):
        n = 4 + s % 9
        inst = gen_planar(n, 70000 + s)
        got = _solved(twohop.solve_two_hop, inst)
        want = _solved(oracle.brute_min_broadcast, inst, 2)
        if (got is None) != (want is None):
            return False, f"seed {s}: feasibility disagrees"
        if got is None:
            continue
        if got.size != want.size:
            return False, f"seed {s}: size {got.size} != oracle {want.size}"
        if not validate_broadcast(inst, got, hops=2).valid:
            return False, f"seed {s}: invalid 2-hop set"
        sigma = boundary_sequence(inst, got)
        if not sigma_properties_ok(sigma):
            return False, f"seed {s}: boundary sequence violates the run properties"
        solved += 1
    return True, f"{solved} instances matched the 2-hop oracle"


def criterion_wide():
    """Wide solver equals the oracle; equals the narrow solver on narrow strips."""
    solved = 0
    for s in range(100):
        n = 4 + s % 9
        w = WIDTHS_WIDE[s % 3]
        inst = io_cli.gen_random_strip(
            n, w, 80000 + s, min_sep=0.05, span=max(1.0, 0.2 * n)
        )
        got = _solved(wide.solve_wide, inst)
        want = _solved(oracle.brute_min_broadcast, inst)
        if (got is None) != (want is None):
            return False, f"seed {s}: feasibility disagrees"
        if got is not None:
            if got.size != want.size:
                return False, f"seed {s}: size {got.size} != oracle {want.size}"
            solved += 1
    agreed = 0
    for s, inst in _narrow_corpus(100, base_seed=90000):
        a = _solved(wide.solve_wide, inst)
        b = _solved(narrow.solve_narrow, inst)
        if (a is None) != (b is None):
            return False, f"narrow seed {s}: feasibility disagrees"
        if a is None:
            continue
        if a.size != b.size:
            return False, f"narrow seed {s}: wide {a.size} != narrow {b.size}"
        agreed += 1
    return True, f"{solved} wide instances matched; {agreed} narrow agreements"


def criterion_density_formula():
    """Exact density-cap values at the two anchor widths."""
    vals = (wide.mu(math.sqrt(3) / 2), wide.mu(math.sqrt(3)), wide.mu(0.01))
    if vals != (30, 46, 14):
        return False, f"mu values {vals} != (30, 46, 14)"
    return True, "mu(sqrt(3)/2)=30, mu(sqrt(3))=46, mu(0.01)=14"


def criterion_geometric_invariants():
    """Path coverage and level overlap hold on 1000 random narrow instances."""
    rng = random.Random(123)
    paths_checked = 0
    for s in range(1000):
        n = 3 + s % 8
        w = WIDTHS_NARROW[s % 3]
        inst = io_cli.gen_random_strip(n, w, 100000 + s, min_sep=0.02)
        graph = inst.graph
        part = inst.levels  # ContractError on an overlap violation
        pts = inst.points
        # random connected pair: the path disks cover the slab between them
        reachable = [i for i in range(inst.n) if part.level[i] != math.inf]
        if len(reachable) < 2:
            continue
        a, b = rng.sample(reachable, 2)
        if pts[a].x > pts[b].x:
            a, b = b, a
        path = _bfs_path(graph, a, b)
        if path is None:
            continue
        paths_checked += 1
        lo, hi = pts[a].x - 0.5, pts[b].x + 0.5
        for q in range(inst.n):
            if lo <= pts[q].x <= hi:
                if all(dist2(pts[q], pts[v]) > 1.0 for v in path):
                    return False, f"seed {s}: point {q} escapes the path slab"
    return True, f"1000 instances, {paths_checked} slab coverage checks"


def _bfs_path(graph, a, b):
    prev = {a: a}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            break
        for v in graph.adj[u]:
            if v not in prev:
                prev[v] = u
                queue.append(v)
    if b not in prev:
        return None
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return path


# SVG fixtures: (builder, sha256 of the rendered bytes)
def _fixture_chain():
    inst = io_cli.gen_chain(4, width=0.6)
    return inst, [0, 1, 2]


def _fixture_bundle():
    inst = io_cli.gen_bundle(1, 2)
    return inst, []


def _fixture_random():
    inst = io_cli.gen_random_strip(6, 0.86, seed=1, min_sep=0.05)
    return inst, list(narrow.solve_narrow(inst).active)


SVG_FIXTURES = {
    "chain": _fixture_chain,
    "bundle": _fixture_bundle,
    "random": _fixture_random,
}

SVG_DIGESTS = {
    "chain": "e4b46e12110028d2ae64a4077860f1a67bc67717dc404523d6d9fe6c98d5633d",
    "bundle": "d5171c0c27a7b08b10c32dd03b8dcd812bc8f255b4203c3f53a0094af732be0f",
    "random": "980b1346d8a6d0722c5ba0caf8daa2ca7faea1ba020a2a54ae9265c4b8f0aa25",
}


def render_fixture(name: str) -> str:
    inst, active = SVG_FIXTURES[name]()
    return io_cli.render_svg(inst, active)


def criterion_plumbing():
    """File round trips, auto-vs-brute CLI equality, SVG golden bytes."""
    import hashlib
    import io as _io
    import tempfile
    from contextlib import redirect_stdout

    from . import cli as cli_mod  # deferred: cli imports this module

    for s in range(100):
        if s % 10 == 0:
            inst = io_cli.gen_chain(3 + s % 9, width=0.5 + 0.01 * (s % 30))
        elif s % 10 == 1:
            inst = io_cli.gen_bundle(1 + s % 2, 2 + s % 3)
        else:
            inst = io_cli.gen_random_strip(
                3 + s % 10, 0.3 + 0.05 * (s % 12), 110000 + s, min_sep=0.03
            )
        text = io_cli.serialize_instance(inst)
        back = io_cli.parse_instance(text)
        if back.points != inst.points or back.width != inst.width:
            return False, f"file {s}: round trip not bit-stable"
        if io_cli.serialize_instance(back) != text:
            return False, f"file {s}: second serialization differs"

    with tempfile.TemporaryDirectory() as tmp:
        for s in range(50):
            n = 3 + s % 8
            w = (0.4, 0.7, 1.2)[s % 3]
            inst = io_cli.gen_random_strip(n, w, 120000 + s, min_sep=0.05)
            path = f"{tmp}/case{s}.json"
            io_cli.save_instance(inst, path)
            sizes = {}
            codes = {}
            for algo in ("auto", "brute"):
                buf = _io.StringIO()
                with redirect_stdout(buf):
                    code = cli_mod.main(["solve", path, "--algo", algo])
                codes[algo] = code
                out = buf.getvalue()
                sizes[algo] = (
                    int(out.split("size ", 1)[1].split()[0]) if code == 0 else None
                )
            if codes["auto"] != codes["brute"] or sizes["auto"] != sizes["brute"]:
                return False, f"cli case {s}: auto={sizes['auto']} brute={sizes['brute']}"

    for name, want in SVG_DIGESTS.items():
        got = hashlib.sha256(render_fixture(name).encode()).hexdigest()
        if got != want:
            return False, f"svg fixture {name}: digest {got[:12]} != {want[:12]}"
    return True, "100 round trips, 50 cli agreements, 3 svg fixtures byte-stable"


def criterion_bundle_optimum():
    """Oracle optimum on generated bundles equals 1 + strings * (hops - 1)."""
    for nv in (1, 2):
        for h in (2, 3):
            inst = io_cli.gen_bundle(nv, h)
            want = 1 + nv * (h - 1)
            got = oracle.brute_min_broadcast(inst, hops=h)
            if got.size != want:
                return False, f"bundle nv={nv} h={h}: oracle {got.size} != {want}"
            solved = hopdp.solve_hop(inst, h)
            if solved.size != want:
                return False, f"bundle nv={nv} h={h}: solver {solved.size} != {want}"
    return True, "four bundles at the closed-form optimum"


CRITERIA = [
    ("narrow-optimality", criterion_narrow_optimality),
    ("structure-trichotomy", criterion_structure),
    ("hop-optimality", criterion_hop_optimality),
    ("dp-consistency", criterion_dp_consistency),
    ("two-hop", criterion_two_hop),
    ("wide", criterion_wide),
    ("density-formula", criterion_density_formula),
    ("geometric-invariants", criterion_geometric_invariants),
    ("plumbing", criterion_plumbing),
    ("bundle-optimum", criterion_bundle_optimum),
]


def run_suite(name: str = "all"):
    """Run one suite (or all); returns [(name, ok, detail)] and prints a table."""
    selected = [c for c in CRITERIA if name in ("all", c[0])]
    if not selected:
        raise InstanceError(
            f"unknown suite {name!r}; choose from "
            + ", ".join(c[0] for c in CRITERIA)
        )
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for crit_name, fn in selected:
            try:
                ok, detail = fn()
            except StripcastError as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            results.append((crit_name, ok, detail))
            print(f"{'PASS' if ok else 'FAIL'}  {crit_name}: {detail}")
    return results
