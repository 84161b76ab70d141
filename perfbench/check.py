"""Independent answer checker for `stripcast solve` output.

Stdlib only and free of any stripcast import: it parses the instance file
itself, builds the unit-disk graph with its own grid buckets under the exact
closed-disk predicate ``dx*dx + dy*dy <= 1.0`` (the library's definition), and
decides validity with its own breadth-first searches.  A change to the
library's validator therefore cannot make a wrong answer pass here.
"""

from __future__ import annotations

import json
import math
from collections import deque


class Instance:
    """Points of one instance file, with adjacency under the exact predicate."""

    def __init__(self, points: list[tuple[float, float]], source: int):
        self.points = points
        self.source = source
        self.adj = _adjacency(points)

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def from_text(cls, text: str) -> "Instance":
        doc = json.loads(text)
        if doc.get("radius", 1) != 1:
            raise ValueError("checker expects instance files with radius 1")
        points = [(float(x), float(y)) for x, y in doc["points"]]
        return cls(points, int(doc["source"]))

    def hop_levels(self) -> list[float]:
        """Hop distance of every point from the source over the full graph."""
        return _bfs(self.adj, self.source, relay=None)


def _adjacency(points: list[tuple[float, float]]) -> list[list[int]]:
    # Unit grid buckets only prefilter; the exact predicate decides each pair.
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(points):
        cells.setdefault((math.floor(x), math.floor(y)), []).append(i)
    adj: list[list[int]] = [[] for _ in points]
    for (cx, cy), members in cells.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in cells.get((cx + dx, cy + dy), ()):
                    qx, qy = points[j]
                    for i in members:
                        if i == j:
                            continue
                        px, py = points[i]
                        ex = px - qx
                        ey = py - qy
                        if ex * ex + ey * ey <= 1.0:
                            adj[i].append(j)
    return adj


def _bfs(adj: list[list[int]], src: int, relay) -> list[float]:
    """Hop distances from src; with ``relay`` given only its members forward."""
    dist = [math.inf] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] == math.inf:
                dist[v] = dist[u] + 1
                if relay is None or v in relay:
                    queue.append(v)
    return dist


def is_connected(inst: Instance) -> bool:
    return math.inf not in inst.hop_levels()


def check_set(inst: Instance, active: list[int], hops: int | None) -> str | None:
    """None when ``active`` is a broadcast set within ``hops``, else the reason."""
    chosen = set(active)
    if len(chosen) != len(active):
        return "active set repeats an index"
    if any(i < 0 or i >= inst.n for i in chosen):
        return "active index out of range"
    if inst.source not in chosen:
        return "active set misses the source"
    # Inactive points absorb, so a finite distance everywhere means the set
    # dominates and every active point is reached through active relays.
    dist = _bfs(inst.adj, inst.source, relay=chosen)
    if math.inf in dist:
        return "some point is neither active nor adjacent to the relay tree"
    if hops is not None and max(dist) > hops:
        return f"needs {max(dist)} hops, bound is {hops}"
    return None


def parse_answer(stdout: str) -> tuple[int, list[int]]:
    """Reported size and active indices from `stripcast solve` output."""
    lines = stdout.splitlines()
    if len(lines) < 2 or not lines[0].startswith("size ") or not lines[1].startswith("active:"):
        raise ValueError(f"unexpected solve output {stdout[:80]!r}")
    return int(lines[0][5:]), [int(tok) for tok in lines[1][7:].split()]


class AnswerChecker:
    """Checks every answer of a run.

    An answer fails on an exit code other than 0, unparsable output, a
    reported size that differs from the listed set, an invalid set, or a size
    that differs from the reference optimum (when one is recorded).  Each
    instance file is read when its answer is checked, so the checker holds no
    corpus in memory that the solver's peak RSS would count.
    """

    def __init__(self, paths: list[str], hops: list[int | None], reference: list[int] | None):
        self.paths = paths
        self.hops = hops
        self.reference = reference

    def instance(self, k: int) -> Instance:
        with open(self.paths[k], encoding="utf-8") as fh:
            return Instance.from_text(fh.read())

    def check(self, k: int, exit_code: int, stdout: str) -> str | None:
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            size, active = parse_answer(stdout)
        except ValueError as exc:
            return str(exc)
        if size != len(active):
            return f"reported size {size} but listed {len(active)} points"
        reason = check_set(self.instance(k), active, self.hops[k])
        if reason is not None:
            return reason
        if self.reference is not None and size != self.reference[k]:
            return f"size {size}, reference optimum {self.reference[k]}"
        return None


def corruptions(stdout: str, source: int) -> list[tuple[str, int, str]]:
    """Wrong variants of one correct answer, each of which must be rejected."""
    size, active = parse_answer(stdout)
    body = stdout.splitlines()[2:]

    def render(sz: int, act: list[int]) -> str:
        return "\n".join([f"size {sz}", "active: " + " ".join(map(str, act))] + body) + "\n"

    no_source = [i for i in active if i != source]
    return [
        ("unexpected exit code", 1, stdout),
        ("size line disagrees with the set", 0, render(size + 1, active)),
        ("set without the source", 0, render(len(no_source), no_source)),
        # Smaller than an optimum, so invalid or below the reference size.
        ("set one point smaller", 0, render(size - 1, active[:-1])),
    ]
