"""Instance files, seeded generators, and the SVG renderer.

The file format is a small JSON document; coordinates are written with 17
significant digits so parse(serialize(x)) reproduces every double exactly.
Generators are deterministic per seed and avoid pairwise distances within
1e-6 of the radius, so generated graphs never depend on the last ulps.
"""

from __future__ import annotations

import bisect
import json
import math
import random

from .model import InstanceError, StripcastError, StripInstance, make_instance

FORMAT = "strip-broadcast-1"
GEN_SEP_TOL = 1e-6


class ParseError(InstanceError):
    """Instance file is malformed; the message names the offending field."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def serialize_instance(instance: StripInstance, meta: dict | None = None) -> str:
    """Canonical text form; deterministic bytes for a given instance."""
    lines = ["{"]
    lines.append(f'  "format": "{FORMAT}",')
    width = "null" if instance.width is None else _fmt(instance.width)
    lines.append(f'  "width": {width},')
    lines.append('  "radius": 1,')
    hops = "null" if instance.hops is None else str(instance.hops)
    lines.append(f'  "hops": {hops},')
    lines.append(f'  "source": {instance.source},')
    lines.append('  "points": [')
    for i, p in enumerate(instance.points):
        comma = "," if i + 1 < len(instance.points) else ""
        lines.append(f"    [{_fmt(p.x)}, {_fmt(p.y)}]{comma}")
    lines.append("  ]" + ("," if meta else ""))
    if meta:
        packed = json.dumps(meta, sort_keys=True)
        lines.append(f'  "meta": {packed}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def parse_instance(text: str) -> StripInstance:
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise ParseError("not valid JSON: arrays or objects nested too deeply") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past int's digit limit
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    fmt = doc.get("format")
    if fmt != FORMAT:
        raise ParseError(f"field 'format': expected {FORMAT!r}, got {fmt!r}")
    width = doc.get("width")
    if width is not None and not _is_number(width):
        raise ParseError("field 'width': must be a number or null")
    radius = doc.get("radius", 1)
    if not _is_number(radius) or radius <= 0:
        raise ParseError("field 'radius': must be a positive number")
    hops = doc.get("hops")
    if hops is not None and (not _is_int(hops) or hops < 1):
        raise ParseError("field 'hops': must be a positive integer or null")
    source = doc.get("source")
    if not _is_int(source):
        raise ParseError("field 'source': must be an integer index")
    raw = doc.get("points")
    if not isinstance(raw, list) or not raw:
        raise ParseError("field 'points': must be a nonempty list")
    pts = []
    # float() of an int literal beyond double range raises OverflowError;
    # `field` names the value being converted without a call per coordinate.
    field = "width"
    try:
        width = None if width is None else float(width)
        field = "radius"
        radius = float(radius)
        field = "points"
        for i, entry in enumerate(raw):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(_is_number(c) for c in entry)
            ):
                raise ParseError(f"field 'points[{i}]': must be a pair of numbers")
            pts.append((float(entry[0]), float(entry[1])))
    except OverflowError as exc:
        if field == "points":
            field = f"points[{i}]"
        raise ParseError(f"field {field!r}: number beyond double range") from exc
    try:
        return make_instance(
            pts,
            source=source,
            width=width,
            radius=radius,
            hops=hops,
            warn_fragile=False,
        )
    except InstanceError as exc:
        raise ParseError(str(exc)) from exc


def load_instance(path: str) -> StripInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from exc
    return parse_instance(text)


def save_instance(instance: StripInstance, path: str, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_instance(instance, meta))


# --- generators -------------------------------------------------------------


class GeneratorError(StripcastError, RuntimeError):
    """The generator could not satisfy its separation constraints."""


def gen_random_strip(
    n: int,
    width: float,
    seed: int,
    min_sep: float = 0.0,
    span: float | None = None,
    one_sided: bool = False,
) -> StripInstance:
    """Uniform points in [-span, span] x [0, width], source first at x = 0.

    Rejects points within min_sep of an existing point and points whose
    distance to an existing point is within 1e-6 of the radius.  With
    ``one_sided`` the x-range is [0, span], leaving the source leftmost.

    A point can reject a candidate only if their x-gap is below
    max(min_sep, 1 + 1e-6), since the distance is at least the x-gap.  So
    each candidate is tested, with the same distance predicate, only
    against the placed points within that reach in x (widened by a 0.1%
    margin), found by bisection in an x-sorted copy.  A draw costs
    O(n * k), k the number of placed points within reach, instead of
    O(n^2).  The random draws, and so the output, are those of testing
    every placed point.
    """
    if n < 1:
        raise GeneratorError("need n >= 1")
    if width <= 0:
        raise GeneratorError("width must be positive")
    if min_sep < 0:
        raise GeneratorError("min_sep must be nonnegative")
    rng = random.Random(seed)
    if span is None:
        span = max(1.0, 0.25 * n)
    lo = 0.0 if one_sided else -span
    reach = max(min_sep, 1.0 + GEN_SEP_TOL) * 1.001
    pts: list[tuple[float, float]] = [(0.0, rng.uniform(0.0, width))]
    xs = [0.0]  # x of every placed point, ascending
    by_x = list(pts)  # the placed points in the order of xs
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 2000 * n:
            raise GeneratorError(
                f"could not place {n} points with min_sep={min_sep} in the strip"
            )
        cand = (rng.uniform(lo, span), rng.uniform(0.0, width))
        cx, cy = cand
        first = bisect.bisect_left(xs, cx - reach)
        last = bisect.bisect_right(xs, cx + reach)
        ok = True
        for qx, qy in by_x[first:last]:
            d = math.hypot(cx - qx, cy - qy)
            if d < min_sep or abs(d - 1.0) < GEN_SEP_TOL:
                ok = False
                break
        if ok:
            pts.append(cand)
            k = bisect.bisect_right(xs, cx)
            xs.insert(k, cx)
            by_x.insert(k, cand)
    return make_instance(pts, source=0, width=width, warn_fragile=False)


def gen_chain(n: int, width: float = 0.8, step: float = 0.95) -> StripInstance:
    """n collinear points spaced by step at mid-strip height, source leftmost."""
    if n < 1:
        raise GeneratorError("need n >= 1")
    if not 0.0 < step <= 1.0 - GEN_SEP_TOL:
        raise GeneratorError("step must be in (0, 1) away from the radius")
    y = width / 2.0
    pts = [(i * step, y) for i in range(n)]
    return make_instance(pts, source=0, width=width, warn_fragile=False)


# Bundle geometry: strings of paired rows fanning out of the source, one
# column per hop level, one shared endpoint per string after the last column.
_BUNDLE_ROW_GAP = 0.085
_BUNDLE_COL_GAP = 0.999
_BUNDLE_END_GAP = 0.995
_BUNDLE_MAX_STRINGS = 4


def gen_bundle(n_strings: int, hops: int) -> StripInstance:
    """Stress instance: (2h-1)n + 1 points in h levels.

    The source is adjacent to the whole first column; columns are cliques;
    consecutive columns connect row-to-row; each string's two rows converge
    to one endpoint behind the last column.  A minimum h-hop broadcast uses
    the source plus one full row per string: 1 + n(h-1) points.
    """
    if n_strings < 1 or hops < 2:
        raise GeneratorError("need n_strings >= 1 and hops >= 2")
    if n_strings > _BUNDLE_MAX_STRINGS:
        raise GeneratorError(
            f"bundle geometry supports at most {_BUNDLE_MAX_STRINGS} strings"
        )
    gap = _BUNDLE_ROW_GAP
    rows = 2 * n_strings
    y0 = 0.1
    half_span = gap * (rows - 1) / 2.0
    x_col1 = math.sqrt(0.98 - half_span * half_span)
    width = math.sqrt(3.0) / 2.0

    pts: list[tuple[float, float]] = [(0.0, y0 + half_span)]
    for col in range(1, hops):
        x = x_col1 + (col - 1) * _BUNDLE_COL_GAP
        for r in range(rows):
            pts.append((x, y0 + r * gap))
    x_end = x_col1 + (hops - 2) * _BUNDLE_COL_GAP + _BUNDLE_END_GAP
    for v in range(n_strings):
        pts.append((x_end, y0 + (2 * v) * gap + gap / 2.0))
    inst = make_instance(pts, source=0, width=width, warn_fragile=False)
    _check_bundle_adjacency(inst, n_strings, hops)
    return inst


def gen_mirrored_bundle(n_strings: int, hops: int) -> StripInstance:
    """``gen_bundle(n_strings, hops)`` plus its mirror image across the
    source's x: both sides need one full row per string, so a minimum h-hop
    broadcast has 1 + 2n(h-1) points."""
    pts = [(p.x, p.y) for p in gen_bundle(n_strings, hops).points]
    pts += [(-x, y) for x, y in pts[1:]]
    return make_instance(pts, source=0, width=math.sqrt(3.0) / 2.0, warn_fragile=False)


def _check_bundle_adjacency(inst: StripInstance, n_strings: int, hops: int) -> None:
    """The generated coordinates must realize exactly the intended pattern."""
    rows = 2 * n_strings
    graph = inst.graph

    def col_index(col: int, r: int) -> int:
        return 1 + (col - 1) * rows + r

    def end_index(v: int) -> int:
        return 1 + (hops - 1) * rows + v

    n = inst.n
    expect: set[tuple[int, int]] = set()
    for r in range(rows):
        expect.add((0, col_index(1, r)))
    for col in range(1, hops):
        for a in range(rows):
            for b in range(a + 1, rows):
                expect.add((col_index(col, a), col_index(col, b)))
    for col in range(1, hops - 1):
        for r in range(rows):
            expect.add((col_index(col, r), col_index(col + 1, r)))
    for v in range(n_strings):
        expect.add((col_index(hops - 1, 2 * v), end_index(v)))
        expect.add((col_index(hops - 1, 2 * v + 1), end_index(v)))
    for a in range(n_strings):
        for b in range(a + 1, n_strings):
            expect.add((end_index(a), end_index(b)))
    actual = {
        (i, j) for i in range(n) for j in graph.adj[i] if i < j
    }
    if actual != expect:
        missing = expect - actual
        extra = actual - expect
        raise GeneratorError(
            f"bundle adjacency mismatch: missing {sorted(missing)[:4]}, "
            f"unexpected {sorted(extra)[:4]}"
        )


# --- SVG --------------------------------------------------------------------

SVG_SCALE = 100.0  # pixels per unit length
SVG_PAD = 1.3  # world-unit padding around the bounding box


def render_svg(instance: StripInstance, active=None) -> str:
    """Deterministic SVG 1.1 picture of the instance and an optional set.

    One marker circle per input point, one unit-disk circle per active point,
    the source highlighted, the strip boundary drawn when the width is
    finite.  Fixed two-decimal pixel coordinates keep the bytes stable.
    """
    pts = instance.points
    act = sorted(set(active.active if hasattr(active, "active") else active or ()))
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    x0, x1 = min(xs) - SVG_PAD, max(xs) + SVG_PAD
    y0 = min(0.0, min(ys)) - SVG_PAD
    y1 = max(instance.width if instance.width is not None else max(ys), max(ys)) + SVG_PAD
    w_px = (x1 - x0) * SVG_SCALE
    h_px = (y1 - y0) * SVG_SCALE

    def px(x: float) -> str:
        return f"{(x - x0) * SVG_SCALE:.2f}"

    def py(y: float) -> str:
        return f"{(y1 - y) * SVG_SCALE:.2f}"

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w_px:.2f}" height="{h_px:.2f}" '
        f'viewBox="0 0 {w_px:.2f} {h_px:.2f}">'
    )
    out.append('<rect width="100%" height="100%" fill="white"/>')
    if instance.width is not None:
        for yb in (0.0, instance.width):
            out.append(
                f'<line class="strip" x1="{px(x0 + 0.05)}" y1="{py(yb)}" '
                f'x2="{px(x1 - 0.05)}" y2="{py(yb)}" '
                'stroke="black" stroke-width="3"/>'
            )
    for i in act:
        p = pts[i]
        out.append(
            f'<circle class="disk" cx="{px(p.x)}" cy="{py(p.y)}" '
            f'r="{SVG_SCALE:.2f}" fill="steelblue" fill-opacity="0.15" '
            'stroke="steelblue" stroke-width="1"/>'
        )
    for i, p in enumerate(pts):
        if i == instance.source:
            continue
        out.append(
            f'<circle class="pt" cx="{px(p.x)}" cy="{py(p.y)}" r="3.00" '
            'fill="black"/>'
        )
    sp = pts[instance.source]
    out.append(
        f'<circle class="src" cx="{px(sp.x)}" cy="{py(sp.y)}" r="5.00" '
        'fill="forestgreen"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
