"""Seeded corpora for the four workloads.

Every workload has three size rungs with the same number of instances each,
plus one warm-up instance that is solved untimed.  Instances come from the
library's own generators; draws that the checker's independent BFS finds
disconnected, or that do not have their slot's shape, are redrawn.  The same
(workload, seed) always yields the same files, byte for byte.
"""

from __future__ import annotations

import json
import os
import zlib

import check

# Rungs and instances per rung.  Solves run rung-interleaved with equal counts,
# so with three rungs whose costs do not overlap p50 falls inside the middle
# rung and p90 inside the top one, never on a rung boundary.  A run solves
# each instance at most once, so that a cache kept across calls gains nothing
# a user running one solve per process would not see.  The counts let one
# pass over the corpus take about BENCHMARK.json's run_seconds on a 2-vCPU
# x86 machine; narrow-long needs more, because p90 needs 10 samples beyond it.
RUNGS = {
    "narrow-long": (200, 400, 800),
    "hop-dense": (40, 50, 60),
    "planar-2hop": (60, 80, 100),
    "wide-window": (11, 12, 13),
}
PER_RUNG = {"narrow-long": 35, "hop-dense": 45, "planar-2hop": 56, "wide-window": 45}

NARROW_WIDTHS = (0.3, 0.6, 0.86)
HOP_WIDTHS = (0.6, 0.8, 0.86)
WIDE_WIDTHS = (1.0, 1.5)
MIN_SEP = 0.05
MAX_ATTEMPTS = 20000

# hop-dense: strips of length 3 (13 to 20 points per unit length over the
# three rungs) solved with --hops 2, the hop depth of all but about 1% of the
# draws, which are redrawn.  The two-sided DP's cost grows about as the cube
# of (left terminals) x (right terminals) of the last level, so each rung
# fixes the terminal count and keeps the split near even; left to chance, a
# few draws would decide p50 and p90.
HOP_SPAN = 1.5
HOP_DEPTH = 2
HOP_TERMINALS = {40: 12, 50: 16, 60: 20}
HOP_MAX_SPLIT = 4


def _subseed(workload: str, seed: int, slot: int, attempt: int) -> int:
    return zlib.crc32(f"{workload}/{seed}/{slot}/{attempt}".encode())


def _draw(io_cli, acceptance, workload: str, n: int, slot: int, subseed: int):
    if workload == "narrow-long":
        w = NARROW_WIDTHS[slot % len(NARROW_WIDTHS)]
        return io_cli.gen_random_strip(n, w, subseed, min_sep=MIN_SEP, span=n / 16)
    if workload == "hop-dense":
        w = HOP_WIDTHS[slot % len(HOP_WIDTHS)]
        return io_cli.gen_random_strip(n, w, subseed, min_sep=MIN_SEP, span=HOP_SPAN)
    if workload == "planar-2hop":
        return acceptance.gen_planar(n, subseed)
    if workload == "wide-window":
        w = WIDE_WIDTHS[slot % len(WIDE_WIDTHS)]
        # Slot 0 is drawn inside the source window (see _accept).  Uniform
        # points kept only when they all fall there are uniform there, so
        # this is the same distribution without the rejection loop, whose
        # luck-dependent length would make setup_s vary by seed.
        span = 1.0 if slot == 0 else n / 8
        return io_cli.gen_random_strip(n, w, subseed, min_sep=MIN_SEP, span=span)
    raise ValueError(f"unknown workload {workload!r}")


def _accept(workload: str, n: int, slot: int, view: check.Instance) -> tuple[bool, int | None]:
    """Whether a connected draw fits its slot, and the hop bound to solve with."""
    if workload == "planar-2hop":
        return True, 2
    if workload == "wide-window":
        # Slot 0 of each rung fits in the window around the source (all
        # |x| <= 1), the case whose DP keeps 2^(n-1) states and sets the peak
        # memory; every other slot reaches past it, so the frontier slides.
        # Left to chance, 0.3-4% of draws fit, and whether a corpus held one
        # would decide peak_rss_mb.
        one_window = max(abs(x) for x, _ in view.points) <= 1.0
        return one_window == (slot == 0), None
    if workload != "hop-dense":
        return True, None
    levels = view.hop_levels()
    depth = int(max(levels))
    last = [i for i, d in enumerate(levels) if d == depth]
    left = sum(1 for i in last if view.points[i][0] < 0.0)
    split = abs(2 * left - len(last))
    ok = depth == HOP_DEPTH and len(last) == HOP_TERMINALS[n] and split <= HOP_MAX_SPLIT
    return ok, depth


def _checker_view(inst) -> check.Instance:
    return check.Instance([(p.x, p.y) for p in inst.points], inst.source)


def generate(workload: str, seed: int, outdir: str, lap=lambda: None) -> None:
    """Import stripcast, draw the corpus and write it with a manifest.

    ``lap`` is called after each instance file is written.
    """
    from stripcast import acceptance, io_cli

    os.makedirs(outdir, exist_ok=True)
    rungs = RUNGS[workload]
    per_rung = PER_RUNG[workload]
    slots = [(n, slot) for n in rungs for slot in range(per_rung)]
    # The warm-up is one more slot of the smallest rung.
    slots.append((rungs[0], per_rung))
    entries = []
    for n, slot in slots:
        for attempt in range(MAX_ATTEMPTS):
            subseed = _subseed(workload, seed, n * 1000 + slot, attempt)
            inst = _draw(io_cli, acceptance, workload, n, slot, subseed)
            view = _checker_view(inst)
            if check.is_connected(view):
                ok, hops = _accept(workload, n, slot, view)
                if ok:
                    break
        else:
            raise RuntimeError(f"{workload} n={n} slot {slot}: no acceptable draw")
        name = f"n{n}-{slot:03d}.json"
        io_cli.save_instance(inst, os.path.join(outdir, name))
        entries.append({"file": name, "n": n, "hops": hops})
        lap()
    manifest = {
        "workload": workload,
        "seed": seed,
        "rungs": list(rungs),
        "per_rung": per_rung,
        "instances": entries[:-1],
        "warmup": entries[-1],
    }
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
