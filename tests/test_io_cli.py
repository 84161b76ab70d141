import hashlib
import io
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout

import pytest

from stripcast import cli
from stripcast.io_cli import (
    GeneratorError,
    ParseError,
    gen_bundle,
    gen_chain,
    gen_random_strip,
    load_instance,
    parse_instance,
    render_svg,
    save_instance,
    serialize_instance,
)
from stripcast.model import dist2, make_instance
from stripcast.oracle import brute_min_broadcast

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def test_round_trip_bits():
    for seed in range(25):
        inst = gen_random_strip(3 + seed % 9, 0.37 + 0.04 * (seed % 10), seed)
        text = serialize_instance(inst)
        back = parse_instance(text)
        assert back.points == inst.points
        assert back.width == inst.width
        assert back.source == inst.source
        assert serialize_instance(back) == text


def test_serialize_planar_and_hops():
    inst = make_instance([(0, 0), (0.4, 0.1)], hops=3, warn_fragile=False)
    back = parse_instance(serialize_instance(inst))
    assert back.width is None and back.hops == 3


def test_radius_rescaled_on_parse():
    text = """{
  "format": "strip-broadcast-1",
  "width": 2.0,
  "radius": 2,
  "hops": null,
  "source": 0,
  "points": [
    [0, 1],
    [2, 1]
  ]
}
"""
    inst = parse_instance(text)
    assert inst.width == 1.0
    assert inst.points[1].x == 1.0


GOOD_DOC = """{
  "format": "strip-broadcast-1",
  "width": 2.0,
  "radius": 2,
  "hops": null,
  "source": 0,
  "points": [
    [0, 1],
    [2, 1]
  ]
}
"""

BEYOND_DOUBLE = "1" + "0" * 400  # an integer literal float() cannot convert

# Inputs that once escaped as OverflowError, ValueError or RecursionError.
OUT_OF_RANGE = [
    pytest.param(
        lambda d: d.replace("[2, 1]", f"[{BEYOND_DOUBLE}, 1]"),
        "field 'points[1]'",
        id="overflow-coordinate",
    ),
    pytest.param(
        lambda d: d.replace('"width": 2.0', f'"width": {BEYOND_DOUBLE}'),
        "field 'width'",
        id="overflow-width",
    ),
    pytest.param(
        lambda d: d.replace('"radius": 2', f'"radius": {BEYOND_DOUBLE}'),
        "field 'radius'",
        id="overflow-radius",
    ),
    pytest.param(
        lambda d: d.replace("[2, 1]", f"[{'1' * 5000}, 1]"),
        "not valid JSON",
        id="int-digit-limit",
    ),
    pytest.param(lambda d: "[" * 100_000, "nested too deeply", id="deep-nesting"),
]


@pytest.mark.parametrize(
    "mangle,needle",
    [
        (lambda d: d.replace('"format": "strip-broadcast-1"', '"format": "x"'), "format"),
        (lambda d: d.replace('"source": 0', '"source": "a"'), "source"),
        (lambda d: d.replace("[0, 1]", "[0]"), "points[0]"),
        (lambda d: d.replace('"width": 2.0', '"width": "wide"'), "width"),
        (lambda d: d[:-3], "JSON"),
        # JSON true/false load as bool, a subclass of int
        pytest.param(
            lambda d: d.replace('"hops": null', '"hops": true'),
            "field 'hops'",
            id="bool-hops",
        ),
        pytest.param(
            lambda d: d.replace('"source": 0', '"source": false'),
            "field 'source'",
            id="bool-source",
        ),
        pytest.param(
            lambda d: d.replace("[2, 1]", "[true, 1]"),
            "field 'points[1]'",
            id="bool-coordinate",
        ),
        pytest.param(
            lambda d: d.replace('"width": 2.0', '"width": false'),
            "field 'width'",
            id="bool-width",
        ),
        pytest.param(
            lambda d: d.replace('"radius": 2', '"radius": true'),
            "field 'radius'",
            id="bool-radius",
        ),
        *OUT_OF_RANGE,
    ],
)
def test_parse_errors_name_the_field(mangle, needle):
    with pytest.raises(ParseError) as err:
        parse_instance(mangle(GOOD_DOC))
    assert needle in str(err.value)


@pytest.mark.parametrize("mangle,needle", OUT_OF_RANGE)
def test_cli_out_of_range_is_one_error_line(tmp_path, capsys, mangle, needle):
    path = tmp_path / "bad.json"
    path.write_text(mangle(GOOD_DOC), encoding="utf-8")
    code, out = run_cli(["solve", str(path)])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and needle in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_gen_deterministic():
    a = gen_random_strip(12, 0.6, seed=7, min_sep=0.04)
    b = gen_random_strip(12, 0.6, seed=7, min_sep=0.04)
    assert a.points == b.points


def test_gen_single_point():
    inst = gen_random_strip(1, 0.5, seed=0)
    assert inst.n == 1 and inst.points[0].x == 0.0


def test_gen_min_sep_respected():
    inst = gen_random_strip(12, 0.6, seed=7, min_sep=0.1)
    pts = inst.points
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            d = math.sqrt(dist2(pts[i], pts[j]))
            assert d >= 0.1
            assert abs(d - 1.0) >= 1e-6


@pytest.mark.parametrize(
    "min_sep, span, width",
    [(0.05, 25.0, 0.86), (1.3, 400.0, 0.86)],
    ids=["below-radius", "above-radius"],
)
def test_gen_min_sep_respected_beyond_one_window(min_sep, span, width):
    # 400 points over many unit lengths: most pairs are farther apart in x
    # than any separation the generator enforces, and every pair is checked.
    inst = gen_random_strip(400, width, seed=3, min_sep=min_sep, span=span)
    pts = inst.points
    assert inst.n == 400 and max(p.x for p in pts) - min(p.x for p in pts) > 40
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            d = math.sqrt(dist2(pts[i], pts[j]))
            assert d >= min_sep
            assert abs(d - 1.0) >= 1e-6


def test_gen_rejects_impossible():
    with pytest.raises(GeneratorError) as err:
        gen_random_strip(200, 0.2, seed=1, min_sep=0.2, span=1.0)
    assert str(err.value) == "could not place 200 points with min_sep=0.2 in the strip"


# SHA-256 of serialize_instance(gen_random_strip(**kwargs)).  Seeded draws are
# part of the interface: benchmark corpora and acceptance corpora are rebuilt
# from seeds, so a change to the generator must leave these bytes alone.
GEN_DIGESTS = [
    (
        "min-sep-0",
        dict(n=60, width=0.6, seed=11, min_sep=0.0, span=4.0),
        "f1a8543c0a393787c4f56c44f40f595f6772281cd2a3cdda46bde7b4e8fefcf6",
    ),
    (
        "min-sep-0.05",
        dict(n=60, width=0.86, seed=12, min_sep=0.05, span=4.0),
        "d8b3b243f963259da3dea767ce63641469e30a7a771589ce1d05d93cdc9c426a",
    ),
    (
        "min-sep-1.2",
        dict(n=25, width=0.6, seed=13, min_sep=1.2, span=40.0),
        "05bbef2f58c88a475268f14b9be4c6f0691cb71b6ddb504726d1183ee999a339",
    ),
    (
        "one-sided",
        dict(n=60, width=0.3, seed=14, min_sep=0.05, span=4.0, one_sided=True),
        "c0730d2f8a0fa84c82ad3e8628ecfb9e757f4253e19aa616d98c61992c31ab6e",
    ),
    (
        "crowded",
        dict(n=60, width=0.86, seed=18, min_sep=0.05, span=1.5),
        "d5bae3e74a8424e59fcaff93702efd3eb009bbb5d454323aff1233c171ff5bf7",
    ),
    (
        "span-1",
        dict(n=12, width=1.0, seed=15, min_sep=0.05, span=1.0),
        "b0ebfe776d76fda706439406f4895d14eb8aefc33e1c36dce7d149440663b12f",
    ),
    (
        "default-span",
        dict(n=50, width=0.6, seed=16, min_sep=0.05),
        "57d84f9654de68e1566ba485d22076b6bea61d42ff215ef9a3c4cf88f50255d4",
    ),
    (
        "n800-span-n/16",
        dict(n=800, width=0.86, seed=17, min_sep=0.05, span=50.0),
        "5109c45e1c884187e620f07050912dcd7c69a9cd757f85ffaa23541701184d00",
    ),
    (
        "n3200",
        dict(n=3200, width=0.6, seed=0, min_sep=0.05),
        "789633ae9134f6d69e5892d6dcf0f31d5a43480d623c8e3b24ad2f05bcd9bb3f",
    ),
]


@pytest.mark.parametrize(
    "kwargs, digest", [c[1:] for c in GEN_DIGESTS], ids=[c[0] for c in GEN_DIGESTS]
)
def test_gen_random_strip_golden_digest(kwargs, digest):
    text = serialize_instance(gen_random_strip(**kwargs))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_cli_gen_golden_digest(tmp_path):
    path = tmp_path / "big.json"
    code, _ = run_cli(["gen", "--n", "3200", "--seed", "0", "-o", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9a1a046e3453586548f421b613f00f2bec3240dfdb5e0deebc9176ff105c04de"
    )


def test_bundle_counts_and_levels():
    inst = gen_bundle(1, 2)
    assert inst.n == 4
    inst = gen_bundle(2, 3)
    assert inst.n == 11
    part = inst.levels
    assert part.depth == 3


def test_bundle_optimum_formula():
    for nv in (1, 2):
        for h in (2, 3):
            inst = gen_bundle(nv, h)
            assert brute_min_broadcast(inst, hops=h).size == 1 + nv * (h - 1)


def test_bundle_rejects_oversize():
    with pytest.raises(GeneratorError):
        gen_bundle(5, 3)
    with pytest.raises(GeneratorError):
        gen_bundle(1, 1)


def test_chain_generator():
    inst = gen_chain(5, width=0.6)
    g = inst.graph
    for i in range(4):
        assert i + 1 in g.adj[i]
    assert 2 not in g.adj[0]


def test_svg_is_valid_and_counts_elements(tmp_path):
    inst = gen_random_strip(6, 0.86, seed=1, min_sep=0.05)
    svg = render_svg(inst, [0, 2, 4])
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    disks = [c for c in circles if c.get("class") == "disk"]
    markers = [c for c in circles if c.get("class") in ("pt", "src")]
    assert len(disks) == 3
    assert len(markers) == inst.n
    strip_lines = [el for el in root.iter() if el.get("class") == "strip"]
    assert len(strip_lines) == 2


def test_svg_bytes_deterministic():
    inst = gen_random_strip(6, 0.86, seed=1, min_sep=0.05)
    assert render_svg(inst, [0, 2]) == render_svg(inst, [0, 2])


def test_svg_golden_files():
    from stripcast.acceptance import SVG_FIXTURES, render_fixture

    for name in SVG_FIXTURES:
        with open(os.path.join(GOLDEN, f"{name}.svg"), "r", encoding="utf-8") as fh:
            assert render_fixture(name) == fh.read()


def test_cli_solve_single_point(tmp_path):
    path = str(tmp_path / "one.json")
    save_instance(make_instance([(0.0, 0.25)], width=0.5), path)
    code, out = run_cli(["solve", path])
    assert code == 0
    assert out.splitlines()[0] == "size 1"


def test_cli_solve_infeasible_exit_code(tmp_path):
    path = str(tmp_path / "disc.json")
    save_instance(
        make_instance([(0.0, 0.25), (9.0, 0.25)], width=0.5, warn_fragile=False),
        path,
    )
    code, out = run_cli(["solve", path])
    assert code == 2
    assert out.startswith("infeasible:")
    assert out.splitlines()[1] == "witness: 1"


def test_cli_solve_error_exit_code(tmp_path):
    code, _ = run_cli(["solve", str(tmp_path / "missing.json")])
    assert code == 1


@pytest.mark.parametrize(
    "argv, needle",
    [
        ("solve wide.json", "holds 17 candidate points (cap 16)"),
        ("solve wide.json --algo brute", "oracle refuses n=30 > max_n=16"),
        ("solve wide.json --algo narrow", "requires a strip of width <= sqrt(3)/2"),
        ("solve chain5.json --hops 0", "hop bound must be >= 1"),
        ("solve planar.json --hops 0", "hop bound must be >= 1"),
        ("solve planar.json --hops -1", "hop bound must be >= 1"),
        ("solve wide.json --hops 0", "hop bound must be >= 1"),
        ("solve wide.json --hops -1", "hop bound must be >= 1"),
        (
            "solve chain6.json --algo narrow --hops 2",
            "--algo narrow ignores the hop bound: its set needs 5 hops > 2",
        ),
        (
            "solve chain6.json --algo wide --hops 2",
            "--algo wide ignores the hop bound: its set needs 5 hops > 2",
        ),
        ("solve .", "Is a directory"),
        ("solve latin1.json", "not UTF-8 text"),
        ("bench --suite nope", "unknown suite 'nope'"),
        (
            "solve chain6.json --algo two-hop",
            "--algo two-hop needs hop bound 2, got no hop bound",
        ),
        (
            "solve chain6.json --algo two-hop --hops 5",
            "--algo two-hop needs hop bound 2, got hop bound 5",
        ),
    ],
    ids=[
        "window-cap", "oracle-size", "narrow-on-wide", "hops-zero",
        "hops-zero-planar", "hops-negative-planar", "hops-zero-wide",
        "hops-negative-wide",
        "narrow-over-hop-bound", "wide-over-hop-bound", "directory",
        "not-utf8", "unknown-suite", "two-hop-unbounded", "two-hop-other-bound",
    ],
)
def test_cli_typed_refusal_is_one_error_line(
    tmp_path, monkeypatch, capsys, argv, needle
):
    monkeypatch.chdir(tmp_path)
    save_instance(gen_random_strip(30, 1.0, 0, min_sep=0.05, span=2), "wide.json")
    save_instance(gen_chain(5, width=0.6), "chain5.json")
    save_instance(gen_chain(6, width=0.6), "chain6.json")
    save_instance(
        make_instance([(0.0, 0.0), (0.8, 0.0), (1.6, 0.0)], warn_fragile=False),
        "planar.json",
    )
    (tmp_path / "latin1.json").write_bytes(b'{"format": "caf\xe9"}')
    code, out = run_cli(argv.split())
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and needle in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


NO_HASHLIB_SCRIPT = """
import contextlib, io, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
from stripcast import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["solve", sys.argv[2]])
print(code, sorted({"hashlib", "_hashlib"} & (set(sys.modules) - before)))
"""


def test_solve_process_does_not_load_hashlib(tmp_path):
    # hashlib maps OpenSSL's libcrypto; only `bench` (criterion_plumbing) needs it
    path = str(tmp_path / "inst.json")
    save_instance(gen_chain(10, width=0.6), path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", NO_HASHLIB_SCRIPT, src, path],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_cli_two_hop_at_bound_two(tmp_path):
    # A 6-point chain has hop depth 5, so at h = 2 it is truly infeasible.
    path = str(tmp_path / "chain6.json")
    save_instance(gen_chain(6, width=0.6), path)
    code, out = run_cli(["solve", path, "--algo", "two-hop", "--hops", "2"])
    assert code == 2
    assert out.splitlines()[0] == (
        "infeasible: a point outside the source disk is coverable by no candidate disk"
    )


def test_cli_auto_vs_brute(tmp_path):
    for seed in range(20):
        n = 3 + seed % 8
        w = (0.4, 0.7, 1.2)[seed % 3]
        inst = gen_random_strip(n, w, 900 + seed, min_sep=0.05)
        path = str(tmp_path / f"i{seed}.json")
        save_instance(inst, path)
        got = {}
        for algo in ("auto", "brute"):
            code, out = run_cli(["solve", path, "--algo", algo])
            got[algo] = (code, out.splitlines()[0] if code == 0 else None)
        assert got["auto"] == got["brute"]


def test_cli_auto_hop_dispatch(tmp_path):
    inst = gen_chain(4, width=0.6)
    path = str(tmp_path / "chain.json")
    save_instance(inst, path)
    code, out = run_cli(["solve", path, "--hops", "3"])
    assert code == 0 and out.splitlines()[0] == "size 3"
    code, out = run_cli(["solve", path, "--hops", "2"])
    assert code == 2
    assert out.splitlines()[0] == "infeasible: points at hop level t=3 exceed the bound h=2"
    # the next call carries no hop bound over from this one
    code, out = run_cli(["solve", path])
    assert code == 0 and out.splitlines()[0] == "size 3"


def test_cli_verify(tmp_path):
    inst = gen_chain(4, width=0.6)
    path = str(tmp_path / "chain.json")
    save_instance(inst, path)
    code, out = run_cli(["verify", path, "--set", "0,1,2,3"])
    assert code == 0
    assert "dominating: True" in out
    code, out = run_cli(["verify", path, "--set", "0,1"])
    assert code == 1


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize(
    "value, needle",
    [
        ("-1", "index -1 out of range 0..4"),
        ("7", "index 7 out of range 0..4"),
        ("a,b", "comma-separated index list"),
    ],
    ids=["negative", "past-the-end", "not-integers"],
)
def test_cli_set_is_checked(tmp_path, capsys, command, value, needle):
    path = str(tmp_path / "chain.json")
    save_instance(gen_chain(5, width=0.6), path)
    out_svg = tmp_path / "out.svg"
    args = [command, path, "--set", value]
    if command == "render":
        args += ["-o", str(out_svg)]
    code, _ = run_cli(args)
    assert code == 1
    assert needle in capsys.readouterr().err
    assert not out_svg.exists()


@pytest.mark.parametrize("hops", ["-3", "0"])
def test_cli_gen_rejects_hops_below_one(tmp_path, capsys, hops):
    path = tmp_path / "chain.json"
    code, _ = run_cli(
        ["gen", "--kind", "chain", "--n", "3", "--hops", hops, "-o", str(path)]
    )
    assert code == 1
    assert "--hops must be a positive integer" in capsys.readouterr().err
    assert not path.exists()


def test_cli_gen_solve_render(tmp_path):
    path = str(tmp_path / "gen.json")
    code, _ = run_cli(
        ["gen", "--kind", "random-strip", "--n", "8", "--width", "0.6",
         "--seed", "5", "--min-sep", "0.05", "-o", path]
    )
    assert code == 0
    inst = load_instance(path)
    assert inst.n == 8
    out_svg = str(tmp_path / "out.svg")
    code, _ = run_cli(["render", path, "--set", "0", "-o", out_svg])
    assert code == 0
    with open(out_svg, "r", encoding="utf-8") as fh:
        ET.fromstring(fh.read())


def test_cli_gen_bundle_round_trip(tmp_path):
    path = str(tmp_path / "bundle.json")
    code, _ = run_cli(
        ["gen", "--kind", "bundle", "--variables", "2", "--hops", "3", "-o", path]
    )
    assert code == 0
    inst = load_instance(path)
    assert inst.n == 11 and inst.hops == 3


def test_cli_solves_bundle_of_403_points(tmp_path):
    # depth 101 on 403 points: the hop DP runs, as the narrow set breaks the
    # bound, and answers at the bundle formula 1 + 2 * (101 - 1)
    path = str(tmp_path / "bundle.json")
    code, _ = run_cli(
        ["gen", "--kind", "bundle", "--variables", "2", "--hops", "101", "-o", path]
    )
    assert code == 0
    code, out = run_cli(["solve", path, "--hops", "101"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size 201"
    assert lines[2] == "valid: dominating=True connected=True max_hops=101"


def test_cli_bench_single_suite():
    code, out = run_cli(["bench", "--suite", "density-formula"])
    assert code == 0
    assert out.startswith("PASS")


def test_pick_algorithm_preconditions():
    from stripcast.cli import pick_algorithm

    narrow = gen_chain(3, width=0.6)
    assert pick_algorithm(narrow, None) == "narrow"
    assert pick_algorithm(narrow, 2) == "hop"
    wide_inst = make_instance([(0, 0.2)], width=1.4)
    assert pick_algorithm(wide_inst, None) == "wide"
    assert pick_algorithm(wide_inst, 3) == "brute"
    planar = make_instance([(0, 0)], width=None)
    assert pick_algorithm(planar, 2) == "two-hop"
    assert pick_algorithm(planar, None) == "brute"
