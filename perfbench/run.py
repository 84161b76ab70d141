"""Benchmark of `stripcast solve FILE [--hops H]` on four seeded workloads.

    python3 perfbench/run.py --workload narrow-long --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

One caller in a closed loop calls the CLI's `main` in-process, one solve at a
time, with stdout captured, and checks every answer with the independent
checker in check.py.  Set-up (import stripcast, generate the corpus with the
library's generators, write the instance files) runs SETUP_REPS times, each in
a fresh interpreter, and `setup_s` is their median.  The solves then run in
another fresh interpreter, so peak RSS and import state belong to one
workload.  `--trace 1` replaces the end-to-end metrics with per-layer ones
from tracing.py, plus the tracing overhead.

Solve and set-up times are wall times rescaled to a reference machine speed
by the probe in speed.py, which runs next to every timed call.  The raw wall
times are printed too, and written with everything else the measuring
process reported to .perfbench_work/<workload>/result.json.  fail_frac
(failed / attempted) is printed per workload and carried by the `failed` and
`attempted` fields, not as a metric, because it is 0 whenever the benchmark
is correct.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Workload reasons and the layer-to-metric map are in layers.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 3
SETUP_TIMEOUT_S = 40
MEASURE_TIMEOUT_S = 150


def _config() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    return bench, layers


def _worker(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    reps = 1 if trace else SETUP_REPS
    setups = []
    for rep in range(reps):
        setups.append(_worker(["setup", workload, str(seed), os.path.join(workdir, f"corpus{rep}")], SETUP_TIMEOUT_S))
    _same_corpus(workdir, reps)
    layer_names = [m["name"] for m in bench["per_layer"]] if trace else []
    result = _worker(
        ["measure", workload, str(seed), os.path.join(workdir, "corpus0"), str(seconds), "1" if trace else "0", *layer_names],
        MEASURE_TIMEOUT_S,
    )
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        result["raw"]["setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def _same_corpus(workdir: str, reps: int) -> None:
    """Every set-up repetition must write identical bytes: the corpus is seeded."""
    first = os.path.join(workdir, "corpus0")
    for rep in range(1, reps):
        other = os.path.join(workdir, f"corpus{rep}")
        for name in sorted(os.listdir(first)):
            with open(os.path.join(first, name), "rb") as a, open(os.path.join(other, name), "rb") as b:
                if a.read() != b.read():
                    raise SystemExit(f"set-up repetition {rep} wrote a different {name}")
        shutil.rmtree(other)


def _report(workload: str, result: dict, trace: bool, bench: dict, layers: dict) -> dict:
    """Print the human-readable lines and return the result object for the last line."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload}: {attempted} solves, {failed} failed, fail_frac {failed / attempted:.4f}")
    if result["selfcheck_rejected"]:
        print(f"   self-check rejected {len(result['selfcheck_rejected'])} corrupted answers: "
              + "; ".join(result["selfcheck_rejected"]))
    else:
        print("   self-check skipped: the warm-up answer failed")
    for reason in result["failures"]:
        print(f"   FAILED {reason}")
    print(f"   median speed probe {result['probe_ms']:.3f} ms (reference {speed.REF_S * 1e3:g} ms)")
    if trace:
        top = result["top_self_ms"]
        predicted = layers["predicted_top"][workload]
        verdict = "as predicted" if top[0][0] in predicted else f"predicted {' or '.join(predicted)}"
        print(f"   largest self time: {top[0][0]} ({verdict})")
        for name in result["missing_layers"]:
            print(f"   note: {name} names no traced public function; reported as 0")
        for name, ms in top:
            print(f"     {name:34s} {ms:10.3f} ms/solve")
    else:
        print(f"   samples {attempted}, beyond p90 {result['beyond_p90']}; rung medians (ms): "
              + ", ".join(f"n={n}: {ms:.2f}" for n, ms in result["rung_median_ms"].items()))
        raw = result["raw"]
        print(f"   times below are rescaled to the reference speed; raw wall time: p50 {raw['solve_ms.p50']:.2f} ms, "
              f"p90 {raw['solve_ms.p90']:.2f} ms, {raw['points_per_s']:.1f} points/s, setup {raw['setup_s']:.4f} s")
    for name, m in metrics.items():
        print(f"   {name:40s} {m['value']:14.4f} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    bench, layers = _config()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    trace = args.trace == 1
    print(f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, seed {args.seed}, "
          f"{args.seconds:g} s per workload, trace {args.trace}")
    chosen = names if args.workload == "all" else [args.workload]
    out = {}
    for workload in chosen:
        result = run_workload(workload, args.seed, args.seconds, trace, bench)
        out[workload] = _report(workload, result, trace, bench, layers)
    if args.workload == "all":
        print(json.dumps(out))
    else:
        print(json.dumps(out[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
