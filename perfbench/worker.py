"""One benchmark process: `setup` writes a corpus, `measure` solves it.

run.py starts each of these as a fresh interpreter, so the import cost that
setup times and the peak RSS that measure reports belong to one workload.
The last stdout line of either command is one JSON object.

    python3 perfbench/worker.py setup WORKLOAD SEED OUTDIR
    python3 perfbench/worker.py measure WORKLOAD SEED CORPUS SECONDS TRACE LAYERS...
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import check
import corpus
import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))


def _use_checkout_source() -> None:
    """Import stripcast from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)


def _check_source(module) -> None:
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"stripcast imported from {module.__file__}, not from {SRC}")


def cmd_setup(workload: str, seed: int, outdir: str) -> dict:
    _use_checkout_source()
    watch = speed.Stopwatch()
    corpus.generate(workload, seed, outdir, watch.lap)
    watch.lap(final=True)
    _check_source(sys.modules["stripcast"])
    return {"setup_s": watch.scaled, "raw_setup_s": watch.raw}


def _reference(workload: str, seed: int) -> list[int] | None:
    with open(os.path.join(HERE, "reference_sizes.json"), encoding="utf-8") as fh:
        return json.load(fh)["sizes"].get(workload, {}).get(str(seed))


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, by statistics.quantiles' default (exclusive) method."""
    return statistics.quantiles(values, n=100)[q - 1]


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


class Run:
    """The corpus of one workload, the CLI entry point and the answer checker.

    Instances are indexed in manifest order; the warm-up instance comes last.
    """

    def __init__(self, corpus_dir: str, reference: list[int] | None):
        _use_checkout_source()
        import stripcast.cli

        _check_source(stripcast)
        self.cli = stripcast.cli
        with open(os.path.join(corpus_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        self.rungs = manifest["rungs"]
        self.per_rung = manifest["per_rung"]
        entries = manifest["instances"] + [manifest["warmup"]]
        self.warmup = len(entries) - 1
        self.sizes = [e["n"] for e in entries]
        paths = [os.path.join(corpus_dir, e["file"]) for e in entries]
        self.argv = [
            ["solve", path] + ([] if e["hops"] is None else ["--hops", str(e["hops"])])
            for path, e in zip(paths, entries)
        ]
        if reference is not None and len(reference) != len(entries):
            raise SystemExit("reference_sizes.json does not match the corpus layout; rerun make_reference.py")
        self.checker = check.AnswerChecker(paths, [e["hops"] for e in entries], reference)
        self.failures: list[str] = []
        self.probes: list[float] = []
        self._probe: float | None = None

    def solve(self, k: int) -> tuple[float, int, str]:
        """Wall seconds, exit code and stdout of one `stripcast solve` call."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(self.argv[k])
            except Exception as exc:  # an escaped exception is a failed solve
                code = 1
                print(f"raised {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - t0
        return elapsed, code, buf.getvalue()

    def timed(self, k: int) -> tuple[float, float]:
        """Solve and check instance k; its wall seconds, raw and rescaled.

        The solve runs between two speed probes (the previous call's closing
        probe opens the next), which rescale it to the reference speed.
        """
        if self._probe is None:
            self._probe = speed.probe()
            self.probes.append(self._probe)
        elapsed, code, out = self.solve(k)
        after = speed.probe()
        self.probes.append(after)
        scaled = speed.rescale(elapsed, self._probe, after)
        self._probe = after
        reason = self.checker.check(k, code, out)
        if reason is not None:
            self.failures.append(f"{self.argv[k][1]}: {reason}")
        return elapsed, scaled

    def rounds(self):
        """Instance indices of each round, slot j of every rung, each instance once."""
        for j in range(self.per_rung):
            yield [r * self.per_rung + j for r in range(len(self.rungs))]

    def self_check(self) -> list[str]:
        """Solve the warm-up instance untimed; its answer must pass and every corruption fail.

        A rejected warm-up answer is a failed solve; the corruptions are then
        not tried, since they need a correct answer to start from.
        """
        k = self.warmup
        _, code, out = self.solve(k)
        reason = self.checker.check(k, code, out)
        if reason is not None:
            self.failures.append(f"{self.argv[k][1]} (warm-up): {reason}")
            return []
        rejected = []
        for label, bad_code, bad_out in check.corruptions(out, self.checker.instance(k).source):
            if self.checker.check(k, bad_code, bad_out) is None:
                raise SystemExit(f"self-check: corrupted answer ({label}) was accepted")
            rejected.append(label)
        return rejected


def cmd_measure(workload: str, seed: int, corpus_dir: str, seconds: float, trace: bool, layers: list[str]) -> dict:
    run = Run(corpus_dir, _reference(workload, seed))
    rejected = run.self_check()
    result = {"selfcheck_rejected": rejected}
    if trace:
        result.update(_measure_traced(run, seconds, layers, corpus_dir))
    else:
        result.update(_measure_plain(run, seconds))
    # The warm-up solve is checked too, so it counts as attempted.
    result["attempted"] = result.pop("solves") + 1
    result["failed"] = len(run.failures)
    result["probe_ms"] = statistics.median(run.probes) * 1e3
    result["failures"] = run.failures[:10]
    return result


def _measure_plain(run: Run, seconds: float) -> dict:
    """Closed loop over the corpus until `seconds` have passed and 10 samples
    lie beyond p90, or until every instance has been solved once.

    Metrics use the rescaled times (speed.py); the raw wall times are
    reported alongside.
    """
    raw: list[float] = []
    times: list[float] = []
    per_rung: dict[int, list[float]] = {n: [] for n in run.rungs}
    points = 0
    start = time.perf_counter()
    for ks in run.rounds():
        for k in ks:
            elapsed, scaled = run.timed(k)
            raw.append(elapsed)
            times.append(scaled)
            per_rung[run.sizes[k]].append(scaled)
            points += run.sizes[k]
        if time.perf_counter() - start >= seconds and len(times) >= 20:
            p90 = _quantile(times, 90)
            if sum(1 for t in times if t > p90) >= 10:
                break
    p90 = _quantile(times, 90)
    rung_medians = [statistics.median(per_rung[n]) for n in run.rungs]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "solves": len(times),
        "beyond_p90": sum(1 for t in times if t > p90),
        "rung_median_ms": {str(n): m * 1e3 for n, m in zip(run.rungs, rung_medians)},
        "raw": {
            "solve_ms.p50": statistics.median(raw) * 1e3,
            "solve_ms.p90": _quantile(raw, 90) * 1e3,
            "points_per_s": points / sum(raw),
        },
        "metrics": {
            "solve_ms.p50": statistics.median(times) * 1e3,
            "solve_ms.p90": p90 * 1e3,
            "points_per_s": points / sum(times),
            "scaling_exp": _slope(run.rungs, rung_medians),
            "peak_rss_mb": peak_kb / 1024.0,
        },
    }


# Per-layer metrics that _measure_traced computes itself, not from the spans.
OWN_METRICS = frozenset({"trace.overhead_ms", "trace.untraced_ms", "trace.spans", "speed.probe_ms"})


def _measure_traced(run: Run, seconds: float, layers: list[str], corpus_dir: str) -> dict:
    """Rounds alternately untraced and traced, until `seconds` have passed
    or every instance has been solved once.

    Per-layer numbers come from the traced solves only.  The overhead is the
    mean traced solve time minus the mean untraced time, both rescaled to the
    reference speed; the two sets of rounds hold different instances of the
    same rung mix, so it carries their difference as noise.
    """
    import tracing

    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []

    def traced_pass(ks: list[int]) -> None:
        tracer.install()
        try:
            for k in ks:
                tracer.solve_id = len(traced)
                traced.append(run.timed(k)[1])
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    for j, ks in enumerate(run.rounds()):
        if j % 2:
            traced_pass(ks)
        else:
            plain.extend(run.timed(k)[1] for k in ks)
        if j % 2 and time.perf_counter() - start >= seconds:
            break
    totals = tracer.layer_totals()
    tracer.write(os.path.join(os.path.dirname(corpus_dir), "spans"))
    solves = len(traced)
    from_spans = [m for m in layers if m not in OWN_METRICS]
    metrics = {m: tracing.layer_metric(totals, m, solves) for m in from_spans}
    plain_ms = sum(plain) / len(plain) * 1e3
    traced_ms = sum(traced) / solves * 1e3
    metrics["trace.overhead_ms"] = traced_ms - plain_ms
    metrics["trace.untraced_ms"] = plain_ms
    metrics["trace.spans"] = tracer.span_count / solves
    metrics["speed.probe_ms"] = statistics.median(run.probes) * 1e3
    self_ms = {name: t["self_ns"] / 1e6 / solves for name, t in totals.items() if t["calls"]}
    top = sorted(self_ms.items(), key=lambda kv: kv[1], reverse=True)[:5]
    return {
        "solves": solves + len(plain),
        "metrics": metrics,
        "top_self_ms": top,
        "missing_layers": tracing.missing_functions(totals, from_spans),
    }


def main(argv: list[str]) -> int:
    cmd, workload, seed = argv[0], argv[1], int(argv[2])
    if workload not in corpus.RUNGS:
        raise SystemExit(f"unknown workload {workload!r}")
    if cmd == "setup":
        result = cmd_setup(workload, seed, argv[3])
    elif cmd == "measure":
        result = cmd_measure(workload, seed, argv[3], float(argv[4]), argv[5] == "1", argv[6:])
    else:
        raise SystemExit(f"unknown command {cmd!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
