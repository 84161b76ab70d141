"""Record the reference optimum size of every corpus instance.

    python3 perfbench/make_reference.py

Generates each workload's corpus for seeds 0-19, solves it once through the
CLI and keeps each answer only if the independent checker accepts it.  On
wide-window, whose instances are small enough, the brute-force oracle must
agree as well.  Rerun whenever corpus.py changes: the recorded sizes belong
to the corpus layout they were made from.  The sizes in reference_sizes.json
came from the solvers at the commit that introduced this benchmark, which
agree with the oracle on every acceptance corpus.
"""

from __future__ import annotations

import json
import os
import shutil

import check
import corpus
import worker

OUT = os.path.join(worker.HERE, "reference_sizes.json")
SEEDS = range(20)


def main() -> int:
    worker._use_checkout_source()
    workdir = os.path.join(worker.ROOT, ".perfbench_work", "reference")
    sizes: dict[str, dict[str, list[int]]] = {}
    for workload in corpus.RUNGS:
        for seed in SEEDS:
            shutil.rmtree(workdir, ignore_errors=True)
            corpus.generate(workload, seed, workdir)
            run = worker.Run(workdir, reference=None)
            found = []
            for k in range(len(run.argv)):
                _, code, out = run.solve(k)
                reason = run.checker.check(k, code, out)
                if reason is not None:
                    raise SystemExit(f"{workload} seed {seed} {run.argv[k][1]}: {reason}")
                size = check.parse_answer(out)[0]
                if workload == "wide-window":
                    _oracle_agrees(run.argv[k][1], size)
                found.append(size)
            sizes.setdefault(workload, {})[str(seed)] = found
            print(f"{workload} seed {seed}: {len(found)} sizes", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    lines = ['{"about": "Optimum size per corpus instance, in manifest order with the warm-up last, by workload and seed.",', ' "sizes": {']
    for i, (workload, by_seed) in enumerate(sizes.items()):
        lines.append(f"  {json.dumps(workload)}: {{")
        rows = [f"   {json.dumps(seed)}: {json.dumps(found)}" for seed, found in by_seed.items()]
        lines.append(",\n".join(rows))
        lines.append("  }" + ("," if i + 1 < len(sizes) else ""))
    lines.append(" }}")
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _oracle_agrees(path: str, size: int) -> None:
    from stripcast import io_cli, oracle

    want = oracle.brute_min_broadcast(io_cli.load_instance(path)).size
    if want != size:
        raise SystemExit(f"{path}: solver size {size}, oracle {want}")


if __name__ == "__main__":
    raise SystemExit(main())
