"""Seeded training benchmark for msignn.

Run from the repository root:

    python3 perfbench/run.py --workload colors-m148 --seed 1 --seconds 20 --trace 0

The run imports msignn from ``src/`` of the current directory, builds the
workload's inputs from ``--seed`` and trains through the public API. It
prints one line per metric, a JSON run record, and, as its last line, the
result object ``{"correct", "attempted", "failed", "metrics"}``.

A run trains several replicates of the workload, each a fresh model on
data from its own seed derived from ``--seed``; ``--seconds`` sets how
many. ``--trace 0`` reports the end-to-end metrics of these untraced
replicates. Every run then replays the first replicate under the tracer
(tracing.py): the replay must reproduce its losses bit for bit, and its
solves give the converged share. ``--trace 1`` trains one untraced
replicate and the traced replay, reports per-layer metrics from the replay
and writes its spans under ``.perfbench_out/``. README.md has the details.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1          # products are at most 16 rows wide; threads only add jitter
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--epochs", type=int, default=None,
                   help="override the workload's epochs per replicate (smoke test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in BLAS_VARS:           # read by BLAS when numpy first loads
        os.environ[var] = str(threads)
    root = Path.cwd()
    src = root / "src" / "msignn"
    if not (src / "__init__.py").is_file():
        print(f"perfbench: no msignn sources at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import msignn
    if Path(msignn.__file__).resolve().parent != src.resolve():
        print(f"perfbench: imported msignn from {msignn.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import bench
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = bench.Bench(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), args.epochs)
    result, record = run.run()
    record["run"].update(nproc=nproc, blas_threads=threads, commit=bench.git_commit(root))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    for name, ok in record["checks"].items():
        if not ok:
            print(f"{args.workload} check failed: {name}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
