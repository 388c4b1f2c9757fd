"""Median wall time of each op of a benchmark workload, all ops in one warmed process.

    python3 tools/op_wall.py verify-feature [--tiny]

Run from a checkout.  The program is imported from ``src/`` of the checkout
this script sits in, and the op list and its inputs come from
``bench/workloads.py`` at seed 101, as in ``tools/op_peak_rss.py``; with
``--tiny`` at the workloads' tiny sizes.  The inputs are written once to a
temporary directory.  Every op then runs through ``rkhslab.cli.main`` in
this process: one untimed pass over the op list warms it up, then
``PASSES`` timed passes follow.  One line is printed per op, then the sum:

    <workload> <op> <median seconds>
    <workload> total <sum of the medians>

The sum is the quantity ``bench/run.py`` reports as ``wall_s``, here
without the benchmark's set-up and its checks between passes.  An op that
raises stops the script.
"""
import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 101

#: timed passes over the op list, after the warm-up pass
PASSES = 5


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="a workload of bench/workloads.py")
    parser.add_argument("--tiny", action="store_true", help="the workload's tiny sizes")
    args = parser.parse_args(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from rkhslab import cli

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    # the ops get only generated inputs, as in the benchmark
    os.environ.pop("RKHSLAB_SEED", None)
    ops = workloads.build(args.workload, SEED, tiny=args.tiny)
    walls = [[] for _ in ops]
    with tempfile.TemporaryDirectory() as tmp:
        paths = workloads.write_inputs(ops, Path(tmp))
        for timed in [False] + [True] * PASSES:
            for op, where, times in zip(ops, paths, walls):
                start = time.perf_counter()
                cli.main(op.argv(where))
                if timed:
                    times.append(time.perf_counter() - start)
    medians = [statistics.median(times) for times in walls]
    for op, median in zip(ops, medians):
        print(args.workload, op.name, f"{median:.4f}")
    print(args.workload, "total", f"{sum(medians):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
