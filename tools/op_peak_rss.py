"""Peak resident memory of each op of a benchmark workload, each op in a fresh process.

    python3 tools/op_peak_rss.py verify-kernel [--tiny]

Run from a checkout.  The program is imported from ``src/`` of the checkout
this script sits in, and the op list and its inputs come from
``bench/workloads.py`` at seed 101, as in ``tools/report_digest.py``; with
``--tiny`` at the workloads' tiny sizes.  The inputs are written once to a
temporary directory.  Each op then runs through ``rkhslab.cli.main`` in a
process of its own, which reports its peak resident set size.  One line is
printed per op:

    <workload> <op> <peak MB>

A peak counts the interpreter and its imports, not the input generation.
The op with the largest line is the one that sets the workload's
``peak_rss_mb`` in ``bench/run.py``, unless the benchmark's set-up peaks
higher; the benchmark's process adds to each op what it still holds from
its set-up and inputs.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 101

#: writes the inputs of workload argv[1] at seed argv[2], tiny when argv[3] is "tiny", under
#: argv[4]; prints ``[[op name, cli argv], ...]`` as JSON
INPUTS_PROCESS = """
import json, sys
from pathlib import Path
import workloads
if sys.argv[1] not in workloads.WORKLOADS:
    sys.exit(f"unknown workload {sys.argv[1]!r}; one of {workloads.WORKLOADS}")
ops = workloads.build(sys.argv[1], int(sys.argv[2]), tiny=sys.argv[3] == "tiny")
paths = workloads.write_inputs(ops, Path(sys.argv[4]))
print(json.dumps([[op.name, op.argv(p)] for op, p in zip(ops, paths)]))
"""

#: runs ``rkhslab.cli.main`` on the JSON argv in argv[1]; prints the peak resident megabytes
OP_PROCESS = """
import json, resource, sys
from rkhslab import cli
cli.main(json.loads(sys.argv[1]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def run_python(code: str, *args: str) -> str:
    """Standard output of a fresh interpreter that runs ``code`` with ``src/`` and ``bench/`` importable.

    Its standard error passes through.  The peak a process reports counts
    the peak of the process it was started from, so this one imports
    nothing beyond the standard library.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    # the ops get only generated inputs, as in the benchmark
    env.pop("RKHSLAB_SEED", None)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, stdout=subprocess.PIPE,
                          text=True, check=True)
    return proc.stdout


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="a workload of bench/workloads.py")
    parser.add_argument("--tiny", action="store_true", help="the workload's tiny sizes")
    args = parser.parse_args(args)
    with tempfile.TemporaryDirectory() as tmp:
        size = "tiny" if args.tiny else "full"
        try:
            ops = json.loads(run_python(INPUTS_PROCESS, args.workload, str(SEED), size, tmp))
            for name, argv in ops:
                peak = float(run_python(OP_PROCESS, json.dumps(argv)).split()[-1])
                print(args.workload, name, f"{peak:.1f}", flush=True)
        except subprocess.CalledProcessError as exc:
            return exc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
