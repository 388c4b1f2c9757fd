"""Digest of every report and recovered function the benchmark workloads produce.

    python3 tools/report_digest.py

Run from a checkout.  The program is imported from ``src/`` of the checkout
this script sits in, and the op lists come from ``bench/workloads.py`` at
full sizes and seed 101.  Every op runs once through ``rkhslab.cli.main`` in
a temporary directory.  One line per op is printed:

    <workload> <op> <sha256>

The hash covers the report minus ``timings``, with the temporary directory
stripped from the paths it echoes, followed by the bytes of the recovered
CSV when the op wrote one.  Comparing the output of two checkouts shows
whether a change moved any report value or recovered sample; comparing two
runs of one checkout checks that the output is reproducible across processes.
"""
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 101


def digest(report_path: Path, recovered_path: Path, workdir: Path) -> str:
    report = json.loads(report_path.read_text())
    report.pop("timings", None)
    text = json.dumps(report, sort_keys=True).replace(str(workdir) + os.sep, "")
    h = hashlib.sha256(text.encode())
    if recovered_path.exists():
        h.update(recovered_path.read_bytes())
    return h.hexdigest()


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    os.environ.pop("RKHSLAB_SEED", None)

    from rkhslab import cli

    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            workdir = Path(tmp) / workload
            ops = workloads.build(workload, SEED)
            for op, paths in zip(ops, workloads.write_inputs(ops, workdir)):
                cli.main(op.argv(paths))
                line = digest(Path(paths["report"]), Path(paths["recovered"]), workdir)
                print(workload, op.name, line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
