"""Every report field and recovered function the benchmark workloads produce.

    python3 tools/report_digest.py

Run from a checkout.  The program is imported from ``src/`` of the checkout
this script sits in, and the op lists come from ``bench/workloads.py`` at
full sizes and seed 101.  Every op runs once through ``rkhslab.cli.main`` in
a temporary directory.  One line is printed per report leaf outside
``timings``, with the temporary directory stripped from the paths the report
echoes, plus one for the recovered CSV when the op wrote one and, for an
in-range ``invert``, one for the digits to which it recovered its source
(``workloads.check``, three decimals):

    <workload> <op> <json.path> <value>
    <workload> <op> recovered_csv <sha256>
    <workload> <op> recovery_digits <digits>

A list entry that carries a ``name`` is addressed by it
(``criteria[point_eval_equality].value``), any other by its index.  A
``diff`` of the output of two checkouts names each report field or recovered
function a change moved, and how far each recovered function moved; a
``diff`` of two runs of one checkout checks that the output is reproducible
across processes.
"""
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 101


def leaves(node, path=""):
    """``(json.path, value)`` for every leaf; an empty container is a leaf."""
    if isinstance(node, dict) and node:
        for key in sorted(node):
            yield from leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list) and node:
        for i, item in enumerate(node):
            label = item["name"] if isinstance(item, dict) and "name" in item else i
            yield from leaves(item, f"{path}[{label}]")
    else:
        yield path, node


def fields(report_path: Path, recovered_path: Path, workdir: Path) -> list[str]:
    """One line per report leaf outside ``timings``, then the recovered CSV's hash."""
    text = report_path.read_text().replace(str(workdir) + os.sep, "")
    report = json.loads(text)
    report.pop("timings", None)
    lines = [f"{path} {json.dumps(value)}" for path, value in leaves(report)]
    if recovered_path.exists():
        lines.append(f"recovered_csv {hashlib.sha256(recovered_path.read_bytes()).hexdigest()}")
    return lines


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
                code = cli.main(op.argv(paths))
                report, recovered = Path(paths["report"]), Path(paths["recovered"])
                lines = fields(report, recovered, workdir)
                if op.command == "invert" and op.source is not None:
                    _, digits = workloads.check(op, code, json.loads(report.read_text()), recovered)
                    lines += [f"recovery_digits {value:.3f}" for value in digits]
                for line in lines:
                    print(workload, op.name, line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
