"""Benchmark of the rkhslab command line, one workload per process.

    python3 bench/run.py --workload verify-feature --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
checkout and driven in-process through ``rkhslab.cli.main`` by one client in
a closed loop: each op starts when the previous one returns.  Configs, CSVs,
reports and recovered functions live under ``.bench_scratch/``.  BLAS keeps
its default thread count.

Set-up is import, seeded input generation and a warm-up pass over the same
workload at tiny sizes.  ``setup_s`` is the median over five processes of the
time from process start to the end of set-up: this one and four fresh probe
processes (``--setup-only``) started after it.  Then passes over the op list repeat while the next
one is expected to end within ``--seconds``.  After every pass each op is
checked against the outcome the mathematics predicts (see
``workloads.check``), and its report, minus ``timings``, and recovered
function must be byte-identical to the first pass's.  ``wall_s`` is the wall
time of a typical pass: the sum over ops of each op's median time.

The last line of standard output is one JSON object:
``correct`` is false when an op raised, wrote no readable report, or gave a
report that differs between passes; ``failed`` counts the ops, over all
passes, whose outcome differs from the mathematics, of ``attempted``.
With ``--trace 0`` the metrics are the end-to-end ones, untraced; with
``--trace 1`` passes alternate untraced and traced, and the metrics are the
per-layer span counts and self times of the traced passes.  Traced runs
write their spans to ``.bench_scratch/spans-<workload>-seed<seed>.json``.
"""
import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_scratch"

#: processes whose set-up time ``setup_s`` is the median of
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "fraction",
    "recovery_digits.min": "digits",
}

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny grid sizes, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the seconds from process start to the end of set-up")
    return parser.parse_args(argv)


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
    }


def run_pass(cli, ops, paths, tracer=None):
    """Run every op once; return (seconds per op, CPU seconds, outcomes)."""
    walls, cpu = [], 0.0
    outcomes = []
    for index, (op, where) in enumerate(zip(ops, paths)):
        for key in ("report", "recovered"):
            Path(where[key]).unlink(missing_ok=True)
        if tracer is not None:
            tracer.op = index
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(op.argv(where))
        except (Exception, SystemExit):  # a failed op, not a crashed benchmark
            code, error = None, traceback.format_exc()
        walls.append(time.perf_counter() - t0)
        cpu += time.process_time() - c0
        outcomes.append((code, error))
    return walls, cpu, outcomes


def typical_pass(passes: list[list[float]]) -> float:
    """Wall time of a typical pass: the sum over ops of each op's median time."""
    return sum(statistics.median(times) for times in zip(*passes))


def _digest(report: dict, recovered: Path) -> str:
    stripped = {key: value for key, value in report.items() if key != "timings"}
    h = hashlib.sha256(json.dumps(stripped, sort_keys=True).encode())
    if recovered.exists():
        h.update(recovered.read_bytes())
    return h.hexdigest()


def check_pass(workloads, ops, paths, outcomes, reference, logged):
    """Check one pass; return (failed ops, recovery digits, integrity held).

    ``reference`` holds each op's first digest.  Each distinct failure is
    written to stderr once; ``logged`` remembers them.
    """
    failed, digits, intact = 0, [], True
    for index, (op, where, (code, error)) in enumerate(zip(ops, paths, outcomes)):
        recovered = Path(where["recovered"])
        if error is not None:
            problems, intact = [error.strip()], False
        else:
            try:
                report = json.loads(Path(where["report"]).read_text())
                digest = _digest(report, recovered)
                problems, op_digits = workloads.check(op, code, report, recovered)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems, intact = [f"report or output unreadable: {exc!r}"], False
            else:
                digits += op_digits
                if reference[index] is None:
                    reference[index] = digest
                elif reference[index] != digest:
                    problems.append("report or output differs from the first pass")
                    intact = False
        if problems:
            failed += 1
            message = f"failed op {op.name}: {'; '.join(problems)}\n"
            if message not in logged:
                logged.add(message)
                sys.stderr.write(message)
    return failed, digits, intact


def per_layer_metrics(tracer, traced_ranges, n_ops, plain_walls, traced_walls, cpu_util):
    """Median per-layer metrics over traced passes, each ``(first, last)`` span range."""
    from tracing import BATCHED_SOLVE, LINALG_SPANS, span_names

    summaries = [tracer.summary(first, last) for first, last in traced_ranges]

    def median_of(name, field):
        # counts repeat exactly across passes, so take an actual sample for them
        pick = statistics.median if field == "self_s" else statistics.median_low
        return pick([s[name][field] if name in s else 0 for s in summaries])

    metrics = {}
    for name in span_names():
        present = name not in tracer.missing
        values = {"calls": ("count", "calls"), "self_s": ("s", "self_s")}
        if name == BATCHED_SOLVE[0]:
            values["columns"] = ("count", "extra")
        if name in (f"linalg.{fn}" for fn in LINALG_SPANS):
            values["flops_computed"] = ("flop", "extra")
        for suffix, (unit, field) in values.items():
            entry = {"value": median_of(name, field) if present else None, "unit": unit}
            if not present:
                entry["missing"] = True
            metrics[f"{name}.{suffix}"] = entry
    decompositions = sum(
        metrics[f"linalg.{fn}.calls"]["value"] or 0 for fn in LINALG_SPANS
    )
    metrics["linalg.decompositions_per_op"] = {"value": decompositions / n_ops, "unit": "1/op"}
    metrics["process.cpu_util"] = {"value": cpu_util, "unit": "ratio"}
    plain = typical_pass(plain_walls)
    metrics["trace.overhead_frac"] = {
        "value": (typical_pass(traced_walls) - plain) / plain, "unit": "fraction",
    }
    return metrics


def per_op_counts(tracer, ops, first, last) -> dict:
    """Decompositions per op in one traced pass, for the recorded baseline."""
    counts = {op.name: {"linalg.eigh.calls": 0, "linalg.svd.calls": 0} for op in ops}
    for name, _, _, _, op_index in tracer.spans[first:last]:
        if name in ("linalg.eigh", "linalg.svd"):
            counts[ops[op_index].name][f"{name}.calls"] += 1
    return counts


def set_up(workloads, cli, args, workdir):
    """Generate the inputs, then warm up on the workload at tiny sizes; return (ops, paths)."""
    ops = workloads.build(args.workload, args.seed, tiny=args.tiny)
    paths = workloads.write_inputs(ops, workdir / "inputs")
    warm = workloads.build(args.workload, args.seed, tiny=True)
    run_pass(cli, warm, workloads.write_inputs(warm, workdir / "warmup"))
    return ops, paths


def probe_setup(args) -> float:
    """Set-up seconds of a fresh process on the same workload and seed."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        command.append("--tiny")
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return float(proc.stdout.split()[-1])


def measure(workloads, cli, ops, paths, seconds, tracer=None):
    """Repeat passes while the next one is expected to end within ``seconds``.

    Without a tracer every pass is plain; with one, passes alternate plain
    and traced, at least one of each.  Returns a dict of per-op wall times
    per pass kind, the traced span ranges, op counts and check results.
    """
    kinds = ("plain", "traced") if tracer is not None else ("plain",)
    out = {
        "walls": {kind: [] for kind in kinds}, "traced_ranges": [], "plain_cpu": 0.0,
        "attempted": 0, "failed": 0, "digits": [], "intact": True,
    }
    reference, logged = [None] * len(ops), set()
    start = time.perf_counter()
    for passes in itertools.count(1):
        kind = kinds[(passes - 1) % len(kinds)]
        first = len(tracer.spans) if tracer is not None else 0
        if kind == "traced":
            tracer.active = True
        op_walls, cpu, outcomes = run_pass(cli, ops, paths, tracer)
        if kind == "traced":
            tracer.active = False
            out["traced_ranges"].append((first, len(tracer.spans)))
        else:
            out["plain_cpu"] += cpu
        out["walls"][kind].append(op_walls)
        failed, digits, intact = check_pass(workloads, ops, paths, outcomes, reference, logged)
        out["attempted"] += len(ops)
        out["failed"] += failed
        out["digits"] += digits
        out["intact"] = out["intact"] and intact
        elapsed = time.perf_counter() - start
        if passes >= len(kinds) and elapsed * (passes + 1) / passes > seconds:
            return out


def write_spans(tracer, ops, run, path: Path) -> None:
    first, last = run["traced_ranges"][0]
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({
            "ops": [op.name for op in ops],
            "missing": tracer.missing,
            "per_op": per_op_counts(tracer, ops, first, last),
            "traced_passes": run["traced_ranges"],
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": tracer.spans,
            "extra": tracer.extra,
        }, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rkhslab" / "__init__.py").is_file():
        sys.stderr.write(f"no rkhslab sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("RKHSLAB_SEED", None)  # the program gets only generated inputs

    import rkhslab
    from rkhslab import cli

    import workloads
    from tracing import Tracer

    if not Path(rkhslab.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"rkhslab was imported from {rkhslab.__file__}, not {SRC}\n")
        return 2
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}\n")
        return 2

    probe = "-probe" if args.setup_only else ""
    workdir = SCRATCH / f"{args.workload}-seed{args.seed}{probe}"
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    try:
        ops, paths = set_up(workloads, cli, args, workdir)
        setup_s = time.perf_counter() - _PROCESS_START
        if args.setup_only:
            print(setup_s)
            return 0
        if tracer is None:
            probes = [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
            setup_s = statistics.median([setup_s] + probes)
        else:
            tracer.install()
        run = measure(workloads, cli, ops, paths, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    walls, attempted, failed = run["walls"], run["attempted"], run["failed"]
    sums = [sum(w) for w in walls["plain"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, "
          f"passes {', '.join(f'{k} {len(v)}' for k, v in walls.items())}")
    print(f"  plain pass wall samples (s): {', '.join(f'{w:.4f}' for w in sums)}")
    print(f"  failed_ops_frac {failed / attempted:.4f} fraction "
          f"({failed} of {attempted} ops attempted)")
    if tracer is not None:
        metrics = per_layer_metrics(
            tracer, run["traced_ranges"], len(ops), walls["plain"], walls["traced"],
            run["plain_cpu"] / sum(sums),
        )
        write_spans(tracer, ops, run, SCRATCH / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        values = {
            "wall_s": typical_pass(walls["plain"]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ops_frac": (attempted - failed) / attempted,
            "recovery_digits.min": min(run["digits"], default=0.0),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"  machine {json.dumps(machine_info(), sort_keys=True)}")
    for name, entry in metrics.items():
        print(f"  {name} {entry['value']} {entry['unit']}")
    print(json.dumps({
        "correct": run["intact"], "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
