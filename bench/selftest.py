"""Quick self-test of the benchmark: every workload at tiny grid sizes.

    python3 bench/selftest.py

Runs ``run.py --tiny`` on each workload, untraced and traced, and checks the
result line's schema, that the metric names and units are exactly those in
``BENCHMARK.json``, that every op outcome matches the oracle except the two
known program defects, and that the oracle itself flags wrong outcomes and
the tracer reports a vanished target as missing.  Exits 0 when all hold.
"""
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: failed share of the ops per workload at the baseline: the weighted
#: orthonormal_diagonal verify and the constant-1e8 verify fail on program
#: defects; a fix of either lowers its workload's share here
EXPECTED_FAILED_FRAC = {"verify-feature": 1 / 4, "verify-kernel": 1 / 6, "invert-analyze": 0.0}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict], workload: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: outputs not intact"
    attempted, failed = result["attempted"], result["failed"]
    assert isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1
    frac = failed / attempted
    assert abs(frac - EXPECTED_FAILED_FRAC[workload]) < 1e-12, f"{workload}: failed {frac}"
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    assert set(got) == set(units), f"{workload}: metric names {sorted(set(got) ^ set(units))}"
    for name, entry in got.items():
        assert entry["unit"] == units[name], f"{workload}: {name} unit {entry['unit']}"
        value = entry["value"]
        assert isinstance(value, (int, float)) and value == value, f"{workload}: {name}={value}"


def check_oracle() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads
    from tracing import Tracer

    op = next(o for o in workloads.build("verify-feature", 1, tiny=True)
              if o.name == "verify:indicator")
    report = {
        "criteria": [{"name": "roundtrip", "passed": True}],
        "psd": {"passed": True},
        "injectivity": {"injective": True},
        "weighted_l2": {"is_weighted_l2": False},
        "identities": {"reproducing": {"max_residual": 1e-12},
                       "transform": {"roundtrip_error": 1e-11}},
    }
    bad, digits = workloads.check(op, 0, report, ROOT / "absent")
    assert not bad and [round(d) for d in digits] == [12, 11], (bad, digits)
    report["injectivity"]["injective"] = False
    report["criteria"].append({"name": "isometry", "passed": False})
    bad, _ = workloads.check(op, 1, report, ROOT / "absent")
    assert len(bad) == 3, bad

    tracer = Tracer()
    tracer._patch("kernel.no_such_function", sys.modules["rkhslab.kernel"], "no_such_function")
    assert tracer.missing == ["kernel.no_such_function"] and not tracer._patches


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(_run(workload, 0), spec["end_to_end"], workload)
        check_result(_run(workload, 1), spec["per_layer"], workload)
        print(f"ok {workload}")
    check_oracle()
    print("ok oracle and tracer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
