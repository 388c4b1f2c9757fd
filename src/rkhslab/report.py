"""Verification report assembly and JSON serialization.

Reports are deterministic for a fixed config and seed: identical runs produce
byte-identical JSON except for the ``timings`` object, which carries all
wall-clock data and nothing else.  Non-finite floats, which JSON cannot
represent, are written as ``null``.
"""
from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

SCHEMA_VERSION = 1


def jsonify(obj: Any) -> Any:
    """Convert numpy scalars/arrays and containers into JSON-clean values."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, complex):
        return {"re": jsonify(obj.real), "im": jsonify(obj.imag)}
    return obj


def criterion(name: str, value, tolerance, passed, note: str | None = None) -> dict:
    """One pass/fail record: every value is paired with its judging tolerance."""
    return {
        "name": name,
        "value": jsonify(value),
        "tolerance": jsonify(tolerance),
        "passed": passed,
        "note": note,
    }


def dump_report(report: dict) -> str:
    return json.dumps(jsonify(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_report(report))


def without_timings(report: dict) -> dict:
    """Copy of a report with the timing fields removed, for byte comparisons."""
    stripped = dict(report)
    stripped.pop("timings", None)
    return stripped
