"""In-memory span tracing of rkhslab's layers, installed by patching.

The benchmark records spans from its own files: ``Tracer.install`` replaces
each traced function with a wrapper wherever an ``rkhslab`` module binds it.
Modules import names directly (``cli``, ``transform`` and ``analysis`` all
bind ``kernel._solve_columns``), so every module attribute that is the same
function object is patched, not only the defining one.  ``numpy.linalg.eigh``
and ``numpy.linalg.svd`` get spans too, with a flop count computed from the
operand shape.

A span is ``[name, start, end, parent, op]``; self time is its duration
minus the time its child spans cover.  A target that no longer exists is
listed in ``missing`` and its metrics are reported as missing, never as 0.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

#: traced functions per layer; each yields ``<layer>.<function>.{calls,self_s}``
LAYER_SPANS = {
    "cli": ("main", "run_verify", "run_invert", "run_analyze"),
    "config": ("load_config", "build_objects"),
    "grid": ("make_uniform_grid",),
    "features": ("make_feature_map", "closed_form_discrepancy"),
    "kernel": ("assemble_kernel", "kernel_from_gram", "validate_psd", "spectral_data",
               "condition_number", "solve_kernel_system", "range_residual"),
    "rkhs": ("make_rkhs_space", "reproducing_residuals", "rkhs_inner"),
    "transform": ("build_transform", "check_injectivity", "verify_identities", "invert"),
    "analysis": ("check_weighted_l2", "check_unitary_inversion"),
    "io": ("load_function_csv", "save_function_csv", "load_kernel_csv", "load_feature_csv"),
    "report": ("write_report",),
}

#: the batched pseudo-inverse solve, traced under its own name with a column count
BATCHED_SOLVE = ("kernel.batched_solve", "kernel", "_solve_columns")

LINALG_SPANS = ("eigh", "svd")


def _eigh_flops(a, *args, **kwargs) -> float:
    # Golub & Van Loan: symmetric QR with eigenvectors, ~9 n^3; complex x4
    n = np.shape(a)[-1]
    return 9.0 * n**3 * (4.0 if np.iscomplexobj(a) else 1.0)


def _svd_flops(a, full_matrices=True, compute_uv=True, *args, **kwargs) -> float:
    # Golub & Van Loan, m >= n: values only 4mn^2 - 4n^3/3; with full U and
    # V (Golub-Reinsch) 4m^2 n + 8mn^2 + 9n^3; thin R-SVD 6mn^2 + 11n^3
    m, n = np.shape(a)[-2:]
    m, n = max(m, n), min(m, n)
    if not compute_uv:
        flops = 4.0 * m * n**2 - 4.0 * n**3 / 3.0
    elif full_matrices:
        flops = 4.0 * m**2 * n + 8.0 * m * n**2 + 9.0 * n**3
    else:
        flops = 6.0 * m * n**2 + 11.0 * n**3
    return flops * (4.0 if np.iscomplexobj(a) else 1.0)


def _columns(kernel, rhs, *args, **kwargs) -> float:
    return 1.0 if np.ndim(rhs) == 1 else float(np.shape(rhs)[1])


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in LAYER_SPANS.items() for fn in fns]
    return names + [BATCHED_SOLVE[0]] + [f"linalg.{fn}" for fn in LINALG_SPANS]


class Tracer:
    """Patches the traced functions and keeps their spans in memory.

    Spans are recorded only while ``active`` is true, tagged with the current
    ``op`` id; ``extra`` holds each span's computed count (solve columns or
    flops) where the target has one.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.extra: dict[int, float] = {}
        self.missing: list[str] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, counter=None):
        spans, extra, stack = self.spans, self.extra, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            if counter is not None:
                extra[index] = counter(*args, **kwargs)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def _patch(self, name, home, attr, counter=None):
        original = getattr(home, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapper = self._wrap(name, original, counter)
        homes = [home] + [m for key, m in list(sys.modules.items())
                          if key.startswith("rkhslab") and m is not home]
        for module in homes:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    def install(self) -> None:
        for layer, fns in LAYER_SPANS.items():
            module = sys.modules[f"rkhslab.{layer}"]
            for fn in fns:
                self._patch(f"{layer}.{fn}", module, fn)
        name, layer, attr = BATCHED_SOLVE
        self._patch(name, sys.modules[f"rkhslab.{layer}"], attr, _columns)
        self._patch("linalg.eigh", np.linalg, "eigh", _eigh_flops)
        self._patch("linalg.svd", np.linalg, "svd", _svd_flops)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def self_times(self, first: int, last: int) -> list[float]:
        """Self time of spans ``first:last``: duration minus child-span time."""
        spans = self.spans[first:last]
        own = [s[2] - s[1] for s in spans]
        for s in spans:
            parent = s[3] - first
            if 0 <= parent < len(spans):
                own[parent] -= s[2] - s[1]
        return own

    def summary(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Calls, self seconds and summed counts per span name over a span range."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "extra": 0.0}
        )
        for offset, own in enumerate(self.self_times(first, last)):
            index = first + offset
            entry = out[self.spans[index][0]]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["extra"] += self.extra.get(index, 0.0)
        return out
