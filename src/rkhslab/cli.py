"""Command-line front end: verify identities, invert transform data, analyze kernels.

Exit codes: verify returns 0 when every criterion passes, 1 on any identity
failure, 2 on a config problem.  invert returns 0 on success, 2 on config or
data-alignment problems, 3 on a non-injective transform or out-of-range data.
analyze returns 0 after writing the weighted-L2 verdict, 2 on config errors.
Every command returns 4 on a numerical failure: a LAPACK decomposition that
does not converge, or verify trial data outside the numerical kernel range.
The environment variable ``RKHSLAB_SEED`` overrides the config seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import check_weighted_l2
from .config import RunConfig, build_objects, check_seed, load_config
from .errors import ConfigError, GridMismatchError, RangeViolationError
from .features import closed_form_discrepancy
from .io import load_function_csv, save_function_csv
from .kernel import condition_number, spectral_data, validate_psd
from .report import SCHEMA_VERSION, criterion, dump_report, write_report
from .rkhs import POINT_EVAL_SLACK, verify_reproducing
from .transform import (
    InducedKernel,
    check_injectivity,
    invert,
    verify_identities,
)

# fixed tolerances of the verification suite; the config only controls the
# spectral cutoff, PSD/diagonality thresholds, and the range gate
REPRODUCING_TOL = 1e-8
REPRODUCING_TOL_RELAXED = 1e-6
CONDITION_GATE = 1e8
FACTORIZATION_TOL = 1e-14
ISOMETRY_TOL = 1e-8
ROUNDTRIP_TOL = 1e-8
NORM_IDENTITY_TOL = 1e-8
ADJOINTNESS_TOL = 1e-12
PLAIN_ADJOINT_TOL = 1e-6

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_RANGE = 3
EXIT_NUMERICAL = 4


def _conditioning_block(kernel, cutoff_rel):
    spec = spectral_data(kernel, cutoff_rel)
    lam = spec.eigenvalues
    rank = spec.numerical_rank
    cond = condition_number(kernel, cutoff_rel)
    return {
        "size": kernel.size,
        "max_eigenvalue": float(lam[0]),
        "min_eigenvalue": float(lam[-1]),
        "min_eigenvalue_kept": float(lam[rank - 1]) if rank > 0 else None,
        "numerical_rank": rank,
        "condition_number": cond,
        "cutoff": spec.cutoff,
    }, cond


def _diagnostics_block(kernel, cutoff_rel):
    """Which route decomposed the weighted form, the error it certifies, and what decided the rank.

    Call it after the rank or the spectrum is read: on a Cholesky route not
    yet factored, reading the route name factors the unshifted form, and a
    rank query after it could no longer use the certificate's factor.
    """
    eig = kernel.weighted_eigh
    return {
        "decomposition": eig.decomposition,
        "certified_error": eig.certified_error,
        # a Weyl bound, not a computed eigenvalue, on the low-rank route
        "min_eigenvalue_is_bound": eig.decomposition == "low_rank",
        # the shifted Cholesky, not the eigenvalues, decided the rank at this cutoff
        "rank_certified": eig.rank_certified(cutoff_rel),
    }


def _weighted_block(weighted, tol_diag):
    return {
        "is_weighted_l2": weighted.is_weighted_l2,
        "offdiag_ratio": weighted.offdiag_ratio,
        "tolerance": tol_diag,
        "weight_v": None if weighted.weight_v is None else weighted.weight_v.values,
        "weight_w": None if weighted.weight_w is None else weighted.weight_w.values,
    }


def _header(command, config):
    """The leading fields every report shares."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config.echo(),
        "seed": config.seed,
    }


def _bound(name, value, tol, note=None):
    """A criterion that passes when ``value`` is at most ``tol``."""
    return criterion(name, value, tol, value <= tol, note=note)


def _skip(name, note):
    return criterion(name, None, None, None, note=note)


def run_verify(config: RunConfig):
    """Build the declared objects and run the full identity suite.

    Returns ``(exit_code, report_dict)``.
    """
    timings: dict[str, float] = {}
    started = time.perf_counter()
    built = build_objects(config)
    timings["build_s"] = time.perf_counter() - started

    kernel = built.kernel
    criteria = []
    flags = []
    identities = {}

    transform_source = isinstance(kernel, InducedKernel)
    if transform_source:
        # the readers of an induced gram run before the decomposition, which
        # releases it on the cholesky route.  The identity suite reads it last,
        # then decomposes, so transform_suite_s covers the factorization
        # residual and the decomposition; every later step reads the kernel
        # through its feature map and its kept diagonal
        weighted = check_weighted_l2(kernel, config.tol_diag)
        gap = None if built.family is None else closed_form_discrepancy(built.family, kernel)
        t_transform = time.perf_counter()
        idrep = verify_identities(kernel, config.cutoff_rel, config.trials, config.seed)
        transform_suite_s = time.perf_counter() - t_transform

    psd = validate_psd(kernel, config.tol_psd)
    criteria.append(
        criterion(
            "psd",
            psd.min_eigenvalue,
            config.tol_psd,
            psd.passed,
            note="pass iff min eigenvalue of the weighted form >= -tolerance",
        )
    )
    conditioning, cond = _conditioning_block(kernel, config.cutoff_rel)
    if not transform_source:
        # after the decomposition: a released assembled gram is evaluated again
        # for the reproducing products anyway, and the verdict's row blocks,
        # freed before the decomposition, could stay in the process's heap
        # through it (2.5 MB more at the peak of a CSV kernel at n = 1600)
        weighted = check_weighted_l2(kernel, config.tol_diag)

    if not psd.passed:
        flags.append("kernel failed nonnegative-definiteness; identity suite skipped")
        for name in ("reproducing", "point_eval_bound", "point_eval_equality"):
            criteria.append(_skip(name, "skipped: kernel failed the PSD check"))
    else:
        t_suite = time.perf_counter()
        repro_tol = REPRODUCING_TOL
        repro_note = None
        if cond > CONDITION_GATE:
            repro_tol = REPRODUCING_TOL_RELAXED
            repro_note = (
                f"tolerance relaxed: condition number {cond:.3e} exceeds {CONDITION_GATE:.0e}"
            )
        rep = verify_reproducing(
            kernel, config.cutoff_rel, config.trials, config.seed, config.range_tol
        )
        criteria.append(_bound("reproducing", rep.max_residual, repro_tol, note=repro_note))
        criteria.append(_bound("point_eval_bound", rep.max_excess, POINT_EVAL_SLACK))
        criteria.append(
            _bound("point_eval_equality", rep.section_equality_defect, POINT_EVAL_SLACK)
        )
        identities["reproducing"] = {
            "max_residual": rep.max_residual, "tolerance": repro_tol, "trials": config.trials,
        }
        identities["point_eval"] = {
            "max_excess": rep.max_excess,
            "section_equality_defect": rep.section_equality_defect,
            "tolerance": POINT_EVAL_SLACK,
        }
        timings["rkhs_suite_s"] = time.perf_counter() - t_suite

    injectivity_block = None
    unitary_block = None
    closed_form_block = None
    if transform_source and psd.passed:
        injectivity_block = dataclasses.asdict(check_injectivity(kernel, config.cutoff_rel))
        criteria.append(
            _bound("factorization", idrep.factorization_residual, FACTORIZATION_TOL)
        )
        criteria.append(_bound("adjointness", idrep.adjointness_defect, ADJOINTNESS_TOL))
        if idrep.injective and idrep.condition_number <= CONDITION_GATE:
            criteria.append(_bound("isometry", idrep.isometry_defect, ISOMETRY_TOL))
            criteria.append(_bound("roundtrip", idrep.roundtrip_error, ROUNDTRIP_TOL))
            criteria.append(_bound("norm_identity", idrep.norm_defect, NORM_IDENTITY_TOL))
        else:
            if not idrep.injective:
                note = "skipped: transform is not injective"
                flags.append("transform failed the injectivity check")
            else:
                note = (
                    f"skipped: condition number {idrep.condition_number:.3e} "
                    f"exceeds {CONDITION_GATE:.0e}"
                )
                flags.append("induced kernel too ill-conditioned for strict identity bounds")
            for name in ("isometry", "roundtrip", "norm_identity"):
                criteria.append(_skip(name, note))
        identities["transform"] = {
            "factorization_residual": idrep.factorization_residual,
            "roundtrip_error": idrep.roundtrip_error,
            "isometry_defect": idrep.isometry_defect,
            "norm_defect": idrep.norm_defect,
            "adjointness_defect": idrep.adjointness_defect,
            "condition_number": idrep.condition_number,
            "trials": idrep.trials,
        }
        if idrep.injective:
            plain = idrep.plain_adjoint_error
            equivalence = (plain <= PLAIN_ADJOINT_TOL) == weighted.is_weighted_l2
            unitary_block = {
                "l2_adjoint_error": plain,
                # the round trip on an injective transform is the inverse-kernel adjoint
                "rkhs_adjoint_error": idrep.roundtrip_error,
                "equivalence_holds": equivalence,
            }
            criteria.append(
                criterion(
                    "weighted_l2_equivalence",
                    {"l2_adjoint_error": plain, "is_weighted_l2": weighted.is_weighted_l2},
                    PLAIN_ADJOINT_TOL,
                    equivalence,
                    note="diagonal verdict must match plain-adjoint invertibility",
                )
            )
        if gap is not None:
            closed_form_block = {"max_error": gap}
        timings["transform_suite_s"] = transform_suite_s

    passed = all(c["passed"] is not False for c in criteria)
    timings["total_s"] = time.perf_counter() - started
    report = {
        **_header("verify", config),
        "source_kind": config.source_kind,
        "psd": {
            "passed": psd.passed,
            "min_eigenvalue": psd.min_eigenvalue,
            "tolerance": config.tol_psd,
        },
        "conditioning": conditioning,
        "diagnostics": _diagnostics_block(kernel, config.cutoff_rel),
        "identities": identities,
        "injectivity": injectivity_block,
        "weighted_l2": _weighted_block(weighted, config.tol_diag),
        "unitary_inversion": unitary_block,
        "closed_form": closed_form_block,
        "criteria": criteria,
        "flags": flags,
        "passed": passed,
        "timings": timings,
    }
    return (EXIT_OK if passed else EXIT_FAILED), report


def run_invert(config: RunConfig, data_path, out_path):
    """Invert CSV data against the configured feature source.

    Returns ``(exit_code, report_dict)``; the recovered function is written to
    ``out_path`` whenever the transform is injective, even for out-of-range
    data (the report then flags the violation and the exit code is 3).
    """
    timings: dict[str, float] = {}
    started = time.perf_counter()
    op = build_objects(config).kernel
    if not isinstance(op, InducedKernel):
        raise ConfigError("invert needs a feature source (feature_family or feature CSV)")
    data = load_function_csv(data_path, op.grid_E)

    report = {
        **_header("invert", config),
        "data": str(data_path),
        "output": str(out_path),
        "range_tolerance": config.range_tol,
    }
    # the rank first: its shifted Cholesky is the factor ``invert`` solves with
    inj = check_injectivity(op, config.cutoff_rel)
    report["injectivity"] = dataclasses.asdict(inj)
    report["diagnostics"] = _diagnostics_block(op, config.cutoff_rel)
    if not inj.injective:
        report["error"] = "transform is not injective"
        report["timings"] = {"total_s": time.perf_counter() - started}
        return EXIT_RANGE, report

    result = invert(op, data, config.cutoff_rel, range_tol=None)
    save_function_csv(result.recovered, out_path)
    report["range_residual"] = result.range_residual
    violated = result.range_residual > config.range_tol
    report["range_violation"] = violated
    timings["total_s"] = time.perf_counter() - started
    report["timings"] = timings
    return (EXIT_RANGE if violated else EXIT_OK), report


def run_analyze(config: RunConfig):
    """Weighted-L2 verdict for the configured kernel; returns (exit, report)."""
    started = time.perf_counter()
    built = build_objects(config)
    weighted = check_weighted_l2(built.kernel, config.tol_diag)
    report = {
        **_header("analyze", config),
        "weighted_l2": _weighted_block(weighted, config.tol_diag),
        "timings": {"total_s": time.perf_counter() - started},
    }
    return EXIT_OK, report


def _load_config_with_env(path) -> RunConfig:
    config = load_config(path)
    env_seed = os.environ.get("RKHSLAB_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"RKHSLAB_SEED must be an integer, got {env_seed!r}") from exc
        check_seed(seed)
        config = dataclasses.replace(config, seed=seed)
    return config


def _emit(report: dict, out_path) -> None:
    if out_path:
        write_report(report, out_path)
    else:
        sys.stdout.write(dump_report(report))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkhslab",
        description="Kernel-space identity verification and transform inversion on 1-d grids.",
    )
    parser.add_argument("--version", action="version", version=f"rkhslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full identity suite and write a report")
    p_verify.add_argument("--config", required=True, help="JSON run configuration")
    p_verify.add_argument("--out", help="report path (default: stdout)")

    p_invert = sub.add_parser("invert", help="recover the source function from sampled data")
    p_invert.add_argument("--config", required=True, help="JSON run configuration")
    p_invert.add_argument("--data", required=True, help="CSV of samples on grid E")
    p_invert.add_argument("--out", required=True, help="CSV path for the recovered function")
    p_invert.add_argument("--report", help="optional JSON report path (default: stdout)")

    p_analyze = sub.add_parser("analyze", help="report the weighted-L2 verdict only")
    p_analyze.add_argument("--config", required=True, help="JSON run configuration")
    p_analyze.add_argument("--out", help="report path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config_with_env(args.config)
        if args.command == "verify":
            code, report = run_verify(config)
            _emit(report, args.out)
            return code
        if args.command == "invert":
            try:
                code, report = run_invert(config, args.data, args.out)
            except GridMismatchError as exc:
                sys.stderr.write(f"data error: {exc}\n")
                return EXIT_CONFIG
            _emit(report, args.report)
            return code
        code, report = run_analyze(config)
        _emit(report, args.out)
        return code
    except (np.linalg.LinAlgError, RangeViolationError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
