"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Fixtures stay at desk scale (grids up to n = 400) and the whole
module runs in well under a minute.
"""
import json
import math

import numpy as np

import rkhslab as rl
from rkhslab.cli import main
from rkhslab.report import dump_report, without_timings
from conftest import random_range_function

SEED = 20240211


def record(criterion_num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion_num:2d} {name:<34s} {status}  {detail}")
    assert ok, f"criterion {criterion_num} ({name}) failed: {detail}"


def family_fixture(family, n):
    if family == "indicator":
        spec = rl.FeatureFamily("indicator")
        grid_E = rl.make_uniform_grid(0, 1, n, "midpoint")
        grid_T = rl.make_uniform_grid(0, 1, n, "midpoint")
    elif family == "fourier":
        spec = rl.FeatureFamily("fourier", band=math.pi)
        grid_E = rl.make_uniform_grid(0, 1, n, "trapezoid")
        grid_T = rl.make_uniform_grid(-math.pi, math.pi, n, "trapezoid")
    elif family == "gaussian":
        spec = rl.FeatureFamily("gaussian", sigma=0.01)
        a, b = rl.recommended_t_interval(spec, (0.0, 1.0))
        grid_E = rl.make_uniform_grid(0, 1, n, "trapezoid")
        grid_T = rl.make_uniform_grid(a, b, n, "trapezoid")
    else:
        spec = rl.FeatureFamily("orthonormal_diagonal")
        grid_E = rl.make_uniform_grid(0, 1, n, "trapezoid")
        grid_T = rl.make_uniform_grid(0, 1, n, "trapezoid")
    return spec, rl.build_transform(rl.make_feature_map(spec, grid_T, grid_E))


def test_criterion_01_reproducing_property(brownian_space, sinc_space):
    results = []
    for label, space in (("brownian", brownian_space), ("sinc", sinc_space)):
        kernel = space.kernel
        cond = rl.condition_number(kernel, space.cutoff_rel)
        tol = 1e-8 if cond <= 1e8 else 1e-6
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(100):
            f = random_range_function(kernel, rng)
            worst = max(worst, float(rl.reproducing_residuals(space, f).max()))
        results.append((label, worst, tol, cond))
    ok = all(worst <= tol for _, worst, tol, _ in results)
    detail = "; ".join(
        f"{label}: max={worst:.2e} tol={tol:.0e} cond={cond:.2e}"
        for label, worst, tol, cond in results
    )
    record(1, "reproducing-property", ok, detail)


def test_criterion_02_factorization(fourier_op):
    worst = 0.0
    cases = []
    for family in ("indicator", "fourier", "gaussian", "orthonormal_diagonal"):
        for n in (50, 100, 200, 400):
            _, op = family_fixture(family, n)
            rep = rl.verify_identities(op, trials=1, seed=SEED)
            cases.append(rep.factorization_residual)
            worst = max(worst, rep.factorization_residual)
    rep = rl.verify_identities(fourier_op, trials=1, seed=SEED)
    worst = max(worst, rep.factorization_residual)
    record(2, "factorization-K-equals-LLadj", worst <= 1e-14,
           f"max residual {worst:.2e} over {len(cases) + 1} fixtures, tol 1e-14")


def test_criterion_03_isometry(indicator_op, fourier_op, orthonormal_op):
    worst = 0.0
    details = []
    for label, op in (("indicator", indicator_op), ("fourier", fourier_op),
                      ("orthonormal", orthonormal_op)):
        rep = rl.verify_identities(op, trials=100, seed=SEED)
        assert rep.injective and rep.condition_number <= 1e8, (
            f"{label} fixture must be injective with condition <= 1e8"
        )
        worst = max(worst, rep.isometry_defect, rep.norm_defect)
        details.append(f"{label}: isom={rep.isometry_defect:.2e} norm={rep.norm_defect:.2e}")
    record(3, "isometry-of-transform", worst <= 1e-8, "; ".join(details))


def test_criterion_04_roundtrip_identity(indicator_op, fourier_op):
    worst = 0.0
    details = []
    for label, op in (("fourier", fourier_op), ("indicator", indicator_op)):
        rep = rl.verify_identities(op, trials=100, seed=SEED)
        assert rep.injective and rep.condition_number <= 1e8
        worst = max(worst, rep.roundtrip_error)
        details.append(f"{label}: {rep.roundtrip_error:.2e}")
    record(4, "adjoint-inverse-roundtrip", worst <= 1e-8,
           "; ".join(details) + ", tol 1e-8")


def test_criterion_05_inversion(indicator_op, fourier_op, rank_one_op):
    rng = np.random.default_rng(SEED)
    errors = []
    for label, op in (("indicator", indicator_op), ("fourier", fourier_op)):
        complex_mode = np.iscomplexobj(op.feature.matrix)
        raw = rng.standard_normal(op.grid_T.size)
        if complex_mode:
            raw = raw + 1j * rng.standard_normal(op.grid_T.size)
        F0 = rl.DiscreteFunction(raw, op.grid_T)
        f = rl.apply_forward(op, F0)
        result = rl.invert(op, f)
        rel = np.linalg.norm(result.recovered.values - F0.values) / np.linalg.norm(F0.values)
        errors.append((label, rel))
    recover_ok = all(rel <= 1e-6 for _, rel in errors)

    out_of_range = rl.sample_function(rank_one_op.grid_E, lambda p: p)
    try:
        rl.invert(rank_one_op, out_of_range)
        violation_ok, residual = False, 0.0
    except rl.RangeViolationError as err:
        violation_ok, residual = err.residual >= 0.1, err.residual
    detail = ("; ".join(f"{label}: {rel:.2e}" for label, rel in errors)
              + f"; rank-one violation residual {residual:.2f}")
    record(5, "inversion-and-range-detection", recover_ok and violation_ok, detail)


def test_criterion_06_weighted_l2_verdicts(indicator_op, fourier_op, orthonormal_op):
    diag = rl.check_weighted_l2(orthonormal_op)
    diag_ok = (
        diag.is_weighted_l2
        and diag.offdiag_ratio <= 1e-10
        and np.max(np.abs(diag.weight_w.values * diag.weight_v.values - 1.0)) <= 1e-10
    )
    dense_ratios = []
    for op in (indicator_op, fourier_op):
        verdict = rl.check_weighted_l2(op)
        dense_ratios.append(verdict.offdiag_ratio)
        diag_ok = diag_ok and not verdict.is_weighted_l2
    dense_ok = all(r >= 1e-2 for r in dense_ratios)
    record(6, "weighted-L2-equivalence", diag_ok and dense_ok,
           f"orthonormal offdiag={diag.offdiag_ratio:.2e}; "
           f"dense offdiag={['%.2f' % r for r in dense_ratios]}")


def test_criterion_07_unitarity_demonstration(indicator_op, orthonormal_op):
    uni_o = rl.check_unitary_inversion(orthonormal_op, trials=50, seed=SEED)
    uni_i = rl.check_unitary_inversion(indicator_op, trials=50, seed=SEED)
    ok = (
        uni_o.l2_adjoint_error <= 1e-8
        and uni_i.l2_adjoint_error >= 0.1
        and uni_i.rkhs_adjoint_error <= 1e-6
    )
    record(7, "unitary-special-case", ok,
           f"orthonormal l2={uni_o.l2_adjoint_error:.2e}; "
           f"indicator l2={uni_i.l2_adjoint_error:.2f} rkhs={uni_i.rkhs_adjoint_error:.2e}")


def test_criterion_08_closed_form_convergence():
    details = []
    ok = True
    for family in ("indicator", "fourier", "gaussian"):
        errs = {}
        for n in (100, 200, 400):
            spec, op = family_fixture(family, n)
            errs[n] = rl.closed_form_discrepancy(spec, op)
        if family == "indicator":
            ok = ok and errs[200] <= 5e-3
        # decreasing under refinement unless already at the roundoff floor
        ok = ok and (errs[400] < errs[100] or errs[400] <= 1e-12)
        details.append(f"{family}: " + "->".join(f"{errs[n]:.1e}" for n in (100, 200, 400)))
    record(8, "closed-form-kernels", ok, "; ".join(details))


def test_criterion_09_point_evaluation_bound(brownian_space, sinc_space):
    ok = True
    details = []
    for label, space in (("brownian", brownian_space), ("sinc", sinc_space)):
        kernel = space.kernel
        rng = np.random.default_rng(SEED)
        sqrt_diag = np.sqrt(np.clip(np.real(np.diag(kernel.gram)), 0.0, None))
        worst_excess = -np.inf
        for _ in range(1000):
            f = random_range_function(kernel, rng)
            norm_f = float(np.sqrt(max(rl.rkhs_inner(space, f, f).real, 0.0)))
            excess = np.max((np.abs(f.values) - norm_f * sqrt_diag)
                            / (1.0 + norm_f * sqrt_diag))
            worst_excess = max(worst_excess, float(excess))
        # equality at every kernel section
        worst_eq = 0.0
        for q in range(kernel.size):
            sec = rl.kernel_section(space, q)
            bound = rl.point_eval_bound(space, sec, q)
            worst_eq = max(worst_eq, abs(bound.lhs - bound.rhs) / (1.0 + bound.rhs))
        ok = ok and worst_excess <= 1e-10 and worst_eq <= 1e-10
        details.append(f"{label}: excess={worst_excess:.1e} section-eq={worst_eq:.1e}")
    record(9, "point-evaluation-bound", ok, "; ".join(details))


def test_criterion_10_determinism(tmp_path):
    config = {
        "grids": {
            "E": {"interval": [0.0, 1.0], "n": 120, "rule": "midpoint"},
            "T": {"interval": [0.0, 1.0], "n": 120, "rule": "midpoint"},
        },
        "source": {"feature_family": {"family": "indicator"}},
        "trials": 25,
        "seed": SEED,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["verify", "--config", str(cfg), "--out", str(out1)])
    code2 = main(["verify", "--config", str(cfg), "--out", str(out2)])
    rep1 = json.loads(out1.read_text())
    rep2 = json.loads(out2.read_text())
    bytes1 = dump_report(without_timings(rep1)).encode()
    bytes2 = dump_report(without_timings(rep2)).encode()
    ok = code1 == code2 == 0 and bytes1 == bytes2
    record(10, "report-determinism", ok,
           f"{len(bytes1)} report bytes identical excluding timings")
