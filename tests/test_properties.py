"""Property-based checks of the core algebraic invariants."""

from unittest import mock

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rkhslab as rl
from rkhslab.cli import run_verify
from rkhslab.config import parse_config
from rkhslab.rkhs import POINT_EVAL_SLACK
from conftest import kernel_with_spectrum

FINITE = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def complex_arrays(n):
    return st.tuples(
        arrays(np.float64, (n,), elements=FINITE),
        arrays(np.float64, (n,), elements=FINITE),
    ).map(lambda pair: pair[0] + 1j * pair[1])


GRID = rl.make_uniform_grid(0, 1, 16, "midpoint")


@given(f=complex_arrays(16), g=complex_arrays(16))
@settings(max_examples=100, deadline=None)
def test_inner_product_conjugate_symmetry(f, g):
    df = rl.DiscreteFunction(f, GRID)
    dg = rl.DiscreteFunction(g, GRID)
    lhs = rl.inner_product_l2(df, dg)
    rhs = np.conj(rl.inner_product_l2(dg, df))
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-15 * scale


@given(f=complex_arrays(16))
@settings(max_examples=100, deadline=None)
def test_inner_product_self_nonnegative(f):
    df = rl.DiscreteFunction(f, GRID)
    val = rl.inner_product_l2(df, df)
    assert val.imag == 0.0
    assert val.real >= 0.0


@given(
    real=arrays(np.float64, (6, 16), elements=FINITE),
    imag=arrays(np.float64, (6, 16), elements=FINITE),
)
@settings(max_examples=50, deadline=None)
def test_induced_kernel_always_psd(real, imag):
    # any feature map yields a nonnegative-definite induced kernel
    grid_T = rl.make_uniform_grid(0, 1, 6, "midpoint")
    H = real + 1j * imag
    op = rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=GRID, matrix=H))
    lam_max = float(rl.spectral_data(op, 1e-12).eigenvalues[0])
    report = rl.validate_psd(op, 1e-10 * max(lam_max, 1.0))
    assert report.passed


@given(
    h=arrays(np.float64, (6, 16), elements=FINITE),
    fre=arrays(np.float64, (6,), elements=FINITE),
    gre=arrays(np.float64, (16,), elements=FINITE),
)
@settings(max_examples=100, deadline=None)
def test_adjointness_for_arbitrary_features(h, fre, gre):
    grid_T = rl.make_uniform_grid(0, 1, 6, "midpoint")
    op = rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=GRID, matrix=h))
    F = rl.DiscreteFunction(fre, grid_T)
    g = rl.DiscreteFunction(gre, GRID)
    lhs = rl.inner_product_l2(rl.apply_forward(op, F), g)
    rhs = rl.inner_product_l2(F, rl.apply_adjoint(op, g))
    scale = max(rl.norm_l2(F) * rl.norm_l2(g), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_solve_roundtrip_on_range(seed):
    # apply-then-solve-then-apply reproduces any image function
    grid = rl.make_uniform_grid(0, 1, 24, "midpoint")
    K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
    rng = np.random.default_rng(seed)
    g = rl.DiscreteFunction(rng.standard_normal(24), grid)
    f = rl.apply_operator(K, g)
    if rl.norm_l2(f) == 0.0:
        return
    solved = rl.solve_kernel_system(K, f)
    back = rl.apply_operator(K, solved.solution)
    assert rl.norm_l2(rl.DiscreteFunction(back.values - f.values, grid)) <= 1e-8 * rl.norm_l2(f)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_point_eval_bound_random_range_functions(seed):
    grid = rl.make_uniform_grid(0, 1, 24, "midpoint")
    K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
    space = rl.make_rkhs_space(K)
    rng = np.random.default_rng(seed)
    g = rl.DiscreteFunction(rng.standard_normal(24), grid)
    f = rl.apply_operator(K, g)
    q = int(rng.integers(0, 24))
    assert rl.point_eval_bound(space, f, q).holds


@given(
    h=arrays(np.int64, (4, 10), elements=st.integers(min_value=-2, max_value=2)),
    c=st.floats(min_value=1e-6, max_value=1e6),
)
@settings(max_examples=100, deadline=None)
def test_injectivity_invariant_under_feature_scaling(h, c):
    # small integer entries keep every nonzero eigenvalue of the weighted form
    # above 1e-9 of the largest (Cauchy-Binet), far from the 1e-12 cutoff, so
    # only the scale can move the verdict and it must not
    grid_T = rl.make_uniform_grid(0, 1, 4, "midpoint")
    grid_E = rl.make_uniform_grid(0, 1, 10, "midpoint")

    def report(matrix):
        op = rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=matrix))
        return rl.check_injectivity(op)

    assert report(c * h) == report(h)


SCALED_GRID = rl.make_uniform_grid(0, 1, 150, "midpoint")
SCALED_KERNELS = {
    name: rl.assemble_kernel(rl.builtin_kernel(name), SCALED_GRID)
    for name in ("brownian", "sinc", "gaussian")
}


@given(name=st.sampled_from(sorted(SCALED_KERNELS)), c=st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=30, deadline=None)
@example(name="gaussian", c=1e6)
@example(name="sinc", c=1e-6)
def test_point_eval_equality_invariant_under_kernel_scaling(name, c):
    # ||K(., q)||^2 = K(q, q) at every section whatever the kernel's scale,
    # so the section defect relative to K(q, q) must not grow with c
    base = SCALED_KERNELS[name]
    scaled = rl.kernel_from_gram(c * base.gram, SCALED_GRID)

    def relative_defect(kernel):
        # section_equality_defect divides by 1 + K(q, q), which makes it an
        # absolute error on a small-scale kernel; undoing that at the largest
        # diagonal gives a scale-free measure, exactly the relative defect when
        # the diagonal is constant (sinc, gaussian).  It is never below the
        # defect, so the point_eval_equality verdict holds too.
        top = float(np.max(np.real(np.diag(kernel.gram))))
        defect = rl.verify_reproducing(kernel, 1e-12, 5, 0, 1e-6).section_equality_defect
        return defect * (1.0 + top) / top

    assert relative_defect(base) <= POINT_EVAL_SLACK
    assert relative_defect(scaled) <= POINT_EVAL_SLACK


LOW_RANK_SOURCES = st.one_of(
    st.tuples(st.just("gaussian"), st.just("lengthscale"), st.floats(0.1, 0.5)),
    st.tuples(st.just("sinc"), st.just("band"), st.floats(5.0, 30.0)),
)


@given(source=LOW_RANK_SOURCES, n=st.integers(min_value=512, max_value=800))
@settings(max_examples=20, deadline=None)
def test_low_rank_route_keeps_rank_and_verdicts(source, n):
    # the forced-dense run raises the size floor above n
    name, key, value = source
    config = parse_config({
        "grids": {"E": {"interval": [0.0, 1.0], "n": n, "rule": "trapezoid"}},
        "source": {"kernel": {"name": name, "params": {key: value}}},
        "trials": 10,
        "seed": 1,
    })

    def outcome():
        _, report = run_verify(config)
        verdicts = {c["name"]: c["passed"] for c in report["criteria"]}
        return report["conditioning"]["numerical_rank"], verdicts, report["diagnostics"]

    rank, verdicts, diagnostics = outcome()
    with mock.patch.object(rl.kernel, "LOW_RANK_MIN_SIZE", n + 1):
        dense_rank, dense_verdicts, dense_diagnostics = outcome()
    assert (diagnostics["decomposition"], dense_diagnostics["decomposition"]) == (
        "low_rank", "dense"
    )
    assert (rank, verdicts) == (dense_rank, dense_verdicts)


@given(
    a=st.floats(0.01, 2.0), length=st.floats(0.1, 4.0), n=st.integers(min_value=512, max_value=800)
)
@settings(max_examples=10, deadline=None)
def test_cholesky_route_keeps_rank_and_verdicts(a, length, n):
    # brownian on [a, a + length] with a > 0 is positive definite, and its
    # smallest eigenvalue stays far above the 1e-12 cutoff; the forced-dense
    # run raises the size floor above n
    config = parse_config({
        "grids": {"E": {"interval": [a, a + length], "n": n, "rule": "trapezoid"}},
        "source": {"kernel": {"name": "brownian"}},
        "trials": 10,
        "seed": 1,
    })

    def outcome():
        _, report = run_verify(config)
        verdicts = {c["name"]: c["passed"] for c in report["criteria"]}
        return report["conditioning"]["numerical_rank"], verdicts, report["diagnostics"]

    rank, verdicts, diagnostics = outcome()
    with mock.patch.object(rl.kernel, "LOW_RANK_MIN_SIZE", n + 1):
        dense_rank, dense_verdicts, dense_diagnostics = outcome()
    assert (diagnostics["decomposition"], dense_diagnostics["decomposition"]) == (
        "cholesky", "dense"
    )
    assert (rank, verdicts) == (dense_rank, dense_verdicts)
    assert rank == n


@given(
    cutoff_exponent=st.floats(-14.0, -6.0),
    margin_exponent=st.floats(-1.0, 6.0),
    decades=st.floats(1.0, 8.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
@example(cutoff_exponent=-12.0, margin_exponent=1.5, decades=4.0, seed=0)
@example(cutoff_exponent=-6.0, margin_exponent=0.2, decades=8.0, seed=1)
@example(cutoff_exponent=-14.0, margin_exponent=4.0, decades=2.0, seed=2)
@example(cutoff_exponent=-8.0, margin_exponent=0.5, decades=3.0, seed=3)
def test_certified_rank_equals_eigvalsh_rank(cutoff_exponent, margin_exponent, decades, seed):
    # a random spectrum from 1 down over ``decades`` decades, and one
    # eigenvalue between a tenth of the cutoff and 1e6 times it; the reference
    # reads its eigenvalues first, so its rank is eigvalsh's, or the dense
    # eigh's where eigvalsh drops one, and no certificate runs
    cutoff_rel = 10.0**cutoff_exponent
    lam = 10.0 ** (-decades * np.random.default_rng(seed).random(512))
    lam[0], lam[-1] = 1.0, cutoff_rel * 10.0**margin_exponent
    K, reference = kernel_with_spectrum(lam), kernel_with_spectrum(lam)
    reference.weighted_eigh.eigenvalues
    rank = rl.spectral_data(K, cutoff_rel).numerical_rank
    assert rank == rl.spectral_data(reference, cutoff_rel).numerical_rank
    certified = K.weighted_eigh.rank_certified(cutoff_rel)
    event(f"{K.weighted_eigh.decomposition}, certified {certified}")
    if certified:
        assert rank == 512 and K.weighted_eigh.decomposition == "cholesky"
    assert not reference.weighted_eigh.rank_certified(cutoff_rel)


#: translation-invariant sources: kernels of p - q, and indicator features with T = E
SHIFTED_SOURCES = {
    "gaussian": {"kernel": {"name": "gaussian"}},
    "sinc": {"kernel": {"name": "sinc"}},
    "constant": {"kernel": {"name": "constant"}},
    "indicator": {"feature_family": {"family": "indicator"}},
}


@given(
    name=st.sampled_from(sorted(SHIFTED_SOURCES)),
    n=st.sampled_from([60, 200, 600]),
    rule=st.sampled_from(["midpoint", "trapezoid"]),
    shift=st.floats(-10.0, 15.0),
)
@settings(max_examples=20, deadline=None)
@example(name="gaussian", n=600, rule="trapezoid", shift=13.0)
@example(name="indicator", n=600, rule="midpoint", shift=-7.3)
def test_verdicts_invariant_under_translation(name, n, rule, shift):
    # moving the interval moves no quadrature weight and no kernel value
    # beyond roundoff, so no verdict, rank or route may change
    source = SHIFTED_SOURCES[name]

    def outcome(a):
        grid = {"interval": [a, a + 1.0], "n": n, "rule": rule}
        grids = {"E": grid, "T": grid} if "feature_family" in source else {"E": grid}
        code, report = run_verify(parse_config(
            {"grids": grids, "source": source, "trials": 5, "seed": 1}
        ))
        verdicts = {c["name"]: c["passed"] for c in report["criteria"]}
        return (code, verdicts, report["conditioning"]["numerical_rank"],
                report["injectivity"], report["diagnostics"]["decomposition"])

    assert outcome(shift) == outcome(0.0)
