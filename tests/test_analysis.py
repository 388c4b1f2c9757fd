import numpy as np
import pytest

import rkhslab as rl


@pytest.fixture(scope="module")
def weighted_orthonormal_op():
    grid = rl.make_uniform_grid(0, 1, 90, "trapezoid")
    spec = rl.FeatureFamily("orthonormal_diagonal", weight=lambda p: 2.0 + np.sin(3 * p))
    return spec, rl.build_transform(rl.make_feature_map(spec, grid, grid))


class TestCheckWeightedL2:
    def test_delta_kernel_is_weighted_l2(self):
        grid = rl.make_uniform_grid(0, 1, 60, "midpoint")
        verdict = rl.check_weighted_l2(rl.discrete_delta_kernel(grid))
        assert verdict.is_weighted_l2
        assert verdict.offdiag_ratio == 0.0
        np.testing.assert_allclose(verdict.weight_v.values, 1.0, atol=1e-14)
        np.testing.assert_allclose(verdict.weight_w.values, 1.0, atol=1e-14)

    def test_min_kernel_is_not(self):
        grid = rl.make_uniform_grid(0, 1, 60, "midpoint")
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
        verdict = rl.check_weighted_l2(K)
        assert not verdict.is_weighted_l2
        assert verdict.offdiag_ratio > 1e-2
        assert verdict.weight_v is None and verdict.weight_w is None

    def test_orthonormal_family_recovers_construction_weight(self, weighted_orthonormal_op):
        spec, op = weighted_orthonormal_op
        verdict = rl.check_weighted_l2(op)
        assert verdict.is_weighted_l2
        expected_v = 2.0 + np.sin(3 * op.grid_E.points)
        assert np.max(np.abs(verdict.weight_v.values - expected_v)) <= 1e-8
        assert np.max(np.abs(verdict.weight_w.values * verdict.weight_v.values - 1.0)) <= 1e-10

    def test_zero_kernel(self):
        grid = rl.make_uniform_grid(0, 1, 10, "midpoint")
        K = rl.kernel_from_gram(np.zeros((10, 10)), grid)
        verdict = rl.check_weighted_l2(K)
        assert not verdict.is_weighted_l2

    def test_diagonal_with_zero_entry_fails_positivity(self):
        grid = rl.make_uniform_grid(0, 1, 10, "midpoint")
        diag = np.ones(10)
        diag[4] = 0.0
        K = rl.kernel_from_gram(np.diag(diag / grid.weights), grid)
        verdict = rl.check_weighted_l2(K)
        assert not verdict.is_weighted_l2

    @pytest.mark.parametrize("n", [30, 1100])
    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_row_blocks_agree_with_the_whole_array(self, n, complex_mode):
        # 1100 rows make three blocks; the masses are summed in another order
        grid = rl.make_uniform_grid(0, 1, n, "trapezoid")
        phase = 1j if complex_mode else 0.0
        K = rl.assemble_kernel(lambda p, q: np.exp(-((p - q) ** 2) / 1e-3 + phase * (p - q)), grid)
        B = K.gram * grid.weights[None, :]
        total = np.linalg.norm(B)
        np.fill_diagonal(B, 0)
        verdict = rl.check_weighted_l2(K)
        # a sum of n² squares is exact up to (n² - 1) eps in any order
        assert verdict.offdiag_ratio == pytest.approx(np.linalg.norm(B) / total,
                                                      rel=n * n * np.finfo(float).eps)

    def test_weight_is_the_diagonal_of_the_whole_product(self, weighted_orthonormal_op):
        _, op = weighted_orthonormal_op
        expected = np.real(np.diag(op.gram * op.grid.weights[None, :]))
        np.testing.assert_array_equal(rl.check_weighted_l2(op).weight_v.values, expected)


class TestCheckUnitaryInversion:
    def test_orthonormal_family_both_adjoints_work(self, orthonormal_op):
        report = rl.check_unitary_inversion(orthonormal_op, trials=20, seed=0)
        assert report.verdict_from_kernel.is_weighted_l2
        assert report.l2_adjoint_error <= 1e-8
        assert report.rkhs_adjoint_error <= 1e-8

    def test_indicator_family_needs_inverse_kernel(self, indicator_op):
        report = rl.check_unitary_inversion(indicator_op, trials=20, seed=1)
        assert not report.verdict_from_kernel.is_weighted_l2
        assert report.l2_adjoint_error >= 0.1
        assert report.rkhs_adjoint_error <= 1e-6

    def test_zero_source_recovered_exactly(self, orthonormal_op):
        zero_T = rl.sample_function(orthonormal_op.grid_T, lambda t: 0.0 * t)
        f = rl.apply_forward(orthonormal_op, zero_T)
        plain = rl.apply_adjoint(orthonormal_op, f)
        assert np.all(plain.values == 0)
        result = rl.invert(orthonormal_op, f)
        assert np.all(result.recovered.values == 0)

    def test_not_injective_rejected(self):
        grid_T = rl.make_uniform_grid(0, 1, 20, "midpoint")
        grid_E = rl.make_uniform_grid(0, 1, 30, "midpoint")
        op = rl.build_transform(
            rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=np.ones((20, 30))))
        with pytest.raises(rl.NotInjectiveError):
            rl.check_unitary_inversion(op, trials=3, seed=0)

    def test_seed_reproducibility(self, indicator_op):
        a = rl.check_unitary_inversion(indicator_op, trials=5, seed=9)
        b = rl.check_unitary_inversion(indicator_op, trials=5, seed=9)
        assert a.l2_adjoint_error == b.l2_adjoint_error
        assert a.rkhs_adjoint_error == b.rkhs_adjoint_error


class TestEquivalence:
    """The diagonal-kernel verdict must agree with plain-adjoint invertibility."""

    def test_family_equivalence(self, indicator_op, fourier_op, orthonormal_op):
        for op in (indicator_op, fourier_op, orthonormal_op):
            report = rl.check_unitary_inversion(op, trials=10, seed=2)
            plain_adjoint_inverts = report.l2_adjoint_error <= 1e-6
            assert report.verdict_from_kernel.is_weighted_l2 == plain_adjoint_inverts

    def test_weighted_inner_product_formula(self, weighted_orthonormal_op):
        # in the diagonal case the space inner product is a weighted L2 product
        spec, op = weighted_orthonormal_op
        verdict = rl.check_weighted_l2(op)
        assert verdict.is_weighted_l2
        space = rl.make_rkhs_space(op)
        grid = op.grid_E
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = rl.DiscreteFunction(rng.standard_normal(grid.size), grid)
            g = rl.DiscreteFunction(rng.standard_normal(grid.size), grid)
            lhs = rl.rkhs_inner(space, f, g)
            rhs = np.sum(grid.weights * verdict.weight_w.values * f.values * np.conj(g.values))
            assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1.0)

    def test_weight_recovery_scales_with_feature_scale(self):
        grid = rl.make_uniform_grid(0, 1, 40, "trapezoid")
        spec = rl.FeatureFamily("orthonormal_diagonal")
        base = rl.make_feature_map(spec, grid, grid)
        c = 3.0
        scaled = rl.FeatureMap(grid_T=grid, grid_E=grid, matrix=c * base.matrix)
        v_base = rl.check_weighted_l2(rl.build_transform(base)).weight_v.values
        verdict = rl.check_weighted_l2(rl.build_transform(scaled))
        np.testing.assert_allclose(verdict.weight_v.values, c**2 * v_base, rtol=1e-12)
        np.testing.assert_allclose(verdict.weight_w.values, v_base / c**2, rtol=1e-12)
