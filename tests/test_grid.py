import numpy as np
import pytest

import rkhslab as rl


class TestMakeUniformGrid:
    def test_two_point_trapezoid(self):
        g = rl.make_uniform_grid(0, 1, 2, "trapezoid")
        np.testing.assert_allclose(g.points, [0.0, 1.0])
        np.testing.assert_allclose(g.weights, [0.5, 0.5])

    def test_three_point_midpoint(self):
        g = rl.make_uniform_grid(0, 1, 3, "midpoint")
        np.testing.assert_allclose(g.points, [1 / 6, 1 / 2, 5 / 6])
        np.testing.assert_allclose(g.weights, [1 / 3, 1 / 3, 1 / 3])

    def test_density_weights_integrate_density(self):
        # oracle: integral of 2t over [0, 1] is exactly 1
        g = rl.make_uniform_grid(0, 1, 101, "trapezoid", density=lambda t: 2 * t)
        assert abs(g.weights.sum() - 1.0) < 1e-4

    @pytest.mark.parametrize("rule", ["trapezoid", "midpoint"])
    def test_weights_sum_to_interval_length(self, rule):
        g = rl.make_uniform_grid(-2.0, 3.5, 37, rule)
        assert abs(g.weights.sum() - 5.5) < 1e-12 * 5.5

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError, match="invalid interval"):
            rl.make_uniform_grid(1, 0, 10)
        with pytest.raises(ValueError, match="invalid interval"):
            rl.make_uniform_grid(2, 2, 10)

    def test_nonpositive_density_rejected(self):
        with pytest.raises(ValueError, match="density"):
            rl.make_uniform_grid(0, 1, 11, "trapezoid", density=lambda t: t - 0.5)

    def test_single_point_midpoint(self):
        g = rl.make_uniform_grid(0, 1, 1, "midpoint")
        np.testing.assert_allclose(g.points, [0.5])
        np.testing.assert_allclose(g.weights, [1.0])

    def test_trapezoid_needs_two_points(self):
        with pytest.raises(ValueError, match="trapezoid"):
            rl.make_uniform_grid(0, 1, 1, "trapezoid")

    def test_scalar_density_callable(self):
        g = rl.make_uniform_grid(0, 1, 11, "midpoint", density=lambda t: float(2 * t + 0.1))
        assert np.all(g.weights > 0)
        vectorized = rl.make_uniform_grid(0, 1, 11, "midpoint", density=lambda t: 2 * t + 0.1)
        np.testing.assert_array_equal(g.weights, vectorized.weights)


class TestDiscreteFunction:
    def test_length_mismatch_rejected(self):
        g = rl.make_uniform_grid(0, 1, 5, "midpoint")
        with pytest.raises(ValueError, match="samples"):
            rl.DiscreteFunction(values=np.zeros(4), grid=g)

    def test_non_finite_rejected(self):
        g = rl.make_uniform_grid(0, 1, 3, "midpoint")
        with pytest.raises(ValueError, match="finite"):
            rl.DiscreteFunction(values=np.array([0.0, np.nan, 1.0]), grid=g)


class TestInnerProduct:
    def test_zero_function(self):
        g = rl.make_uniform_grid(0, 1, 17, "midpoint")
        f = rl.sample_function(g, lambda x: 0.0 * x)
        h = rl.sample_function(g, lambda x: np.sin(x))
        assert rl.inner_product_l2(f, h) == 0

    @pytest.mark.parametrize("rule", ["trapezoid", "midpoint"])
    def test_constant_one(self, rule):
        g = rl.make_uniform_grid(0, 1, 33, rule)
        one = rl.sample_function(g, lambda x: np.ones_like(x))
        assert abs(rl.inner_product_l2(one, one) - 1.0) < 1e-14

    def test_linear_integrand(self):
        # oracle: integral of x^2 over [0, 1] is 1/3
        g = rl.make_uniform_grid(0, 1, 101, "trapezoid")
        f = rl.sample_function(g, lambda x: x)
        assert abs(rl.inner_product_l2(f, f) - 1 / 3) < 1e-4
        # a callable that returns a scalar for the whole array, the wrong
        # shape, is sampled by one scalar call per point
        per_point = rl.sample_function(g, lambda x: float(np.sum(x)))
        np.testing.assert_array_equal(per_point.values, f.values)

    def test_conjugate_symmetry_real_bitlevel(self):
        g = rl.make_uniform_grid(0, 1, 50, "trapezoid")
        rng = np.random.default_rng(0)
        f = rl.DiscreteFunction(rng.standard_normal(50), g)
        h = rl.DiscreteFunction(rng.standard_normal(50), g)
        assert rl.inner_product_l2(f, h) == np.conj(rl.inner_product_l2(h, f))

    def test_conjugate_symmetry_complex(self):
        g = rl.make_uniform_grid(0, 1, 50, "trapezoid")
        rng = np.random.default_rng(1)
        f = rl.DiscreteFunction(rng.standard_normal(50) + 1j * rng.standard_normal(50), g)
        h = rl.DiscreteFunction(rng.standard_normal(50) + 1j * rng.standard_normal(50), g)
        lhs = rl.inner_product_l2(f, h)
        rhs = np.conj(rl.inner_product_l2(h, f))
        assert abs(lhs - rhs) < 1e-15 * max(abs(lhs), 1.0)

    def test_conjugate_symmetry_complex_bitlevel(self):
        # a fused multiply-add in the complex product rounds f conj(g) and
        # g conj(f) differently; dense seeded pairs would expose it
        g = rl.make_uniform_grid(0, 1, 16, "midpoint")
        rng = np.random.default_rng(11)
        for _ in range(2000):
            f = rl.DiscreteFunction(rng.standard_normal(16) + 1j * rng.standard_normal(16), g)
            h = rl.DiscreteFunction(rng.standard_normal(16) + 1j * rng.standard_normal(16), g)
            assert rl.inner_product_l2(f, h) == np.conj(rl.inner_product_l2(h, f))

    def test_self_inner_product_nonnegative(self):
        g = rl.make_uniform_grid(0, 1, 40, "midpoint")
        rng = np.random.default_rng(2)
        f = rl.DiscreteFunction(rng.standard_normal(40) + 1j * rng.standard_normal(40), g)
        val = rl.inner_product_l2(f, f)
        assert val.imag == 0
        assert val.real >= 0

    def test_grid_mismatch_rejected(self):
        g1 = rl.make_uniform_grid(0, 1, 10, "midpoint")
        g2 = rl.make_uniform_grid(0, 1, 10, "midpoint")
        f = rl.sample_function(g1, lambda x: x)
        h = rl.sample_function(g2, lambda x: x)
        with pytest.raises(rl.GridMismatchError):
            rl.inner_product_l2(f, h)


class TestTrapezoidConvergence:
    def test_second_order_rate(self):
        # doubling the interval count should shrink the error about 4x
        exact = np.e - 1.0
        errors = []
        for n in (51, 101, 201, 401):
            g = rl.make_uniform_grid(0, 1, n, "trapezoid")
            f = rl.sample_function(g, np.exp)
            one = rl.sample_function(g, lambda x: np.ones_like(x))
            errors.append(abs(rl.inner_product_l2(f, one).real - exact))
        for coarse, fine in zip(errors, errors[1:]):
            ratio = coarse / fine
            assert 4 / 1.5 < ratio < 4 * 1.5
