import numpy as np
import pytest

import rkhslab as rl
from rkhslab import cli
from rkhslab.rkhs import POINT_EVAL_SLACK
from conftest import random_range_function


@pytest.fixture(scope="module")
def delta_space():
    grid = rl.make_uniform_grid(0, 1, 80, "midpoint")
    return rl.make_rkhs_space(rl.discrete_delta_kernel(grid))


@pytest.fixture(scope="module")
def brownian201():
    grid = rl.make_uniform_grid(0, 1, 201, "trapezoid")
    kernel = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
    return rl.make_rkhs_space(kernel)


class TestRkhsInner:
    def test_delta_kernel_reduces_to_l2(self, delta_space):
        grid = delta_space.grid
        rng = np.random.default_rng(0)
        f = rl.DiscreteFunction(rng.standard_normal(grid.size), grid)
        g = rl.DiscreteFunction(rng.standard_normal(grid.size), grid)
        lhs = rl.rkhs_inner(delta_space, f, g)
        rhs = rl.inner_product_l2(f, g)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_section_self_inner_is_diagonal_value(self, brownian201):
        # forced by the reproducing identity applied to a kernel section
        q = 100  # p = 0.5
        sec = rl.kernel_section(brownian201, q)
        val = rl.rkhs_inner(brownian201, sec, sec)
        assert abs(val - 0.5) < 1e-6

    def test_linear_function_dirichlet_energy(self, brownian201):
        # f(p) = p is the section at the right endpoint; its squared norm
        # matches the Dirichlet-energy oracle: integral of (f')^2 = 1
        grid = brownian201.grid
        f = rl.sample_function(grid, lambda p: p)
        val = rl.rkhs_inner(brownian201, f, f)
        assert abs(val - 1.0) < 1e-3

    def test_hermitian_symmetry(self, brownian201):
        rng = np.random.default_rng(1)
        f = random_range_function(brownian201.kernel, rng)
        g = random_range_function(brownian201.kernel, rng)
        lhs = rl.rkhs_inner(brownian201, f, g)
        rhs = np.conj(rl.rkhs_inner(brownian201, g, f))
        assert abs(lhs - rhs) < 1e-12

    def test_positivity(self, brownian201):
        rng = np.random.default_rng(2)
        for _ in range(10):
            f = random_range_function(brownian201.kernel, rng)
            val = rl.rkhs_inner(brownian201, f, f)
            norm_sq = rl.norm_l2(f) ** 2
            assert abs(val.imag) < 1e-12
            assert val.real >= -1e-12 * norm_sq

    def test_out_of_range_argument_rejected(self):
        grid = rl.make_uniform_grid(0, 1, 60, "midpoint")
        K = rl.assemble_kernel(rl.builtin_kernel("constant"), grid)
        space = rl.make_rkhs_space(K)
        in_range = rl.sample_function(grid, lambda p: np.ones_like(p))
        outside = rl.sample_function(grid, lambda p: p - 0.5)
        with pytest.raises(rl.RangeViolationError):
            rl.rkhs_inner(space, outside, in_range)
        with pytest.raises(rl.RangeViolationError):
            rl.rkhs_inner(space, in_range, outside)


class TestCheckReproducing:
    def test_sections_reproduce(self, brownian201):
        for q in (0, 37, 100, 200):
            sec = rl.kernel_section(brownian201, q)
            assert rl.check_reproducing(brownian201, sec, q) <= 1e-10

    def test_random_range_functions(self, brownian201):
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = random_range_function(brownian201.kernel, rng)
            res = rl.reproducing_residuals(brownian201, f)
            assert res.max() <= 1e-8

    def test_zero_function(self, brownian201):
        zero = rl.sample_function(brownian201.grid, lambda p: 0.0 * p)
        assert rl.check_reproducing(brownian201, zero, 50) == 0.0

    def test_single_index_matches_vectorized(self, brownian201):
        rng = np.random.default_rng(4)
        f = random_range_function(brownian201.kernel, rng)
        res_all = rl.reproducing_residuals(brownian201, f)
        assert rl.check_reproducing(brownian201, f, 42) == pytest.approx(res_all[42], abs=1e-12)

    def test_index_out_of_range(self, brownian201):
        f = rl.sample_function(brownian201.grid, lambda p: p)
        with pytest.raises(IndexError):
            rl.check_reproducing(brownian201, f, 999)


class TestPointEvalBound:
    def test_equality_at_section(self, brownian201):
        q = 120
        sec = rl.kernel_section(brownian201, q)
        bound = rl.point_eval_bound(brownian201, sec, q)
        assert bound.holds
        assert abs(bound.lhs - bound.rhs) <= 1e-10 * (1.0 + bound.rhs)

    def test_zero_function(self, brownian201):
        zero = rl.sample_function(brownian201.grid, lambda p: 0.0 * p)
        bound = rl.point_eval_bound(brownian201, zero, 10)
        assert bound.lhs == 0.0 and bound.rhs == 0.0 and bound.holds

    def test_random_range_functions(self, brownian201):
        rng = np.random.default_rng(5)
        for _ in range(25):
            f = random_range_function(brownian201.kernel, rng)
            q = int(rng.integers(0, brownian201.grid.size))
            assert rl.point_eval_bound(brownian201, f, q).holds

    def test_slack_is_relative_to_one_plus_rhs(self):
        # the verdict verify gates on: excess (lhs - rhs) / (1 + rhs) at most
        # the slack; below rhs = 1 that admits more than 1e-10 * rhs
        rhs = 0.5
        admitted, refused = rhs + 0.9e-10, rhs + 1.6e-10
        assert admitted > rhs * (1.0 + 1e-10)
        assert rl.PointEvalBound(lhs=admitted, rhs=rhs).holds
        assert not rl.PointEvalBound(lhs=refused, rhs=rhs).holds
        assert cli.POINT_EVAL_SLACK == POINT_EVAL_SLACK == 1e-10


class TestProjectOntoSections:
    def test_full_index_set_interpolates(self):
        # midpoint grid keeps 0 out of the grid, so the min kernel is invertible
        grid = rl.make_uniform_grid(0, 1, 40, "midpoint")
        kernel = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
        space = rl.make_rkhs_space(kernel)
        rng = np.random.default_rng(6)
        f = random_range_function(kernel, rng)
        proj = rl.project_onto_sections(space, range(grid.size), f)
        interpolant = kernel.gram[:, np.arange(grid.size)] @ proj.coefficients
        assert proj.residual_norm <= 1e-8
        np.testing.assert_allclose(interpolant, f.values, atol=1e-8)

    def test_single_index(self, brownian201):
        rng = np.random.default_rng(7)
        f = random_range_function(brownian201.kernel, rng)
        j = 77
        proj = rl.project_onto_sections(brownian201, [j], f)
        expected = f.values[j] / brownian201.kernel.gram[j, j]
        assert proj.coefficients[0] == pytest.approx(expected, rel=1e-10)

    def test_nested_residual_monotone(self, brownian201):
        rng = np.random.default_rng(8)
        f = random_range_function(brownian201.kernel, rng)
        inner = [10, 60, 110, 160]
        outer = inner + [35, 85, 135, 185]
        r_inner = rl.project_onto_sections(brownian201, inner, f).residual_norm
        r_outer = rl.project_onto_sections(brownian201, outer, f).residual_norm
        assert r_outer <= r_inner + 1e-10

    def test_degenerate_sections_flagged(self):
        grid = rl.make_uniform_grid(0, 1, 30, "midpoint")
        K = rl.assemble_kernel(rl.builtin_kernel("constant"), grid)
        space = rl.make_rkhs_space(K)
        f = rl.sample_function(grid, lambda p: np.ones_like(p))
        proj = rl.project_onto_sections(space, [3, 17], f)
        assert proj.rank_deficient

    def test_rank_threshold_is_the_solve_cutoff(self, brownian201):
        # neighbouring sections: the sub-gram's singular-value ratios are 3.3e-3 and 1.1e-3
        f = rl.sample_function(brownian201.grid, lambda p: p)
        assert not rl.project_onto_sections(brownian201, [100, 101, 102], f).rank_deficient
        coarse = rl.make_rkhs_space(brownian201.kernel, cutoff_rel=1e-2)
        assert rl.project_onto_sections(coarse, [100, 101, 102], f).rank_deficient

    def test_bad_indices(self, brownian201):
        f = rl.sample_function(brownian201.grid, lambda p: p)
        with pytest.raises(ValueError):
            rl.project_onto_sections(brownian201, [], f)
        with pytest.raises(ValueError):
            rl.project_onto_sections(brownian201, [3, 3], f)
        with pytest.raises(IndexError):
            rl.project_onto_sections(brownian201, [5000], f)


class TestSectionNormIdentity:
    def test_all_sections(self, brownian201):
        # squared space norm of every section equals its diagonal value
        gram = brownian201.kernel.gram
        for q in range(0, brownian201.grid.size, 20):
            sec = rl.kernel_section(brownian201, q)
            norm_sq = rl.rkhs_inner(brownian201, sec, sec).real
            kqq = gram[q, q].real
            assert abs(norm_sq - kqq) <= 1e-8 * (1.0 + kqq)
