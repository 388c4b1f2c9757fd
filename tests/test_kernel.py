import numpy as np
import pytest

import rkhslab as rl
from conftest import random_range_function


@pytest.fixture
def grid01():
    return rl.make_uniform_grid(0, 1, 50, "trapezoid")


class TestAssembleKernel:
    def test_constant_kernel_all_ones(self):
        g = rl.make_uniform_grid(0, 1, 3, "midpoint")
        K = rl.assemble_kernel(rl.builtin_kernel("constant"), g)
        np.testing.assert_array_equal(K.gram, np.ones((3, 3)))

    def test_min_kernel_entries(self):
        g = rl.make_uniform_grid(0, 1, 2, "midpoint")
        # force the published 3-point layout via a direct grid
        g = rl.Grid(points=np.array([0.25, 0.5, 0.75]), weights=np.array([0.25, 0.25, 0.25]),
                    rule="midpoint", interval=(0.0, 1.0))
        K = rl.assemble_kernel(lambda p, q: np.minimum(p, q), g)
        expected = [[0.25, 0.25, 0.25], [0.25, 0.5, 0.5], [0.25, 0.5, 0.75]]
        np.testing.assert_allclose(K.gram, expected)

    def test_symmetric_kernel_zero_defect(self, grid01):
        K = rl.assemble_kernel(lambda p, q: np.exp(-((p - q) ** 2)), grid01)
        assert K.hermitian_defect == 0.0

    def test_scalar_kernel_function_supported(self):
        g = rl.make_uniform_grid(0, 1, 4, "midpoint")
        K = rl.assemble_kernel(lambda p, q: min(p, q), g)
        assert K.gram.shape == (4, 4)
        np.testing.assert_array_equal(K.gram, rl.assemble_kernel(np.minimum, g).gram)
        # a Hermitian, non-symmetric kernel pins the row-major order of the scalar calls
        herm = rl.assemble_kernel(lambda p, q: complex(min(p, q), p - q), g)
        vectorized = rl.assemble_kernel(lambda p, q: np.minimum(p, q) + 1j * (p - q), g)
        np.testing.assert_array_equal(herm.gram, vectorized.gram)

    def test_non_finite_rejected(self, grid01):
        bad = lambda p, q: np.full(np.broadcast_shapes(np.shape(p), np.shape(q)), np.nan)
        with pytest.raises(ValueError, match="finite"):
            rl.assemble_kernel(bad, grid01)

    def test_non_hermitian_rejected(self, grid01):
        with pytest.raises(rl.NonHermitianKernelError):
            rl.assemble_kernel(lambda p, q: p - q + 1.0, grid01)

    def test_small_defect_symmetrized(self, grid01):
        K = rl.assemble_kernel(lambda p, q: np.minimum(p, q) + 1e-12 * (p - q), grid01)
        assert K.hermitian_defect <= 3e-12
        np.testing.assert_allclose(K.gram, K.gram.conj().T)


class TestKernelFromGram:
    def test_hermitian_input_stored_as_copy_with_zero_defect(self, grid01):
        p = grid01.points
        gram = np.minimum(p[:, None], p[None, :]) * np.exp(2j * (p[:, None] - p[None, :]))
        K = rl.kernel_from_gram(gram, grid01)
        assert K.hermitian_defect == 0.0
        assert not np.shares_memory(K.gram, gram)
        np.testing.assert_array_equal(K.gram, gram)

    def test_huge_symmetric_entries_stay_finite(self):
        # unit weights: the weighted form holds the huge entries too
        g = rl.make_uniform_grid(0, 3, 3, "midpoint")
        K = rl.kernel_from_gram(np.full((3, 3), 1.5e308), g)
        assert K.hermitian_defect == 0.0
        np.testing.assert_array_equal(K.gram, 1.5e308)
        assert np.isfinite(rl.validate_psd(K, 1e-10).min_eigenvalue)

    def test_huge_nearly_hermitian_entries_stay_finite(self):
        g = rl.make_uniform_grid(0, 3, 3, "midpoint")
        gram = np.full((3, 3), 1.5e308)
        gram[0, 1] *= 1 + 1e-9
        K = rl.kernel_from_gram(gram, g)
        assert 0 < K.hermitian_defect <= 1e-9 * 1.5e308 * (1 + 1e-6)
        assert np.all(np.isfinite(K.gram))
        np.testing.assert_array_equal(K.gram, K.gram.T)
        assert K.gram[0, 1] == pytest.approx(1.5e308 * (1 + 0.5e-9), rel=1e-15)
        assert np.isfinite(rl.validate_psd(K, 1e-10).min_eigenvalue)


class TestValidatePsd:
    def test_delta_kernel_passes(self, grid01):
        K = rl.discrete_delta_kernel(grid01)
        report = rl.validate_psd(K, 1e-10)
        assert report.passed
        assert report.min_eigenvalue > 0

    def test_negative_constant_fails(self):
        g = rl.make_uniform_grid(0, 1, 3, "midpoint")
        K = rl.assemble_kernel(rl.builtin_kernel("constant", value=-1.0), g)
        report = rl.validate_psd(K, 1e-10)
        assert not report.passed
        # rank-one negative matrix: min eigenvalue is -sum(weights)
        assert report.min_eigenvalue == pytest.approx(-3 * g.weights.mean(), rel=1e-12)

    def test_brownian_kernel_psd(self, grid01):
        # eigenvalue oracle: the min kernel is positive semidefinite
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid01)
        report = rl.validate_psd(K, 1e-10)
        assert report.passed


class TestApplyOperator:
    def test_delta_kernel_is_identity(self, grid01):
        K = rl.discrete_delta_kernel(grid01)
        f = rl.sample_function(grid01, np.sin)
        out = rl.apply_operator(K, f)
        np.testing.assert_allclose(out.values, f.values, atol=1e-13)

    def test_constant_kernel_integrates(self, grid01):
        K = rl.assemble_kernel(rl.builtin_kernel("constant"), grid01)
        one = rl.sample_function(grid01, lambda x: np.ones_like(x))
        out = rl.apply_operator(K, one)
        np.testing.assert_allclose(out.values, 1.0, atol=1e-12)

    def test_min_kernel_closed_form(self):
        # oracle: integral of min(p, q) dq over [0, 1] is p - p^2 / 2
        g = rl.make_uniform_grid(0, 1, 201, "trapezoid")
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), g)
        one = rl.sample_function(g, lambda x: np.ones_like(x))
        out = rl.apply_operator(K, one)
        expected = g.points - g.points**2 / 2
        assert np.max(np.abs(out.values - expected)) < 1e-3

    def test_grid_mismatch(self, grid01):
        K = rl.discrete_delta_kernel(grid01)
        other = rl.make_uniform_grid(0, 1, 50, "trapezoid")
        f = rl.sample_function(other, np.sin)
        with pytest.raises(rl.GridMismatchError):
            rl.apply_operator(K, f)


class TestSolveKernelSystem:
    def test_delta_kernel_identity_inverse(self, grid01):
        K = rl.discrete_delta_kernel(grid01)
        f = rl.sample_function(grid01, np.cos)
        result = rl.solve_kernel_system(K, f)
        np.testing.assert_allclose(result.solution.values, f.values, atol=1e-12)
        assert result.range_residual < 1e-14

    def test_rank_one_constant_rhs(self):
        g = rl.make_uniform_grid(0, 1, 60, "midpoint")
        K = rl.assemble_kernel(rl.builtin_kernel("constant"), g)
        c = 2.5
        f = rl.sample_function(g, lambda x: np.full_like(x, c))
        result = rl.solve_kernel_system(K, f)
        assert result.range_residual < 1e-12
        # least-squares oracle on the weighted system
        B = K.gram * g.weights[None, :]
        oracle, *_ = np.linalg.lstsq(B, f.values, rcond=None)
        np.testing.assert_allclose(result.solution.values, oracle, atol=1e-10)
        np.testing.assert_allclose(B @ result.solution.values, c, atol=1e-12)

    def test_rank_one_out_of_range(self):
        g = rl.make_uniform_grid(0, 1, 60, "midpoint")
        K = rl.assemble_kernel(rl.builtin_kernel("constant"), g)
        # f orthogonal to constants, so entirely outside the rank-one range
        f = rl.sample_function(g, lambda x: x - 0.5)
        with pytest.raises(rl.RangeViolationError) as err:
            rl.solve_kernel_system(K, f)
        assert err.value.residual > 0.9

    def test_report_only_mode(self):
        g = rl.make_uniform_grid(0, 1, 60, "midpoint")
        f = rl.sample_function(g, lambda x: x - 0.5)
        for value in (1.0, 0.0):
            K = rl.assemble_kernel(rl.builtin_kernel("constant", value=value), g)
            result = rl.solve_kernel_system(K, f, range_tol=None)
            assert result.range_residual > 0.9
            with pytest.raises(rl.RangeViolationError):
                rl.solve_kernel_system(K, f)
        # the zero kernel has rank 0: nothing is kept, all of f is dropped
        np.testing.assert_array_equal(result.solution.values, 0.0)
        assert result.range_residual == 1.0

    def test_roundtrip_on_range(self, grid01):
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid01)
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = random_range_function(K, rng)
            solved = rl.solve_kernel_system(K, f)
            back = rl.apply_operator(K, solved.solution)
            rel = np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)
            assert rel < 1e-8

    def test_null_component_invariance(self):
        # adding anything the operator maps to (numerical) zero cannot change
        # the solution: the quotient by the null space acts as a projection
        g = rl.make_uniform_grid(0, 1, 40, "midpoint")
        K = rl.assemble_kernel(rl.builtin_kernel("constant"), g)
        f = rl.sample_function(g, lambda x: np.full_like(x, 1.0))
        perturbed = rl.DiscreteFunction(f.values + (g.points - 0.5), g)
        x1 = rl.solve_kernel_system(K, f).solution.values
        x2 = rl.solve_kernel_system(K, perturbed, range_tol=None).solution.values
        np.testing.assert_allclose(x1, x2, atol=1e-10)


class TestSpectralData:
    def test_descending_eigenvalues_and_unitary_vectors(self, grid01):
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid01)
        spec = rl.spectral_data(K, 1e-12)
        assert np.all(np.diff(spec.eigenvalues) <= 0)
        U = spec.eigenvectors
        assert np.max(np.abs(U.conj().T @ U - np.eye(U.shape[1]))) < 1e-12
        assert spec.numerical_rank == np.count_nonzero(spec.eigenvalues > spec.cutoff)

    def test_reconstruction(self, grid01):
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid01)
        spec = rl.spectral_data(K, 1e-12)
        sw = np.sqrt(grid01.weights)
        S = sw[:, None] * K.gram * sw[None, :]
        recon = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.linalg.norm(recon - S) / np.linalg.norm(S) < 1e-10

    def test_invalid_cutoff(self, grid01):
        K = rl.discrete_delta_kernel(grid01)
        with pytest.raises(ValueError):
            rl.spectral_data(K, 0.0)
        with pytest.raises(ValueError):
            rl.spectral_data(K, 1.0)


class TestBuiltinKernels:
    def test_names(self):
        for name in rl.kernel.BUILTIN_KERNEL_NAMES:
            assert callable(rl.builtin_kernel(name))
        with pytest.raises(ValueError):
            rl.builtin_kernel("nope")

    def test_sinc_diagonal_value(self):
        k = rl.builtin_kernel("sinc", band=np.pi)
        assert k(0.3, 0.3) == pytest.approx(1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            rl.builtin_kernel("gaussian", lengthscale=0.0)
        with pytest.raises(ValueError):
            rl.builtin_kernel("sinc", band=-1.0)
