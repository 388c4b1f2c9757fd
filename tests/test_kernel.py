import gc
import math
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

import rkhslab as rl
from rkhslab.cli import run_verify
from rkhslab.config import parse_config
from rkhslab.io import load_kernel_csv, save_kernel_csv
from rkhslab.report import without_timings
from conftest import certificate_spectrum, kernel_with_spectrum, random_range_function


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

    def test_real_valued_complex_input_stored_as_own_float_array(self, grid01):
        # a strided view of the real parts would keep the complex buffer alive
        p = grid01.points
        K = rl.kernel_from_gram(np.minimum(p[:, None], p[None, :]).astype(complex), grid01)
        assert K.gram.dtype == np.float64
        assert K.gram.flags.c_contiguous
        assert K.gram.base is None


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
        U = spec.route.eigenvectors
        assert np.max(np.abs(U.conj().T @ U - np.eye(U.shape[1]))) < 1e-12
        assert spec.numerical_rank == np.count_nonzero(spec.eigenvalues > spec.cutoff)

    def test_reconstruction(self, grid01):
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid01)
        spec = rl.spectral_data(K, 1e-12)
        sw = np.sqrt(grid01.weights)
        S = sw[:, None] * K.gram * sw[None, :]
        U = spec.route.eigenvectors
        recon = U @ np.diag(spec.eigenvalues) @ U.conj().T
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

    @pytest.mark.parametrize("band", [20.0, np.pi])
    def test_sinc_is_bit_for_bit_numpys(self, band):
        # evaluated in place, with the expression of np.sinc
        k = rl.builtin_kernel("sinc", band=band)

        def expected(p, q):
            return (band / math.pi) * np.sinc(band * (p - q) / math.pi)

        p = rl.make_uniform_grid(0, 1, 301, "trapezoid").points
        got = k(p[:, None], p[None, :])
        assert got.shape == (301, 301)
        assert np.array_equal(got, expected(p[:, None], p[None, :]))
        for pair in [(0.3, 0.3), (0.3, 0.1), (0.0, 1.0), (1, 1)]:
            assert k(*pair) == expected(*pair)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            rl.builtin_kernel("gaussian", lengthscale=0.0)
        with pytest.raises(ValueError):
            rl.builtin_kernel("sinc", band=-1.0)


def forced_dense(monkeypatch, kernel):
    """A copy of ``kernel`` decomposed by the dense ``eigh``: the size floor is raised above n."""
    copy = rl.kernel_from_gram(kernel.gram, kernel.grid)
    with monkeypatch.context() as patch:
        patch.setattr(rl.kernel, "LOW_RANK_MIN_SIZE", kernel.size + 1)
        copy.weighted_eigh
    return copy


def _sinc20(p, q):
    return rl.builtin_kernel("sinc", band=20.0)(p, q)


LOW_RANK_KERNELS = {
    "sinc": (_sinc20, 1200),
    "gaussian": (rl.builtin_kernel("gaussian", lengthscale=0.2), 800),
    "hermitian": (lambda p, q: _sinc20(p, q) * np.exp(3j * (p - q)), 600),
}


class TestLowRankRoute:
    @pytest.fixture(params=LOW_RANK_KERNELS.values(), ids=LOW_RANK_KERNELS.keys())
    def routes(self, request, monkeypatch):
        kfun, n = request.param
        K = rl.assemble_kernel(kfun, rl.make_uniform_grid(0, 1, n, "trapezoid"))
        return K, forced_dense(monkeypatch, K)

    def test_agrees_with_dense_route(self, routes):
        K, dense = routes
        low, full = K.weighted_eigh, dense.weighted_eigh
        assert (low.decomposition, full.decomposition) == ("low_rank", "dense")
        n = K.size
        rank = rl.spectral_data(K).numerical_rank
        assert rank == rl.spectral_data(dense).numerical_rank
        assert 0 < rank <= low.eigenvectors.shape[1] <= n // 8
        lam_max = full.eigenvalues[0]
        kept = np.abs(low.eigenvalues[:rank] - full.eigenvalues[:rank])
        assert np.max(kept) <= 1e-12 * lam_max
        # the kept subspaces agree on all S weighs; directions with eigenvalues
        # near the cutoff are fixed only to eps * lam_max / lam, in either route
        sw = np.sqrt(K.grid.weights)
        S = sw[:, None] * K.gram * sw[None, :]
        U1, U2 = low.eigenvectors[:, :rank], full.eigenvectors[:, :rank]
        gap = U1 @ (U1.conj().T @ S) - U2 @ (U2.conj().T @ S)
        assert np.linalg.norm(gap, 2) <= 1e-12 * lam_max
        # Weyl: lambda_min(S) >= -eps; the dense value carries its own
        # backward error, n * eps * lam_max
        assert low.certified_error > 0
        assert low.eigenvalues[-1] <= -low.certified_error
        slack = n * np.finfo(float).eps * lam_max
        assert -low.certified_error <= full.eigenvalues[-1] + slack
        assert rl.validate_psd(K, 1e-10).min_eigenvalue == low.eigenvalues[-1]

    def test_certified_error_is_the_whole_array_norm(self, routes):
        # summed over row blocks; a sum of n² squares is exact up to (n² - 1) eps in any order
        K, _ = routes
        S = rl.kernel._weighted_form(K.gram, K.grid.weights)
        L = rl.kernel._pivoted_cholesky(S, K.size // 8)
        whole = np.linalg.norm(L @ L.conj().T - S)
        assert K.weighted_eigh.certified_error == pytest.approx(
            whole, rel=K.size ** 2 * np.finfo(float).eps)

    def test_solves_agree_with_dense_route(self, routes):
        K, dense = routes
        rng = np.random.default_rng(5)
        complex_mode = np.iscomplexobj(K.gram)
        F = np.column_stack(
            [random_range_function(K, rng, complex_mode).values for _ in range(6)]
        )
        w = K.grid.weights[:, None]
        results = []
        for kernel in (K, dense):
            X, residuals = rl.kernel._solve_columns(kernel, F, 1e-12, 1e-6)
            assert np.max(residuals) <= 1e-10
            # the space Gram matrix [f_i, f_j] and the reconstruction gram W K^-1 f
            results.append((X.T @ (w * F).conj(), kernel.gram @ (w * X)))
        (inner_low, recon_low), (inner_dense, recon_dense) = results
        assert np.max(np.abs(inner_low - inner_dense)) <= 1e-10 * np.max(np.abs(inner_dense))
        assert np.max(np.abs(recon_low - recon_dense)) <= 1e-10 * np.max(np.abs(F))


CHOLESKY_KERNELS = {
    "brownian": lambda: rl.assemble_kernel(
        rl.builtin_kernel("brownian"), rl.make_uniform_grid(0, 1, 1024, "midpoint")
    ),
    "indicator": lambda: rl.build_transform(rl.make_feature_map(
        rl.FeatureFamily("indicator"),
        rl.make_uniform_grid(0, 1, 600, "midpoint"),
        rl.make_uniform_grid(0, 1, 600, "midpoint"),
    )),
    # D min(p, q) Dᴴ with D = diag(exp(3i p)): genuinely complex eigenvectors
    "hermitian": lambda: rl.assemble_kernel(
        lambda p, q: np.minimum(p, q) * np.exp(3j * (p - q)),
        rl.make_uniform_grid(0, 1, 700, "midpoint"),
    ),
}


class TestCholeskyRoute:
    @pytest.fixture(params=CHOLESKY_KERNELS.values(), ids=CHOLESKY_KERNELS.keys())
    def routes(self, request, monkeypatch):
        K = request.param()
        return K, forced_dense(monkeypatch, K)

    def test_agrees_with_dense_route(self, routes):
        K, dense = routes
        chol, full = K.weighted_eigh, dense.weighted_eigh
        assert (chol.decomposition, full.decomposition) == ("cholesky", "dense")
        assert type(chol) is rl.kernel.CholeskyRoute and chol.certified_error == 0.0
        assert "eigenpairs" not in vars(chol)
        n = K.size
        lam_max = full.eigenvalues[0]
        gap = np.max(np.abs(chol.eigenvalues - full.eigenvalues))
        assert gap <= n * np.finfo(float).eps * lam_max
        assert rl.spectral_data(K).numerical_rank == rl.spectral_data(dense).numerical_rank == n
        assert rl.validate_psd(K, 1e-10).min_eigenvalue == chol.eigenvalues[-1]

    def test_solves_agree_with_dense_route(self, routes):
        K, dense = routes
        rng = np.random.default_rng(5)
        complex_mode = np.iscomplexobj(K.gram)
        F = np.column_stack(
            [random_range_function(K, rng, complex_mode).values for _ in range(6)]
        )
        w = K.grid.weights[:, None]
        results = []
        for kernel in (K, dense):
            X, residuals = rl.kernel._solve_columns(kernel, F, 1e-12, 1e-6)
            assert np.all(residuals == 0.0)
            # the space Gram matrix [f_i, f_j] and the reconstruction gram W K^-1 f
            results.append((X.T @ (w * F).conj(), kernel.gram @ (w * X)))
        (inner_chol, recon_chol), (inner_dense, recon_dense) = results
        assert np.max(np.abs(inner_chol - inner_dense)) <= 1e-10 * np.max(np.abs(inner_dense))
        assert np.max(np.abs(recon_chol - recon_dense)) <= 1e-10 * np.max(np.abs(F))
        assert np.max(np.abs(recon_chol - F)) <= np.max(np.abs(recon_dense - F))
        assert "eigenpairs" not in vars(K.weighted_eigh)

    def test_dropping_cutoff_reads_the_dense_eigh(self, monkeypatch):
        grid = rl.make_uniform_grid(0, 1, 600, "midpoint")
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
        dense = forced_dense(monkeypatch, K)
        assert K.weighted_eigh.decomposition == "cholesky"
        F = np.column_stack(
            [random_range_function(K, np.random.default_rng(t)).values for t in range(4)]
        )
        spec, dense_spec = rl.spectral_data(K, 1e-3), rl.spectral_data(dense, 1e-3)
        assert spec.numerical_rank == dense_spec.numerical_rank < K.size
        assert spec.route is K.weighted_eigh.eigenpairs
        X, residuals = rl.kernel._solve_columns(K, F, 1e-3)
        X_dense, residuals_dense = rl.kernel._solve_columns(dense, F, 1e-3)
        np.testing.assert_array_equal(X, X_dense)
        np.testing.assert_array_equal(residuals, residuals_dense)
        assert np.all(residuals > 0.0)
        np.testing.assert_array_equal(
            rl.kernel._kept_diagonal(K, 1e-3), rl.kernel._kept_diagonal(dense, 1e-3)
        )
        # the full-rank cutoff still solves through the factor
        assert rl.spectral_data(K).route is K.weighted_eigh


class TestRankCertificate:
    """On the ``cholesky`` route a shifted Cholesky decides a full rank only where ``eigvalsh`` does.

    The cutoff is 1e-10, not the default, so that the form whose smallest
    eigenvalue sits a factor 10 below the cutoff is still positive definite
    to many digits, and takes the ``cholesky`` route on any BLAS.
    """

    CUTOFF = 1e-10

    @pytest.mark.parametrize("case, certified, rank", [
        ("above-shift", True, 600), ("between", False, 600), ("below-cutoff", False, 599),
    ])
    def test_rank_agrees_with_eigvalsh(self, eigvalsh_calls, case, certified, rank):
        lam = certificate_spectrum(600, case, self.CUTOFF)
        K, reference = kernel_with_spectrum(lam), kernel_with_spectrum(lam)
        assert K.weighted_eigh.decomposition == reference.weighted_eigh.decomposition == "cholesky"
        expected = reference.weighted_eigh.eigenvalues
        assert rl.spectral_data(reference, self.CUTOFF).numerical_rank == rank
        eigvalsh_calls.clear()
        spec = rl.spectral_data(K, self.CUTOFF)
        assert spec.numerical_rank == rank
        assert K.weighted_eigh.rank_certified(self.CUTOFF) is certified
        assert len(eigvalsh_calls) == (0 if certified else 1)
        # a dropped eigenvalue reads the dense eigh, a kept one solves through L
        assert (spec.route is K.weighted_eigh) is (rank == 600)
        assert rl.spectral_data(K, self.CUTOFF).numerical_rank == rank
        assert len(eigvalsh_calls) == (0 if certified else 1)
        # eigenvalues read after the certificate are those read first, bit for bit
        np.testing.assert_array_equal(K.weighted_eigh.eigenvalues, expected)
        source = K.weighted_eigh if rank == 600 else K.weighted_eigh.eigenpairs
        assert spec.eigenvalues is source.eigenvalues
        assert spec.cutoff == self.CUTOFF * source.eigenvalues[0]

    def test_certificate_cached_per_cutoff(self, monkeypatch):
        lam = certificate_spectrum(600, "above-shift", self.CUTOFF)
        K = kernel_with_spectrum(lam)
        eig = K.weighted_eigh
        runs = []
        original = rl.kernel._certifies_full_rank

        def counted(A, cutoff_rel):
            runs.append(cutoff_rel)
            return original(A, cutoff_rel)

        monkeypatch.setattr(rl.kernel, "_certifies_full_rank", counted)
        for cutoff_rel in (self.CUTOFF, self.CUTOFF, 1e-12, self.CUTOFF, 1e-12):
            assert rl.spectral_data(K, cutoff_rel).numerical_rank == 600
        assert runs == [self.CUTOFF, 1e-12]
        assert eig.rank_certified(self.CUTOFF) and eig.rank_certified(1e-12)
        assert not eig.rank_certified(1e-11)

    def test_certificate_shift_bounds_the_cutoff(self):
        # c >= cutoff_rel * ||A||_F >= cutoff_rel * lambda_max, with the backward-error term on top
        lam = certificate_spectrum(600, "between", self.CUTOFF)
        shift = rl.kernel._certificate_shift(np.diag(lam), self.CUTOFF)
        margin = 2 * 601 * np.finfo(float).eps * lam.sum()
        assert shift == pytest.approx(self.CUTOFF * np.linalg.norm(lam) + margin, rel=1e-14)
        cutoff = self.CUTOFF * lam[0]
        assert cutoff < lam[-1] < shift


class TestCertifiedFactorSolves:
    """Solves on a kernel whose rank was certified first match those on a fresh kernel.

    ``K`` has its rank certified before any solve, so it holds the factor of
    ``S - c I``, and its first solve replaces it by the factor of ``S``;
    ``reference`` reads its spectrum first, as ``verify`` does, and solves
    with the factor of ``S`` from the start.
    """

    @pytest.fixture
    def kernels(self):
        grid = rl.make_uniform_grid(0, 1, 600, "midpoint")
        K, reference = (rl.assemble_kernel(rl.builtin_kernel("brownian"), grid) for _ in range(2))
        reference.weighted_eigh.eigenvalues
        assert rl.spectral_data(K).numerical_rank == 600
        eig = K.weighted_eigh
        assert eig.rank_certified(rl.kernel.DEFAULT_CUTOFF_REL)
        assert eig.shift > 0.0 and reference.weighted_eigh.shift == 0.0
        # the certificate releases the form; the unshifted factor forms it anew
        assert eig._form is None
        return K, reference

    def test_solve_kernel_system_matches(self, kernels):
        K, reference = kernels
        rng = np.random.default_rng(8)
        w = K.grid.weights
        for _ in range(3):
            f = random_range_function(K, rng)
            got, expected = (rl.solve_kernel_system(k, f) for k in kernels)
            assert got.range_residual == expected.range_residual == 0.0
            # the image K x and the space norm [f, f] = (x, f): x itself is
            # as ill-conditioned as S on either factor
            images = [rl.apply_operator(K, s.solution).values for s in (got, expected)]
            gap = np.linalg.norm(images[0] - images[1]) / np.linalg.norm(images[1])
            assert gap <= 1e-12
            norms = [np.sum(w * s.solution.values * f.values) for s in (got, expected)]
            assert norms[0] == pytest.approx(norms[1], rel=1e-12)
        # the solves dropped the shift; the rank stays certified
        assert K.weighted_eigh.shift == 0.0
        assert K.weighted_eigh.rank_certified(rl.kernel.DEFAULT_CUTOFF_REL)

    def test_verify_reproducing_matches(self, kernels):
        K, reference = kernels
        got, expected = (rl.verify_reproducing(k, rl.kernel.DEFAULT_CUTOFF_REL, 20, 3, 1e-6)
                         for k in kernels)
        for name in ("max_residual", "max_excess", "section_equality_defect"):
            assert abs(getattr(got, name) - getattr(expected, name)) <= 1e-12
        assert K.weighted_eigh.shift == 0.0

    def test_kept_diagonal_matches(self, kernels):
        K, reference = kernels
        # the squared row norms of the factor of S, not of S - c I
        diag, diag_ref = (rl.kernel._kept_diagonal(k) for k in kernels)
        assert K.weighted_eigh.shift == 0.0
        assert np.max(np.abs(diag - diag_ref)) <= 1e-12 * np.max(diag_ref)


@pytest.mark.parametrize("n", [1, 255, 257, 600])
@pytest.mark.parametrize("dtype", [float, complex])
def test_hermitian_part_is_bit_for_bit_the_whole_expression(n, dtype):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    if dtype is complex:
        A = A + 1j * rng.standard_normal((n, n))
    B = 0.5 * A
    expected = B + B.conj().T
    got = rl.kernel._hermitian_part(A.copy())
    assert np.array_equal(got, expected)
    assert np.array_equal(got, got.conj().T)


@pytest.mark.parametrize("n", [1, 127, 129, 300])
@pytest.mark.parametrize("dtype", [float, complex])
def test_tiled_hermitian_check_agrees_with_the_whole_comparison(n, dtype):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    if dtype is complex:
        A = A + 1j * rng.standard_normal((n, n))
    A = rl.kernel._hermitian_part(A)
    assert rl.kernel._is_hermitian(A)
    # one entry changed, in the first tile pair, the last, and one between
    for i, j in [(0, n - 1), (n - 1, 0), (n // 2, n // 3)]:
        B = A.copy()
        B[i, j] += 1.0
        assert rl.kernel._is_hermitian(B) is np.array_equal(B, B.conj().T)


def positive_definite_form(n, dtype, seed=0):
    """A well-conditioned Hermitian positive definite n x n form."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    if dtype is complex:
        X = X + 1j * rng.standard_normal((n, n))
    return rl.kernel._hermitian_part(X @ X.conj().T / n + np.eye(n))


class TestCholeskyInPlace:
    """The blocked Cholesky that writes its factor over the form."""

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_agrees_with_lapack(self, n, dtype):
        A = positive_definite_form(n, dtype)
        expected = np.linalg.cholesky(A)
        assert rl.kernel._cholesky_in_place(A)
        np.testing.assert_allclose(A, expected, rtol=0, atol=1e-14 * np.abs(expected).max())
        # whole rows are read by the solves and the kept diagonal
        assert not np.any(np.triu(A, 1))

    @pytest.mark.parametrize("negative_at", [0, 200, 599])
    def test_fails_on_an_indefinite_form(self, negative_at):
        A = positive_definite_form(600, float)
        A[negative_at, negative_at] = -1.0
        assert rl.kernel._cholesky_in_place(A) is False


class TestFactorMemory:
    """On the ``cholesky`` route the factor is the form's buffer: no read allocates an n x n array.

    ``eigvalsh`` copies the form outside numpy's allocator, so tracemalloc
    sees only the arrays numpy hands out; the largest of those temporaries
    is one block column of the factor.
    """

    N = 600

    @pytest.fixture
    def eig(self):
        grid = rl.make_uniform_grid(0, 1, self.N, "midpoint")
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
        # forms S; the route is read only after the measured reads
        return K, K.weighted_eigh

    @staticmethod
    def allocated_peak(read) -> int:
        """Peak bytes allocated above the start while ``read()`` runs."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            read()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_spectrum_then_factor(self, eig):
        _, eig = eig

        def read():
            eig.eigenvalues
            eig.L

        assert self.allocated_peak(read) < self.N * self.N * 8
        assert eig.decomposition == "cholesky" and eig.shift == 0.0

    def test_certificate(self, eig):
        K, eig = eig
        assert self.allocated_peak(lambda: rl.spectral_data(K)) < self.N * self.N * 8
        assert eig.decomposition == "cholesky" and eig.shift > 0.0


class TestReaderMemory:
    """Readers of a gram allocate less than one n x n array beyond their result."""

    N = 600
    ARRAY = N * N * 8
    allocated_peak = staticmethod(TestFactorMemory.allocated_peak)

    @pytest.fixture
    def grid(self):
        return rl.make_uniform_grid(0, 1, self.N, "midpoint")

    def test_low_rank_error(self, grid):
        K = rl.assemble_kernel(rl.builtin_kernel("gaussian", lengthscale=0.3), grid)
        S = rl.kernel._weighted_form(K.gram, grid.weights)
        routes = []
        assert self.allocated_peak(lambda: routes.append(rl.kernel._low_rank_eigh(S))) < self.ARRAY
        assert routes[0].decomposition == "low_rank"

    def test_check_weighted_l2(self, grid):
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
        assert self.allocated_peak(lambda: rl.check_weighted_l2(K)) < self.ARRAY

    def test_assemble_kernel(self, grid):
        kernels = []
        peak = self.allocated_peak(
            lambda: kernels.append(rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)))
        assert peak - kernels[0].gram.nbytes < self.ARRAY


def _offset_brownian(p, q):
    """``min(p, q)`` with a small antisymmetric part, so its Hermitian defect is not 0."""
    return np.minimum(p, q) + 1e-12 * (p - q)


class TestReleasedGram:
    """An assembled kernel on the ``cholesky`` route holds no gram while the route holds ``S``."""

    N = 600

    @pytest.fixture
    def grid(self):
        return rl.make_uniform_grid(0, 1, self.N, "midpoint")

    @pytest.mark.parametrize("kfun", [rl.builtin_kernel("brownian"), _offset_brownian],
                             ids=["brownian", "defect"])
    def test_next_read_evaluates_the_same_gram(self, grid, kfun):
        K = rl.assemble_kernel(kfun, grid)
        gram, defect = K.gram.copy(), K.hermitian_defect
        assert (defect == 0.0) is (kfun is not _offset_brownian)
        kept = rl.kernel_from_gram(gram, grid)
        assert K.weighted_eigh.decomposition == "cholesky"
        assert "hermitian_gram" not in vars(K)
        # the route forms S again through its callable, never through the kernel
        assert rl.spectral_data(K, 0.5).route is K.weighted_eigh.eigenpairs
        assert "hermitian_gram" not in vars(K)
        np.testing.assert_array_equal(rl.spectral_data(K, 0.5).eigenvalues,
                                      rl.spectral_data(kept, 0.5).eigenvalues)
        np.testing.assert_array_equal(K.weighted_eigh.eigenvalues, kept.weighted_eigh.eigenvalues)
        assert K.gram.dtype == gram.dtype and np.array_equal(K.gram, gram)
        assert K.hermitian_defect == defect

    def test_refactor_after_release(self, grid):
        # the certificate's shifted factor is replaced by a factor of S formed anew
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
        kept = rl.kernel_from_gram(K.gram, grid)
        f = rl.sample_function(grid, np.sin)
        solved = [rl.solve_kernel_system(k, f).solution.values for k in (K, kept)]
        assert K.weighted_eigh.shift == 0.0 and "hermitian_gram" not in vars(K)
        np.testing.assert_array_equal(*solved)

    def test_kept_by_kernels_that_cannot_evaluate_again(self, grid, tmp_path):
        scalar = rl.assemble_kernel(lambda p, q: min(p, q), grid)
        save_kernel_csv(scalar, tmp_path / "k.csv", mode="real")
        kernels = [scalar, load_kernel_csv(tmp_path / "k.csv", grid, mode="real"),
                   rl.kernel_from_gram(scalar.gram, grid)]
        for K in kernels:
            gram = K.gram
            assert K.weighted_eigh.decomposition == "cholesky"
            assert K.gram is gram

    def test_freed_by_reference_counting(self, grid):
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
        rl.solve_kernel_system(K, rl.sample_function(grid, np.sin))
        rl.spectral_data(K, 0.5)
        K.gram
        refs = [weakref.ref(K), weakref.ref(K.weighted_eigh)]
        gc.disable()
        try:
            del K
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


def _old_hermitian_part(gram):
    """The Hermitian part and defect as whole-array expressions, the reference for ``_hermitian_gram``."""
    adjoint = gram.conj().T
    with np.errstate(over="ignore"):
        defect = float(np.max(np.abs(gram - adjoint)))
    return 0.5 * gram + 0.5 * adjoint, defect, float(np.max(np.abs(gram)))


def _non_hermitian_gram(n, dtype):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    if dtype is complex:
        A = A + 1j * rng.standard_normal((n, n))
    return A @ A.conj().T + 1e-9 * A


@pytest.mark.parametrize("make", [
    partial(_non_hermitian_gram, 3, float), partial(_non_hermitian_gram, 300, float),
    partial(_non_hermitian_gram, 3, complex), partial(_non_hermitian_gram, 300, complex),
    # the overflow range: halving first keeps the sum finite
    lambda: np.full((3, 3), 1.5e308) * np.array([[1, 1 + 1e-9, 1], [1, 1, 1], [1, 1, 1]]),
], ids=["real-3", "real-300", "complex-3", "complex-300", "overflow"])
@pytest.mark.parametrize("owned", [False, True])
def test_tiled_hermitian_gram_is_bit_for_bit_the_whole_expression(make, owned):
    gram = make()
    grid = rl.make_uniform_grid(0, 1, gram.shape[0], "midpoint")
    expected, defect, _ = _old_hermitian_part(gram)
    given = gram.copy()
    sym, got_defect = rl.kernel._hermitian_gram(given, grid, owned=owned)
    assert got_defect == defect > 0
    assert sym.dtype == expected.dtype and np.array_equal(sym, expected)
    assert np.shares_memory(sym, given) is owned
    if not owned:
        assert np.array_equal(given, gram)


@pytest.mark.parametrize("dtype", [float, complex])
def test_rejected_gram_reports_the_whole_array_defect_and_scale(dtype):
    gram = _non_hermitian_gram(300, dtype) + np.triu(np.ones((300, 300)), 1)
    _, defect, scale = _old_hermitian_part(gram)
    grid = rl.make_uniform_grid(0, 1, 300, "midpoint")
    with pytest.raises(rl.NonHermitianKernelError) as info:
        rl.kernel._hermitian_gram(gram, grid, owned=True)
    assert (info.value.defect, info.value.scale) == (defect, scale)


class TestComparison:
    """Kernels and their spectra compare by identity and hash, without touching their arrays."""

    def test_kernels_compare_by_identity(self):
        grid = rl.make_uniform_grid(0, 1, 30, "midpoint")
        a, b = (rl.assemble_kernel(rl.builtin_kernel("brownian"), grid) for _ in range(2))
        assert a != b
        assert a == a and b == b
        assert len({a, b}) == 2
        assert isinstance(hash(rl.spectral_data(a)), int)
        assert isinstance(hash(a.weighted_eigh), int)

    def test_induced_kernels_compare_without_forming_the_gram(self):
        grid = rl.make_uniform_grid(0, 1, 30, "midpoint")
        fm = rl.make_feature_map(rl.FeatureFamily("indicator"), grid, grid)
        a, b = rl.build_transform(fm), rl.build_transform(fm)
        assert a != b and a == a
        assert len({a, b}) == 2
        assert "hermitian_gram" not in vars(a) and "hermitian_gram" not in vars(b)


def kernel_run_doc(name, n, **params):
    return {
        "grids": {"E": {"interval": [0.0, 1.0], "n": n, "rule": "trapezoid"}},
        "source": {"kernel": {"name": name, "params": params}},
        "trials": 10,
        "seed": 3,
    }


def dense_and_default_reports(monkeypatch, doc):
    """``verify`` reports, without timings, by the default routes and with the floor raised above n."""
    config = parse_config(doc)
    default = without_timings(run_verify(config)[1])
    with monkeypatch.context() as patch:
        patch.setattr(rl.kernel, "LOW_RANK_MIN_SIZE", 10**9)
        dense = without_timings(run_verify(config)[1])
    return default, dense


class TestDenseFallback:
    @pytest.mark.parametrize("doc, psd_passed", [
        (kernel_run_doc("brownian", 1024), True),
        (kernel_run_doc("constant", 600, value=-1.0), False),
        # the absolute PSD tolerance fails the rank-one 1e8 kernel by roundoff
        (kernel_run_doc("constant", 400, value=1e8), False),
    ], ids=["brownian-full-rank", "constant-indefinite", "constant-1e8-below-floor"])
    def test_report_equals_dense_route(self, monkeypatch, doc, psd_passed):
        default, dense = dense_and_default_reports(monkeypatch, doc)
        assert default == dense
        assert default["diagnostics"] == {
            "decomposition": "dense", "certified_error": 0.0, "min_eigenvalue_is_bound": False,
            "rank_certified": False,
        }
        assert default["psd"]["passed"] is psd_passed

    @pytest.mark.parametrize("extra, route", [(0, "low_rank"), (1, "dense")], ids=["n/8", "n/8+1"])
    def test_rank_cap(self, monkeypatch, extra, route):
        n = 600
        grid = rl.make_uniform_grid(0, 1, n, "midpoint")
        A = np.random.default_rng(8).standard_normal((n, n // 8 + extra))
        K = rl.kernel_from_gram(A @ A.T, grid)
        assert K.weighted_eigh.decomposition == route
        dense = forced_dense(monkeypatch, K)
        if route == "dense":
            np.testing.assert_array_equal(K.weighted_eigh.eigenvalues, dense.weighted_eigh.eigenvalues)
            np.testing.assert_array_equal(rl.spectral_data(K).route.eigenvectors,
                                          dense.weighted_eigh.eigenvectors)
        rank = rl.spectral_data(K).numerical_rank
        assert rank == rl.spectral_data(dense).numerical_rank == n // 8 + extra

    def test_indefinite_factor_with_large_error_falls_back(self, monkeypatch):
        # gram = 1 - 4 (p - 0.3)(q - 0.3): the first pivot leaves a residual
        # with a nonpositive diagonal, so the factorization stops at rank 1,
        # and its error, the negative eigenvalue's weight, rejects the factor
        grid = rl.make_uniform_grid(0, 1, 600, "midpoint")
        K = rl.assemble_kernel(lambda p, q: 1.0 - 4.0 * (p - 0.3) * (q - 0.3), grid)
        dense = forced_dense(monkeypatch, K)
        assert K.weighted_eigh.decomposition == "dense"
        np.testing.assert_array_equal(K.weighted_eigh.eigenvalues, dense.weighted_eigh.eigenvalues)
        report = rl.validate_psd(K, 1e-10)
        assert not report.passed
        assert report.min_eigenvalue == dense.weighted_eigh.eigenvalues[-1]


def test_wide_route_is_exact():
    grid_T = rl.make_uniform_grid(0, 1, 30, "midpoint")
    grid_E = rl.make_uniform_grid(0, 1, 600, "midpoint")
    op = rl.build_transform(
        rl.make_feature_map(rl.FeatureFamily("indicator"), grid_T, grid_E)
    )
    eig = op.weighted_eigh
    assert (eig.decomposition, eig.certified_error) == ("wide", 0.0)
    assert eig.eigenvectors.shape == (600, 30)
