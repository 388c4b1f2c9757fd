import numpy as np
import pytest

import rkhslab as rl
from rkhslab.cli import run_verify
from rkhslab.config import parse_config
from rkhslab.report import without_timings
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
        assert chol.eigenvectors is None and chol.certified_error == 0.0
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
        assert "dense_eigh" not in vars(K)

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
        assert spec.L is None
        X, residuals = rl.kernel._solve_columns(K, F, 1e-3)
        X_dense, residuals_dense = rl.kernel._solve_columns(dense, F, 1e-3)
        np.testing.assert_array_equal(X, X_dense)
        np.testing.assert_array_equal(residuals, residuals_dense)
        assert np.all(residuals > 0.0)
        np.testing.assert_array_equal(
            rl.kernel._kept_diagonal(K, 1e-3), rl.kernel._kept_diagonal(dense, 1e-3)
        )
        # the full-rank cutoff still solves through the factor
        assert rl.spectral_data(K).L is K.weighted_eigh.L


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
            np.testing.assert_array_equal(K.weighted_eigh.eigenvectors, dense.weighted_eigh.eigenvectors)
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
