import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import rkhslab as rl
from rkhslab.grid import random_samples
from conftest import certificate_spectrum, orthonormal_columns


@pytest.fixture(scope="module")
def small_grids():
    grid_T = rl.make_uniform_grid(0, 1, 30, "midpoint")
    grid_E = rl.make_uniform_grid(0, 1, 40, "midpoint")
    return grid_T, grid_E


@pytest.fixture(scope="module")
def ill_conditioned_diagonal_op():
    # s_min / s_max = 1e-8 lies below sqrt(cutoff_rel) = 1e-6 at the default
    # cutoff: the solves drop that direction, so it must not count toward the rank
    grid = rl.make_uniform_grid(0, 1, 20, "midpoint")
    s = np.ones(20)
    s[-1] = 1e-8
    return rl.build_transform(rl.FeatureMap(grid_T=grid, grid_E=grid, matrix=np.diag(s)))


@pytest.fixture(scope="module")
def gaussian_family_op():
    grid_E = rl.make_uniform_grid(0, 1, 100, "midpoint")
    spec = rl.FeatureFamily("gaussian", sigma=0.1)
    grid_T = rl.make_uniform_grid(*rl.recommended_t_interval(spec, (0, 1)), 100, "midpoint")
    return rl.build_transform(rl.make_feature_map(spec, grid_T, grid_E))


@pytest.fixture(scope="module")
def random_wide_op(small_grids):
    grid_T, grid_E = small_grids
    H = np.random.default_rng(10).standard_normal((30, 40))
    return rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))


@pytest.fixture(scope="module")
def duplicate_feature_op(small_grids):
    grid_T, grid_E = small_grids
    H = np.random.default_rng(5).standard_normal((30, 40))
    H[7, :] = H[3, :]
    return rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))


class TestBuildTransform:
    def test_rank_one_induces_all_ones(self, rank_one_op):
        np.testing.assert_allclose(rank_one_op.gram, 1.0, atol=1e-15)
        spec = rl.spectral_data(rank_one_op, 1e-12)
        assert spec.numerical_rank == 1

    def test_indicator_induces_min_kernel(self, indicator_op):
        p = indicator_op.grid_E.points
        expected = np.minimum(p[:, None], p[None, :])
        assert np.max(np.abs(indicator_op.gram - expected)) <= 5e-3

    def test_shapes(self, small_grids):
        grid_T, grid_E = small_grids
        rng = np.random.default_rng(0)
        fm = rl.FeatureMap(grid_T=grid_T, grid_E=grid_E,
                           matrix=rng.standard_normal((30, 40)))
        op = rl.build_transform(fm)
        F = rl.DiscreteFunction(rng.standard_normal(30), grid_T)
        g = rl.DiscreteFunction(rng.standard_normal(40), grid_E)
        forward = rl.apply_forward(op, F)
        adjoint = rl.apply_adjoint(op, g)
        assert forward.grid is grid_E and forward.values.shape == (40,)
        assert adjoint.grid is grid_T and adjoint.values.shape == (30,)
        assert op.gram.shape == (40, 40)

    def test_operator_holds_feature_matrix_once(self, small_grids):
        # an operator is built holding H alone; the induced gram and the eigh are
        # cached at first use, and forward and adjoint are formed per call
        grid_T, grid_E = small_grids
        rng = np.random.default_rng(3)
        fm = rl.FeatureMap(grid_T=grid_T, grid_E=grid_E,
                           matrix=rng.standard_normal((30, 40)))
        op = rl.build_transform(fm)
        assert set(vars(op)) == {"grid", "feature"}
        rl.verify_identities(op, trials=5)
        assert set(vars(op)) == {"grid", "hermitian_gram", "feature", "weighted_eigh"}
        allowed = {id(fm.matrix), id(op.gram)}
        allowed.update((id(op.weighted_eigh.eigenvalues), id(op.weighted_eigh.eigenvectors)))

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    yield from arrays(item)
            elif hasattr(obj, "__dict__") and not isinstance(obj, rl.Grid):
                for item in vars(obj).values():
                    yield from arrays(item)

        assert {id(a) for a in arrays(op)} == allowed

    def test_induced_matches_weighted_gram_product(self, small_grids):
        grid_T, grid_E = small_grids
        rng = np.random.default_rng(1)
        H = rng.standard_normal((30, 40)) + 1j * rng.standard_normal((30, 40))
        op = rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))
        expected = H.conj().T @ (grid_T.weights[:, None] * H)
        rel = np.linalg.norm(op.gram - expected) / np.linalg.norm(expected)
        assert rel < 1e-12

    def test_induced_kernel_is_psd(self, small_grids):
        # Gram construction forces nonnegative definiteness
        grid_T, grid_E = small_grids
        rng = np.random.default_rng(2)
        H = rng.standard_normal((30, 40))
        op = rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))
        lam_max = rl.spectral_data(op, 1e-12).eigenvalues[0]
        assert rl.validate_psd(op, 1e-10 * lam_max).passed

    def test_non_finite_feature_rejected(self, small_grids):
        grid_T, grid_E = small_grids
        H = np.zeros((30, 40))
        H[3, 4] = np.inf
        with pytest.raises(ValueError, match="finite"):
            rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H)


class TestApplyForwardAdjoint:
    def test_zero_maps_to_zero(self, indicator_op):
        zero_T = rl.sample_function(indicator_op.grid_T, lambda t: 0.0 * t)
        assert np.all(rl.apply_forward(indicator_op, zero_T).values == 0)
        zero_E = rl.sample_function(indicator_op.grid_E, lambda p: 0.0 * p)
        assert np.all(rl.apply_adjoint(indicator_op, zero_E).values == 0)

    def test_rank_one_forward_constant(self, rank_one_op):
        one_T = rl.sample_function(rank_one_op.grid_T, lambda t: np.ones_like(t))
        out = rl.apply_forward(rank_one_op, one_T)
        np.testing.assert_allclose(out.values, 1.0, atol=1e-14)

    def test_rank_one_adjoint_constant(self, rank_one_op):
        one_E = rl.sample_function(rank_one_op.grid_E, lambda p: np.ones_like(p))
        out = rl.apply_adjoint(rank_one_op, one_E)
        np.testing.assert_allclose(out.values, 1.0, atol=1e-14)

    def test_indicator_forward_integrates(self, indicator_op):
        # oracle: integral over t <= p of 1 dt equals p
        one_T = rl.sample_function(indicator_op.grid_T, lambda t: np.ones_like(t))
        out = rl.apply_forward(indicator_op, one_T)
        assert np.max(np.abs(out.values - indicator_op.grid_E.points)) <= 5e-3

    def test_adjointness_identity(self, small_grids):
        grid_T, grid_E = small_grids
        rng = np.random.default_rng(3)
        H = rng.standard_normal((30, 40)) + 1j * rng.standard_normal((30, 40))
        op = rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))
        worst = 0.0
        for _ in range(100):
            F = rl.DiscreteFunction(
                rng.standard_normal(30) + 1j * rng.standard_normal(30), grid_T)
            g = rl.DiscreteFunction(
                rng.standard_normal(40) + 1j * rng.standard_normal(40), grid_E)
            lhs = rl.inner_product_l2(rl.apply_forward(op, F), g)
            rhs = rl.inner_product_l2(F, rl.apply_adjoint(op, g))
            scale = rl.norm_l2(F) * rl.norm_l2(g)
            worst = max(worst, abs(lhs - rhs) / scale)
        assert worst <= 1e-12

    def test_grid_mismatch(self, indicator_op):
        wrong = rl.sample_function(indicator_op.grid_E, lambda p: p)
        with pytest.raises(rl.GridMismatchError):
            rl.apply_forward(indicator_op, wrong)


class TestCheckInjectivity:
    def test_orthonormal_rows_injective(self, small_grids):
        grid_T, grid_E = small_grids
        sm, sw = np.sqrt(grid_T.weights), np.sqrt(grid_E.weights)
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((40, 30)))
        H = (q.T / sm[:, None]) / sw[None, :]
        op = rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))
        report = rl.check_injectivity(op)
        assert report.injective and report.deficiency == 0

    def test_duplicate_feature_not_injective(self, duplicate_feature_op):
        report = rl.check_injectivity(duplicate_feature_op)
        assert not report.injective
        assert report.deficiency >= 1

    def test_ill_conditioned_diagonal_not_injective(self, ill_conditioned_diagonal_op):
        report = rl.check_injectivity(ill_conditioned_diagonal_op)
        assert not report.injective
        assert report.numerical_rank == 19 and report.deficiency == 1

    def test_random_wide_matrix_injective(self):
        grid_T = rl.make_uniform_grid(0, 1, 20, "midpoint")
        grid_E = rl.make_uniform_grid(0, 1, 50, "midpoint")
        rng = np.random.default_rng(6)
        H = rng.standard_normal((20, 50)) + 1j * rng.standard_normal((20, 50))
        op = rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))
        report = rl.check_injectivity(op)
        assert report.injective
        assert report.numerical_rank == 20

    @pytest.mark.parametrize("cutoff_rel", [1e-12, 1e-8])
    @pytest.mark.parametrize("name", [
        "indicator_op", "fourier_op", "gaussian_family_op", "orthonormal_op",
        "random_wide_op", "duplicate_feature_op", "rank_one_op",
        "ill_conditioned_diagonal_op",
    ])
    def test_rank_matches_svd_reference(self, request, name, cutoff_rel):
        # eigenvalues of the weighted induced form are the squared singular
        # values of sqrt(m) H sqrt(w), so lambda > c lambda_max <=> sigma > sqrt(c) sigma_max
        op = request.getfixturevalue(name)
        sm = np.sqrt(op.grid_T.weights)
        sw = np.sqrt(op.grid_E.weights)
        sigma = np.linalg.svd(sm[:, None] * op.feature.matrix * sw[None, :], compute_uv=False)
        expected = int(np.count_nonzero(sigma > math.sqrt(cutoff_rel) * sigma[0]))
        assert rl.check_injectivity(op, cutoff_rel).numerical_rank == expected


class TestVerifyIdentities:
    def test_factorization_residual_tiny(self, indicator_op, fourier_op, orthonormal_op):
        for op in (indicator_op, fourier_op, orthonormal_op):
            report = rl.verify_identities(op, trials=10, seed=0)
            assert report.factorization_residual <= 1e-14

    def test_orthonormal_all_identities(self, orthonormal_op):
        report = rl.verify_identities(orthonormal_op, trials=100, seed=1)
        assert report.injective
        assert report.roundtrip_error <= 1e-10
        assert report.isometry_defect <= 1e-10
        assert report.norm_defect <= 1e-10
        assert report.adjointness_defect <= 1e-12

    def test_fourier_identities(self, fourier_op):
        report = rl.verify_identities(fourier_op, trials=100, seed=2)
        assert report.injective
        assert report.condition_number <= 1e8
        assert report.isometry_defect <= 1e-8
        assert report.roundtrip_error <= 1e-8
        assert report.norm_defect <= 1e-8

    def test_indicator_identities(self, indicator_op):
        report = rl.verify_identities(indicator_op, trials=100, seed=3)
        assert report.injective
        assert report.condition_number <= 1e8
        assert report.isometry_defect <= 1e-8
        assert report.roundtrip_error <= 1e-8

    def test_seed_reproducibility(self, indicator_op):
        a = rl.verify_identities(indicator_op, trials=5, seed=42)
        b = rl.verify_identities(indicator_op, trials=5, seed=42)
        assert a == b

    def test_non_injective_flagged(self, small_grids, ill_conditioned_diagonal_op):
        grid_T, grid_E = small_grids
        H = np.ones((30, 40))
        ones_op = rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))
        for op in (ones_op, ill_conditioned_diagonal_op):
            report = rl.verify_identities(op, trials=5, seed=0)
            assert not report.injective


def _dense_factorization_residual(op):
    """``||(K - (Hᴴ diag m) H) W||_F / ||K W||_F`` with the gap formed whole."""
    H, K, w = op.feature.matrix, op.gram, op.grid_E.weights
    gap = K - (H.conj().T * op.grid_T.weights) @ H
    return np.linalg.norm(gap * w) / np.linalg.norm(K * w)


def _with_gram(op, gram):
    """A kernel on ``op``'s feature map that holds ``gram``, as a faulty gram builder would give."""
    faulty = rl.build_transform(op.feature)
    faulty.hermitian_gram = gram, 0.0
    return faulty


def _random_map(kind, n_E, shape, rule):
    """A seeded random feature map over [0, 1], square, tall (|T| > |E|) or wide (|T| < |E|)."""
    n_T = {"square": n_E, "tall": n_E + n_E // 3, "wide": n_E - n_E // 3}[shape]
    rng = np.random.default_rng(0)
    H = rng.standard_normal((n_T, n_E))
    if kind == "complex":
        H = H + 1j * rng.standard_normal((n_T, n_E))
    return rl.build_transform(rl.FeatureMap(grid_T=rl.make_uniform_grid(0, 1, n_T, rule),
                                            grid_E=rl.make_uniform_grid(0, 1, n_E, rule), matrix=H))


def _indicator_op(n):
    grid = rl.make_uniform_grid(0, 1, n, "midpoint")
    return rl.build_transform(rl.make_feature_map(rl.FeatureFamily("indicator"), grid, grid))


class TestFactorizationResidual:
    """``factorization_residual`` forms the product on the tiles on and above the diagonal.

    At n = 1100 there are three row groups (``kernel._row_slices``), so
    tiles below the diagonal are taken from their mirrors.
    """

    @pytest.mark.parametrize("n", [30, 1100])
    @pytest.mark.parametrize("rule", ["midpoint", "trapezoid"])
    @pytest.mark.parametrize("shape", ["square", "tall", "wide"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_the_dense_definition(self, kind, shape, rule, n):
        op = _random_map(kind, n, shape, rule)
        eps = np.finfo(float).eps
        # a value relative to ||K W||: products summed in other orders move it
        # by a few ulps of 1
        got = rl.transform.factorization_residual(op)
        assert got <= 1e-14
        assert abs(got - _dense_factorization_residual(op)) <= 4 * eps
        # a Hermitian gap far above rounding, where every weight and mirrored
        # tile shows in the leading digits
        rng = np.random.default_rng(1)
        noise = rng.standard_normal((n, n))
        if kind == "complex":
            noise = noise + 1j * rng.standard_normal((n, n))
        faulty = _with_gram(op, op.gram + 1e-8 * np.abs(op.gram).max() * (noise + noise.conj().T))
        expected = _dense_factorization_residual(faulty)
        assert expected > 1e-9
        assert rl.transform.factorization_residual(faulty) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("shape", ["square", "tall", "wide"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_allocates_one_row_group(self, kind, shape):
        # beyond its inputs: the forward rows of one row group and their
        # product from the diagonal tile on, never an n x n array
        op = _random_map(kind, 1100, shape, "midpoint")
        op.gram
        n_T, n = op.feature.matrix.shape
        rows = max(s.stop - s.start for s in rl.kernel._row_slices(n))
        itemsize = op.feature.matrix.itemsize
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rl.transform.factorization_residual(op)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= rows * (n_T + n) * itemsize + 64 * 1024
        assert peak < n * n * itemsize

    @staticmethod
    def sensitivity_cases():
        """``(name, op, faulty gram)``, at n = 600 (two row groups)."""
        indicator = _indicator_op(600)
        shifted = indicator.gram.copy()
        # a column of the last row group, all on or above the diagonal tiles;
        # a stored gram is Hermitian, and its tiles below them are the mirrors
        shifted[:, 450] *= 1 + 1e-10
        complex_op = _random_map("complex", 600, "square", "midpoint")
        C = np.sqrt(complex_op.grid_T.weights)[:, None] * complex_op.feature.matrix
        # Hᵀ diag(m) conj(H) in place of Hᴴ diag(m) H
        wrong_side = C.T @ C.conj()
        H = indicator.feature.matrix
        other_weights = rl.make_uniform_grid(0, 1, 600, "trapezoid").weights
        other_grid = (H.T * other_weights) @ H
        return [("column off by 1e-10", indicator, shifted),
                ("conjugated on the wrong side", complex_op, wrong_side),
                ("another grid's T weights", indicator, other_grid)]

    def test_faulty_grams_read_above_the_gate(self):
        for name, op, gram in self.sensitivity_cases():
            value = rl.transform.factorization_residual(_with_gram(op, gram))
            assert value > 1e-12, f"{name}: {value:.3e}"

    def test_indicator_at_3200_passes_the_gate(self):
        # the W-inside product, (Hᴴ diag m)(H diag w), read 1.06e-14 here,
        # above the 1e-14 gate, on an identity that holds by construction
        assert rl.transform.factorization_residual(_indicator_op(3200)) <= 1e-14


class TestInvert:
    def test_zero_data(self, indicator_op):
        zero = rl.sample_function(indicator_op.grid_E, lambda p: 0.0 * p)
        result = rl.invert(indicator_op, zero)
        assert np.all(result.recovered.values == 0)
        assert result.range_residual == 0.0

    def test_roundtrip(self, indicator_op):
        rng = np.random.default_rng(7)
        F0 = rl.DiscreteFunction(rng.standard_normal(indicator_op.grid_T.size),
                                 indicator_op.grid_T)
        f = rl.apply_forward(indicator_op, F0)
        result = rl.invert(indicator_op, f)
        rel = (np.linalg.norm(result.recovered.values - F0.values)
               / np.linalg.norm(F0.values))
        assert rel <= 1e-6
        assert result.range_residual <= 1e-8

    def test_complex_roundtrip(self, fourier_op):
        rng = np.random.default_rng(8)
        n = fourier_op.grid_T.size
        F0 = rl.DiscreteFunction(
            rng.standard_normal(n) + 1j * rng.standard_normal(n), fourier_op.grid_T)
        f = rl.apply_forward(fourier_op, F0)
        result = rl.invert(fourier_op, f)
        rel = (np.linalg.norm(result.recovered.values - F0.values)
               / np.linalg.norm(F0.values))
        assert rel <= 1e-6

    def test_out_of_range_data(self, rank_one_op):
        f = rl.sample_function(rank_one_op.grid_E, lambda p: p)
        with pytest.raises(rl.RangeViolationError) as err:
            rl.invert(rank_one_op, f)
        assert err.value.residual >= 0.1

    def test_not_injective_rejected(self, small_grids, ill_conditioned_diagonal_op):
        grid_T, grid_E = small_grids
        H = np.ones((30, 40))
        op = rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))
        f = rl.sample_function(grid_E, lambda p: np.ones_like(p))
        with pytest.raises(rl.NotInjectiveError):
            rl.invert(op, f)
        # data in the range: the inversion would drop the smallest direction
        diag = ill_conditioned_diagonal_op
        source = rl.DiscreteFunction(np.random.default_rng(7).standard_normal(20), diag.grid_T)
        with pytest.raises(rl.NotInjectiveError):
            rl.invert(diag, rl.apply_forward(diag, source))

    def test_forward_of_inverse_stays_in_range(self, fourier_op):
        rng = np.random.default_rng(9)
        n = fourier_op.grid_T.size
        F0 = rl.DiscreteFunction(
            rng.standard_normal(n) + 1j * rng.standard_normal(n), fourier_op.grid_T)
        f = rl.apply_forward(fourier_op, F0)
        result = rl.invert(fourier_op, f)
        assert result.range_residual <= 1e-8


def _weighted_factor(op):
    """``B = diag(m)^{1/2} H diag(w)^{1/2}``, so the weighted induced form is ``Bᴴ B``."""
    sm = np.sqrt(op.grid_T.weights)
    sw = np.sqrt(op.grid_E.weights)
    return sm[:, None] * op.feature.matrix * sw[None, :]


@pytest.fixture(scope="module", params=["real", "complex", "duplicate-rows"])
def wide_op(request, small_grids):
    # |T| = 30 < |E| = 40: the induced kernel decomposes its 30 x 30 side
    grid_T, grid_E = small_grids
    rng = np.random.default_rng(21)
    H = rng.standard_normal((30, 40))
    if request.param == "complex":
        H = H + 1j * rng.standard_normal((30, 40))
    if request.param == "duplicate-rows":
        H[7, :] = H[3, :]
    return rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))


class TestWideSpectrum:
    def test_eigenvalues_match_dense_form(self, wide_op):
        B = _weighted_factor(wide_op)
        dense = np.linalg.eigvalsh(B.conj().T @ B)[::-1]
        spec = rl.spectral_data(wide_op, 1e-12)
        lam = spec.eigenvalues
        assert lam.shape == (40,) and np.all(np.diff(lam) <= 0)
        assert spec.route.eigenvectors.shape == (40, 30)
        assert np.max(np.abs(lam - dense)) <= 1e-12 * dense[0]
        # the 10 structural zeros are exact; past the rank only roundoff remains
        assert np.count_nonzero(lam == 0.0) >= 10
        assert np.max(np.abs(lam[spec.numerical_rank:])) <= 1e-14 * lam[0]

    def test_eigenvectors_orthonormal_and_rebuild_form(self, wide_op):
        B = _weighted_factor(wide_op)
        S = B.conj().T @ B
        spec = rl.spectral_data(wide_op, 1e-12)
        U = spec.route.eigenvectors
        assert np.max(np.abs(U.conj().T @ U - np.eye(30))) <= 1e-12
        kept = U[:, : spec.numerical_rank]
        recon = (kept * spec.eigenvalues[: spec.numerical_rank]) @ kept.conj().T
        assert np.linalg.norm(recon - S) <= 1e-12 * np.linalg.norm(S)

    def test_injectivity_from_the_feature_side(self, wide_op, request):
        inj = rl.check_injectivity(wide_op)
        duplicate = "duplicate-rows" in request.node.callspec.id
        assert inj.numerical_rank == (29 if duplicate else 30)
        assert inj.injective is not duplicate

    def test_range_residual_matches_dense_projection(self, wide_op):
        rng = np.random.default_rng(8)
        B = _weighted_factor(wide_op)
        source = rl.DiscreteFunction(rng.standard_normal(30), wide_op.grid_T)
        image = rl.apply_forward(wide_op, source).values
        f = rl.DiscreteFunction(image + 0.05 * rng.standard_normal(40), wide_op.grid_E)
        # reference: the part of sqrt(w) f outside the column space of Bᴴ
        y = np.sqrt(wide_op.grid_E.weights) * f.values
        coef = np.linalg.lstsq(B.conj().T, y, rcond=None)[0]
        expected = np.linalg.norm(y - B.conj().T @ coef) / np.linalg.norm(y)
        assert expected > 1e-3
        K = wide_op
        got = rl.solve_kernel_system(K, f, range_tol=None).range_residual
        assert abs(got - expected) <= 1e-12
        with pytest.raises(rl.RangeViolationError) as err:
            rl.solve_kernel_system(K, f, range_tol=1e-6)
        assert err.value.residual == pytest.approx(expected, abs=1e-12)
        in_range = rl.DiscreteFunction(image, wide_op.grid_E)
        assert rl.solve_kernel_system(K, in_range).range_residual <= 1e-12


INVERT_SHAPES = {"wide": (60, 120), "square": (60, 60), "tall": (60, 30), "wide-520": (520, 1040)}
INVERT_CASES = [(kind, shape) for shape in INVERT_SHAPES for kind in ("real", "complex", "indicator")]


@pytest.mark.parametrize(
    "kind, shape", INVERT_CASES,
    ids=[kind if shape == "wide" else f"{kind}-{shape}" for kind, shape in INVERT_CASES],
)
def test_wide_invert_matches_least_squares(kind, shape):
    n_T, n_E = INVERT_SHAPES[shape]
    grid_T = rl.make_uniform_grid(0, 1, n_T, "midpoint")
    grid_E = rl.make_uniform_grid(0, 1, n_E, "midpoint")
    rng = np.random.default_rng(17)
    if kind == "indicator":
        fm = rl.make_feature_map(rl.FeatureFamily("indicator"), grid_T, grid_E)
    else:
        H = rng.standard_normal((n_T, n_E))
        if kind == "complex":
            H = H + 1j * rng.standard_normal((n_T, n_E))
        fm = rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H)
    op = rl.build_transform(fm)
    source = rng.standard_normal(n_T)
    f = rl.apply_forward(op, rl.DiscreteFunction(source, grid_T))
    if shape == "tall":
        # |T| > |E| is never injective, so invert refuses; the L* K⁻¹ f it
        # would return is still the minimum-norm least-squares solution
        with pytest.raises(rl.NotInjectiveError):
            rl.invert(op, f)
        solved = rl.solve_kernel_system(op, f, range_tol=None).solution
        recovered = rl.apply_adjoint(op, solved).values
    else:
        recovered = rl.invert(op, f).recovered.values
    # least squares on the weighted forward matrix sqrt(w) Hᴴ diag(m); m is
    # constant, so its minimum-norm solution is the minimum m-norm one
    sw = np.sqrt(grid_E.weights)
    forward = fm.matrix.conj().T * grid_T.weights[None, :]
    reference = np.linalg.lstsq(sw[:, None] * forward, sw * f.values, rcond=None)[0]
    assert np.linalg.norm(recovered - reference) <= 1e-9 * np.linalg.norm(reference)
    if shape != "tall":
        assert np.linalg.norm(recovered - source) <= 1e-9 * np.linalg.norm(source)


@pytest.mark.parametrize("n_T", [40, 50, 30], ids=["square", "tall", "wide"])
@pytest.mark.parametrize("kind", ["real", "complex", "duplicate-rows"])
def test_lazy_gram_matches_explicit_product(kind, n_T):
    # trapezoid weights on T are not constant, so diag(√m) must land on both sides
    grid_T = rl.make_uniform_grid(0, 1, n_T, "trapezoid")
    grid_E = rl.make_uniform_grid(0, 1, 40, "midpoint")
    rng = np.random.default_rng(23)
    H = rng.standard_normal((n_T, 40))
    if kind == "complex":
        H = H + 1j * rng.standard_normal((n_T, 40))
    if kind == "duplicate-rows":
        H[7, :] = H[3, :]
    op = rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))
    assert "hermitian_gram" not in vars(op)
    gram = op.gram
    expected = (H.conj().T * grid_T.weights[None, :]) @ H
    assert np.max(np.abs(gram - expected)) <= 1e-13 * np.max(np.abs(gram))
    assert op.gram is gram
    if kind != "complex":
        # a real map's gram is one syrk: exactly symmetric, with no defect
        assert gram.dtype == np.float64 and np.array_equal(gram, gram.T)
        assert op.hermitian_defect == 0.0


def wide_map(kind):
    """A wide map at the Cholesky floor or above: indicator 600 x 1200, or a random 520 x 1040.

    The complex map's rows are scaled from 1 to 1e-3, so its form spans six
    orders: the default cutoff keeps every eigenvalue and 1e-3 drops some.
    Any other kind is a real map whose row 7 repeats row 3.
    """
    if kind == "indicator":
        grid_T = rl.make_uniform_grid(0, 1, 600, "midpoint")
        grid_E = rl.make_uniform_grid(0, 1, 1200, "midpoint")
        return rl.build_transform(rl.make_feature_map(rl.FeatureFamily("indicator"), grid_T, grid_E))
    grid_T = rl.make_uniform_grid(0, 1, 520, "midpoint")
    grid_E = rl.make_uniform_grid(0, 1, 1040, "midpoint")
    rng = np.random.default_rng(31)
    H = rng.standard_normal((520, 1040))
    if kind == "complex":
        H = (H + 1j * rng.standard_normal((520, 1040))) * np.logspace(0, -3, 520)[:, None]
    else:
        H[7, :] = H[3, :]
    return rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))


def forced_qr(monkeypatch, op):
    """A copy of ``op`` decomposed by the thin QR and small eigh: the size floor is raised above |T|."""
    copy = rl.build_transform(op.feature)
    with monkeypatch.context() as patch:
        patch.setattr(rl.kernel, "LOW_RANK_MIN_SIZE", op.grid_T.size + 1)
        copy.weighted_eigh
    return copy


class TestWideCholeskyRoute:
    """From |T| = 512 a wide map's spectrum comes from ``G = Fᴴ F = L Lᴴ`` and ``eigvalsh``."""

    @pytest.fixture(scope="class", params=["indicator", "complex"])
    def routes(self, request):
        op = wide_map(request.param)
        with pytest.MonkeyPatch.context() as monkeypatch:
            return op, forced_qr(monkeypatch, op)

    def test_agrees_with_qr_route(self, routes):
        op, qr = routes
        chol, full = op.weighted_eigh, qr.weighted_eigh
        assert (chol.decomposition, full.decomposition) == ("wide", "wide")
        assert type(chol) is rl.kernel.WideRoute and chol.certified_error == 0.0
        assert "eigenpairs" not in vars(chol)
        assert chol.L.shape == (op.grid_T.size,) * 2 and chol.F.shape == (op.size, op.grid_T.size)
        assert type(full) is rl.kernel.EigenRoute
        gap = np.max(np.abs(chol.eigenvalues - full.eigenvalues))
        assert gap <= op.size * np.finfo(float).eps * full.eigenvalues[0]
        # the n - r structural zeros are sorted in as on the QR route
        assert np.count_nonzero(chol.eigenvalues == 0.0) == op.size - op.grid_T.size
        rank = rl.spectral_data(op).numerical_rank
        assert rank == rl.spectral_data(qr).numerical_rank == op.grid_T.size
        assert rl.check_injectivity(op).injective
        assert "eigenpairs" not in vars(op.weighted_eigh)

    def test_solves_agree_with_qr_route(self, routes):
        op, qr = routes
        rng = np.random.default_rng(5)
        complex_mode = np.iscomplexobj(op.feature.matrix)
        sources = random_samples(rng, op.grid_T.size, 4, complex_mode)
        images = (op.feature.matrix.conj().T * op.grid_T.weights[None, :]) @ sources
        rhs = np.column_stack([images, random_samples(rng, op.size, 3, complex_mode)])
        (x, residuals), (x_qr, residuals_qr) = (
            rl.kernel._solve_columns(kernel, rhs, 1e-12) for kernel in (op, qr)
        )
        gap = np.linalg.norm(x - x_qr, axis=0) / np.linalg.norm(x_qr, axis=0)
        assert np.max(gap) <= 1e-10
        # in range only roundoff remains; out of it the same mass is measured
        assert np.max(residuals[:4]) <= 1e-11 and np.max(residuals_qr[:4]) <= 1e-11
        assert np.max(np.abs(residuals[4:] - residuals_qr[4:])) <= 1e-12
        assert np.min(residuals[4:]) > 0.1
        diag, diag_qr = (rl.kernel._kept_diagonal(kernel) for kernel in (op, qr))
        assert np.max(np.abs(diag - diag_qr)) <= 1e-12 * np.max(diag_qr)
        with pytest.raises(rl.RangeViolationError) as err:
            rl.kernel._solve_columns(op, rhs, 1e-12, 1e-6)
        assert err.value.residual == residuals[4]
        assert "eigenpairs" not in vars(op.weighted_eigh)

    def test_dropping_cutoff_reads_the_qr_route(self, routes):
        op, qr = routes
        spec, spec_qr = rl.spectral_data(op, 1e-3), rl.spectral_data(qr, 1e-3)
        assert spec.numerical_rank == spec_qr.numerical_rank < op.grid_T.size
        for name in ("eigenvalues", "cutoff", "numerical_rank"):
            np.testing.assert_array_equal(getattr(spec, name), getattr(spec_qr, name))
        np.testing.assert_array_equal(spec.route.eigenvectors, spec_qr.route.eigenvectors)
        assert spec.route is op.weighted_eigh.eigenpairs
        rng = np.random.default_rng(6)
        rhs = random_samples(rng, op.size, 3, np.iscomplexobj(op.feature.matrix))
        (x, residuals), (x_qr, residuals_qr) = (
            rl.kernel._solve_columns(kernel, rhs, 1e-3) for kernel in (op, qr)
        )
        np.testing.assert_array_equal(x, x_qr)
        np.testing.assert_array_equal(residuals, residuals_qr)
        np.testing.assert_array_equal(
            rl.kernel._kept_diagonal(op, 1e-3), rl.kernel._kept_diagonal(qr, 1e-3)
        )
        # the full-rank cutoff still solves through the factor
        assert rl.spectral_data(op).route is op.weighted_eigh

    def test_inverts_on_the_t_side(self, routes):
        op, qr = routes
        rng = np.random.default_rng(7)
        source = random_samples(rng, op.grid_T.size, 1, np.iscomplexobj(op.feature.matrix))[:, 0]
        f = rl.apply_forward(op, rl.DiscreteFunction(source, op.grid_T))
        result, result_qr = rl.invert(op, f), rl.invert(qr, f)
        for got in (result, result_qr):
            assert np.linalg.norm(got.recovered.values - source) <= 1e-9 * np.linalg.norm(source)
            assert got.range_residual <= 1e-11
        # the refinement step recovers to near the data's own roundoff
        assert np.linalg.norm(result.recovered.values - source) <= 1e-13 * np.linalg.norm(source)
        assert result.range_residual <= 1e-14
        # G⁻¹ (B √w f) / √m, the T-side form of L*(K⁻¹ f)
        B = _weighted_factor(op)
        G = B @ B.conj().T
        expected = np.linalg.solve(G, B @ (np.sqrt(op.grid_E.weights) * f.values))
        expected /= np.sqrt(op.grid_T.weights)
        gap = np.linalg.norm(result.recovered.values - expected) / np.linalg.norm(expected)
        assert gap <= 1e-10


def test_wide_map_with_equal_rows_keeps_the_qr_rank(monkeypatch):
    op = wide_map("duplicate-rows")
    qr = forced_qr(monkeypatch, op)
    rank = rl.spectral_data(op).numerical_rank
    assert rank == rl.spectral_data(qr).numerical_rank == op.grid_T.size - 1
    inj = rl.check_injectivity(op)
    assert not inj.injective and inj.numerical_rank == rank
    f = rl.apply_forward(op, rl.DiscreteFunction(np.ones(op.grid_T.size), op.grid_T))
    with pytest.raises(rl.NotInjectiveError):
        rl.invert(op, f)


def wide_op_with_spectrum(lam, n_E=1200):
    """A map (|T| = ``lam.size`` <= ``n_E``) whose T-side gram ``G = B Bᴴ`` has the eigenvalues ``lam``.

    It is wide for ``n_E`` > |T|; at ``n_E`` = |T| it is square, and ``S = Bᴴ B`` has them too.
    """
    r = lam.size
    grid_T = rl.make_uniform_grid(0, 1, r, "midpoint")
    grid_E = rl.make_uniform_grid(0, 1, n_E, "midpoint")
    B = (orthonormal_columns(r, r) * np.sqrt(lam)) @ orthonormal_columns(n_E, r, seed=1).T
    H = B / np.sqrt(grid_T.weights)[:, None] / np.sqrt(grid_E.weights)[None, :]
    return rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))


class TestWideRankCertificate:
    """On the ``wide`` route a shifted Cholesky of ``G`` decides a full rank only where ``eigvalsh`` does.

    The cutoff is 1e-10 for the reason ``test_kernel.TestRankCertificate`` gives.
    """

    CUTOFF = 1e-10

    @pytest.mark.parametrize("case, certified, rank", [
        ("above-shift", True, 600), ("between", False, 600), ("below-cutoff", False, 599),
    ])
    def test_rank_agrees_with_eigvalsh(self, eigvalsh_calls, case, certified, rank):
        lam = certificate_spectrum(600, case, self.CUTOFF)
        op, reference = wide_op_with_spectrum(lam), wide_op_with_spectrum(lam)
        assert op.weighted_eigh.decomposition == reference.weighted_eigh.decomposition == "wide"
        expected = reference.weighted_eigh.eigenvalues
        assert rl.spectral_data(reference, self.CUTOFF).numerical_rank == rank
        eigvalsh_calls.clear()
        inj = rl.check_injectivity(op, self.CUTOFF)
        assert (inj.numerical_rank, inj.deficiency, inj.injective) == (rank, 600 - rank, rank == 600)
        assert op.weighted_eigh.rank_certified(self.CUTOFF) is certified
        assert len(eigvalsh_calls) == (0 if certified else 1)
        spec = rl.spectral_data(op, self.CUTOFF)
        if rank == 600:
            assert spec.route is op.weighted_eigh
        else:
            # a dropped eigenvalue reads the thin QR and small eigh
            assert spec.route is op.weighted_eigh.eigenpairs
            assert spec.route.eigenvectors.shape == (1200, 600)
        assert len(eigvalsh_calls) == (0 if certified else 1)
        # eigenvalues read after the certificate are those read first, bit for bit,
        # with the 600 structural zeros sorted in
        np.testing.assert_array_equal(op.weighted_eigh.eigenvalues, expected)
        assert np.count_nonzero(expected == 0.0) == 600


class TestShiftedFactorFallback:
    """Where refinement with the certificate's factor cannot converge, the unshifted factor takes over.

    The smallest eigenvalue of the form sits at 3 c or 1.5 c, above the
    certificate's shift c, so the rank is certified; refinement then
    contracts by c / (lambda_min - c) = 1/2 a step, or diverges.  A map
    with |E| = |T| takes the ``cholesky`` route, one with |E| = 2 |T| the
    ``wide`` one.  ``reference`` reads its spectrum first and solves with
    the unshifted factor from the start.
    """

    CUTOFF = 1e-10

    @pytest.mark.parametrize("case", ["slow-refinement", "diverging-refinement"])
    @pytest.mark.parametrize("n_E, route", [(600, "cholesky"), (1200, "wide")],
                             ids=["cholesky", "wide"])
    def test_falls_back_and_recovers(self, monkeypatch, case, n_E, route):
        lam = certificate_spectrum(600, case, self.CUTOFF)
        op = wide_op_with_spectrum(lam, n_E)
        reference = rl.build_transform(op.feature)
        reference.weighted_eigh.eigenvalues
        source = np.random.default_rng(9).standard_normal(600)
        f = rl.apply_forward(op, rl.DiscreteFunction(source, op.grid_T))
        expected = rl.invert(reference, f, self.CUTOFF)
        full_size = []
        original = rl.kernel._cholesky_in_place

        def counted(A):
            if np.shape(A) == (600, 600):
                full_size.append(1)
            return original(A)

        monkeypatch.setattr(rl.kernel, "_cholesky_in_place", counted)
        result = rl.invert(op, f, self.CUTOFF)
        eig = op.weighted_eigh
        assert eig.decomposition == route
        # certified, then the shifted factor replaced by the unshifted one
        assert eig.rank_certified(self.CUTOFF) and eig.shift == 0.0
        assert len(full_size) == 2

        def error(got):
            return np.linalg.norm(got.recovered.values - source) / np.linalg.norm(source)

        assert error(result) <= 1.01 * error(expected) + 1e-15
        assert result.range_residual <= 1e-12


def test_square_indicator_invert_refines_to_rounding_level():
    # the certificate's factor, refined on the data residual, recovers the
    # source to a few ulps; the unshifted solve without refinement erred by
    # about 4e-14 here
    grid = rl.make_uniform_grid(0, 1, 600, "midpoint")
    op = rl.build_transform(rl.make_feature_map(rl.FeatureFamily("indicator"), grid, grid))
    rng = np.random.default_rng(12)
    for _ in range(3):
        source = rng.standard_normal(600)
        result = rl.invert(op, rl.apply_forward(op, rl.DiscreteFunction(source, grid)))
        error = np.linalg.norm(result.recovered.values - source) / np.linalg.norm(source)
        assert error <= 1e-14
    eig = op.weighted_eigh
    assert eig.decomposition == "cholesky"
    assert eig.rank_certified(rl.kernel.DEFAULT_CUTOFF_REL) and eig.shift > 0.0


@pytest.mark.parametrize("n_T, n_E, route", [(600, 600, "cholesky"), (600, 1200, "wide")],
                         ids=["cholesky", "wide"])
def test_invert_leaves_no_reference_cycle(n_T, n_E, route):
    # a decomposition that referred back to its kernel would keep every array
    # of an op alive until the cyclic collector ran
    grid_T = rl.make_uniform_grid(0, 1, n_T, "midpoint")
    grid_E = rl.make_uniform_grid(0, 1, n_E, "midpoint")
    op = rl.build_transform(rl.make_feature_map(rl.FeatureFamily("indicator"), grid_T, grid_E))
    source = rl.DiscreteFunction(np.random.default_rng(4).standard_normal(n_T), grid_T)
    f = rl.apply_forward(op, source)
    gc.disable()
    try:
        rl.invert(op, f)
        eig = op.weighted_eigh
        assert eig.decomposition == route
        assert eig.rank_certified(rl.kernel.DEFAULT_CUTOFF_REL)
        kernel_ref, eig_ref = weakref.ref(op), weakref.ref(eig)
        del op, eig
        assert kernel_ref() is None and eig_ref() is None
    finally:
        gc.enable()


def square_indicator_op(n=600):
    grid = rl.make_uniform_grid(0, 1, n, "midpoint")
    return rl.build_transform(rl.make_feature_map(rl.FeatureFamily("indicator"), grid, grid))


class TestReleasedInducedGram:
    """On the ``cholesky`` route an induced kernel releases its gram and keeps its diagonal."""

    def test_released_and_formed_again_bit_for_bit(self):
        op = square_indicator_op()
        gram = op.gram.copy()
        kept = rl.kernel_from_gram(gram, op.grid_E)
        assert isinstance(op.weighted_eigh, rl.kernel.CholeskyRoute)
        assert "hermitian_gram" not in vars(op)
        np.testing.assert_array_equal(op.weighted_eigh.eigenvalues, kept.weighted_eigh.eigenvalues)
        assert op.weighted_eigh.decomposition == "cholesky"
        # the route forms S again from the feature map, never through the kernel
        assert rl.spectral_data(op, 0.5).route is op.weighted_eigh.eigenpairs
        assert "hermitian_gram" not in vars(op)
        np.testing.assert_array_equal(rl.spectral_data(op, 0.5).eigenvalues,
                                      rl.spectral_data(kept, 0.5).eigenvalues)
        assert op.gram.dtype == gram.dtype and np.array_equal(op.gram, gram)
        assert op.hermitian_defect == 0.0

    @pytest.mark.parametrize("kind", ["real", "complex", "released"])
    def test_kept_diagonal_is_the_gram_diagonal(self, kind):
        if kind == "released":
            op = square_indicator_op()
        else:
            grid_T = rl.make_uniform_grid(0, 1, 50, "trapezoid")
            grid_E = rl.make_uniform_grid(0, 1, 40, "midpoint")
            rng = np.random.default_rng(29)
            H = rng.standard_normal((50, 40))
            if kind == "complex":
                H = H + 1j * rng.standard_normal((50, 40))
            op = rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))
        expected = np.diag(op.gram).copy()
        op.weighted_eigh
        assert ("hermitian_gram" in vars(op)) is (kind != "released")
        assert op.gram_diagonal.dtype == expected.dtype
        assert np.array_equal(op.gram_diagonal, expected)

    def test_freed_by_reference_counting(self):
        op = square_indicator_op()
        # the factorization residual reads the gram before the decomposition
        rl.verify_identities(op, trials=5)
        rl.verify_reproducing(op, rl.kernel.DEFAULT_CUTOFF_REL, 5, 0, rl.kernel.DEFAULT_RANGE_TOL)
        rl.spectral_data(op, 0.5)
        assert "hermitian_gram" not in vars(op)
        refs = [weakref.ref(op), weakref.ref(op.weighted_eigh)]
        gc.disable()
        try:
            del op
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


@pytest.mark.parametrize("kind", ["real", "complex", "complex-real-gram"])
@pytest.mark.parametrize("n_T", [60, 70, 30], ids=["square", "tall", "wide"])
@pytest.mark.parametrize("columns", [None, 7], ids=["vector", "block"])
def test_map_product_agrees_with_the_gram_product(kind, n_T, columns):
    grid_T = rl.make_uniform_grid(0, 1, n_T, "trapezoid")
    grid_E = rl.make_uniform_grid(0, 1, 60, "trapezoid")
    rng = np.random.default_rng(31)
    H = rng.standard_normal((n_T, 60)).astype(complex if kind != "real" else float)
    if kind == "complex":
        H += 1j * rng.standard_normal((n_T, 60))
    op = rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))
    gram = op.gram
    # a complex map whose gram has no imaginary part gives a real gram
    assert np.iscomplexobj(gram) is (kind == "complex")
    shape = 60 if columns is None else (60, columns)
    real_x = rng.standard_normal(shape)
    for x in (real_x, real_x + 1j * rng.standard_normal(shape)):
        expected = gram @ x
        assert np.array_equal(op.gram_product(x), expected)
        # released as the cholesky route releases it, with the diagonal kept
        del op.hermitian_gram
        product = op.gram_product(x)
        assert "hermitian_gram" not in vars(op)
        assert product.dtype == expected.dtype and product.shape == expected.shape
        bound = 60 * np.finfo(float).eps * np.linalg.norm(gram) * np.linalg.norm(x)
        assert np.linalg.norm(product - expected) <= bound
        # bit for bit, and in the same layout, the product through a scaled
        # copy of H x: (yᴴ H)ᴴ with y = m∘(H x)
        y = op.feature.matrix @ x
        np.multiply(y.T, grid_T.weights, out=y.T)
        reference = (y.conj().T @ op.feature.matrix).conj().T
        if reference.dtype != product.dtype:
            reference = np.ascontiguousarray(reference.real)
        assert np.array_equal(product, reference) and product.strides == reference.strides
        op.gram


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n_T", [60, 70, 30], ids=["square", "tall", "wide"])
@pytest.mark.parametrize("columns", [None, 7], ids=["vector", "block"])
def test_forward_and_adjoint_products_agree_with_their_matrices(kind, n_T, columns):
    # Hᴴ (m∘X) and H (w∘X) are one product with H each; against the explicit
    # Hᴴ diag(m) and H diag(w), for real and complex X
    grid_T = rl.make_uniform_grid(0, 1, n_T, "trapezoid")
    grid_E = rl.make_uniform_grid(0, 1, 60, "trapezoid")
    rng = np.random.default_rng(37)
    H = rng.standard_normal((n_T, 60))
    if kind == "complex":
        H = H + 1j * rng.standard_normal((n_T, 60))
    op = rl.build_transform(rl.FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H))
    cases = [
        (rl.transform._forward_values, H.conj().T @ np.diag(grid_T.weights)),
        (rl.transform._adjoint_values, H @ np.diag(grid_E.weights)),
    ]
    for product, matrix in cases:
        shape = matrix.shape[1] if columns is None else (matrix.shape[1], columns)
        real_x = rng.standard_normal(shape)
        for x in (real_x, real_x + 1j * rng.standard_normal(shape)):
            expected = matrix @ x
            got = product(op, x)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            bound = max(n_T, 60) * np.finfo(float).eps * np.linalg.norm(matrix) * np.linalg.norm(x)
            assert np.linalg.norm(got - expected) <= bound
