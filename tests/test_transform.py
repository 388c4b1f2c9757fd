import math

import numpy as np
import pytest

import rkhslab as rl


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
        assert spec.eigenvectors.shape == (40, 30)
        assert np.max(np.abs(lam - dense)) <= 1e-12 * dense[0]
        # the 10 structural zeros are exact; past the rank only roundoff remains
        assert np.count_nonzero(lam == 0.0) >= 10
        assert np.max(np.abs(lam[spec.numerical_rank:])) <= 1e-14 * lam[0]

    def test_eigenvectors_orthonormal_and_rebuild_form(self, wide_op):
        B = _weighted_factor(wide_op)
        S = B.conj().T @ B
        spec = rl.spectral_data(wide_op, 1e-12)
        U = spec.eigenvectors
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


INVERT_SHAPES = {"wide": (60, 120), "square": (60, 60), "tall": (60, 30)}
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
