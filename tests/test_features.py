import math

import numpy as np
import pytest

import rkhslab as rl
from conftest import random_range_function


def family_fixture(family, n, sigma=0.15):
    """Canonical grid pair and feature map for one family at size n."""
    if family == "indicator":
        spec = rl.FeatureFamily("indicator")
        grid_E = rl.make_uniform_grid(0, 1, n, "midpoint")
        grid_T = rl.make_uniform_grid(0, 1, n, "midpoint")
    elif family == "fourier":
        spec = rl.FeatureFamily("fourier", band=math.pi)
        grid_E = rl.make_uniform_grid(0, 1, n, "trapezoid")
        grid_T = rl.make_uniform_grid(-math.pi, math.pi, n, "trapezoid")
    elif family == "gaussian":
        spec = rl.FeatureFamily("gaussian", sigma=sigma)
        a, b = rl.recommended_t_interval(spec, (0.0, 1.0))
        grid_E = rl.make_uniform_grid(0, 1, n, "trapezoid")
        grid_T = rl.make_uniform_grid(a, b, n, "trapezoid")
    elif family == "orthonormal_diagonal":
        spec = rl.FeatureFamily("orthonormal_diagonal")
        grid_E = rl.make_uniform_grid(0, 1, n, "trapezoid")
        grid_T = rl.make_uniform_grid(0, 1, n, "trapezoid")
    else:
        raise ValueError(family)
    return spec, rl.make_feature_map(spec, grid_T, grid_E)


class TestClosedForms:
    def test_indicator_matches_min(self):
        spec, fm = family_fixture("indicator", 200)
        op = rl.build_transform(fm)
        assert rl.closed_form_discrepancy(spec, op) <= 5e-3

    def test_fourier_diagonal_is_band_over_pi(self):
        spec, fm = family_fixture("fourier", 150)
        op = rl.build_transform(fm)
        diag = np.real(np.diag(op.gram))
        assert np.max(np.abs(diag - 1.0)) <= 1e-6  # band/pi = 1 at band = pi

    def test_gaussian_matches_closed_form(self):
        spec, fm = family_fixture("gaussian", 200)
        op = rl.build_transform(fm)
        assert rl.closed_form_discrepancy(spec, op) <= 1e-10

    def test_orthonormal_offdiagonal_mass_tiny(self):
        spec, fm = family_fixture("orthonormal_diagonal", 120)
        op = rl.build_transform(fm)
        B = op.gram * op.grid_E.weights[None, :]
        off = B - np.diag(np.diag(B))
        assert np.linalg.norm(off) / np.linalg.norm(B) <= 1e-10

    @pytest.mark.parametrize("family,kwargs", [
        ("indicator", {}),
        ("fourier", {}),
        ("gaussian", {"sigma": 0.01}),
    ])
    def test_refinement_reduces_error(self, family, kwargs):
        errors = {}
        for n in (100, 400):
            spec, fm = family_fixture(family, n, **kwargs)
            errors[n] = rl.closed_form_discrepancy(spec, rl.build_transform(fm))
        # strict decrease unless already at the roundoff floor
        assert errors[400] < errors[100] or errors[400] <= 1e-12


class TestCardinalSinc:
    def test_integer_grid_reproduces_bandlimited_samples(self):
        # at band pi the induced kernel on an integer grid is the identity,
        # so reproducing holds for any samples of a bandlimited function
        grid_E = rl.make_uniform_grid(0, 7, 8, "trapezoid")
        grid_T = rl.make_uniform_grid(-math.pi, math.pi, 64, "trapezoid")
        spec = rl.FeatureFamily("fourier", band=math.pi)
        op = rl.build_transform(rl.make_feature_map(spec, grid_T, grid_E))
        space = rl.make_rkhs_space(op)
        f = rl.sample_function(grid_E, lambda p: np.sin(0.8 * p) + np.cos(2.0 * p))
        res = rl.reproducing_residuals(space, f)
        assert res.max() <= 1e-6


class TestOrthonormalDiagonal:
    def test_custom_weight_diagonalizes(self):
        grid = rl.make_uniform_grid(0, 1, 80, "trapezoid")
        matrices = []
        # the second weight takes scalars only and is evaluated point by point
        for weight in (lambda p: 1.0 + p**2, lambda p: float(1.0 + p**2)):
            spec = rl.FeatureFamily("orthonormal_diagonal", weight=weight)
            feature = rl.make_feature_map(spec, grid, grid)
            B = rl.build_transform(feature).gram * grid.weights[None, :]
            np.testing.assert_allclose(np.diag(B), 1.0 + grid.points**2, atol=1e-12)
            matrices.append(feature.matrix)
        np.testing.assert_array_equal(matrices[0], matrices[1])

    def test_needs_enough_modes(self):
        grid_T = rl.make_uniform_grid(0, 1, 10, "trapezoid")
        grid_E = rl.make_uniform_grid(0, 1, 20, "trapezoid")
        with pytest.raises(ValueError, match="at least as large"):
            rl.make_feature_map(rl.FeatureFamily("orthonormal_diagonal"), grid_T, grid_E)

    def test_mode_count_must_match(self):
        grid = rl.make_uniform_grid(0, 1, 16, "trapezoid")
        with pytest.raises(ValueError, match="mode count"):
            rl.make_feature_map(
                rl.FeatureFamily("orthonormal_diagonal", modes=8), grid, grid)

    def test_deterministic_construction(self):
        grid = rl.make_uniform_grid(0, 1, 50, "trapezoid")
        spec = rl.FeatureFamily("orthonormal_diagonal")
        a = rl.make_feature_map(spec, grid, grid).matrix
        b = rl.make_feature_map(spec, grid, grid).matrix
        np.testing.assert_array_equal(a, b)

    def test_in_place_scaling_is_bit_for_bit_the_products(self):
        # the whole-array products the in-place steps replace
        grid_T = rl.make_uniform_grid(0, 1, 90, "midpoint")
        grid_E = rl.make_uniform_grid(0, 1, 70, "trapezoid")
        weight = lambda p: 1.0 + 2.0 * p
        M, N = grid_T.size, grid_E.size
        k = np.arange(M, dtype=float)[:, None]
        j = np.arange(N, dtype=float)[None, :]
        sm = np.sqrt(grid_T.weights)
        q, r = np.linalg.qr(sm[:, None] * np.cos(math.pi * j * (k + 0.5) / M))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        phi = (q * signs[None, :]) / sm[:, None]
        expected = phi * np.sqrt(weight(grid_E.points) / grid_E.weights)[None, :]
        spec = rl.FeatureFamily("orthonormal_diagonal", weight=weight)
        np.testing.assert_array_equal(rl.make_feature_map(spec, grid_T, grid_E).matrix, expected)


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown feature family"):
            rl.FeatureFamily("wavelet")

    def test_bad_params(self):
        with pytest.raises(ValueError):
            rl.FeatureFamily("fourier", band=-1.0)
        with pytest.raises(ValueError):
            rl.FeatureFamily("gaussian", sigma=0.0)
        with pytest.raises(ValueError):
            rl.FeatureFamily("gaussian")
        with pytest.raises(ValueError):
            rl.FeatureFamily("orthonormal_diagonal", modes=0)

    def test_indicator_interval_mismatch(self):
        grid_T = rl.make_uniform_grid(0, 2, 20, "midpoint")
        grid_E = rl.make_uniform_grid(0, 1, 20, "midpoint")
        with pytest.raises(ValueError, match="same interval"):
            rl.make_feature_map(rl.FeatureFamily("indicator"), grid_T, grid_E)

    def test_fourier_asymmetric_t_rejected(self):
        grid_T = rl.make_uniform_grid(0, 1, 20, "trapezoid")
        grid_E = rl.make_uniform_grid(0, 1, 20, "trapezoid")
        with pytest.raises(ValueError, match="symmetric"):
            rl.make_feature_map(rl.FeatureFamily("fourier", band=1.0), grid_T, grid_E)

    def test_fourier_band_grid_mismatch(self):
        grid_T = rl.make_uniform_grid(-2, 2, 20, "trapezoid")
        grid_E = rl.make_uniform_grid(0, 1, 20, "trapezoid")
        with pytest.raises(ValueError, match="band"):
            rl.make_feature_map(rl.FeatureFamily("fourier", band=1.0), grid_T, grid_E)

    def test_recommended_intervals(self):
        assert rl.recommended_t_interval(rl.FeatureFamily("indicator"), (0, 1)) == (0, 1)
        assert rl.recommended_t_interval(
            rl.FeatureFamily("fourier", band=2.0), (0, 1)) == (-2.0, 2.0)
        a, b = rl.recommended_t_interval(rl.FeatureFamily("gaussian", sigma=0.1), (0, 1))
        assert a == pytest.approx(-0.8) and b == pytest.approx(1.8)


class TestFamilyRegimes:
    def test_indicator_reproducing_through_induced_kernel(self):
        spec, fm = family_fixture("indicator", 150)
        op = rl.build_transform(fm)
        space = rl.make_rkhs_space(op)
        rng = np.random.default_rng(10)
        f = random_range_function(op, rng)
        assert rl.reproducing_residuals(space, f).max() <= 1e-8
