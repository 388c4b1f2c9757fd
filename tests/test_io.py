import numpy as np
import pytest

import rkhslab as rl
from rkhslab.io import (
    load_feature_csv,
    load_function_csv,
    load_kernel_csv,
    save_function_csv,
    save_feature_csv,
    save_kernel_csv,
)


@pytest.fixture
def grid():
    return rl.make_uniform_grid(0, 1, 25, "midpoint")


class TestFunctionCsv:
    def test_roundtrip_complex(self, grid, tmp_path):
        rng = np.random.default_rng(0)
        f = rl.DiscreteFunction(rng.standard_normal(25) + 1j * rng.standard_normal(25), grid)
        path = tmp_path / "f.csv"
        save_function_csv(f, path)
        back = load_function_csv(path, grid)
        np.testing.assert_array_equal(back.values, f.values)

    def test_roundtrip_real_stays_real(self, grid, tmp_path):
        f = rl.sample_function(grid, np.sin)
        path = tmp_path / "f.csv"
        save_function_csv(f, path)
        back = load_function_csv(path, grid)
        assert not np.iscomplexobj(back.values)
        np.testing.assert_array_equal(back.values, f.values)

    def test_row_count_mismatch(self, grid, tmp_path):
        other = rl.make_uniform_grid(0, 1, 10, "midpoint")
        f = rl.sample_function(other, np.cos)
        path = tmp_path / "f.csv"
        save_function_csv(f, path)
        with pytest.raises(rl.GridMismatchError, match="rows"):
            load_function_csv(path, grid)

    def test_point_mismatch(self, grid, tmp_path):
        shifted = rl.make_uniform_grid(0.1, 1.1, 25, "midpoint")
        f = rl.sample_function(shifted, np.cos)
        path = tmp_path / "f.csv"
        save_function_csv(f, path)
        with pytest.raises(rl.GridMismatchError, match="points"):
            load_function_csv(path, grid)

    def test_bad_header(self, grid, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x,re,im\n0.5,1,0\n")
        with pytest.raises(ValueError, match="header"):
            load_function_csv(path, grid)


class TestMatrixCsv:
    def test_kernel_roundtrip_real_mode(self, grid, tmp_path):
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
        path = tmp_path / "K.csv"
        save_kernel_csv(K, path, mode="real")
        back = load_kernel_csv(path, grid, mode="real")
        np.testing.assert_array_equal(back.gram, K.gram)

    def test_kernel_roundtrip_complex_mode(self, grid, tmp_path):
        gram = np.eye(25) + 1j * 1e-3 * (np.eye(25, k=1) - np.eye(25, k=-1))
        K = rl.kernel_from_gram(gram, grid)
        path = tmp_path / "K.csv"
        save_kernel_csv(K, path, mode="complex")
        back = load_kernel_csv(path, grid, mode="complex")
        np.testing.assert_array_equal(back.gram, K.gram)

    def test_real_mode_rejects_complex(self, grid, tmp_path):
        gram = np.eye(25) + 1j * 1e-3 * (np.eye(25, k=1) - np.eye(25, k=-1))
        K = rl.kernel_from_gram(gram, grid)
        with pytest.raises(ValueError, match="imaginary"):
            save_kernel_csv(K, tmp_path / "K.csv", mode="real")

    def test_feature_roundtrip(self, tmp_path):
        grid_T = rl.make_uniform_grid(0, 1, 12, "midpoint")
        grid_E = rl.make_uniform_grid(0, 1, 20, "midpoint")
        rng = np.random.default_rng(1)
        fm = rl.FeatureMap(grid_T=grid_T, grid_E=grid_E,
                           matrix=rng.standard_normal((12, 20)))
        path = tmp_path / "H.csv"
        save_feature_csv(fm, path, mode="real")
        back = load_feature_csv(path, grid_T, grid_E, mode="real")
        np.testing.assert_array_equal(back.matrix, fm.matrix)
        # the loaded map behaves identically through the transform
        op_a = rl.build_transform(fm)
        op_b = rl.build_transform(back)
        np.testing.assert_array_equal(op_a.gram, op_b.gram)

    def test_wrong_shape_rejected(self, grid, tmp_path):
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
        path = tmp_path / "K.csv"
        save_kernel_csv(K, path, mode="real")
        small = rl.make_uniform_grid(0, 1, 10, "midpoint")
        with pytest.raises(rl.GridMismatchError):
            load_kernel_csv(path, small, mode="real")

    def test_unknown_mode(self, grid, tmp_path):
        K = rl.assemble_kernel(rl.builtin_kernel("brownian"), grid)
        with pytest.raises(ValueError, match="mode"):
            save_kernel_csv(K, tmp_path / "K.csv", mode="hex")
