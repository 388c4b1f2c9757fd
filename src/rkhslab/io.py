"""CSV import/export for functions, kernel matrices, and feature matrices.

Function files carry a ``point,value_re,value_im`` header.  Matrix files are
plain numeric CSV, row-major; in complex mode each entry occupies two columns
(real then imaginary), in real mode one.
"""
from __future__ import annotations

import csv

import numpy as np

from .errors import GridMismatchError
from .grid import DiscreteFunction, Grid
from .kernel import KernelMatrix, _hermitian_gram
from .transform import FeatureMap

FUNCTION_HEADER = ("point", "value_re", "value_im")

#: relative slack when matching data points against grid points
POINT_MATCH_RTOL = 1e-9


def save_function_csv(f: DiscreteFunction, path) -> None:
    values = np.asarray(f.values, dtype=complex)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FUNCTION_HEADER)
        for x, v in zip(f.grid.points, values):
            writer.writerow([f"{x:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"])


def load_function_csv(path, grid: Grid) -> DiscreteFunction:
    """Read samples and bind them to ``grid``, checking point alignment.

    Raises ``GridMismatchError`` when row count or point coordinates do not
    match the grid.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(FUNCTION_HEADER):
            raise ValueError(f"expected header {','.join(FUNCTION_HEADER)} in {path}")
        rows = [row for row in reader if row]
    if len(rows) != grid.size:
        raise GridMismatchError(
            f"{path} has {len(rows)} data rows, grid has {grid.size} points"
        )
    if any(len(r) < 3 for r in rows):
        raise ValueError(f"{path}: every data row needs point,value_re,value_im")
    points = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
    span = max(abs(grid.interval[0]), abs(grid.interval[1]), 1.0)
    if not np.allclose(points, grid.points, rtol=0, atol=POINT_MATCH_RTOL * span):
        raise GridMismatchError(f"points in {path} do not match the declared grid")
    if not np.any(values.imag):
        values = values.real
    return DiscreteFunction(values=values, grid=grid)


def save_matrix_csv(matrix: np.ndarray, path, mode: str = "complex") -> None:
    """Write a dense matrix row-major; complex mode interleaves re,im columns."""
    matrix = np.asarray(matrix)
    if mode == "real":
        if np.iscomplexobj(matrix) and np.any(matrix.imag):
            raise ValueError("matrix has imaginary parts; real mode cannot store it")
        out = np.real(matrix)
    elif mode == "complex":
        matrix = matrix.astype(complex, copy=False)
        out = np.empty((matrix.shape[0], 2 * matrix.shape[1]))
        out[:, 0::2] = matrix.real
        out[:, 1::2] = matrix.imag
    else:
        raise ValueError(f"unknown matrix CSV mode {mode!r}")
    np.savetxt(path, out, delimiter=",", fmt="%.17g")


def load_matrix_csv(path, mode: str = "complex") -> np.ndarray:
    flat = np.loadtxt(path, delimiter=",", ndmin=2)
    if mode == "real":
        return flat
    if mode == "complex":
        if flat.shape[1] % 2 != 0:
            raise ValueError(f"{path}: complex mode needs an even column count")
        return flat[:, 0::2] + 1j * flat[:, 1::2]
    raise ValueError(f"unknown matrix CSV mode {mode!r}")


def load_kernel_csv(path, grid: Grid, mode: str = "complex") -> KernelMatrix:
    gram = load_matrix_csv(path, mode)
    if gram.shape != (grid.size, grid.size):
        raise GridMismatchError(
            f"{path} holds a {gram.shape} matrix, grid needs {grid.size}x{grid.size}"
        )
    # the parsed array is the reader's own: it becomes the gram, or its Hermitian part is written over it
    return KernelMatrix(grid, *_hermitian_gram(gram, grid, owned=True))


def save_kernel_csv(K: KernelMatrix, path, mode: str = "complex") -> None:
    save_matrix_csv(K.gram, path, mode)


def load_feature_csv(path, grid_T: Grid, grid_E: Grid, mode: str = "complex") -> FeatureMap:
    matrix = load_matrix_csv(path, mode)
    if matrix.shape != (grid_T.size, grid_E.size):
        raise GridMismatchError(
            f"{path} holds a {matrix.shape} matrix, grids need "
            f"{grid_T.size}x{grid_E.size}"
        )
    return FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=matrix)


def save_feature_csv(feature: FeatureMap, path, mode: str = "complex") -> None:
    save_matrix_csv(feature.matrix, path, mode)
