"""Kernel matrices, the discretized kernel operator, and its spectral pseudo-inverse.

The integral operator ``(Kf)(p) = integral K(p,q) f(q) dq`` discretizes to the
matrix ``gram @ diag(w)`` acting on sample vectors, where ``gram`` holds the
kernel values at grid points and ``w`` the quadrature weights.  All solves go
through the eigendecomposition of the symmetrized form
``S = sqrt(W) gram sqrt(W)``, with a relative eigenvalue cutoff standing in
for restriction to the operator range.  A ``KernelMatrix`` decomposes the
n x n form itself; the kernel a wide transform induces
(``transform.InducedKernel``) reads the same spectrum from its smaller
feature side, so its eigenvector matrix has fewer columns than rows and its
remaining eigenvalues are structural zeros.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NonHermitianKernelError, RangeViolationError
from .grid import DiscreteFunction, Grid, as_samples, ensure_aligned, evaluate

#: relative Hermitian defect above which a kernel is rejected outright
HERMITIAN_REJECT_REL = 1e-6

#: default relative eigenvalue cutoff for pseudo-inverse solves
DEFAULT_CUTOFF_REL = 1e-12

#: default relative residual above which a solve reports a range violation
DEFAULT_RANGE_TOL = 1e-6


@dataclass
class KernelMatrix:
    """Hermitian matrix of kernel values over one grid.

    ``gram[i, j]`` holds ``K(p_i, p_j)``.  The matrix is symmetrized on
    construction and the pre-symmetrization defect is recorded.
    """

    grid: Grid
    gram: np.ndarray
    hermitian_defect: float

    @property
    def size(self) -> int:
        return self.grid.size

    @cached_property
    def weighted_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of ``S = sqrt(W) gram sqrt(W)``, descending; computed once, on first use."""
        sw = np.sqrt(self.grid.weights)
        S = sw[:, None] * self.gram * sw[None, :]
        # halving first cannot overflow; the overlapping transpose is read before S is written
        S *= 0.5
        S += S.conj().T
        lam, U = np.linalg.eigh(S)
        # a fancy index keeps U Fortran-ordered; the solves' last digits depend on it
        order = np.arange(lam.size - 1, -1, -1)
        return lam[order], U[:, order]


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of the weighted symmetric form, rank-truncated.

    Eigenvalues are sorted descending; eigenvector columns are orthonormal in
    the Euclidean product of the symmetrized form.  ``numerical_rank`` counts
    eigenvalues strictly above ``cutoff``.  The eigenvectors are n x n, or
    n x r for a form of structural rank at most r < n (the kernel of a wide
    transform): its other n - r eigenvalues are zeros sorted in, and column k
    pairs with eigenvalue k for every eigenvalue above zero, so for every
    kept one.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    cutoff: float
    numerical_rank: int


@dataclass(frozen=True)
class PsdReport:
    passed: bool
    min_eigenvalue: float


@dataclass(frozen=True)
class SolveResult:
    solution: DiscreteFunction
    range_residual: float


def kernel_from_gram(gram: np.ndarray, grid: Grid) -> KernelMatrix:
    """Wrap a raw matrix of kernel values: validate, symmetrize, record defect.

    An exactly Hermitian input is stored as a copy with defect 0.
    """
    gram = as_samples(gram)
    if gram.shape != (grid.size, grid.size):
        raise ValueError(f"gram must be {grid.size}x{grid.size}, got {gram.shape}")
    if not np.all(np.isfinite(gram)):
        raise ValueError("kernel produced non-finite values")
    adjoint = gram.conj().T
    if np.array_equal(gram, adjoint):
        defect = 0.0
        sym = gram.copy()
    else:
        # a difference that overflows exceeds any admissible defect
        with np.errstate(over="ignore"):
            defect = float(np.max(np.abs(gram - adjoint)))
        scale = float(np.max(np.abs(gram)))
        if scale > 0 and defect > HERMITIAN_REJECT_REL * scale:
            raise NonHermitianKernelError(defect, scale)
        # halving each side first cannot overflow, and is exact in normal range
        sym = 0.5 * gram + 0.5 * adjoint
    if np.iscomplexobj(sym) and not np.any(sym.imag):
        sym = sym.real
    return KernelMatrix(grid=grid, gram=sym, hermitian_defect=defect)


def assemble_kernel(kfun: Callable, grid: Grid) -> KernelMatrix:
    """Evaluate ``kfun(p, q)`` on the grid's point pairs and build the matrix.

    ``kfun`` may be vectorized over arrays or a plain scalar function.  A
    Hermitian defect above ``HERMITIAN_REJECT_REL`` relative to the largest
    entry rejects the kernel as non-self-adjoint.
    """
    p = grid.points
    return kernel_from_gram(evaluate(kfun, p[:, None], p[None, :]), grid)


def discrete_delta_kernel(grid: Grid) -> KernelMatrix:
    """Kernel whose operator is the identity: gram = diag(1 / weights).

    This is the discrete counterpart of the delta kernel, the unique matrix
    with ``sum_j gram[i, j] w_j f_j = f_i``.
    """
    return kernel_from_gram(np.diag(1.0 / grid.weights), grid)


def builtin_kernel(name: str, **params) -> Callable:
    """Named kernel functions used by tests and the CLI config.

    brownian: min(p, q); gaussian: exp(-(p-q)^2 / (2 l^2)); sinc:
    sin(b (p-q)) / (pi (p-q)); constant: fixed value (negative values give a
    deliberately non-PSD test kernel).
    """
    if name == "brownian":
        return lambda p, q: np.minimum(p, q)
    if name == "gaussian":
        ell = float(params.get("lengthscale", 0.2))
        if ell <= 0:
            raise ValueError("gaussian kernel needs lengthscale > 0")
        return lambda p, q: np.exp(-((p - q) ** 2) / (2.0 * ell * ell))
    if name == "sinc":
        band = float(params.get("band", math.pi))
        if band <= 0:
            raise ValueError("sinc kernel needs band > 0")
        return lambda p, q: (band / math.pi) * np.sinc(band * (p - q) / math.pi)
    if name == "constant":
        value = float(params.get("value", 1.0))
        return lambda p, q: np.full(np.broadcast_shapes(np.shape(p), np.shape(q)), value)
    raise ValueError(f"unknown built-in kernel {name!r}")


BUILTIN_KERNEL_NAMES = ("brownian", "gaussian", "sinc", "constant")


def spectral_data(K: KernelMatrix, cutoff_rel: float = DEFAULT_CUTOFF_REL) -> SpectralData:
    """Spectral factorization with the rank cutoff ``cutoff_rel * lambda_max``."""
    if not 0 < cutoff_rel < 1:
        raise ValueError("cutoff_rel must lie in (0, 1)")
    lam, U = K.weighted_eigh
    lam_max = max(float(lam[0]), 0.0)
    cutoff = cutoff_rel * lam_max
    rank = int(np.count_nonzero(lam > cutoff))
    return SpectralData(
        eigenvalues=lam, eigenvectors=U, cutoff=cutoff, numerical_rank=rank
    )


def validate_psd(K: KernelMatrix, tol_psd: float) -> PsdReport:
    """Check nonnegative-definiteness of the weighted form.

    Passes iff the minimum eigenvalue of ``sqrt(W) gram sqrt(W)`` is at least
    ``-tol_psd``.
    """
    lam, _ = K.weighted_eigh
    min_eig = float(lam[-1])
    return PsdReport(passed=min_eig >= -tol_psd, min_eigenvalue=min_eig)


def condition_number(K: KernelMatrix, cutoff_rel: float = DEFAULT_CUTOFF_REL) -> float:
    """Ratio of the largest eigenvalue to the smallest one kept by the cutoff."""
    spec = spectral_data(K, cutoff_rel)
    if spec.numerical_rank == 0:
        return math.inf
    kept = spec.eigenvalues[: spec.numerical_rank]
    return float(kept[0] / kept[-1])


def apply_operator(K: KernelMatrix, f: DiscreteFunction) -> DiscreteFunction:
    """Apply the discretized integral operator: ``gram @ (w * f)``."""
    ensure_aligned(f, K.grid)
    return DiscreteFunction(values=K.gram @ (K.grid.weights * f.values), grid=K.grid)


def _solve_columns(
    K: KernelMatrix, rhs: np.ndarray, cutoff_rel: float, range_tol: float | None = None
):
    """Pseudo-inverse solve of ``gram @ W @ x = rhs`` for one or many columns.

    Returns ``(x, residuals)`` where the per-column residual is the relative
    weighted-L2 norm of the component of ``rhs`` outside the numerical range
    (the dropped spectral coefficients).  Raises ``RangeViolationError`` with
    the residual of the first column above ``range_tol``, unless it is None.
    """
    spec = spectral_data(K, cutoff_rel)
    lam, U = spec.eigenvalues, spec.eigenvectors
    rank = spec.numerical_rank
    sw = np.sqrt(K.grid.weights)
    single = rhs.ndim == 1
    cols = rhs[:, None] if single else rhs
    weighted = sw[:, None] * cols
    coeffs = U.conj().T @ weighted
    if U.shape[1] == U.shape[0]:
        total = np.linalg.norm(coeffs, axis=0)
        dropped = np.linalg.norm(coeffs[rank:, :], axis=0)
    else:
        # U spans only part of the space: measure what the kept columns leave out
        total = np.linalg.norm(weighted, axis=0)
        dropped = np.linalg.norm(weighted - U[:, :rank] @ coeffs[:rank], axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        residuals = np.where(total > 0, dropped / total, 0.0)
    if range_tol is not None and np.any(residuals > range_tol):
        first = float(residuals[np.argmax(residuals > range_tol)])
        raise RangeViolationError(first, range_tol)
    # at rank 0 the empty product is the zero solution
    x = (U[:, :rank] @ (coeffs[:rank] / lam[:rank, None])) / sw[:, None]
    if single:
        return x[:, 0], float(residuals[0])
    return x, residuals


def solve_kernel_system(
    K: KernelMatrix,
    f: DiscreteFunction,
    cutoff_rel: float = DEFAULT_CUTOFF_REL,
    range_tol: float | None = DEFAULT_RANGE_TOL,
) -> SolveResult:
    """Invert the kernel operator on its numerical range.

    Solves ``gram @ W @ x = f`` by spectral pseudo-inverse with eigenvalue
    threshold ``cutoff_rel * lambda_max``, the discrete form of applying the
    inverse operator on the quotient by the null space.  The reported range
    residual is the weighted-L2 mass of ``f`` in the dropped eigendirections
    relative to ``||f||``; in exact arithmetic it equals
    ``||gram W x - f|| / ||f||``.

    Raises ``RangeViolationError`` when the residual exceeds ``range_tol``
    (pass ``range_tol=None`` to report without raising).
    """
    ensure_aligned(f, K.grid)
    x, residual = _solve_columns(K, f.values, cutoff_rel, range_tol)
    return SolveResult(
        solution=DiscreteFunction(values=x, grid=K.grid), range_residual=residual
    )


def range_residual(K: KernelMatrix, f: DiscreteFunction, cutoff_rel: float = DEFAULT_CUTOFF_REL) -> float:
    """Relative weighted-L2 mass of ``f`` outside the numerical range of ``K``."""
    ensure_aligned(f, K.grid)
    return _solve_columns(K, f.values, cutoff_rel)[1]
