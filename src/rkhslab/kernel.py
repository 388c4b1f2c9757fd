"""Kernel matrices, the discretized kernel operator, and its spectral pseudo-inverse.

The integral operator ``(Kf)(p) = integral K(p,q) f(q) dq`` discretizes to the
matrix ``gram @ diag(w)`` acting on sample vectors, where ``gram`` holds the
kernel values at grid points and ``w`` the quadrature weights.  All solves go
through a decomposition of the symmetrized form ``S = sqrt(W) gram sqrt(W)``,
with a relative eigenvalue cutoff standing in for restriction to the
operator range.

That decomposition takes one of four routes:

* ``wide``: when the kernel supplies an exact factor ``S = F Fᴴ`` with fewer
  columns than rows (``KernelMatrix.exact_factor``; the kernel a wide
  transform induces, ``transform.InducedKernel``, supplies its feature side),
  the spectrum is read from F by one small ``eigh``.
* ``low_rank``: at n >= ``LOW_RANK_MIN_SIZE`` a pivoted Cholesky
  ``S ≈ L Lᴴ`` is tried first (Harbrecht, Peters & Schneider 2012).  It is
  used when it needs at most n / 8 pivots, all positive, and its error
  ``err = ||S - L Lᴴ||_F`` is at most ``n * eps * lambda_max`` (``eps`` the
  machine epsilon), the backward error of the dense ``eigh`` it replaces.
  By Weyl's inequality ``lambda_min(S) >= -err``, and the last eigenvalue
  slot carries that bound.  Its factor then takes one small ``eigh``.
* ``cholesky``: otherwise, at n >= ``LOW_RANK_MIN_SIZE``, a full Cholesky
  ``S = L Lᴴ`` is tried.  When it succeeds the eigenvalues come from
  ``eigvalsh`` and no eigenvectors are formed: at a cutoff that keeps every
  eigenvalue the pseudo-inverse is the inverse, and the solves are two
  triangular substitutions with ``L``.  A cutoff that drops an eigenvalue
  reads the dense ``eigh``, run then, once (``KernelMatrix.dense_eigh``).
* ``dense``: otherwise, or when ``S`` is not numerically positive definite,
  the n x n form is decomposed by one ``eigh``.

``KernelMatrix.weighted_eigh`` alone chooses among the four.  A factor route
yields eigenvectors with fewer columns than rows, and its remaining
eigenvalues are zeros.
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

#: smallest form size at which the low-rank, then the Cholesky route run before the dense ``eigh``
LOW_RANK_MIN_SIZE = 512

#: the pivoted Cholesky stops once every residual diagonal is at most this times the largest diagonal
PIVOT_STOP_REL = 1e-14


@dataclass(frozen=True, eq=False)
class WeightedEigh:
    """Eigenpairs of the weighted form, descending, and how they were computed.

    ``decomposition`` names the route: ``"dense"``, ``"wide"``,
    ``"low_rank"`` or ``"cholesky"``.  ``certified_error`` is
    ``||S - L Lᴴ||_F`` of the low-rank factor, and 0 on the exact routes.
    On the ``cholesky`` route ``eigenvectors`` is None and ``L`` is the
    lower-triangular factor ``S = L Lᴴ``; on every other route ``L`` is
    None.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    decomposition: str
    certified_error: float
    L: np.ndarray | None = None


def _factor_eigh(factor: np.ndarray, decomposition: str, error: float = 0.0) -> WeightedEigh:
    """Eigenpairs of ``F Fᴴ`` from its n x r factor F (r < n), standing in for ``S``.

    ``error`` is ``||S - F Fᴴ||_F``, 0 for an exact factor.  A thin QR
    ``F = Q R`` gives ``F Fᴴ = Q (R Rᴴ) Qᴴ``, so one r x r ``eigh`` of
    ``R Rᴴ = V Λ Vᴴ`` yields the r leading eigenvalues and the eigenvectors
    ``Q V``; the other n - r eigenvalues are zeros, sorted in after the
    positive ones.  The last one is lowered by ``error``: by Weyl's
    inequality ``lambda_min(S) >= lambda_min(F Fᴴ) - error``.
    """
    n_dim, r_dim = factor.shape
    Q, R = np.linalg.qr(factor)
    # an overflow here is a kernel beyond the float range, as in ``_hermitian_gram``
    with np.errstate(over="ignore", invalid="ignore"):
        small = R @ R.conj().T
    if not np.all(np.isfinite(small)):
        raise ValueError("kernel produced non-finite values")
    lam, V = np.linalg.eigh(small)
    order = np.arange(r_dim - 1, -1, -1)
    lam = lam[order]
    lam = np.insert(lam, np.count_nonzero(lam > 0), np.zeros(n_dim - r_dim))
    lam[-1] -= error
    return WeightedEigh(lam, Q @ V[:, order], decomposition, error)


def _pivoted_cholesky(S: np.ndarray, max_rank: int) -> np.ndarray | None:
    """Factor ``L`` (n x r) with ``S ≈ L Lᴴ``, pivoting on the largest residual diagonal.

    Stops once every residual diagonal is at most ``PIVOT_STOP_REL`` times
    the largest diagonal of ``S``, so every pivot is positive.  Returns None
    when no diagonal is positive or more than ``max_rank`` pivots are needed.
    """
    d = np.diag(S).real.copy()
    top = float(d.max())
    if not top > 0:
        return None
    stop = PIVOT_STOP_REL * top
    # the rows of Lᴴ, each written whole
    Lh = np.empty((max_rank, S.shape[0]), dtype=S.dtype)
    for k in range(max_rank + 1):
        j = int(np.argmax(d))
        if d[j] <= stop:
            return Lh[:k].conj().T
        if k == max_rank:
            break
        # row j of S = Lhᴴ Lh, contiguous, since S is Hermitian
        row = S[j] - Lh[:k, j].conj() @ Lh[:k]
        row /= math.sqrt(d[j])
        Lh[k] = row
        d -= np.abs(row) ** 2
        d[j] = 0.0
    return None


def _low_rank_eigh(S: np.ndarray) -> WeightedEigh | None:
    """The ``low_rank`` route for ``S``, or None when one of its conditions fails."""
    n_dim = S.shape[0]
    L = _pivoted_cholesky(S, n_dim // 8)
    if L is None:
        return None
    gap = L @ L.conj().T
    gap -= S
    error = float(np.linalg.norm(gap))
    del gap
    # the largest column norm of Lᴴ L bounds lambda_max(L Lᴴ) from below
    lam_floor = float(np.max(np.linalg.norm(L.conj().T @ L, axis=0)))
    if not error <= n_dim * np.finfo(float).eps * lam_floor:
        return None
    return _factor_eigh(L, "low_rank", error)


def _dense_eigh(S: np.ndarray) -> WeightedEigh:
    """The ``dense`` route: one ``eigh`` of the n x n form."""
    lam, U = np.linalg.eigh(S)
    # a fancy index keeps U Fortran-ordered; the solves' last digits depend on it
    order = np.arange(lam.size - 1, -1, -1)
    return WeightedEigh(lam[order], U[:, order], "dense", 0.0)


class KernelMatrix:
    """Hermitian matrix of kernel values over one grid.

    ``gram[i, j]`` holds ``K(p_i, p_j)``.  The matrix is symmetrized before
    it is stored, and ``hermitian_gram`` holds it with the
    pre-symmetrization defect.  Kernels compare and hash by identity.
    """

    def __init__(self, grid: Grid, gram: np.ndarray, hermitian_defect: float):
        self.grid = grid
        self.hermitian_gram = gram, hermitian_defect

    @property
    def gram(self) -> np.ndarray:
        return self.hermitian_gram[0]

    @property
    def hermitian_defect(self) -> float:
        return self.hermitian_gram[1]

    @property
    def size(self) -> int:
        return self.grid.size

    def exact_factor(self) -> np.ndarray | None:
        """An exact factor F of ``S = F Fᴴ`` with fewer columns than rows, or None."""
        return None

    def _weighted_form(self) -> np.ndarray:
        """``S = sqrt(W) gram sqrt(W)``, exactly Hermitian, as a new array."""
        sw = np.sqrt(self.grid.weights)
        S = sw[:, None] * self.gram * sw[None, :]
        # halving first cannot overflow; the overlapping transpose is read before S is written
        S *= 0.5
        S += S.conj().T
        return S

    @cached_property
    def weighted_eigh(self) -> WeightedEigh:
        """Eigenvalues of ``S = sqrt(W) gram sqrt(W)``, descending; computed once, on first use.

        This is where the route is chosen (see the module docstring): the
        ``wide`` route when ``exact_factor`` supplies one, else from
        ``LOW_RANK_MIN_SIZE`` the ``low_rank``, then the ``cholesky`` route,
        and the dense ``eigh`` when none applies.  The result holds
        eigenvectors or, on the ``cholesky`` route, the factor ``L``, which
        takes their place in memory: ``S`` itself is not kept.
        """
        factor = self.exact_factor()
        if factor is not None:
            return _factor_eigh(factor, "wide")
        S = self._weighted_form()
        if S.shape[0] >= LOW_RANK_MIN_SIZE:
            low_rank = _low_rank_eigh(S)
            if low_rank is not None:
                return low_rank
            try:
                L = np.linalg.cholesky(S)
            except np.linalg.LinAlgError:
                pass  # not numerically positive definite: the dense eigh decides
            else:
                return WeightedEigh(np.linalg.eigvalsh(S)[::-1], None, "cholesky", 0.0, L)
        return _dense_eigh(S)

    @cached_property
    def dense_eigh(self) -> WeightedEigh:
        """The dense ``eigh`` of ``S``, formed anew; computed once, on first use.

        Only ``spectral_data`` reads it, at a cutoff that drops an eigenvalue
        of a form the ``cholesky`` route decomposed.
        """
        return _dense_eigh(self._weighted_form())


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Spectrum of the weighted symmetric form at one cutoff, and what its solves read.

    Eigenvalues are sorted descending; eigenvector columns are orthonormal in
    the Euclidean product of the symmetrized form.  ``numerical_rank`` counts
    eigenvalues strictly above ``cutoff``.  The eigenvectors are n x n on the
    dense route, or n x r on a factor route, where the form is ``F Fᴴ`` with
    r < n columns in F (the kernel of a wide transform exactly, a low-rank
    kernel up to the certified error): the other n - r eigenvalues are zeros
    sorted in, and column k pairs with eigenvalue k for every eigenvalue
    above zero, so for every kept one.  On the low-rank route the last
    eigenvalue is not computed but a certified lower bound, lowered by the
    factor's error (``KernelMatrix.weighted_eigh``).

    On the ``cholesky`` route, when the cutoff keeps all n eigenvalues,
    ``eigenvectors`` is None and ``L`` is the Cholesky factor ``S = L Lᴴ``,
    through which the solves run; the eigenvalues are ``eigvalsh``'s.  At a
    cutoff that drops one, every field comes from the dense ``eigh``
    (``KernelMatrix.dense_eigh``) and ``L`` is None, as on every other route.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    cutoff: float
    numerical_rank: int
    L: np.ndarray | None = None


@dataclass(frozen=True)
class PsdReport:
    passed: bool
    min_eigenvalue: float


@dataclass(frozen=True)
class SolveResult:
    solution: DiscreteFunction
    range_residual: float


def _hermitian_gram(gram: np.ndarray, grid: Grid, owned: bool = False) -> tuple[np.ndarray, float]:
    """Validate a raw gram; return its Hermitian part and its defect.

    The Hermitian part is a new array unless ``owned`` says the caller has
    just formed ``gram`` itself and an exactly Hermitian one may be kept.
    """
    gram = as_samples(gram)
    if gram.shape != (grid.size, grid.size):
        raise ValueError(f"gram must be {grid.size}x{grid.size}, got {gram.shape}")
    if not np.all(np.isfinite(gram)):
        raise ValueError("kernel produced non-finite values")
    adjoint = gram.conj().T
    if np.array_equal(gram, adjoint):
        defect = 0.0
        sym = gram if owned else gram.copy()
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
        # a copy, so the kernel does not pin the complex buffer behind a strided view
        sym = np.ascontiguousarray(sym.real)
    return sym, defect


def kernel_from_gram(gram: np.ndarray, grid: Grid) -> KernelMatrix:
    """Wrap a raw matrix of kernel values: validate, symmetrize, record defect.

    An exactly Hermitian input is stored as a copy with defect 0, and a
    complex one with zero imaginary parts as a float64 array of its own.
    """
    return KernelMatrix(grid, *_hermitian_gram(gram, grid))


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


#: the parameters each built-in kernel takes
BUILTIN_KERNEL_PARAMS = {
    "brownian": (), "gaussian": ("lengthscale",), "sinc": ("band",), "constant": ("value",)
}
BUILTIN_KERNEL_NAMES = tuple(BUILTIN_KERNEL_PARAMS)


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


def spectral_data(K: KernelMatrix, cutoff_rel: float = DEFAULT_CUTOFF_REL) -> SpectralData:
    """Spectral factorization with the rank cutoff ``cutoff_rel * lambda_max``."""
    if not 0 < cutoff_rel < 1:
        raise ValueError("cutoff_rel must lie in (0, 1)")
    spec = _truncated(K.weighted_eigh, cutoff_rel)
    if spec.L is not None and spec.numerical_rank < K.size:
        # the Cholesky factor inverts the whole form only: dropping needs eigenvectors
        spec = _truncated(K.dense_eigh, cutoff_rel)
    return spec


def _truncated(eig: WeightedEigh, cutoff_rel: float) -> SpectralData:
    """``eig`` at the cutoff ``cutoff_rel * lambda_max``."""
    lam = eig.eigenvalues
    cutoff = cutoff_rel * max(float(lam[0]), 0.0)
    rank = int(np.count_nonzero(lam > cutoff))
    return SpectralData(
        eigenvalues=lam, eigenvectors=eig.eigenvectors, cutoff=cutoff, numerical_rank=rank,
        L=eig.L,
    )


def _kept_diagonal(K: KernelMatrix, cutoff_rel: float = DEFAULT_CUTOFF_REL) -> np.ndarray:
    """Diagonal of the weighted form restricted to the eigenpairs the cutoff keeps.

    It is ``sum_{k < rank} lam_k |U[q, k]|^2`` over the kept eigenpairs, or,
    when the ``cholesky`` route keeps them all, ``(L Lᴴ)_qq``, the squared
    row norms of ``L``; in exact arithmetic the two agree.  O(n rank) work.
    """
    spec = spectral_data(K, cutoff_rel)
    if spec.L is not None:
        return np.einsum("ij,ij->i", spec.L, spec.L.conj()).real
    rank = spec.numerical_rank
    return np.abs(spec.eigenvectors[:, :rank]) ** 2 @ spec.eigenvalues[:rank]


def validate_psd(K: KernelMatrix, tol_psd: float) -> PsdReport:
    """Check nonnegative-definiteness of the weighted form.

    Passes iff the minimum eigenvalue of ``sqrt(W) gram sqrt(W)`` is at least
    ``-tol_psd``.  On the low-rank route ``min_eigenvalue`` is the certified
    lower bound ``-||S - L Lᴴ||_F`` (minus any negative roundoff of the
    factor's spectrum), not a computed eigenvalue; the gate is the same.  On
    the ``cholesky`` route it is ``eigvalsh``'s.
    """
    min_eig = float(K.weighted_eigh.eigenvalues[-1])
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


def _cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``y`` with ``L Lᴴ y = b`` for lower-triangular ``L``: forward, then back substitution.

    Both run in blocks of rows: ``np.linalg.solve`` on each diagonal block,
    after a matrix product subtracts the blocks already solved.
    """
    n_dim = L.shape[0]
    block = 256
    starts = range(0, n_dim, block)
    y = np.empty(b.shape, dtype=np.result_type(L, b))
    for r0 in starts:
        r1 = min(r0 + block, n_dim)
        y[r0:r1] = np.linalg.solve(L[r0:r1, r0:r1], b[r0:r1] - L[r0:r1, :r0] @ y[:r0])
    for r0 in reversed(starts):
        r1 = min(r0 + block, n_dim)
        # rows r0:r1 of Lᴴ y = (forward result), with the later rows of y already solved
        rhs = y[r0:r1] - L[r1:, r0:r1].conj().T @ y[r1:]
        y[r0:r1] = np.linalg.solve(L[r0:r1, r0:r1].conj().T, rhs)
    return y


def _solve_columns(
    K: KernelMatrix, rhs: np.ndarray, cutoff_rel: float, range_tol: float | None = None
):
    """Pseudo-inverse solve of ``gram @ W @ x = rhs`` for one or many columns.

    Returns ``(x, residuals)`` where the per-column residual is the relative
    weighted-L2 norm of the component of ``rhs`` outside the numerical range
    (the dropped spectral coefficients).  Raises ``RangeViolationError`` with
    the residual of the first column above ``range_tol``, unless it is None.
    When the ``cholesky`` route keeps every eigenvalue nothing is dropped,
    the residuals are 0, and ``S y = sqrt(W) rhs`` is solved with ``L``.
    """
    spec = spectral_data(K, cutoff_rel)
    sw = np.sqrt(K.grid.weights)
    single = rhs.ndim == 1
    cols = rhs[:, None] if single else rhs
    weighted = sw[:, None] * cols
    if spec.L is not None:
        x = _cholesky_solve(spec.L, weighted) / sw[:, None]
        residuals = np.zeros(weighted.shape[1])
    else:
        lam, U = spec.eigenvalues, spec.eigenvectors
        rank = spec.numerical_rank
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
