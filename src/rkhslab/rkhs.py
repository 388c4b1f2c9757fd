"""The kernel-induced Hilbert space: inner product, reproducing checks, projections.

The space inner product is ``[f, g] = (K^{-1} f, g)`` in the weighted L2
product, with the inverse realized by the spectral pseudo-inverse of the
kernel operator.  Every identity here is checkable at finite scale: the
reproducing identity, the point-evaluation bound, and least-squares
projections onto finite spans of kernel sections.  ``verify_reproducing``
measures the first two over seeded random trials in one batched solve, and
the equality of the bound at every kernel section from the cached
decomposition, without a solve.  It and ``reproducing_residuals`` read the
kernel through its products and its diagonal alone
(``KernelMatrix.gram_product`` and ``gram_diagonal``), so an induced kernel
whose gram was released forms none again.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DiscreteFunction, ensure_aligned, inner_product_l2, random_samples
from .kernel import (
    DEFAULT_CUTOFF_REL,
    DEFAULT_RANGE_TOL,
    KernelMatrix,
    _kept_diagonal,
    _solve_columns,
    solve_kernel_system,
    spectral_data,
)

#: the bound ``|f(q)| <= rhs = ||f|| sqrt(K(q, q))`` holds while the excess
#: ``(|f(q)| - rhs) / (1 + rhs)`` is at most this: relative above ``rhs ~ 1``,
#: absolute below it
POINT_EVAL_SLACK = 1e-10


@dataclass
class RkhsSpace:
    """A kernel matrix together with its solve thresholds."""

    kernel: KernelMatrix
    cutoff_rel: float
    range_tol: float

    @property
    def grid(self):
        return self.kernel.grid


def _excess(lhs, rhs):
    """Point-evaluation excess of ``lhs = |f(q)|`` over ``rhs = ||f|| sqrt(K(q, q))``."""
    return (lhs - rhs) / (1.0 + rhs)


@dataclass(frozen=True)
class PointEvalBound:
    """``lhs = |f(q)|`` and ``rhs = ||f|| sqrt(K(q, q))``; holds within ``POINT_EVAL_SLACK``."""

    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return bool(_excess(self.lhs, self.rhs) <= POINT_EVAL_SLACK)


@dataclass(frozen=True)
class ReproducingReport:
    """Worst reproducing residual, point-evaluation excess and section-equality defect."""

    max_residual: float
    max_excess: float
    section_equality_defect: float


@dataclass(frozen=True)
class SectionProjection:
    coefficients: np.ndarray
    residual_norm: float
    rank_deficient: bool


def make_rkhs_space(
    kernel: KernelMatrix,
    cutoff_rel: float = DEFAULT_CUTOFF_REL,
    range_tol: float = DEFAULT_RANGE_TOL,
) -> RkhsSpace:
    """The space of ``kernel`` with its solve thresholds.

    It validates ``cutoff_rel`` and decides the rank up front: it decomposes
    the kernel, and on a Cholesky route certifies a full rank or reads the
    eigenvalues (``kernel.spectral_data``).
    """
    spectral_data(kernel, cutoff_rel)
    return RkhsSpace(kernel=kernel, cutoff_rel=cutoff_rel, range_tol=range_tol)


def kernel_section(space: RkhsSpace, q_index: int) -> DiscreteFunction:
    """The kernel section K(., q) at grid index ``q_index``."""
    n = space.grid.size
    if not 0 <= q_index < n:
        raise IndexError(f"index {q_index} out of range for grid of size {n}")
    return DiscreteFunction(values=space.kernel.gram[:, q_index].copy(), grid=space.grid)


def rkhs_inner(space: RkhsSpace, f: DiscreteFunction, g: DiscreteFunction) -> complex:
    """Inner product ``(K^{-1} f, g)`` in the weighted L2 product.

    Both arguments must lie in the numerical range of the kernel operator;
    otherwise ``RangeViolationError`` is raised, for ``g`` first.  One
    batched solve of ``[g, f]`` gates both and yields ``K^{-1} f``.
    """
    ensure_aligned(g, space.grid)
    ensure_aligned(f, space.grid)
    gf = np.column_stack([g.values, f.values])
    x, _ = _solve_columns(space.kernel, gf, space.cutoff_rel, space.range_tol)
    return inner_product_l2(DiscreteFunction(values=x[:, 1], grid=space.grid), g, space.grid)


def rkhs_norm(space: RkhsSpace, f: DiscreteFunction) -> float:
    """Norm induced by the space inner product; clamps tiny negative roundoff."""
    return float(np.sqrt(max(rkhs_inner(space, f, f).real, 0.0)))


def check_reproducing(space: RkhsSpace, f: DiscreteFunction, q_index: int) -> float:
    """Residual of the reproducing identity at one grid index.

    Returns ``|[f, K(., q)] - f(q)| / (1 + |f(q)|)``.
    """
    section = kernel_section(space, q_index)
    value = rkhs_inner(space, f, section)
    fq = complex(f.values[q_index])
    return abs(value - fq) / (1.0 + abs(fq))


def reproducing_residuals(space: RkhsSpace, f: DiscreteFunction) -> np.ndarray:
    """Reproducing residuals at every grid index with a single solve.

    ``[f, K(., q)]`` over all q equals ``gram @ (w * K^{-1} f)``, so one
    pseudo-inverse solve plus one operator application covers the whole grid.
    """
    solved = solve_kernel_system(space.kernel, f, space.cutoff_rel, space.range_tol)
    recon = space.kernel.gram_product(space.grid.weights * solved.solution.values)
    return np.abs(recon - f.values) / (1.0 + np.abs(f.values))


def point_eval_bound(space: RkhsSpace, f: DiscreteFunction, q_index: int) -> PointEvalBound:
    """Check ``|f(q)| <= ||f|| * sqrt(K(q, q))`` at one grid index.

    ``sqrt(K(q, q))`` is the space norm of the kernel section at q, so this
    is the Cauchy-Schwarz bound for point evaluation, held to within
    ``POINT_EVAL_SLACK`` of ``1 + rhs``, as in ``verify_reproducing``.
    """
    kqq = float(kernel_section(space, q_index).values[q_index].real)
    ensure_aligned(f, space.grid)
    lhs = float(np.abs(f.values[q_index]))
    rhs = rkhs_norm(space, f) * np.sqrt(max(kqq, 0.0))
    return PointEvalBound(lhs=lhs, rhs=float(rhs))


def verify_reproducing(
    kernel: KernelMatrix, cutoff_rel: float, trials: int, seed: int, range_tol: float
) -> ReproducingReport:
    """Reproducing identity and point-evaluation bound over seeded random trials.

    The in-range trial functions share one batched solve.  The bound is an
    equality at the kernel sections, and their squared norms come in closed
    form from the cached eigenpairs, ``sum_{k < rank} lam_k |U[q, k]|^2 / w_q``,
    or, when the Cholesky route keeps every eigenvalue, ``(L Lᴴ)_qq / w_q``
    (``kernel._kept_diagonal``): O(n rank) work that equals, in exact
    arithmetic, a pseudo-inverse solve of the n columns of ``gram``.  The
    gram is read only through ``gram_product``, its diagonal and its dtype
    (``gram_diagonal``).  Raises ``RangeViolationError`` with the residual
    of the first trial that has more than ``range_tol`` of its mass outside
    the numerical range.
    """
    weights = kernel.grid.weights[:, None]
    complex_mode = np.iscomplexobj(kernel.gram_diagonal)
    rng = np.random.default_rng(seed)
    # in-range trial functions: images gram @ W @ raw of random columns, raw not kept
    F = kernel.gram_product(weights * random_samples(rng, kernel.size, trials, complex_mode))
    X, _ = _solve_columns(kernel, F, cutoff_rel, range_tol)
    # reproducing: [f, K(., q)] = (gram W K^{-1} f)(q) at every q
    recon = kernel.gram_product(weights * X)
    max_residual = float(np.max(np.abs(recon - F) / (1.0 + np.abs(F))))
    # point evaluation: |f(q)| <= ||f|| sqrt(K(q, q)) with ||f||^2 = (K^{-1} f, f)
    norm_f = np.sqrt(np.clip(np.sum(weights * X * np.conj(F), axis=0).real, 0.0, None))
    kqq = np.real(kernel.gram_diagonal)
    sqrt_diag = np.sqrt(np.clip(kqq, 0.0, None))
    rhs = sqrt_diag[:, None] * norm_f[None, :]
    max_excess = float(np.max(_excess(np.abs(F), rhs)))
    # equality of the bound at the kernel sections K(., q): gram is
    # W^{-1/2} S W^{-1/2}, so ||K(., q)||^2 = (K^+ k_q, k_q)_w is the diagonal
    # of S on the eigenpairs the solves keep, over w_q
    norms = np.sqrt(_kept_diagonal(kernel, cutoff_rel) / kernel.grid.weights)
    defect = float(np.max(np.abs(kqq - norms * sqrt_diag) / (1.0 + np.abs(kqq))))
    return ReproducingReport(
        max_residual=max_residual, max_excess=max_excess, section_equality_defect=defect
    )


def project_onto_sections(
    space: RkhsSpace, indices, f: DiscreteFunction
) -> SectionProjection:
    """Best approximation of ``f`` from the span of kernel sections at ``indices``.

    The space-norm least-squares problem reduces, via the reproducing
    identity, to the linear system ``G_sub @ X = f[indices]`` with ``G_sub``
    the kernel submatrix at the chosen indices.  Singular values of
    ``G_sub`` at or below ``cutoff_rel`` times the largest are dropped, as in
    every kernel solve, and set ``rank_deficient``.
    """
    ensure_aligned(f, space.grid)
    idx = np.asarray(list(indices), dtype=int)
    if idx.size == 0:
        raise ValueError("need at least one section index")
    if np.unique(idx).size != idx.size:
        raise ValueError("section indices must be distinct")
    if idx.min() < 0 or idx.max() >= space.grid.size:
        raise IndexError("section index out of range")
    g_sub = space.kernel.gram[np.ix_(idx, idx)]
    rhs = f.values[idx]
    coeffs, _, rank, _ = np.linalg.lstsq(g_sub, rhs, rcond=space.cutoff_rel)
    rank_deficient = rank < idx.size
    residual = f.values - space.kernel.gram[:, idx] @ coeffs
    res_fn = DiscreteFunction(values=residual, grid=space.grid)
    # the residual of an in-range f stays in range; skip the range gate so
    # roundoff-level residual vectors do not trip it
    solved = solve_kernel_system(space.kernel, res_fn, space.cutoff_rel, range_tol=None)
    res_sq = inner_product_l2(solved.solution, res_fn, space.grid).real
    return SectionProjection(
        coefficients=coeffs,
        residual_norm=float(np.sqrt(max(res_sq, 0.0))),
        rank_deficient=bool(rank_deficient),
    )
