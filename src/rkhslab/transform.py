"""Linear integral transforms from feature maps, their adjoints, and identity checks.

A feature map ``h(t, p)`` over grids T and E induces the transform
``(LF)(p) = integral conj(h(t, p)) F(t) dm(t)``, its L2 adjoint
``(L* g)(t) = integral h(t, p) g(p) dp``, and the kernel
``K(p, q) = integral conj(h(t, p)) h(t, q) dm(t)``.  In the discretization
these are the matrices ``Hᴴ diag(m)``, ``H diag(w)`` and ``Hᴴ diag(m) H``,
and the operator identities (factorization, isometry, round-trip inversion)
become finite-dimensional residuals that this module measures.  Since
``K = L L*``, the ``InducedKernel`` that ``build_transform`` returns is the
transform: every function here takes it, and its rank and solves read its one
cached decomposition at one cutoff.

Building it does no n x n work.  ``apply_forward`` and ``apply_adjoint`` are
one product with H each, ``Hᴴ (m∘F)`` and ``H (w∘g)``, of a vector or a
block of columns, and neither forms a scaled or conjugated copy of H.  Only
``factorization_residual`` forms the n x n product ``(Hᴴ diag m) H``, one
row group at a time and only on the tiles on and above the diagonal, and
compares it with the gram, weighted by ``W = diag(w)`` after the product.
The gram is formed on first read, with its Hermitian defect, as ``Cᴴ C``
with ``C = diag(√m) H``: one syrk for a real map, exactly symmetric.  A
product with a released gram is ``Cᴴ (C x)``, through the feature map
(``InducedKernel.gram_product``).
``verify`` and ``analyze`` form the gram once, a square or tall ``invert``
once for its decomposition, and a wide ``invert`` never.  On the
``cholesky`` route the kernel releases its gram while the route holds
``S``, as an assembled kernel does (``kernel`` module docstring), so the
gram is read before the decomposition: ``verify_identities`` measures the
factorization residual first, then reads the spectrum as ``verify`` does
(one ``eigvalsh`` and one Cholesky), and its rank and solves read that
decomposition.

With ``B = diag(m)^{1/2} H diag(w)^{1/2}`` (|T| x |E|), the weighted induced
form is ``S = Bᴴ B``.  The kernel only supplies what it knows: the gram and,
when |T| < |E|, the exact factor ``Bᴴ`` (``InducedKernel.exact_factor``).
``KernelMatrix.weighted_eigh`` chooses the route object, as for any kernel: a wide
map's spectrum comes from its |T| x |T| side (the ``wide`` route), and a
square or tall map's |E| x |E| form, then the smaller side, is decomposed
like any other gram's.  From |T| = ``LOW_RANK_MIN_SIZE`` the wide route
forms ``G = B Bᴴ`` by one syrk and factors it by one Cholesky, with no
eigenvectors: ``G = L Lᴴ`` where the spectrum is read first, and
``eigvalsh(G)`` gives it; ``G - c I = L Lᴴ`` where only the rank is, as in
``invert``, which certifies a full rank and is the solve factor
(``kernel.spectral_data``).  Below that size, or when ``G`` is not
numerically positive definite, a thin QR of ``Bᴴ`` and one |T| x |T|
``eigh`` run.  ``invert`` picks its formula from the type of the route that
solves at its cutoff: on a ``WideRoute`` it solves the inversion formula on
the T side, ``F = (L*L)⁻¹ L* f``, and on either Cholesky route it
refines the solve on the data residual, through the feature map; a
shifted factor whose refinement does not converge in a few steps gives
way to the unshifted one (``invert``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import NotInjectiveError, RangeViolationError
from .grid import DiscreteFunction, Grid, as_samples, ensure_aligned, norm_l2, random_samples
from .kernel import (
    DEFAULT_CUTOFF_REL,
    DEFAULT_RANGE_TOL,
    CholeskyRoute,
    KernelMatrix,
    WideRoute,
    _hermitian_gram,
    _row_slices,
    _solve_columns,
    condition_number,
    solve_kernel_system,
    spectral_data,
)


@dataclass(frozen=True)
class FeatureMap:
    """Matrix of feature values ``matrix[k, i] = h(t_k, p_i)`` over T x E grids."""

    grid_T: Grid
    grid_E: Grid
    matrix: np.ndarray

    def __post_init__(self):
        matrix = as_samples(self.matrix)
        object.__setattr__(self, "matrix", matrix)
        expected = (self.grid_T.size, self.grid_E.size)
        if matrix.shape != expected:
            raise ValueError(f"feature matrix must be {expected}, got {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("feature matrix entries must be finite")


def _induced_gram(feature: FeatureMap) -> tuple[np.ndarray, float]:
    """``(gram, hermitian_defect)`` of ``Cᴴ C`` with ``C = diag(√m) H``, formed anew."""
    C = np.sqrt(feature.grid_T.weights)[:, None] * feature.matrix
    # a real C makes this a syrk, exactly symmetric; an overflow is
    # reported as non-finite values by ``_hermitian_gram``
    with np.errstate(over="ignore", invalid="ignore"):
        product = C.conj().T @ C
    return _hermitian_gram(product, feature.grid_E, owned=True)


class InducedKernel(KernelMatrix):
    """The kernel ``Hᴴ diag(m) H`` a feature map induces on grid E, and its transform.

    It refers to its feature map, which it does not copy.  A wide map
    (|T| < |E|) supplies the exact factor ``Bᴴ``, so ``weighted_eigh``
    decomposes its |T| x |T| side; see the module docstring.  ``gram`` and
    ``hermitian_defect`` are formed together at the first read of either, as
    ``Cᴴ C`` with ``C = diag(√m) H``; a wide ``invert`` reads neither.  The
    gram can be formed again from the feature map (``_evaluate_gram``), so
    on the ``cholesky`` route it is released like an assembled kernel's, and
    ``gram_product`` then goes through the map.  A gram, or a wide map's
    ``R Rᴴ``, that overflows raises ``ValueError`` ("kernel produced
    non-finite values") where it is formed.
    """

    def __init__(self, feature: FeatureMap):
        self.grid = feature.grid_E
        self.feature = feature

    @property
    def _evaluate_gram(self) -> Callable[[], tuple[np.ndarray, float]]:
        """Forms ``(gram, hermitian_defect)`` anew; it binds the feature map, not the kernel."""
        return partial(_induced_gram, self.feature)

    def gram_product(self, x: np.ndarray) -> np.ndarray:
        """``gram @ x``: by the gram while it is held, else ``Cᴴ (C x) = Hᴴ (m∘(H x))``.

        Once the gram is released the product goes through the feature map
        and forms no n x n array; its sums run in another order than
        ``gram @ x``, so the last digits differ.  It has the dtype
        ``gram @ x`` would have: a complex map whose gram has no imaginary
        part gives a real product with a real ``x``.
        """
        # read first: on a kernel whose gram was never formed it forms the
        # gram, which then gives the product
        dtype = np.result_type(self.gram_diagonal, x)
        if "hermitian_gram" in self.__dict__:
            return self.gram @ x
        product = _forward_values(self, self.feature.matrix @ x)
        return product if product.dtype == dtype else np.ascontiguousarray(product.real)

    @property
    def grid_T(self) -> Grid:
        return self.feature.grid_T

    @property
    def grid_E(self) -> Grid:
        return self.grid

    def exact_factor(self) -> np.ndarray | None:
        """``Bᴴ = (diag(√m) H diag(√w))ᴴ`` for a wide map; None for a square or tall one."""
        H = self.feature.matrix
        if H.shape[0] >= H.shape[1]:
            return None
        sm = np.sqrt(self.feature.grid_T.weights)
        sw = np.sqrt(self.grid.weights)
        return (sm[:, None] * H * sw[None, :]).conj().T


@dataclass(frozen=True)
class InjectivityReport:
    injective: bool
    numerical_rank: int
    deficiency: int


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the operator identities over seeded random trials.

    factorization_residual: ``||(K - (Hᴴ diag m) H) W||_F / ||K W||_F``, the
    relative gap between the induced operator ``K W`` and forward∘adjoint,
    with ``W = diag(w)`` applied after the product.  roundtrip_error: worst
    relative error of adjoint∘inverse-kernel∘forward against the identity.
    isometry_defect: worst defect of the space inner product against the
    source L2 product.  norm_defect: worst relative gap between image
    space-norm and source norm.
    adjointness_defect: worst defect of the duality pairing between forward
    and adjoint.  plain_adjoint_error: worst relative error of recovery by
    the plain adjoint, adjoint∘forward against the identity.
    """

    factorization_residual: float
    roundtrip_error: float
    plain_adjoint_error: float
    isometry_defect: float
    norm_defect: float
    adjointness_defect: float
    injective: bool
    numerical_rank: int
    condition_number: float
    trials: int
    seed: int
    cutoff_rel: float


@dataclass(frozen=True)
class InversionResult:
    recovered: DiscreteFunction
    range_residual: float


def build_transform(feature: FeatureMap) -> InducedKernel:
    """The kernel ``Hᴴ diag(m) H`` a feature map induces; it holds the map itself.

    No n x n work is done here: the gram is formed on first read.
    """
    return InducedKernel(feature)


def _forward_values(op: InducedKernel, F: np.ndarray) -> np.ndarray:
    """``Hᴴ (m∘F)`` for samples ``F`` on grid T, a vector or a block of columns."""
    # m∘F along the T axis, in F's layout
    y = (F.T * op.grid_T.weights).T
    # (yᴴ H)ᴴ = Hᴴ y, without a conjugated copy of H
    return (y.conj().T @ op.feature.matrix).conj().T


def _adjoint_values(op: InducedKernel, g: np.ndarray) -> np.ndarray:
    """``H (w∘g)`` for samples ``g`` on grid E, a vector or a block of columns."""
    return op.feature.matrix @ (g.T * op.grid_E.weights).T


def apply_forward(op: InducedKernel, F: DiscreteFunction) -> DiscreteFunction:
    """Apply the transform to a function on grid T, yielding one on grid E: ``Hᴴ (m∘F)``."""
    ensure_aligned(F, op.grid_T)
    return DiscreteFunction(values=_forward_values(op, F.values), grid=op.grid_E)


def apply_adjoint(op: InducedKernel, g: DiscreteFunction) -> DiscreteFunction:
    """Apply the weighted-L2 adjoint to a function on grid E: ``H (w∘g)``."""
    ensure_aligned(g, op.grid_E)
    return DiscreteFunction(values=_adjoint_values(op, g.values), grid=op.grid_T)


def check_injectivity(
    op: InducedKernel, cutoff_rel: float = DEFAULT_CUTOFF_REL
) -> InjectivityReport:
    """Numerical rank of the transform in orthonormal coordinates.

    The transform is injective iff ``A = diag(m)^{1/2} H diag(w)^{1/2}`` has
    rank equal to the size of grid T, i.e. the feature family is total in the
    source space.  ``AᴴA`` is the weighted induced form, so the rank counts its
    eigenvalues above ``cutoff_rel * lambda_max`` (``sigma > sqrt(cutoff_rel)
    sigma_max``) in the cached decomposition the solves use.  On the
    ``cholesky`` and ``wide`` routes, while the spectrum is unread, a full
    rank is certified by a shifted Cholesky, which the solves then use, and
    no eigenvalues are computed (``kernel.spectral_data``).
    """
    rank = spectral_data(op, cutoff_rel).numerical_rank
    m_dim = op.grid_T.size
    return InjectivityReport(
        injective=rank == m_dim, numerical_rank=rank, deficiency=m_dim - rank
    )


def _column_norms(weights: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Weighted-L2 norm of every column of ``mat`` under quadrature ``weights``."""
    return np.sqrt(np.sum(weights[:, None] * np.abs(mat) ** 2, axis=0))


def _mirrored_mass(block: np.ndarray, w2: np.ndarray, rows: slice) -> float:
    """``||A W||_F²`` of a Hermitian ``A`` over ``block = A[rows, rows.start:]`` and its mirror.

    Each entry counts with its column's ``w2 = w²``; an entry right of the
    diagonal tile ``A[rows, rows]`` counts again with its row's, for its
    conjugate below the diagonal.  Column and row reductions of the real
    and imaginary parts, which are views, so no array of the block's size
    is formed.
    """
    parts = (block.real, block.imag) if np.iscomplexobj(block) else (block,)
    tile = rows.stop - rows.start
    return float(sum(np.einsum("qp,qp->p", part, part) @ w2[rows.start:]
                     + w2[rows] @ np.einsum("qp,qp->q", part[:, tile:], part[:, tile:])
                     for part in parts))


def factorization_residual(op: InducedKernel) -> float:
    """``||(K - fl((Hᴴ diag m) H)) W||_F / ||K W||_F``, on the tiles on and above the diagonal.

    ``K`` is the gram and ``W = diag(w)`` weights both sides after the
    product, as in ``K W = L L*``.  The exact product is Hermitian, as the
    stored gram is, so for each row group (``_row_slices``) the forward
    rows ``(Hᴴ diag m)[rows]`` are formed once and multiply ``H`` from the
    group's diagonal tile on; each tile below the diagonal is taken as the
    conjugate transpose of its mirror, with the row weights in place of
    the column weights (``_mirrored_mass``).  No n x n array is formed.
    It reads the gram, so it runs before the decomposition, which may
    release it: ``verify_identities`` runs it first.
    """
    H, K, w2 = op.feature.matrix, op.gram, op.grid_E.weights ** 2
    # the gap's mass and the gram's
    masses = np.zeros(2)
    for rows in _row_slices(op.size):
        forward = H[:, rows] * op.grid_T.weights[:, None]
        # (Hᴴ diag m)[rows], conjugated in place, times H from the diagonal tile on
        gap = np.conjugate(forward, out=forward).T @ H[:, rows.start:]
        gap -= K[rows, rows.start:]
        masses += [_mirrored_mass(gap, w2, rows), _mirrored_mass(K[rows, rows.start:], w2, rows)]
        # released before the next row group is formed
        del forward, gap
    return float(np.sqrt(masses[0] / masses[1])) if masses[1] > 0 else 0.0


def verify_identities(
    op: InducedKernel,
    cutoff_rel: float = DEFAULT_CUTOFF_REL,
    trials: int = 100,
    seed: int = 0,
) -> IdentityReport:
    """Measure every operator identity over seeded random trial functions.

    All residuals are relative.  The isometry and round-trip identities are
    meaningful only for injective transforms; the report records injectivity
    so callers can gate on it.  The steps run in a fixed order.  The
    factorization residual, the one reader of the gram, runs first; then the
    spectrum is read, as ``verify`` reads it (on a Cholesky route one
    ``eigvalsh`` and one Cholesky, after which the ``cholesky`` route has
    released the gram); then the rank, the solves and the condition number
    read that decomposition.  Every trial image is one product with H
    (``_forward_values``), and every back-transform one more
    (``_adjoint_values``).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    m = op.grid_T.weights
    w = op.grid_E.weights
    complex_mode = np.iscomplexobj(op.feature.matrix)
    factorization = factorization_residual(op)
    # the spectrum before any rank query, so no certificate runs
    op.weighted_eigh.eigenvalues
    inj = check_injectivity(op, cutoff_rel)

    F = random_samples(rng, op.grid_T.size, trials, complex_mode)
    G = random_samples(rng, op.grid_T.size, trials, complex_mode)
    g_rand = random_samples(rng, op.grid_E.size, trials, complex_mode)
    f_img, g_img = np.hsplit(_forward_values(op, np.hstack([F, G])), 2)
    x, _ = _solve_columns(op, f_img, cutoff_rel)
    back, plain_back, g_rand_back = np.hsplit(_adjoint_values(op, np.hstack([x, f_img, g_rand])), 3)

    f_norms = _column_norms(m, F)
    g_norms = _column_norms(m, G)

    roundtrip = float(np.max(_column_norms(m, back - F) / f_norms))
    plain = float(np.max(_column_norms(m, plain_back - F) / f_norms))

    # [LF, LG] via the solved K^{-1} LF against LG in the E-grid product
    space_inner = np.sum(w[:, None] * x * np.conj(g_img), axis=0)
    source_inner = np.sum(m[:, None] * F * np.conj(G), axis=0)
    isometry = float(np.max(np.abs(space_inner - source_inner) / (f_norms * g_norms)))

    image_norm_sq = np.sum(w[:, None] * x * np.conj(f_img), axis=0).real
    image_norms = np.sqrt(np.clip(image_norm_sq, 0.0, None))
    norm_defect = float(np.max(np.abs(image_norms - f_norms) / f_norms))

    # duality pairing (LF, g)_E == (F, L* g)_T on fresh random pairs
    pair_lhs = np.sum(w[:, None] * f_img * np.conj(g_rand), axis=0)
    pair_rhs = np.sum(m[:, None] * F * np.conj(g_rand_back), axis=0)
    g_rand_norms = _column_norms(w, g_rand)
    adjointness = float(np.max(np.abs(pair_lhs - pair_rhs) / (f_norms * g_rand_norms)))

    return IdentityReport(
        factorization_residual=factorization,
        roundtrip_error=roundtrip,
        plain_adjoint_error=plain,
        isometry_defect=isometry,
        norm_defect=norm_defect,
        adjointness_defect=adjointness,
        injective=inj.injective,
        numerical_rank=inj.numerical_rank,
        condition_number=condition_number(op, cutoff_rel),
        trials=trials,
        seed=seed,
        cutoff_rel=cutoff_rel,
    )


#: refinement steps a shifted factor may take before the unshifted factor replaces it
REFINE_STEPS = 5

#: a refinement correction is at rounding level when it is at most this many ulps of the solution
ROUNDING_ULPS = 8


def _refined_solve(
    route: CholeskyRoute,
    data: np.ndarray,
    forward: Callable[[np.ndarray], np.ndarray],
    correct: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """``x`` with ``forward(x) = data``, where ``correct`` solves it through ``route.solve_shifted``.

    Iterative refinement, ``x += correct(data - forward(x))`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Ch. 12).  With the
    certificate's factor of ``A - c I`` every step contracts the error by
    ``c / (lambda_min - c)``, so the steps continue until the correction
    reaches rounding level, ``ROUNDING_ULPS * eps ||x||``: the last
    correction, or the next one extrapolated from the last two, in every
    column.  When a correction is not at most half the one before, or
    ``REFINE_STEPS`` do not suffice (the iteration diverges from
    ``lambda_min <= 2 c``), ``route.drop_shift`` factors ``A`` itself.  With
    an unshifted factor ``x`` is solved and takes one step.
    """
    x = correct(data)
    if route.shift:
        ulps = ROUNDING_ULPS * np.finfo(float).eps
        previous = None
        for _ in range(REFINE_STEPS):
            step = correct(data - forward(x))
            x = x + step
            size, scale = np.linalg.norm(step, axis=0), np.linalg.norm(x, axis=0)
            if previous is None:
                converged = size <= ulps * scale
            else:
                if np.any(size > previous / 2):
                    break
                converged = size * size <= ulps * scale * previous
            if np.all(converged):
                return x
            previous = size
        route.drop_shift()
        x = correct(data)
    return x + correct(data - forward(x))


def invert(
    op: InducedKernel,
    f: DiscreteFunction,
    cutoff_rel: float = DEFAULT_CUTOFF_REL,
    range_tol: float | None = DEFAULT_RANGE_TOL,
) -> InversionResult:
    """Recover the source function from transform data.

    Applies the adjoint composed with the inverse kernel operator,
    ``F = L*(K⁻¹ f)``, the left inverse of an injective transform.  When the
    route that solves at the cutoff is a ``WideRoute``, a factor of
    ``G = B Bᴴ`` (``B = √m H √w``), the same formula is solved on the T
    side, ``F = (L*L)⁻¹ L* f``, as ``z = G⁻¹ (B √w f)`` and ``F = z / √m``.
    On both Cholesky routes the solve is refined on the data residual
    (Higham, *Accuracy and Stability of Numerical Algorithms*, Ch. 12),
    formed through the feature map and never through the gram:
    ``F += L*(K⁻¹ (f - L F))`` on the ``cholesky`` route and
    ``z += G⁻¹ B (y - Bᴴ z)``, ``y = √w f``, on the ``wide`` one.  The
    factor is the rank certificate's, of ``K - c I`` (or ``G - c I``), and
    the steps continue until the correction reaches rounding level; when
    they do not within a few steps, the unshifted factor replaces it
    (``_refined_solve``).  An unshifted factor takes one step, which
    makes up the accuracy that ``cond(G) = cond(B)²`` costs the normal
    equations.  The range residual ``||forward(F) - f|| / ||f||`` measures
    how far ``f`` sits from the transform range; above ``range_tol`` a
    ``RangeViolationError`` carries it.

    Raises ``NotInjectiveError`` when the transform fails the rank check.
    """
    ensure_aligned(f, op.grid_E)
    inj = check_injectivity(op, cutoff_rel)
    if not inj.injective:
        raise NotInjectiveError(inj.numerical_rank, op.grid_T.size)
    route = spectral_data(op, cutoff_rel).route
    sw = np.sqrt(op.grid_E.weights)
    if isinstance(route, WideRoute):
        # route.F is Bᴴ, and the data y = √w f
        Bh, B = route.F, route.F.conj().T
        z = _refined_solve(route, sw * f.values, lambda z: Bh @ z, lambda r: route.solve_shifted(B @ r))
        values = z / np.sqrt(op.grid_T.weights)
    elif isinstance(route, CholeskyRoute):
        values = _refined_solve(route, f.values, partial(_forward_values, op),
                                lambda r: _adjoint_values(op, route.solve_shifted(sw * r) / sw))
    else:
        solved = solve_kernel_system(op, f, cutoff_rel, range_tol=None)
        values = _adjoint_values(op, solved.solution.values)
    recovered = DiscreteFunction(values=values, grid=op.grid_T)
    f_norm = norm_l2(f)
    if f_norm == 0.0:
        residual = 0.0
    else:
        recon = apply_forward(op, recovered)
        diff = DiscreteFunction(values=recon.values - f.values, grid=op.grid_E)
        residual = norm_l2(diff) / f_norm
    if range_tol is not None and residual > range_tol:
        raise RangeViolationError(residual, range_tol)
    return InversionResult(recovered=recovered, range_residual=float(residual))
