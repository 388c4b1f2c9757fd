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
matvecs, ``Hᴴ (m∘F)`` and ``H (w∘g)``; only ``verify_identities``, which
needs their product, forms the two matrices.  The gram is formed on first
read, with its Hermitian defect, as ``Cᴴ C`` with ``C = diag(√m) H``: one
syrk for a real map, exactly symmetric.  ``verify`` and ``analyze`` read it
once, a square or tall ``invert`` once for its decomposition, and a wide
``invert`` never.

With ``B = diag(m)^{1/2} H diag(w)^{1/2}`` (|T| x |E|), the weighted induced
form is ``S = Bᴴ B``.  The kernel only supplies what it knows: the gram and,
when |T| < |E|, the exact factor ``Bᴴ`` (``InducedKernel.exact_factor``).
``KernelMatrix.weighted_eigh`` chooses the route, as for any kernel: a wide
map's spectrum comes from one |T| x |T| ``eigh`` (the ``wide`` route), and a
square or tall map's |E| x |E| form, then the smaller side, is decomposed
like any other gram's.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotInjectiveError, RangeViolationError
from .grid import DiscreteFunction, Grid, as_samples, ensure_aligned, norm_l2, random_samples
from .kernel import (
    DEFAULT_CUTOFF_REL,
    DEFAULT_RANGE_TOL,
    KernelMatrix,
    _hermitian_gram,
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


class InducedKernel(KernelMatrix):
    """The kernel ``Hᴴ diag(m) H`` a feature map induces on grid E, and its transform.

    It refers to its feature map, which it does not copy.  A wide map
    (|T| < |E|) supplies the exact factor ``Bᴴ``, so ``weighted_eigh``
    decomposes its |T| x |T| side; see the module docstring.  ``gram`` and
    ``hermitian_defect`` are formed together at the first read of either, as
    ``Cᴴ C`` with ``C = diag(√m) H``; a wide ``invert`` reads neither.  A
    gram, or a wide map's ``R Rᴴ``, that overflows raises ``ValueError``
    ("kernel produced non-finite values") where it is formed.
    """

    def __init__(self, feature: FeatureMap):
        self.grid = feature.grid_E
        self.feature = feature

    @cached_property
    def hermitian_gram(self) -> tuple[np.ndarray, float]:
        C = np.sqrt(self.feature.grid_T.weights)[:, None] * self.feature.matrix
        # a real C makes this a syrk, exactly symmetric; an overflow is
        # reported as non-finite values by ``_hermitian_gram``
        with np.errstate(over="ignore", invalid="ignore"):
            product = C.conj().T @ C
        return _hermitian_gram(product, self.grid, owned=True)

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

    factorization_residual: relative Frobenius gap between the induced
    operator and forward∘adjoint.  roundtrip_error: worst relative error of
    adjoint∘inverse-kernel∘forward against the identity.  isometry_defect:
    worst defect of the space inner product against the source L2 product.
    norm_defect: worst relative gap between image space-norm and source norm.
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


def apply_forward(op: InducedKernel, F: DiscreteFunction) -> DiscreteFunction:
    """Apply the transform to a function on grid T, yielding one on grid E: ``Hᴴ (m∘F)``."""
    ensure_aligned(F, op.grid_T)
    mF = op.grid_T.weights * F.values
    # (conj(x) H)ᴴ = Hᴴ x, without a conjugated copy of H
    return DiscreteFunction(values=(mF.conj() @ op.feature.matrix).conj(), grid=op.grid_E)


def apply_adjoint(op: InducedKernel, g: DiscreteFunction) -> DiscreteFunction:
    """Apply the weighted-L2 adjoint to a function on grid E: ``H (w∘g)``."""
    ensure_aligned(g, op.grid_E)
    wg = op.grid_E.weights * g.values
    return DiscreteFunction(values=op.feature.matrix @ wg, grid=op.grid_T)


def check_injectivity(
    op: InducedKernel, cutoff_rel: float = DEFAULT_CUTOFF_REL
) -> InjectivityReport:
    """Numerical rank of the transform in orthonormal coordinates.

    The transform is injective iff ``A = diag(m)^{1/2} H diag(w)^{1/2}`` has
    rank equal to the size of grid T, i.e. the feature family is total in the
    source space.  ``AᴴA`` is the weighted induced form, so the rank counts its
    eigenvalues above ``cutoff_rel * lambda_max`` (``sigma > sqrt(cutoff_rel)
    sigma_max``) in the cached spectrum the solves use.
    """
    rank = spectral_data(op, cutoff_rel).numerical_rank
    m_dim = op.grid_T.size
    return InjectivityReport(
        injective=rank == m_dim, numerical_rank=rank, deficiency=m_dim - rank
    )


def _column_norms(weights: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Weighted-L2 norm of every column of ``mat`` under quadrature ``weights``."""
    return np.sqrt(np.sum(weights[:, None] * np.abs(mat) ** 2, axis=0))


def verify_identities(
    op: InducedKernel,
    cutoff_rel: float = DEFAULT_CUTOFF_REL,
    trials: int = 100,
    seed: int = 0,
) -> IdentityReport:
    """Measure every operator identity over seeded random trial functions.

    All residuals are relative.  The isometry and round-trip identities are
    meaningful only for injective transforms; the report records injectivity
    so callers can gate on it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    m = op.grid_T.weights
    w = op.grid_E.weights
    complex_mode = np.iscomplexobj(op.feature.matrix)
    # the decomposition behind the rank runs before the n x n products below exist
    inj = check_injectivity(op, cutoff_rel)

    # forward Hᴴ diag(m) and adjoint H diag(w) as matrices: the factorization needs their product
    forward = op.feature.matrix.conj().T * m[None, :]
    adjoint = op.feature.matrix * w[None, :]
    # factorization: induced operator == forward @ adjoint; the gap is formed in place
    lhs = op.gram * w[None, :]
    rhs = forward @ adjoint
    lhs_norm = float(np.linalg.norm(lhs))
    rhs -= lhs
    factorization = float(np.linalg.norm(rhs) / lhs_norm) if lhs_norm > 0 else 0.0
    del lhs, rhs

    F = random_samples(rng, op.grid_T.size, trials, complex_mode)
    G = random_samples(rng, op.grid_T.size, trials, complex_mode)
    f_img = forward @ F
    g_img = forward @ G
    x, _ = _solve_columns(op, f_img, cutoff_rel)

    f_norms = _column_norms(m, F)
    g_norms = _column_norms(m, G)

    back = adjoint @ x
    roundtrip = float(np.max(_column_norms(m, back - F) / f_norms))
    plain = float(np.max(_column_norms(m, adjoint @ f_img - F) / f_norms))

    # [LF, LG] via the solved K^{-1} LF against LG in the E-grid product
    space_inner = np.sum(w[:, None] * x * np.conj(g_img), axis=0)
    source_inner = np.sum(m[:, None] * F * np.conj(G), axis=0)
    isometry = float(np.max(np.abs(space_inner - source_inner) / (f_norms * g_norms)))

    image_norm_sq = np.sum(w[:, None] * x * np.conj(f_img), axis=0).real
    image_norms = np.sqrt(np.clip(image_norm_sq, 0.0, None))
    norm_defect = float(np.max(np.abs(image_norms - f_norms) / f_norms))

    # duality pairing (LF, g)_E == (F, L* g)_T on fresh random pairs
    g_rand = random_samples(rng, op.grid_E.size, trials, complex_mode)
    pair_lhs = np.sum(w[:, None] * f_img * np.conj(g_rand), axis=0)
    pair_rhs = np.sum(m[:, None] * F * np.conj(adjoint @ g_rand), axis=0)
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


def invert(
    op: InducedKernel,
    f: DiscreteFunction,
    cutoff_rel: float = DEFAULT_CUTOFF_REL,
    range_tol: float | None = DEFAULT_RANGE_TOL,
) -> InversionResult:
    """Recover the source function from transform data.

    Applies the adjoint composed with the inverse kernel operator, the left
    inverse of an injective transform.  The range residual
    ``||forward(F) - f|| / ||f||`` measures how far ``f`` sits from the
    transform range; above ``range_tol`` a ``RangeViolationError`` carries it.

    Raises ``NotInjectiveError`` when the transform fails the rank check.
    """
    ensure_aligned(f, op.grid_E)
    inj = check_injectivity(op, cutoff_rel)
    if not inj.injective:
        raise NotInjectiveError(inj.numerical_rank, op.grid_T.size)
    solved = solve_kernel_system(op, f, cutoff_rel, range_tol=None)
    recovered = apply_adjoint(op, solved.solution)
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
