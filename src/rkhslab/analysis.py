"""Degenerate-case analysis: when is the kernel space just a weighted L2 space?

The kernel operator is diagonal exactly when the kernel is a weighted delta,
``K(p, q) = v(p) delta(p - q)``; then the space inner product collapses to a
weighted L2 product with weight ``w = 1/v``, and the transform inverse is the
adjoint in that product, ``F = L*(f / v)``.  The plain adjoint ``L* f``
inverts the transform only when ``v ≡ 1``.  ``check_weighted_l2`` detects the
diagonal case from the assembled matrix; ``check_unitary_inversion`` compares
plain-adjoint inversion against adjoint-composed-with-inverse-kernel
inversion on random data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInjectiveError
from .grid import DiscreteFunction
from .kernel import DEFAULT_CUTOFF_REL, KernelMatrix, _row_slices
from .transform import InducedKernel, verify_identities

DEFAULT_TOL_DIAG = 1e-8


@dataclass(frozen=True)
class WeightedL2Verdict:
    """Outcome of the diagonality test.

    ``weight_v`` is the diagonal of the kernel operator (the delta-kernel
    scale), ``weight_w = 1 / weight_v`` the induced measure density; both are
    None when the verdict is negative.  ``offdiag_ratio`` is the relative
    Frobenius mass off the diagonal.
    """

    is_weighted_l2: bool
    weight_v: DiscreteFunction | None
    weight_w: DiscreteFunction | None
    offdiag_ratio: float


@dataclass(frozen=True)
class UnitaryInversionReport:
    verdict_from_kernel: WeightedL2Verdict
    l2_adjoint_error: float
    rkhs_adjoint_error: float
    trials: int
    seed: int


def check_weighted_l2(K: KernelMatrix, tol_diag: float = DEFAULT_TOL_DIAG) -> WeightedL2Verdict:
    """Decide whether the kernel operator is diagonal with positive weight.

    The verdict is yes iff the off-diagonal Frobenius mass of
    ``gram @ diag(w)`` stays below ``tol_diag`` and every diagonal entry
    clears the positivity floor ``1e-12 * max(diagonal)``.
    """
    gram, w = K.gram, K.grid.weights
    # diag(gram W); the Frobenius masses of gram W are summed a block of rows at a time
    diag = np.real(np.diag(gram)) * w
    total_norms, offdiag_norms = [], []
    for rows in _row_slices(K.size):
        B = gram[rows] * w[None, :]
        total_norms.append(np.linalg.norm(B))
        np.fill_diagonal(B[:, rows], 0)
        offdiag_norms.append(np.linalg.norm(B))
        # released before the next block is formed
        del B
    total = float(np.linalg.norm(total_norms))
    if total == 0.0:
        return WeightedL2Verdict(
            is_weighted_l2=False, weight_v=None, weight_w=None, offdiag_ratio=0.0
        )
    ratio = float(np.linalg.norm(offdiag_norms) / total)
    v_max = float(diag.max())
    positive = v_max > 0 and float(diag.min()) >= 1e-12 * v_max
    if ratio <= tol_diag and positive:
        return WeightedL2Verdict(
            is_weighted_l2=True,
            weight_v=DiscreteFunction(values=diag, grid=K.grid),
            weight_w=DiscreteFunction(values=1.0 / diag, grid=K.grid),
            offdiag_ratio=ratio,
        )
    return WeightedL2Verdict(
        is_weighted_l2=False, weight_v=None, weight_w=None, offdiag_ratio=ratio
    )


def check_unitary_inversion(
    op: InducedKernel,
    cutoff_rel: float = DEFAULT_CUTOFF_REL,
    trials: int = 20,
    seed: int = 0,
    tol_diag: float = DEFAULT_TOL_DIAG,
) -> UnitaryInversionReport:
    """Compare plain-adjoint and inverse-kernel-adjoint recovery on random data.

    For random sources F with images f, the adjoint composed with the inverse
    kernel recovers F whenever the transform is injective.  In the weighted-L2
    (diagonal-kernel, ``K = v·δ``) case that inverse is ``F = L*(f / v)``, so
    the plain adjoint alone recovers F only when ``v ≡ 1``.  Errors
    are the worst relative T-grid L2 deviations over the trials drawn by
    ``verify_identities``: its ``plain_adjoint_error`` and ``roundtrip_error``.

    Raises ``NotInjectiveError`` for rank-deficient transforms.  The verdict
    reads the gram, so it is taken before ``verify_identities`` decomposes
    the kernel, which may release the gram, and the rank is read after.
    """
    verdict = check_weighted_l2(op, tol_diag)
    identities = verify_identities(op, cutoff_rel, trials, seed)
    if not identities.injective:
        raise NotInjectiveError(identities.numerical_rank, op.grid_T.size)
    return UnitaryInversionReport(
        verdict_from_kernel=verdict,
        l2_adjoint_error=identities.plain_adjoint_error,
        rkhs_adjoint_error=identities.roundtrip_error,
        trials=trials,
        seed=seed,
    )
