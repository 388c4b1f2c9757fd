"""Built-in feature-map families with known closed-form induced kernels.

Each family fixes ``h(t, p)`` so the induced kernel has an independent
closed form (or, for the orthonormal family, a diagonal operator), giving
ground truth for the identity checks:

* ``fourier``: ``exp(-i t p) / sqrt(2 pi)`` on a symmetric T, inducing the
  sinc kernel ``sin(b (p - q)) / (pi (p - q))``.
* ``indicator``: ``1_{t <= p}`` with T = E, inducing ``min(p, q) - a``.
* ``gaussian``: ``exp(-(t - p)^2 / (2 sigma^2))`` on a wide T, inducing
  ``sigma sqrt(pi) exp(-(p - q)^2 / (4 sigma^2))``.
* ``orthonormal_diagonal``: discretely orthonormal modes scaled so the
  induced operator is exactly diagonal (the weighted-L2 degenerate case).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid, evaluate
from .kernel import _row_slices, builtin_kernel
from .transform import FeatureMap, InducedKernel

#: the fields each family reads besides its name: numeric ``params`` keys, and
#: ``weight`` for the one family that takes a target diagonal
FAMILY_PARAMS = {
    "fourier": ("band", "modes"),
    "indicator": ("modes",),
    "gaussian": ("sigma", "modes"),
    "orthonormal_diagonal": ("modes", "weight"),
}
FAMILY_NAMES = tuple(FAMILY_PARAMS)

#: how much slack interval endpoints get in compatibility checks
_ENDPOINT_RTOL = 1e-9


@dataclass(frozen=True)
class FeatureFamily:
    """A family name plus its parameters.

    band: half-width of the symmetric T interval (fourier).
    sigma: feature width (gaussian).
    modes: size of the default grid T, and the required size of an explicit
        grid T; optional.
    weight: target diagonal of the induced operator for orthonormal_diagonal,
        as a callable of the E points or an array; defaults to 1.
    """

    family: str
    band: float | None = None
    sigma: float | None = None
    modes: int | None = None
    weight: Callable | np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise ValueError(f"unknown feature family {self.family!r}")
        if self.band is not None and self.band <= 0:
            raise ValueError("band must be positive")
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.modes is not None and self.modes < 1:
            raise ValueError("mode count must be at least 1")
        if self.family == "gaussian" and self.sigma is None:
            raise ValueError("gaussian family needs sigma")


def recommended_t_interval(spec: FeatureFamily, interval_E: tuple[float, float]) -> tuple[float, float]:
    """Default T interval for a family, given the E interval.

    The gaussian window extends eight widths past E so the closed form for
    an unbounded T applies up to negligible truncation.
    """
    a, b = interval_E
    if spec.family == "fourier":
        if spec.band is None:
            raise ValueError("fourier family needs band to pick a T interval")
        return (-spec.band, spec.band)
    if spec.family == "gaussian":
        return (a - 8.0 * spec.sigma, b + 8.0 * spec.sigma)
    return (a, b)


def _close(x: float, y: float, scale: float) -> bool:
    return abs(x - y) <= _ENDPOINT_RTOL * max(scale, 1.0)


def make_feature_map(spec: FeatureFamily, grid_T: Grid, grid_E: Grid) -> FeatureMap:
    """Evaluate a family on a T x E grid pair.

    Raises ``ValueError`` for grids incompatible with the family (a given
    mode count must equal the size of T; indicator needs T = E as intervals;
    fourier needs T symmetric about 0 and matching the band when one is
    given; orthonormal_diagonal needs T at least as large as E).
    """
    if spec.modes is not None and spec.modes != grid_T.size:
        raise ValueError(f"mode count {spec.modes} does not match grid T size {grid_T.size}")
    t = grid_T.points
    p = grid_E.points
    if spec.family == "indicator":
        ta, tb = grid_T.interval
        ea, eb = grid_E.interval
        span = max(abs(ta), abs(tb), abs(ea), abs(eb))
        if not (_close(ta, ea, span) and _close(tb, eb, span)):
            raise ValueError("indicator family needs T and E to be the same interval")
        H = (t[:, None] <= p[None, :]).astype(float)
        return FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H)
    if spec.family == "fourier":
        ta, tb = grid_T.interval
        if not _close(ta, -tb, abs(tb)):
            raise ValueError("fourier family needs T symmetric about 0")
        if spec.band is not None and not _close(tb, spec.band, spec.band):
            raise ValueError(
                f"fourier band {spec.band} does not match T interval [{ta}, {tb}]"
            )
        H = np.exp(-1j * t[:, None] * p[None, :]) / math.sqrt(2.0 * math.pi)
        return FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H)
    if spec.family == "gaussian":
        H = np.exp(-((t[:, None] - p[None, :]) ** 2) / (2.0 * spec.sigma**2))
        return FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=H)
    if spec.family == "orthonormal_diagonal":
        return _orthonormal_diagonal_map(spec, grid_T, grid_E)
    raise ValueError(f"unknown feature family {spec.family!r}")


def _orthonormal_diagonal_map(spec: FeatureFamily, grid_T: Grid, grid_E: Grid) -> FeatureMap:
    """Columns orthonormal in the T measure, scaled to a diagonal operator.

    With modes ``phi_i`` satisfying ``sum_k conj(phi_i) phi_j m_k = delta_ij``
    and column scales ``sqrt(v_i / w_i)``, the induced operator is exactly
    ``diag(v)``.
    """
    M, N = grid_T.size, grid_E.size
    if M < N:
        raise ValueError(
            f"orthonormal_diagonal needs grid T at least as large as grid E ({M} < {N})"
        )
    v = _diagonal_weight(spec, grid_E)
    # cosine modes, then QR in the sqrt(m)-scaled coordinates for exact
    # discrete orthonormality; column signs fixed for determinism
    k = np.arange(M, dtype=float)[:, None]
    j = np.arange(N, dtype=float)[None, :]
    base = np.cos(math.pi * j * (k + 0.5) / M)
    sm = np.sqrt(grid_T.weights)[:, None]
    # every scaling is elementwise and in place: no M x N product is formed anew
    base *= sm
    q, r = np.linalg.qr(base)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q *= signs
    q /= sm
    q *= np.sqrt(v / grid_E.weights)
    return FeatureMap(grid_T=grid_T, grid_E=grid_E, matrix=q)


def _diagonal_weight(spec: FeatureFamily, grid_E: Grid) -> np.ndarray:
    if spec.weight is None:
        return np.ones(grid_E.size)
    if callable(spec.weight):
        v = np.asarray(evaluate(spec.weight, grid_E.points), dtype=float)
    else:
        v = np.asarray(spec.weight, dtype=float)
    if v.shape != grid_E.points.shape:
        raise ValueError("diagonal weight must match the E grid size")
    if not np.all(np.isfinite(v)) or np.any(v <= 0):
        raise ValueError("diagonal weight must be strictly positive and finite")
    return v


def closed_form_kernel(spec: FeatureFamily, grid_T: Grid) -> Callable | None:
    """The family's analytically induced kernel, or None when there is none.

    The orthonormal family induces a distributional (diagonal) kernel with
    no pointwise closed form.
    """
    if spec.family == "indicator":
        a = grid_T.interval[0]
        brownian = builtin_kernel("brownian")
        return lambda p, q: brownian(p, q) - a
    if spec.family == "fourier":
        band = spec.band if spec.band is not None else grid_T.interval[1]
        return builtin_kernel("sinc", band=band)
    if spec.family == "gaussian":
        # not the built-in gaussian: its lengthscale sqrt(2) sigma would not round-trip exactly
        sigma = spec.sigma
        return lambda p, q: sigma * math.sqrt(math.pi) * np.exp(
            -((p - q) ** 2) / (4.0 * sigma**2)
        )
    return None


def closed_form_discrepancy(spec: FeatureFamily, op: InducedKernel) -> float | None:
    """Max absolute gap between the induced gram and the closed form on grid E.

    The closed form is evaluated a block of rows at a time, in the blocks of
    ``transform.factorization_residual`` (``kernel._row_slices``).
    """
    kfun = closed_form_kernel(spec, op.grid_T)
    if kfun is None:
        return None
    p = op.grid_E.points
    gaps = []
    for rows in _row_slices(p.size):
        exact = evaluate(kfun, p[rows, None], p[None, :])
        gaps.append(np.max(np.abs(op.gram[rows] - exact)))
    return float(np.max(gaps))
