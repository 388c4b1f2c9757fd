"""Quadrature grids on real intervals and discrete functions living on them.

A ``Grid`` replaces an interval with points and positive quadrature weights,
so that every integral in the continuous formulas becomes a weighted sum.
A ``DiscreteFunction`` is a vector of complex samples tied to one grid.
Callables reach a grid through ``evaluate``, sample arrays take their dtype
from ``as_samples`` and seeded trial functions come from ``random_samples``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GridMismatchError

QUADRATURE_RULES = ("trapezoid", "midpoint")

_grid_ids = itertools.count()


def _next_grid_id() -> str:
    return f"grid{next(_grid_ids)}"


@dataclass(frozen=True)
class Grid:
    """Strictly increasing points with positive quadrature weights.

    ``interval`` records the underlying interval ``(a, b)``; for the midpoint
    rule the endpoints themselves are not grid points.
    """

    points: np.ndarray
    weights: np.ndarray
    rule: str
    interval: tuple[float, float]
    grid_id: str = field(default_factory=_next_grid_id, compare=False)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if points.ndim != 1 or points.size < 1:
            raise ValueError("grid needs a 1-d array with at least one point")
        if weights.shape != points.shape:
            raise ValueError("points and weights must have the same length")
        if points.size > 1 and not np.all(np.diff(points) > 0):
            raise ValueError("grid points must be strictly increasing")
        if not np.all(np.isfinite(points)) or not np.all(np.isfinite(weights)):
            raise ValueError("grid points and weights must be finite")
        if not np.all(weights > 0):
            raise ValueError("quadrature weights must be positive")
        if self.rule not in QUADRATURE_RULES:
            raise ValueError(f"unknown quadrature rule {self.rule!r}")

    @property
    def size(self) -> int:
        return self.points.size

    def __len__(self) -> int:
        return self.points.size


def as_samples(a) -> np.ndarray:
    """``a`` as an array of samples: complex if it is complex, float otherwise."""
    a = np.asarray(a)
    return a if np.iscomplexobj(a) else a.astype(float, copy=False)


def evaluate(fn: Callable, *args) -> np.ndarray:
    """``fn`` at every entry of the broadcast ``args``, as an array of that shape.

    A vectorized call is used when it returns the broadcast shape
    (``_evaluate_vectorized``); otherwise ``fn`` is called once per entry on
    scalars, in row-major order (``_evaluate_per_entry``).
    """
    values = _evaluate_vectorized(fn, *args)
    return _evaluate_per_entry(fn, *args) if values is None else values


def _evaluate_vectorized(fn: Callable, *args) -> np.ndarray | None:
    """``fn(*args)`` as an array, or None when it raises or does not return the broadcast shape."""
    try:
        values = np.asarray(fn(*args))
    except (TypeError, ValueError):
        return None
    return values if values.shape == np.broadcast_shapes(*(np.shape(a) for a in args)) else None


def _evaluate_per_entry(fn: Callable, *args) -> np.ndarray:
    """``fn`` called once per entry of the broadcast ``args``, on scalars, in row-major order."""
    arrays = np.broadcast_arrays(*args)
    shape = arrays[0].shape
    values = np.array([fn(*xs) for xs in zip(*(a.flat for a in arrays))])
    return values.reshape(shape + values.shape[1:])


def random_samples(rng, rows: int, cols: int, complex_mode: bool) -> np.ndarray:
    """``rows x cols`` standard normal draws; in complex mode an imaginary part is drawn next."""
    mat = rng.standard_normal((rows, cols))
    if complex_mode:
        mat = mat + 1j * rng.standard_normal((rows, cols))
    return mat


@dataclass(frozen=True)
class DiscreteFunction:
    """Complex (or real) samples aligned to a grid."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        values = as_samples(self.values)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size != self.grid.size:
            raise ValueError(
                f"function has {values.size} samples, grid has {self.grid.size} points"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("function samples must be finite (no NaN/Inf)")


def make_uniform_grid(
    a: float,
    b: float,
    n: int,
    rule: str = "trapezoid",
    density: Callable[[np.ndarray], np.ndarray] | None = None,
) -> Grid:
    """Discretize ``[a, b]`` with ``n`` points of the given quadrature rule.

    ``density``, when given, is a strictly positive function multiplying the
    Lebesgue weights pointwise, realizing a measure ``density(t) dt``.
    Isolated zero samples (a density vanishing at an endpoint) are floored at
    machine epsilon relative to the largest sample.

    Raises ``ValueError`` for an empty interval (``a >= b``), a negative or
    non-finite density sample, or an identically zero density.
    """
    if not a < b:
        raise ValueError(f"invalid interval: need a < b, got [{a}, {b}]")
    n = int(n)
    if n < 1:
        raise ValueError("grid needs at least one point")
    if rule == "trapezoid":
        if n < 2:
            raise ValueError("trapezoid rule needs at least two points")
        points = np.linspace(a, b, n)
        h = (b - a) / (n - 1)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2
    elif rule == "midpoint":
        h = (b - a) / n
        points = a + h * (np.arange(n) + 0.5)
        weights = np.full(n, h)
    else:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    if density is not None:
        dens = np.asarray(evaluate(density, points), dtype=float)
        if not np.all(np.isfinite(dens)) or np.any(dens < 0) or not np.any(dens > 0):
            raise ValueError("non-positive density sample on the grid")
        # a density vanishing at isolated points (e.g. 2t at t=0) gets a
        # relative floor so quadrature weights stay strictly positive
        floor = np.finfo(float).eps * dens.max()
        weights = weights * np.maximum(dens, floor)
    return Grid(points=points, weights=weights, rule=rule, interval=(float(a), float(b)))


def sample_function(grid: Grid, fn: Callable) -> DiscreteFunction:
    """Evaluate a callable on the grid points."""
    return DiscreteFunction(values=evaluate(fn, grid.points), grid=grid)


def ensure_aligned(f: DiscreteFunction, grid: Grid) -> None:
    """Raise ``GridMismatchError`` unless ``f`` lives on ``grid``.

    Identity is decided by grid id and length, never by comparing
    floating-point coordinates.
    """
    if f.grid.grid_id != grid.grid_id or f.values.size != grid.size:
        raise GridMismatchError(
            f"function on {f.grid.grid_id} (n={f.values.size}) is not aligned "
            f"to {grid.grid_id} (n={grid.size})"
        )


def inner_product_l2(f: DiscreteFunction, g: DiscreteFunction, grid: Grid | None = None) -> complex:
    """Weighted L2 inner product, conjugate-linear in the second argument.

    Returns ``sum_i w_i * f_i * conj(g_i)``, its real and imaginary parts
    summed separately in real arithmetic.  Swapping ``f`` and ``g`` then
    negates the imaginary terms exactly, so conjugate symmetry holds bit for
    bit and ``inner(f, f)`` is real; a complex multiply may fuse a
    multiply-add and round ``f conj(g)`` and ``g conj(f)`` differently.
    """
    if grid is None:
        grid = f.grid
    ensure_aligned(f, grid)
    ensure_aligned(g, grid)
    w = grid.weights
    fr, fi = f.values.real, f.values.imag
    gr, gi = g.values.real, g.values.imag
    return complex(np.sum(w * (fr * gr + fi * gi)), np.sum(w * (fi * gr - fr * gi)))


def norm_l2(f: DiscreteFunction, grid: Grid | None = None) -> float:
    """Weighted L2 norm of ``f``."""
    if grid is None:
        grid = f.grid
    ensure_aligned(f, grid)
    return float(np.sqrt(np.sum(grid.weights * np.abs(f.values) ** 2)))
