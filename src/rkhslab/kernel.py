"""Kernel matrices, the discretized kernel operator, and its spectral pseudo-inverse.

The integral operator ``(Kf)(p) = integral K(p,q) f(q) dq`` discretizes to the
matrix ``gram @ diag(w)`` acting on sample vectors, where ``gram`` holds the
kernel values at grid points and ``w`` the quadrature weights.  All solves go
through a decomposition of the symmetrized form ``S = sqrt(W) gram sqrt(W)``,
with a relative eigenvalue cutoff standing in for restriction to the
operator range.

The decomposition is one of four routes, chosen in one place
(``KernelMatrix.weighted_eigh``).  Each route is an object that answers for
itself: ``at(cutoff_rel)`` is the route that solves at that cutoff, ``rank``
and ``rank_certified`` give the rank it keeps and what decided it, ``solve``
is the pseudo-inverse solve with each column's relative mass outside the
kept range, ``kept_diagonal`` is the diagonal of ``S`` on what the cutoff
keeps, and ``eigenvalues`` are descending.

* ``EigenRoute`` holds eigenpairs.
  - ``dense``: one ``eigh`` of the n x n form.
  - ``low_rank``: at n >= ``LOW_RANK_MIN_SIZE`` a pivoted Cholesky
    ``S ≈ L Lᴴ`` is tried first (Harbrecht, Peters & Schneider 2012).  It is
    used when it needs at most n / 8 pivots, all positive, and its error
    ``err = ||S - L Lᴴ||_F`` is at most ``n * eps * lambda_max`` (``eps`` the
    machine epsilon), the backward error of the dense ``eigh`` it replaces.
    By Weyl's inequality ``lambda_min(S) >= -err``, and the last eigenvalue
    slot carries that bound.  Its factor then takes one small ``eigh``.
  - ``wide`` below r = ``LOW_RANK_MIN_SIZE``: the kernel supplies an exact
    factor ``S = F Fᴴ`` with r < n columns (``KernelMatrix.exact_factor``;
    the kernel a wide transform induces, ``transform.InducedKernel``,
    supplies its feature side), and a thin QR of F and one r x r ``eigh``
    give the eigenpairs.
  A factor route's eigenvectors have fewer columns than rows, and its
  remaining eigenvalues are zeros.
* ``CholeskyRoute`` holds a form ``A`` and, in the eigenvectors' place, its
  Cholesky factor ``A = L Lᴴ`` (Golub & Van Loan, *Matrix Computations*,
  §4.2).  On the ``cholesky`` route ``A = S``, from n = ``LOW_RANK_MIN_SIZE``
  where no low-rank factor applies; on the ``wide`` route (``WideRoute``)
  ``A = G = Fᴴ F``, from r = ``LOW_RANK_MIN_SIZE``.  At a cutoff that keeps
  every eigenvalue the pseudo-inverse is ``S⁻¹``, two triangular
  substitutions with ``L``, or ``F G⁻² Fᴴ``.  At a cutoff that drops one, or
  when ``A`` is not numerically positive definite, the route's eigenpairs
  answer instead: the dense ``eigh`` of ``S`` formed anew, or the thin QR of
  ``wide``, computed once (``CholeskyRoute.eigenpairs``).

On a Cholesky route nothing is factored when the route is chosen: ``A`` is
held, and its first read decides which factor is computed.  Every factor is
written over the form it factors, by a blocked Cholesky
(``_cholesky_in_place``), so the factor takes the form's buffer and no
n x n array of its own.

* A read of the spectrum runs ``eigvalsh(A)`` first, then factors ``A``.
  A read of the factor or the route name factors ``A`` alone.  ``verify``
  reads the spectrum first: one ``eigvalsh`` and one Cholesky.
* A rank query while the eigenvalues are unread (``spectral_data``, which
  ``invert`` reaches first) factors ``A - c I`` instead, with
  ``c = cutoff_rel ||A||_F + 2 (r + 1) eps tr(A)`` for r x r ``A``.  That
  one factorization does two jobs.  It certifies the rank: since
  ``||A||_F >= lambda_max`` and the factorization's backward error is at
  most ``2 (r + 1) eps tr(A)`` in norm (Higham, *Accuracy and Stability of
  Numerical Algorithms*, Thm 10.3), its success puts every eigenvalue
  above ``cutoff_rel * lambda_max``, so the rank is r.  And it is the solve
  factor of ``invert``, which refines its solve on the data residual
  (``transform.invert``).  A solve through ``L``, and the ``cholesky``
  route's kept diagonal, first replace the shifted factor by one of ``A``
  itself, formed anew (``CholeskyRoute.drop_shift``).  A solve the
  eigenpairs answer, and the ``wide`` route's kept diagonal, which reads F
  alone, keep it.  ``invert`` runs one Cholesky, shifted, and no
  ``eigvalsh``.
* A failed factorization leaves its form spoiled; the form is released and
  formed anew where it is read next.  When the certificate fails, ``A`` is
  formed anew, and ``eigvalsh`` and the unshifted factor decide, so a rank
  below r is never decided by the certificate.  When ``A`` itself is not
  numerically positive definite, the route's name and eigenvalues become
  its eigenpairs', there and then.

A kernel that can form its gram again (``assemble_kernel`` on a vectorized
kernel function, and ``transform.InducedKernel`` from its feature map)
releases it when ``weighted_eigh`` returns a ``cholesky`` route, and keeps
its diagonal: the route forms ``S`` anew by forming the gram and scaling it
in place, and the next read of ``gram`` forms it again, the same bit for
bit.  The low-rank error and the readers of the gram
(``analysis.check_weighted_l2``) work a block of rows at a time, so none
forms an n x n temporary.  A reader that needs only products with the gram
and its diagonal (``KernelMatrix.gram_product`` and ``gram_diagonal``:
``apply_operator`` and the reproducing checks of ``rkhs``) forms nothing
again on an induced kernel, which multiplies through its feature map once
its gram is released.  So
``verify`` on the ``cholesky`` route holds at most two n x n arrays of the
kernel at once: the gram and ``S`` while ``S`` is formed, ``S`` and the copy
that numpy's ``eigvalsh`` makes, then the factor, with an assembled gram
evaluated again for its products.  A kernel that keeps its gram (a CSV or
array kernel, a scalar kernel function) adds it to each, and an induced
kernel adds its feature map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import NonHermitianKernelError, RangeViolationError
from .grid import (
    DiscreteFunction,
    Grid,
    _evaluate_per_entry,
    _evaluate_vectorized,
    as_samples,
    ensure_aligned,
)

#: relative Hermitian defect above which a kernel is rejected outright
HERMITIAN_REJECT_REL = 1e-6

#: default relative eigenvalue cutoff for pseudo-inverse solves
DEFAULT_CUTOFF_REL = 1e-12

#: default relative residual above which a solve reports a range violation
DEFAULT_RANGE_TOL = 1e-6

#: smallest decomposed side (n, or r of a wide factor) at which the Cholesky routes are tried
LOW_RANK_MIN_SIZE = 512

#: the pivoted Cholesky stops once every residual diagonal is at most this times the largest diagonal
PIVOT_STOP_REL = 1e-14


@dataclass(eq=False)
class EigenRoute:
    """Eigenpairs of ``S``: the ``dense`` and ``low_rank`` routes, and ``wide`` below the floor.

    ``eigenvalues`` are descending, and the columns of ``eigenvectors`` are
    orthonormal.  They are n x n on the ``dense`` route, or n x r on a factor
    route, where the form is ``F Fᴴ`` with r < n columns in F (the kernel of
    a wide transform exactly, a low-rank kernel up to the certified error):
    the other n - r eigenvalues are zeros sorted in, and column k pairs with
    eigenvalue k for every eigenvalue above zero, so for every kept one.
    ``certified_error`` is ``||S - L Lᴴ||_F`` of the low-rank factor, and 0
    on the exact routes; on the low-rank route the last eigenvalue is not
    computed but a certified lower bound, lowered by it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    decomposition: str
    certified_error: float = 0.0

    def at(self, cutoff_rel: float) -> EigenRoute:
        """The route that solves at this cutoff: eigenpairs solve at every one."""
        return self

    def rank(self, cutoff_rel: float) -> int:
        return _rank(self.eigenvalues, cutoff_rel)

    def rank_certified(self, cutoff_rel: float) -> bool:
        return False

    def solve(self, y: np.ndarray, cutoff_rel: float) -> tuple[np.ndarray, np.ndarray]:
        """``S⁺ y`` on the kept eigenpairs, and each column's relative mass outside them."""
        lam, U = self.eigenvalues, self.eigenvectors
        rank = self.rank(cutoff_rel)
        coeffs = U.conj().T @ y
        if U.shape[1] == U.shape[0]:
            dropped, whole = coeffs[rank:], coeffs
        else:
            # U spans only part of the space: measure what the kept columns leave out
            dropped, whole = y - U[:, :rank] @ coeffs[:rank], y
        # at rank 0 the empty product is the zero solution
        return U[:, :rank] @ (coeffs[:rank] / lam[:rank, None]), _relative_norms(dropped, whole)

    def kept_diagonal(self, cutoff_rel: float) -> np.ndarray:
        """``sum_{k < rank} lam_k |U[q, k]|^2``: the diagonal of ``S`` on the kept eigenpairs."""
        rank = self.rank(cutoff_rel)
        return np.abs(self.eigenvectors[:, :rank]) ** 2 @ self.eigenvalues[:rank]


class CholeskyRoute:
    """The ``cholesky`` route: a Cholesky factor ``L`` of the form ``A = S`` stands in for eigenpairs.

    The form is held unfactored, and the first read decides how it is
    factored (module docstring).  Every factor is written over ``A``
    (``_cholesky_in_place``), so ``L`` is ``A``'s buffer:

    * a rank query with the eigenvalues unread factors ``A - c I``, with the
      certificate's shift ``c``; its factor is kept, ``shift`` is ``c`` and
      ``solve_shifted`` solves with ``A - c I``.  When it fails, ``A`` is
      spoiled and released;
    * ``eigenvalues`` runs ``eigvalsh(A)`` first, then factors ``A``;
    * a read of the route name factors ``A`` itself: before a rank query
      it costs ``invert`` a second factorization.

    At a cutoff that drops an eigenvalue, and when ``A`` is not numerically
    positive definite, ``eigenpairs`` answer; in the second case they also
    give the route's name and eigenvalues, and an ``eigvalsh`` run before is
    discarded.  Whenever ``A`` is needed after it was factored or released,
    it is formed again with ``reform``, which ``KernelMatrix.weighted_eigh``
    gives: from the gram it holds, or from the gram evaluated anew where the
    kernel released its own.  ``reform`` binds arrays and the kernel's
    evaluating callable only: a reference to the kernel would make a cycle
    with the route the kernel caches.
    """

    #: the route's name while ``A`` is numerically positive definite
    factored_name = "cholesky"
    certified_error = 0.0

    def __init__(self, form: np.ndarray, reform: Callable[[], np.ndarray]):
        self._form = form
        self._reform = reform
        self.size = form.shape[0]
        #: the factor, of ``A - shift I``, once one is held
        self.L: np.ndarray | None = None
        self.shift = 0.0
        self._eigenvalues: np.ndarray | None = None
        self._failed = False
        self._certified: set[float] = set()

    @cached_property
    def eigenpairs(self) -> EigenRoute:
        """The dense ``eigh`` of ``S``, formed anew; computed once, on first use."""
        return _dense_eigh(self._reform())

    def _spectrum(self, lam: np.ndarray) -> np.ndarray:
        """The eigenvalues of ``S`` from the descending eigenvalues of ``A``."""
        return lam

    def _held_form(self) -> np.ndarray:
        """The form held, or formed anew once it was factored or released."""
        if self._form is None:
            self._form = self._reform()
        return self._form

    def _factored(self) -> bool:
        """Whether ``A`` is numerically positive definite; the first call factors ``A`` over itself.

        On failure the eigenpairs are computed there and then, and their
        eigenvalues become the route's.
        """
        if self.L is None and not self._failed:
            A, self._form = self._held_form(), None
            if _cholesky_in_place(A):
                self.L = A
            else:
                # spoiled: released before the eigenpairs form A anew
                del A
                self._failed = True
                self._eigenvalues = self.eigenpairs.eigenvalues
        return not self._failed

    @property
    def decomposition(self) -> str:
        return self.factored_name if self._factored() else self.eigenpairs.decomposition

    @property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues of ``S``, descending: ``eigvalsh``'s, run once, before ``A`` is factored."""
        if self._eigenvalues is None:
            lam = np.linalg.eigvalsh(self._held_form())[::-1]
            # factors A over itself, unless a factor is held already
            if self._factored():
                self._eigenvalues = self._spectrum(lam)
            self._form = None
        return self._eigenvalues

    def _keeps_all(self, cutoff_rel: float) -> bool:
        """Whether ``L`` inverts every eigenvalue ``cutoff_rel * lambda_max`` keeps.

        While the eigenvalues are unread the shifted Cholesky may certify it,
        once per cutoff, and its factor becomes ``L`` when none is held yet;
        otherwise, or when it fails, the eigenvalues decide.
        """
        if cutoff_rel in self._certified:
            return True
        if self._eigenvalues is None:
            A, self._form = self._held_form(), None
            shift = _certifies_full_rank(A, cutoff_rel)
            if shift is not None:
                self._certified.add(cutoff_rel)
                if self.L is None:
                    self.L, self.shift = A, shift
                return True
            # spoiled: released before the eigenvalues form A anew
            del A
        # reading the eigenvalues factored A, or found it not positive definite
        return _rank(self.eigenvalues, cutoff_rel) == self.size and self._factored()

    def at(self, cutoff_rel: float) -> CholeskyRoute | EigenRoute:
        """The route that solves at this cutoff: this one where ``L`` keeps all, else ``eigenpairs``."""
        return self if self._keeps_all(cutoff_rel) else self.eigenpairs

    def rank(self, cutoff_rel: float) -> int:
        return self.size if self._keeps_all(cutoff_rel) else self.eigenpairs.rank(cutoff_rel)

    def rank_certified(self, cutoff_rel: float) -> bool:
        """Whether the shifted Cholesky, not the eigenvalues, decided the rank at this cutoff."""
        return cutoff_rel in self._certified

    def solve(self, y: np.ndarray, cutoff_rel: float) -> tuple[np.ndarray, np.ndarray]:
        """``S⁺ y``, and each column's relative mass outside the kept range (``EigenRoute.solve``)."""
        if not self._keeps_all(cutoff_rel):
            return self.eigenpairs.solve(y, cutoff_rel)
        self.drop_shift()
        return self._solve_kept(y)

    def _solve_kept(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``S⁻¹ y`` by ``L``; nothing is dropped."""
        return _cholesky_solve(self.L, y), np.zeros(y.shape[1])

    def kept_diagonal(self, cutoff_rel: float) -> np.ndarray:
        """The diagonal of ``S`` on what the cutoff keeps: the squared row norms of ``S``'s factor."""
        if not self._keeps_all(cutoff_rel):
            return self.eigenpairs.kept_diagonal(cutoff_rel)
        factor = self._factor_of_s()
        return np.einsum("ij,ij->i", factor, factor.conj()).real

    def _factor_of_s(self) -> np.ndarray:
        """``L``, with ``S = L Lᴴ``: a shifted factor is replaced first."""
        self.drop_shift()
        return self.L

    def solve_shifted(self, b: np.ndarray) -> np.ndarray:
        """``(A - shift I)⁻¹ b`` by the held factor."""
        return _cholesky_solve(self.L, b)

    def drop_shift(self) -> None:
        """Replace the certificate's shifted factor, if one is held, by a factor of ``A`` itself.

        The shifted factor is released first, and ``A`` formed anew.  ``A``
        is positive definite by more than the shift, so its factor cannot
        fail but by a defect.
        """
        if self.shift:
            self.L, self.shift = None, 0.0
            if not self._factored():
                raise np.linalg.LinAlgError("a certified form is not numerically positive definite")


class WideRoute(CholeskyRoute):
    """The ``wide`` route from r = ``LOW_RANK_MIN_SIZE``: ``A = G = Fᴴ F``, with ``S = F Fᴴ`` exact.

    ``F`` is n x r.  The eigenvalues of ``S`` are the r of ``G`` with the
    n - r zeros of ``F Fᴴ`` sorted in, and ``F G⁻¹ Fᴴ`` projects onto the
    range: the pseudo-inverse is ``F G⁻² Fᴴ``.  The eigenpairs are the thin
    QR of ``F`` and one r x r ``eigh``.
    """

    factored_name = "wide"

    def __init__(self, F: np.ndarray):
        reform = partial(_factor_gram, F)
        super().__init__(reform(), reform)
        self.F = F

    @cached_property
    def eigenpairs(self) -> EigenRoute:
        """The thin QR of ``F`` and one r x r ``eigh``; computed once, on first use."""
        return _factor_eigh(self.F, "wide")

    def _spectrum(self, lam: np.ndarray) -> np.ndarray:
        return _with_zeros(lam, self.F.shape[0])

    def _solve_kept(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``F G⁻² Fᴴ y``, and each column's relative mass that ``F G⁻¹ Fᴴ`` leaves out."""
        # G⁻¹ Fᴴ y: F times it is the part of y in the range
        coeffs = _cholesky_solve(self.L, self.F.conj().T @ y)
        return self.F @ _cholesky_solve(self.L, coeffs), _relative_norms(y - self.F @ coeffs, y)

    def _factor_of_s(self) -> np.ndarray:
        """``F`` itself, which needs no factor of ``G``: a shifted one is kept."""
        return self.F


def _relative_norms(part: np.ndarray, whole: np.ndarray) -> np.ndarray:
    """``||part|| / ||whole||`` per column, 0 where ``whole`` is 0."""
    dropped, total = np.linalg.norm(part, axis=0), np.linalg.norm(whole, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(total > 0, dropped / total, 0.0)


def _finite_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, raising ``ValueError`` when it does not fit the float range."""
    # an overflow here is a kernel beyond the float range, as in ``_hermitian_gram``
    with np.errstate(over="ignore", invalid="ignore"):
        product = a @ b
    if not np.all(np.isfinite(product)):
        raise ValueError("kernel produced non-finite values")
    return product


#: most rows per block of the n x n products formed a block of rows, or columns, at a time
ROW_BLOCK = 512


def _row_slices(n_rows: int) -> list[slice]:
    """Consecutive slices of at most ``ROW_BLOCK`` rows, of near-equal sizes, covering ``n_rows``."""
    count = -(-n_rows // ROW_BLOCK)
    edges = [k * n_rows // count for k in range(count + 1)]
    return [slice(r0, r1) for r0, r1 in zip(edges[:-1], edges[1:])]


#: side of the tiles ``_hermitian_part`` and ``_is_hermitian`` pair up
HERMITIAN_TILE = 128


def _tile_pairs(n_dim: int):
    """``(rows, cols)`` slices of the tiles on and above the diagonal of an n x n array.

    Each tile ``A[rows, cols]`` pairs with ``A[cols, rows]`` below the diagonal.
    """
    for i0 in range(0, n_dim, HERMITIAN_TILE):
        rows = slice(i0, min(i0 + HERMITIAN_TILE, n_dim))
        for j0 in range(i0, n_dim, HERMITIAN_TILE):
            yield rows, slice(j0, min(j0 + HERMITIAN_TILE, n_dim))


def _hermitian_part(A: np.ndarray) -> np.ndarray:
    """``(A + Aᴴ) / 2``, written over ``A``, which must be a square array of the caller's own.

    Bit for bit ``B + Bᴴ`` with ``B = A / 2``, formed tile pair by tile pair:
    ``A += Aᴴ`` would overlap itself, and numpy would buffer a whole copy.
    """
    # halving first cannot overflow
    A *= 0.5
    for rows, cols in _tile_pairs(A.shape[0]):
        upper, lower = A[rows, cols], A[cols, rows]
        # both sums are read from the halves before either tile is written
        new_upper = upper + lower.conj().T
        lower += upper.conj().T
        upper[...] = new_upper
    return A


def _is_hermitian(A: np.ndarray) -> bool:
    """Whether the square ``A`` equals ``Aᴴ`` exactly; stops at the first tile pair that differs."""
    return all(np.array_equal(A[rows, cols], A[cols, rows].conj().T)
               for rows, cols in _tile_pairs(A.shape[0]))


def _weighted_form(gram: np.ndarray, weights: np.ndarray, owned: bool = False) -> np.ndarray:
    """``S = sqrt(W) gram sqrt(W)``, exactly Hermitian: a new array, or written over ``gram`` if ``owned``."""
    sw = np.sqrt(weights)
    # bit for bit ``sw[:, None] * gram * sw[None, :]``, with one temporary fewer
    if owned:
        gram *= sw[:, None]
        S = gram
    else:
        S = sw[:, None] * gram
    S *= sw[None, :]
    return _hermitian_part(S)


def _factor_gram(F: np.ndarray) -> np.ndarray:
    """``G = Fᴴ F``, exactly Hermitian, raising ``ValueError`` when it overflows."""
    return _hermitian_part(_finite_product(F.conj().T, F))


def _rank(lam: np.ndarray, cutoff_rel: float) -> int:
    """How many of the descending ``lam`` lie strictly above ``cutoff_rel * max(lam[0], 0)``."""
    return int(np.count_nonzero(lam > cutoff_rel * max(float(lam[0]), 0.0)))


def _with_zeros(lam: np.ndarray, n_dim: int) -> np.ndarray:
    """The r descending eigenvalues of a factor's r x r side, with the n - r zeros of ``F Fᴴ``.

    The zeros are sorted in after the positive eigenvalues.
    """
    return np.insert(lam, np.count_nonzero(lam > 0), np.zeros(n_dim - lam.size))


def _factor_eigh(factor: np.ndarray, decomposition: str, error: float = 0.0) -> EigenRoute:
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
    lam, V = np.linalg.eigh(_finite_product(R, R.conj().T))
    order = np.arange(r_dim - 1, -1, -1)
    lam = _with_zeros(lam[order], n_dim)
    lam[-1] -= error
    return EigenRoute(lam, Q @ V[:, order], decomposition, error)


def _certificate_shift(A: np.ndarray, cutoff_rel: float) -> float:
    """``c = cutoff_rel ||A||_F + 2 (r + 1) eps tr(A)``, the shift of the rank certificate."""
    r_dim = A.shape[0]
    trace = float(np.trace(A).real)
    return cutoff_rel * float(np.linalg.norm(A)) + 2 * (r_dim + 1) * np.finfo(float).eps * trace


def _certifies_full_rank(A: np.ndarray, cutoff_rel: float) -> float | None:
    """Factor ``A - c I`` over ``A`` and return ``c`` (``_certificate_shift``); None when it fails.

    Success puts every eigenvalue of ``A`` above ``cutoff_rel * lambda_max``
    even after the factorization's backward error (module docstring), and
    leaves the factor in ``A``.  A failure leaves ``A`` spoiled.
    """
    shift = _certificate_shift(A, cutoff_rel)
    if not math.isfinite(shift):
        return None
    A.flat[:: A.shape[0] + 1] -= shift
    return shift if _cholesky_in_place(A) else None


#: columns per block of ``_cholesky_in_place``: of 64 to 256, 128 was the fastest at n = 600 to
#: 2400 (2 cores, OpenBLAS)
CHOLESKY_BLOCK = 128


def _cholesky_in_place(A: np.ndarray) -> bool:
    """Whether the Hermitian ``A`` is numerically positive definite; writes its factor ``L`` over ``A``.

    A left-looking blocked Cholesky (Golub & Van Loan, *Matrix Computations*,
    §4.2).  Each block column is updated by one matrix product with the
    columns already factored, its diagonal block factored by
    ``np.linalg.cholesky`` and the panel below it solved against that
    factor; the block row right of the diagonal block is zeroed, so ``A``
    ends as the whole of ``L``.  Only the lower triangle of ``A`` and its
    diagonal blocks are read, and the largest temporary is one block column.
    A failure leaves ``A`` spoiled.
    """
    n_dim = A.shape[0]
    for j0 in range(0, n_dim, CHOLESKY_BLOCK):
        j1 = min(j0 + CHOLESKY_BLOCK, n_dim)
        if j0:
            A[j0:, j0:j1] -= A[j0:, :j0] @ A[j0:j1, :j0].conj().T
        try:
            A[j0:j1, j0:j1] = np.linalg.cholesky(A[j0:j1, j0:j1])
        except np.linalg.LinAlgError:
            return False
        # the panel P below solves P Lᴴ = A[j1:, j0:j1], as L Pᴴ = A[j1:, j0:j1]ᴴ
        A[j1:, j0:j1] = np.linalg.solve(A[j0:j1, j0:j1], A[j1:, j0:j1].conj().T).conj().T
        A[j0:j1, j1:] = 0
    return True


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


def _low_rank_eigh(S: np.ndarray) -> EigenRoute | None:
    """The ``low_rank`` route for ``S``, or None when one of its conditions fails."""
    n_dim = S.shape[0]
    L = _pivoted_cholesky(S, n_dim // 8)
    if L is None:
        return None
    # ||S - L Lᴴ||_F, summed a block of rows at a time
    Lh = L.conj().T
    gap_norms = []
    for rows in _row_slices(n_dim):
        gap = L[rows] @ Lh
        gap -= S[rows]
        gap_norms.append(np.linalg.norm(gap))
        # released before the next block is formed
        del gap
    error = float(np.linalg.norm(gap_norms))
    # the largest column norm of Lᴴ L bounds lambda_max(L Lᴴ) from below
    lam_floor = float(np.max(np.linalg.norm(Lh @ L, axis=0)))
    if not error <= n_dim * np.finfo(float).eps * lam_floor:
        return None
    return _factor_eigh(L, "low_rank", error)


def _dense_eigh(S: np.ndarray) -> EigenRoute:
    """The ``dense`` route: one ``eigh`` of the n x n form."""
    lam, U = np.linalg.eigh(S)
    # a fancy index keeps U Fortran-ordered; the solves' last digits depend on it
    order = np.arange(lam.size - 1, -1, -1)
    return EigenRoute(lam[order], U[:, order], "dense")


class KernelMatrix:
    """Hermitian matrix of kernel values over one grid.

    ``gram[i, j]`` holds ``K(p_i, p_j)``.  The matrix is symmetrized before
    it is stored, and ``hermitian_gram`` holds it with the
    pre-symmetrization defect.  Kernels compare and hash by identity.

    A kernel given ``evaluate_gram``, a callable that returns
    ``(gram, hermitian_defect)`` anew (``assemble_kernel`` gives one for a
    vectorized kernel function, and ``transform.InducedKernel`` has its
    own), releases its gram while its ``cholesky`` route holds ``S``
    (``weighted_eigh``), and keeps ``gram_diagonal``.  The next read of
    ``gram`` or ``hermitian_defect`` evaluates both again, the same bit for
    bit.  Any other kernel keeps its gram.
    """

    #: evaluates ``(gram, hermitian_defect)`` anew; None where the gram is kept
    _evaluate_gram: Callable[[], tuple[np.ndarray, float]] | None = None

    def __init__(self, grid: Grid, gram: np.ndarray, hermitian_defect: float,
                 evaluate_gram: Callable[[], tuple[np.ndarray, float]] | None = None):
        self.grid = grid
        self.hermitian_gram = gram, hermitian_defect
        if evaluate_gram is not None:
            self._evaluate_gram = evaluate_gram

    @cached_property
    def hermitian_gram(self) -> tuple[np.ndarray, float]:
        """``(gram, hermitian_defect)``: held from the start, and evaluated anew once released.

        An induced kernel forms it at the first read (``transform.InducedKernel``).
        """
        return self._evaluate_gram()

    @property
    def gram(self) -> np.ndarray:
        return self.hermitian_gram[0]

    @property
    def hermitian_defect(self) -> float:
        return self.hermitian_gram[1]

    @cached_property
    def gram_diagonal(self) -> np.ndarray:
        """``np.diag(gram)``, of the gram's dtype; kept where the gram is released."""
        return np.diag(self.gram).copy()

    def gram_product(self, x: np.ndarray) -> np.ndarray:
        """``gram @ x`` for a vector or a block of columns ``x``."""
        return self.gram @ x

    @property
    def size(self) -> int:
        return self.grid.size

    def exact_factor(self) -> np.ndarray | None:
        """An exact factor F of ``S = F Fᴴ`` with fewer columns than rows, or None."""
        return None

    @cached_property
    def weighted_eigh(self) -> EigenRoute | CholeskyRoute:
        """The route that decomposes ``S = sqrt(W) gram sqrt(W)``; chosen once, on first use.

        This is where the route is chosen (see the module docstring): the
        ``wide`` route when ``exact_factor`` supplies one, else the
        ``low_rank``, then the ``cholesky`` route, and the dense ``eigh``
        when neither applies.  The pivoted Cholesky and the Cholesky routes
        apply from ``LOW_RANK_MIN_SIZE`` on the side decomposed: r for a
        wide factor, whose thin QR runs otherwise, and n for any other kernel.
        A Cholesky route holds ``S`` (or ``G``) unfactored until its first
        read (``CholeskyRoute``).  A kernel that can evaluate its gram again
        releases it when it returns a ``cholesky`` route, whose ``reform``
        then evaluates the gram and forms ``S`` over it; the gram's diagonal
        is kept first.
        """
        factor = self.exact_factor()
        if factor is not None:
            return _factor_eigh(factor, "wide") if factor.shape[1] < LOW_RANK_MIN_SIZE else WideRoute(factor)
        weights, evaluate_gram = self.grid.weights, self._evaluate_gram
        S = _weighted_form(self.gram, weights)
        if self.size < LOW_RANK_MIN_SIZE:
            return _dense_eigh(S)
        low_rank = _low_rank_eigh(S)
        if low_rank is not None:
            return low_rank
        if evaluate_gram is None:
            return CholeskyRoute(S, partial(_weighted_form, self.gram, weights))
        # kept, so the readers of the diagonal alone do not evaluate the gram again
        self.gram_diagonal
        del self.hermitian_gram
        # binds the callable and the weights alone, not the kernel
        return CholeskyRoute(S, lambda: _weighted_form(evaluate_gram()[0], weights, owned=True))


class SpectralData:
    """Spectrum of the weighted symmetric form at one cutoff, and the route that solves there.

    ``route`` is ``KernelMatrix.weighted_eigh.at(cutoff_rel)``: the Cholesky
    route itself when its factor keeps every eigenvalue, else eigenpairs
    (module docstring).  ``eigenvalues`` are the route's, descending, and
    ``numerical_rank`` counts those strictly above ``cutoff``; on a Cholesky
    route whose rank the shifted Cholesky certified, neither reads them, and
    they are ``eigvalsh``'s, computed at their first read.  On the ``wide``
    routes they are the r nonzero ones with the n - r zeros of ``F Fᴴ``
    sorted in.
    """

    def __init__(self, route: EigenRoute | CholeskyRoute, cutoff_rel: float):
        self.route = route
        self._cutoff_rel = cutoff_rel
        self.numerical_rank = route.rank(cutoff_rel)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.route.eigenvalues

    @property
    def cutoff(self) -> float:
        """The absolute cutoff ``cutoff_rel * max(lambda_max, 0)``."""
        return self._cutoff_rel * max(float(self.eigenvalues[0]), 0.0)


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

    ``owned`` says no one else holds ``gram`` (the caller formed or parsed
    it): an exactly Hermitian one is then kept, and the Hermitian part of
    any other is written over it.  Otherwise the Hermitian part is one copy.
    """
    gram = as_samples(gram)
    if gram.shape != (grid.size, grid.size):
        raise ValueError(f"gram must be {grid.size}x{grid.size}, got {gram.shape}")
    if not np.all(np.isfinite(gram)):
        raise ValueError("kernel produced non-finite values")
    sym = gram if owned else gram.copy()
    if _is_hermitian(sym):
        defect = 0.0
    else:
        defect, scale = _defect_and_scale(sym)
        if scale > 0 and defect > HERMITIAN_REJECT_REL * scale:
            raise NonHermitianKernelError(defect, scale)
        _hermitian_part(sym)
    if np.iscomplexobj(sym) and not np.any(sym.imag):
        # a copy, so the kernel does not pin the complex buffer behind a strided view
        sym = np.ascontiguousarray(sym.real)
    return sym, defect


def _defect_and_scale(A: np.ndarray) -> tuple[float, float]:
    """``max |A - Aᴴ|`` and ``max |A|`` of the square ``A``, taken tile pair by tile pair.

    A maximum is exact in any order, so both equal the whole-array ones,
    with no n x n temporary.
    """
    defect = scale = 0.0
    # a difference that overflows exceeds any admissible defect
    with np.errstate(over="ignore"):
        for rows, cols in _tile_pairs(A.shape[0]):
            upper, lower = A[rows, cols], A[cols, rows]
            defect = max(defect, float(np.max(np.abs(upper - lower.conj().T))))
            scale = max(scale, float(np.max(np.abs(upper))), float(np.max(np.abs(lower))))
    return defect, scale


def kernel_from_gram(gram: np.ndarray, grid: Grid) -> KernelMatrix:
    """Wrap a raw matrix of kernel values: validate, symmetrize, record defect.

    An exactly Hermitian input is stored as a copy with defect 0, and a
    complex one with zero imaginary parts as a float64 array of its own.
    The kernel keeps its gram: nothing could evaluate it again.
    """
    return KernelMatrix(grid, *_hermitian_gram(gram, grid))


def _vectorized_gram(kfun: Callable, grid: Grid) -> tuple[np.ndarray, float] | None:
    """``_hermitian_gram`` of one vectorized call of ``kfun`` on the grid's point pairs.

    None when ``kfun`` is not vectorized.  An array of its own that the call
    returns is taken as owned: it becomes the gram, or its Hermitian part is
    written over it.
    """
    p = grid.points
    values = _evaluate_vectorized(kfun, p[:, None], p[None, :])
    if values is None:
        return None
    return _hermitian_gram(values, grid, owned=values.flags.owndata and values.flags.writeable)


def assemble_kernel(kfun: Callable, grid: Grid) -> KernelMatrix:
    """Evaluate ``kfun(p, q)`` on the grid's point pairs and build the matrix.

    ``kfun`` may be vectorized over arrays or a plain scalar function.  A
    Hermitian defect above ``HERMITIAN_REJECT_REL`` relative to the largest
    entry rejects the kernel as non-self-adjoint.  A vectorized ``kfun``
    must return a new array on each call: the kernel owns the array it
    returns, with no copy, and keeps the callable, so it can release its
    gram and evaluate it again, the same bit for bit (``KernelMatrix``).  A
    scalar function is called once per entry, and that kernel keeps its
    gram: evaluating it again would take n² Python calls.
    """
    evaluate_gram = partial(_vectorized_gram, kfun, grid)
    hermitian_gram = evaluate_gram()
    if hermitian_gram is not None:
        return KernelMatrix(grid, *hermitian_gram, evaluate_gram)
    p = grid.points
    return KernelMatrix(grid, *_hermitian_gram(_evaluate_per_entry(kfun, p[:, None], p[None, :]),
                                               grid, owned=True))


def discrete_delta_kernel(grid: Grid) -> KernelMatrix:
    """Kernel whose operator is the identity: gram = diag(1 / weights).

    This is the discrete counterpart of the delta kernel, the unique matrix
    with ``sum_j gram[i, j] w_j f_j = f_i``.
    """
    return KernelMatrix(grid, *_hermitian_gram(np.diag(1.0 / grid.weights), grid, owned=True))


#: the parameters each built-in kernel takes
BUILTIN_KERNEL_PARAMS = {
    "brownian": (), "gaussian": ("lengthscale",), "sinc": ("band",), "constant": ("value",)
}
BUILTIN_KERNEL_NAMES = tuple(BUILTIN_KERNEL_PARAMS)


def _sinc(band: float, p, q):
    """``(band / pi) * np.sinc(band (p - q) / pi)``, bit for bit, evaluated in place.

    ``np.sinc(x)`` is ``sin(y) / y`` with ``y = pi x`` and a tiny ``y`` where
    ``x = 0``, which gives 1 there; its whole-array steps would hold four
    n x n arrays at once, and these hold two.
    """
    # a scalar call gets a 0-d array, which the in-place steps can write
    y = np.asarray(p - q, dtype=float)
    y *= band
    y /= math.pi
    y[y == 0] = 1e-20
    y *= math.pi
    out = np.sin(y)
    out /= y
    out *= band / math.pi
    return out


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
        return partial(_sinc, band)
    if name == "constant":
        value = float(params.get("value", 1.0))
        return lambda p, q: np.full(np.broadcast_shapes(np.shape(p), np.shape(q)), value)
    raise ValueError(f"unknown built-in kernel {name!r}")


def spectral_data(K: KernelMatrix, cutoff_rel: float = DEFAULT_CUTOFF_REL) -> SpectralData:
    """Spectral factorization with the rank cutoff ``cutoff_rel * lambda_max``.

    On a Cholesky route whose eigenvalues are still unread, a shifted
    Cholesky may certify that the cutoff keeps all of them, and no
    ``eigvalsh`` runs (module docstring); its outcome is cached per cutoff.
    The first certificate's factor is held for ``invert``, and a solve
    through the factor replaces it by the unshifted one
    (``CholeskyRoute.drop_shift``).
    """
    if not 0 < cutoff_rel < 1:
        raise ValueError("cutoff_rel must lie in (0, 1)")
    return SpectralData(K.weighted_eigh.at(cutoff_rel), cutoff_rel)


def _kept_diagonal(K: KernelMatrix, cutoff_rel: float = DEFAULT_CUTOFF_REL) -> np.ndarray:
    """Diagonal of the weighted form restricted to the eigenpairs the cutoff keeps.

    It is ``sum_{k < rank} lam_k |U[q, k]|^2`` over the kept eigenpairs, or,
    when a Cholesky factor keeps them all, the squared row norms of the
    factor of ``S``: ``(L Lᴴ)_qq`` on the ``cholesky`` route, ``(F Fᴴ)_qq``
    on the ``wide`` one.  In exact arithmetic the two agree.  O(n rank) work.
    """
    return spectral_data(K, cutoff_rel).route.kept_diagonal(cutoff_rel)


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
    """Apply the discretized integral operator: ``gram @ (w * f)`` (``KernelMatrix.gram_product``)."""
    ensure_aligned(f, K.grid)
    return DiscreteFunction(values=K.gram_product(K.grid.weights * f.values), grid=K.grid)


#: rows per block of ``_cholesky_solve``
SOLVE_BLOCK = 64


def _cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``y`` with ``L Lᴴ y = b`` for lower-triangular ``L``: forward, then back substitution.

    Both run in blocks of ``SOLVE_BLOCK`` rows: ``np.linalg.solve`` on each
    diagonal block, after a matrix product subtracts the blocks already
    solved.  ``np.linalg.solve`` LU-factors each block it is given, so the
    blocks are kept small: that work grows with their size, while the
    products cost the same.
    """
    n_dim = L.shape[0]
    starts = range(0, n_dim, SOLVE_BLOCK)
    y = np.empty(b.shape, dtype=np.result_type(L, b))
    for r0 in starts:
        r1 = min(r0 + SOLVE_BLOCK, n_dim)
        y[r0:r1] = np.linalg.solve(L[r0:r1, r0:r1], b[r0:r1] - L[r0:r1, :r0] @ y[:r0])
    for r0 in reversed(starts):
        r1 = min(r0 + SOLVE_BLOCK, n_dim)
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
    The route that solves at the cutoff (``spectral_data``) solves
    ``S y = sqrt(W) rhs``: when the ``cholesky`` route keeps every
    eigenvalue nothing is dropped and the residuals are 0.
    """
    sw = np.sqrt(K.grid.weights)
    cols = rhs[:, None] if rhs.ndim == 1 else rhs
    x, residuals = spectral_data(K, cutoff_rel).route.solve(sw[:, None] * cols, cutoff_rel)
    if range_tol is not None and np.any(residuals > range_tol):
        raise RangeViolationError(float(residuals[np.argmax(residuals > range_tol)]), range_tol)
    x /= sw[:, None]
    if rhs.ndim == 1:
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
