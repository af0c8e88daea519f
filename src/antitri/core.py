"""Dense complex matrix primitives.

Everything downstream (generalized inverses, block formulas, the
verification oracle) is built from the handful of operations in this
module: arithmetic, Frobenius norms, pivoted elimination for rank
decisions, and linear solves.  Matrices are plain ``numpy.ndarray``
objects with dtype ``complex128``; :func:`matrix` is the validating
constructor that rejects non-finite entries.

Rank decisions use Gaussian elimination with complete pivoting and a
threshold relative to the largest pivot (default ``1e-10``); solves are
LAPACK LU, run once it has certified full rank.  No eigen/SVD anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

DEFAULT_TOL = 1e-10


class ShapeError(ValueError):
    """Operands do not conform."""


class SingularMatrixError(ArithmeticError):
    """Matrix is singular to the working tolerance."""


def matrix(data) -> np.ndarray:
    """Validating constructor: any nested sequence -> complex128 ndarray.

    Rejects NaN/Inf entries and non 2-d input.  Empty (0 x k, k x 0)
    matrices are legal and behave as algebraic zeros.
    """
    a = np.array(data, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={a.ndim}")
    require_finite(a)
    return a


def require_finite(*arrays: np.ndarray) -> None:
    """Raise ValueError when any entry of the arrays is NaN or Inf."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")


def zeros(rows: int, cols: int | None = None) -> np.ndarray:
    return np.zeros((rows, rows if cols is None else cols), dtype=np.complex128)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def diag(*entries) -> np.ndarray:
    return np.diag(np.array(entries, dtype=np.complex128))


def frobenius_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return math.sqrt((np.abs(a) ** 2).sum())


def matrix_power(a: np.ndarray, k: int) -> np.ndarray:
    """a**k with a**0 == identity; k must be a nonnegative integer."""
    if a.shape[0] != a.shape[1]:
        raise ShapeError("matrix_power requires a square matrix")
    if k < 0:
        raise ValueError("matrix_power exponent must be nonnegative")
    result = identity(a.shape[0])
    base = a.copy()
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


@lru_cache(maxsize=256)
def _below(n: int, m: int) -> np.ndarray:
    """np.tri(n, m, -1, dtype=bool), kept: the mask np.tril and np.triu rebuild on every call."""
    mask = np.tri(n, m, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class RankFactorization:
    """Full-rank factorization a ~ left @ right.

    ``left`` is n x r of full column rank, ``right`` is r x m of full
    row rank; ``rank`` is the numerical rank decided at
    ``tolerance_used``.  Rank 0 yields empty factors.  Only the pivoted
    elimination that decided the rank is kept: ``left`` and ``right``
    are built from it on first read, so a caller that needs only the
    rank or :meth:`inverse` never builds them.
    """

    rank: int
    tolerance_used: float
    _elimination: tuple = field(repr=False, compare=False)  # (lu, prow, pcol)
    _matrix: np.ndarray = field(repr=False, compare=False)  # private copy of a

    @cached_property
    def left(self) -> np.ndarray:
        # PAQ = LU  =>  A = (P^T L)(U Q^T); undo the row permutation.
        lu, prow, _ = self._elimination
        n, r = lu.shape[0], self.rank
        lower = np.where(_below(n, r), lu[:, :r], 0)  # np.tril(lu[:, :r], -1)
        np.fill_diagonal(lower, 1.0)
        return lower[np.argsort(prow)]

    @cached_property
    def right(self) -> np.ndarray:
        lu, _, pcol = self._elimination
        r, m = self.rank, lu.shape[1]
        right = np.empty((r, m), dtype=np.complex128)
        right[:, pcol] = np.where(_below(r, m), 0, lu[:r])  # np.triu(lu[:r])
        return right

    def inverse(self) -> np.ndarray:
        """a^-1 of the factored a, bit for bit ``invert(a, tol, floor)``."""
        return self._solve(identity(self._matrix.shape[0]))

    def _solve(self, b: np.ndarray) -> np.ndarray:
        n, m = self._matrix.shape
        if n != m:
            raise ShapeError(f"solve requires a square matrix, got {self._matrix.shape}")
        if self.rank < n:
            raise SingularMatrixError(
                f"matrix is singular to tolerance {self.tolerance_used:g} (rank {self.rank} < {n})"
            )
        return np.linalg.solve(self._matrix, b)


def _eliminate(a: np.ndarray, tol: float, floor: float = 0.0):
    """Complete-pivoting Gaussian elimination.

    Returns (lu, row_perm, col_perm, rank).  ``lu`` holds the unit
    lower-triangular multipliers below the diagonal and U on/above it,
    in permuted order.  The rank is the number of pivots whose modulus
    exceeds max(tol * |largest pivot|, floor); the absolute ``floor``
    lets callers carry one scale through a chain of rank decisions so
    that noise-level residue is never mistaken for rank.
    """
    lu = np.array(a, dtype=np.complex128, copy=True)
    n, m = lu.shape
    prow = list(range(n))
    pcol = list(range(m))
    rank = 0
    for k in range(min(n, m)):
        sub = np.abs(lu[k:, k:])
        flat = int(sub.argmax())
        piv = sub.item(flat)
        if k == 0:
            cut = max(tol * piv, floor)
        if piv <= cut or piv == 0.0:
            break
        i, j = divmod(flat, m - k)
        i += k
        j += k
        if i != k:  # plain copies: fancy-index swaps build index lists and temporaries
            row = lu[k].copy()
            lu[k] = lu[i]
            lu[i] = row
            prow[k], prow[i] = prow[i], prow[k]
        if j != k:
            col = lu[:, k].copy()
            lu[:, k] = lu[:, j]
            lu[:, j] = col
            pcol[k], pcol[j] = pcol[j], pcol[k]
        rank += 1
        if k + 1 < n:
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, np.array(prow, dtype=np.intp), np.array(pcol, dtype=np.intp), rank


def rank_factorize(
    a: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0
) -> RankFactorization:
    """Full-rank factorization a ~ left @ right via pivoted elimination.

    tol must be positive and finite; rank 0 (within tolerance of the zero
    matrix) returns empty factors and the reconstruction contract is a ~ 0.
    """
    if not 0 < tol < math.inf:  # also false for NaN
        raise ValueError("rank_factorize requires a finite tol > 0")
    lu, prow, pcol, r = _eliminate(a, tol, floor)
    copy = np.array(a, dtype=np.complex128, copy=True)
    return RankFactorization(rank=r, tolerance_used=tol, _elimination=(lu, prow, pcol), _matrix=copy)


def rank(a: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0) -> int:
    return rank_factorize(a, tol, floor).rank


def solve(
    a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0
) -> np.ndarray:
    """Solve a @ x = b (b 1-d or 2-d) by LAPACK LU; SingularMatrixError if a is singular to tol."""
    if b.shape[0] != a.shape[0]:
        raise ShapeError(f"shape mismatch for solve: {a.shape} vs {b.shape}")
    return rank_factorize(a, tol, floor)._solve(b)


def invert(a: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0) -> np.ndarray:
    return solve(a, identity(a.shape[0]), tol, floor)


def block2x2(tl: np.ndarray, tr: np.ndarray, bl: np.ndarray, br: np.ndarray) -> np.ndarray:
    """Assemble [[tl, tr], [bl, br]] as one dense complex matrix."""
    (r, c), (r2, c2) = tl.shape, br.shape
    if tr.shape != (r, c2) or bl.shape != (r2, c):
        raise ShapeError(
            f"blocks do not tile: {tl.shape} {tr.shape} over {bl.shape} {br.shape}"
        )
    out = np.empty((r + r2, c + c2), dtype=np.complex128)
    out[:r, :c] = tl
    out[:r, c:] = tr
    out[r:, :c] = bl
    out[r:, c:] = br
    return out


def split2x2(m: np.ndarray, row: int, col: int):
    """Inverse of block2x2: split at the given row/column offsets."""
    return m[:row, :col], m[:row, col:], m[row:, :col], m[row:, col:]
