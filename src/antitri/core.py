"""Dense complex matrix primitives.

Everything downstream (generalized inverses, block formulas, the
verification oracle) is built from the handful of operations in this
module: arithmetic, Frobenius norms, pivoted elimination for rank
decisions, and linear solves.  Matrices are plain ``numpy.ndarray``
objects with dtype ``complex128``; :func:`matrix` is the validating
constructor that rejects non-finite entries.

Rank decisions use Gaussian elimination with complete pivoting and a
threshold relative to the largest pivot (default ``1e-10``).  No
eigen/SVD machinery is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def zeros(rows: int, cols: int | None = None) -> np.ndarray:
    return np.zeros((rows, rows if cols is None else cols), dtype=np.complex128)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def diag(*entries) -> np.ndarray:
    return np.diag(np.array(entries, dtype=np.complex128))


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch for add: {a.shape} vs {b.shape}")
    return a + b


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"shape mismatch for mul: {a.shape} x {b.shape}")
    return a @ b


def transpose(a: np.ndarray) -> np.ndarray:
    return a.T.copy()


def conj_transpose(a: np.ndarray) -> np.ndarray:
    return a.conj().T.copy()


def frobenius_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


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


@dataclass(frozen=True)
class RankFactorization:
    """Full-rank factorization a ~ left @ right.

    ``left`` is n x r of full column rank, ``right`` is r x m of full
    row rank; ``rank`` is the numerical rank decided at
    ``tolerance_used``.  Rank 0 yields empty factors.
    """

    left: np.ndarray
    right: np.ndarray
    rank: int
    tolerance_used: float


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
    prow = np.arange(n)
    pcol = np.arange(m)
    rank = 0
    first_pivot = 0.0
    for k in range(min(n, m)):
        sub = np.abs(lu[k:, k:])
        flat = int(np.argmax(sub))
        i, j = divmod(flat, m - k)
        piv = sub[i, j]
        if k == 0:
            first_pivot = piv
        if piv <= max(tol * first_pivot, floor) or piv == 0.0:
            break
        i += k
        j += k
        if i != k:
            lu[[k, i], :] = lu[[i, k], :]
            prow[[k, i]] = prow[[i, k]]
        if j != k:
            lu[:, [k, j]] = lu[:, [j, k]]
            pcol[[k, j]] = pcol[[j, k]]
        rank += 1
        if k + 1 < n:
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, prow, pcol, rank


def rank_factorize(
    a: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0
) -> RankFactorization:
    """Full-rank factorization a ~ left @ right via pivoted elimination.

    tol must be positive; rank 0 (within tolerance of the zero matrix)
    returns empty factors and the reconstruction contract is a ~ 0.
    """
    if tol <= 0:
        raise ValueError("rank_factorize requires tol > 0")
    n, m = a.shape
    lu, prow, pcol, r = _eliminate(a, tol, floor)
    left = np.zeros((n, r), dtype=np.complex128)
    right = np.zeros((r, m), dtype=np.complex128)
    # PAQ = LU  =>  A = (P^T L)(U Q^T); undo the permutations row/col-wise.
    lower = np.tril(lu[:, :r], -1)
    lower[np.arange(min(n, r)), np.arange(min(n, r))] = 1.0
    upper = np.triu(lu[:r, :])
    left[prow, :] = lower
    right[:, pcol] = upper
    return RankFactorization(left=left, right=right, rank=r, tolerance_used=tol)


def rank(a: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0) -> int:
    return rank_factorize(a, tol, floor).rank


def solve(
    a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0
) -> np.ndarray:
    """Solve a @ x = b; raises SingularMatrixError when a is singular to tol."""
    n, m = a.shape
    if n != m:
        raise ShapeError("solve requires a square coefficient matrix")
    if b.shape[0] != n:
        raise ShapeError(f"shape mismatch for solve: {a.shape} vs {b.shape}")
    lu, prow, pcol, r = _eliminate(a, tol, floor)
    if r < n:
        raise SingularMatrixError(f"matrix is singular to tolerance {tol:g} (rank {r} < {n})")
    y = np.array(b[prow], dtype=np.complex128, copy=True)
    for k in range(n):  # forward substitution, unit lower triangle
        y[k + 1:] -= np.outer(lu[k + 1:, k], y[k])
    for k in range(n - 1, -1, -1):  # back substitution
        y[k] /= lu[k, k]
        y[:k] -= np.outer(lu[:k, k], y[k])
    x = np.zeros_like(y)
    x[pcol] = y
    return x


def invert(a: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0) -> np.ndarray:
    return solve(a, identity(a.shape[0]), tol, floor)


def block2x2(tl: np.ndarray, tr: np.ndarray, bl: np.ndarray, br: np.ndarray) -> np.ndarray:
    """Assemble [[tl, tr], [bl, br]] as one dense matrix."""
    return np.block([[tl, tr], [bl, br]])


def split2x2(m: np.ndarray, row: int, col: int):
    """Inverse of block2x2: split at the given row/column offsets."""
    return m[:row, :col], m[:row, col:], m[row:, :col], m[row:, col:]
