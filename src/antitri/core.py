"""Dense complex matrix primitives.

Everything downstream (generalized inverses, block formulas, the
verification oracle) is built from the handful of operations in this
module: arithmetic, Frobenius norms, pivoted elimination for rank
decisions, and linear solves.  Matrices are plain ``numpy.ndarray``
objects with dtype ``complex128``: every entry point here or in ``geninv``
or ``formulas`` converts a square matrix through :func:`square_matrix`,
the one input boundary, and a rectangular one through :func:`matrix`, so
int input never wraps, and a complex128 array passes as itself.

Rank decisions use Gaussian elimination with complete pivoting (GECP)
and a threshold relative to the largest pivot (default ``1e-10``).
:func:`solve` and :func:`invert` pass the caller's own matrix to LAPACK
LU once it has certified full rank.  :func:`certified_inverse` runs the
other way round: LAPACK ``inv`` first, kept only when its norm proves
that the elimination would certify full rank.  No eigen/SVD anywhere.

:func:`frobenius_norm` has two paths.  In the normal range it is one
BLAS dot, s = vdot(a, a), and returns sqrt(s) when 2^-900 <= s < inf:
squares too small to be normal add at most about n * 2^-1074 to s,
which cannot show against 2^-900.  An exact zero matrix returns 0.0.
Any other s (an overflow, a sum under the floor, NaN or Inf) takes the
exact path, which sums the squares of a scaled by a power of two and
scales the root back; a NaN or infinite max|a| is returned as it is.

The elimination never swaps rows or columns.  Its work matrix W stays
in the input's order; step k takes the largest |W[i, j]| = |p| over all
of W, copies row i into row k of ``right``, writes W[:, j] / p (with 1
at row i) into column k of ``left``, subtracts their outer product,
which leaves row i exactly zero, and zeros column j.  So ``left`` and
``right`` come out of the elimination in the input's order, as the
full-rank factors.  A tie for the largest modulus goes to the first
largest entry in the input's row-major order.  ``left`` is C-contiguous
(copied when the rank is short), because ``right @ left`` rounds
differently on a strided slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-10
COMPARE_TOL = 1e-8  # the oracle's: looser than DEFAULT_TOL, as series terms compound rounding


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


def square_matrix(data, what: str) -> np.ndarray:
    """``data`` as a 2-d complex128 array; ShapeError, naming ``what``, unless it is square."""
    a = np.asarray(data, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what}: expected a square matrix, got shape {a.shape}")
    return a


def require_finite(*arrays: np.ndarray) -> None:
    """Raise ValueError when any entry of the arrays is NaN or Inf."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")


def require_tol(tol: float) -> None:
    """Raise ValueError unless 0 < tol < inf (a NaN tol fails too)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"expected a finite tol > 0, got tol={tol}")


def zeros(rows: int, cols: int | None = None) -> np.ndarray:
    return np.zeros((rows, rows if cols is None else cols), dtype=np.complex128)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def diag(*entries) -> np.ndarray:
    return np.diag(np.array(entries, dtype=np.complex128))


def frobenius_norm(a: np.ndarray) -> float:
    """sqrt(sum |a_ij|^2): one BLAS dot when it is safely in range, else prescaled.

    The fast path takes s = vdot(a, a), the unscaled sum of squares, as
    BLAS ``nrm2`` after Blue (ACM TOMS 4, 1978) does when it is safe.
    It is safe when 2^-900 <= s < inf.  s is finite only if no square
    and no partial sum overflowed.  A square that lands below the
    normal range (an entry under 2^-511) is off by at most 2^-1074
    there, or is lost whole, so n such squares move s by at most about
    n * 2^-1074.  Relative to s >= 2^-900 that is n * 2^-174, far below
    one rounding of s.  An exact zero matrix returns 0.0 at once.
    Everything else takes the prescaled path below: overflow, a sum
    under the floor, NaN and Inf, where a NaN or inf max|a| is the answer.

    The prescaled path sums the squared moduli of a * 2^-e, with e the
    binary exponent of max|a|, and scales the root back.  Powers of two
    scale exactly, so that sum neither overflows nor, for a matrix of
    tiny entries, underflows to 0.
    """
    a = np.asarray(a, dtype=np.complex128)  # an int64 vdot would wrap
    s = np.vdot(a, a).real
    if 2.0**-900 <= s < math.inf:
        return math.sqrt(s)
    if s == 0.0 and not a.any():
        return 0.0
    mag = np.abs(a)
    top = mag.max()
    if not math.isfinite(top):  # a NaN or Inf entry: the sum is NaN or inf as well
        return float(top)
    e = math.frexp(top)[1]
    np.ldexp(mag, -e, out=mag)
    np.square(mag, out=mag)
    return float(np.ldexp(math.sqrt(mag.sum()), e))


def matrix_power(a: np.ndarray, k: int) -> np.ndarray:
    """a**k with a**0 == identity; k must be a nonnegative integer."""
    a = square_matrix(a, "matrix_power")
    if k < 0:
        raise ValueError("matrix_power exponent must be nonnegative")
    result = None  # until the first power is taken: no product with the identity
    base = a.copy()
    while k:
        if k & 1:
            result = base if result is None else result @ base
        k >>= 1
        if k:
            base = base @ base
    return identity(a.shape[0]) if result is None else result


@dataclass(frozen=True)
class RankFactorization:
    """Full-rank factorization a ~ left @ right.

    ``left`` is n x r of full column rank, ``right`` is r x m of full
    row rank; ``rank`` is the numerical rank.  Rank 0 yields empty factors.
    """

    rank: int
    left: np.ndarray = field(repr=False, compare=False)
    right: np.ndarray = field(repr=False, compare=False)


def _cut(top: float, tol: float, floor: float) -> float:
    """The pivot modulus a rank decision must exceed, for a matrix whose max|a| is ``top``."""
    return max(tol * top, floor)


def _eliminate(a: np.ndarray, tol: float, floor: float = 0.0):
    """Swap-free GECP (see the module docstring): (left, right, rank) with a ~ left @ right.

    Each step pivots on the first largest |W[i, j]| in row-major order.
    The rank counts the pivots whose modulus exceeds max(tol * |largest
    pivot|, floor); the absolute ``floor`` lets callers carry one scale
    through a chain of rank decisions so that noise-level residue is
    never mistaken for rank.
    """
    w = np.array(a, dtype=np.complex128, copy=True)
    if w.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={w.ndim}")
    n, m = w.shape
    steps = min(n, m)
    left = np.zeros((n, steps), dtype=np.complex128)
    right = np.zeros((steps, m), dtype=np.complex128)
    mag = np.empty((n, m))
    outer = np.empty_like(w)
    r = 0
    for k in range(steps):
        np.abs(w, mag)
        flat = int(mag.argmax())
        piv = mag.item(flat)
        if k == 0:  # the first pivot is max|a|: NaN or Inf there would count as rank
            if not math.isfinite(piv):
                raise ValueError("matrix entries must be finite (no NaN/Inf)")
            cut = _cut(piv, tol, floor)
        if piv <= cut or piv == 0.0:
            break
        i, j = divmod(flat, m)
        r += 1
        row = right[k]
        row[:] = w[i]
        col = left[:, k]
        np.divide(w[:, j], row[j], col)
        col[i] = 1.0
        if k + 1 < steps:
            np.multiply(col[:, None], row, outer)
            w -= outer  # row i becomes exactly zero
            w[:, j] = 0.0
    if r < steps:  # a contiguous left: right @ left rounds differently on a strided slice
        left = left[:, :r].copy()
    return left, right[:r], r


INVERSE_MARGIN = 1e4  # covers the rounding of both the LAPACK inverse and the elimination


def certified_inverse(a: np.ndarray, tol: float, floor: float = 0.0) -> np.ndarray | None:
    """LAPACK ``inv(a)`` when it alone proves that :func:`_eliminate` finds a of full rank, else None.

    Each GECP pivot of an invertible r x r matrix a is the largest
    modulus of a Schur complement, whose inverse is a block of a^-1, so
    it is at least 1 / (r |a^-1|_F) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 9).  So when r * cut * |x|_F *
    INVERSE_MARGIN < 1, with cut the elimination's own, every pivot
    clears the cut and the elimination would return rank r.  None when
    LAPACK finds a singular, and when the bound is within the margin:
    then the elimination must decide.  An x with NaN or Inf entries
    fails the test.
    """
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None
    cut = _cut(float(np.abs(a).max(initial=0.0)), tol, floor)  # initial: a 0 x 0 a has no max
    return x if a.shape[0] * cut * frobenius_norm(x) * INVERSE_MARGIN < 1 else None


def rank_factorize(
    a: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0
) -> RankFactorization:
    """Full-rank factorization a ~ left @ right via pivoted elimination.

    tol must be positive and finite; rank 0 (within tolerance of the zero
    matrix) returns empty factors and the reconstruction contract is a ~ 0.
    """
    require_tol(tol)
    left, right, r = _eliminate(a, tol, floor)
    return RankFactorization(rank=r, left=left, right=right)


def rank(a: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0) -> int:
    return rank_factorize(a, tol, floor).rank


def _certified(a: np.ndarray, tol: float, floor: float) -> np.ndarray:
    """The square a, once the elimination has certified it of full rank."""
    r, n = rank_factorize(a, tol, floor).rank, a.shape[0]
    if r < n:
        raise SingularMatrixError(f"matrix is singular to tolerance {tol:g} (rank {r} < {n})")
    return a


def solve(
    a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0
) -> np.ndarray:
    """Solve a @ x = b (b 1-d or 2-d) by LAPACK LU; SingularMatrixError if a is singular to tol."""
    a, b = square_matrix(a, "solve"), np.asarray(b)
    if b.shape[0] != a.shape[0]:
        raise ShapeError(f"shape mismatch for solve: {a.shape} vs {b.shape}")
    return np.linalg.solve(_certified(a, tol, floor), b)


def invert(a: np.ndarray, tol: float = DEFAULT_TOL, floor: float = 0.0) -> np.ndarray:
    """a^-1 by LAPACK ``inv``; SingularMatrixError if a is singular to tol."""
    return np.linalg.inv(_certified(square_matrix(a, "invert"), tol, floor))


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
