"""Drazin inverse, group inverse, index and spectral idempotent.

The Drazin inverse of a square complex matrix A is the unique X with

    AX = XA,   XAX = X,   A^(k+1) X = A^k   for some k >= 0,

and the smallest such k is the index ind(A) (0 iff A is invertible).
The spectral idempotent is A^pi = I - A A^D.  When ind(A) <= 1 the
Drazin inverse is the group inverse A^#, which additionally satisfies
A A^# A = A.

Computation is by the full-rank-factorization recursion: factor
A_0 = A = B_0 C_0 with B_0 of full column rank and C_0 of full row
rank, set A_1 = C_0 B_0, factor again, and so on; then
A_j^D = B_j (A_(j+1)^D)^2 C_j.  One pivoted elimination per level
decides rank(A_j), which equals rank(A^(j+1)) (Cline, "Inverses of
rank invariant powers of a matrix", SIAM J. Numer. Anal. 5, 1968), so
the same recursion yields the index: it stops at the first level j
whose rank equals that of the level above (rank(A^0) = n), where A_j
is invertible and ind(A) = j, or at a level of rank 0, where A is
nilpotent, A^D = 0 and ind(A) = j + 1.  A call at index k makes at
most k + 1 pivoted eliminations, one per level, all through
:func:`antitri.core.rank_factorize`, whose elimination yields B_j and
C_j directly; one LAPACK ``inv`` takes the level matrix it certifies.

:func:`drazin` runs the recursion on A * 2^-e, with e the binary
exponent of max|A|, and scales the result back by 2^-e, since
(cA)^D = A^D / c.  Powers of two scale exactly, so results in the
normal float range are the unscaled recursion's value for value, and
the squares x @ x of the recursion neither underflow nor overflow at
extreme scale.  An A^D beyond the float64 range raises OverflowError.

:func:`index_of` ranks powers of A directly and stays as an
independent check of the index.

This module is the independent oracle that every closed-form block
representation in :mod:`antitri.formulas` is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    frobenius_norm,
    identity,
    matrix_power,
    rank,
    rank_factorize,
    ShapeError,
    zeros,
)
from .reports import ConditionEntry, ConditionReport


class NoGroupInverseError(ArithmeticError):
    """The matrix has Drazin index >= 2, so no group inverse exists."""

    def __init__(self, index: int):
        super().__init__(f"no group inverse: Drazin index is {index} (>= 2)")
        self.index = index


@dataclass(frozen=True)
class DrazinResult:
    """Drazin inverse A^D with index ind(A) and spectral idempotent A^pi.

    The one answer shape for both inverses: at index <= 1, ``drazin``
    is the group inverse A^#.
    """

    drazin: np.ndarray
    index: int
    idempotent: np.ndarray


def _require_square(a: np.ndarray, what: str) -> np.ndarray:
    """``a`` as an array; ShapeError unless it is a square matrix."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} requires a square matrix, got {a.shape}")
    return a


def index_of(a: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Smallest k >= 0 with rank(a^k) == rank(a^(k+1)); always <= n.

    Powers are taken of a/max|a| so the rank of every power is judged
    at one absolute scale; otherwise the noise left in a high power of
    a nilpotent-part matrix would read as full rank.
    """
    a = _require_square(a, "index_of")
    n = a.shape[0]
    if n == 0:
        return 0
    scale = float(np.max(np.abs(a)))
    if not math.isfinite(scale):  # before a / scale turns Inf into NaN
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    b = a / scale if scale > 0 else a
    prev_rank = n  # rank(a^0) = rank(I)
    power = identity(n)
    for k in range(n + 1):
        power = power @ b  # b^(k+1)
        next_rank = rank(power, tol, floor=tol)
        if next_rank == prev_rank:
            return k
        prev_rank = next_rank
    return n


def _drazin_core(a: np.ndarray, tol: float, floor: float) -> tuple[np.ndarray, int]:
    """(A^D, ind(A)) from one pass of the full-rank-factorization recursion."""
    n = a.shape[0]
    levels = []
    prev_rank = n  # rank(A^j) at level j; rank(A^0) = n
    while True:
        f = rank_factorize(a, tol, floor)  # f.rank = rank(A_j) = rank(A^(j+1))
        if f.rank == prev_rank:  # A_j is invertible and ind(A) = j
            x = np.linalg.inv(np.asarray(a, dtype=np.complex128))  # full rank certified by f
            break
        if f.rank == 0:  # A^(j+1) = 0
            return zeros(n, n), len(levels) + 1
        levels.append(f)
        prev_rank = f.rank
        a = f.right @ f.left
    index = len(levels)
    for f in reversed(levels):
        x = f.left @ (x @ x) @ f.right
    return x, index


def drazin(a: np.ndarray, tol: float = DEFAULT_TOL) -> DrazinResult:
    """Drazin inverse and index via the full-rank-factorization recursion.

    One absolute pivot floor, tol * max|a|, is fixed at the top level
    and carried through every recursion level so rank decisions stay
    mutually consistent; the nilpotent residue of the deepest level is
    then never mistaken for an invertible core.  NaN/Inf entries raise
    ValueError: they make max|a| non-finite, so one scan of a serves
    both the check and the floor.  The recursion runs on a * 2^-e, where
    max|a * 2^-e| is in [1/2, 1); OverflowError when A^D has an entry
    beyond the float64 range.
    """
    a = _require_square(a, "drazin")
    amax = float(np.abs(a).max()) if a.size else 0.0
    if not math.isfinite(amax):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    mantissa, e = math.frexp(amax)
    scaled = _times_pow2(a, -e)  # max|scaled| = mantissa in [1/2, 1), or 0
    x, k = _drazin_core(scaled, tol, tol * mantissa)
    xmax = float(np.abs(x).max()) if e < 0 and x.size else 0.0  # only scaling up can overflow
    if xmax and math.frexp(xmax)[1] - e > 1024:
        raise OverflowError(f"drazin: A^D has entries beyond the float64 range (max|A| = {amax:g})")
    ad = _times_pow2(x, -e)  # (cA)^D = A^D / c
    pi = identity(a.shape[0]) - scaled @ x
    return DrazinResult(drazin=ad, index=k, idempotent=pi)


def _times_pow2(a: np.ndarray, k: int) -> np.ndarray:
    """a * 2**k, exact wherever the result is a normal float.

    Two steps where 2**k itself lies beyond the float range (k > 1023).
    """
    if k > 1023:
        return a * math.ldexp(1.0, k - 1023) * math.ldexp(1.0, 1023)
    return a * math.ldexp(1.0, k)


def spectral_idempotent(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A^pi = I - A A^D."""
    return drazin(a, tol).idempotent


def group_inverse(a: np.ndarray, tol: float = DEFAULT_TOL) -> DrazinResult:
    """A^# = A^D as ``drazin`` of the result; raises NoGroupInverseError when ind(a) >= 2."""
    a = _require_square(a, "group_inverse")
    r = drazin(a, tol)
    if r.index > 1:
        raise NoGroupInverseError(r.index)
    return r


def verify_drazin_axioms(
    a: np.ndarray, x: np.ndarray, k: int, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Residuals of AX=XA, XAX=X and A^(k+1)X = A^k, scale-relative.

    AX and XA are formed once: the residuals are AX - XA, (XA)X - X and
    A^k (AX) - A^k.  Each is compared against tol * max(1, |a|_F) *
    max(1, |x|_F) and passes only when residual <= threshold < inf, so
    a threshold that overflowed passes nothing.
    """
    if a.shape != x.shape or a.shape[0] != a.shape[1]:
        raise ShapeError(f"axiom check needs equal square shapes, got {a.shape} and {x.shape}")
    scale = max(1.0, frobenius_norm(a)) * max(1.0, frobenius_norm(x))
    threshold = tol * scale
    ak = matrix_power(a, k)
    ax = a @ x
    xa = x @ a
    checks = [
        ("commutation", frobenius_norm(ax - xa)),
        ("inner", frobenius_norm(xa @ x - x)),
        ("eventual-power", frobenius_norm(ak @ ax - ak)),  # AX is a bounded projector
    ]
    return ConditionReport(
        tuple(
            ConditionEntry(name=name, residual=r, threshold=threshold, passed=r <= threshold < math.inf)
            for name, r in checks
        )
    )
