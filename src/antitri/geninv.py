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
nilpotent, A^D = 0 and ind(A) = j + 1.  Each level runs one pivoted
elimination through :func:`antitri.core.rank_factorize`, which yields
B_j and C_j directly, and LAPACK ``inv`` takes the level matrix that
the elimination certifies of full rank.

Below the top level, :func:`antitri.core.certified_inverse` is asked
first.  It takes LAPACK ``inv`` of the r x r level matrix A_j and keeps
it when r * cut * |A_j^-1|_F * INVERSE_MARGIN < 1, with cut the
elimination's own.  The same test with the pivot floor, which no cut
is below, runs first, so an attempt that it refuses skips the scan for
max|A_j|.  Each complete-pivoting pivot of an invertible
matrix is at least 1 / (r |A_j^-1|_F) (Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed., ch. 9), so the elimination would
have found full rank and led to the same ``inv`` of the same matrix:
the index, A^D and A^pi are unchanged bit for bit, and the margin of
1e4 covers the rounding of both computations.  Otherwise the
elimination decides.  The top level is not tried: A there is the
caller's matrix, singular whenever ind(A) >= 1, and on the formulas'
blocks the wasted ``inv`` cost more than the saved elimination: trying
it too made ``drazin`` of the sweep's F blocks 1.09x the time without
the certificate, against 0.92x below the top only.  So a call at index
k makes at most k + 1 eliminations, k when the core is certified or A
is nilpotent, and at most k + 1 LAPACK ``inv`` calls: one attempt at
each level below the top, and one more when an elimination certifies
the core.

:func:`drazin` runs the recursion on A * 2^-e, with e the binary
exponent of max|A|, and scales the result back by 2^-e, since
(cA)^D = A^D / c.  Powers of two scale exactly, so results in the
normal float range are the unscaled recursion's value for value, and
the squares x @ x of the recursion neither underflow nor overflow at
extreme scale.  An A^D beyond the float64 range raises OverflowError,
as does one that overflowed inside the recursion to NaN or Inf.
A^pi = I - (A * 2^-e)(A^D * 2^e) is formed from that scaled copy and
the recursion's answer on the first read of ``idempotent``: the
formulas read it, the oracle and :func:`index_of` do not.

:func:`index_of` reads the index off that same recursion; there is no
second index algorithm.

The closed-form block representations in :mod:`antitri.formulas` and
the oracle that checks them, :mod:`antitri.oracle`, both take their
Drazin inverses from this module.  So the oracle is not independent
of it: the rank decision made here is shared by the answer and by its
judge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    certified_inverse,
    frobenius_norm,
    identity,
    matrix_power,
    rank_factorize,
    require_tol,
    ShapeError,
    square_matrix,
    zeros,
)
from .reports import ConditionEntry, ConditionReport


class NoGroupInverseError(ArithmeticError):
    """The matrix has Drazin index >= 2, so no group inverse exists."""

    def __init__(self, index: int):
        super().__init__(f"no group inverse: Drazin index is {index} (>= 2)")
        self.index = index


@dataclass(frozen=True, eq=False)
class DrazinResult:
    """Drazin inverse A^D with index ind(A) and spectral idempotent A^pi.

    The one answer shape for both inverses: at index <= 1, ``drazin``
    is the group inverse A^#.  A^pi is formed on the first read of
    ``idempotent``, by ``_idempotent``, and kept: most callers read only
    ``drazin`` or ``index``.  Equality is identity, as the array fields
    have no truth value.
    """

    drazin: np.ndarray
    index: int
    _idempotent: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def idempotent(self) -> np.ndarray:
        """A^pi = I - A A^D, formed on first read."""
        return self._idempotent()


def index_of(a: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """ind(a), the ``index`` of :func:`drazin`."""
    return drazin(square_matrix(a, "index_of"), tol).index


def _drazin_core(a: np.ndarray, tol: float, floor: float) -> tuple[np.ndarray, int]:
    """(A^D, ind(A)) from one pass of the full-rank-factorization recursion.

    At every level below the top, a LAPACK inverse that certifies itself
    (see the module docstring) ends the recursion before the level's
    elimination; it is the ``inv`` the elimination would have led to.
    """
    n = a.shape[0]
    levels = []
    prev_rank = n  # rank(A^j) at level j; rank(A^0) = n
    while True:
        x = certified_inverse(a, tol, floor) if levels else None
        if x is not None:  # A_j is invertible and ind(A) = j
            break
        f = rank_factorize(a, tol, floor)  # f.rank = rank(A_j) = rank(A^(j+1))
        if f.rank == prev_rank:  # A_j is invertible and ind(A) = j
            x = np.linalg.inv(a)  # full rank certified by f
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
    beyond the float64 range, whether the recursion's squares overflowed
    or the scale-back would.
    """
    a = square_matrix(a, "drazin")
    amax = float(np.abs(a).max()) if a.size else 0.0
    if not math.isfinite(amax):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    mantissa, e = math.frexp(amax)
    scaled = _times_pow2(a, -e)  # max|scaled| = mantissa in [1/2, 1), or 0
    x, k = _drazin_core(scaled, tol, tol * mantissa)
    xmax = float(np.abs(x).max()) if x.size else 0.0
    # the recursion's own squares may overflow, and so may the scale-back when e < 0
    if not math.isfinite(xmax) or (xmax and math.frexp(xmax)[1] - e > 1024):
        raise OverflowError(f"drazin: A^D has entries beyond the float64 range (max|A| = {amax:g})")
    ad = _times_pow2(x, -e)  # (cA)^D = A^D / c
    # scaled and x are this call's own arrays, so no later write by the caller reaches A^pi
    return DrazinResult(ad, k, lambda: identity(scaled.shape[0]) - scaled @ x)


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
    r = drazin(a, tol)
    if r.index > 1:
        raise NoGroupInverseError(r.index)
    return r


def verify_drazin_axioms(
    a: np.ndarray, x: np.ndarray, k: int, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Residuals of AX=XA, XAX=X and A^(k+1)X = A^k, scale-relative.

    AX and XA are formed once: the residuals are AX - XA, (XA)X - X and
    A^k (AX) - A^k.  The last is formed with A * 2^-e in place of A, e
    the binary exponent of |A|_F, so that A^k cannot overflow, and is
    scaled back by 2^(ke).  Powers of two scale exactly, so a residual
    in the normal range is the unscaled one value for value.  X is never
    scaled: for an X that is not A's inverse, X * 2^e could overflow
    where X itself does not.  Each residual is compared against
    tol * max(1, |a|_F) * max(1, |x|_F) and passes only when
    residual <= threshold < inf, so a threshold that overflowed passes
    nothing.  ValueError unless 0 < tol < inf.
    """
    require_tol(tol)
    a, x = square_matrix(a, "verify_drazin_axioms"), square_matrix(x, "verify_drazin_axioms")
    if a.shape != x.shape:
        raise ShapeError(f"axiom check needs equal square shapes, got {a.shape} and {x.shape}")
    norm_a = frobenius_norm(a)
    threshold = tol * (max(1.0, norm_a) * max(1.0, frobenius_norm(x)))
    e = math.frexp(norm_a)[1]  # |A * 2^-e|_F < 1, so every power of it is below 1 too
    ak = matrix_power(_times_pow2(a, -e), k)  # A^k * 2^-ke
    ax = a @ x
    xa = x @ a
    power = frobenius_norm(ak @ ax - ak)  # AX is a bounded projector
    checks = [
        ("commutation", frobenius_norm(ax - xa)),
        ("inner", frobenius_norm(xa @ x - x)),
        ("eventual-power", _times_pow2_scalar(power, k * e)),
    ]
    return ConditionReport(
        tuple(
            ConditionEntry(name=name, residual=r, threshold=threshold, passed=r <= threshold < math.inf)
            for name, r in checks
        )
    )


def _times_pow2_scalar(r: float, k: int) -> float:
    """r * 2**k, inf where that overflows."""
    try:
        return math.ldexp(r, k)
    except OverflowError:
        return math.inf
