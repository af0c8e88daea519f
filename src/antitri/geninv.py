"""Drazin inverse, group inverse, index and spectral idempotent.

The Drazin inverse of a square complex matrix A is the unique X with

    AX = XA,   XAX = X,   A^(k+1) X = A^k   for some k >= 0,

and the smallest such k is the index ind(A) (0 iff A is invertible).
The spectral idempotent is A^pi = I - A A^D.  When ind(A) <= 1 the
Drazin inverse is the group inverse A^#, which additionally satisfies
A A^# A = A.

Computation is by the full-rank-factorization recursion: factor
A = B C with B of full column rank and C of full row rank, recurse on
C B (strictly smaller whenever it is singular), and assemble
A^D = B ((C B)^D)^2 C.  Base cases: C B invertible -> direct inversion;
rank 0 -> A^D = 0.  Only pivoted elimination from :mod:`antitri.core`
is needed.

This module is the independent oracle that every closed-form block
representation in :mod:`antitri.formulas` is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    frobenius_norm,
    identity,
    invert,
    matrix_power,
    rank,
    rank_factorize,
    ShapeError,
    zeros,
)
from .reports import ConditionEntry, ConditionReport


class RankToleranceError(ArithmeticError):
    """Recursion depth exceeded the dimension: inconsistent rank decisions."""


class NoGroupInverseError(ArithmeticError):
    """The matrix has Drazin index >= 2, so no group inverse exists."""

    def __init__(self, index: int):
        super().__init__(f"no group inverse: Drazin index is {index} (>= 2)")
        self.index = index


@dataclass(frozen=True)
class DrazinResult:
    """Drazin inverse A^D with index, spectral idempotent and residuals.

    ``residuals`` holds the three axiom residuals (commutation, inner,
    eventual-power), scale-relative as in :func:`verify_drazin_axioms`.
    """

    drazin: np.ndarray
    index: int
    idempotent: np.ndarray
    residuals: tuple[float, float, float]


@dataclass(frozen=True)
class GroupResult:
    group: np.ndarray
    idempotent: np.ndarray


def _require_square(a: np.ndarray, what: str) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} requires a square matrix, got {a.shape}")


def index_of(a: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Smallest k >= 0 with rank(a^k) == rank(a^(k+1)); always <= n.

    Powers are taken of a/max|a| so the rank of every power is judged
    at one absolute scale; otherwise the noise left in a high power of
    a nilpotent-part matrix would read as full rank.
    """
    _require_square(a, "index_of")
    n = a.shape[0]
    if n == 0:
        return 0
    scale = float(np.max(np.abs(a)))
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


def _drazin_core(a: np.ndarray, tol: float, floor: float, depth: int, dim: int) -> np.ndarray:
    n = a.shape[0]
    if depth > dim + 1:
        raise RankToleranceError(
            "full-rank-factorization recursion exceeded the matrix dimension; "
            f"rank decisions at tol={tol:g} are inconsistent"
        )
    f = rank_factorize(a, tol, floor)
    if f.rank == 0:
        return zeros(n, n)
    cb = f.right @ f.left
    if rank(cb, tol, floor) == f.rank:
        x = invert(cb, tol, floor)
        core = x @ x
    else:
        d = _drazin_core(cb, tol, floor, depth + 1, dim)
        core = d @ d
    return f.left @ core @ f.right


def drazin(a: np.ndarray, tol: float = DEFAULT_TOL) -> DrazinResult:
    """Drazin inverse via the full-rank-factorization recursion.

    One absolute pivot floor, tol * max|a|, is fixed at the top level
    and carried through every recursion level so rank decisions stay
    mutually consistent; the nilpotent residue of the deepest level is
    then never mistaken for an invertible core.
    """
    _require_square(a, "drazin")
    floor = tol * float(np.max(np.abs(a))) if a.size else 0.0
    ad = _drazin_core(a, tol, floor, 0, a.shape[0])
    k = index_of(a, tol)
    pi = identity(a.shape[0]) - a @ ad
    report = verify_drazin_axioms(a, ad, k, tol)
    res = tuple(e.residual for e in report.entries)
    return DrazinResult(drazin=ad, index=k, idempotent=pi, residuals=res)


def spectral_idempotent(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A^pi = I - A A^D."""
    return drazin(a, tol).idempotent


def group_inverse(a: np.ndarray, tol: float = DEFAULT_TOL) -> GroupResult:
    """Group inverse A^#; raises NoGroupInverseError when ind(a) >= 2."""
    _require_square(a, "group_inverse")
    r = drazin(a, tol)
    if r.index > 1:
        raise NoGroupInverseError(r.index)
    return GroupResult(group=r.drazin, idempotent=r.idempotent)


def verify_drazin_axioms(
    a: np.ndarray, x: np.ndarray, k: int, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Residuals of AX=XA, XAX=X and A^(k+1)X = A^k, scale-relative.

    Each residual is compared against tol * max(1, |a|_F) * max(1, |x|_F).
    """
    if a.shape != x.shape or a.shape[0] != a.shape[1]:
        raise ShapeError(f"axiom check needs equal square shapes, got {a.shape} and {x.shape}")
    scale = max(1.0, frobenius_norm(a)) * max(1.0, frobenius_norm(x))
    threshold = tol * scale
    ak = matrix_power(a, k)
    checks = [
        ("commutation", frobenius_norm(a @ x - x @ a)),
        ("inner", frobenius_norm(x @ a @ x - x)),
        ("eventual-power", frobenius_norm(ak @ a @ x - ak)),
    ]
    return ConditionReport.build(
        ConditionEntry(name=name, residual=r, threshold=threshold, passed=r <= threshold)
        for name, r in checks
    )
