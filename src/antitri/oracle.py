"""Brute-force verification path for the block formulas.

The oracle assembles the 2n x 2n matrix for a pattern, treats it as an
opaque dense matrix, and Drazin/group-inverts it directly through
:mod:`antitri.geninv`.  It never consumes the block structure beyond
assembly; that independence from the formula path is its entire value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, block2x2, frobenius_norm, identity, zeros
from .geninv import DrazinResult, drazin, verify_drazin_axioms
from .formulas import BlockPair, BlockResult, GroupFormulaBlocks, InverseKind, NoGroupInverse, Pattern
from .reports import ConditionReport

COMPARE_TOL = 1e-8  # looser than the computation tolerance: series terms compound rounding


@dataclass(frozen=True)
class ComparisonVerdict:
    relative_error: float | None  # None, like axioms, for a NoGroupInverse
    passed: bool
    oracle_index: int
    axioms: ConditionReport | None


def assemble(pair: BlockPair) -> np.ndarray:
    """Dense 2n x 2n matrix for the pair's pattern; identity blocks are exact."""
    n = pair.E.shape[0]
    i, z = identity(n), zeros(n, n)
    if pair.pattern is Pattern.EI_F0:
        return block2x2(pair.E, i, pair.F, z)
    if pair.pattern is Pattern.EF_I0:
        return block2x2(pair.E, pair.F, i, z)
    return block2x2(pair.E, pair.F, pair.F, z)


def oracle_inverse(pair: BlockPair, tol: float = DEFAULT_TOL) -> DrazinResult:
    """Direct Drazin inverse of the assembled matrix; at index <= 1 it is the group inverse."""
    return drazin(assemble(pair), tol)


def check_compare_tol(tol: float, name: str = "compare tol") -> None:
    """ValueError unless 0 <= tol < inf: 0 asks for an exact match; inf or NaN passes all or none."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {tol}")


def compare(
    formula: BlockResult | GroupFormulaBlocks | NoGroupInverse,
    pair: BlockPair,
    tol: float = COMPARE_TOL,
    compute_tol: float = DEFAULT_TOL,
) -> ComparisonVerdict:
    """The oracle's verdict on one formula outcome, from one ``drazin`` of M.

    A NoGroupInverse passes iff ind(M) >= 2; it has no blocks, so its
    ``relative_error`` and ``axioms`` are None.  Blocks X pass when the
    relative Frobenius error ||X - M^D|| / ||M^D|| is at most ``tol``,
    and a group-kind answer only if also ind(M) <= 1.  The error is
    unclamped, so a small M^D is judged on its own scale (absolute error
    only when M^D = 0).  X is also re-verified against the Drazin axioms
    for the assembled matrix (at the oracle's index).  ValueError for a
    tol outside [0, inf) (see :func:`check_compare_tol`) or blocks of
    another pattern or shape.
    """
    check_compare_tol(tol)
    m = assemble(pair)
    oracle = drazin(m, compute_tol)
    if isinstance(formula, NoGroupInverse):
        return ComparisonVerdict(None, oracle.index >= 2, oracle.index, None)
    if formula.pattern is not pair.pattern:
        raise ValueError(f"pattern mismatch: formula {formula.pattern} vs pair {pair.pattern}")
    assembled = formula.assemble()
    if assembled.shape != m.shape:
        raise ValueError(f"shape mismatch: formula {assembled.shape} vs assembled {m.shape}")
    rel = frobenius_norm(assembled - oracle.drazin) / (frobenius_norm(oracle.drazin) or 1.0)
    return ComparisonVerdict(
        relative_error=rel,
        passed=rel <= tol and (formula.kind is not InverseKind.GROUP or oracle.index <= 1),
        oracle_index=oracle.index,
        axioms=verify_drazin_axioms(m, assembled, oracle.index, compute_tol),
    )


def oracle_has_group_inverse(pair: BlockPair, tol: float = DEFAULT_TOL) -> tuple[bool, int]:
    """(index <= 1, index) for the assembled matrix, the index read off ``drazin``."""
    k = drazin(assemble(pair), tol).index
    return k <= 1, k
