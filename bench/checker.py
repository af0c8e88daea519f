"""Independent correctness checker for the benchmark, in numpy only.

Nothing here imports antitri.  Answers are judged against the
defining properties of the Drazin and group inverses, with ranks
decided by singular values rather than by pivoted elimination:

* X is the Drazin inverse of A iff AX = XA, XAX = X and
  A^(k+1) X = A^k for k = dim(A), which bounds every index.  The
  power axiom alone is vacuous once A^k sinks to rounding level, so
  the checker also requires rank(X) = rank(A^ind(A)): with the first
  two axioms this pins X to the core part of A.  rank(X) is read off
  as trace(AX), since AX is then idempotent.
* A group inverse exists iff rank(A) = rank(A^2).

Every test is made on A / |A|_2 and X * |A|_2, or with thresholds
relative to |A|_2, so a verdict does not change when the inputs are
rescaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RESIDUAL_TOL = 1e-8  # relative residual of each axiom
RANK_RTOL = 1e-9  # singular values below this share of |A|_2 count as zero
POWER_FLOOR = 1e-12  # rounding level of A^k once A is scaled to unit 2-norm


@dataclass(frozen=True)
class Verdict:
    ok: bool
    why: str = ""


OK = Verdict(True)


def power_ranks(a: np.ndarray) -> list[int]:
    """rank(A^k) for k = 0, 1, ... up to the first k where it stops falling.

    range(A^(k+1)) is taken as A applied to an orthonormal basis of
    range(A^k), so rounding stays at the level of |A| instead of
    compounding over powers the way it does in A^k itself.  A singular
    value counts when it exceeds RANK_RTOL * |A|_2.
    """
    d = a.shape[0]
    cut = RANK_RTOL * (float(np.linalg.norm(a, 2)) if a.size else 0.0)
    ranks = [d]
    basis = np.eye(d, dtype=np.complex128)
    while ranks[-1] > 0:
        u, s, _ = np.linalg.svd(a @ basis, full_matrices=False)
        r = int(np.count_nonzero(s > cut))
        if r == ranks[-1]:
            break
        ranks.append(r)
        basis = u[:, :r]
    ranks.append(ranks[-1])
    return ranks


def index(a: np.ndarray) -> int:
    """Smallest k with rank(A^k) = rank(A^(k+1))."""
    return len(power_ranks(a)) - 2


def has_group_inverse(a: np.ndarray) -> bool:
    return index(a) <= 1


def _unit(a: np.ndarray) -> tuple[np.ndarray, float]:
    scale = float(np.linalg.norm(a, 2)) if a.size else 0.0
    return (a / scale if scale > 0 else a), scale


def check_drazin(a: np.ndarray, x: np.ndarray) -> Verdict:
    """Is x the Drazin inverse of a?"""
    if a.shape != x.shape or a.shape[0] != a.shape[1]:
        return Verdict(False, f"shape {x.shape} for a {a.shape} matrix")
    if not np.all(np.isfinite(x)):
        return Verdict(False, "non-finite entries")
    ah, scale = _unit(a)
    if scale == 0:
        return OK if not np.any(x) else Verdict(False, "nonzero answer for the zero matrix")
    xh = x * scale
    nx = float(np.linalg.norm(xh))
    d = a.shape[0]
    comm = float(np.linalg.norm(ah @ xh - xh @ ah))
    if comm > RESIDUAL_TOL * nx:
        return Verdict(False, f"AX != XA (residual {comm:.2e}, |X| {nx:.2e})")
    inner = float(np.linalg.norm(xh @ ah @ xh - xh))
    if inner > RESIDUAL_TOL * max(nx, nx * nx):
        return Verdict(False, f"XAX != X (residual {inner:.2e}, |X| {nx:.2e})")
    ak = np.linalg.matrix_power(ah, d)
    power = float(np.linalg.norm(ak @ ah @ xh - ak))
    bound = (RESIDUAL_TOL * float(np.linalg.norm(ak)) + POWER_FLOOR) * (1.0 + nx)
    if power > bound:
        return Verdict(False, f"A^(k+1)X != A^k at k={d} (residual {power:.2e} > {bound:.2e})")
    # AX is idempotent by now, so its trace is its rank, which is rank(X)
    trace = float(np.trace(ah @ xh).real)
    core_rank = power_ranks(a)[-1]
    if abs(trace - core_rank) > 0.1:
        return Verdict(False, f"rank(X) = trace(AX) = {trace:.3f} but the core rank of A is {core_rank}")
    return OK


def check_group(a: np.ndarray, x: np.ndarray) -> Verdict:
    """Is x the group inverse of a?  A group answer needs rank(A) = rank(A^2)."""
    if not has_group_inverse(a):
        return Verdict(False, "group answer for a matrix with rank(A) != rank(A^2)")
    return check_drazin(a, x)


def check_no_group(a: np.ndarray) -> Verdict:
    """Is 'no group inverse' the right answer for a?"""
    if has_group_inverse(a):
        return Verdict(False, "no-group-inverse verdict but rank(A) = rank(A^2)")
    return OK


def check_outer(a: np.ndarray, x: np.ndarray) -> Verdict:
    """AXA = A, which a group inverse satisfies and a mere Drazin inverse need not."""
    ah, scale = _unit(a)
    xh = x * scale
    r = float(np.linalg.norm(ah @ xh @ ah - ah))
    if r > RESIDUAL_TOL * max(1.0, float(np.linalg.norm(xh))):
        return Verdict(False, f"AXA != A (residual {r:.2e})")
    return OK


def check_equal(x: np.ndarray, expected: np.ndarray, tol: float) -> Verdict:
    """Relative Frobenius distance, with no clamp on the reference's norm."""
    ref = float(np.linalg.norm(expected))
    err = float(np.linalg.norm(x - expected))
    if err > tol * ref or (ref == 0 and err > 0):
        return Verdict(False, f"relative error {err / ref if ref else err:.2e} > {tol:.0e}")
    return OK


def assemble(e: np.ndarray, f: np.ndarray, pattern: str) -> np.ndarray:
    """The 2n x 2n matrix of an anti-triangular pattern, built here, not by antitri."""
    n = e.shape[0]
    i, z = np.eye(n, dtype=np.complex128), np.zeros((n, n), dtype=np.complex128)
    blocks = {
        "EI_F0": [[e, i], [f, z]],
        "EF_I0": [[e, f], [i, z]],
        "EF_F0": [[e, f], [f, z]],
    }[pattern]
    return np.block(blocks)


# Example 4.5: E = [[1, 2], [0, -1]], F = [[i, i], [0, 0]] and the group
# inverse of [[E, F], [F, 0]] as printed in the paper.
EXAMPLE_45_E = np.array([[1, 2], [0, -1]], dtype=np.complex128)
EXAMPLE_45_F = np.array([[1j, 1j], [0, 0]], dtype=np.complex128)
EXAMPLE_45_GROUP = np.array(
    [[0, 1, -1j, -1j], [0, -1, 0, 0], [-1j, -1j, 1, 1], [0, 0, 0, 0]], dtype=np.complex128
)


def check_golden(x: np.ndarray) -> Verdict:
    """The golden answer: the printed matrix, MXM = M and the group axioms."""
    m = assemble(EXAMPLE_45_E, EXAMPLE_45_F, "EF_F0")
    if x.shape != m.shape or float(np.max(np.abs(x - EXAMPLE_45_GROUP))) > 1e-12:
        return Verdict(False, "differs from the printed Example 4.5 matrix")
    for verdict in (check_outer(m, x), check_group(m, x)):
        if not verdict.ok:
            return verdict
    return OK
