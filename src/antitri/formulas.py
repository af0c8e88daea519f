"""Closed-form block representations of Drazin and group inverses.

Each operation here produces the four n x n blocks of the generalized
inverse of a 2n x 2n block matrix assembled from a pair (E, F), using
only Drazin data of the *inputs* (E, F, E F^pi, ...).  None of them
ever Drazin-inverts the assembled block matrix; that brute-force route
lives in :mod:`antitri.oracle` and is kept independent on purpose.

Patterns covered:

* ``EI_F0``  --  [[E, I], [F, 0]]
* ``EF_I0``  --  [[E, F], [I, 0]]
* ``EF_F0``  --  [[E, F], [F, 0]]   (identical sub-blocks)

The g-Drazin/Drazin family (thm23, thm25, cor26, thm27) works under
annihilator hypotheses EFE = F^2 E = 0 or E F E F^pi = F^2 E F^pi = 0.
The group family (thm31 .. cor44) works under F E F^pi = 0 or
F^pi E F = 0 and returns either the four blocks or a NoGroupInverse
value reporting which existence clause failed -- "does not exist" is an
answer, not an error.

Each formula computes one route.  The base theorems (thm23, thm31,
thm41) evaluate their printed blocks; the transpose duals (thm33,
cor42) transpose their base result, the similarity corollaries (cor32,
cor34) conjugate it, and cor35, cor43, cor44 hand over to thm33, thm41
or cor42.  thm25, cor26 and thm27 take the 2n x 2n constructive route,
because the printed n x n recipe of Theorem 2.5 is misprinted (see the
README's Errata).  The printed displays are pinned against these routes
by the tests, not recomputed here.

Every series is truncated at a proven vanishing point (any term
containing X^i X^pi dies once i >= ind(X)); indices are computed once
and loops are capped, terms are never tested for smallness.

One call builds one ``_DrazinData`` for its (E, F): ``drazin(E)`` and
``drazin(F)`` run at most once each, on first use, and the composite
formulas hand that holder to their base formula.  Transpose duals read
the same data through (A^T)^D = (A^D)^T.  Each hypothesis clause is one
expression in ``_CLAUSES``, read by the formula gates and by
``check_conditions`` alike, and each formula id is one row of
``REGISTRY``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    ShapeError,
    block2x2,
    frobenius_norm,
    identity,
    matrix_power,
    split2x2,
    zeros,
)
from .geninv import DrazinResult, drazin


class Pattern(enum.Enum):
    EI_F0 = "EI_F0"
    EF_I0 = "EF_I0"
    EF_F0 = "EF_F0"


class InverseKind(enum.Enum):
    G_DRAZIN = "gDrazin"
    DRAZIN = "Drazin"
    GROUP = "Group"


class HypothesisError(ArithmeticError):
    """A formula's algebraic hypothesis fails beyond tolerance."""

    def __init__(self, message: str, residuals: dict[str, float]):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class BlockPair:
    """A pair (E, F) of equal-size square blocks plus the assembly pattern."""

    E: np.ndarray
    F: np.ndarray
    pattern: Pattern = Pattern.EI_F0

    def __post_init__(self):
        e, f = self.E, self.F
        if e.shape != f.shape or e.shape[0] != e.shape[1]:
            raise ShapeError(f"E and F must be square of equal size, got {e.shape} and {f.shape}")
        if e.size and not (np.all(np.isfinite(e)) and np.all(np.isfinite(f))):
            raise ValueError("matrix entries must be finite (no NaN/Inf)")


@dataclass(frozen=True)
class BlockResult:
    """Four blocks of a computed block inverse, with the cut-offs used.

    ``pattern`` is None for results whose source matrix is not one of
    the three anti-triangular patterns (the plain triangular split).
    """

    tl: np.ndarray
    tr: np.ndarray
    bl: np.ndarray
    br: np.ndarray
    kind: InverseKind
    pattern: Pattern | None
    truncation: dict = field(default_factory=dict)

    def assemble(self) -> np.ndarray:
        return block2x2(self.tl, self.tr, self.bl, self.br)


@dataclass(frozen=True)
class GroupFormulaBlocks:
    """Named blocks Gamma, Delta, Lambda, Xi of a group-inverse representation."""

    Gamma: np.ndarray
    Delta: np.ndarray
    Lambda: np.ndarray
    Xi: np.ndarray
    pattern: Pattern
    diagnostics: dict = field(default_factory=dict)

    kind = InverseKind.GROUP

    def assemble(self) -> np.ndarray:
        return block2x2(self.Gamma, self.Delta, self.Lambda, self.Xi)


@dataclass(frozen=True)
class NoGroupInverse:
    """Existence clause failed: the assembled matrix has no group inverse."""

    failed: tuple[str, ...]
    residuals: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# helpers


def _hyp_scale(e: np.ndarray, f: np.ndarray) -> float:
    return max(1.0, frobenius_norm(e)) * max(1.0, frobenius_norm(f))


class _DrazinData:
    """One pair (E, F) with its Drazin data, each datum computed at most once.

    ``E`` and ``F`` are the :class:`DrazinResult` of the two blocks
    (for the additive lemmas, of P and Q), computed on first use, so a
    gate that refuses pays only for the data it read.  ``T`` is the
    holder of the transposed pair; it calls no ``drazin`` of its own but
    transposes this one's results, at the same index.
    """

    def __init__(
        self, e: np.ndarray, f: np.ndarray, tol: float, transpose_of: _DrazinData | None = None
    ):
        BlockPair(e, f)  # shape check
        self.e, self.f, self.tol = e, f, tol
        self._transpose_of = transpose_of

    @cached_property
    def threshold(self) -> float:
        return self.tol * _hyp_scale(self.e, self.f)

    def clause_threshold(self, clause: str) -> float:
        """Threshold of one clause: ``threshold``, but scale-free for the idempotent-only ones."""
        if clause in _IDEMPOTENT_CLAUSES:
            return self.tol * _hyp_scale(self.E.idempotent, self.F.idempotent)
        return self.threshold

    @cached_property
    def E(self) -> DrazinResult:
        if self._transpose_of is None:
            return drazin(self.e, self.tol)
        return _transposed(self._transpose_of.E)

    @cached_property
    def F(self) -> DrazinResult:
        if self._transpose_of is None:
            return drazin(self.f, self.tol)
        return _transposed(self._transpose_of.F)

    @cached_property
    def T(self) -> _DrazinData:
        if self._transpose_of is not None:
            return self._transpose_of
        return _DrazinData(self.e.T.copy(), self.f.T.copy(), self.tol, transpose_of=self)

    def residual(self, clause: str) -> float:
        """Frobenius norm of the clause's left-hand side; "A|B" takes the smaller."""
        return min(frobenius_norm(_CLAUSES[name](self)) for name in clause.split("|"))

    def commutation(self, lam: complex | None) -> dict[str, float]:
        """Residuals of EF^2 = FEF and, when lam is supplied, of EF = lam FE."""
        residuals = {"EF2-FEF": self.residual("EF2-FEF")}
        if lam is not None:
            residuals["EF-lam.FE"] = frobenius_norm(self.e @ self.f - lam * (self.f @ self.e))
        return residuals


def _transposed(r: DrazinResult) -> DrazinResult:
    return replace(r, drazin=r.drazin.T, idempotent=r.idempotent.T, source=r.source.T)


# Left-hand side of each hypothesis and existence clause.  FFpi and EEpi
# encode group invertibility: X is group invertible iff X X^pi = 0.
_CLAUSES: dict[str, Callable[[_DrazinData], np.ndarray]] = {
    "PQ": lambda d: d.e @ d.f,
    "PQP": lambda d: d.e @ d.f @ d.e,
    "Q2P": lambda d: d.f @ d.f @ d.e,
    "EFEFpi": lambda d: d.e @ d.f @ d.e @ d.F.idempotent,
    "F2EFpi": lambda d: d.f @ d.f @ d.e @ d.F.idempotent,
    "FEFpi": lambda d: d.f @ d.e @ d.F.idempotent,
    "FpiEF": lambda d: d.F.idempotent @ d.e @ d.f,
    "EpiFpi": lambda d: d.E.idempotent @ d.F.idempotent,
    "FpiEpi": lambda d: d.F.idempotent @ d.E.idempotent,
    "EEpiFpi": lambda d: d.e @ d.E.idempotent @ d.F.idempotent,
    "FpiEpiE": lambda d: d.F.idempotent @ d.E.idempotent @ d.e,
    "FFpi": lambda d: d.f @ d.F.idempotent,
    "EEpi": lambda d: d.e @ d.E.idempotent,
    "EF2-FEF": lambda d: d.e @ d.f @ d.f - d.f @ d.e @ d.f,
}
_CLAUSES.update(EFE=_CLAUSES["PQP"], F2E=_CLAUSES["Q2P"])
# Products of spectral idempotents alone do not grow with E and F, so these
# are judged against tol * max(1, |E^pi|) * max(1, |F^pi|).
_IDEMPOTENT_CLAUSES = frozenset({"EpiFpi", "FpiEpi"})

# A clause on (E^T, F^T) is the transpose of its dual on (E, F).
_DUAL = {"FEFpi": "FpiEF", "EpiFpi": "FpiEpi", "EEpiFpi": "FpiEpiE"}
_DUAL.update({v: k for k, v in _DUAL.items()})

_LEMMA_CLAUSES = {"lemma22": ("PQP", "Q2P"), "lemma24": ("PQ",)}


def dual_clause(name: str | None) -> str | None:
    """The transpose-dual clause name; FFpi and names without a dual map to themselves."""
    return _DUAL.get(name, name)


def _check_hypotheses(d: _DrazinData, clauses: tuple[str, ...], what: str) -> None:
    residuals = {name: d.residual(name) for name in clauses}
    bad = {k: v for k, v in residuals.items() if v > d.threshold}
    if bad:
        detail = ", ".join(f"|{k}| = {v:.3e}" for k, v in bad.items())
        raise HypothesisError(
            f"{what}: hypothesis residual exceeds threshold {d.threshold:.3e} ({detail})",
            residuals,
        )


def _transpose_dual(body, d: _DrazinData, what: str, pattern: Pattern):
    """The transpose of body's result on the transposed pair, as blocks of pattern.

    Refusals are renamed to the dual clauses.
    """
    try:
        out = body(d.T)
    except HypothesisError as err:
        residuals = {dual_clause(k): v for k, v in err.residuals.items()}
        raise HypothesisError(f"{what}: {err}", residuals) from None
    if isinstance(out, NoGroupInverse):
        return NoGroupInverse(
            failed=tuple(dual_clause(name) for name in out.failed),
            residuals={dual_clause(k): v for k, v in out.residuals.items()},
        )
    return GroupFormulaBlocks(
        Gamma=out.Gamma.T, Delta=out.Lambda.T, Lambda=out.Delta.T, Xi=out.Xi.T, pattern=pattern
    )


def _vanish_count(ind: int, start: int, step: int = 2) -> int:
    """Number of i >= 0 with start + step*i < ind (terms X^(start+step*i) X^pi)."""
    return max(0, math.ceil((ind - start) / step))


# ---------------------------------------------------------------------------
# additive and triangular building blocks


def lemma21_triangular(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float = DEFAULT_TOL
) -> BlockResult:
    """Drazin inverse of the block-triangular [[A, 0], [C, B]].

    Result is [[A^D, 0], [Z, B^D]] with
    Z = sum (B^D)^(i+2) C A^i A^pi + sum B^i B^pi C (A^D)^(i+2) - B^D C A^D,
    the sums cut at ind(A) and ind(B).
    """
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ShapeError("lemma21_triangular requires square diagonal blocks")
    if c.shape != (b.shape[0], a.shape[1]):
        raise ShapeError(f"C must be {b.shape[0]} x {a.shape[1]}, got {c.shape}")
    ra = drazin(a, tol)
    rb = drazin(b, tol)
    ad, api = ra.drazin, ra.idempotent
    bd, bpi = rb.drazin, rb.idempotent
    z = -bd @ c @ ad
    for i in range(ra.index):
        z = z + matrix_power(bd, i + 2) @ c @ matrix_power(a, i) @ api
    for i in range(rb.index):
        z = z + matrix_power(b, i) @ bpi @ c @ matrix_power(ad, i + 2)
    return BlockResult(
        tl=ad,
        tr=zeros(a.shape[0], b.shape[1]),
        bl=z,
        br=bd,
        kind=InverseKind.G_DRAZIN,
        pattern=None,
        truncation={"a_terms": ra.index, "b_terms": rb.index},
    )


def lemma22_additive(p: np.ndarray, q: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(P+Q)^D under PQP = 0 and Q^2 P = 0 (checked, tolerance-relative)."""
    if p.shape != q.shape or p.shape[0] != p.shape[1]:
        raise ShapeError("lemma22_additive requires equal square shapes")
    d = _DrazinData(p, q, tol)
    _check_hypotheses(d, _LEMMA_CLAUSES["lemma22"], "additive split (PQP = Q^2 P = 0)")
    rp, rq = d.E, d.F
    pd, ppi = rp.drazin, rp.idempotent
    qd, qpi = rq.drazin, rq.idempotent
    s = p + q
    out = -s @ pd @ qd
    for i in range(rq.index):
        out = out + s @ matrix_power(pd, i + 2) @ matrix_power(q, i) @ qpi
    for i in range(max(0, rp.index - 1)):
        out = out + matrix_power(p, i + 1) @ ppi @ matrix_power(qd, i + 2)
    for i in range(rp.index):
        out = out + q @ matrix_power(p, i) @ ppi @ matrix_power(qd, i + 2)
    return out


def lemma24_additive(p: np.ndarray, q: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(P+Q)^D under PQ = 0 (checked, tolerance-relative)."""
    if p.shape != q.shape or p.shape[0] != p.shape[1]:
        raise ShapeError("lemma24_additive requires equal square shapes")
    d = _DrazinData(p, q, tol)
    _check_hypotheses(d, _LEMMA_CLAUSES["lemma24"], "additive split (PQ = 0)")
    rp, rq = d.E, d.F
    out = zeros(p.shape[0], p.shape[0])
    for i in range(rq.index):
        out = out + matrix_power(q, i) @ rq.idempotent @ matrix_power(rp.drazin, i + 1)
    for i in range(rp.index):
        out = out + matrix_power(rq.drazin, i + 1) @ matrix_power(p, i) @ rp.idempotent
    return out


def cline(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(A B)^D = A ((B A)^D)^2 B, transferring Drazin data between products."""
    if a.shape[1] != b.shape[0] or a.shape[0] != b.shape[1]:
        raise ShapeError(f"cline requires conformable A (n x m), B (m x n); got {a.shape}, {b.shape}")
    d = drazin(b @ a, tol).drazin
    return a @ d @ d @ b


# ---------------------------------------------------------------------------
# anti-triangular [[E, I], [F, 0]] : g-Drazin / Drazin family


def thm23(e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL) -> BlockResult:
    """g-Drazin inverse of [[E, I], [F, 0]] under EFE = 0 and F^2 E = 0."""
    d = _DrazinData(e, f, tol)
    _check_hypotheses(d, ("EFE", "F2E"), "anti-triangular split (EFE = F^2 E = 0)")
    re_, rf = d.E, d.F
    ed, epi, ind_e = re_.drazin, re_.idempotent, re_.index
    fd, fpi, ind_f = rf.drazin, rf.idempotent, rf.index
    n = e.shape[0]
    lead = identity(n) + f @ ed @ ed

    lam = e @ epi @ fd - f @ ed @ fd
    sig = -(e @ ed @ fd) - f @ ed @ ed @ fd
    gam = f @ epi @ fd
    delt = -f @ ed @ fd

    for i in range(ind_f):
        fi_fpi = matrix_power(f, i) @ fpi
        ed_odd = matrix_power(ed, 2 * i + 1)
        lam = lam + lead @ ed_odd @ fi_fpi
        sig = sig + lead @ ed_odd @ ed @ fi_fpi
        gam = gam + f @ ed_odd @ ed @ fi_fpi
        delt = delt + f @ ed_odd @ ed @ ed @ fi_fpi

    def _epi_terms(start: int):
        for i in range(_vanish_count(ind_e, start)):
            yield i, matrix_power(e, start + 2 * i) @ epi @ matrix_power(fd, i + 2)

    for i, t in _epi_terms(3):
        lam = lam + t
    for i, t in _epi_terms(1):
        lam = lam + f @ t
    for i, t in _epi_terms(2):
        sig = sig + t
        gam = gam + f @ t
    for i, t in _epi_terms(0):
        sig = sig + f @ t
    for i, t in _epi_terms(1):
        delt = delt + f @ t

    return BlockResult(
        tl=lam,
        tr=sig,
        bl=gam,
        br=delt,
        kind=InverseKind.G_DRAZIN,
        pattern=Pattern.EI_F0,
        truncation={"f_terms": ind_f, "ind_e": ind_e},
    )


def _q_series(alpha, beta, gamma, alpha_d, m_cap: int):
    """eps, zeta, eta, theta of Q = alpha + beta + gamma; their sum is Q^d.

    The inner series is cut after m_cap + 1 terms.
    """
    ident = identity(alpha.shape[0])
    bc = beta @ gamma
    lam = sig = gam = delt = zeros(*alpha.shape)  # rebound, never written in place
    lead = ident + bc @ alpha_d @ alpha_d
    bci = ident
    for i in range(m_cap + 1):
        ad_odd = matrix_power(alpha_d, 2 * i + 1)
        lam = lam + lead @ ad_odd @ bci
        sig = sig + lead @ ad_odd @ alpha_d @ bci
        gam = gam + bc @ ad_odd @ alpha_d @ bci
        delt = delt + bc @ ad_odd @ alpha_d @ alpha_d @ bci
        bci = bci @ bc
    eps = (alpha @ lam + gam) @ lam + (alpha @ sig + delt) @ gam
    zeta = (alpha @ lam + gam) @ sig @ beta + (alpha @ sig + delt) @ delt @ beta
    eta = gamma @ lam @ lam + gamma @ sig @ gam
    theta = gamma @ lam @ sig @ beta + gamma @ sig @ delt @ beta
    return eps, zeta, eta, theta


def _anti_triangular(d: _DrazinData, kind: InverseKind = InverseKind.G_DRAZIN) -> BlockResult:
    """Shared engine for the E F E F^pi = F^2 E F^pi = 0 representation.

    Computes the inverse along the constructive route: split M = P + Q
    by the idempotent p = diag(F^pi, 0), with P the group-invertible
    summand (closed-form inverse) and Q handled through the nilpotent
    series; then M^d = Q^d P^pi + Q^pi P^d + sum_{i>=1} Q^i Q^pi (P^d)^(i+1).
    Q is built from the n x n symbols alpha = E F^pi,
    beta = F^pi E F F^d + F^pi and gamma = F F^pi, embedded in 2n x 2n.
    """
    e, f = d.e, d.f
    n = e.shape[0]
    rf = d.F
    fd, fpi, ind_f = rf.drazin, rf.idempotent, rf.index
    _check_hypotheses(
        d, ("EFEFpi", "F2EFpi"), "anti-triangular split (EFEF^pi = F^2 E F^pi = 0)"
    )
    ffd = f @ fd

    alpha = e @ fpi
    if frobenius_norm(alpha) <= d.threshold:
        alpha = zeros(n, n)  # sub-threshold residue is an exact zero in the algebra
    ra = drazin(alpha, d.tol)

    m_cap = ind_f  # inner series cut: (F F^pi)^i = F^i F^pi = 0 for i >= ind F
    k_cap = ra.index + 2 * ind_f  # outer series cut

    z = zeros(n, n)
    al2 = block2x2(alpha, z, z, z)
    be2 = block2x2(fpi @ e @ ffd, fpi, z, z)
    ga2 = block2x2(z, z, f @ fpi, z)
    big_p = block2x2(ffd @ e, ffd, f @ ffd, z)
    big_pd = block2x2(z, fd, ffd, -ffd @ e @ fd)
    al2_d = block2x2(ra.drazin, z, z, z)
    i2 = identity(2 * n)

    eps2, zeta2, eta2, theta2 = _q_series(al2, be2, ga2, al2_d, m_cap)

    q2 = al2 + be2 + ga2
    qd2 = eps2 + zeta2 + eta2 + theta2
    qpi2 = i2 - q2 @ qd2
    ppi2 = i2 - big_p @ big_pd
    md = qd2 @ ppi2 + qpi2 @ big_pd
    qi = q2
    pd_pow = big_pd @ big_pd
    for i in range(1, k_cap + 1):
        md = md + qi @ qpi2 @ pd_pow
        qi = qi @ q2
        pd_pow = pd_pow @ big_pd

    tl, tr, bl, br = split2x2(md, n, n)
    return BlockResult(
        tl=tl,
        tr=tr,
        bl=bl,
        br=br,
        kind=kind,
        pattern=Pattern.EI_F0,
        truncation={"k": k_cap, "m": m_cap},
    )


def thm25(e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL) -> BlockResult:
    """g-Drazin inverse of [[E, I], [F, 0]] under EFEF^pi = F^2 E F^pi = 0."""
    return _anti_triangular(_DrazinData(e, f, tol))


def thm27(e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL) -> BlockResult:
    """Drazin inverse of [[E, I], [F, 0]] with explicit series caps.

    Identical algebra to :func:`thm25`; the caps k = ind(E F^pi) + 2 ind(F)
    and m = ind(F) are reported in ``truncation``.
    """
    return _anti_triangular(_DrazinData(e, f, tol), InverseKind.DRAZIN)


def cor26(e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL) -> BlockResult:
    """g-Drazin inverse of [[E, F], [I, 0]] via the product transfer.

    [[E,F],[I,0]]^d = [[E,I],[I,0]] ([[E,I],[F,0]]^d)^2 [[I,0],[0,F]].
    """
    base = _anti_triangular(_DrazinData(e, f, tol))
    n = e.shape[0]
    nd = base.assemble()
    left = block2x2(e, identity(n), identity(n), zeros(n, n))
    right = block2x2(identity(n), zeros(n, n), zeros(n, n), f)
    md = left @ nd @ nd @ right
    tl, tr, bl, br = split2x2(md, n, n)
    return replace(base, tl=tl, tr=tr, bl=bl, br=br, pattern=Pattern.EF_I0)


# ---------------------------------------------------------------------------
# group-inverse family


def _conjugate(
    base: GroupFormulaBlocks, left: np.ndarray, right: np.ndarray, pattern: Pattern
) -> GroupFormulaBlocks:
    """The base result pushed through a similarity: left X right, as blocks of pattern."""
    n = base.Gamma.shape[0]
    gamma, delta, lam, xi = split2x2(left @ base.assemble() @ right, n, n)
    return GroupFormulaBlocks(Gamma=gamma, Delta=delta, Lambda=lam, Xi=xi, pattern=pattern)


def thm31_group(
    e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of [[E, I], [F, 0]] under F E F^pi = 0.

    Exists iff F has a group inverse and E^pi F^pi = 0; the blocks are
    [[E^D F^pi, F^# + (E^D F^pi)^2 - E^D F^pi E F^#], [F F^#, -F F^# E F^#]].
    """
    return _thm31(_DrazinData(e, f, tol))


def _thm31(d: _DrazinData) -> GroupFormulaBlocks | NoGroupInverse:
    e, f = d.e, d.f
    _check_hypotheses(d, ("FEFpi",), "group split (FEF^pi = 0)")
    rf, re_ = d.F, d.E
    fd, fpi = rf.drazin, rf.idempotent
    ed = re_.drazin
    failed = []
    residuals = {"EpiFpi": d.residual("EpiFpi")}
    if rf.index > 1:
        failed.append("group_inverse(F)")
        residuals["ind(F)"] = float(rf.index)
    if residuals["EpiFpi"] > d.clause_threshold("EpiFpi"):
        failed.append("EpiFpi")
    if failed:
        return NoGroupInverse(failed=tuple(failed), residuals=residuals)
    fs = fd  # index <= 1: Drazin inverse is the group inverse
    edfpi = ed @ fpi
    gamma = edfpi
    delta = fs + edfpi @ edfpi - edfpi @ e @ fs
    lam = f @ fs
    xi = -f @ fs @ e @ fs
    return GroupFormulaBlocks(
        Gamma=gamma, Delta=delta, Lambda=lam, Xi=xi, pattern=Pattern.EI_F0
    )


def cor32_group(
    e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of [[E, F], [I, 0]] under F E F^pi = 0.

    Same existence clause as :func:`thm31_group`; the :func:`thm31_group`
    result pushed through the similarity P = [[0, I], [I, -E]]:
    P^-1 [[E, I], [F, 0]]^# P.
    """
    base = _thm31(_DrazinData(e, f, tol))
    if isinstance(base, NoGroupInverse):
        return base
    n = e.shape[0]
    ident, z = identity(n), zeros(n, n)
    return _conjugate(base, block2x2(e, ident, ident, z), block2x2(z, ident, ident, -e), Pattern.EF_I0)


def thm33_group(
    e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of [[E, F], [I, 0]] under F^pi E F = 0.

    Exists iff F has a group inverse and F^pi E^pi = 0: the transpose of
    :func:`thm31_group` on (E^T, F^T).
    """
    return _thm33(_DrazinData(e, f, tol))


def _thm33(d: _DrazinData) -> GroupFormulaBlocks | NoGroupInverse:
    return _transpose_dual(_thm31, d, "group split (F^pi E F = 0)", Pattern.EF_I0)


def cor34_group(
    e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of [[E, I], [F, 0]] under F^pi E F = 0.

    Existence as in :func:`thm33_group`; the :func:`thm33_group` result
    pushed through the similarity P = [[E, I], [I, 0]]: P^-1 [[E, F], [I, 0]]^# P.
    """
    base = _thm33(_DrazinData(e, f, tol))
    if isinstance(base, NoGroupInverse):
        return base
    n = e.shape[0]
    ident, z = identity(n), zeros(n, n)
    return _conjugate(base, block2x2(z, ident, ident, -e), block2x2(e, ident, ident, z), Pattern.EI_F0)


def _commutation_gate(d: _DrazinData, lam: complex | None, what: str) -> None:
    """Require EF = lam FE (when lam is supplied) or EF^2 = FEF."""
    residuals = d.commutation(lam)
    if min(residuals.values()) > d.threshold:
        detail = ", ".join(f"|{k}| = {v:.3e}" for k, v in residuals.items())
        raise HypothesisError(f"{what}: no commutation hypothesis holds ({detail})", residuals)


def cor35_group(
    e: np.ndarray, f: np.ndarray, lam: complex | None = None, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of [[E, F], [I, 0]] under EF = lam FE or EF^2 = FEF.

    Either commutation hypothesis reduces to F^pi E F = 0 whenever F is
    group invertible, so the computation delegates to :func:`thm33_group`.
    """
    d = _DrazinData(e, f, tol)
    _commutation_gate(d, lam, "commutation split")
    reduction = d.residual("FpiEF")
    if reduction > d.threshold:
        # reduction fails only when F itself has no group inverse
        return NoGroupInverse(
            failed=("group_inverse(F)",),
            residuals={"FpiEF": reduction, "ind(F)": float(d.F.index)},
        )
    return _thm33(d)


def thm41_group(
    e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of the identical-subblock matrix [[E, F], [F, 0]].

    Standing requirements: F group invertible and F E F^pi = 0 (both
    enforced as errors).  The group inverse exists iff E E^pi F^pi = 0.
    Returns the printed blocks.
    """
    return _thm41(_DrazinData(e, f, tol))


def _thm41(d: _DrazinData) -> GroupFormulaBlocks | NoGroupInverse:
    e, f = d.e, d.f
    n = e.shape[0]
    rf = d.F
    if rf.index > 1:
        raise HypothesisError(
            f"identical-subblock split requires a group invertible F (ind(F) = {rf.index})",
            {"ind(F)": float(rf.index)},
        )
    fs, fpi = rf.drazin, rf.idempotent
    _check_hypotheses(d, ("FEFpi",), "identical-subblock split (FEF^pi = 0)")
    re_ = d.E
    ed, epi = re_.drazin, re_.idempotent
    resid = d.residual("EEpiFpi")
    if resid > d.threshold:
        return NoGroupInverse(failed=("EEpiFpi",), residuals={"EEpiFpi": resid})

    ident = identity(n)
    fs2 = fs @ fs
    edfpi = ed @ fpi
    epifpi = epi @ fpi
    core = edfpi + epifpi @ e @ fs2  # recurring corner symbol
    gamma = (ident - epifpi) @ core + epifpi @ e @ fs2
    delta_inner = fs - epifpi @ e @ fs2 @ e @ fs - edfpi @ e @ fs
    delta = (ident - epifpi) @ delta_inner - epifpi @ e @ fs2 @ e @ fs
    lam = f @ core @ core + fs - f @ epifpi @ (e @ fs2) @ (e @ fs2) - f @ edfpi @ e @ fs2
    xi = (f @ edfpi + f @ epifpi @ e @ fs2) @ delta_inner - (
        fs - f @ epifpi @ e @ fs2 @ e @ fs2 - f @ edfpi @ e @ fs2
    ) @ e @ fs
    return GroupFormulaBlocks(Gamma=gamma, Delta=delta, Lambda=lam, Xi=xi, pattern=Pattern.EF_F0)


def cor42_group(
    e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of [[E, F], [F, 0]] under F^pi E F = 0.

    Transpose dual of :func:`thm41_group`: exists iff F^pi E^pi E = 0, and
    the blocks are the transpose of its result on (E^T, F^T).  This is the
    printed display with its two off-diagonal blocks interchanged (see the
    README's Errata).
    """
    return _cor42(_DrazinData(e, f, tol))


def _cor42(d: _DrazinData) -> GroupFormulaBlocks | NoGroupInverse:
    return _transpose_dual(_thm41, d, "identical-subblock split (F^pi E F = 0)", Pattern.EF_F0)


def cor43_group(e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL) -> GroupFormulaBlocks:
    """Group inverse of [[E, F], [F, 0]] when E and F both have group inverses.

    With E group invertible, E E^pi = 0, so the existence clause of
    :func:`thm41_group` holds automatically and the same blocks apply
    with E^# in place of E^D.  Either annihilator hypothesis
    (F E F^pi = 0 or F^pi E F = 0) is accepted, and which one held is
    recorded in diagnostics.  The F^pi E F family takes the transposed
    machinery of :func:`cor42_group`; both families are certified against
    the oracle (see the sweep tests and the family arbitration test).
    """
    return _cor43(_DrazinData(e, f, tol))


def _cor43(d: _DrazinData) -> GroupFormulaBlocks:
    threshold = d.threshold
    ind_e, ind_f = d.E.index, d.F.index
    if ind_e > 1 or ind_f > 1:
        raise HypothesisError(
            f"both blocks must be group invertible (ind(E) = {ind_e}, ind(F) = {ind_f})",
            {"ind(E)": float(ind_e), "ind(F)": float(ind_f)},
        )
    r_fefpi = d.residual("FEFpi")
    r_fpief = d.residual("FpiEF")
    if min(r_fefpi, r_fpief) > threshold:
        raise HypothesisError(
            "neither annihilator hypothesis holds "
            f"(|FEF^pi| = {r_fefpi:.3e}, |F^pi E F| = {r_fpief:.3e})",
            {"FEFpi": r_fefpi, "FpiEF": r_fpief},
        )
    family = "FEFpi" if r_fefpi <= threshold else "FpiEF"
    if r_fefpi <= threshold:
        out = _thm41(d)
    else:
        # only the transposed machinery is sound for the F^pi E F family
        out = _cor42(d)
    assert isinstance(out, GroupFormulaBlocks)  # existence is automatic: E E^pi = 0
    if r_fefpi <= threshold and r_fpief <= threshold:
        family = "both"
    return replace(out, diagnostics={"hypothesis_family": family})


def cor44_group(
    e: np.ndarray, f: np.ndarray, lam: complex | None = None, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks:
    """Group inverse of [[E, F], [F, 0]] for group invertible commuting-type pairs.

    Requires EF = lam FE (for the supplied lam) or EF^2 = FEF; the
    hypothesis reduces to the annihilator condition of :func:`cor43_group`.
    """
    d = _DrazinData(e, f, tol)
    _commutation_gate(d, lam, "commutation split")
    return _cor43(d)


# ---------------------------------------------------------------------------
# registry and dispatch


@dataclass(frozen=True)
class _Formula:
    """One formula id.

    ``clauses`` are the names ``check_conditions`` reports: annihilator
    hypotheses first, then existence clauses.  ``existence`` is the
    existence clause a generated pair can break on its own (None when
    existence is automatic).  ``body`` is the formula's function of
    (E, F, tol), or of (E, F, lam, tol) for the formulas whose
    hypotheses include the commutation clause EF2-FEF.
    """

    pattern: Pattern
    kind: InverseKind
    clauses: tuple[str, ...]
    existence: str | None
    body: Callable


class _Registry(dict):
    def __missing__(self, theorem_id):
        raise KeyError(f"unknown formula id {theorem_id!r}")


_ANTI = ("EFEFpi", "F2EFpi")
REGISTRY = _Registry({
    "thm23": _Formula(Pattern.EI_F0, InverseKind.G_DRAZIN, ("EFE", "F2E"), None, thm23),
    "thm25": _Formula(Pattern.EI_F0, InverseKind.G_DRAZIN, _ANTI, None, thm25),
    "cor26": _Formula(Pattern.EF_I0, InverseKind.G_DRAZIN, _ANTI, None, cor26),
    "thm27": _Formula(Pattern.EI_F0, InverseKind.DRAZIN, _ANTI, None, thm27),
    "thm31": _Formula(Pattern.EI_F0, InverseKind.GROUP, ("FEFpi", "FFpi", "EpiFpi"), "EpiFpi", thm31_group),
    "cor32": _Formula(Pattern.EF_I0, InverseKind.GROUP, ("FEFpi", "FFpi", "EpiFpi"), "EpiFpi", cor32_group),
    "thm33": _Formula(Pattern.EF_I0, InverseKind.GROUP, ("FpiEF", "FFpi", "FpiEpi"), "FpiEpi", thm33_group),
    "cor34": _Formula(Pattern.EI_F0, InverseKind.GROUP, ("FpiEF", "FFpi", "FpiEpi"), "FpiEpi", cor34_group),
    "cor35": _Formula(Pattern.EF_I0, InverseKind.GROUP, ("EF2-FEF", "FFpi", "FpiEpi"), "FpiEpi", cor35_group),
    "thm41": _Formula(Pattern.EF_F0, InverseKind.GROUP, ("FFpi", "FEFpi", "EEpiFpi"), "EEpiFpi", thm41_group),
    "cor42": _Formula(Pattern.EF_F0, InverseKind.GROUP, ("FFpi", "FpiEF", "FpiEpiE"), "FpiEpiE", cor42_group),
    "cor43": _Formula(Pattern.EF_F0, InverseKind.GROUP, ("EEpi", "FFpi", "FEFpi|FpiEF"), None, cor43_group),
    "cor44": _Formula(Pattern.EF_F0, InverseKind.GROUP, ("EEpi", "FFpi", "EF2-FEF"), None, cor44_group),
})


def apply_formula(
    theorem_id: str,
    e: np.ndarray,
    f: np.ndarray,
    tol: float = DEFAULT_TOL,
    lam: complex | None = None,
) -> BlockResult | GroupFormulaBlocks | NoGroupInverse:
    """Run the named block formula on (E, F).

    ``lam`` is accepted only by the ids whose hypotheses include the
    commutation clause (cor35, cor44); any other id raises ValueError.
    """
    row = REGISTRY[theorem_id]
    if "EF2-FEF" in row.clauses:  # the commutation formulas take lam
        return row.body(e, f, lam, tol)
    if lam is not None:
        raise ValueError(f"{theorem_id} takes no lam: none of its hypotheses is EF = lam FE")
    return row.body(e, f, tol)
