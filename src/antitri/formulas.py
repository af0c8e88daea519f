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
or cor42.  thm25, cor26 and thm27 take the constructive route M = P + Q,
because the printed n x n recipe of Theorem 2.5 is misprinted (see the
README's Errata): Q^d from the n x n symbols S, lam, sig, g, d, X, Y, Z
of ``_anti_triangular``, P^pi = diag(F^pi, F^pi) exactly, and only the
outer additive split in 2n x 2n, summed by Horner.  The printed displays
are pinned against these routes by the tests, not recomputed here.

Every series is truncated at a proven vanishing point (any term
containing X^i X^pi dies once i >= ind(X)); indices are computed once
and loops are capped, terms are never tested for smallness.

One call builds one ``_DrazinData`` for its (E, F): ``drazin(E)`` and
``drazin(F)`` run at most once each, on first use, and the composite
formulas hand that holder to their base formula.  Transpose duals read
the same data through (A^T)^D = (A^D)^T.  Each clause is one expression
in ``_CLAUSES``, and each formula id is one row of ``REGISTRY`` listing
the clauses that refuse the pair (HypothesisError) and those that
answer NoGroupInverse.  One judge, ``_judge``, decides every clause and
keeps its verdict on the holder; one gate, ``_gate``, walks a row.
Every formula gates its own row before it computes, composites before
handing over, and ``check_conditions`` reports the same verdicts.
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
    require_finite,
    require_tol,
    split2x2,
    zeros,
)
from .geninv import DrazinResult, drazin
from .reports import ConditionEntry


class Pattern(enum.Enum):
    EI_F0 = "EI_F0"
    EF_I0 = "EF_I0"
    EF_F0 = "EF_F0"


class InverseKind(enum.Enum):
    G_DRAZIN = "gDrazin"
    DRAZIN = "Drazin"
    GROUP = "Group"


class HypothesisError(ArithmeticError):
    """A formula's hypothesis clause ``clause`` fails; ``residuals`` holds those judged so far."""

    def __init__(self, message: str, residuals: dict[str, float], clause: str):
        super().__init__(message)
        self.residuals = residuals
        self.clause = clause


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
        require_finite(e, f)


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
    gate that refuses pays only for the data it read.  ``lam`` is the
    scalar of the EF = lam FE alternative, or None.  ``T`` is the
    holder of the transposed pair; it calls no ``drazin`` of its own but
    transposes this one's results, at the same index.  ``verdicts``
    keeps each clause :func:`_judge` decided on the pair (a transposed
    holder keeps none: its clauses are their duals, judged here).
    """

    def __init__(
        self, e: np.ndarray, f: np.ndarray, tol: float, lam: complex | None = None, transpose_of=None
    ):
        BlockPair(e, f)  # shape check
        require_tol(tol)  # a judge's threshold is tol-relative
        if lam is not None and not np.isfinite(lam):
            raise ValueError(f"lam must be finite (no NaN/Inf), got {lam!r}")
        self.e, self.f, self.tol, self.lam = e, f, tol, lam
        self._transpose_of = transpose_of
        self.verdicts: dict[str, ConditionEntry] = {}

    @cached_property
    def scale(self) -> float:
        return _hyp_scale(self.e, self.f)

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


def _transposed(r: DrazinResult) -> DrazinResult:
    return replace(r, drazin=r.drazin.T, idempotent=r.idempotent.T, source=r.source.T)


# Left-hand side of each hypothesis and existence clause.  FFpi and EEpi
# encode group invertibility: X is group invertible iff X X^pi = 0.
# EFpi is no hypothesis: the thm25 engine treats a sub-threshold E F^pi as 0.
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
    "EF-lFE": lambda d: d.e @ d.f - d.lam * (d.f @ d.e),
    "EFpi": lambda d: d.e @ d.F.idempotent,
}
_CLAUSES.update(EFE=_CLAUSES["PQP"], F2E=_CLAUSES["Q2P"])
# Products of spectral idempotents alone do not grow with E and F, so these
# are judged against tol * max(1, |E^pi|) * max(1, |F^pi|).
_IDEMPOTENT_CLAUSES = frozenset({"EpiFpi", "FpiEpi"})
# Group invertibility is decided by the index the Drazin recursion found.
_GROUP_CLAUSES = {"FFpi": lambda d: d.F.index <= 1, "EEpi": lambda d: d.E.index <= 1}

# A clause on (E^T, F^T) is the transpose of its dual on (E, F).
_DUAL = {"FEFpi": "FpiEF", "EpiFpi": "FpiEpi", "EEpiFpi": "FpiEpiE"}
_DUAL.update({v: k for k, v in _DUAL.items()})


def dual_clause(name: str | None) -> str | None:
    """The transpose-dual clause name; FFpi and names without a dual map to themselves."""
    return _DUAL.get(name, name)


def _judge(d: _DrazinData, name: str) -> ConditionEntry:
    """The verdict on one clause of the pair, decided once and kept in ``d.verdicts``.

    This is the one place a residual meets a threshold.  The residual is
    the Frobenius norm of the clause's left-hand side; the threshold is
    tol * max(1, |E|_F) * max(1, |F|_F), or tol * max(1, |E^pi|_F) *
    max(1, |F^pi|_F) for the idempotent-only EpiFpi/FpiEpi.  A residual
    passes only when residual <= threshold < inf: a threshold that
    overflowed at extreme scale passes nothing.  FFpi and EEpi pass iff
    ind <= 1.  "A|B" passes when either clause does and
    reports the smaller residual.  With ``d.lam`` set, EF2-FEF becomes
    the either-or "EF-lFE|EF2-FEF".  On a transposed holder a clause is
    its dual on the original pair, judged there under the dual's name.
    """
    if d._transpose_of is not None:
        return _judge(d._transpose_of, dual_clause(name))
    if name == "EF2-FEF" and d.lam is not None:
        name = "EF-lFE|EF2-FEF"
    if name in d.verdicts:
        return d.verdicts[name]
    parts = name.split("|")
    for part in parts:
        if part in d.verdicts:
            continue
        residual = frobenius_norm(_CLAUSES[part](d))
        scale = _hyp_scale(d.E.idempotent, d.F.idempotent) if part in _IDEMPOTENT_CLAUSES else d.scale
        threshold = d.tol * scale
        passed = (
            _GROUP_CLAUSES[part](d) if part in _GROUP_CLAUSES else residual <= threshold < math.inf
        )
        d.verdicts[part] = ConditionEntry(part, residual, threshold, passed)
    if len(parts) > 1:
        best = min((d.verdicts[part] for part in parts), key=lambda v: v.residual)
        passed = any(d.verdicts[part].passed for part in parts)
        d.verdicts[name] = ConditionEntry(name, best.residual, best.threshold, passed)
    return d.verdicts[name]


def _gate(d: _DrazinData, theorem_id: str) -> NoGroupInverse | None:
    """Judge the row of ``theorem_id`` in order; None when every clause holds.

    The first failing hypothesis clause raises HypothesisError, carrying
    the residuals judged so far; failing existence clauses are answered
    together as one NoGroupInverse.
    """
    row = _LEMMAS.get(theorem_id) or REGISTRY[theorem_id]
    residuals: dict[str, float] = {}
    failed = []
    for name in row.clauses:
        entry = _judge(d, name)
        residuals[entry.name] = entry.residual
        if entry.passed:
            continue
        if name in row.hypotheses:
            raise HypothesisError(
                f"{theorem_id}: hypothesis {entry.name} fails (residual {entry.residual:.3e}, "
                f"threshold {entry.threshold:.3e})",
                residuals,
                entry.name,
            )
        failed.append(entry.name)
    return NoGroupInverse(failed=tuple(failed), residuals=residuals) if failed else None


def _transpose_dual(body, d: _DrazinData, pattern: Pattern) -> GroupFormulaBlocks:
    """The transpose of body's result on the transposed pair, as blocks of pattern.

    The caller gates its own row first: on ``d.T`` body's gate reads the same verdicts.
    """
    out = body(d.T)
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
    require_finite(c)
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
    _gate(d, "lemma22")
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
    _gate(d, "lemma24")
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
    _gate(d, "thm23")
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


def _anti_triangular(d: _DrazinData, theorem_id: str) -> BlockResult:
    """Shared engine of thm25, cor26 and thm27: E F E F^pi = F^2 E F^pi = 0.

    Splits M = P + Q along the idempotent diag(F^pi, 0): P is the
    group-invertible summand, with P^pi = diag(F^pi, F^pi) exactly, and
    Q = [[alpha + b1, F^pi], [gamma, 0]] with alpha = E F^pi,
    b1 = F^pi E F F^d and gamma = F F^pi.  Q^d comes from n x n symbols:
    with c = F^pi gamma and S = sum_{i <= m} (alpha^d)^(2i+1) c^i (by
    Horner, in the form S <- alpha^d + (alpha^d)^2 S c),

        lam = S + c (alpha^d)^2 S,       sig = alpha^d S + c (alpha^d)^3 S,
        g = c alpha^d S,                 d = c (alpha^d)^2 S,
        X = (alpha lam + g) sig + (alpha sig + d) d,
        Y = lam lam + sig g,             Z = lam sig + sig d,

    Q^d = [[(alpha lam + g) lam + (alpha sig + d) g + X b1, X F^pi],
           [gamma Y + gamma Z b1, gamma Z F^pi]].  The outer split
    M^d = Q^d P^pi + Q^pi P^d + sum_{i=1..k} Q^i Q^pi (P^d)^(i+1) is the
    one 2n x 2n step, summed by Horner as Q^d P^pi + H P^d with H = Q^pi
    taken k times through H <- Q^pi + Q H P^d.  The caps are
    m = ind(F), since c^i = F^i F^pi = 0 for i >= ind F, and
    k = ind(alpha) + 2 ind(F).
    """
    e, f = d.e, d.f
    n = e.shape[0]
    _gate(d, theorem_id)
    rf = d.F
    fd, fpi, ind_f = rf.drazin, rf.idempotent, rf.index
    ffd = f @ fd

    alpha = e @ fpi
    if _judge(d, "EFpi").passed:
        alpha = zeros(n, n)  # sub-threshold residue is an exact zero in the algebra
    ra = drazin(alpha, d.tol)
    m_cap, k_cap = ind_f, ra.index + 2 * ind_f

    ad, gamma = ra.drazin, f @ fpi
    c = fpi @ gamma  # = gamma, but without the rounding residue that a large alpha^d amplifies
    ad2 = ad @ ad
    s = ad
    for _ in range(m_cap):
        s = ad + ad2 @ s @ c
    ads = ad @ s
    g = c @ ads
    dd = c @ (ad @ ads)
    lam = s + dd
    sig = ads + c @ (ad2 @ ads)
    al, asd = alpha @ lam + g, alpha @ sig + dd
    x = al @ sig + asd @ dd
    gz = gamma @ (lam @ sig + sig @ dd)
    b1 = fpi @ e @ ffd
    qd = block2x2(
        al @ lam + asd @ g + x @ b1, x @ fpi, gamma @ (lam @ lam + sig @ g) + gz @ b1, gz @ fpi
    )

    z = zeros(n, n)
    q = block2x2(alpha + b1, fpi, gamma, z)
    pd = block2x2(z, fd, ffd, -ffd @ e @ fd)
    qpi = identity(2 * n) - q @ qd
    h = qpi
    for _ in range(k_cap):
        h = qpi + q @ h @ pd
    md = qd @ block2x2(fpi, z, z, fpi) + h @ pd
    return BlockResult(
        *split2x2(md, n, n),
        kind=REGISTRY[theorem_id].kind,
        pattern=Pattern.EI_F0,
        truncation={"k": k_cap, "m": m_cap},
    )


def thm25(e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL) -> BlockResult:
    """g-Drazin inverse of [[E, I], [F, 0]] under EFEF^pi = F^2 E F^pi = 0."""
    return _anti_triangular(_DrazinData(e, f, tol), "thm25")


def thm27(e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL) -> BlockResult:
    """Drazin inverse of [[E, I], [F, 0]] with explicit series caps.

    Identical algebra to :func:`thm25`; the caps k = ind(E F^pi) + 2 ind(F)
    and m = ind(F) are reported in ``truncation``.
    """
    return _anti_triangular(_DrazinData(e, f, tol), "thm27")


def cor26(e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL) -> BlockResult:
    """g-Drazin inverse of [[E, F], [I, 0]] via the product transfer.

    [[E,F],[I,0]]^d = [[E,I],[I,0]] ([[E,I],[F,0]]^d)^2 [[I,0],[0,F]].
    """
    base = _anti_triangular(_DrazinData(e, f, tol), "cor26")
    n = e.shape[0]
    nd = base.assemble()
    nd2 = nd @ nd
    top = e @ nd2[:n] + nd2[n:]  # the row [E, I] times (N^d)^2
    return replace(
        base, tl=top[:, :n], tr=top[:, n:] @ f, bl=nd2[:n, :n], br=nd2[:n, n:] @ f, pattern=Pattern.EF_I0
    )


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
    if no_group := _gate(d, "thm31"):
        return no_group
    e, f = d.e, d.f
    fs, fpi = d.F.drazin, d.F.idempotent  # index <= 1: Drazin inverse is the group inverse
    edfpi = d.E.drazin @ fpi
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
    d = _DrazinData(e, f, tol)
    base = _gate(d, "cor32") or _thm31(d)
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
    return _gate(d, "thm33") or _transpose_dual(_thm31, d, Pattern.EF_I0)


def cor34_group(
    e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of [[E, I], [F, 0]] under F^pi E F = 0.

    Existence as in :func:`thm33_group`; the :func:`thm33_group` result
    pushed through the similarity P = [[E, I], [I, 0]]: P^-1 [[E, F], [I, 0]]^# P.
    """
    d = _DrazinData(e, f, tol)
    base = _gate(d, "cor34") or _thm33(d)
    if isinstance(base, NoGroupInverse):
        return base
    n = e.shape[0]
    ident, z = identity(n), zeros(n, n)
    return _conjugate(base, block2x2(z, ident, ident, -e), block2x2(e, ident, ident, z), Pattern.EI_F0)


def cor35_group(
    e: np.ndarray, f: np.ndarray, lam: complex | None = None, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of [[E, F], [I, 0]] under EF = lam FE or EF^2 = FEF.

    Exists iff F has a group inverse and F^pi E^pi = 0.  Either
    commutation hypothesis reduces to F^pi E F = 0 whenever F is group
    invertible, so the computation delegates to :func:`thm33_group`.
    """
    d = _DrazinData(e, f, tol, lam)
    return _gate(d, "cor35") or _thm33(d)


def thm41_group(
    e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of the identical-subblock matrix [[E, F], [F, 0]].

    Standing requirements: F group invertible and F E F^pi = 0 (both
    enforced as errors).  The group inverse exists iff E E^pi F^pi = 0.
    Returns the printed blocks, with each product they share formed once:
    with efs = E F^#, efs2 = efs F^#, x = E^pi F^pi efs2 and
    core = E^D F^pi + x,

        Gamma  = core - E^pi F^pi core + x
        Delta  = delta - E^pi F^pi delta - x efs,  delta = F^# - core efs
        Lambda = F (core core - core efs2) + F^#
        Xi     = F core delta - (F^# - F core efs2) efs.

    The printed display itself is kept verbatim in the tests.
    """
    return _thm41(_DrazinData(e, f, tol))


def _thm41(d: _DrazinData) -> GroupFormulaBlocks | NoGroupInverse:
    if no_group := _gate(d, "thm41"):
        return no_group
    f = d.f
    fs, fpi = d.F.drazin, d.F.idempotent
    efs = d.e @ fs
    efs2 = efs @ fs
    edfpi = d.E.drazin @ fpi
    epifpi = d.E.idempotent @ fpi
    x = epifpi @ efs2
    core = edfpi + x  # recurring corner symbol
    gamma = core - epifpi @ core + x
    delta_inner = fs - core @ efs
    delta = delta_inner - epifpi @ delta_inner - x @ efs
    v = core @ efs2
    lam = f @ (core @ core - v) + fs
    xi = f @ (core @ delta_inner) - (fs - f @ v) @ efs
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
    return _gate(d, "cor42") or _transpose_dual(_thm41, d, Pattern.EF_F0)


def cor43_group(e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL) -> GroupFormulaBlocks:
    """Group inverse of [[E, F], [F, 0]] when E and F both have group inverses.

    With E group invertible, E E^pi = 0, so the existence clause of
    :func:`thm41_group` holds automatically and the same blocks apply
    with E^# in place of E^D.  Either annihilator hypothesis
    (F E F^pi = 0 or F^pi E F = 0) is accepted, and which one held is
    recorded in diagnostics.  The F^pi E F family takes the transposed
    machinery of :func:`cor42_group`; both families are certified against
    the oracle (see the sweep tests and the family arbitration test).  If
    the delegated existence clause fails all the same, E E^pi is not 0 to
    working precision, and HypothesisError names EEpi and that clause.
    """
    return _cor43(_DrazinData(e, f, tol))


def _cor43(d: _DrazinData) -> GroupFormulaBlocks:
    _gate(d, "cor43")
    fefpi, fpief = _judge(d, "FEFpi").passed, _judge(d, "FpiEF").passed
    # only the transposed machinery is sound for the F^pi E F family
    out = _thm41(d) if fefpi else _cor42(d)
    if isinstance(out, NoGroupInverse):  # E E^pi = 0 makes existence automatic, so EEpi fails
        eepi = _judge(d, "EEpi")
        raise HypothesisError(
            f"cor43: hypothesis EEpi fails (residual {eepi.residual:.3e}, threshold "
            f"{eepi.threshold:.3e}): ind E = {d.E.index}, but delegated clause "
            f"{', '.join(out.failed)} fails",
            {"EEpi": eepi.residual, **out.residuals},
            "EEpi",
        )
    family = "both" if fefpi and fpief else "FEFpi" if fefpi else "FpiEF"
    return replace(out, diagnostics={"hypothesis_family": family})


def cor44_group(
    e: np.ndarray, f: np.ndarray, lam: complex | None = None, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks:
    """Group inverse of [[E, F], [F, 0]] for group invertible commuting-type pairs.

    Requires EF = lam FE (for the supplied lam) or EF^2 = FEF; the
    hypothesis reduces to the annihilator condition of :func:`cor43_group`.
    """
    d = _DrazinData(e, f, tol, lam)
    _gate(d, "cor44")
    return _cor43(d)


# ---------------------------------------------------------------------------
# registry and dispatch


@dataclass(frozen=True)
class _Formula:
    """One formula id and the clauses its gate judges, in order.

    A failing clause of ``hypotheses`` refuses the pair (HypothesisError);
    failing clauses of ``existence_clauses`` answer NoGroupInverse.
    Clauses that need no Drazin datum come first, so a refusal computes
    no Drazin inverse it does not read.  ``body`` is the formula's
    function of (E, F, tol), or of (E, F, lam, tol) for the formulas
    whose hypotheses include the commutation clause EF2-FEF.
    """

    pattern: Pattern | None
    kind: InverseKind
    hypotheses: tuple[str, ...]
    existence_clauses: tuple[str, ...]
    body: Callable

    @property
    def clauses(self) -> tuple[str, ...]:
        """The names ``check_conditions`` reports, in gate order."""
        return self.hypotheses + self.existence_clauses

    @property
    def existence(self) -> str | None:
        """The existence clause a generated pair can break on its own, None when automatic.

        It is the last one: the generators do not break FFpi on its own.
        """
        return self.existence_clauses[-1] if self.existence_clauses else None


class _Registry(dict):
    def __missing__(self, theorem_id):
        raise KeyError(f"unknown formula id {theorem_id!r}")


_ANTI = ("EFEFpi", "F2EFpi")
REGISTRY = _Registry({
    "thm23": _Formula(Pattern.EI_F0, InverseKind.G_DRAZIN, ("EFE", "F2E"), (), thm23),
    "thm25": _Formula(Pattern.EI_F0, InverseKind.G_DRAZIN, _ANTI, (), thm25),
    "cor26": _Formula(Pattern.EF_I0, InverseKind.G_DRAZIN, _ANTI, (), cor26),
    "thm27": _Formula(Pattern.EI_F0, InverseKind.DRAZIN, _ANTI, (), thm27),
    "thm31": _Formula(Pattern.EI_F0, InverseKind.GROUP, ("FEFpi",), ("FFpi", "EpiFpi"), thm31_group),
    "cor32": _Formula(Pattern.EF_I0, InverseKind.GROUP, ("FEFpi",), ("FFpi", "EpiFpi"), cor32_group),
    "thm33": _Formula(Pattern.EF_I0, InverseKind.GROUP, ("FpiEF",), ("FFpi", "FpiEpi"), thm33_group),
    "cor34": _Formula(Pattern.EI_F0, InverseKind.GROUP, ("FpiEF",), ("FFpi", "FpiEpi"), cor34_group),
    "cor35": _Formula(Pattern.EF_I0, InverseKind.GROUP, ("EF2-FEF",), ("FFpi", "FpiEpi"), cor35_group),
    "thm41": _Formula(Pattern.EF_F0, InverseKind.GROUP, ("FFpi", "FEFpi"), ("EEpiFpi",), thm41_group),
    "cor42": _Formula(Pattern.EF_F0, InverseKind.GROUP, ("FFpi", "FpiEF"), ("FpiEpiE",), cor42_group),
    "cor43": _Formula(Pattern.EF_F0, InverseKind.GROUP, ("EEpi", "FFpi", "FEFpi|FpiEF"), (), cor43_group),
    "cor44": _Formula(Pattern.EF_F0, InverseKind.GROUP, ("EF2-FEF", "EEpi", "FFpi"), (), cor44_group),
})
# The additive lemmas gate like the formulas; they are no formula id.
_LEMMAS = {
    "lemma22": _Formula(None, InverseKind.DRAZIN, ("PQP", "Q2P"), (), lemma22_additive),
    "lemma24": _Formula(None, InverseKind.DRAZIN, ("PQ",), (), lemma24_additive),
}


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
