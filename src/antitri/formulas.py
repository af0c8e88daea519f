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

Each formula id is one row of ``REGISTRY``: pattern, inverse kind, the
clauses that refuse the pair (HypothesisError) and those that answer
NoGroupInverse, and a body of one ``_DrazinData``.  ``_run``, the one
dispatcher, gates the row, then calls the body; each public formula is
``_run`` on a fresh holder.  The base rows thm23, thm25, thm31 and thm41
evaluate their blocks.  The other rows map a base answer on the same
Drazin data.  Six call the base body itself, since their gate judged
every base clause: thm27 relabels thm25 as Drazin; cor26 and cor32 push
thm25 and thm31 through [[E, F], [I, 0]] = T^-1 [[E, I], [F, 0]] T,
T = [[0, I], [I, -E]], in n x n blocks; thm33, cor34 and cor42 transpose
thm31, cor32 and thm41 run on the plain holder of (E^T, F^T).  The
bases of cor35, cor43 and cor44 judge a clause these rows do not list,
so they re-enter ``_run``: cor35 runs thm33, cor44 runs cor43, and
cor43 runs thm41 or cor42.

thm25 takes the constructive route M = P + Q, because the printed n x n
recipe of Theorem 2.5 is misprinted (see the README's Errata): Q^d from
the n x n symbols S, lam, sig, g, d, X, Y, Z of ``_anti_triangular``,
P^pi = diag(F^pi, F^pi) exactly, and only the outer additive split in
2n x 2n, one ``_power_sum``.  The printed displays are pinned against
these routes by the tests, not recomputed here.

Every truncated series, sum_{i < k} A^i C B^i, is one call of
``_power_sum``, the one series primitive, summed by Horner.  The count k
is a proven vanishing point (any term containing X^i X^pi dies once
i >= ind(X)) read off indices computed once; terms are never tested for
smallness.

``drazin(E)`` and ``drazin(F)`` run at most once per holder, on first
use.  Each clause is one expression in ``_CLAUSES``; one judge,
``_judge``, decides every clause and keeps its verdict on the holder;
one gate, ``_gate``, walks a row, and ``check_conditions`` reports the
same verdicts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    ShapeError,
    block2x2,
    frobenius_norm,
    identity,
    matrix,
    require_finite,
    require_tol,
    split2x2,
    square_matrix,
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


def _square_pair(e, f) -> tuple[np.ndarray, np.ndarray]:  # the BlockPair contract, for _DrazinData too
    what = "E and F must be square of equal size"
    e, f = square_matrix(e, what), square_matrix(f, what)
    if e.shape != f.shape:
        raise ShapeError(f"{what}, got {e.shape} and {f.shape}")
    require_finite(e, f)
    return e, f


@dataclass(frozen=True)
class BlockPair:
    """A pair (E, F) of finite, equal-size square complex128 blocks plus the assembly pattern."""

    E: np.ndarray
    F: np.ndarray
    pattern: Pattern = Pattern.EI_F0

    def __post_init__(self):
        if not isinstance(self.pattern, Pattern):  # assemble would read any other value as EF_F0
            raise ValueError(f"pattern must be a Pattern member, got {self.pattern!r}")
        for name, block in zip("EF", _square_pair(self.E, self.F)):
            object.__setattr__(self, name, block)


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
    scalar of the EF = lam FE alternative, or None.  ``T`` is a plain
    holder of the transposed pair whose ``E`` and ``F`` are seeded with
    this one's results, transposed at the same index, so it calls no
    ``drazin`` of its own and checks neither the pair nor tol again.
    ``verdicts`` keeps each clause :func:`_judge` decided on the pair.
    """

    def __init__(self, e: np.ndarray, f: np.ndarray, tol: float, lam: complex | None = None):
        (self.e, self.f), self.tol, self.lam = _square_pair(e, f), tol, lam
        require_tol(tol)  # a judge's threshold is tol-relative
        if lam is not None and not np.isfinite(lam):
            raise ValueError(f"lam must be finite (no NaN/Inf), got {lam!r}")
        self.verdicts: dict[str, ConditionEntry] = {}

    @cached_property
    def scale(self) -> float:
        return _hyp_scale(self.e, self.f)

    @cached_property
    def E(self) -> DrazinResult:
        return drazin(self.e, self.tol)

    @cached_property
    def F(self) -> DrazinResult:
        return drazin(self.f, self.tol)

    @cached_property
    def T(self) -> _DrazinData:
        t = object.__new__(_DrazinData)  # no __init__: this pair and tol are validated already
        vars(t).update(
            e=self.e.T.copy(), f=self.f.T.copy(), tol=self.tol, lam=None, verdicts={},
            E=_transposed(self.E), F=_transposed(self.F),  # cached_property reads E and F here
        )
        return t


def _transposed(r: DrazinResult) -> DrazinResult:
    return DrazinResult(r.drazin.T, r.index, r.idempotent.T)


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
    ind <= 1.  "A|B" passes when either clause does and reports the
    smaller residual.  With ``d.lam`` set, EF2-FEF is "EF-lFE|EF2-FEF".
    """
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


def _gate(
    d: _DrazinData, name: str, hypotheses: tuple[str, ...], existence: tuple[str, ...] = ()
) -> NoGroupInverse | None:
    """Judge ``hypotheses`` then ``existence`` in order; None when every clause holds.

    The first failing hypothesis clause raises HypothesisError, carrying
    the residuals judged so far; failing existence clauses are answered
    together as one NoGroupInverse.
    """
    residuals: dict[str, float] = {}
    failed = []
    for clause in hypotheses + existence:
        entry = _judge(d, clause)
        residuals[entry.name] = entry.residual
        if entry.passed:
            continue
        if clause in hypotheses:
            raise HypothesisError(
                f"{name}: hypothesis {entry.name} fails (residual {entry.residual:.3e}, "
                f"threshold {entry.threshold:.3e})",
                residuals,
                entry.name,
            )
        failed.append(entry.name)
    return NoGroupInverse(failed=tuple(failed), residuals=residuals) if failed else None


def _run(d: _DrazinData, theorem_id: str) -> BlockResult | GroupFormulaBlocks | NoGroupInverse:
    """The one dispatcher: gate the row of ``theorem_id`` on ``d``, then compute its body."""
    row = REGISTRY[theorem_id]
    return _gate(d, theorem_id, row.hypotheses, row.existence_clauses) or row.body(d)


def _power_sum(a: np.ndarray, c: np.ndarray, b: np.ndarray, count: int) -> np.ndarray:
    """sum_{i < count} a^i c b^i: r = c, then r <- c + a r b; zeros of c's shape if count <= 0."""
    if count <= 0:
        return zeros(*c.shape)
    r = c
    for _ in range(count - 1):
        r = c + a @ r @ b
    return r


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
    a, b, c = square_matrix(a, "lemma21_triangular"), square_matrix(b, "lemma21_triangular"), matrix(c)
    if c.shape != (b.shape[0], a.shape[1]):
        raise ShapeError(f"C must be {b.shape[0]} x {a.shape[1]}, got {c.shape}")
    ra, rb = drazin(a, tol), drazin(b, tol)
    ad, bd = ra.drazin, rb.drazin
    z = (
        bd @ bd @ _power_sum(bd, c, a, ra.index) @ ra.idempotent
        + rb.idempotent @ _power_sum(b, c, ad, rb.index) @ ad @ ad
        - bd @ c @ ad
    )
    truncation = {"a_terms": ra.index, "b_terms": rb.index}
    return BlockResult(ad, zeros(a.shape[0], b.shape[1]), z, bd, InverseKind.G_DRAZIN, None, truncation)


def lemma22_additive(p: np.ndarray, q: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(P+Q)^D under PQP = 0 and Q^2 P = 0 (checked, tolerance-relative).

    The P^(i+1) P^pi and Q P^i P^pi series are one sum: P^(ind P) P^pi = 0.
    """
    d = _DrazinData(p, q, tol)  # ShapeError unless P and Q are square of equal size
    _gate(d, "lemma22", ("PQP", "Q2P"))
    pd, qd = d.E.drazin, d.F.drazin
    return (d.e + d.f) @ (
        pd @ pd @ _power_sum(pd, d.F.idempotent, d.f, d.F.index)
        + d.E.idempotent @ _power_sum(d.e, qd @ qd, qd, d.E.index)
        - pd @ qd
    )


def lemma24_additive(p: np.ndarray, q: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(P+Q)^D under PQ = 0 (checked, tolerance-relative)."""
    d = _DrazinData(p, q, tol)  # ShapeError unless P and Q are square of equal size
    _gate(d, "lemma24", ("PQ",))
    pd, qd = d.E.drazin, d.F.drazin
    return _power_sum(d.f, d.F.idempotent @ pd, pd, d.F.index) + _power_sum(
        qd, qd @ d.E.idempotent, d.e, d.E.index
    )


def cline(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(A B)^D = A ((B A)^D)^2 B, transferring Drazin data between products."""
    a, b = matrix(a), matrix(b)
    if a.shape != b.shape[::-1]:
        raise ShapeError(f"cline requires conformable A (n x m), B (m x n); got {a.shape}, {b.shape}")
    d = drazin(b @ a, tol).drazin
    return a @ d @ d @ b


# ---------------------------------------------------------------------------
# anti-triangular [[E, I], [F, 0]] : g-Drazin / Drazin family


def thm23(e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL) -> BlockResult:
    """g-Drazin inverse of [[E, I], [F, 0]] under EFE = 0 and F^2 E = 0."""
    return _run(_DrazinData(e, f, tol), "thm23")


def _thm23(d: _DrazinData) -> BlockResult:
    """Theorem 2.3's printed blocks regrouped into two series; the display is pinned in the tests.

    W = sum_{i < ind F} (E^D)^(2i+1) F^i F^pi and U = sum_{i < ind E / 2} E^(2i) E^pi (F^D)^(i+2);
    T1 = E U and T2 = E T1 shift U by E; its count covers them, as E^(ind E) E^pi = 0.  Then
    Delta = F ((E^D)^2 W + T1 - E^D F^D),  Lambda = E E^pi F^D + W + E T2 + Delta,
    Gamma = F (E^pi F^D + E^D W + T2),
    Sigma = E^D W - E E^D F^D + T2 + F ((E^D)^2 (E^D W - F^D) + U).
    """
    e, f = d.e, d.f
    ed, epi, ind_e = d.E.drazin, d.E.idempotent, d.E.index
    fd, fpi, ind_f = d.F.drazin, d.F.idempotent, d.F.index
    ed2 = ed @ ed
    w = _power_sum(ed2, ed @ fpi, f, ind_f)
    u = _power_sum(e @ e, epi @ fd @ fd, fd, (ind_e + 1) // 2)
    t1 = e @ u
    t2 = e @ t1
    edfd, edw, epifd = ed @ fd, ed @ w, epi @ fd
    delt = f @ (ed2 @ w + t1 - edfd)
    lam = e @ epifd + w + e @ t2 + delt
    sig = edw - e @ edfd + t2 + f @ (ed2 @ (edw - fd) + u)
    gam = f @ (epifd + edw + t2)
    truncation = {"f_terms": ind_f, "ind_e": ind_e}
    return BlockResult(lam, sig, gam, delt, InverseKind.G_DRAZIN, Pattern.EI_F0, truncation)


def _anti_triangular(d: _DrazinData) -> BlockResult:
    """Body of thm25, the base of cor26 and thm27: E F E F^pi = F^2 E F^pi = 0.

    Splits M = P + Q along the idempotent diag(F^pi, 0): P is the
    group-invertible summand, with P^pi = diag(F^pi, F^pi) exactly, and
    Q = [[alpha + b1, F^pi], [gamma, 0]] with alpha = E F^pi,
    b1 = F^pi E F F^d and gamma = F F^pi.  Q^d comes from n x n symbols:
    with c = F^pi gamma and S = sum_{i <= m} (alpha^d)^(2i+1) c^i (one
    ``_power_sum`` of (alpha^d)^2, alpha^d and c),

        lam = S + c (alpha^d)^2 S,       sig = alpha^d S + c (alpha^d)^3 S,
        g = c alpha^d S,                 d = c (alpha^d)^2 S,
        X = (alpha lam + g) sig + (alpha sig + d) d,
        Y = lam lam + sig g,             Z = lam sig + sig d,

    Q^d = [[(alpha lam + g) lam + (alpha sig + d) g + X b1, X F^pi],
           [gamma Y + gamma Z b1, gamma Z F^pi]].  The outer split
    M^d = Q^d P^pi + Q^pi P^d + sum_{i=1..k} Q^i Q^pi (P^d)^(i+1) is the
    one 2n x 2n step, Q^d P^pi + H P^d with
    H = sum_{i <= k} Q^i Q^pi (P^d)^i, one ``_power_sum``.  The caps are
    m = ind(F), since c^i = F^i F^pi = 0 for i >= ind F, and
    k = ind(alpha) + 2 ind(F).
    """
    e, f = d.e, d.f
    n = e.shape[0]
    fd, fpi, ind_f = d.F.drazin, d.F.idempotent, d.F.index
    ffd = f @ fd

    alpha = e @ fpi
    if _judge(d, "EFpi").passed:
        alpha = zeros(n, n)  # sub-threshold residue is an exact zero in the algebra
    ra = drazin(alpha, d.tol)
    m_cap, k_cap = ind_f, ra.index + 2 * ind_f

    ad, gamma = ra.drazin, f @ fpi
    c = fpi @ gamma  # = gamma, but without the rounding residue that a large alpha^d amplifies
    ad2 = ad @ ad
    s = _power_sum(ad2, ad, c, m_cap + 1)
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
    h = _power_sum(q, identity(2 * n) - q @ qd, pd, k_cap + 1)
    md = qd @ block2x2(fpi, z, z, fpi) + h @ pd
    truncation = {"k": k_cap, "m": m_cap}
    return BlockResult(*split2x2(md, n, n), InverseKind.G_DRAZIN, Pattern.EI_F0, truncation)


def thm25(e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL) -> BlockResult:
    """g-Drazin inverse of [[E, I], [F, 0]] under EFEF^pi = F^2 E F^pi = 0."""
    return _run(_DrazinData(e, f, tol), "thm25")


def thm27(e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL) -> BlockResult:
    """Drazin inverse of [[E, I], [F, 0]] with explicit series caps.

    Identical algebra to :func:`thm25`; the caps k = ind(E F^pi) + 2 ind(F)
    and m = ind(F) are reported in ``truncation``.
    """
    return _run(_DrazinData(e, f, tol), "thm27")


def cor26(e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL) -> BlockResult:
    """g-Drazin inverse of [[E, F], [I, 0]] under EFEF^pi = F^2 E F^pi = 0.

    The :func:`thm25` result pushed through the similarity T = [[0, I], [I, -E]]:
    T^-1 [[E, I], [F, 0]]^d T.
    """
    return _run(_DrazinData(e, f, tol), "cor26")


# ---------------------------------------------------------------------------
# maps between the answers of the three patterns


def _to_ef_i0(e, gamma, delta, lam, xi):
    """Blocks of T^-1 X T for X = [[Gamma, Delta], [Lambda, Xi]], T = [[0, I], [I, -E]].

    T^-1 = [[E, I], [I, 0]] and [[E, F], [I, 0]] = T^-1 [[E, I], [F, 0]] T, so
    this maps an answer for [[E, I], [F, 0]] to one for [[E, F], [I, 0]].
    """
    top = e @ delta + xi
    return top, e @ gamma + lam - top @ e, delta, gamma - delta @ e


# Transposing or conjugating by T swaps [[E, I], [F, 0]] and [[E, F], [I, 0]];
# [[E, F], [F, 0]] is its own transpose.
_MAPPED_PATTERN = {Pattern.EI_F0: Pattern.EF_I0, Pattern.EF_I0: Pattern.EI_F0}


def _mapped(out, blocks_map):
    """The answer ``out`` with its four blocks, its first four fields, mapped by ``blocks_map``."""
    names = [block.name for block in fields(out)[:4]]
    blocks = blocks_map(*(getattr(out, name) for name in names))
    pattern = _MAPPED_PATTERN.get(out.pattern, out.pattern)
    return replace(out, pattern=pattern, **dict(zip(names, blocks)))


def _similar(base_id: str):
    """Body of a similarity corollary: the base row's body, its answer mapped by :func:`_to_ef_i0`."""
    return lambda d: _mapped(REGISTRY[base_id].body(d), partial(_to_ef_i0, d.e))


def _dual(base_id: str):
    """Body of a transpose dual: the base row's body on the plain holder d.T, its answer transposed."""
    # X^T for X = [[Gamma, Delta], [Lambda, Xi]] is [[Gamma^T, Lambda^T], [Delta^T, Xi^T]]
    return lambda d: _mapped(REGISTRY[base_id].body(d.T), lambda g, dl, lm, x: (g.T, lm.T, dl.T, x.T))


# ---------------------------------------------------------------------------
# group-inverse family


def thm31_group(
    e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of [[E, I], [F, 0]] under F E F^pi = 0.

    Exists iff F has a group inverse and E^pi F^pi = 0; the blocks are
    [[E^D F^pi, F^# + (E^D F^pi)^2 - E^D F^pi E F^#], [F F^#, -F F^# E F^#]].
    """
    return _run(_DrazinData(e, f, tol), "thm31")


def _thm31(d: _DrazinData) -> GroupFormulaBlocks:
    e, f = d.e, d.f
    fs, fpi = d.F.drazin, d.F.idempotent  # index <= 1: Drazin inverse is the group inverse
    edfpi = d.E.drazin @ fpi
    gamma = edfpi
    delta = fs + edfpi @ edfpi - edfpi @ e @ fs
    lam = f @ fs
    xi = -f @ fs @ e @ fs
    return GroupFormulaBlocks(Gamma=gamma, Delta=delta, Lambda=lam, Xi=xi, pattern=Pattern.EI_F0)


def cor32_group(
    e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of [[E, F], [I, 0]] under F E F^pi = 0.

    Same existence clause as :func:`thm31_group`; the :func:`thm31_group`
    result pushed through the similarity T = [[0, I], [I, -E]]:
    T^-1 [[E, I], [F, 0]]^# T.
    """
    return _run(_DrazinData(e, f, tol), "cor32")


def thm33_group(
    e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of [[E, F], [I, 0]] under F^pi E F = 0.

    Exists iff F has a group inverse and F^pi E^pi = 0: the transpose of
    :func:`thm31_group` on (E^T, F^T).
    """
    return _run(_DrazinData(e, f, tol), "thm33")


def cor34_group(
    e: np.ndarray, f: np.ndarray, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of [[E, I], [F, 0]] under F^pi E F = 0.

    Existence as in :func:`thm33_group`: the transpose of
    :func:`cor32_group` on (E^T, F^T), since [[E, I], [F, 0]]^T =
    [[E^T, F^T], [I, 0]].
    """
    return _run(_DrazinData(e, f, tol), "cor34")


def cor35_group(
    e: np.ndarray, f: np.ndarray, lam: complex | None = None, tol: float = DEFAULT_TOL
) -> GroupFormulaBlocks | NoGroupInverse:
    """Group inverse of [[E, F], [I, 0]] under EF = lam FE or EF^2 = FEF.

    Exists iff F has a group inverse and F^pi E^pi = 0.  Either
    commutation hypothesis reduces to F^pi E F = 0 whenever F is group
    invertible, so the computation delegates to :func:`thm33_group`.
    """
    return _run(_DrazinData(e, f, tol, lam), "cor35")


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
    return _run(_DrazinData(e, f, tol), "thm41")


def _thm41(d: _DrazinData) -> GroupFormulaBlocks:
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
    return _run(_DrazinData(e, f, tol), "cor42")


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
    return _run(_DrazinData(e, f, tol), "cor43")


def _cor43(d: _DrazinData) -> GroupFormulaBlocks:
    fefpi, fpief = _judge(d, "FEFpi").passed, _judge(d, "FpiEF").passed
    # only the transposed machinery is sound for the F^pi E F family
    out = _run(d, "thm41" if fefpi else "cor42")
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
    return _run(_DrazinData(e, f, tol, lam), "cor44")


# ---------------------------------------------------------------------------
# registry and dispatch


@dataclass(frozen=True)
class _Formula:
    """One formula id and the clauses its gate judges, in order.

    A failing clause of ``hypotheses`` refuses the pair (HypothesisError);
    failing clauses of ``existence_clauses`` answer NoGroupInverse.
    Clauses that need no Drazin datum come first, so a refusal computes
    no Drazin inverse it does not read.  ``body`` computes the answer
    from the holder alone once :func:`_run` has gated the row: a base row
    evaluates its blocks, any other row maps the answer of its base row.
    Only cor35, cor43 and cor44 gate their base row again, via ``_run``.
    """

    pattern: Pattern
    kind: InverseKind
    hypotheses: tuple[str, ...]
    existence_clauses: tuple[str, ...]
    body: Callable[[_DrazinData], BlockResult | GroupFormulaBlocks]

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
_EXISTS, _EXISTS_T = ("FFpi", "EpiFpi"), ("FFpi", "FpiEpi")
_GROUP = InverseKind.GROUP
REGISTRY = _Registry({
    "thm23": _Formula(Pattern.EI_F0, InverseKind.G_DRAZIN, ("EFE", "F2E"), (), _thm23),
    "thm25": _Formula(Pattern.EI_F0, InverseKind.G_DRAZIN, _ANTI, (), _anti_triangular),
    "cor26": _Formula(Pattern.EF_I0, InverseKind.G_DRAZIN, _ANTI, (), _similar("thm25")),
    "thm27": _Formula(
        Pattern.EI_F0, InverseKind.DRAZIN, _ANTI, (), lambda d: replace(_anti_triangular(d), kind=InverseKind.DRAZIN)
    ),
    "thm31": _Formula(Pattern.EI_F0, _GROUP, ("FEFpi",), _EXISTS, _thm31),
    "cor32": _Formula(Pattern.EF_I0, _GROUP, ("FEFpi",), _EXISTS, _similar("thm31")),
    "thm33": _Formula(Pattern.EF_I0, _GROUP, ("FpiEF",), _EXISTS_T, _dual("thm31")),
    "cor34": _Formula(Pattern.EI_F0, _GROUP, ("FpiEF",), _EXISTS_T, _dual("cor32")),
    "cor35": _Formula(Pattern.EF_I0, _GROUP, ("EF2-FEF",), _EXISTS_T, lambda d: _run(d, "thm33")),
    "thm41": _Formula(Pattern.EF_F0, _GROUP, ("FFpi", "FEFpi"), ("EEpiFpi",), _thm41),
    "cor42": _Formula(Pattern.EF_F0, _GROUP, ("FFpi", "FpiEF"), ("FpiEpiE",), _dual("thm41")),
    "cor43": _Formula(Pattern.EF_F0, _GROUP, ("EEpi", "FFpi", "FEFpi|FpiEF"), (), _cor43),
    "cor44": _Formula(Pattern.EF_F0, _GROUP, ("EF2-FEF", "EEpi", "FFpi"), (), lambda d: _run(d, "cor43")),
})


def _holder(theorem_id: str, e: np.ndarray, f: np.ndarray, tol: float, lam: complex | None):
    """The one holder that judges and runs ``theorem_id`` on (E, F); lam as in ``apply_formula``."""
    row = REGISTRY[theorem_id]
    if lam is not None and "EF2-FEF" not in row.clauses:
        raise ValueError(f"{theorem_id} takes no lam: none of its hypotheses is EF = lam FE")
    return _DrazinData(e, f, tol, lam)


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
    return _run(_holder(theorem_id, e, f, tol, lam), theorem_id)
