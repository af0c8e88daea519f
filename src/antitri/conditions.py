"""Hypothesis checkers and seeded instance generators.

``check_conditions`` evaluates the residual of every algebraic
hypothesis (and existence clause) attached to a formula identifier and
reports pass/fail per clause.  ``generate`` manufactures (E, F) pairs
that satisfy a formula's hypotheses exactly in exact arithmetic --
realized in floating point through integer unimodular similarities --
or deliberately violate exactly one named clause.

Generation recipe: draw a unimodular integer S (product of elementary
matrices with entries in {-2..2}); set F = S diag(C, N) S^-1 with C an
invertible diagonal (moduli in [0.5, 2]) and N a direct sum of
nilpotent Jordan blocks of index <= 3; then F^pi = S diag(0, I) S^-1
and each formula's constraints on E become block-structural in the
same basis (e.g. FEF^pi = 0 forces the upper-right block of E to
vanish and N E22 = 0).  Transposed hypothesis families (F^pi E F = 0
instead of F E F^pi = 0) are generated by transposing a pair built for
the untransposed family.

Each construction helper makes one draw in a fixed order, so a recipe
names one pair bit for bit; ``test_generator_stream_is_pinned`` guards
that order, and changing it changes every generated instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import DEFAULT_TOL, block2x2, identity, matrix, zeros
from .formulas import REGISTRY, BlockPair, Pattern, _DrazinData, _judge, dual_clause
from .reports import ConditionReport


class InfeasibleRecipeError(ValueError):
    """The requested violation is structurally forced to be impossible."""


PATTERN_FOR = {theorem_id: row.pattern for theorem_id, row in REGISTRY.items()}
THEOREM_IDS = tuple(PATTERN_FOR)


def check_conditions(
    e: np.ndarray,
    f: np.ndarray,
    theorem_id: str,
    tol: float = DEFAULT_TOL,
    lam: complex | None = None,
) -> ConditionReport:
    """One entry per clause of the named formula, in the order its gate judges them.

    Each entry is the verdict of the clause judge the formula's own gate
    reads, so the two never disagree.  Residual = Frobenius norm of the
    clause's left-hand side; threshold = tol * max(1, |E|_F) * max(1, |F|_F),
    or tol * max(1, |E^pi|_F) * max(1, |F^pi|_F) for the idempotent-only
    EpiFpi/FpiEpi.  FFpi/EEpi (X X^pi = 0) pass iff ind <= 1.  A supplied
    lam makes the commutation clause the either-or "EF-lFE|EF2-FEF"; an
    either-or clause reports the smaller residual.
    """
    names = REGISTRY[theorem_id].clauses
    d = _DrazinData(e, f, tol, lam)
    return ConditionReport.build(_judge(d, name) for name in names)


@dataclass(frozen=True)
class GeneratorRecipe:
    theorem_id: str
    dimension: int
    seed: int
    violate: str | None = None


def example_45() -> BlockPair:
    """The built-in golden fixture: integer involution E, Gaussian-integer F."""
    e = matrix([[1, 2], [0, -1]])
    f = matrix([[1j, 1j], [0, 0]])
    return BlockPair(E=e, F=f, pattern=Pattern.EF_F0)


# ---------------------------------------------------------------------------
# construction helpers


def _unimodular(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer unimodular S and its exact integer inverse, from one draw of
    n + 2 (i, j, c) shears row_i += c row_j (kept while |S| <= 40).
    """
    if n == 1:  # no shear to draw
        return identity(1), identity(1)
    s = [[int(i == j) for j in range(n)] for i in range(n)]
    s_inv = [row[:] for row in s]
    triples = rng.integers([0, 0, -2] * (n + 2), [n, n, 3] * (n + 2)).reshape(-1, 3)
    for i, j, c in triples.tolist():
        if i == j or c == 0:
            continue
        row = [a + c * b for a, b in zip(s[i], s[j])]
        if max(map(abs, row)) > 40:  # keep conditioning under control
            continue
        s[i] = row
        for r in s_inv:  # fold in the inverse elementary op: col_j -= c col_i
            r[j] -= c * r[i]
    return np.array(s, dtype=np.complex128), np.array(s_inv, dtype=np.complex128)


def _invertible_diag(rng: np.random.Generator, n: int) -> np.ndarray:
    """Diagonal of n (modulus, phase) draws: moduli in [0.5, 2], phases in [0, 2 pi).

    One rng.random draw, scaled as rng.uniform(lo, hi) scales it, without
    uniform's per-call bound checks.
    """
    modulus, phase = rng.random((n, 2)).T
    return np.diag((0.5 + 1.5 * modulus) * np.exp(2j * np.pi * phase))


def _free(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Entries in {-1, -1/2, 0, 1/2, 1} + i{-1, -1/2, 0, 1/2, 1}: real grid drawn first."""
    re, im = rng.integers(-2, 3, (2, rows, cols))
    return (re + 1j * im) / 2.0


def _nilpotent(rng: np.random.Generator, size: int, lead_index: int = 1) -> tuple[np.ndarray, list[int]]:
    """Direct sum of Jordan blocks, sizes <= 3, first block of size >= lead_index."""
    sizes: list[int] = []
    left = size
    while left > 0:
        hi = min(3, left)
        lo = min(lead_index, hi) if not sizes else 1
        sizes.append(int(rng.integers(lo, hi + 1)))
        left -= sizes[-1]
    n = zeros(size, size)
    at = 0
    for s in sizes:
        for k in range(s - 1):
            n[at + k, at + k + 1] = 1.0
        at += s
    return n, sizes


def _kernel_indices(sizes: list[int], depth: int) -> list[int]:
    """Indices spanning ker(N^depth) for a direct sum of Jordan blocks."""
    out = []
    at = 0
    for s in sizes:
        out.extend(range(at, at + min(depth, s)))
        at += s
    return out


def _group_diag(rng: np.random.Generator, size: int, rank: int | None = None) -> np.ndarray:
    """Group invertible block: invertible diagonal padded with zeros."""
    g = int(rng.integers(0, size + 1)) if rank is None else rank
    out = zeros(size, size)
    out[:g, :g] = _invertible_diag(rng, g)
    return out


def _infeasible(recipe: GeneratorRecipe, why: str):
    raise InfeasibleRecipeError(
        f"recipe {recipe.theorem_id} n={recipe.dimension} violate={recipe.violate}: {why}"
    )


def _split(rng: np.random.Generator, n: int, min_z: int = 0, max_z: int | None = None) -> tuple[int, int]:
    """Pick (r, z) with r + z = n and min_z <= z <= max_z."""
    hi = n if max_z is None else min(n, max_z)
    z = int(rng.integers(min_z, hi + 1))
    return n - z, z


# ---------------------------------------------------------------------------
# per-family builders: all work in the F-eigenbasis, then conjugate by S


def _build_thm23(rng, n, violate, recipe):
    """EFE = 0 and F^2 E = 0 via a three-way index partition.

    im(E) lives on index set J_E, F maps span(J_E) into span(J_K), and
    both E and F kill span(J_K); then EFE = 0 and F^2 E = 0 exactly.
    """
    if n == 1:
        if violate:
            _infeasible(recipe, "scalar hypotheses cannot be broken one at a time")
        if rng.random() < 0.5:
            return zeros(1, 1), _free(rng, 1, 1)
        return _free(rng, 1, 1), zeros(1, 1)
    mode = rng.random()
    if violate is None and mode < 0.12:
        return zeros(n, n), _free(rng, n, n)
    if violate is None and mode < 0.24:
        return _free(rng, n, n), zeros(n, n)
    idx = list(rng.permutation(n))
    n_e = int(rng.integers(1, n))
    n_k = int(rng.integers(1, n - n_e + 1))
    j_e, j_k = idx[:n_e], idx[n_e:n_e + n_k]
    j_r = idx[n_e + n_k:]
    e = zeros(n, n)
    f = zeros(n, n)
    e[np.ix_(j_e, j_e + j_r)] = _free(rng, n_e, n_e + len(j_r))
    f[np.ix_(j_k, j_e)] = _free(rng, n_k, n_e)
    if j_r:
        f[np.ix_(j_k + j_r, j_r)] = _free(rng, n_k + len(j_r), len(j_r))
    if violate:
        i1, k0 = j_e[0], j_k[0]
        e[:, i1] = 0.0
        e[i1, i1] = 1.0  # e_{i1} in im(E)
        f[k0, :] = 0.0
        f[k0, i1] = 1.0  # F e_{i1} = e_{k0} exactly
        if violate == "EFE":
            e[i1, k0] = 1.0  # E no longer kills e_{k0}: (EFE)[i1, i1] = 1
        else:
            target = j_r[0] if j_r else j_e[-1]  # never in J_K
            f[target, :] = 0.0
            f[target, k0] = 1.0  # F no longer kills e_{k0}: (F^2 E)[target, i1] = 1
    return e, f


def _build_thm25(rng, n, violate, recipe):
    """EFEF^pi = 0 and F^2 E F^pi = 0.

    With F = diag(C, N), the constraints on E = [[E11, E12], [E21, E22]]
    are E12 = 0, N^2 E22 = 0 and E22 N E22 = 0; the last two hold when
    E22's rows live on ker(N^2) and its columns vanish on ker(N).
    """
    min_z = {"EFEFpi": 2, "F2EFpi": 3}.get(violate, 1)
    if violate and n < min_z:
        _infeasible(recipe, f"needs a nilpotent corner of size >= {min_z}")
    s, s_inv = _unimodular(rng, n)
    if violate is None:
        mode = rng.random()
        if mode < 0.10:
            return _free(rng, n, n), zeros(n, n)
        if mode < 0.20:
            return _free(rng, n, n), s @ _invertible_diag(rng, n) @ s_inv
    r, z = _split(rng, n, min_z=min_z)
    nil, sizes = _nilpotent(rng, z, lead_index=min_z if violate else 1)
    c = _invertible_diag(rng, r)
    ft = block2x2(c, zeros(r, z), zeros(z, r), nil)
    e22 = zeros(z, z)
    if violate is None:
        k1 = _kernel_indices(sizes, 1)
        k2 = _kernel_indices(sizes, 2)
        cols = [j for j in range(z) if j not in k1]
        if k2 and cols:
            e22[np.ix_(k2, cols)] = _free(rng, len(k2), len(cols))
    elif violate == "EFEFpi":  # E22 N E22 != 0 while N^2 E22 = 0
        e22[1, 0] = 1.0  # lead block starts at 0
        e22[1, 1] = 1.0
    else:  # N^2 E22 != 0 while E22 N E22 = 0
        e22[2, 2] = 1.0  # lead block has size 3 at offset 0
    e11 = _free(rng, r, r)
    e21 = _free(rng, z, r)
    et = block2x2(e11, zeros(r, z), e21, e22)
    return s @ et @ s_inv, s @ ft @ s_inv


def _build_group_eif0(rng, n, violate, recipe, transposed: bool):
    """F E F^pi = 0 with existence clause (F group, E^pi F^pi = 0).

    transposed=True yields the F^pi E F = 0 / F^pi E^pi = 0 family by
    transposing a pair built for the plain one.
    """
    plain_violate = dual_clause(violate) if transposed else violate
    if plain_violate == "FFpi":
        # FEF^pi = 0 with N != 0 forces N E22 = 0, so E22 is singular and
        # the E^pi F^pi clause fails along with this one: never sharp.
        _infeasible(recipe, "breaking F's group invertibility alone is structurally impossible")
    s, s_inv = _unimodular(rng, n)
    if plain_violate is None and rng.random() < 0.10:
        et, ft = _free(rng, n, n), _invertible_diag(rng, n)  # F^pi = 0 degenerate
    elif plain_violate == "FEFpi":
        if n < 2:
            _infeasible(recipe, "needs both an invertible part and a kernel in F")
        r, z = _split(rng, n, min_z=1, max_z=n - 1)
        ft = _group_diag(rng, n, rank=r)
        e12 = _free(rng, r, z)
        e12.flat[0] = 1.0
        # E invertible block-triangular: existence clause passes trivially
        et = block2x2(_invertible_diag(rng, r), e12, zeros(z, r), _invertible_diag(rng, z))
    else:
        r, z = _split(rng, n, min_z=1)
        ft = _group_diag(rng, n, rank=r)
        if plain_violate == "EpiFpi":
            if z == 0:
                _infeasible(recipe, "F invertible forces the existence clause")
            e22 = _group_diag(rng, z, rank=int(rng.integers(0, z)))
        else:
            e22 = _invertible_diag(rng, z)
        et = block2x2(_free(rng, r, r), zeros(r, z), _free(rng, z, r), e22)
    if transposed:
        et, ft = et.T.copy(), ft.T.copy()
    return s @ et @ s_inv, s @ ft @ s_inv


def _build_identical(rng, n, violate, recipe, transposed: bool):
    """F E F^pi = 0 with F group invertible standing and E E^pi F^pi = 0.

    transposed=True gives the F^pi E F = 0 / F^pi E^pi E = 0 family.
    """
    plain_violate = dual_clause(violate) if transposed else violate
    s, s_inv = _unimodular(rng, n)
    if plain_violate == "FFpi":
        # feasible here: the existence clause needs only a group invertible
        # E-corner, which can live inside ker N
        if n < 2:
            _infeasible(recipe, "nilpotent corner of size >= 2 required")
        r, z = _split(rng, n, min_z=2)
        nil, sizes = _nilpotent(rng, z, lead_index=2)
        ft = block2x2(_invertible_diag(rng, r), zeros(r, z), zeros(z, r), nil)
        k1 = _kernel_indices(sizes, 1)
        e22 = zeros(z, z)
        e22[k1[0], k1[0]] = 1.0  # idempotent corner inside ker N: group, N E22 = 0
        et = block2x2(_free(rng, r, r), zeros(r, z), _free(rng, z, r), e22)
    elif plain_violate == "FEFpi":
        if n < 2:
            _infeasible(recipe, "needs both an invertible part and a kernel in F")
        r, z = _split(rng, n, min_z=1, max_z=n - 1)
        ft = _group_diag(rng, n, rank=r)
        e12 = _free(rng, r, z)
        e12.flat[0] = 1.0
        et = block2x2(_invertible_diag(rng, r), e12, zeros(z, r), _invertible_diag(rng, z))
    elif plain_violate == "EEpiFpi":
        if n < 2:
            _infeasible(recipe, "needs a kernel of size >= 2 in F")
        r, z = _split(rng, n, min_z=2)
        ft = _group_diag(rng, n, rank=r)
        e22 = zeros(z, z)
        e22[0, 1] = 1.0  # index-2 corner: E E^pi F^pi != 0
        if z > 2:
            e22[2:, 2:] = _group_diag(rng, z - 2)
        et = block2x2(_free(rng, r, r), zeros(r, z), _free(rng, z, r), e22)
    else:
        r, z = _split(rng, n)
        ft = _group_diag(rng, n, rank=r)
        et = block2x2(_free(rng, r, r), zeros(r, z), _free(rng, z, r), _group_diag(rng, z))
    if transposed:
        et, ft = et.T.copy(), ft.T.copy()
    return s @ et @ s_inv, s @ ft @ s_inv


def _build_cor43(rng, n, violate, recipe):
    """Both blocks group invertible, either annihilator hypothesis."""
    s, s_inv = _unimodular(rng, n)
    if violate == "FFpi":
        if n < 2:
            _infeasible(recipe, "nilpotent corner of size >= 2 required")
        r, z = _split(rng, n, min_z=2)
        nil, sizes = _nilpotent(rng, z, lead_index=2)
        ft = block2x2(_invertible_diag(rng, r), zeros(r, z), zeros(z, r), nil)
        k1 = _kernel_indices(sizes, 1)
        e22 = zeros(z, z)
        e22[k1[0], k1[0]] = 1.0  # keeps FEF^pi = 0 and E group invertible
        et = block2x2(_group_diag(rng, r), zeros(r, z), zeros(z, r), e22)
        return s @ et @ s_inv, s @ ft @ s_inv
    if violate == "EEpi":
        if n < 2:
            _infeasible(recipe, "needs room for an index-2 corner in E")
        r, z = _split(rng, n, min_z=2)
        ft = _group_diag(rng, n, rank=r)
        corner = zeros(z, z)
        corner[0, 1] = 1.0  # index-2 nilpotent part of E
        if z > 2:
            corner[2:, 2:] = _group_diag(rng, z - 2)
        et = block2x2(_group_diag(rng, r), zeros(r, z), zeros(z, r), corner)
        return s @ et @ s_inv, s @ ft @ s_inv
    if violate == "FEFpi|FpiEF":
        if n < 2:
            _infeasible(recipe, "needs both an invertible part and a kernel in F")
        r, z = _split(rng, n, min_z=1, max_z=n - 1)
        ft = _group_diag(rng, n, rank=r)
        e12 = _free(rng, r, z)
        e12.flat[0] = 1.0
        e21 = _free(rng, z, r)
        e21.flat[0] = 1.0
        et = block2x2(_invertible_diag(rng, r), e12, e21, _invertible_diag(rng, z))
        return s @ et @ s_inv, s @ ft @ s_inv
    r, z = _split(rng, n)
    ft = _group_diag(rng, n, rank=r)
    e11 = _group_diag(rng, r)
    e22 = _group_diag(rng, z)
    mode = rng.random()
    if mode < 0.4 or r == 0 or z == 0:
        et = block2x2(e11, zeros(r, z), zeros(z, r), e22)  # both families hold
    elif mode < 0.7:
        # shear similarity: keeps E group invertible, FEF^pi family only
        t = _free(rng, z, r)
        et = block2x2(e11, zeros(r, z), t @ e11 - e22 @ t, e22)
    else:
        # upper shear: F^pi E F family only
        t = _free(rng, r, z)
        et = block2x2(e11, e11 @ t - t @ e22, zeros(z, r), e22)
    return s @ et @ s_inv, s @ ft @ s_inv


def _build_commuting(rng, n, violate, recipe, need_group_e: bool):
    """cor35 (need_group_e=False) and cor44 (True): commutation-type pairs.

    Valid draws either commute outright (simultaneously diagonal in the
    S basis, lam = 1) or satisfy only EF^2 = FEF (block upper triangular
    E over a diagonal F).
    """
    # cor35 and cor44 list FFpi, but these pairs never break it alone; the
    # generator stream digest pins this message
    if violate == "FFpi":
        _infeasible(recipe, f"unknown clause {violate!r}")
    s, s_inv = _unimodular(rng, n)
    if violate == "EEpi":
        if n < 2:
            _infeasible(recipe, "needs n >= 2 for an index-2 corner in E")
        ft = _invertible_diag(rng, 1)[0, 0] * identity(n)  # scalar F commutes with all E
        et = zeros(n, n)
        et[0, 1] = 1.0
        if n > 2:
            et[2:, 2:] = _group_diag(rng, n - 2)
        return s @ et @ s_inv, s @ ft @ s_inv
    if violate == "EF2-FEF":
        if n < 2:
            _infeasible(recipe, "needs two distinct invertible eigenvalues of F")
        r, z = _split(rng, n, min_z=0, max_z=n - 2)
        c = _invertible_diag(rng, r)
        c[1, 1] = 2.0 * c[0, 0]  # distinct eigenvalues make the coupling sharp
        ft = block2x2(c, zeros(r, z), zeros(z, r), zeros(z, z))
        corner_e = _invertible_diag(rng, r) if need_group_e else _group_diag(rng, r)
        corner_e[0, 1] = 1.0  # coupling: (EF^2 - FEF)[0,1] = c1(c1 - c0)
        et = block2x2(corner_e, zeros(r, z), zeros(z, r), _invertible_diag(rng, z))
        return s @ et @ s_inv, s @ ft @ s_inv
    if violate == "FpiEpi":
        r, z = _split(rng, n, min_z=1)
        ft = _group_diag(rng, n, rank=r)
        dz = _group_diag(rng, z, rank=int(rng.integers(0, z)))
        dr = _group_diag(rng, r)
        et = block2x2(dr, zeros(r, z), zeros(z, r), dz)
        return s @ et @ s_inv, s @ ft @ s_inv
    # valid draws
    r, z = _split(rng, n)
    ft = _group_diag(rng, n, rank=r)
    if rng.random() < 0.5 and r >= 1 and z >= 1:
        # EF^2 = FEF but EF != FE: diagonal-over-diagonal with coupling
        a = _invertible_diag(rng, r) if need_group_e else _group_diag(rng, r)
        et = block2x2(a, _free(rng, r, z), zeros(z, r), _invertible_diag(rng, z))
    else:
        dr = _invertible_diag(rng, r) if need_group_e else _group_diag(rng, r)
        et = block2x2(dr, zeros(r, z), zeros(z, r), _invertible_diag(rng, z))
    return s @ et @ s_inv, s @ ft @ s_inv


_BUILDERS = {
    "thm23": _build_thm23,
    "thm25": _build_thm25,
    "cor26": _build_thm25,
    "thm27": _build_thm25,
    "thm31": partial(_build_group_eif0, transposed=False),
    "cor32": partial(_build_group_eif0, transposed=False),
    "thm33": partial(_build_group_eif0, transposed=True),
    "cor34": partial(_build_group_eif0, transposed=True),
    "cor35": partial(_build_commuting, need_group_e=False),
    "thm41": partial(_build_identical, transposed=False),
    "cor42": partial(_build_identical, transposed=True),
    "cor43": _build_cor43,
    "cor44": partial(_build_commuting, need_group_e=True),
}


def generate(recipe: GeneratorRecipe) -> BlockPair:
    """Deterministic (E, F) pair for the recipe's formula.

    Without ``violate`` the pair satisfies all the formula's clauses;
    with ``violate`` exactly that clause fails.  A clause the formula
    does not list, or structurally impossible requests, raise
    InfeasibleRecipeError, a negative seed ValueError.
    """
    if recipe.theorem_id not in _BUILDERS:
        raise KeyError(f"unknown formula id {recipe.theorem_id!r}")
    if recipe.dimension < 1:
        raise InfeasibleRecipeError("dimension must be >= 1")
    if recipe.seed < 0:
        raise ValueError(
            f"recipe {recipe.theorem_id} n={recipe.dimension}: seed must be >= 0, got {recipe.seed}"
        )
    if recipe.violate not in (None, *REGISTRY[recipe.theorem_id].clauses):
        _infeasible(recipe, f"unknown clause {recipe.violate!r}")
    rng = np.random.default_rng(recipe.seed)
    e, f = _BUILDERS[recipe.theorem_id](rng, recipe.dimension, recipe.violate, recipe)
    return BlockPair(E=e, F=f, pattern=PATTERN_FOR[recipe.theorem_id])
