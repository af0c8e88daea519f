import ast
import itertools
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from antitri import (
    BlockPair,
    BlockResult,
    GeneratorRecipe,
    HypothesisError,
    InfeasibleRecipeError,
    InverseKind,
    NoGroupInverse,
    Pattern,
    apply_formula,
    assemble,
    check_conditions,
    cline,
    compare,
    cor26,
    cor32_group,
    cor34_group,
    cor35_group,
    cor42_group,
    cor43_group,
    cor44_group,
    diag,
    drazin,
    frobenius_norm,
    generate,
    identity,
    index_of,
    invert,
    lemma21_triangular,
    lemma22_additive,
    lemma24_additive,
    matrix,
    matrix_power,
    solve,
    thm23,
    thm25,
    thm27,
    thm31_group,
    thm33_group,
    thm41_group,
    verify_drazin_axioms,
    zeros,
)
from antitri.core import DEFAULT_TOL, block2x2
from antitri.formulas import REGISTRY, _DrazinData, _judge, _power_sum
from conftest import assert_close, jordan_nilpotent, random_complex, rel_err, svd_index, unimodular_pair

E45 = matrix([[1, 2], [0, -1]])
F45 = matrix([[1j, 1j], [0, 0]])
M45_GROUP = matrix(
    [
        [0, 1, -1j, -1j],
        [0, -1, 0, 0],
        [-1j, -1j, 1, 1],
        [0, 0, 0, 0],
    ]
)


def oracle_drazin(m):
    return drazin(m).drazin


def pairs_for(theorem_id, count, nmax=4, seed=0):
    made = 0
    attempt = 0
    while made < count:
        n = 1 + (attempt + seed) % nmax
        try:
            yield generate(GeneratorRecipe(theorem_id, n, seed + attempt))
            made += 1
        except Exception:
            pass
        attempt += 1


# ---------------------------------------------------------------------------
# reference routes: the printed displays and the second routes that the
# formulas do not compute; each is pinned against the returned blocks below


def _drazin_data(e, f):
    rf, re_ = drazin(f), drazin(e)
    return rf.drazin, rf.idempotent, re_.drazin, re_.idempotent


def thm23_display(e, f):
    """Printed blocks of Theorem 2.3 (EFE = F^2 E = 0, [[E, I], [F, 0]]), summed term by term."""
    re_, rf = drazin(e), drazin(f)
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
        # the terms E^(start + 2i) E^pi (F^D)^(i+2) that do not vanish: start + 2i < ind E
        for i in range(max(0, math.ceil((ind_e - start) / 2))):
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

    return block2x2(lam, sig, gam, delt)


# (seed, n) of generate(GeneratorRecipe("thm23", n, seed)), n = 2 + seed % 7, whose
# E and F both have index 2: 28 of seeds 0-2999 are; these are the first few
THM23_IND2 = ((81, 6), (169, 3), (290, 5), (318, 5), (557, 6), (1353, 4), (1867, 7))


def thm23_ind2_pairs():
    for seed, n in THM23_IND2:
        pair = generate(GeneratorRecipe("thm23", n, seed))
        assert drazin(pair.E).index == drazin(pair.F).index == 2, (seed, n)
        yield pair


def cor32_display(e, f):
    """Printed blocks of Corollary 3.2 (F E F^pi = 0, [[E, F], [I, 0]])."""
    fs, fpi, ed, _ = _drazin_data(e, f)
    edfpi = ed @ fpi
    return block2x2(
        fpi @ ed @ fpi,
        identity(e.shape[0]) - fpi @ ed @ fpi @ e,
        fs + edfpi @ edfpi - edfpi @ e @ fs,
        edfpi - fs @ e - edfpi @ edfpi @ e + edfpi @ e @ fs @ e,
    )


def thm33_display(e, f):
    """Printed blocks of Theorem 3.3 (F^pi E F = 0, [[E, F], [I, 0]])."""
    fs, fpi, ed, _ = _drazin_data(e, f)
    fpied = fpi @ ed
    return block2x2(fpied, f @ fs, fs + fpied @ fpied - fs @ e @ fpied, -fs @ e @ f @ fs)


def cor34_display(e, f):
    """Printed blocks of Corollary 3.4 (F^pi E F = 0, [[E, I], [F, 0]])."""
    fs, fpi, ed, _ = _drazin_data(e, f)
    fpied = fpi @ ed
    return block2x2(
        fpi @ ed @ fpi,
        fs + fpied @ fpied - fs @ e @ fpied,
        identity(e.shape[0]) - e @ fpi @ ed @ fpi,
        fpied - e @ fs - e @ fpied @ fpied + e @ fs @ e @ fpied,
    )


def thm41_display(e, f, data=None):
    """Printed blocks of Theorem 4.1 (F E F^pi = 0, [[E, F], [F, 0]]).

    ``data`` is (F^#, F^pi, E^D, E^pi), by default computed from (E, F).
    """
    fs, fpi, ed, epi = _drazin_data(e, f) if data is None else data
    n = e.shape[0]
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
    return block2x2(gamma, delta, lam, xi)


def thm41_constructive(e, f):
    """Theorem 4.1 through the group inverse of N = [[E, I], [F^2, 0]]."""
    fs, fpi, ed, epi = _drazin_data(e, f)
    fs2 = fs @ fs
    edfpi = ed @ fpi
    epifpi = epi @ fpi
    alpha = edfpi + epifpi @ e @ fs2
    beta = fs2 + edfpi @ edfpi - epifpi @ e @ fs2 @ e @ fs2 - edfpi @ e @ fs2
    gamma = f @ fs
    delta = -f @ fs @ e @ fs2
    return block2x2(
        (e @ alpha + gamma) @ alpha + (e @ beta + delta) @ gamma,
        (e @ alpha + gamma) @ beta @ f + (e @ beta + delta) @ delta @ f,
        f @ (alpha @ alpha + beta @ gamma),
        f @ (alpha @ beta + beta @ delta) @ f,
    )


def cor42_display(e, f, swapped=False):
    """Printed blocks of Corollary 4.2; ``swapped`` interchanges the off-diagonal pair."""
    fs, fpi, ed, epi = _drazin_data(e, f)
    fs2 = fs @ fs
    fpied = fpi @ ed
    fpiepi = fpi @ epi
    ident = identity(e.shape[0])
    core = fpied + fs2 @ e @ fpiepi
    delta_inner = fs - fs @ e @ fs2 @ e @ fpiepi - fs @ e @ fpied
    gamma = core @ (ident - fpiepi) + fs2 @ e @ fpiepi
    delta = delta_inner @ (ident - fpiepi) - fs @ e @ fs2 @ e @ fpiepi
    lam = core @ core @ f + fs - (fs2 @ e) @ (fs2 @ e) @ fpiepi @ f - fs2 @ e @ fpied @ f
    xi = delta_inner @ (fpied @ f + fs2 @ e @ fpiepi @ f) - fs @ e @ (
        fs - fs2 @ e @ fs2 @ e @ fpiepi @ f - fs2 @ e @ fpied @ f
    )
    return block2x2(gamma, lam, delta, xi) if swapped else block2x2(gamma, delta, lam, xi)


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


def thm25_constructive_2n(d):
    """Theorem 2.5 along the 2n x 2n constructive route, returning (M^d, truncation).

    The symbols alpha = E F^pi, beta = F^pi E F F^d + F^pi and
    gamma = F F^pi are embedded in 2n x 2n, Q^d is the sum of the
    ``_q_series`` corners, and M^d = Q^d P^pi + Q^pi P^d +
    sum_{i>=1} Q^i Q^pi (P^d)^(i+1) with P^pi = I - P P^d, term by term.
    """
    e, f = d.e, d.f
    n = e.shape[0]
    rf = d.F
    fd, fpi, ind_f = rf.drazin, rf.idempotent, rf.index
    ffd = f @ fd

    alpha = e @ fpi
    if _judge(d, "EFpi").passed:
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
    return md, {"k": k_cap, "m": m_cap}


def thm25_statement(e, f):
    """The printed n x n recipe of Theorem 2.5.

    Returns the 2n x 2n result in both readings of its contested
    idempotent term (I and I - F^pi), and the symbols: alpha, beta,
    gamma, delta_d, and the corner blocks (eps, zeta, eta, theta) of the
    successive powers of Q, by the corrected recursion.
    """
    rf = drazin(f)
    fd, fpi, ind_f = rf.drazin, rf.idempotent, rf.index
    n = e.shape[0]
    ident = identity(n)
    ffd = f @ fd
    alpha = e @ fpi
    if frobenius_norm(alpha) <= 1e-10 * max(1.0, frobenius_norm(e)) * max(1.0, frobenius_norm(f)):
        alpha = zeros(n, n)
    ra = drazin(alpha)
    beta = fpi @ e @ ffd + fpi
    gamma = f @ fpi
    delta_d = fd + ffd - ffd @ e @ fd
    eps, zeta, eta, theta = _q_series(alpha, beta, gamma, ra.drazin, ind_f)
    corners = [(eps, zeta, eta, theta)]
    for _ in range(ra.index + 2 * ind_f):
        e_i, z_i, h_i, t_i = corners[-1]
        corners.append((alpha @ e_i + beta @ h_i, alpha @ z_i + beta @ t_i, gamma @ e_i, gamma @ z_i))
    az_bt = alpha @ zeta + beta @ theta

    def reading(one):
        guard = one - gamma @ zeta
        tr = (zeta - az_bt) @ delta_d
        br = (theta + guard) @ delta_d
        dd_pow = delta_d @ delta_d
        for e_i, z_i, h_i, t_i in corners[1:]:
            tr = tr + (z_i @ guard - e_i @ az_bt) @ dd_pow
            br = br + (t_i @ guard - h_i @ az_bt) @ dd_pow
            dd_pow = dd_pow @ delta_d
        return block2x2(eps, tr, eta, br)

    symbols = {"alpha": alpha, "beta": beta, "gamma": gamma, "delta_d": delta_d, "corners": corners}
    return reading(ident), reading(ident - fpi), symbols


# ---------------------------------------------------------------------------
# triangular and additive building blocks


def test_power_sum_is_the_truncated_series():
    rng = np.random.default_rng(5)
    a, c, b = random_complex(rng, 3), random_complex(rng, 3, 2), random_complex(rng, 2)
    for count in (0, -1):
        empty = _power_sum(a, c, b, count)
        assert empty.shape == (3, 2) and not empty.any()
    assert np.array_equal(_power_sum(a, c, b, 1), c)
    for count in range(2, 7):
        want = sum(matrix_power(a, i) @ c @ matrix_power(b, i) for i in range(count))
        assert rel_err(_power_sum(a, c, b, count), want) <= 1e-12, count


def test_lemma21_invertible_over_zero(rng):
    a = matrix([[2, 1], [0, 1j]])
    c = random_complex(rng, 2)
    res = lemma21_triangular(a, zeros(2, 2), c)
    ai = invert(a)
    assert_close(res.tl, ai, 1e-12)
    assert_close(res.bl, c @ ai @ ai, 1e-12)
    assert frobenius_norm(res.br) == 0
    full = np.block([[a, zeros(2, 2)], [c, zeros(2, 2)]])
    assert_close(res.assemble(), oracle_drazin(full), 1e-9)


def test_lemma21_block_diagonal(rng):
    a = random_complex(rng, 3)
    b = random_complex(rng, 2)
    res = lemma21_triangular(a, b, zeros(2, 3))
    assert frobenius_norm(res.bl) <= 1e-12 * (1 + frobenius_norm(a))
    assert_close(res.tl, drazin(a).drazin, 1e-10)
    assert_close(res.br, drazin(b).drazin, 1e-10)


def test_lemma21_nilpotent_blocks():
    j = jordan_nilpotent(2)
    res = lemma21_triangular(j, j, identity(2))
    full = np.block([[j, zeros(2, 2)], [identity(2), j]])
    assert_close(res.assemble(), oracle_drazin(full), 1e-9)


def test_lemma22_degenerate():
    rng = np.random.default_rng(3)
    p = random_complex(rng, 3)
    assert_close(lemma22_additive(p, zeros(3, 3)), drazin(p).drazin, 1e-10)
    assert_close(lemma22_additive(zeros(3, 3), p), drazin(p).drazin, 1e-10)


def test_lemma22_generated():
    # thm23 pairs satisfy exactly the split hypotheses PQP = Q^2 P = 0; at ind P = 2
    # the one P-series carries the P^(i+1) P^pi and Q P^i P^pi terms past their first
    for pair in [*pairs_for("thm23", 25, seed=400), *thm23_ind2_pairs()]:
        out = lemma22_additive(pair.E, pair.F)
        assert rel_err(out, oracle_drazin(pair.E + pair.F)) <= 1e-9


def test_lemma22_hypothesis_gate(rng):
    p, q = random_complex(rng, 3), random_complex(rng, 3)
    with pytest.raises(HypothesisError) as err:
        lemma22_additive(p, q)
    assert set(err.value.residuals) == {"PQP"}  # the first failing clause stops the gate


def test_lemma24_degenerate(rng):
    p = random_complex(rng, 3)
    assert_close(lemma24_additive(p, zeros(3, 3)), drazin(p).drazin, 1e-10)
    assert_close(lemma24_additive(zeros(3, 3), p), drazin(p).drazin, 1e-10)


def test_lemma24_generated(rng):
    for _ in range(25):
        n, r = 4, 2
        s, s_inv = unimodular_pair(rng, n)
        top = zeros(n, n)
        top[:r, :r] = random_complex(rng, r)
        bottom = zeros(n, n)
        bottom[r:, :] = random_complex(rng, n - r, n)
        p = s @ top @ s_inv
        q = s @ bottom @ s_inv
        assert frobenius_norm(p @ q) <= 1e-10 * max(1, frobenius_norm(p)) * max(
            1, frobenius_norm(q)
        )
        out = lemma24_additive(p, q)
        assert rel_err(out, oracle_drazin(p + q)) <= 1e-9


def test_lemma24_at_index_two_and_three(rng):
    # P = S diag(J2, 2, 0, 0, 0) S^-1 and Q = S [[0, 0], [X, diag(J2, d)]] S^-1:
    # PQ = 0, ind P = 2, and X couples Q's nilpotent parts to ind Q = 3
    z = zeros(3, 3)
    a, b = zeros(3, 3), zeros(3, 3)
    a[:2, :2] = b[:2, :2] = jordan_nilpotent(2)
    a[2, 2], b[2, 2] = 2, -1 + 1j
    for _ in range(5):
        s, s_inv = unimodular_pair(rng, 6)
        p = s @ np.block([[a, z], [z, z]]) @ s_inv
        q = s @ np.block([[z, z], [random_complex(rng, 3), b]]) @ s_inv
        assert (drazin(p).index, drazin(q).index) == (2, 3)
        assert rel_err(lemma24_additive(p, q), oracle_drazin(p + q)) <= 1e-9


def test_cline_examples(rng):
    assert_close(cline(identity(3), identity(3)), identity(3), 1e-12)
    a = jordan_nilpotent(2)
    assert frobenius_norm(cline(a, identity(2))) <= 1e-12
    for _ in range(10):
        a, b = random_complex(rng, 3), random_complex(rng, 3)
        assert rel_err(cline(a, b), oracle_drazin(a @ b)) <= 1e-9


# ---------------------------------------------------------------------------
# anti-triangular g-Drazin family


def anti_triangular(e, f):
    n = e.shape[0]
    return np.block([[e, identity(n)], [f, zeros(n, n)]])


def test_thm23_e_zero(rng):
    f = random_complex(rng, 3)
    res = thm23(zeros(3, 3), f)
    assert_close(res.assemble(), oracle_drazin(anti_triangular(zeros(3, 3), f)), 1e-9)


def test_thm23_f_zero(rng):
    e = random_complex(rng, 3)
    res = thm23(e, zeros(3, 3))
    ed = drazin(e).drazin
    expected = np.block([[ed, ed @ ed], [zeros(3, 3), zeros(3, 3)]])
    assert_close(res.assemble(), expected, 1e-9)
    assert_close(res.assemble(), oracle_drazin(anti_triangular(e, zeros(3, 3))), 1e-9)


def test_thm23_generated():
    for pair in pairs_for("thm23", 30, seed=50):
        res = thm23(pair.E, pair.F)
        assert rel_err(res.assemble(), oracle_drazin(assemble(pair))) <= 1e-9


def test_thm23_blocks_are_the_printed_display_regrouped():
    # the body sums two series where the display sums term by term; the terms
    # E^(ind E) E^pi (...) it adds vanish, so the two differ by rounding only
    for pair in [*pairs_for("thm23", 200), *thm23_ind2_pairs()]:
        got = thm23(pair.E, pair.F).assemble()
        assert rel_err(got, thm23_display(pair.E, pair.F)) <= 1e-12


def test_thm23_hypothesis_gate(rng):
    e, f = random_complex(rng, 3), random_complex(rng, 3)
    with pytest.raises(HypothesisError):
        thm23(e, f)


def test_thm25_involution_fixture():
    res = thm25(zeros(2, 2), identity(2))
    m = anti_triangular(zeros(2, 2), identity(2))
    assert_close(res.assemble(), m, 1e-12)  # M^2 = I so M^d = M


def test_thm25_f_zero(rng):
    e = random_complex(rng, 3)
    res = thm25(e, zeros(3, 3))
    ed = drazin(e).drazin
    expected = np.block([[ed, ed @ ed], [zeros(3, 3), zeros(3, 3)]])
    assert_close(res.assemble(), expected, 1e-9)
    *_, symbols = thm25_statement(e, zeros(3, 3))
    assert frobenius_norm(symbols["delta_d"]) <= 1e-12
    assert frobenius_norm(symbols["gamma"]) <= 1e-12


def test_thm25_generated_vs_oracle():
    for pair in pairs_for("thm25", 40, seed=7):
        res = thm25(pair.E, pair.F)
        assert rel_err(res.assemble(), oracle_drazin(assemble(pair))) <= 1e-9


def test_thm25_corner_recursion_and_theta_misprint():
    # corner recursion of Q^n Q_0 for Q = [[alpha, beta], [gamma, 0]]:
    # eps' = a.eps + b.eta, zeta' = a.zeta + b.theta, eta' = c.eps,
    # theta' = c.zeta; the printed theta' = c.theta contradicts
    # Q^(n+1) = Q Q^n (README, Errata)
    misprints = 0
    for pair in pairs_for("thm25", 12, seed=123):
        *_, it = thm25_statement(pair.E, pair.F)
        a, b, c, corners = it["alpha"], it["beta"], it["gamma"], it["corners"]
        q = block2x2(a, b, c, zeros(*a.shape))
        q0 = block2x2(*corners[0])
        for i in range(1, len(corners)):
            assert_close(block2x2(*corners[i]), matrix_power(q, i) @ q0, 1e-10)
            misprints += rel_err(c @ corners[i - 1][3], corners[i][3]) > 1e-8
    assert misprints


def test_thm25_statement_readings_recorded():
    # the two printed readings of the contested idempotent term agree with
    # each other (F^pi annihilates delta^d) but not with the oracle-backed
    # constructive route that thm25 returns (README, Errata)
    seen_erratum = False
    for pair in pairs_for("thm25", 20, seed=77):
        md = thm25(pair.E, pair.F).assemble()
        plain, split, _ = thm25_statement(pair.E, pair.F)
        assert rel_err(plain, split) <= 1e-8
        plain_dev, split_dev = rel_err(plain, md), rel_err(split, md)
        if max(plain_dev, split_dev) > 1e-8:
            seen_erratum = True
            assert plain_dev > 1e-8
    assert seen_erratum


def test_thm25_hypothesis_gate(rng):
    # nilpotent F makes F^pi = I, so random E violates EFEF^pi = 0 outright
    e, f = random_complex(rng, 3), jordan_nilpotent(3)
    with pytest.raises(HypothesisError) as err:
        thm25(e, f)
    assert set(err.value.residuals) == {"EFEFpi"}  # the first failing clause stops the gate


def test_thm27_equals_thm25():
    for pair in pairs_for("thm25", 25, seed=5):
        r25 = thm25(pair.E, pair.F)
        r27 = thm27(pair.E, pair.F)
        assert rel_err(r27.assemble(), r25.assemble()) <= 1e-12
        assert r27.notes == r25.notes
        assert r27.kind.value == "Drazin" and r25.kind.value == "gDrazin"


def test_theorem25_engine_matches_2n_route():
    # the n x n engine against the 2n x 2n route it replaced; cor26, the
    # similarity image of thm25, against that route's second derivation,
    # the transfer [[E, I], [I, 0]] (N^d)^2 [[I, 0], [0, F]]
    for tid in ("thm25", "cor26", "thm27"):
        for seed in range(200):
            pair = generate(GeneratorRecipe(tid, 1 + seed % 4, seed))
            res = apply_formula(tid, pair.E, pair.F)
            want, truncation = thm25_constructive_2n(_DrazinData(pair.E, pair.F, DEFAULT_TOL))
            if tid == "cor26":
                n = pair.E.shape[0]
                left = block2x2(pair.E, identity(n), identity(n), zeros(n, n))
                right = block2x2(identity(n), zeros(n, n), zeros(n, n), pair.F)
                want = left @ want @ want @ right
            assert res.notes == truncation, (tid, seed)
            assert rel_err(res.assemble(), want) <= 1e-9, (tid, seed)


def test_theorem25_engine_tracks_2n_route_when_alpha_d_is_large():
    # here drazin(E F^pi) keeps rounding residue as core, so |alpha^D| = 3.2e9;
    # the series runs on c = F^pi gamma, as the 2n route does: on gamma itself
    # (alpha^D)^5 times the residue 2.7e-19 of gamma^2 inflated the blocks 1e60-fold
    pair = generate(GeneratorRecipe("thm25", 4, 1205943267))
    want, _ = thm25_constructive_2n(_DrazinData(pair.E, pair.F, DEFAULT_TOL))
    assert rel_err(thm25(pair.E, pair.F).assemble(), want) <= 1e-3


def test_thm27_reported_caps():
    e = matrix([[1, 1], [0, 0]])  # idempotent: ind(E F^pi) = ind(E) = 1
    f = jordan_nilpotent(2)  # ind(F) = 2, F^pi = I
    res = thm27(e, f)
    assert res.notes == {"k": 5, "m": 2}
    assert rel_err(res.assemble(), oracle_drazin(anti_triangular(e, f))) <= 1e-9


def test_thm27_generated_vs_oracle():
    for pair in pairs_for("thm27", 25, seed=55):
        res = thm27(pair.E, pair.F)
        assert rel_err(res.assemble(), oracle_drazin(assemble(pair))) <= 1e-9


def test_cor26_involution():
    res = cor26(zeros(2, 2), identity(2))
    m = np.block([[zeros(2, 2), identity(2)], [identity(2), zeros(2, 2)]])
    assert_close(res.assemble(), m, 1e-12)


def test_cor26_f_zero(rng):
    e = random_complex(rng, 2)
    res = cor26(e, zeros(2, 2))
    m = np.block([[e, zeros(2, 2)], [identity(2), zeros(2, 2)]])
    assert_close(res.assemble(), oracle_drazin(m), 1e-9)


def test_cor26_fails_at_small_scale_only_where_thm25_does():
    # cor26 maps the thm25 answer through the similarity on n x n blocks;
    # the 2n x 2n transfer through (N^d)^2 that it replaced failed 20 of
    # these seeds at 1e-6, against the 9 where thm25 itself fails
    rejected = {"thm25": set(), "cor26": set()}
    for seed in range(200):
        for tid, seeds in rejected.items():
            pair = generate(GeneratorRecipe(tid, 1 + seed % 4, seed))
            small = BlockPair(pair.E * 1e-6, pair.F * 1e-6, pair.pattern)
            if not compare(apply_formula(tid, small.E, small.F), small).passed:
                seeds.add(seed)
    assert rejected["cor26"] <= rejected["thm25"], rejected


def test_cor26_generated_vs_oracle():
    for pair in pairs_for("cor26", 30, seed=21):
        res = cor26(pair.E, pair.F)
        assert rel_err(res.assemble(), oracle_drazin(assemble(pair))) <= 1e-9


# ---------------------------------------------------------------------------
# group family


def test_thm31_fixtures(rng):
    out = thm31_group(zeros(2, 2), identity(2))
    assert_close(out.assemble(), np.block([[zeros(2, 2), identity(2)], [identity(2), zeros(2, 2)]]), 1e-12)

    e = matrix([[2, 1], [0, 1j]])  # invertible
    out = thm31_group(e, zeros(2, 2))
    ei = invert(e)
    assert_close(out.Gamma, ei, 1e-12)
    assert_close(out.Delta, ei @ ei, 1e-12)
    assert frobenius_norm(out.Lambda) + frobenius_norm(out.Xi) <= 1e-12
    # oracle agreement
    pair = BlockPair(E=e, F=zeros(2, 2), pattern=Pattern.EI_F0)
    assert compare(out, pair).passed


def test_thm31_no_group_when_e_nilpotent():
    e = jordan_nilpotent(2)
    out = thm31_group(e, zeros(2, 2))
    assert isinstance(out, NoGroupInverse)
    assert "EpiFpi" in out.failed
    m = anti_triangular(e, zeros(2, 2))
    assert svd_index(m) >= 2


def test_thm31_hypothesis_gate():
    e = identity(2)
    f = jordan_nilpotent(2)  # FEF^pi = F F^pi = F != 0
    with pytest.raises(HypothesisError):
        thm31_group(e, f)


def test_thm31_generated_vs_oracle():
    for pair in pairs_for("thm31", 30, seed=9):
        out = thm31_group(pair.E, pair.F)
        assert not isinstance(out, NoGroupInverse)
        assert compare(out, pair).passed


def test_cor32_fixture_and_similarity():
    out = cor32_group(zeros(2, 2), identity(2))
    m = np.block([[zeros(2, 2), identity(2)], [identity(2), zeros(2, 2)]])
    assert_close(out.assemble(), m, 1e-12)
    for pair in pairs_for("cor32", 25, seed=13):
        out = cor32_group(pair.E, pair.F)
        assert not isinstance(out, NoGroupInverse)
        assert compare(out, pair).passed
        # printed display and the similarity route agree
        assert rel_err(cor32_display(pair.E, pair.F), out.assemble()) <= 1e-10


def test_thm33_transpose_duality():
    for pair in pairs_for("thm31", 25, seed=17):
        base = thm31_group(pair.E, pair.F)
        dual = thm33_group(pair.E.T.copy(), pair.F.T.copy())
        assert not isinstance(base, NoGroupInverse)
        assert not isinstance(dual, NoGroupInverse)
        assert rel_err(dual.assemble(), base.assemble().T) <= 1e-10


def test_thm33_generated_vs_oracle():
    out = thm33_group(zeros(2, 2), identity(2))
    assert_close(out.assemble(), np.block([[zeros(2, 2), identity(2)], [identity(2), zeros(2, 2)]]), 1e-12)
    for pair in pairs_for("thm33", 25, seed=29):
        out = thm33_group(pair.E, pair.F)
        assert not isinstance(out, NoGroupInverse)
        assert compare(out, pair).passed
        assert rel_err(thm33_display(pair.E, pair.F), out.assemble()) <= 1e-10


def test_cor34_similarity_and_oracle():
    out = cor34_group(zeros(2, 2), identity(2))
    assert_close(out.assemble(), np.block([[zeros(2, 2), identity(2)], [identity(2), zeros(2, 2)]]), 1e-12)
    for pair in pairs_for("cor34", 25, seed=37):
        out = cor34_group(pair.E, pair.F)
        assert not isinstance(out, NoGroupInverse)
        assert compare(out, pair).passed
        assert rel_err(cor34_display(pair.E, pair.F), out.assemble()) <= 1e-10


def test_cor35_commuting_diagonal():
    for pair in pairs_for("cor35", 25, seed=41):
        out = cor35_group(pair.E, pair.F)
        assert not isinstance(out, NoGroupInverse)
        assert compare(out, pair).passed


def test_cor35_lambda_minus_one():
    e = diag(1, -1)
    f = jordan_nilpotent(2)
    assert frobenius_norm(e @ f + f @ e) <= 1e-14  # EF = -FE
    out = cor35_group(e, f, lam=-1)
    # F is not group invertible, so the assembled matrix cannot be either
    assert isinstance(out, NoGroupInverse)
    assert "FFpi" in out.failed
    m = np.block([[e, f], [identity(2), zeros(2, 2)]])
    assert svd_index(m) >= 2


def test_cor35_commutation_gate():
    e = matrix([[1, 1], [0, 1]])
    f = matrix([[1, 0], [1, 1]])
    with pytest.raises(HypothesisError) as err:
        cor35_group(e, f, lam=1)
    assert set(err.value.residuals) == {"EF-lFE|EF2-FEF"}  # neither alternative holds


@pytest.mark.parametrize("tid,seed", [("thm31", 1), ("cor32", 1), ("thm33", 1), ("cor34", 1), ("cor35", 3)])
def test_idempotent_existence_clause_is_scale_free(tid, seed):
    # E^pi F^pi does not grow with E and F: a threshold that grows as
    # |E| |F| passes a violated pair at scale 1e6 and returns blocks for an
    # M that has no group inverse.  The formula gate and check_conditions agree.
    from antitri import apply_formula, check_conditions
    from antitri.formulas import REGISTRY

    clause = REGISTRY[tid].existence
    bad = generate(GeneratorRecipe(tid, 3, seed, violate=clause))
    good = generate(GeneratorRecipe(tid, 3, seed))
    for s in (1.0, 1e-6, 1e6):
        out = apply_formula(tid, bad.E * s, bad.F * s)
        assert isinstance(out, NoGroupInverse) and clause in out.failed, (s, out)
        entry = check_conditions(bad.E * s, bad.F * s, tid).entry(clause)
        assert not entry.passed and entry.residual == pytest.approx(out.residuals[clause]), s
        assert not isinstance(apply_formula(tid, good.E * s, good.F * s), NoGroupInverse), s


def test_thm41_golden_fixture():
    out = thm41_group(E45, F45)
    assert np.max(np.abs(out.assemble() - M45_GROUP)) <= 1e-12


def test_thm41_blocks_are_the_printed_display_regrouped():
    # the returned blocks form each shared product once; regrouping moves
    # them off the printed display by rounding only, and not at all on the
    # golden fixture; cor42 reads the same body through the transpose
    for pair in pairs_for("thm41", 60, seed=43):
        out = thm41_group(pair.E, pair.F)
        assert rel_err(out.assemble(), thm41_display(pair.E, pair.F)) <= 1e-12
    for pair in pairs_for("cor42", 60, seed=53):
        # cor42 reads the transposed Drazin data of (E, F), as does this display
        data_t = tuple(x.T for x in _drazin_data(pair.E, pair.F))
        want = thm41_display(pair.E.T, pair.F.T, data_t).T
        assert rel_err(cor42_group(pair.E, pair.F).assemble(), want) <= 1e-12
    got, want = thm41_group(E45, F45).assemble(), thm41_display(E45, F45)
    assert np.array_equal(got.view(np.float64), want.view(np.float64))
    got = cor42_group(E45.T.copy(), F45.T.copy()).assemble()
    assert np.array_equal(got.view(np.float64), want.T.copy().view(np.float64))


def test_thm41_f_invertible_e_zero():
    f = matrix([[2, 1], [1, 1]])
    out = thm41_group(zeros(2, 2), f)
    fi = invert(f)
    assert_close(out.Delta, fi, 1e-12)
    assert_close(out.Lambda, fi, 1e-12)
    assert frobenius_norm(out.Gamma) + frobenius_norm(out.Xi) <= 1e-12


def test_thm41_generated_vs_oracle():
    for pair in pairs_for("thm41", 30, seed=43):
        out = thm41_group(pair.E, pair.F)
        assert not isinstance(out, NoGroupInverse)
        assert compare(out, pair).passed
        # printed blocks and the route through [[E, I], [F^2, 0]] agree
        assert rel_err(out.assemble(), thm41_constructive(pair.E, pair.F)) <= 1e-10


def test_thm41_existence_violation():
    pair = generate(GeneratorRecipe("thm41", 3, seed=2, violate="EEpiFpi"))
    out = thm41_group(pair.E, pair.F)
    assert isinstance(out, NoGroupInverse)
    assert out.failed == ("EEpiFpi",)
    assert svd_index(assemble(pair)) >= 2


def test_thm41_requires_group_f():
    with pytest.raises(HypothesisError):
        thm41_group(identity(2), jordan_nilpotent(2))


def test_cor42_transpose_duality():
    for pair in pairs_for("thm41", 25, seed=47):
        base = thm41_group(pair.E, pair.F)
        dual = cor42_group(pair.E.T.copy(), pair.F.T.copy())
        assert not isinstance(base, NoGroupInverse)
        assert not isinstance(dual, NoGroupInverse)
        assert rel_err(dual.assemble(), base.assemble().T) <= 1e-10


def test_cor42_fixture_and_oracle():
    f = matrix([[2, 1], [1, 1]])
    out = cor42_group(zeros(2, 2), f)
    fi = invert(f)
    assert_close(out.Delta, fi, 1e-12)
    assert_close(out.Lambda, fi, 1e-12)
    for pair in pairs_for("cor42", 25, seed=53):
        out = cor42_group(pair.E, pair.F)
        assert not isinstance(out, NoGroupInverse)
        assert compare(out, pair).passed


@pytest.mark.parametrize("seed", [1, 13])
def test_cor42_refuses_an_existence_violated_pair_at_1e160(seed):
    # the unit pair's M has index 2; at 1e160 every threshold overflows to
    # inf, which used to pass FpiEF and FpiEpiE and return group blocks
    pair = generate(GeneratorRecipe("cor42", 3, seed, violate="FpiEpiE"))
    assert svd_index(assemble(pair)) == 2
    with pytest.raises(HypothesisError) as err:
        cor42_group(1e160 * pair.E, 1e160 * pair.F)
    assert err.value.clause == "FpiEF"
    assert "threshold inf" in str(err.value)


def test_cor42_display_block_swap_documented():
    # the printed display puts the transposed off-diagonal formulas in the
    # wrong slots (README, Errata); the returned transpose dual is the
    # swap-corrected display
    seen = False
    for pair in pairs_for("cor42", 25, seed=53):
        out = cor42_group(pair.E, pair.F)
        assert rel_err(cor42_display(pair.E, pair.F, swapped=True), out.assemble()) <= 1e-10
        if rel_err(cor42_display(pair.E, pair.F), out.assemble()) > 1e-10:
            seen = True
            assert compare(out, pair).passed  # returned blocks stay oracle-true
    assert seen


def test_cor42_transpose_dual_example45():
    out = cor42_group(E45.T.copy(), F45.T.copy())
    assert np.max(np.abs(out.assemble() - M45_GROUP.T)) <= 1e-12


def test_cor43_example45_matches_thm41():
    out = cor43_group(E45, F45)
    ref = thm41_group(E45, F45)
    assert_close(out.assemble(), ref.assemble(), 1e-12)
    assert out.notes["hypothesis_family"] in ("FEFpi", "both")


def test_cor43_idempotent_e():
    e = matrix([[1, 1], [0, 0]])
    f = matrix([[2, 1], [1, 1]])
    out = cor43_group(e, f)
    pair = BlockPair(E=e, F=f, pattern=Pattern.EF_F0)
    assert compare(out, pair).passed


def test_cor43_identity_pair():
    out = cor43_group(identity(2), identity(2))
    expected = np.block(
        [[zeros(2, 2), identity(2)], [identity(2), -identity(2)]]
    )  # inverse of [[I, I], [I, 0]]
    assert_close(out.assemble(), expected, 1e-12)


def test_cor43_generated_vs_oracle():
    for pair in pairs_for("cor43", 30, seed=59):
        out = cor43_group(pair.E, pair.F)
        assert compare(out, pair).passed


def test_cor43_requires_group_blocks():
    with pytest.raises(HypothesisError):
        cor43_group(jordan_nilpotent(2), identity(2))
    with pytest.raises(HypothesisError):
        cor43_group(identity(2), jordan_nilpotent(2))


# cor43 seed 18 under the diagonal similarity D = diag(2^-10, 2^10)
COR43_AT_SCALE = """
import numpy as np
from antitri import GeneratorRecipe, HypothesisError, cor43_group, cor44_group, generate
p = generate(GeneratorRecipe("cor43", 2, 18))
d, d_inv = np.diag([2.0**-10, 2.0**10]), np.diag([2.0**10, 2.0**-10])
e, f = d @ p.E @ d_inv, d @ p.F @ d_inv
for body in (cor43_group, cor44_group):
    try:
        print(body(e, f))
    except HypothesisError as err:
        print(err.clause, err.residuals["EEpi"] > 1e6, err)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_cor43_refuses_when_a_delegated_clause_fails(flags):
    # EEpi passes by index (ind E = 1) while its residual reads 3.0e6
    # against a threshold of 561, and the delegated cor42 clause FpiEpiE
    # fails; the refusal must not depend on an assert, which -O removes
    proc = subprocess.run(
        [sys.executable, *flags, "-c", COR43_AT_SCALE], capture_output=True, text=True, check=True
    )
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    for line in lines:
        assert line.startswith(
            "EEpi True cor43: hypothesis EEpi fails (residual 2.994e+06, threshold 5.606e+02)"
        ), line
        assert line.endswith("delegated clause FpiEpiE fails"), line


def test_blockpair_shape_validation():
    from antitri import ShapeError

    with pytest.raises(ShapeError):
        BlockPair(E=zeros(2, 2), F=zeros(3, 3))
    with pytest.raises(ShapeError):
        BlockPair(E=zeros(2, 3), F=zeros(2, 3))
    for lemma in (lemma22_additive, lemma24_additive):  # their holder is a BlockPair of (P, Q)
        for p, q in ((zeros(2, 2), zeros(3, 3)), (zeros(2, 3), zeros(2, 3))):
            with pytest.raises(ShapeError):
                lemma(p, q)
    # e.shape[1] of a 1-d block raised IndexError before the shape check
    e = f = np.zeros(2)
    calls = (
        lambda: apply_formula("thm31", e, f),
        lambda: check_conditions(e, f, "thm31"),
        lambda: lemma22_additive(e, f),
        lambda: assemble(BlockPair(e, f)),
    )
    for call in calls:
        with pytest.raises(ShapeError, match="square of equal size"):
            call()


def test_cor43_hypothesis_family_arbitration():
    # with E, F group invertible, pairs satisfying only F^pi E F = 0 exist;
    # on them the blocks of the F E F^pi family (E^# for E^D) do not match
    # the oracle, while the returned transposed-machinery blocks do --
    # which is why the implementation dispatches on the detected family
    seen_strict = 0
    for pair in pairs_for("cor43", 40, seed=301):
        e, f = pair.E, pair.F
        fpi = drazin(f).idempotent
        scale = max(1.0, frobenius_norm(e)) * max(1.0, frobenius_norm(f))
        fefpi = frobenius_norm(f @ e @ fpi)
        fpief = frobenius_norm(fpi @ e @ f)
        out = cor43_group(e, f)
        assert compare(out, pair).passed
        if fpief <= 1e-10 * scale < fefpi:
            seen_strict += 1
            assert out.notes["hypothesis_family"] == "FpiEF"
            # untransposed-family blocks, forced onto this instance
            wrong = thm41_display(e, f)
            oracle = oracle_drazin(assemble(pair))
            assert rel_err(wrong, oracle) > 1e-6
    assert seen_strict >= 3


def test_cor44_generated_vs_oracle():
    for pair in pairs_for("cor44", 30, seed=61):
        out = cor44_group(pair.E, pair.F)
        assert compare(out, pair).passed


def test_cor44_commutation_gate(rng):
    e = matrix([[1, 1], [0, 1]])
    f = matrix([[1, 0], [1, 1]])
    with pytest.raises(HypothesisError):
        cor44_group(e, f)


# ---------------------------------------------------------------------------
# proof-step identities on generated instances


def test_idempotent_identity_under_f2efpi():
    # F F^D E^D F^pi = 0 whenever F^2 E F^pi = 0
    for pair in pairs_for("thm25", 20, seed=67):
        e, f = pair.E, pair.F
        rf = drazin(f)
        ed = drazin(e).drazin
        scale = max(1.0, frobenius_norm(e)) * max(1.0, frobenius_norm(f))
        assert frobenius_norm(f @ rf.drazin @ ed @ rf.idempotent) <= 1e-8 * scale


def test_idempotent_identity_under_fefpi():
    # F E^D F^pi = 0 whenever F E F^pi = 0
    for pair in pairs_for("thm31", 20, seed=71):
        e, f = pair.E, pair.F
        rf = drazin(f)
        ed = drazin(e).drazin
        scale = max(1.0, frobenius_norm(e)) * max(1.0, frobenius_norm(f))
        assert frobenius_norm(f @ ed @ rf.idempotent) <= 1e-8 * scale


def test_drazin_calls_per_formula(monkeypatch):
    # each formula needs the Drazin data of E and F only; the cor43 and
    # cor44 gates read ind(E) and ind(F) from that data, not from index_of
    import antitri.formulas as formulas
    import antitri.geninv as geninv
    from antitri import THEOREM_IDS, apply_formula

    calls = {"drazin": 0, "index_of": 0}
    for module, name in ((formulas, "drazin"), (geninv, "index_of")):
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert not hasattr(formulas, "index_of")
    for tid in THEOREM_IDS:
        pair = generate(GeneratorRecipe(tid, 3, 0))
        calls.update(drazin=0, index_of=0)
        out = apply_formula(tid, pair.E, pair.F)
        assert not isinstance(out, NoGroupInverse), tid
        assert calls["drazin"] <= 2, (tid, calls)
        assert calls["index_of"] == 0, (tid, calls)


def test_transposed_drazin_data_residuals_are_of_the_transpose():
    # the transpose view reuses drazin(E); its data must satisfy the Drazin
    # axioms of E^T, not of E against the transposed inverse
    from antitri import verify_drazin_axioms
    from antitri.formulas import _DrazinData

    for pair in pairs_for("thm33", 6, seed=5):
        t = _DrazinData(pair.E, pair.F, 1e-10).T
        for a, r in ((pair.E.T, t.E), (pair.F.T, t.F)):
            assert verify_drazin_axioms(a, r.drazin, r.index).overall


def _reference_transposed_holder(d):
    """``d.T`` built the earlier way: through ``__init__``'s checks, its results by ``replace``, A^pi eagerly."""
    import dataclasses

    t = _DrazinData(d.e.T.copy(), d.f.T.copy(), d.tol)
    for name, r in (("E", d.E), ("F", d.F)):
        t.__dict__[name] = dataclasses.replace(r, drazin=r.drazin.T)
        t.__dict__[name].__dict__["idempotent"] = r.idempotent.T
    return t


def test_dual_rows_read_the_seeded_transpose():
    # d.T's A^pi is the transpose of d's own, formed once for both holders
    from antitri.formulas import _run

    read = 0
    for tid in ("thm33", "cor34", "cor35", "cor42"):
        for seed in range(4):
            pair = generate(GeneratorRecipe(tid, 3, seed))
            d = _DrazinData(pair.E, pair.F, DEFAULT_TOL)
            _run(d, tid)
            for name in ("E", "F"):
                dual = vars(d.T).get(name)
                if dual is None or "idempotent" not in vars(dual):
                    continue
                base = vars(getattr(d, name))["idempotent"]
                assert np.shares_memory(dual.idempotent, base) and np.array_equal(dual.idempotent, base.T)
                read += 1
    assert read


def test_transposed_holder_checks_nothing_again_and_answers_as_before(monkeypatch):
    # d.T re-ran the pair and tol checks that d had passed: 8 us of a 120 us
    # thm33_group call; every dual row must still answer as before, bit for bit
    from functools import cached_property

    import antitri.formulas as formulas

    pair = generate(GeneratorRecipe("thm33", 3, 1))
    d = _DrazinData(pair.E, pair.F, DEFAULT_TOL)
    want = _reference_transposed_holder(d)

    def checked(*args):
        raise AssertionError("the transposed pair was checked again")

    with monkeypatch.context() as m:
        for name in ("square_matrix", "require_finite", "require_tol"):
            m.setattr(formulas, name, checked)
        t = d.T
    assert (t.tol, t.lam, t.verdicts) == (want.tol, want.lam, want.verdicts)
    for got, ref in ((t.e, want.e), (t.f, want.f)):
        assert np.array_equal(got, ref) and got.flags.c_contiguous
    for got, ref in ((t.E, want.E), (t.F, want.F)):
        assert got.index == ref.index
        assert np.array_equal(got.drazin, ref.drazin) and np.array_equal(got.idempotent, ref.idempotent)
    reference = cached_property(_reference_transposed_holder)
    reference.__set_name__(_DrazinData, "T")
    for tid in ("thm33", "cor34", "cor35", "cor42", "cor43"):
        for seed in (0, 1000):  # the master sweep's seeds
            for k, pair in enumerate(pairs_for(tid, 40, seed=seed)):
                case = (tid, seed, k)
                got = _outcome(lambda: apply_formula(tid, pair.E, pair.F))
                with monkeypatch.context() as m:
                    m.setattr(_DrazinData, "T", reference)
                    want = _outcome(lambda: apply_formula(tid, pair.E, pair.F))
                if isinstance(want, (str, NoGroupInverse)):
                    assert got == want, case
                    continue
                assert type(got) is type(want) and np.array_equal(got.assemble(), want.assemble()), case
                assert got.notes == want.notes, case


# Derived rows that call their base row's body without re-entering _run, and
# the paper's relation to it: the similarity T = [[0, I], [I, -E]], the
# transpose dual, or the same algebra read as a Drazin inverse.
DIRECT_BASE = {
    "thm27": ("thm25", "drazin"),
    "cor26": ("thm25", "similar"),
    "cor32": ("thm31", "similar"),
    "cor34": ("cor32", "dual"),
    "thm33": ("thm31", "dual"),
    "cor42": ("thm41", "dual"),
}
# Rows that hand the pair to another row through _run, under hypotheses of their own.
DELEGATED = {"cor35": "thm33", "cor44": "cor43"}
# Conjugating by T or transposing swaps [[E, I], [F, 0]] and [[E, F], [I, 0]].
_SWAPPED = {Pattern.EI_F0: Pattern.EF_I0, Pattern.EF_I0: Pattern.EI_F0, Pattern.EF_F0: Pattern.EF_F0}


def test_derived_rows_run_their_base_body_once_gated(monkeypatch):
    # a derived row may skip its base row's gate only because its own gate
    # judged every base clause (the dual clause, on the transposed pair)
    import antitri.formulas as formulas
    from antitri.formulas import _run, dual_clause

    for tid, (base, relation) in DIRECT_BASE.items():
        row, base_row = REGISTRY[tid], REGISTRY[base]
        same = dual_clause if relation == "dual" else (lambda name: name)
        assert row.hypotheses == tuple(map(same, base_row.hypotheses)), tid
        assert row.existence_clauses == tuple(map(same, base_row.existence_clauses)), tid
        pattern = base_row.pattern if relation == "drazin" else _SWAPPED[base_row.pattern]
        kind = InverseKind.DRAZIN if relation == "drazin" else base_row.kind
        assert (row.pattern, row.kind) == (pattern, kind), tid
    for tid, base in DELEGATED.items():
        row, base_row = REGISTRY[tid], REGISTRY[base]
        assert (row.pattern, row.kind) == (base_row.pattern, base_row.kind), tid
        assert row.existence_clauses == base_row.existence_clauses, tid

    # the transposed holder is plain: nothing judges a clause on it, though
    # each of the four rows answers through it on an F^pi E F = 0 pair
    transposed_ids = ("thm33", "cor34", "cor42", "cor43")
    answered = 0
    for pair in pairs_for("cor43", 60, nmax=3, seed=3):
        if _judge(_DrazinData(pair.E, pair.F, DEFAULT_TOL), "FEFpi").passed:
            continue
        holders = [_DrazinData(pair.E, pair.F, DEFAULT_TOL) for _ in transposed_ids]
        outs = [_run(d, tid) for d, tid in zip(holders, transposed_ids)]
        if any(isinstance(out, NoGroupInverse) for out in outs):
            continue
        answered += 1
        assert all(d.T.verdicts == {} for d in holders)
    assert answered >= 3

    calls = {"drazin": 0, "_run": 0}
    for name in calls:
        real = getattr(formulas, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(formulas, name, counted)
    for tid in DIRECT_BASE:
        pair = generate(GeneratorRecipe(tid, 3, 0))
        calls.update(drazin=0, _run=0)
        apply_formula(tid, pair.E, pair.F)
        assert calls["drazin"] <= 2 and calls["_run"] == 1, (tid, calls)


def test_nested_lists_answer_as_their_arrays():
    # a nested list answers as np.asarray of it, bit for bit
    from antitri import example_45

    zero = [[0.0]]
    assert apply_formula("thm31", zero, zero) == apply_formula("thm31", np.asarray(zero), np.asarray(zero))
    assert check_conditions(zero, zero, "thm31") == check_conditions(np.asarray(zero), np.asarray(zero), "thm31")
    ex = example_45()
    listed, arrays = thm41_group(ex.E.tolist(), ex.F.tolist()), thm41_group(ex.E, ex.F)
    for name in ("Gamma", "Delta", "Lambda", "Xi"):
        assert np.array_equal(getattr(listed, name), getattr(arrays, name)), name
    a = [[0.0, 1.0], [0.0, 0.0]]
    listed, arrays = drazin(a), drazin(np.asarray(a))
    assert listed.index == arrays.index == index_of(a) == index_of(np.asarray(a)) == 2
    assert np.array_equal(listed.drazin, arrays.drazin)
    assert np.array_equal(listed.idempotent, arrays.idempotent)


_SQ, _NIL = [[2.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]
_LIST_CASES = [
    (solve, (_SQ, [1.0, 2.0])),
    (invert, (_SQ,)),
    (matrix_power, (_SQ, 3)),
    (verify_drazin_axioms, (_NIL, [[0.0, 0.0], [0.0, 0.0]], 2)),
    (lemma21_triangular, (_SQ, _NIL, [[1.0, 0.0], [0.0, 1.0]])),
    (cline, (_SQ, _NIL)),
]


@pytest.mark.parametrize("fn, args", _LIST_CASES, ids=[fn.__name__ for fn, _ in _LIST_CASES])
def test_matrix_entry_points_take_nested_lists(fn, args):
    # each converts its matrix arguments at entry: a list answers as np.asarray of it, bit for bit
    listed = fn(*args)
    arrays = fn(*(np.asarray(a) if isinstance(a, list) else a for a in args))
    if isinstance(listed, BlockResult):
        assert listed.notes == arrays.notes
        listed, arrays = listed.assemble(), arrays.assemble()
    if isinstance(listed, np.ndarray):
        assert listed.dtype == arrays.dtype and np.array_equal(listed, arrays)
    else:
        assert listed == arrays


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_int_and_float_input_is_computed_in_complex128(dtype):
    # every entry point converts through the core boundary, so int and float
    # input answers as complex128 input does, bit for bit; as int64, the
    # products of 2^32 wrapped
    e, f = np.array([[2, 0], [0, 0]], dtype), np.array([[0, 0], [0, 3]], dtype)
    sq, big = np.array([[2, 1], [0, 1]], dtype), np.array([[0, 2**32], [0, 0]], dtype)

    def answers(c):
        r = drazin(c(big))
        axioms = verify_drazin_axioms(c(big), c(np.zeros((2, 2), dtype)), 2)
        blocks = [
            BlockPair(c(e), c(f)).E,
            r.drazin,
            r.idempotent,
            matrix_power(c(big), 2),
            invert(c(sq)),
            solve(c(sq), c(sq)),
            lemma21_triangular(c(sq), c(big), c(sq)).assemble(),
            cline(c(big), c(sq)),
            # this pair meets every row's hypotheses and existence clauses
            *(apply_formula(tid, c(e), c(f)).assemble() for tid in REGISTRY),
        ]
        return blocks, [x.residual for x in axioms.entries]

    got, got_residuals = answers(lambda m: m)
    want, want_residuals = answers(lambda m: m.astype(np.complex128))
    assert got_residuals == want_residuals
    for g, w in zip(got, want, strict=True):
        assert g.dtype == np.complex128 and g.tobytes() == w.tobytes()


# every 13th pair of 2 x 2 blocks with entries in {-1, 0, 1}: 505 of the 6,561
_INTEGER_PAIRS = list(itertools.product((-1, 0, 1), repeat=8))[::13]


@pytest.mark.parametrize("tid", sorted(REGISTRY))
def test_integer_domain_answers_as_complex128(tid):
    # At unit scale, nested int lists answer right.  At 2^22 the cubic clause
    # products reach 2^67: as int64 they wrapped to 0 mod 2^64, so thm23 answered
    # pairs that complex128 refuses.  int64 input must give the complex128 outcome.
    assert len(_INTEGER_PAIRS) == 505
    pattern = REGISTRY[tid].pattern
    for entries in _INTEGER_PAIRS:
        e, f = np.reshape(entries[:4], (2, 2)), np.reshape(entries[4:], (2, 2))
        out = _outcome(lambda: apply_formula(tid, e.tolist(), f.tolist()))
        if not isinstance(out, str):
            assert compare(out, BlockPair(e, f, pattern)).passed, (tid, entries)
        big = e * 2**22, f * 2**22
        got = _outcome(lambda: apply_formula(tid, *big))
        want = _outcome(lambda: apply_formula(tid, *(m.astype(np.complex128) for m in big)))
        assert type(got) is type(want), (tid, entries)
        if isinstance(want, str):
            assert got == want, (tid, entries)
        elif isinstance(want, NoGroupInverse):
            assert got.failed == want.failed, (tid, entries)
        else:
            assert got.assemble().tobytes() == want.assemble().tobytes(), (tid, entries)


@pytest.mark.parametrize("pattern", ["EI_F0", None, 3])
def test_blockpair_refuses_a_pattern_that_is_not_a_member(pattern):
    # assemble read every value but EI_F0 and EF_I0 members as EF_F0
    with pytest.raises(ValueError, match="Pattern member"):
        BlockPair(identity(2), zeros(2, 2), pattern=pattern)


def test_one_route_per_call():
    # a formula returns its one route; no second opinion rides along in its
    # notes: group answers record only which hypothesis family held (cor43,
    # cor44), the others only their series caps
    from antitri import THEOREM_IDS, apply_formula

    for tid in THEOREM_IDS:
        pair = generate(GeneratorRecipe(tid, 3, 0))
        out = apply_formula(tid, pair.E, pair.F)
        assert not isinstance(out, NoGroupInverse), tid
        group = out.kind is InverseKind.GROUP
        assert set(out.notes) <= ({"hypothesis_family"} if group else {"k", "m", "f_terms", "ind_e"}), tid


PUBLIC = {
    "thm23": thm23,
    "thm25": thm25,
    "cor26": cor26,
    "thm27": thm27,
    "thm31": thm31_group,
    "cor32": cor32_group,
    "thm33": thm33_group,
    "cor34": cor34_group,
    "cor35": cor35_group,
    "thm41": thm41_group,
    "cor42": cor42_group,
    "cor43": cor43_group,
    "cor44": cor44_group,
}


def _outcome(call):
    """The answer, or the clause name of a HypothesisError."""
    try:
        return call()
    except HypothesisError as err:
        return err.clause


def test_public_function_is_its_registry_row():
    # each public formula and apply_formula run the same row on one holder:
    # the same blocks bit for bit, the same NoGroupInverse, the same refusal
    assert set(PUBLIC) == set(REGISTRY)
    for tid, public in PUBLIC.items():
        row, refused = REGISTRY[tid], 0
        for violate in (None, *row.clauses):
            for seed in range(3):
                try:
                    pair = generate(GeneratorRecipe(tid, 3, seed, violate=violate))
                except InfeasibleRecipeError:
                    continue
                case = (tid, violate, seed)
                got = _outcome(lambda: public(pair.E, pair.F))
                want = _outcome(lambda: apply_formula(tid, pair.E, pair.F))
                if isinstance(want, (str, NoGroupInverse)):
                    refused += isinstance(want, str)
                    assert got == want, case
                    continue
                assert type(got) is type(want) and got.pattern is want.pattern is row.pattern, case
                assert got.kind is want.kind is row.kind, case
                assert np.array_equal(got.assemble(), want.assemble()), case
                assert got.notes == want.notes, case
        assert refused, tid


def test_public_names_resolve():
    import antitri

    for name in antitri.__all__:
        assert hasattr(antitri, name), name


def test_library_has_no_assert():
    # behaviour must not change under python -O, which strips asserts
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "antitri"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_formulas_sum_every_series_through_power_sum():
    # one series primitive: no matrix_power and no range loop outside _power_sum
    path = pathlib.Path(__file__).resolve().parents[1] / "src" / "antitri" / "formulas.py"
    tree = ast.parse(path.read_text())

    def range_loops(node):
        return {
            loop.iter.lineno
            for loop in ast.walk(node)
            if isinstance(loop, (ast.For, ast.comprehension))
            and isinstance(loop.iter, ast.Call)
            and getattr(loop.iter.func, "id", None) == "range"
        }

    powers = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "matrix_power")
        or (isinstance(node, ast.alias) and node.name == "matrix_power")
    ]
    helper = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_power_sum"]
    assert len(helper) == 1 and not powers, powers
    assert not range_loops(tree) - range_loops(helper[0])


def test_geninv_and_formulas_convert_no_matrix_themselves():
    # one input boundary: np.asarray and np.array calls live in core, not here
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "antitri"
    found = [
        f"{name}:{node.lineno}"
        for name in ("geninv.py", "formulas.py")
        for node in ast.walk(ast.parse((src / name).read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("asarray", "array")
        and getattr(node.func.value, "id", None) == "np"
    ]
    assert not found, found


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("block", ["E", "F"])
def test_non_finite_input_is_rejected(bad, block):
    # a NaN or Inf residual never exceeds a threshold, so without this
    # check every gate would pass non-finite input through
    from antitri import THEOREM_IDS, apply_formula

    for tid in THEOREM_IDS:
        pair = generate(GeneratorRecipe(tid, 3, 0))
        e, f = pair.E.copy(), pair.F.copy()
        (e if block == "E" else f)[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            apply_formula(tid, e, f)


def test_lam_is_refused_without_commutation_clause():
    from antitri import apply_formula

    with pytest.raises(ValueError, match="lam"):
        apply_formula("thm41", E45, F45, lam=5)
    # check_conditions builds its holder in the same place; it used to report quietly
    with pytest.raises(ValueError, match="thm41 takes no lam"):
        check_conditions(E45, F45, "thm41", lam=5)
    assert not isinstance(apply_formula("cor44", E45, F45, lam=5), NoGroupInverse)


@pytest.mark.parametrize("lam", [math.nan, math.inf, complex(math.nan, 1)])
def test_non_finite_lam_is_refused(lam):
    # a NaN lam passed the either-or clause with residual NaN; inf warned in EF-lFE
    pair = generate(GeneratorRecipe("cor35", 3, 4))
    for call in (cor35_group, cor44_group):
        with pytest.raises(ValueError, match="lam must be finite"):
            call(pair.E, pair.F, lam)
    with pytest.raises(ValueError, match="lam must be finite"):
        check_conditions(pair.E, pair.F, "cor35", lam=lam)


def _nan_corner():
    a = identity(2)
    a[0, 0] = np.nan
    return a


def test_lemma21_triangular_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        lemma21_triangular(_nan_corner(), identity(2), identity(2))


def test_lemma21_triangular_rejects_non_finite_c():
    # drazin checks A and B; C reaches the sums unchecked and gave NaN blocks
    with pytest.raises(ValueError, match="finite"):
        lemma21_triangular(identity(2), identity(2), _nan_corner())


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.inf, np.nan])
def test_bad_tol_is_refused_before_any_judgement(tol):
    # a clause needing no Drazin datum was judged against a threshold of
    # tol * scale: tol = -1 refused thm23 with threshold -3.46 as a failed
    # hypothesis, and tol = nan reported NaN thresholds
    from antitri import THEOREM_IDS, apply_formula, check_conditions

    with pytest.raises(ValueError, match="finite tol > 0"):
        thm23(E45, F45, tol=tol)
    for tid in THEOREM_IDS:
        with pytest.raises(ValueError, match="finite tol > 0"):
            apply_formula(tid, E45, F45, tol=tol)
        with pytest.raises(ValueError, match="finite tol > 0"):
            check_conditions(E45, F45, tid, tol=tol)


def test_cline_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        cline(_nan_corner(), identity(2))
