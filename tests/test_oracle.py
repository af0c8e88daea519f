import math

import numpy as np
import pytest

from antitri import (
    BlockPair,
    BlockResult,
    DrazinResult,
    GroupFormulaBlocks,
    GeneratorRecipe,
    InverseKind,
    NoGroupInverse,
    Pattern,
    assemble,
    compare,
    drazin,
    example_45,
    frobenius_norm,
    generate,
    identity,
    matrix,
    oracle_inverse,
    thm31_group,
    thm41_group,
    verify_drazin_axioms,
    zeros,
)
from antitri.oracle import oracle_has_group_inverse
from conftest import assert_close, jordan_nilpotent


def test_assemble_patterns():
    z = zeros(2, 2)
    pair = BlockPair(E=z, F=z, pattern=Pattern.EI_F0)
    assert np.array_equal(
        assemble(pair), np.block([[z, identity(2)], [z, z]])
    )
    ex = example_45()
    m = assemble(ex)
    expected = np.block([[ex.E, ex.F], [ex.F, zeros(2, 2)]])
    assert np.array_equal(m, expected)
    sym_pair = BlockPair(E=matrix([[1, 2], [2, 3]]), F=matrix([[0, 1], [1, 0]]), pattern=Pattern.EF_F0)
    sm = assemble(sym_pair)
    assert frobenius_norm(sm - sm.T) == 0  # symmetric blocks give a symmetric assembly


def test_oracle_inverse_group_fixture():
    ex = example_45()
    out = oracle_inverse(ex)
    assert isinstance(out, DrazinResult) and out.index == 1
    expected = matrix(
        [[0, 1, -1j, -1j], [0, -1, 0, 0], [-1j, -1j, 1, 1], [0, 0, 0, 0]]
    )
    assert_close(out.drazin, expected, 1e-12)


def test_oracle_inverse_involution():
    pair = BlockPair(E=zeros(2, 2), F=identity(2), pattern=Pattern.EI_F0)
    out = oracle_inverse(pair)
    assert_close(out.drazin, assemble(pair), 1e-12)  # M^2 = I


def test_oracle_inverse_no_group():
    pair = BlockPair(E=jordan_nilpotent(2), F=zeros(2, 2), pattern=Pattern.EI_F0)
    assert oracle_inverse(pair).index >= 2


def test_compare_fixture_and_corruption():
    ex = example_45()
    res = thm41_group(ex.E, ex.F)
    verdict = compare(res, ex)
    assert verdict.passed and verdict.relative_error <= 1e-12
    assert verdict.oracle_index == 1
    assert verdict.axioms.overall

    from dataclasses import replace

    corrupted = replace(res, Gamma=res.Gamma + 1.0)
    bad = compare(corrupted, ex)
    assert not bad.passed
    assert not bad.axioms.overall


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
def test_compare_refuses_a_tolerance_outside_zero_to_inf(tol):
    # at tol = inf a corrupted answer, 0.707 relative error, passed
    from dataclasses import replace

    ex = example_45()
    res = thm41_group(ex.E, ex.F)
    for x in (res, replace(res, Gamma=res.Gamma + 1.0)):
        with pytest.raises(ValueError, match="compare tol must be finite and >= 0"):
            compare(x, ex, tol)


def test_compare_at_zero_tol_asks_for_an_exact_match():
    from dataclasses import replace

    ex = example_45()
    res = thm41_group(ex.E, ex.F)
    verdict = compare(res, ex, 0.0)
    assert verdict.passed == (verdict.relative_error == 0.0)
    assert not compare(replace(res, Gamma=res.Gamma + 1e-12), ex, 0.0).passed


def test_compare_judges_small_answers_on_their_own_scale():
    # at E, F x 1e9 the group inverse has norm ~1e-9: an all-zero answer is
    # wrong by 100 %, which a denominator clamped at 1 would read as 1e-9
    from dataclasses import replace

    ex = example_45()
    for s in (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9):
        pair = replace(ex, E=s * ex.E, F=s * ex.F)
        res = thm41_group(pair.E, pair.F)
        assert compare(res, pair).passed
        zero = replace(res, Gamma=0 * res.Gamma, Delta=0 * res.Delta,
                       Lambda=0 * res.Lambda, Xi=0 * res.Xi)
        verdict = compare(zero, pair)
        assert not verdict.passed and verdict.relative_error == 1.0


def test_compare_judges_a_no_group_answer_by_the_oracle_index():
    # nonexistence is a theorem's answer too: it passes iff ind(M) >= 2
    pair = BlockPair(E=jordan_nilpotent(2), F=zeros(2, 2), pattern=Pattern.EI_F0)
    out = thm31_group(pair.E, pair.F)
    assert isinstance(out, NoGroupInverse)
    verdict = compare(out, pair)
    assert verdict.passed and verdict.oracle_index == 3
    assert verdict.relative_error is None and verdict.axioms is None
    wrong = compare(NoGroupInverse(("EpiFpi",)), example_45())
    assert not wrong.passed and wrong.oracle_index == 1
    assert wrong.relative_error is None and wrong.axioms is None


def test_compare_fails_group_blocks_where_ind_m_exceeds_one():
    # the blocks of M^D at ind(M) = 3 are a right Drazin answer but no group inverse
    pair = BlockPair(E=jordan_nilpotent(2), F=zeros(2, 2), pattern=Pattern.EI_F0)
    d = drazin(assemble(pair)).drazin
    blocks = (d[:2, :2], d[:2, 2:], d[2:, :2], d[2:, 2:])
    as_group = compare(GroupFormulaBlocks(*blocks, pattern=pair.pattern), pair)
    as_drazin = compare(BlockResult(*blocks, kind=InverseKind.DRAZIN, pattern=pair.pattern), pair)
    assert as_group.oracle_index == as_drazin.oracle_index == 3
    assert as_group.relative_error == as_drazin.relative_error == 0.0
    assert not as_group.passed and as_drazin.passed


def test_compare_pattern_mismatch():
    ex = example_45()
    res = thm41_group(ex.E, ex.F)
    wrong = BlockPair(E=ex.E, F=ex.F, pattern=Pattern.EI_F0)
    with pytest.raises(ValueError):
        compare(res, wrong)
    bigger = BlockPair(E=identity(3), F=zeros(3, 3), pattern=Pattern.EF_F0)
    with pytest.raises(ValueError, match="shape mismatch"):
        compare(res, bigger)


def test_oracle_self_consistency():
    for seed in range(20):
        pair = generate(GeneratorRecipe("thm25", 1 + seed % 4, seed))
        m = assemble(pair)
        r = drazin(m)
        assert verify_drazin_axioms(m, r.drazin, r.index).overall


def test_pattern_coherence_similarity():
    # [[E,F],[I,0]] = P^-1 [[E,I],[F,0]] P with P = [[0,I],[I,-E]], exactly
    # on integer fixtures
    e = matrix([[1, 2], [0, -1]])
    f = matrix([[1, 1], [0, 0]])
    n = 2
    m_eif0 = assemble(BlockPair(E=e, F=f, pattern=Pattern.EI_F0))
    m_efi0 = assemble(BlockPair(E=e, F=f, pattern=Pattern.EF_I0))
    p = np.block([[zeros(n, n), identity(n)], [identity(n), -e]])
    p_inv = np.block([[e, identity(n)], [identity(n), zeros(n, n)]])
    assert frobenius_norm(p_inv @ p - identity(2 * n)) == 0
    assert frobenius_norm(m_efi0 - p_inv @ m_eif0 @ p) <= 1e-12


def test_group_existence_reads_the_drazin_index():
    # non-normal M, |M|_2 = 67, SVD ranks of its powers 8, 7, 6, 5, 4, 3, 3:
    # index 5, where ranking raw powers against an absolute floor reads 8
    pair = generate(GeneratorRecipe("thm25", 4, 35))
    assert oracle_has_group_inverse(pair) == (False, 5)
    assert oracle_has_group_inverse(example_45()) == (True, 1)
