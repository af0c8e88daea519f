import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antitri import (
    RankFactorization,
    ShapeError,
    SingularMatrixError,
    diag,
    frobenius_norm,
    identity,
    invert,
    matrix,
    matrix_power,
    rank,
    rank_factorize,
    solve,
    zeros,
)
from conftest import jordan_nilpotent, random_complex, rel_err, well_conditioned


def test_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        matrix([[np.inf]])
    with pytest.raises(ShapeError):
        matrix([1, 2, 3])


def test_frobenius_norm_examples():
    assert frobenius_norm(zeros(3, 3)) == 0.0
    assert frobenius_norm(identity(4)) == pytest.approx(2.0)
    assert frobenius_norm(matrix([[3, 4j]])) == pytest.approx(5.0)


def test_frobenius_norm_is_exact_across_the_exponent_range():
    # squared at their own scale, 1e160 J read inf and 1e-170 J read 0.0
    j = matrix([[1, 1], [1, 1]])
    for k in range(-1000, 1001, 50):
        assert frobenius_norm(2.0**k * j) == 2.0 ** (k + 1), k


def _prescaled_norm(a):
    """Reference: the squared moduli of a * 2^-e summed, e the binary exponent of max|a|."""
    if a.size == 0:
        return 0.0
    mag = np.abs(a)
    e = math.frexp(mag.max())[1]
    np.ldexp(mag, -e, out=mag)
    np.square(mag, out=mag)
    return float(np.ldexp(math.sqrt(mag.sum()), e))


def _assert_norm_matches_reference(a):
    want = _prescaled_norm(a)
    got = frobenius_norm(a)
    assert abs(got - want) <= 4 * 2.0**-52 * math.sqrt(a.size) * want, (a.shape, got, want)


def test_frobenius_norm_matches_the_prescaled_reference():
    # the one-dot path below the floor and beyond overflow hands over to
    # the prescaled one; k spans both hand-overs and the range between
    rng = np.random.default_rng(1414)
    for n in range(9):
        re, im = rng.uniform(-1, 1, (2, n, n))
        for base in (re + 1j * im, re):
            for k in range(-600, 601, 25):
                a = base * 2.0**k
                for view in (a, a.T, a[:, ::2]):
                    _assert_norm_matches_reference(view)


def test_frobenius_norm_on_either_side_of_the_floor():
    c = 2.0**-451  # four entries c: the sum of squares is exactly 2^-900
    below = np.full((2, 2), c * (1 - 2.0**-20), dtype=np.complex128)
    above = np.full((2, 2), c * (1 + 2.0**-20), dtype=np.complex128)
    assert np.vdot(below, below).real < 2.0**-900 < np.vdot(above, above).real
    # squares that underflow beside one of 2^-900 cannot move the sum
    mixed = np.full((8, 8), 2.0**-540, dtype=np.complex128)
    mixed[0, 0] = 2.0**-450
    for a in (below, above, mixed):
        _assert_norm_matches_reference(a)


def test_frobenius_norm_of_zero_tiny_and_non_finite_matrices():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius_norm(1e-170 * matrix([[1, 1], [1, 1]])) == pytest.approx(2e-170)
        for shape in ((3, 3), (0, 0), (0, 4), (4, 0)):
            assert frobenius_norm(zeros(*shape)) == 0.0
        assert math.isnan(frobenius_norm(np.array([[1.0, np.nan]], dtype=np.complex128)))
        assert math.isnan(frobenius_norm(np.array([[np.inf, np.nan]], dtype=np.complex128)))
        assert frobenius_norm(np.array([[1.0, -np.inf]], dtype=np.complex128)) == math.inf
        assert frobenius_norm(np.array([[complex(0, np.inf)]])) == math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_frobenius_norm_of_a_non_finite_matrix_with_a_large_entry():
    # max|a| is NaN or inf: returned as it is, without squaring unscaled entries
    assert math.isnan(frobenius_norm(np.array([[np.nan, 1e160]], dtype=np.complex128)))
    assert frobenius_norm(np.array([[np.inf, 1e160]], dtype=np.complex128)) == math.inf
    assert frobenius_norm(np.array([[complex(np.inf, np.nan), 1e160]])) == math.inf


def _identity_first_power(a, k):
    """Reference: a**k by the same squarings, with the product started from the identity."""
    result = identity(a.shape[0])
    base = a.copy()
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


def test_matrix_power_matches_the_identity_first_loop_bit_for_bit(rng):
    # I @ a can flip the sign of a zero part (0 + 2j came back as -0 + 2j), so
    # inputs with zero parts are held to ==, and the others bit for bit
    signed = [jordan_nilpotent(3), matrix([[0, -1], [1, 0]]), zeros(2, 2), zeros(0, 0)]
    signed += [matrix(rng.integers(-2, 3, (n, n)) + 1j * rng.integers(-2, 3, (n, n))) for n in range(1, 9)]
    cases = [(random_complex(rng, n), True) for n in range(1, 9) for _ in range(3)]
    cases += [(a, False) for a in signed]
    for a, bitwise in cases:
        for k in range(9):
            got, want = matrix_power(a, k), _identity_first_power(a, k)
            assert got is not a
            assert np.array_equal(got, want), (a, k)
            assert got.tobytes() == want.tobytes() or not bitwise, (a, k)


def test_matrix_power_examples():
    a = matrix([[1, 1], [0, 1]])
    assert np.array_equal(matrix_power(a, 0), identity(2))
    assert np.array_equal(matrix_power(a, 1), a)
    assert np.array_equal(matrix_power(jordan_nilpotent(2), 2), zeros(2, 2))


def test_frobenius_norm_of_integer_input_is_exact():
    # an int64 vdot wrapped (2^32 + 1)^2 and the norm read 92681.9
    assert frobenius_norm(np.array([[2**32 + 1, 0]])) == 2**32 + 1


def test_matrix_power_of_integer_input_is_exact():
    # as int64 the square of 2^32 wrapped to 0
    squared = matrix_power(np.array([[2**32]]), 2)
    assert squared.dtype == np.complex128 and squared[0, 0] == 2**64


def test_matrix_power_refuses_a_1d_array():
    # a.shape[1] of a 1-d array raised IndexError before the shape check
    with pytest.raises(ShapeError):
        matrix_power(np.zeros(3), 2)


def test_rank_factorize_examples():
    assert rank_factorize(zeros(3, 3), 1e-10).rank == 0
    assert rank_factorize(identity(3)).rank == 3
    a = matrix([[1, 2], [2, 4]])
    f = rank_factorize(a)
    assert f.rank == 1
    assert frobenius_norm(a - f.left @ f.right) <= 1e-12


@pytest.mark.parametrize("a", [np.array(1.0), np.array([1.0, 2.0]), np.ones((2, 2, 2))], ids=["0d", "1d", "3d"])
def test_rank_refuses_input_that_is_not_2d(a):
    # unpacking w.shape raised "not enough / too many values to unpack"
    for call in (rank, rank_factorize):
        with pytest.raises(ShapeError, match="2-d matrix"):
            call(a)


def test_rank_zero_factors_are_empty():
    f = rank_factorize(zeros(2, 2))
    assert f.left.shape == (2, 0) and f.right.shape == (0, 2)
    assert np.array_equal(f.left @ f.right, zeros(2, 2))


def test_invert_examples():
    assert np.allclose(invert(identity(3)), identity(3))
    assert np.allclose(invert(diag(2, 4)), diag(0.5, 0.25))
    with pytest.raises(SingularMatrixError):
        invert(jordan_nilpotent(2))


def test_solve_shapes():
    with pytest.raises(ShapeError):
        solve(zeros(2, 3), zeros(2, 2))
    with pytest.raises(ShapeError):
        solve(identity(2), zeros(3, 1))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 8))
def test_matmul_associativity(seed, n):
    rng = np.random.default_rng(seed)
    a, b, c = (random_complex(rng, n) for _ in range(3))
    assert rel_err((a @ b) @ c, a @ (b @ c)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
def test_rank_factorize_reconstruction(seed, n):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n))
    a = random_complex(rng, n, r) @ random_complex(rng, r, n)  # rank <= r by construction
    tol = 1e-10
    f = rank_factorize(a, tol)
    assert f.rank <= r
    assert frobenius_norm(a - f.left @ f.right) <= 10 * tol * max(1.0, frobenius_norm(a))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 8))
def test_solve_residual(seed, n):
    rng = np.random.default_rng(seed)
    a = well_conditioned(rng, n)
    b = random_complex(rng, n, 2)
    x = solve(a, b)
    assert frobenius_norm(a @ x - b) <= 1e-10 * max(1.0, frobenius_norm(a)) * max(
        1.0, frobenius_norm(x)
    )


def test_empty_matrices_behave_as_zero():
    tall = zeros(3, 0)
    wide = zeros(0, 3)
    assert np.array_equal(tall @ wide, zeros(3, 3))
    assert frobenius_norm(tall) == 0.0


def test_block2x2_matches_np_block_bit_for_bit(rng):
    from antitri.core import block2x2

    for r in range(4):
        for z in range(4):  # z = 0 gives the empty blocks the generator builds
            tl, tr = random_complex(rng, r), random_complex(rng, r, z)
            bl, br = random_complex(rng, z, r), random_complex(rng, z)
            got = block2x2(tl, tr, bl, br)
            want = np.block([[tl, tr], [bl, br]])
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.float64), want.view(np.float64))
    with pytest.raises(ShapeError):
        block2x2(zeros(2, 2), zeros(2, 3), zeros(1, 2), zeros(1, 1))  # would broadcast


def _reference_eliminate(a, tol, floor=0.0, ties=None):
    """A swapping GECP with np.outer updates; a tie for the largest modulus goes to
    the smallest original (row, column).  Appends to ``ties`` the pivot count
    before each tie it decides."""
    lu = np.array(a, dtype=np.complex128, copy=True)
    n, m = lu.shape
    prow = np.arange(n)
    pcol = np.arange(m)
    rank = 0
    first_pivot = 0.0
    for k in range(min(n, m)):
        sub = np.abs(lu[k:, k:])
        tied = np.argwhere(sub == sub.max())
        i, j = min(tied, key=lambda c: (prow[k + c[0]], pcol[k + c[1]]))
        piv = sub[i, j]
        if k == 0:
            first_pivot = piv
        if piv <= max(tol * first_pivot, floor) or piv == 0.0:
            break
        if len(tied) > 1 and ties is not None:
            ties.append(k)
        i += k
        j += k
        if i != k:
            lu[[k, i], :] = lu[[i, k], :]
            prow[[k, i]] = prow[[i, k]]
        if j != k:
            lu[:, [k, j]] = lu[:, [j, k]]
            pcol[[k, j]] = pcol[[j, k]]
        rank += 1
        if k + 1 < n:
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, prow, pcol, rank


def _kernel_inputs(rng):
    """Square, rectangular, rank-deficient, tie-heavy and empty inputs, with floors."""
    out = [(zeros(0, 0), 0.0), (zeros(0, 3), 0.0), (zeros(3, 0), 0.0), (zeros(3, 3), 0.0)]
    for t in range(240):
        n, m = (int(x) for x in rng.integers(1, 9, 2))
        if t % 3 == 0:
            m = n
        a = random_complex(rng, n, m)
        if t % 4 == 1:  # rank-deficient product
            r = int(rng.integers(0, min(n, m) + 1))
            a = random_complex(rng, n, r) @ random_complex(rng, r, m)
        elif t % 4 == 2:  # integer entries: many tied pivot candidates
            a = matrix(np.round(2 * a.real))
        floor = 0.0 if t % 2 else float(rng.uniform(0, 0.5)) * float(np.max(np.abs(a)))
        out.append((a, floor))
    return out


def _assert_reference_factors(left, right, r, a, tol, floor, ties=None):
    """Rank and factors of the swapping reference kernel, value for value; left C-contiguous."""
    ref_left, ref_right = _reference_factors(*_reference_eliminate(a, tol, floor, ties))
    assert r == ref_left.shape[1]
    assert left.shape == ref_left.shape and right.shape == ref_right.shape
    assert left.dtype == right.dtype == np.complex128
    assert left.flags.c_contiguous and right.flags.c_contiguous
    assert np.array_equal(left.view(np.float64), ref_left.view(np.float64))
    assert np.array_equal(right.view(np.float64), ref_right.view(np.float64))


def test_eliminate_matches_fancy_index_reference_bit_for_bit(rng):
    from antitri.core import _eliminate

    for a, floor in _kernel_inputs(rng):
        for tol in (1e-10, 1e-3):
            _assert_reference_factors(*_eliminate(a, tol, floor), a, tol, floor)


def test_factorization_inverse_is_invert_bit_for_bit(rng):
    # invert and solve hand the caller's matrix to LAPACK once the elimination certifies it
    checked = 0
    for a, floor in _kernel_inputs(rng):
        n, m = a.shape
        f = rank_factorize(a, 1e-10, floor)
        if n != m or f.rank < n:
            error = ShapeError if n != m else SingularMatrixError
            with pytest.raises(error):
                invert(a, 1e-10, floor)
            with pytest.raises(error):
                solve(a, identity(n), 1e-10, floor)
        else:
            want = np.linalg.inv(a).view(np.float64)
            assert np.array_equal(invert(a, 1e-10, floor).view(np.float64), want)
            want = np.linalg.solve(a, identity(n)).view(np.float64)
            assert np.array_equal(solve(a, identity(n), 1e-10, floor).view(np.float64), want)
            checked += 1
    assert checked >= 40


def test_inverse_certificate_refuses_a_pivot_within_its_margin_of_the_cut():
    # the smallest pivot of diag(1, 1e-9), of full rank at tol 1e-10, and of
    # diag(1, 1e-11), of rank 1, lies within INVERSE_MARGIN of the cut: the
    # elimination must decide.  Beyond the margin LAPACK's inverse is returned
    from antitri.core import certified_inverse

    for a, r in ((diag(1, 1e-9), 2), (diag(1, 1e-11), 1)):
        assert rank_factorize(a, 1e-10).rank == r
        assert certified_inverse(a, 1e-10) is None
    a = diag(1, 1e-5)
    assert np.array_equal(certified_inverse(a, 1e-10), np.linalg.inv(a))
    assert certified_inverse(a, 1e-10, floor=1e-9) is None  # the floor raises the cut
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert certified_inverse(jordan_nilpotent(3), 1e-10) is None  # LAPACK: singular
        assert certified_inverse(zeros(2, 2), 1e-10, floor=1e-10) is None


def _lapack_inputs(rng):
    """Random, tie-heavy integer and 1e-6/1e6-rescaled square inputs, n = 1..32."""
    for n in range(1, 33):
        a = random_complex(rng, n)
        ties = matrix(rng.integers(-2, 3, (n, n)) + 1j * rng.integers(-2, 3, (n, n)))
        yield from (a, ties, a * 1e-6, a * 1e6, ties * 1e-6, ties * 1e6)


def test_inverse_is_lapack_solve_on_the_identity_bit_for_bit(rng):
    # invert is LAPACK inv, which is gesv on the identity, as solve(a, I) is
    checked = 0
    for a in _lapack_inputs(rng):
        n = a.shape[0]
        if rank_factorize(a).rank < n:
            with pytest.raises(SingularMatrixError):
                invert(a)
            continue
        want = np.linalg.solve(a, identity(n)).view(np.float64)
        assert np.array_equal(solve(a, identity(n)).view(np.float64), want)
        assert np.array_equal(invert(a).view(np.float64), want)
        checked += 1
    assert checked >= 150


def _large_kernel_inputs(rng):
    """Rectangular, rank-deficient and integer-tied inputs with n, m in 9..32."""
    for t in range(60):
        n, m = (int(x) for x in rng.integers(9, 33, 2))
        if t % 5 == 0:  # entries in {-1, 0, 1} + i{-1, 0, 1}
            yield matrix(rng.integers(-1, 2, (n, m)) + 1j * rng.integers(-1, 2, (n, m)))
        elif t % 5 == 1:  # integer product of rank <= r
            r = int(rng.integers(1, min(n, m)))
            yield matrix(rng.integers(-1, 2, (n, r)) @ rng.integers(-1, 2, (r, m)))
        elif t % 5 == 2:  # sparse integers: the entries stay tied for many steps
            yield matrix(rng.integers(-1, 2, (n, m)) * (rng.random((n, m)) < 0.15))
        elif t % 5 == 3:  # unit-modulus entries at scattered positions: a tie at every step
            a = zeros(n, m)
            rows, cols = rng.permutation(n), rng.permutation(m)
            k = min(n, m) - int(rng.integers(0, 3))
            a[rows[:k], cols[:k]] = np.exp(2j * np.pi * rng.integers(0, 8, k) / 8)
            yield a
        else:
            yield random_complex(rng, n, m)


def test_eliminate_matches_reference_up_to_n32_bit_for_bit(rng):
    from antitri.core import _eliminate

    ties = []  # pivots taken before each tie the reference decided
    for a in [*_lapack_inputs(rng), *_large_kernel_inputs(rng)]:
        for tol, floor in ((1e-10, 0.0), (1e-3, 1e-10 * float(np.max(np.abs(a))))):
            _assert_reference_factors(*_eliminate(a, tol, floor), a, tol, floor, ties)
    assert len(ties) >= 500 and max(ties) >= 16


def test_eliminate_breaks_a_tie_by_the_first_maximum_in_row_major_order():
    from antitri.core import _eliminate

    # after the pivot at (0, 2), |W| ties at (1, 0), (1, 1), (2, 0) and (2, 1);
    # the first in row-major order is (1, 0), which leaves [0, 2, 0] in row 2
    _, right, r = _eliminate(matrix([[0, 0, 1], [1, -1, -1], [1, 1, -1]]), 1e-10)
    assert r == 3
    assert np.array_equal(right, matrix([[0, 0, 1], [1, -1, 0], [0, 2, 0]]))


def _reference_factors(lu, prow, pcol, r):
    """The factors as rank_factorize built them eagerly: np.tril / np.triu."""
    n, m = lu.shape
    left = np.zeros((n, r), dtype=np.complex128)
    right = np.zeros((r, m), dtype=np.complex128)
    lower = np.tril(lu[:, :r], -1)
    lower[np.arange(r), np.arange(r)] = 1.0
    left[prow, :] = lower
    right[:, pcol] = np.triu(lu[:r, :])
    return left, right


def test_factors_match_tril_triu_reference_bit_for_bit(rng):
    for a, floor in _kernel_inputs(rng):
        for tol in (1e-10, 1e-3):
            f = rank_factorize(a, tol, floor)
            _assert_reference_factors(f.left, f.right, f.rank, a, tol, floor)


def test_solve_vector_right_hand_side():
    a = matrix([[2, 1], [1, 3]])
    b = np.array([1, 2], dtype=complex)
    x = solve(a, b)
    assert x.shape == (2,)
    assert frobenius_norm((a @ x - b)[:, None]) <= 1e-14
    assert np.array_equal(x, solve(a, b[:, None])[:, 0])


def test_elimination_not_lapack_decides_singularity():
    # LAPACK inverts diag(1, 1e-12) without complaint; the pivot threshold
    # of the elimination refuses it, and every solve path keeps that verdict
    a = diag(1, 1e-12)
    assert np.all(np.isfinite(np.linalg.inv(a)))
    with pytest.raises(SingularMatrixError):
        solve(a, identity(2), 1e-10)
    with pytest.raises(SingularMatrixError):
        invert(a, 1e-10)
    assert np.array_equal(invert(a, 1e-13), diag(1, 1e12))


def test_rank_factorization_holds_only_its_factors():
    assert [f.name for f in dataclasses.fields(RankFactorization)] == ["rank", "left", "right"]


def test_a_real_matrix_is_inverted_as_complex():
    from antitri import drazin

    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert invert(a).tobytes() == np.linalg.inv(matrix(a)).tobytes()
    assert solve(a, np.ones(2)).dtype == np.complex128
    assert drazin(a).drazin.tobytes() == drazin(matrix(a)).drazin.tobytes()


def test_bad_tol_message_names_the_value_not_rank_factorize():
    # every caller's bad tol was reported as "rank_factorize requires ..."
    from antitri import check_conditions, drazin, thm41_group

    e, f = matrix([[1, 2], [0, -1]]), matrix([[1j, 1j], [0, 0]])
    calls = (
        lambda: rank_factorize(e, 0),
        lambda: drazin(e, 0),
        lambda: thm41_group(e, f, tol=0),
        lambda: check_conditions(e, f, "thm41", tol=0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="finite tol > 0") as err:
            call()
        assert "tol=0" in str(err.value) and "rank_factorize" not in str(err.value)


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.inf, np.nan])
def test_rank_factorize_rejects_non_finite_or_non_positive_tol(tol):
    # tol = inf made every pivot fall below the cut, so drazin of the
    # idempotent [[1, 1], [0, 0]] returned 0 with index 1; tol = nan
    # dropped the relative cut without a word
    with pytest.raises(ValueError, match="finite tol > 0"):
        rank_factorize(identity(2), tol)
    if tol == np.inf:
        from antitri import drazin

        with pytest.raises(ValueError, match="finite tol > 0"):
            drazin(matrix([[1, 1], [0, 0]]), tol)
