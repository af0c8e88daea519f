import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antitri import (
    ShapeError,
    SingularMatrixError,
    diag,
    frobenius_norm,
    identity,
    invert,
    matrix,
    matrix_power,
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


def test_matrix_power_examples():
    a = matrix([[1, 1], [0, 1]])
    assert np.array_equal(matrix_power(a, 0), identity(2))
    assert np.array_equal(matrix_power(a, 1), a)
    assert np.array_equal(matrix_power(jordan_nilpotent(2), 2), zeros(2, 2))


def test_rank_factorize_examples():
    assert rank_factorize(zeros(3, 3), 1e-10).rank == 0
    assert rank_factorize(identity(3)).rank == 3
    a = matrix([[1, 2], [2, 4]])
    f = rank_factorize(a)
    assert f.rank == 1
    assert frobenius_norm(a - f.left @ f.right) <= 1e-12


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


def _reference_eliminate(a, tol, floor=0.0):
    """The kernel as it was before its pivot swaps went in place: fancy-index swaps."""
    lu = np.array(a, dtype=np.complex128, copy=True)
    n, m = lu.shape
    prow = np.arange(n)
    pcol = np.arange(m)
    rank = 0
    first_pivot = 0.0
    for k in range(min(n, m)):
        sub = np.abs(lu[k:, k:])
        flat = int(np.argmax(sub))
        i, j = divmod(flat, m - k)
        piv = sub[i, j]
        if k == 0:
            first_pivot = piv
        if piv <= max(tol * first_pivot, floor) or piv == 0.0:
            break
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


def test_eliminate_matches_fancy_index_reference_bit_for_bit(rng):
    from antitri.core import _eliminate

    for a, floor in _kernel_inputs(rng):
        for tol in (1e-10, 1e-3):
            lu, prow, pcol, r = _eliminate(a, tol, floor)
            ref_lu, ref_prow, ref_pcol, ref_r = _reference_eliminate(a, tol, floor)
            assert r == ref_r
            assert np.array_equal(lu.view(np.float64), ref_lu.view(np.float64))
            assert np.array_equal(prow, ref_prow) and np.array_equal(pcol, ref_pcol)


def test_factorization_inverse_is_invert_bit_for_bit(rng):
    checked = 0
    for a, floor in _kernel_inputs(rng):
        n, m = a.shape
        f = rank_factorize(a, 1e-10, floor)
        if n != m:
            with pytest.raises(ShapeError):
                f.inverse()
        elif f.rank < n:
            with pytest.raises(SingularMatrixError):
                f.inverse()
            with pytest.raises(SingularMatrixError):
                invert(a, 1e-10, floor)
        else:
            want = invert(a, 1e-10, floor)
            assert np.array_equal(f.inverse().view(np.float64), want.view(np.float64))
            checked += 1
    assert checked >= 40


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


def test_lazy_factors_match_tril_triu_reference_bit_for_bit(rng):
    for a, floor in _kernel_inputs(rng):
        for tol in (1e-10, 1e-3):
            f = rank_factorize(a, tol, floor)
            assert "left" not in f.__dict__ and "right" not in f.__dict__
            left, right = _reference_factors(*f._elimination, f.rank)
            assert f._elimination[1].dtype == f._elimination[2].dtype == np.intp
            assert f.left.shape == left.shape and f.right.shape == right.shape
            assert np.array_equal(f.left.view(np.float64), left.view(np.float64))
            assert np.array_equal(f.right.view(np.float64), right.view(np.float64))
            assert f.left is f.left and f.right is f.right


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
    with pytest.raises(SingularMatrixError):
        rank_factorize(a, 1e-10).inverse()
    assert np.array_equal(invert(a, 1e-13), diag(1, 1e12))


def test_factorization_inverse_does_not_alias_its_input():
    a = matrix([[2, 1], [1, 3]])
    f = rank_factorize(a)
    want = invert(a)
    a[0, 0] = 100.0
    assert np.array_equal(f.inverse(), want)


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
