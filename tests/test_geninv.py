import math

import numpy as np
import pytest

from antitri import (
    DrazinResult,
    GeneratorRecipe,
    NoGroupInverseError,
    assemble,
    diag,
    drazin,
    frobenius_norm,
    generate,
    group_inverse,
    identity,
    index_of,
    invert,
    matrix,
    matrix_power,
    rank,
    rank_factorize,
    solve,
    spectral_idempotent,
    verify_drazin_axioms,
    zeros,
)
from conftest import (
    assert_close,
    jordan_nilpotent,
    mixed_similarity,
    random_complex,
    rel_err,
    well_conditioned,
)

E45 = matrix([[1, 2], [0, -1]])
F45 = matrix([[1j, 1j], [0, 0]])


def test_index_examples():
    assert index_of(identity(3)) == 0
    assert index_of(jordan_nilpotent(2)) == 2
    assert index_of(F45) == 1
    assert rank(F45) == rank(F45 @ F45) == 1


def test_drazin_zero_matrix():
    r = drazin(zeros(2, 2))
    assert np.array_equal(r.drazin, zeros(2, 2))
    assert r.index == 1


def test_drazin_invertible():
    r = drazin(diag(2, 3))
    assert_close(r.drazin, diag(0.5, 1 / 3), 1e-12)
    assert r.index == 0
    assert_close(r.drazin, invert(diag(2, 3)), 1e-12)


def test_drazin_idempotent_like():
    a = matrix([[1, 1], [0, 0]])  # a^2 = a
    r = drazin(a)
    assert_close(r.drazin, a, 1e-12)
    assert r.index == 1


def test_drazin_similarity_built(rng):
    # S diag(C, N) S^-1 must invert to S diag(C^-1, 0) S^-1
    for _ in range(20):
        a, block, s, s_inv = mixed_similarity(rng, 4)
        r = int(np.count_nonzero(np.abs(np.diag(block)) > 0.1))
        core = zeros(4, 4)
        if r:
            core[:r, :r] = invert(block[:r, :r])
        expected = s @ core @ s_inv
        assert rel_err(drazin(a).drazin, expected) <= 1e-9


def test_spectral_idempotent_examples():
    assert_close(spectral_idempotent(diag(2, 3)), zeros(2, 2), 1e-12)
    assert_close(spectral_idempotent(zeros(3, 3)), identity(3), 1e-12)
    assert_close(spectral_idempotent(F45), matrix([[0, -1], [0, 1]]), 1e-12)


def test_group_inverse_examples():
    with pytest.raises(NoGroupInverseError) as err:
        group_inverse(jordan_nilpotent(2))
    assert err.value.index == 2
    assert_close(group_inverse(E45).drazin, E45, 1e-12)
    assert_close(group_inverse(F45).drazin, matrix([[-1j, -1j], [0, 0]]), 1e-12)


def test_group_inverse_is_the_drazin_result():
    # A^# = A^D at index <= 1, so both inverses share one answer shape
    for a in (E45, F45, identity(2), zeros(2, 2)):
        g, d = group_inverse(a), drazin(a)
        assert isinstance(g, DrazinResult) and g.index == d.index <= 1
        assert np.array_equal(g.drazin, d.drazin) and np.array_equal(g.idempotent, d.idempotent)


def test_drazin_result_holds_only_its_answer(rng):
    # no copy of the input and no tol ride along: the axiom residuals are
    # verify_drazin_axioms' to compute, at the caller's tol
    from dataclasses import fields

    assert [f.name for f in fields(DrazinResult)] == ["drazin", "index", "idempotent"]
    cases = [identity(3), zeros(3, 3), jordan_nilpotent(4), E45, F45, random_complex(rng, 5)]
    cases += [1e200 * F45, 1e-200 * F45]
    for a in cases:
        r = drazin(a)
        assert not np.shares_memory(r.drazin, a) and not np.shares_memory(r.idempotent, a)


def test_axiom_verifier():
    rep = verify_drazin_axioms(identity(2), identity(2), 0)
    assert rep.overall and all(e.residual == 0 for e in rep.entries)
    rng = np.random.default_rng(5)
    a = random_complex(rng, 4)
    r = drazin(a)
    assert verify_drazin_axioms(a, r.drazin, r.index).overall
    wrong = r.drazin.copy()
    wrong[0, 0] += 1.0
    bad = verify_drazin_axioms(a, wrong, r.index)
    assert not bad.overall
    assert max(e.residual for e in bad.entries) > 1e-3


def test_axiom_residuals_are_the_unshared_expressions_bit_for_bit(rng):
    # AX and XA are formed once and shared; the association is unchanged
    def unshared(a, x, k):
        ak = matrix_power(a, k)
        return (
            frobenius_norm(a @ x - x @ a),
            frobenius_norm(x @ a @ x - x),
            frobenius_norm(ak @ (a @ x) - ak),
        )

    for _ in range(40):
        n = int(rng.integers(1, 7))
        a, x = random_complex(rng, n), random_complex(rng, n)
        core_nilpotent, _, _, _ = mixed_similarity(rng, 8)
        pairs = ((a, x), (a, drazin(a).drazin), (core_nilpotent, drazin(core_nilpotent).drazin))
        for b, y in pairs:
            for k in range(4):
                got = tuple(e.residual for e in verify_drazin_axioms(b, y, k).entries)
                assert got == unshared(b, y, k), (n, k)


def test_axiom_power_residual_is_scale_free_and_in_range_unchanged(rng):
    # A^k of 1e200 J4 overflows, so the residual is formed on A * 2^-e and scaled
    # back; wherever A^k is in range that is the unscaled residual bit for bit
    rep = verify_drazin_axioms(1e200 * jordan_nilpotent(4), zeros(4, 4), 4)
    assert [e.residual for e in rep.entries] == [0.0, 0.0, 0.0] and rep.overall
    for scale in (1e-5, 2.0**-30, 3.0, 1e5, 2.0**30):
        a = scale * mixed_similarity(rng, 6)[0]
        x = drazin(a).drazin
        for k in range(4):
            ak = matrix_power(a, k)
            got = verify_drazin_axioms(a, x, k).entry("eventual-power").residual
            assert got == frobenius_norm(ak @ (a @ x) - ak), (scale, k)


def test_axioms_fail_under_an_infinite_threshold():
    # |a|_F |x|_F overflows: an inf threshold used to pass all three
    a = diag(1e300, 0)
    x = diag(0, 1e10)
    rep = verify_drazin_axioms(a, x, 1)
    assert all(e.threshold == math.inf and not e.passed for e in rep.entries)
    assert [e.residual for e in rep.entries] == [0.0, 1e10, 1e300]


def _instance_mix(rng, n):
    kind = rng.integers(0, 4)
    if kind == 0:
        return well_conditioned(rng, n)
    if kind == 1:
        return matrix(jordan_nilpotent(n) * rng.uniform(0.5, 2.0))
    if kind == 2:
        a, _, _, _ = mixed_similarity(rng, n)
        return a
    p = random_complex(rng, n)  # generic dense
    return p


def test_recursion_index_matches_index_of(rng):
    for _ in range(60):
        n = int(rng.integers(1, 9))
        a = _instance_mix(rng, n)
        assert drazin(a).index == index_of(a)


def test_recursion_index_of_non_normal_instance():
    # |M|_2 = 548 with eigenvalues near 1; the powers of M have ranks
    # 6, 5, 4, 3, 3, so ind(M) = 3, where ranking raw powers reads 5
    m = assemble(generate(GeneratorRecipe("thm25", 3, 1031673702)))
    assert drazin(m).index == 3


def test_drazin_work_per_call(rng, monkeypatch):
    # one elimination per recursion level and one LAPACK inv for the invertible
    # level (none for nilpotent A); no power ranks, and the axiom residuals only
    # once they are read
    import antitri.core as core
    import antitri.geninv as geninv

    calls = dict.fromkeys(("_eliminate", "inv", "index_of", "verify_drazin_axioms"), 0)
    homes = {"_eliminate": core, "inv": np.linalg}
    for name in calls:
        module = homes.get(name, geninv)
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    cases = [identity(3), zeros(3, 3), jordan_nilpotent(4), F45]
    cases += [_instance_mix(rng, int(rng.integers(1, 9))) for _ in range(40)]
    for a in cases:
        for name in calls:
            calls[name] = 0
        r = drazin(a)
        assert calls["_eliminate"] <= r.index + 1, calls
        assert calls["inv"] == int(r.drazin.any()), calls
        assert calls["index_of"] == 0 and calls["verify_drazin_axioms"] == 0, calls


def test_double_inverse_property(rng):
    for _ in range(60):
        n = int(rng.integers(1, 9))
        a = _instance_mix(rng, n)
        ad = drazin(a).drazin
        assert rel_err(drazin(ad).drazin, a @ a @ ad) <= 1e-9


def test_idempotent_laws(rng):
    for _ in range(60):
        n = int(rng.integers(1, 9))
        a = _instance_mix(rng, n)
        nrm = frobenius_norm(a)
        if nrm > 0:
            a = a / nrm  # unit-scaled inputs
        r = drazin(a)
        pi = r.idempotent
        assert frobenius_norm(pi @ pi - pi) <= 1e-10
        assert frobenius_norm(pi @ a @ r.drazin) <= 1e-10


def test_uniqueness_cross_route(rng):
    # a second axiom-passing candidate from a similarity route must agree
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a = _instance_mix(rng, n)
        t = well_conditioned(rng, n)
        candidate = t @ drazin(invert(t) @ a @ t).drazin @ invert(t)
        r = drazin(a)
        rep = verify_drazin_axioms(a, candidate, r.index, 1e-8)
        assert rep.overall
        assert rel_err(candidate, r.drazin) <= 1e-8


def test_index_zero_iff_invertible(rng):
    for _ in range(40):
        n = int(rng.integers(1, 7))
        a = _instance_mix(rng, n)
        invertible = rank(a) == n
        assert (index_of(a) == 0) == invertible
        assert (drazin(a).index == 0) == invertible


def test_drazin_noise_floor_regression():
    # mixed-scale input: the 1e-16 corner is residue of an exact zero and
    # must not be inverted as if it were an invertible core
    a = matrix([[1.0, 0.0], [0.0, 1e-16]])
    r = drazin(a)
    assert frobenius_norm(r.drazin) < 10.0
    assert_close(r.drazin, matrix([[1, 0], [0, 0]]), 1e-12)
    assert r.index == 1


J = matrix([[1, 1], [1, 1]])  # J^2 = 2J, so J^D = J / 4


def test_drazin_is_exact_at_every_power_of_two_scale():
    # the recursion squares its inner inverse: unnormalized, 2^665 J gave
    # A^D = 0 (the square underflowed) and 2^-665 J overflowed to inf
    for k in range(-1000, 1001, 50):
        r = drazin(2.0**k * J)
        assert r.index == 1
        assert np.array_equal(r.drazin, 2.0**-k * J / 4)
        assert np.array_equal(r.idempotent, identity(2) - J / 2)
    assert_close(drazin(1e200 * J).drazin * 1e200, J / 4, 1e-15)
    assert_close(drazin(1e-200 * J).drazin * 1e-200, J / 4, 1e-15)


def test_drazin_refuses_an_unrepresentable_inverse():
    # A^D = 2^1072 J / 4 and 2^1024 lie beyond the float64 range
    for a in (5e-324 * J, matrix([[2.0**-1024]])):
        with pytest.raises(OverflowError, match="float64 range"):
            drazin(a)
    assert np.array_equal(drazin(matrix([[2.0**-1023]])).drazin, matrix([[2.0**1023]]))
    r = drazin(5e-324 * jordan_nilpotent(2))  # nilpotent: A^D = 0 at any scale
    assert r.index == 2 and np.array_equal(r.drazin, zeros(2, 2))


def test_power_of_two_normalization_is_exact(rng):
    # normalizing max|A| into [1/2, 1) rescales every step of the recursion
    # exactly, so in the normal range it returns the unnormalized result
    from antitri.geninv import _drazin_core

    for _ in range(120):
        base = _instance_mix(rng, int(rng.integers(1, 9)))
        for scale in (1.0, 1e-6, 1e6, 3.0):
            a = base * scale
            r = drazin(a)
            x, k = _drazin_core(a, 1e-10, 1e-10 * float(np.abs(a).max()))
            assert r.index == k and np.array_equal(r.drazin, x)
            assert np.array_equal(r.idempotent, identity(a.shape[0]) - a @ x)


def test_group_existence_rank_criterion():
    # numerical ranks of a and a^2 are judged at one common scale,
    # matching index_of's normalized-power semantics
    rng = np.random.default_rng(99)
    for checked in range(500):
        n = int(rng.integers(1, 7))
        kind = rng.integers(0, 4)
        if kind == 0:
            a = matrix(jordan_nilpotent(n))
        elif kind == 1:
            a = well_conditioned(rng, n)
        elif kind == 2:
            a, _, _, _ = mixed_similarity(rng, n)
        else:
            a = matrix([[1, 1], [0, 0]]) if n == 2 else matrix(np.diag([1.0] * (n - 1) + [0.0]))
        scale = float(np.max(np.abs(a))) or 1.0
        b = a / scale
        rank_match = rank(b, floor=1e-10) == rank(b @ b, floor=1e-10)
        assert (index_of(a) <= 1) == rank_match


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_drazin_rejects_non_finite(bad):
    # a NaN entry used to come back as index 0 with a NaN row; the rank
    # decisions counted a NaN or Inf pivot as rank, and solve and invert
    # returned NaN
    a = identity(2)
    a[0, 0] = bad
    calls = (drazin, index_of, rank, rank_factorize, invert, lambda m: solve(m, identity(2)[0]))
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call(a)
