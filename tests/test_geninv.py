import collections
import math
import warnings

import numpy as np
import pytest

import antitri.geninv as geninv
from antitri import (
    THEOREM_IDS,
    BlockPair,
    DrazinResult,
    GeneratorRecipe,
    InfeasibleRecipeError,
    NoGroupInverseError,
    Pattern,
    assemble,
    compare,
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
    thm25,
    thm41_group,
    verify_drazin_axioms,
    zeros,
)
from antitri.core import INVERSE_MARGIN
from antitri.formulas import REGISTRY
from antitri.oracle import oracle_has_group_inverse
from conftest import (
    assert_close,
    jordan_nilpotent,
    mixed_similarity,
    random_complex,
    rel_err,
    svd_index,
    unimodular_pair,
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

    assert [f.name for f in fields(DrazinResult)] == ["drazin", "index", "_idempotent"]
    cases = [identity(3), zeros(3, 3), jordan_nilpotent(4), E45, F45, random_complex(rng, 5)]
    cases += [1e200 * F45, 1e-200 * F45]
    for a in cases:
        r = drazin(a)
        assert not np.shares_memory(r.drazin, a) and not np.shares_memory(r.idempotent, a)


def _eager_idempotent(a, tol=1e-10):
    """A^pi as ``drazin`` formed it on every call before it was formed on first read, kept as the reference."""
    amax = float(np.abs(a).max()) if a.size else 0.0
    mantissa, e = math.frexp(amax)
    scaled = geninv._times_pow2(a, -e)
    x, _ = geninv._drazin_core(scaled, tol, tol * mantissa)
    return identity(a.shape[0]) - scaled @ x


def test_idempotent_is_formed_on_first_read_from_the_calls_own_arrays(rng):
    # the first read gives the array drazin formed at the call before, byte for
    # byte, whatever the caller wrote into its input or into A^D since
    cases = [E45, F45, jordan_nilpotent(4), zeros(0, 0), 1e200 * F45, 1e-200 * F45]
    cases += [_instance_mix(rng, int(rng.integers(1, 9))) for _ in range(40)]
    for a in cases:
        a = a.copy()
        want = _eager_idempotent(a)
        r = drazin(a)
        assert "idempotent" not in vars(r)
        a[...] = np.nan
        r.drazin[...] = np.nan
        got = r.idempotent
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert r.idempotent is got


def test_callers_that_read_no_idempotent_form_none(monkeypatch):
    # the oracle, index_of and thm25's drazin(E F^pi) read A^D or the index only
    import antitri.formulas as formulas
    import antitri.oracle as oracle

    seen = []
    real = geninv.drazin

    def spied(a, *args):
        seen.append((a, real(a, *args)))
        return seen[-1][1]

    for module in (geninv, oracle, formulas):
        monkeypatch.setattr(module, "drazin", spied)
    pair = BlockPair(E45, F45, Pattern.EF_F0)
    out = thm41_group(E45, F45)
    assert len(seen) == 2 and all("idempotent" in vars(r) for _, r in seen)  # thm41 reads E^pi and F^pi
    for call in (lambda: compare(out, pair), lambda: oracle_has_group_inverse(pair), lambda: index_of(F45)):
        seen.clear()
        call()
        assert len(seen) == 1 and "idempotent" not in vars(seen[0][1])
    p = generate(GeneratorRecipe("thm25", 3, 0))
    seen.clear()
    thm25(p.E, p.F)  # drazin(F), whose F^pi it reads, then drazin(alpha)
    assert [a is p.F for a, _ in seen] == [True, False]
    assert ["idempotent" in vars(r) for _, r in seen] == [True, False]


def test_results_compare_by_identity_and_hash():
    # the generated __eq__ compared the array fields and raised "truth value of
    # an array ... is ambiguous"; hash() raised TypeError
    for make in (lambda: drazin(F45), lambda: thm41_group(E45, F45)):
        r, s = make(), make()
        assert r == r and r != s and not r == s
        assert hash(r) == hash(r) and len({r, s}) == 2


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


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.inf, np.nan])
def test_axiom_verifier_refuses_a_bad_tol(tol):
    # a tol outside (0, inf) used to fail all three axioms quietly
    with pytest.raises(ValueError, match="finite tol > 0"):
        verify_drazin_axioms(identity(2), identity(2), 1, tol)


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


def test_svd_index_on_known_indices(rng):
    # the independent reference itself, on matrices whose index is known by construction
    assert svd_index(zeros(0, 0)) == 0
    for n in range(1, 9):
        assert svd_index(jordan_nilpotent(n)) == n
        assert svd_index(zeros(n, n)) == 1
        assert svd_index(well_conditioned(rng, n)) == 0
        a, block, _, _ = mixed_similarity(rng, n)
        r = int(np.count_nonzero(np.diag(block) != 0))  # the invertible C, then a Jordan N of order n - r
        assert svd_index(block) == svd_index(a) == n - r


def test_recursion_index_matches_svd_index(rng):
    inputs = [_instance_mix(rng, int(rng.integers(1, 9))) for _ in range(60)]
    for tid in THEOREM_IDS:  # E, F and M of the master sweep's instances
        for seed in range(200):
            pair = generate(GeneratorRecipe(tid, 1 + seed % 4, seed))
            inputs += [pair.E, pair.F, assemble(pair)]
    for a in inputs:
        assert drazin(a).index == svd_index(a)


def test_recursion_index_of_non_normal_instance():
    # |M|_2 = 548 with eigenvalues near 1; the powers of M have ranks
    # 6, 5, 4, 3, 3, so ind(M) = 3, where ranking raw powers reads 5
    m = assemble(generate(GeneratorRecipe("thm25", 3, 1031673702)))
    assert drazin(m).index == index_of(m) == svd_index(m) == 3


@pytest.mark.parametrize("tid", ["thm25", "cor26", "thm27"])
@pytest.mark.parametrize("seed, index", [(35, 5), (39, 4)])
def test_index_of_reads_the_recursion_on_non_normal_m(tid, seed, index):
    # ranking raw powers of M read 8 and 6: rounding compounded over the powers
    m = assemble(generate(GeneratorRecipe(tid, 1 + seed % 4, seed)))
    assert index_of(m) == svd_index(m) == index


def test_drazin_work_per_call(rng, monkeypatch):
    # one elimination per recursion level, except at a core that the inverse
    # certificate accepts; at most one LAPACK inv per level: a certificate
    # attempt at each level below the top, or the inv of the core the
    # elimination certified; no power ranks, and the axiom residuals only once
    # they are read
    import antitri.core as core

    calls = dict.fromkeys(("_eliminate", "inv", "index_of", "verify_drazin_axioms"), 0)
    homes = {"_eliminate": core, "inv": np.linalg}
    for name in calls:
        module = homes.get(name, geninv)
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    certified = []
    real_certificate = geninv.certified_inverse

    def spied(*args):
        x = real_certificate(*args)
        certified.append(x is not None)
        return x

    monkeypatch.setattr(geninv, "certified_inverse", spied)

    def work(a):
        for name in calls:
            calls[name] = 0
        certified.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from a singular level
            return drazin(a)  # and no LinAlgError

    cases = [identity(3), zeros(3, 3), jordan_nilpotent(4), F45]
    cases += [_instance_mix(rng, int(rng.integers(1, 9))) for _ in range(40)]
    for a in cases:
        r = work(a)
        assert not any(certified[:-1])  # an attempt that certifies ends the recursion
        core_eliminated = bool(r.drazin.any()) and not any(certified)
        assert calls["_eliminate"] == r.index + core_eliminated <= r.index + 1, calls
        assert calls["inv"] == len(certified) + core_eliminated <= r.index + 1, calls
        assert calls["index_of"] == 0 and calls["verify_drazin_axioms"] == 0, calls
    assert work(F45).index == 1 and calls["_eliminate"] == 1 and certified == [True]
    assert work(jordan_nilpotent(4)).index == 4 and calls["inv"] == 3  # attempts, which raise
    assert certified == [False] * 3


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
        assert (svd_index(a) == 0) == invertible
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


def _reference_drazin_core(a, tol, floor):
    """The recursion without the inverse certificate, kept verbatim as the reference."""
    n = a.shape[0]
    levels = []
    prev_rank = n  # rank(A^j) at level j; rank(A^0) = n
    while True:
        f = rank_factorize(a, tol, floor)  # f.rank = rank(A_j) = rank(A^(j+1))
        if f.rank == prev_rank:  # A_j is invertible and ind(A) = j
            x = np.linalg.inv(a)  # full rank certified by f
            break
        if f.rank == 0:  # A^(j+1) = 0
            return zeros(n, n), len(levels) + 1
        levels.append(f)
        prev_rank = f.rank
        a = f.right @ f.left
    index = len(levels)
    for f in reversed(levels):
        x = f.left @ (x @ x) @ f.right
    return x, index


def _outcome(a):
    """(index, A^D, A^pi) of drazin(a), overflow let through as inf or NaN, or the error it raised."""
    try:
        with np.errstate(all="ignore"):
            r = drazin(a)
    except (ArithmeticError, ValueError) as err:
        return type(err)
    return r.index, r.drazin, r.idempotent


def _assert_reference_recursion(monkeypatch, inputs):
    """drazin's index, A^D and A^pi are the reference recursion's, bit for bit, on every input."""
    for a in inputs:
        got = _outcome(a)
        with monkeypatch.context() as m:
            m.setattr(geninv, "_drazin_core", _reference_drazin_core)
            want = _outcome(a)
        if isinstance(want, type) or isinstance(got, type):
            assert got is want
            continue
        assert got[0] == want[0]
        assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got[1:], want[1:]))


def _with_nilpotent_part(rng, c, index):
    """S diag(C, N) S^-1, N of Jordan blocks sized index, 1, 1, ...: the core is C, ind = index."""
    r = c.shape[0]
    n = r + max(r // 3, index)
    block = zeros(n, n)
    block[:r, :r] = c
    block[r:r + index, r:r + index] = jordan_nilpotent(index)
    s, s_inv = unimodular_pair(rng, n)
    return matrix(s @ block @ s_inv)


def _unitary(rng, n):
    q, _ = np.linalg.qr(random_complex(rng, n))
    return q


def _kahan(n, s):
    """Kahan's triangular matrix diag(1, s, ..., s^(n-1)) (I - c * strict upper ones), c^2 + s^2 = 1."""
    c = math.sqrt(1.0 - s * s)
    return matrix(np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1)))


def test_certified_core_keeps_the_reference_recursion_bit_for_bit(rng, monkeypatch):
    # the certificate stops the recursion with the same LAPACK inv the
    # elimination would have led to, so nothing moves; where it refuses, the
    # elimination decides as before
    inputs = [_instance_mix(rng, int(rng.integers(1, 9))) for _ in range(120)]
    for r in (6, 12, 18, 24):  # S diag(C, N) S^-1, n = 8..32, with a well-conditioned diagonal C
        for index in (1, 2, 3):
            d = rng.uniform(0.5, 2.0, r) * np.exp(1j * rng.uniform(0, 2 * np.pi, r))
            inputs.append(_with_nilpotent_part(rng, matrix(np.diag(d)), index))
    for _ in range(300):  # one singular value of C at 10^u |C|, across the cut
        r = int(rng.integers(1, 7))
        sv = np.ones(r)
        sv[-1] = 10 ** rng.uniform(-12.5, -7.5)
        c = _unitary(rng, r) @ np.diag(sv) @ _unitary(rng, r)
        inputs.append(_with_nilpotent_part(rng, matrix(c), int(rng.integers(1, 3))))
    for _ in range(60):  # Kahan cores: GECP's pivots hide the smallest singular value
        r = int(rng.integers(2, 25))
        s = 10 ** (rng.uniform(-12.5, -7.5) / (r - 1))
        inputs.append(_with_nilpotent_part(rng, _kahan(r, s), int(rng.integers(1, 3))))
    for tid in THEOREM_IDS:  # E, F and M of generated pairs, valid and violating
        for clause in (None, *REGISTRY[tid].clauses):
            for seed in range(4):
                try:
                    pair = generate(GeneratorRecipe(tid, 1 + seed, seed, violate=clause))
                except InfeasibleRecipeError:
                    continue
                for scale in (1.0, 1e-6, 1e6):
                    inputs += [scale * pair.E, scale * pair.F, scale * assemble(pair)]
    _assert_reference_recursion(monkeypatch, inputs)


def _two_scan_certified_inverse(a, tol, floor):
    """``core.certified_inverse`` before the floor bound ran first, kept verbatim as the reference."""
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None
    cut = max(tol * float(np.abs(a).max(initial=0.0)), floor)
    return x if a.shape[0] * cut * frobenius_norm(x) * INVERSE_MARGIN < 1 else None


def test_floor_first_certificate_decides_as_the_two_scan_rule(rng, monkeypatch):
    # cut >= floor, so an attempt the bound at the floor refuses is one the
    # cut refuses too; max|A_j| is scanned only once the floor bound passes
    import antitri.core as core

    scans, outcomes = [], collections.Counter()
    real_cut, real_certificate = core._cut, geninv.certified_inverse

    def counted_cut(*args):
        scans.append(args)
        return real_cut(*args)

    def compared(a, tol, floor):
        want = _two_scan_certified_inverse(a, tol, floor)
        scans.clear()
        got = real_certificate(a, tol, floor)
        assert (got is None) == (want is None) and (got is None or np.array_equal(got, want))
        try:
            x = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            outcome = "LAPACK raised"
        else:
            floor_passes = a.shape[0] * floor * frobenius_norm(x) * INVERSE_MARGIN < 1
            outcome = "cut decided" if floor_passes else "floor refused"
        assert bool(scans) == (outcome == "cut decided")
        outcomes[outcome, got is not None] += 1
        return got

    monkeypatch.setattr(core, "_cut", counted_cut)
    monkeypatch.setattr(geninv, "certified_inverse", compared)
    cases = [identity(3), zeros(3, 3), jordan_nilpotent(4), F45]  # test_drazin_work_per_call's
    cases += [_instance_mix(rng, int(rng.integers(1, 9))) for _ in range(40)]
    cases += [_with_nilpotent_part(np.random.default_rng(seed), _kahan(24, 0.433), 2) for seed in range(40)]
    for a in cases:
        with np.errstate(all="ignore"):
            try:
                drazin(a)
            except OverflowError:
                pass
    assert set(outcomes) == {("LAPACK raised", False), ("floor refused", False), ("cut decided", True)}, outcomes


@pytest.mark.parametrize("seed", [0, 6, 16, 35])
def test_overflow_inside_the_recursion_raises(seed):
    # a Kahan core that float64 cannot tell from singular: the unwinding's
    # x @ x overflowed and A^D came back as NaN or Inf (index 10 or 11, exact 2);
    # index_of, which ranked powers of A, read 5 to 7 there
    a = _with_nilpotent_part(np.random.default_rng(seed), _kahan(24, 0.433), 2)
    for call in (drazin, index_of):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError, match="float64 range"):
            call(a)


def test_group_existence_rank_criterion():
    # numerical ranks of a and a^2 are judged at one common floor,
    # tol * max|a|, as drazin's recursion judges every level's rank
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
