import numpy as np
import pytest

from antitri import (
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
    rank,
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
    assert_close(group_inverse(E45).group, E45, 1e-12)
    assert_close(group_inverse(F45).group, matrix([[-1j, -1j], [0, 0]]), 1e-12)


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


def test_drazin_result_residuals_match_verifier(rng):
    a = random_complex(rng, 5)
    r = drazin(a)
    rep = verify_drazin_axioms(a, r.drazin, r.index)
    assert r.residuals == tuple(e.residual for e in rep.entries)
    assert rep.overall


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
    # one elimination per recursion level, the innermost also giving the
    # inverse; no power ranks, and the axiom residuals only once they are read
    import antitri.core as core
    import antitri.geninv as geninv

    calls = dict.fromkeys(("_eliminate", "index_of", "verify_drazin_axioms"), 0)
    for name in calls:
        module = core if name == "_eliminate" else geninv
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
        assert calls["index_of"] == 0 and calls["verify_drazin_axioms"] == 0, calls
        residuals = r.residuals
        assert calls["verify_drazin_axioms"] == 1
        assert r.residuals is residuals and calls["verify_drazin_axioms"] == 1


def test_drazin_builds_factors_only_at_singular_levels(rng, monkeypatch):
    # the invertible level needs only the rank and the inverse: no left/right
    import antitri.geninv as geninv

    made = []
    real = geninv.rank_factorize

    def recorded(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(geninv, "rank_factorize", recorded)
    for a in (identity(3), diag(2, 3), well_conditioned(rng, 5)):
        made.clear()
        assert drazin(a).index == 0
        assert len(made) == 1 and "left" not in made[0].__dict__
        assert "right" not in made[0].__dict__
    cases = [zeros(3, 3), jordan_nilpotent(4), F45]
    cases += [_instance_mix(rng, int(rng.integers(1, 9))) for _ in range(40)]
    for a in cases:
        made.clear()
        r = drazin(a)
        built = [("left" in f.__dict__, "right" in f.__dict__) for f in made]
        nilpotent = made[-1].rank == 0  # a rank-0 level ends the recursion at A^D = 0
        assert built == [(True, True)] * (r.index - nilpotent) + [(False, False)]


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
    # a NaN entry used to come back as index 0 with a NaN row
    a = identity(2)
    a[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        drazin(a)
