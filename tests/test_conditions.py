import numpy as np
import pytest

from antitri import (
    GeneratorRecipe,
    InfeasibleRecipeError,
    Pattern,
    THEOREM_IDS,
    check_conditions,
    example_45,
    frobenius_norm,
    generate,
    identity,
    matrix,
)
from conftest import jordan_nilpotent

# violations that are structurally feasible, per formula id
FEASIBLE_VIOLATIONS = {
    "thm23": ("EFE", "F2E"),
    "thm25": ("EFEFpi", "F2EFpi"),
    "cor26": ("EFEFpi", "F2EFpi"),
    "thm27": ("EFEFpi", "F2EFpi"),
    "thm31": ("FEFpi", "EpiFpi"),
    "cor32": ("FEFpi", "EpiFpi"),
    "thm33": ("FpiEF", "FpiEpi"),
    "cor34": ("FpiEF", "FpiEpi"),
    "cor35": ("EF2-FEF", "FpiEpi"),
    "thm41": ("FFpi", "FEFpi", "EEpiFpi"),
    "cor42": ("FFpi", "FpiEF", "FpiEpiE"),
    "cor43": ("EEpi", "FFpi", "FEFpi|FpiEF"),
    "cor44": ("EEpi", "EF2-FEF"),
}

MIN_DIM = {"EFEFpi": 2, "F2EFpi": 3}


def test_example_45_contents():
    pair = example_45()
    assert np.array_equal(pair.E, matrix([[1, 2], [0, -1]]))
    assert np.array_equal(pair.F, matrix([[1j, 1j], [0, 0]]))
    assert pair.pattern is Pattern.EF_F0
    rep = check_conditions(pair.E, pair.F, "thm41")
    assert rep.overall
    assert {e.name for e in rep.entries} == {"FFpi", "FEFpi", "EEpiFpi"}
    assert all(e.residual <= 1e-14 for e in rep.entries)


def test_check_conditions_identity_pair():
    rep = check_conditions(identity(2), identity(2), "thm31")
    assert rep.overall  # F^pi = 0 kills every clause


def test_check_conditions_jordan_failure():
    rep = check_conditions(identity(2), jordan_nilpotent(2), "thm31")
    assert not rep.overall
    entry = rep.entry("FEFpi")
    assert entry.residual == pytest.approx(1.0)  # FEF^pi = F F^pi = F, |F|_F = 1
    assert not entry.passed


def test_check_conditions_unknown_id():
    with pytest.raises(KeyError):
        check_conditions(identity(2), identity(2), "thm99")


def test_check_conditions_lambda_entry():
    e, f = matrix([[1, 0], [0, -1]]), jordan_nilpotent(2)
    rep = check_conditions(e, f, "cor35", lam=-1)
    names = {x.name for x in rep.entries}
    assert "EF-lFE|EF2-FEF" in names
    assert rep.entry("EF-lFE|EF2-FEF").passed  # EF = -FE holds exactly


def test_generator_soundness():
    for tid in THEOREM_IDS:
        produced = 0
        for seed in range(40):
            for n in (2, 3, 4):
                try:
                    pair = generate(GeneratorRecipe(tid, n, seed))
                except InfeasibleRecipeError:
                    continue
                scale = max(1.0, frobenius_norm(pair.E)) * max(1.0, frobenius_norm(pair.F))
                rep = check_conditions(pair.E, pair.F, tid)
                assert rep.overall, f"{tid} n={n} seed={seed}"
                assert all(e.residual <= 1e-12 * scale for e in rep.entries), (
                    f"{tid} n={n} seed={seed}: "
                    f"{[(e.name, e.residual / scale) for e in rep.entries]}"
                )
                produced += 1
        assert produced >= 100, f"{tid}: only {produced} sound instances"


def test_generator_sharpness():
    for tid, clauses in FEASIBLE_VIOLATIONS.items():
        for clause in clauses:
            produced = 0
            for seed in range(25):
                n = max(3, MIN_DIM.get(clause, 2))
                try:
                    pair = generate(GeneratorRecipe(tid, n, seed, violate=clause))
                except InfeasibleRecipeError:
                    continue
                scale = max(1.0, frobenius_norm(pair.E)) * max(1.0, frobenius_norm(pair.F))
                rep = check_conditions(pair.E, pair.F, tid)
                for entry in rep.entries:
                    if entry.name == clause:
                        assert entry.residual >= 1e-3 * scale, (
                            f"{tid}/{clause} seed={seed}: broken clause too soft"
                        )
                    else:
                        assert entry.passed, (
                            f"{tid}/{clause} seed={seed}: collateral damage on {entry.name}"
                        )
                produced += 1
            assert produced >= 10, f"{tid}/{clause}: only {produced} sharp violations"


def test_generator_determinism():
    for tid in THEOREM_IDS:
        r = GeneratorRecipe(tid, 3, 12345)
        a = generate(r)
        b = generate(r)
        assert np.array_equal(a.E, b.E) and np.array_equal(a.F, b.F)


def test_generator_patterns():
    assert generate(GeneratorRecipe("thm25", 2, 0)).pattern is Pattern.EI_F0
    assert generate(GeneratorRecipe("cor26", 2, 0)).pattern is Pattern.EF_I0
    assert generate(GeneratorRecipe("thm41", 2, 0)).pattern is Pattern.EF_F0


def test_generator_scalar_instances():
    for tid in THEOREM_IDS:
        pair = generate(GeneratorRecipe(tid, 1, 0))
        assert pair.E.shape == (1, 1) and pair.F.shape == (1, 1)
        assert check_conditions(pair.E, pair.F, tid).overall


def test_infeasible_recipes():
    with pytest.raises(InfeasibleRecipeError):
        generate(GeneratorRecipe("thm31", 3, 0, violate="FFpi"))  # structurally forced
    with pytest.raises(InfeasibleRecipeError):
        generate(GeneratorRecipe("thm23", 1, 0, violate="EFE"))  # scalar coupling
    with pytest.raises(InfeasibleRecipeError):
        generate(GeneratorRecipe("thm25", 1, 0, violate="F2EFpi"))  # corner too small
    with pytest.raises(InfeasibleRecipeError):
        generate(GeneratorRecipe("thm25", 2, 0, violate="nonsense"))
    with pytest.raises(InfeasibleRecipeError):
        generate(GeneratorRecipe("thm31", 0, 0))


def test_violated_existence_clause_matches_oracle_index():
    from antitri import assemble, index_of

    pair = generate(GeneratorRecipe("thm31", 3, 1, violate="EpiFpi"))
    rep = check_conditions(pair.E, pair.F, "thm31")
    assert not rep.entry("EpiFpi").passed
    assert rep.entry("FEFpi").passed
    assert index_of(assemble(pair)) >= 2


def test_gate_and_report_give_one_verdict():
    # one judge decides every clause, for the formula's gate and for
    # check_conditions alike: a refusal names a failing entry, a
    # NoGroupInverse names only failing entries, blocks mean every entry passed
    from antitri import HypothesisError, NoGroupInverse, apply_formula

    for tid in THEOREM_IDS:
        lams = (None, 1, -1) if "EF2-FEF" in FEASIBLE_VIOLATIONS[tid] else (None,)
        for violate in (None,) + FEASIBLE_VIOLATIONS[tid]:
            for seed in range(3):
                try:
                    pair = generate(GeneratorRecipe(tid, 2 + seed, seed, violate=violate))
                except InfeasibleRecipeError:
                    continue
                for s in (1.0, 1e-6, 1e6):
                    e, f = pair.E * s, pair.F * s
                    for lam in lams:
                        case = (tid, violate, seed, s, lam)
                        report = check_conditions(e, f, tid, lam=lam)
                        failing = {x.name for x in report.entries if not x.passed}
                        try:
                            out = apply_formula(tid, e, f, lam=lam)
                        except HypothesisError as err:
                            assert err.clause in failing, case
                            continue
                        if isinstance(out, NoGroupInverse):
                            assert out.failed and set(out.failed) <= failing, case
                        else:
                            assert report.overall, case
