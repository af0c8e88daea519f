"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import time

import numpy as np

from antitri import (
    GeneratorRecipe,
    NoGroupInverse,
    apply_formula,
    assemble,
    cor32_group,
    cor34_group,
    cor42_group,
    drazin,
    frobenius_norm,
    generate,
    group_inverse,
    identity,
    index_of,
    invert,
    matrix,
    spectral_idempotent,
    thm25,
    thm27,
    thm31_group,
    thm33_group,
    thm41_group,
    verify_drazin_axioms,
    zeros,
)
from antitri.sweep import existence_sweep, run_sweep
from conftest import jordan_nilpotent, mixed_similarity, random_complex, rel_err, svd_index, well_conditioned

E45 = matrix([[1, 2], [0, -1]])
F45 = matrix([[1j, 1j], [0, 0]])
M45 = matrix([[0, 1, -1j, -1j], [0, -1, 0, 0], [-1j, -1j, 1, 1], [0, 0, 0, 0]])

ALL_IDS = (
    "thm23", "thm25", "cor26", "thm27", "thm31", "cor32", "thm33",
    "cor34", "cor35", "thm41", "cor42", "cor43", "cor44",
)


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_golden_fixture():
    out = thm41_group(E45, F45)
    err = float(np.max(np.abs(out.assemble() - M45)))
    best = min(
        (lambda t0: (thm41_group(E45, F45), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(30)
    )
    ok = err <= 1e-12 and best < 1e-3
    _verdict(1, ok, f"golden fixture entrywise err {err:.2e} (<=1e-12), runtime {best*1e3:.3f} ms (<1 ms)")


def test_criterion_2_intermediate_fixture():
    e_sharp = group_inverse(E45).drazin
    e_pi = spectral_idempotent(E45)
    f_sharp = group_inverse(F45).drazin
    f_pi = spectral_idempotent(F45)
    errs = [
        np.max(np.abs(e_sharp - matrix([[1, 2], [0, -1]]))),
        np.max(np.abs(e_pi)),
        np.max(np.abs(f_sharp - matrix([[-1j, -1j], [0, 0]]))),
        np.max(np.abs(f_pi - matrix([[0, -1], [0, 1]]))),
    ]
    out = thm41_group(E45, F45)
    errs += [
        np.max(np.abs(out.Gamma - matrix([[0, 1], [0, -1]]))),
        np.max(np.abs(out.Delta - matrix([[-1j, -1j], [0, 0]]))),
        np.max(np.abs(out.Lambda - matrix([[-1j, -1j], [0, 0]]))),
        np.max(np.abs(out.Xi - matrix([[1, 1], [0, 0]]))),
    ]
    worst = float(max(errs))
    _verdict(2, worst <= 1e-12, f"intermediate fixture blocks worst err {worst:.2e} (<=1e-12)")


def test_criterion_3_master_oracle_property():
    started = time.perf_counter()
    worst = 0.0
    failures = 0
    for tid in ALL_IDS:
        s = run_sweep(tid, count=200, nmax=4, seed=0)
        worst = max(worst, s.max_relative_error)
        failures += s.failures
    elapsed = time.perf_counter() - started
    ok = failures == 0 and worst <= 1e-8 and elapsed < 60.0
    _verdict(
        3,
        ok,
        f"13 formulas x 200 instances: worst rel err {worst:.2e} (<=1e-8), "
        f"{failures} failures, {elapsed:.1f} s (<60 s)",
    )


def test_criterion_4_existence_equivalence():
    total_bad = 0
    lines = []
    for tid in ("thm31", "thm33", "thm41"):
        agree, total = existence_sweep(tid, count=50, nmax=4)
        lines.append(f"{tid} violations {agree}/{total}")
        total_bad += total - agree
        # pass-verdicts on valid instances must match an independent index <= 1
        ok_valid = 0
        made = attempt = 0
        while made < 50:
            n = 1 + attempt % 4
            try:
                pair = generate(GeneratorRecipe(tid, n, 30_000 + attempt))
            except Exception:
                attempt += 1
                continue
            attempt += 1
            made += 1
            out = apply_formula(tid, pair.E, pair.F)
            if not isinstance(out, NoGroupInverse) and svd_index(assemble(pair)) <= 1:
                ok_valid += 1
        lines.append(f"{tid} valid {ok_valid}/50")
        total_bad += 50 - ok_valid
    _verdict(4, total_bad == 0, "existence equivalence 100%: " + ", ".join(lines))


def test_criterion_5_truncation_identity():
    worst = 0.0
    checked = 0
    caps_ok = True
    attempt = 0
    while checked < 60:
        n = 1 + attempt % 4
        try:
            pair = generate(GeneratorRecipe("thm25", n, 40_000 + attempt))
        except Exception:
            attempt += 1
            continue
        attempt += 1
        r25 = thm25(pair.E, pair.F)
        r27 = thm27(pair.E, pair.F)
        worst = max(worst, rel_err(r27.assemble(), r25.assemble()))
        f_pi = spectral_idempotent(pair.F)
        alpha = pair.E @ f_pi
        scale = max(1.0, frobenius_norm(pair.E)) * max(1.0, frobenius_norm(pair.F))
        if frobenius_norm(alpha) <= 1e-10 * scale:
            alpha = zeros(*alpha.shape)  # exact zero in the algebra
        k_expected = index_of(alpha) + 2 * index_of(pair.F)
        m_expected = index_of(pair.F)
        caps_ok = caps_ok and r27.notes == {"k": k_expected, "m": m_expected}
        checked += 1
    ok = worst <= 1e-12 and caps_ok
    _verdict(5, ok, f"thm25 == thm27 worst dev {worst:.2e} (<=1e-12), caps k/m correct: {caps_ok}")


def test_criterion_6_drazin_core_properties():
    rng = np.random.default_rng(2718)
    axiom_bad = 0
    unique_bad = 0
    candidates = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        kind = rng.integers(0, 4)
        if kind == 0:
            a = well_conditioned(rng, n)
        elif kind == 1:
            a = matrix(jordan_nilpotent(n) * rng.uniform(0.5, 2.0))
        elif kind == 2:
            a, _, _, _ = mixed_similarity(rng, n)
        else:
            a = random_complex(rng, n)
        r = drazin(a)
        if not verify_drazin_axioms(a, r.drazin, r.index).overall:
            axiom_bad += 1
        t = well_conditioned(rng, n)
        candidate = t @ drazin(invert(t) @ a @ t).drazin @ invert(t)
        # a second candidate only binds when it passes the axiom verifier
        if verify_drazin_axioms(a, candidate, r.index).overall:
            candidates += 1
            if rel_err(candidate, r.drazin) > 1e-8:
                unique_bad += 1
    ok = axiom_bad == 0 and unique_bad == 0 and candidates >= 450
    _verdict(
        6,
        ok,
        f"500 instances: {axiom_bad} axiom failures (tol 1e-10), "
        f"{unique_bad}/{candidates} uniqueness disagreements (tol 1e-8)",
    )


def test_criterion_7_duality_and_similarity():
    worst_dual = 0.0
    worst_sim = 0.0
    checked = 0
    attempt = 0
    while checked < 40:
        try:
            pair31 = generate(GeneratorRecipe("thm31", 1 + attempt % 4, 50_000 + attempt))
            pair33 = generate(GeneratorRecipe("thm33", 1 + attempt % 4, 50_000 + attempt))
            pair41 = generate(GeneratorRecipe("thm41", 1 + attempt % 4, 50_000 + attempt))
        except Exception:
            attempt += 1
            continue
        attempt += 1
        base31 = thm31_group(pair31.E, pair31.F)
        dual33 = thm33_group(pair31.E.T.copy(), pair31.F.T.copy())
        worst_dual = max(worst_dual, rel_err(dual33.assemble(), base31.assemble().T))
        base41 = thm41_group(pair41.E, pair41.F)
        dual42 = cor42_group(pair41.E.T.copy(), pair41.F.T.copy())
        worst_dual = max(worst_dual, rel_err(dual42.assemble(), base41.assemble().T))

        # similarity consistency, recomputed from scratch; cor32 shares
        # thm31's hypothesis family, cor34 shares thm33's (its body transposes
        # cor32, so T thm33 T^-1 is a route it does not take)
        e, f = pair31.E, pair31.F
        n = e.shape[0]
        out32 = cor32_group(e, f)
        p = np.block([[zeros(n, n), identity(n)], [identity(n), -e]])
        p_inv = np.block([[e, identity(n)], [identity(n), zeros(n, n)]])
        worst_sim = max(
            worst_sim, rel_err(out32.assemble(), p_inv @ base31.assemble() @ p)
        )
        dual34 = cor34_group(e.T.copy(), f.T.copy())
        worst_dual = max(worst_dual, rel_err(dual34.assemble(), out32.assemble().T))
        e, f = pair33.E, pair33.F
        n = e.shape[0]
        out34 = cor34_group(e, f)
        base33 = thm33_group(e, f)
        q = np.block([[e, identity(n)], [identity(n), zeros(n, n)]])
        q_inv = np.block([[zeros(n, n), identity(n)], [identity(n), -e]])
        worst_sim = max(
            worst_sim, rel_err(out34.assemble(), q_inv @ base33.assemble() @ q)
        )
        checked += 1
    ok = worst_dual <= 1e-10 and worst_sim <= 1e-10
    _verdict(
        7,
        ok,
        f"transpose duality worst {worst_dual:.2e}, similarity worst {worst_sim:.2e} (<=1e-10)",
    )
