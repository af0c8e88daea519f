"""Tests of the benchmark's independent checker and of its tracer.

    python3 -m pytest bench/test_bench.py     (or: python3 bench/test_bench.py)

The checker must accept right answers at every scale and reject
wrong ones, including the two that matter most: the all-zero answer
for Example 4.5 scaled by 1e9, and a right answer with one entry
changed.  The tracer must count the calls it wraps and refuse to run
when a name it wraps has gone.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checker  # noqa: E402

M45 = checker.assemble(checker.EXAMPLE_45_E, checker.EXAMPLE_45_F, "EF_F0")
X45 = checker.EXAMPLE_45_GROUP
SCALES = (1e-9, 1e-6, 1.0, 1e6, 1e9)


def jordan(n: int) -> np.ndarray:
    return np.eye(n, k=1, dtype=np.complex128)


def core_nilpotent():
    """A = S diag(2, -1j, J3) S^-1 with its Drazin inverse S diag(1/2, 1j, 0) S^-1."""
    s = np.eye(5, dtype=np.complex128)
    s[0, 3] = s[4, 1] = s[2, 0] = 1.0
    s_inv = np.linalg.inv(s)
    core = np.zeros((5, 5), dtype=np.complex128)
    core[0, 0], core[1, 1] = 2.0, -1j
    core[2:, 2:] = jordan(3)
    inv = np.zeros((5, 5), dtype=np.complex128)
    inv[0, 0], inv[1, 1] = 0.5, 1j
    return s @ core @ s_inv, s @ inv @ s_inv


def test_accepts_example_45_at_every_scale():
    assert checker.check_golden(X45).ok
    for s in SCALES:
        assert checker.check_group(s * M45, X45 / s).ok, s
        assert checker.check_outer(s * M45, X45 / s).ok, s


def test_rejects_zero_answer_for_scaled_example_45():
    # The relative error of 0 against the true answer is 2.8e-9 once the
    # reference norm is clamped at 1, so a clamped comparison passes it.
    m = 1e9 * M45
    zero = np.zeros_like(m)
    assert not checker.check_group(m, zero).ok
    assert not checker.check_drazin(m, zero).ok
    assert not checker.check_outer(m, zero).ok


def test_rejects_one_entry_perturbation():
    for i, j in ((0, 0), (1, 2), (3, 3)):
        for s in SCALES:
            x = X45 / s
            bad = x.copy()
            bad[i, j] += 1e-6 * np.abs(x).max()
            assert not checker.check_group(s * M45, bad).ok, (i, j, s)
    bad = X45.copy()
    bad[3, 3] = 1e-3
    assert not checker.check_golden(bad).ok


def test_drazin_of_core_nilpotent_matrix():
    a, ad = core_nilpotent()
    assert checker.index(a) == 3
    for s in SCALES:
        assert checker.check_drazin(s * a, ad / s).ok, s
    bad = ad.copy()
    bad[2, 4] += 1e-5
    assert not checker.check_drazin(a, bad).ok
    assert not checker.check_drazin(a, np.zeros_like(a)).ok
    # a generalized inverse that is not the Drazin inverse: the inverse on the core
    # part plus a piece on the nilpotent part breaks rank(X) = core rank
    s = np.linalg.inv(a + np.eye(5)) - np.linalg.inv(np.eye(5))
    assert not checker.check_drazin(a, s).ok


def test_group_existence_by_rank():
    assert checker.has_group_inverse(M45)
    assert checker.check_no_group(1e-6 * jordan(2)).ok
    assert not checker.check_no_group(1e6 * M45).ok
    nil = jordan(3)
    assert not checker.check_group(nil, np.zeros_like(nil)).ok  # index 3: no group inverse
    assert checker.check_drazin(nil, np.zeros_like(nil)).ok  # but its Drazin inverse is 0


def test_check_equal_has_no_norm_clamp():
    tiny = 1e-12 * np.eye(2)
    assert checker.check_equal(tiny, tiny, 1e-9).ok
    assert not checker.check_equal(np.zeros((2, 2)), tiny, 1e-9).ok


def test_benchmark_drazin_inputs_match_their_closed_form():
    import workloads

    rng = np.random.default_rng(0)
    for n in (8, 32):
        for index in (1, 2, 3):
            a, ad = workloads.core_nilpotent(rng, n, index)
            assert checker.index(a) == index
            assert checker.check_drazin(a, ad).ok


def test_tracer_counts_layer_calls():
    import antitri
    import tracer

    t = tracer.Tracer()
    t.install(antitri)
    pair = antitri.example_45()
    t.enabled = True
    antitri.formulas.thm41_group(pair.E, pair.F)
    t.enabled = False
    m = t.metrics(1, 1e3)
    assert m["formulas.calls"] == 1 and m["formulas.refusals"] == 0
    assert m["geninv.drazin_calls"] == 2 and m["formulas.drazin_calls"] == 2
    assert m["oracle.calls"] == 0 and m["core.calls"] > 0


def test_tracer_fails_when_a_wrapped_name_is_gone():
    import tracer

    pkg = types.ModuleType("gonepkg")
    for layer in tracer.LAYERS:
        sys.modules[f"gonepkg.{layer}"] = types.ModuleType(f"gonepkg.{layer}")
    sys.modules["gonepkg"] = pkg
    try:
        tracer.Tracer().install(pkg)
    except RuntimeError as err:
        assert "gonepkg.core.rank_factorize" in str(err)
    else:
        raise AssertionError("install accepted a package without the traced names")
    finally:
        for name in [k for k in sys.modules if k.split(".")[0] == "gonepkg"]:
            del sys.modules[name]


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
