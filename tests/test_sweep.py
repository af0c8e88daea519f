import math
import signal

import pytest

import antitri.oracle
import antitri.sweep
from antitri import THEOREM_IDS, InfeasibleRecipeError, existence_sweep, run_sweep


@pytest.fixture
def deadline():
    """Fail, instead of hanging, when a sweep does not return within 10 s."""

    def expire(signum, frame):
        pytest.fail("sweep did not return within 10 s")  # not an Exception: no handler swallows it

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_unknown_id_is_rejected(deadline):
    with pytest.raises(KeyError):
        run_sweep("nope", count=1)
    with pytest.raises(KeyError):
        existence_sweep("nope", count=1)


def test_clause_infeasible_at_every_dimension_is_rejected(deadline):
    # F E F^pi = 0 forces the E^pi F^pi clause to fail along with FFpi
    with pytest.raises(InfeasibleRecipeError):
        run_sweep("thm31", count=1, violate="FFpi")


def test_clause_outside_the_formula_is_refused_up_front(deadline, monkeypatch):
    # it used to read "no instance at any n in 1..4", after nmax generator calls
    def generate(recipe):
        raise AssertionError("generated a pair for an unknown clause")

    monkeypatch.setattr(antitri.sweep, "generate", generate)
    with pytest.raises(InfeasibleRecipeError, match="thm31: unknown clause 'bogus'; its clauses are FEFpi, "):
        run_sweep("thm31", count=2, violate="bogus")


def test_infeasible_recipe_quotes_the_generators_reason(deadline):
    with pytest.raises(InfeasibleRecipeError, match=r"1\.\.4 \(last: .* structurally impossible\)"):
        run_sweep("thm31", count=2, violate="FFpi")
    with pytest.raises(InfeasibleRecipeError, match=r"1\.\.4 \(last: .* do not build a pair that breaks FFpi alone\)"):
        run_sweep("cor44", count=2, violate="FFpi")


def test_violated_hypothesis_is_a_passed_refusal(deadline):
    # a broken hypothesis clause is refused with HypothesisError, which the
    # sweep records instead of stopping at the first instance
    for tid, count, clause in (("thm31", 4, "FEFpi"), ("thm23", 4, "EFE"), ("thm25", 8, "F2EFpi")):
        summary = run_sweep(tid, count=count, violate=clause)
        assert summary.passed and len(summary.records) == count, tid
        assert all(r.relative_error is None and not r.no_group for r in summary.records), tid


def test_one_oracle_drazin_per_record(monkeypatch):
    # ind(M) is read off the one Drazin inverse of M that decides the record,
    # in compare or in oracle_has_group_inverse, never from index_of; the
    # verdicts' axiom reports are never read, so none is formed
    assert not hasattr(antitri.oracle, "index_of")
    assert not hasattr(antitri.sweep, "index_of")
    calls, axiom_calls = [], []
    inner, inner_axioms = antitri.oracle.drazin, antitri.oracle.verify_drazin_axioms

    def counted(a, tol):
        calls.append(a.shape)
        return inner(a, tol)

    def counted_axioms(*args):
        axiom_calls.append(args)
        return inner_axioms(*args)

    monkeypatch.setattr(antitri.oracle, "drazin", counted)
    monkeypatch.setattr(antitri.oracle, "verify_drazin_axioms", counted_axioms)
    for tid in THEOREM_IDS:
        calls.clear()
        summary = run_sweep(tid, count=8)
        assert summary.passed and len(calls) == len(summary.records) == 8, tid
        assert axiom_calls == [], tid


def test_nmax_below_one_is_rejected(deadline):
    # nmax = 0 used to end in ZeroDivisionError inside the instance cycle
    for nmax in (0, -1):
        with pytest.raises(ValueError, match="nmax"):
            run_sweep("thm31", count=2, nmax=nmax)
        with pytest.raises(ValueError, match="nmax"):
            existence_sweep("thm31", count=2, nmax=nmax)


def test_negative_count_or_seed_is_rejected(deadline):
    # count = -1 used to surface islice's "Stop argument ..." message and a
    # negative seed numpy's bare "expected non-negative integer"
    assert run_sweep("thm31", count=0).records == ()
    with pytest.raises(ValueError, match="count must be >= 0"):
        run_sweep("thm31", count=-1)
    with pytest.raises(ValueError, match="count must be >= 0"):
        existence_sweep("thm31", count=-1)
    for tid in ("thm31", "thm41"):  # thm41's first instance is the golden fixture
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_sweep(tid, count=2, seed=-1)


@pytest.mark.parametrize("compare_tol", [math.inf, math.nan, -1.0])
def test_compare_tol_outside_zero_to_inf_is_rejected_up_front(deadline, compare_tol):
    # compare_tol = inf passed every instance whatever the formula returned
    for tid, count in (("thm31", 0), ("thm31", 3), ("thm41", 2)):
        with pytest.raises(ValueError, match="compare_tol must be finite and >= 0"):
            run_sweep(tid, count=count, compare_tol=compare_tol)
