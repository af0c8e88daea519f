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


def test_violated_hypothesis_is_a_passed_refusal(deadline):
    # a broken hypothesis clause is refused with HypothesisError, which the
    # sweep records instead of stopping at the first instance
    for tid, count, clause in (("thm31", 4, "FEFpi"), ("thm23", 4, "EFE"), ("thm25", 8, "F2EFpi")):
        summary = run_sweep(tid, count=count, violate=clause)
        assert summary.passed and len(summary.records) == count, tid
        assert all(r.relative_error is None and not r.no_group for r in summary.records), tid


def test_one_oracle_drazin_per_record(monkeypatch):
    # ind(M) is read off the one Drazin inverse of M that decides the record,
    # in compare or in oracle_has_group_inverse, never from index_of
    assert not hasattr(antitri.oracle, "index_of")
    assert not hasattr(antitri.sweep, "index_of")
    calls = []
    inner = antitri.oracle.drazin

    def counted(a, tol):
        calls.append(a.shape)
        return inner(a, tol)

    monkeypatch.setattr(antitri.oracle, "drazin", counted)
    for tid in THEOREM_IDS:
        calls.clear()
        summary = run_sweep(tid, count=8)
        assert summary.passed and len(calls) == len(summary.records) == 8, tid


def test_nmax_below_one_is_rejected(deadline):
    # nmax = 0 used to end in ZeroDivisionError inside the instance cycle
    for nmax in (0, -1):
        with pytest.raises(ValueError, match="nmax"):
            run_sweep("thm31", count=2, nmax=nmax)
        with pytest.raises(ValueError, match="nmax"):
            existence_sweep("thm31", count=2, nmax=nmax)
