import signal

import pytest

from antitri import InfeasibleRecipeError, existence_sweep, run_sweep


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
