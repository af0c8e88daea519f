"""Batch verification sweeps: generated instances vs the oracle."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .conditions import GeneratorRecipe, InfeasibleRecipeError, example_45, generate
from .core import DEFAULT_TOL
from .formulas import REGISTRY, HypothesisError, NoGroupInverse, apply_formula
from .oracle import COMPARE_TOL, check_compare_tol, compare, oracle_has_group_inverse


@dataclass(frozen=True)
class SweepRecord:
    seed: int
    dimension: int
    relative_error: float | None  # None for a NoGroupInverse or a refusal
    passed: bool
    oracle_index: int
    no_group: bool


@dataclass(frozen=True)
class SweepSummary:
    theorem_id: str
    count: int
    max_relative_error: float
    failures: int
    records: tuple[SweepRecord, ...] = field(repr=False, default=())

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _instances(theorem_id: str, violate: str | None, seed: int, nmax: int):
    """(seed, n, pair) for seeds seed, seed + 1, ... with n = 1 + seed % nmax.

    Seeds whose recipe is infeasible are skipped; nmax of them in a row
    cover every dimension once, so the recipe can never be met and
    InfeasibleRecipeError is raised, quoting the generator's last reason.
    """
    misses = 0
    for inst_seed in itertools.count(seed):
        n = 1 + (inst_seed % nmax)
        try:
            pair = generate(GeneratorRecipe(theorem_id, n, inst_seed, violate=violate))
        except InfeasibleRecipeError as err:
            misses += 1
            if misses == nmax:
                raise InfeasibleRecipeError(
                    f"{theorem_id} violate={violate}: no instance at any n in 1..{nmax} (last: {err})"
                ) from None
            continue
        misses = 0
        yield inst_seed, n, pair


def run_sweep(
    theorem_id: str,
    count: int = 200,
    nmax: int = 4,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    compare_tol: float = COMPARE_TOL,
    violate: str | None = None,
) -> SweepSummary:
    """Generate ``count`` instances and judge each formula outcome by the oracle.

    Dimensions cycle through 1..nmax.  For the identical-subblock
    formula the golden fixture is instance 0.  An instance passes when
    :func:`compare` passes the formula's outcome, blocks or
    NoGroupInverse.  With ``violate`` set, a formula that refuses the
    pair with HypothesisError passes with no error recorded.  Each
    instance costs one Drazin inverse of the assembled M: in
    :func:`compare` when the formula answers, in
    :func:`oracle_has_group_inverse` when it refuses; either gives the
    recorded ``oracle_index``.  An unknown id raises KeyError; count < 0,
    nmax < 1, seed < 0 or a compare_tol outside [0, inf) raises
    ValueError (for thm41 too, whose first instance is not generated);
    a ``violate`` outside the formula's clauses, and a recipe that no
    dimension can meet, raise InfeasibleRecipeError.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    check_compare_tol(compare_tol, "compare_tol")
    clauses = REGISTRY[theorem_id].clauses
    if violate not in (None, *clauses):
        raise InfeasibleRecipeError(
            f"{theorem_id}: unknown clause {violate!r}; its clauses are {', '.join(clauses)}"
        )
    instances = _instances(theorem_id, violate, seed, nmax)
    if theorem_id == "thm41" and violate is None:
        golden = [(seed, 2, example_45())]
        instances = itertools.chain(golden, _instances(theorem_id, None, seed + 1, nmax))
    records = []
    for inst_seed, n, pair in itertools.islice(instances, count):
        try:
            result = apply_formula(theorem_id, pair.E, pair.F, tol=tol)
        except HypothesisError:
            if violate is None:
                raise
            # a caught broken hypothesis passes; the oracle still reads ind(M)
            record = SweepRecord(inst_seed, n, None, True, oracle_has_group_inverse(pair, tol)[1], False)
        else:
            v = compare(result, pair, compare_tol, tol)
            no_group = isinstance(result, NoGroupInverse)
            record = SweepRecord(inst_seed, n, v.relative_error, v.passed, v.oracle_index, no_group)
        records.append(record)
    return SweepSummary(
        theorem_id=theorem_id,
        count=count,
        max_relative_error=max((r.relative_error or 0.0 for r in records), default=0.0),
        failures=sum(not r.passed for r in records),
        records=tuple(records),
    )


def existence_sweep(
    theorem_id: str, count: int = 50, nmax: int = 4, seed: int = 10_000, tol: float = DEFAULT_TOL
) -> tuple[int, int]:
    """(agreements, total) between formula nonexistence and oracle index >= 2.

    Runs :func:`run_sweep` with the formula's existence clause violated;
    every instance must yield a NoGroupInverse verdict matching an
    oracle index >= 2.  A formula that refuses the pair with
    HypothesisError counts as a disagreement.
    """
    clause = REGISTRY[theorem_id].existence
    if clause is None:
        raise KeyError(f"{theorem_id} has no existence clause that can fail on its own")
    records = run_sweep(theorem_id, count, nmax, seed, tol, violate=clause).records
    return sum(r.no_group and r.oracle_index >= 2 for r in records), len(records)
