"""Batch verification sweeps: generated instances vs the oracle."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .conditions import GeneratorRecipe, InfeasibleRecipeError, example_45, generate
from .formulas import REGISTRY, HypothesisError, InverseKind, NoGroupInverse, apply_formula
from .oracle import COMPARE_TOL, compare, oracle_has_group_inverse


@dataclass(frozen=True)
class SweepRecord:
    seed: int
    dimension: int
    relative_error: float | None  # None when both sides agree on nonexistence
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
    InfeasibleRecipeError is raised.
    """
    misses = 0
    for inst_seed in itertools.count(seed):
        n = 1 + (inst_seed % nmax)
        try:
            pair = generate(GeneratorRecipe(theorem_id, n, inst_seed, violate=violate))
        except InfeasibleRecipeError:
            misses += 1
            if misses == nmax:
                raise InfeasibleRecipeError(
                    f"{theorem_id} violate={violate}: no instance at any n in 1..{nmax}"
                ) from None
            continue
        misses = 0
        yield inst_seed, n, pair


def run_sweep(
    theorem_id: str,
    count: int = 200,
    nmax: int = 4,
    seed: int = 0,
    tol: float = 1e-10,
    compare_tol: float = COMPARE_TOL,
    violate: str | None = None,
) -> SweepSummary:
    """Generate ``count`` instances and compare the formula with the oracle.

    Dimensions cycle through 1..nmax.  For the identical-subblock
    formula the golden fixture is instance 0.  An instance passes when
    the formula blocks match the oracle within ``compare_tol`` relative
    Frobenius error, or when formula and oracle agree that no group
    inverse exists.  With ``violate`` set, agreement of the two
    nonexistence verdicts is what is being swept, and a formula that
    refuses the pair with HypothesisError passes with no error recorded.
    Each instance costs one Drazin inverse of the assembled M: in
    :func:`compare` when the formula returns blocks, in
    :func:`oracle_has_group_inverse` otherwise; either gives the
    recorded ``oracle_index``.  An unknown id raises KeyError; count < 0,
    nmax < 1, seed < 0 or a compare_tol outside [0, inf) raises
    ValueError (for thm41 too, whose first instance is not generated);
    and a recipe that no dimension can meet raises InfeasibleRecipeError.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    if not 0 <= compare_tol < math.inf:
        raise ValueError(f"compare_tol must be finite and >= 0, got {compare_tol}")
    group = REGISTRY[theorem_id].kind is InverseKind.GROUP
    instances = _instances(theorem_id, violate, seed, nmax)
    if theorem_id == "thm41" and violate is None:
        golden = [(seed, 2, example_45())]
        instances = itertools.chain(golden, _instances(theorem_id, None, seed + 1, nmax))
    records = []
    max_err = 0.0
    failures = 0
    for inst_seed, n, pair in itertools.islice(instances, count):
        try:
            result = apply_formula(theorem_id, pair.E, pair.F, tol=tol)
        except HypothesisError:
            if violate is None:
                raise
            result = None
        rel = None
        if result is None or isinstance(result, NoGroupInverse):
            oracle_group_ok, oracle_index = oracle_has_group_inverse(pair, tol)
            ok = result is None or not oracle_group_ok  # a caught broken hypothesis passes
        else:
            verdict = compare(result, pair, compare_tol, tol)
            oracle_index = verdict.oracle_index
            ok = verdict.passed
            if violate is not None and group:
                # a violated existence clause must be caught, not silently inverted
                ok = ok and oracle_index <= 1
                rel = 0.0 if ok else None
            else:
                rel = verdict.relative_error
                max_err = max(max_err, rel)
        if not ok:
            failures += 1
        records.append(
            SweepRecord(
                seed=inst_seed,
                dimension=n,
                relative_error=rel,
                passed=ok,
                oracle_index=oracle_index,
                no_group=isinstance(result, NoGroupInverse),
            )
        )
    return SweepSummary(
        theorem_id=theorem_id,
        count=count,
        max_relative_error=max_err,
        failures=failures,
        records=tuple(records),
    )


def existence_sweep(
    theorem_id: str, count: int = 50, nmax: int = 4, seed: int = 10_000, tol: float = 1e-10
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
