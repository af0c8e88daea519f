"""Command-line front end.

Matrices travel in a JSON format with explicit [re, im] entry pairs:

    {"rows": 2, "cols": 2, "data": [[[1.0, 0.0], [0.0, 1.0]],
                                    [[0.0, 0.0], [2.5, -1.0]]]}

Commands: ``drazin`` (generalized inverse of one matrix), ``block``
(run a block formula, optionally verified against the oracle), ``gen``
(write a generated instance pair), ``sweep`` (batch formula-vs-oracle
runs).  Each command returns (exit code, command echo, inputs digest,
fields); :func:`main` wraps them in one report, {"command",
"inputs_digest", **fields, "wall_time_s"}, written to stdout as JSON.

Exit codes: 0 success/verified; 1 hypothesis or verification failure
(with ``--verify``, a no-group-inverse outcome the oracle contradicts
too); 2 no-group-inverse outcome (with ``--verify``, one the oracle
confirms); 3 I/O, malformed input, a usage error, or a report holding
a value that strict JSON cannot carry (NaN, inf).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import fields

import numpy as np

from .conditions import (
    GeneratorRecipe,
    InfeasibleRecipeError,
    PATTERN_FOR,
    THEOREM_IDS,
    _row_report,
    check_conditions,
    example_45,
    generate,
)
from .core import DEFAULT_TOL, matrix
from .formulas import BlockPair, BlockResult, HypothesisError, NoGroupInverse, _holder, _run
from .geninv import drazin, verify_drazin_axioms
from .oracle import COMPARE_TOL, check_compare_tol, compare
from .sweep import run_sweep

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NO_GROUP = 2
EXIT_IO = 3


class InputError(Exception):
    pass


def matrix_to_json(a: np.ndarray) -> dict:
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[[float(z.real), float(z.imag)] for z in row] for row in a],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"malformed matrix object: {err}") from None
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise InputError("malformed matrix object: data must be a list of rows")
    if rows < 1 or cols < 1:
        raise InputError("rows and cols must be positive")
    if len(data) != rows or any(len(r) != cols for r in data):
        raise InputError("data dimensions do not match rows/cols")
    try:
        values = [[complex(c[0], c[1]) for c in row] for row in data]
        return matrix(values)
    except (TypeError, IndexError, ValueError) as err:
        raise InputError(f"malformed matrix entries: {err}") from None


def read_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from None
    return matrix_from_json(obj)


def write_matrix(path: str, a: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(a), fh)
        fh.write("\n")


def _digest(*mats: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in mats:
        h.update(json.dumps(matrix_to_json(a), sort_keys=True).encode())
    return h.hexdigest()


def _emit(rep: dict) -> None:
    """Write the report as strict JSON; ValueError, before any output, on a NaN or inf."""
    text = json.dumps(rep, indent=2, allow_nan=False)
    sys.stdout.write(text + "\n")


def _result_json(result) -> dict:
    if isinstance(result, NoGroupInverse):
        return {"no_group_inverse": {"failed": list(result.failed), "residuals": result.residuals}}
    extra = "truncation" if isinstance(result, BlockResult) else "diagnostics"
    return {
        "kind": result.kind.value,
        "pattern": result.pattern.value,
        # either answer class keeps its four blocks in its first four fields
        "blocks": {b.name: matrix_to_json(getattr(result, b.name)) for b in fields(result)[:4]},
        extra: getattr(result, extra),
    }


def cmd_drazin(args):
    a = read_matrix(args.input)
    r = drazin(a, args.tol)
    axioms = verify_drazin_axioms(a, r.drazin, r.index, args.tol)
    result = {
        "drazin": matrix_to_json(r.drazin),
        "index": r.index,
        "idempotent": matrix_to_json(r.idempotent),
        "residuals": [e.residual for e in axioms.entries],
    }
    return EXIT_OK, ["drazin", args.input], _digest(a), {"result": result}


def cmd_block(args):
    if args.verify:  # before the formula runs, so a refused pair cannot hide a bad value
        check_compare_tol(args.compare_tol, "--compare-tol")
    if args.fixture == "example45":
        pair = example_45()
        e, f = pair.E, pair.F
    elif args.E and args.F:
        e, f = read_matrix(args.E), read_matrix(args.F)
    else:
        raise InputError("provide E and F paths, or --fixture example45")
    theorem = args.theorem
    digest = _digest(e, f)
    echo = ["block", "--theorem", theorem]
    d = _holder(theorem, e, f, args.tol, args.lam)  # one holder: each Drazin datum is computed once
    conditions = _row_report(d, theorem)
    try:
        result = _run(d, theorem)
    except HypothesisError as err:
        error = {"hypothesis": str(err), "residuals": err.residuals}
        return EXIT_FAIL, echo, digest, {"conditions": conditions.to_dict(), "error": error}
    fields = {"conditions": conditions.to_dict(), "result": _result_json(result)}
    code = EXIT_NO_GROUP if isinstance(result, NoGroupInverse) else EXIT_OK
    if args.verify:
        pair = BlockPair(E=e, F=f, pattern=PATTERN_FOR[theorem])
        verdict = compare(result, pair, args.compare_tol, args.tol)
        fields["verification"] = {
            "relative_error": verdict.relative_error,
            "tolerance": args.compare_tol,
            "pass": verdict.passed,
            "oracle_index": verdict.oracle_index,
            "axioms": None if verdict.axioms is None else verdict.axioms.to_dict(),
        }
        code = code if verdict.passed else EXIT_FAIL
    return code, echo, digest, fields


def cmd_gen(args):
    recipe = GeneratorRecipe(
        theorem_id=args.theorem, dimension=args.n, seed=args.seed, violate=args.violate
    )
    try:
        pair = generate(recipe)
    except (InfeasibleRecipeError, KeyError) as err:
        raise InputError(str(err)) from None
    write_matrix(args.e_out, pair.E)
    write_matrix(args.f_out, pair.F)
    conditions = check_conditions(pair.E, pair.F, args.theorem, args.tol)
    echo = ["gen", args.theorem, f"n={args.n}", f"seed={args.seed}", f"violate={args.violate}"]
    fields = {
        "conditions": conditions.to_dict(),
        "outputs": {"E": args.e_out, "F": args.f_out, "pattern": pair.pattern.value},
    }
    return EXIT_OK, echo, _digest(pair.E, pair.F), fields


def cmd_sweep(args):
    ids = THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    summaries = []
    ok = True
    for tid in ids:
        s = run_sweep(
            tid,
            count=args.count,
            nmax=args.nmax,
            seed=args.seed,
            tol=args.tol,
            compare_tol=args.compare_tol,
        )
        ok = ok and s.passed
        summaries.append(
            {
                "theorem": tid,
                "count": s.count,
                "max_relative_error": s.max_relative_error,
                "failures": s.failures,
                "pass": s.passed,
            }
        )
    return (EXIT_OK if ok else EXIT_FAIL), ["sweep", *ids], "-", {"summary": summaries}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_IO: argparse's own code, 2, means no group inverse here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="antitri",
        description="Generalized inverses of anti-triangular block matrices, with oracle verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("drazin", help="Drazin inverse, index and spectral idempotent of one matrix")
    p.add_argument("input", help="path to a matrix JSON file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_drazin)

    p = sub.add_parser("block", help="run a block formula on (E, F)")
    p.add_argument("E", nargs="?", help="path to the E matrix file")
    p.add_argument("F", nargs="?", help="path to the F matrix file")
    p.add_argument("--theorem", required=True, choices=sorted(PATTERN_FOR))
    p.add_argument("--fixture", choices=["example45"], default=None)
    p.add_argument("--verify", action="store_true", help="compare against the brute-force oracle")
    p.add_argument("--lam", type=complex, default=None, help="scalar for the EF = lam FE hypothesis")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--compare-tol", type=float, default=COMPARE_TOL)
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("gen", help="generate a hypothesis-satisfying (E, F) pair")
    p.add_argument("e_out", help="output path for E")
    p.add_argument("f_out", help="output path for F")
    p.add_argument("--theorem", required=True, choices=sorted(PATTERN_FOR))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--violate", default=None, help="clause name to break deliberately")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="batch generated instances through formula + oracle")
    p.add_argument("--theorem", default="all", choices=("all", *sorted(PATTERN_FOR)))
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--compare-tol", type=float, default=COMPARE_TOL)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code, echo, digest, fields = args.func(args)
        wall = time.perf_counter() - started
        _emit({"command": echo, "inputs_digest": digest, **fields, "wall_time_s": wall})
        return code
    except (InputError, ValueError, OverflowError) as err:  # ShapeError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
