"""Command-line front end.

Matrices travel in a JSON format with explicit [re, im] entry pairs:

    {"rows": 2, "cols": 2, "data": [[[1.0, 0.0], [0.0, 1.0]],
                                    [[0.0, 0.0], [2.5, -1.0]]]}

Commands: ``drazin`` (generalized inverse of one matrix), ``block``
(run a block formula, optionally verified against the oracle), ``gen``
(write a generated instance pair), ``sweep`` (batch formula-vs-oracle
runs).  Reports are emitted to stdout as JSON.

Exit codes: 0 success/verified; 1 hypothesis or verification failure;
2 no-group-inverse outcome; 3 I/O or malformed input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from .conditions import (
    GeneratorRecipe,
    InfeasibleRecipeError,
    PATTERN_FOR,
    THEOREM_IDS,
    check_conditions,
    example_45,
    generate,
)
from .core import ShapeError, matrix
from .formulas import (
    BlockPair,
    BlockResult,
    GroupFormulaBlocks,
    HypothesisError,
    NoGroupInverse,
    Pattern,
    apply_formula,
)
from .geninv import drazin
from .oracle import COMPARE_TOL, compare
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


def _report(args_echo, digest, started, **fields) -> dict:
    rep = {"command": args_echo, "inputs_digest": digest}
    rep.update(fields)
    rep["wall_time_s"] = time.perf_counter() - started
    return rep


def _emit(rep: dict) -> None:
    json.dump(rep, sys.stdout, indent=2, default=_json_default)
    sys.stdout.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _result_json(result) -> dict:
    if isinstance(result, BlockResult):
        return {
            "kind": result.kind.value,
            "pattern": result.pattern.value,
            "blocks": {
                "tl": matrix_to_json(result.tl),
                "tr": matrix_to_json(result.tr),
                "bl": matrix_to_json(result.bl),
                "br": matrix_to_json(result.br),
            },
            "truncation": result.truncation,
            "diagnostics": result.diagnostics,
        }
    if isinstance(result, GroupFormulaBlocks):
        return {
            "kind": result.kind.value,
            "pattern": result.pattern.value,
            "blocks": {
                "Gamma": matrix_to_json(result.Gamma),
                "Delta": matrix_to_json(result.Delta),
                "Lambda": matrix_to_json(result.Lambda),
                "Xi": matrix_to_json(result.Xi),
            },
            "diagnostics": result.diagnostics,
        }
    return {
        "no_group_inverse": {"failed": list(result.failed), "residuals": result.residuals}
    }


def cmd_drazin(args) -> int:
    started = time.perf_counter()
    a = read_matrix(args.input)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"drazin needs a square matrix, got {a.shape}")
    r = drazin(a, args.tol)
    _emit(
        _report(
            ["drazin", args.input],
            _digest(a),
            started,
            result={
                "drazin": matrix_to_json(r.drazin),
                "index": r.index,
                "idempotent": matrix_to_json(r.idempotent),
                "residuals": list(r.residuals),
            },
        )
    )
    return EXIT_OK


def _parse_lam(text):
    if text is None:
        return None
    try:
        return complex(text)
    except ValueError:
        raise InputError(f"cannot parse --lam value {text!r}") from None


def cmd_block(args) -> int:
    started = time.perf_counter()
    if args.fixture == "example45":
        pair = example_45()
        e, f = pair.E, pair.F
    elif args.E and args.F:
        e, f = read_matrix(args.E), read_matrix(args.F)
    else:
        raise InputError("provide E and F paths, or --fixture example45")
    theorem = args.theorem
    if theorem not in PATTERN_FOR:
        raise InputError(f"unknown theorem id {theorem!r}")
    pattern = PATTERN_FOR[theorem]
    if args.pattern and Pattern(args.pattern) is not pattern:
        raise InputError(f"{theorem} computes inverses for pattern {pattern.value}")
    lam = _parse_lam(args.lam)
    digest = _digest(e, f)
    echo = ["block", "--theorem", theorem]
    try:
        conditions = check_conditions(e, f, theorem, args.tol, lam=lam)
    except ValueError as err:
        raise InputError(str(err)) from None
    try:
        result = apply_formula(theorem, e, f, tol=args.tol, lam=lam)
    except HypothesisError as err:
        _emit(
            _report(
                echo,
                digest,
                started,
                conditions=conditions.to_dict(),
                error={"hypothesis": str(err), "residuals": err.residuals},
            )
        )
        return EXIT_FAIL
    fields = {"conditions": conditions.to_dict(), "result": _result_json(result)}
    if isinstance(result, NoGroupInverse):
        _emit(_report(echo, digest, started, **fields))
        return EXIT_NO_GROUP
    if args.verify:
        verdict = compare(
            result, BlockPair(E=e, F=f, pattern=pattern), args.compare_tol, args.tol
        )
        fields["verification"] = {
            "relative_error": verdict.relative_error,
            "tolerance": verdict.tolerance,
            "pass": verdict.passed,
            "oracle_index": verdict.oracle_index,
            "axioms": verdict.axioms.to_dict(),
        }
        _emit(_report(echo, digest, started, **fields))
        return EXIT_OK if verdict.passed else EXIT_FAIL
    _emit(_report(echo, digest, started, **fields))
    return EXIT_OK


def cmd_gen(args) -> int:
    started = time.perf_counter()
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
    _emit(
        _report(
            ["gen", args.theorem, f"n={args.n}", f"seed={args.seed}", f"violate={args.violate}"],
            _digest(pair.E, pair.F),
            started,
            conditions=conditions.to_dict(),
            outputs={"E": args.e_out, "F": args.f_out, "pattern": pair.pattern.value},
        )
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    ids = THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    for tid in ids:
        if tid not in PATTERN_FOR:
            raise InputError(f"unknown theorem id {tid!r}")
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
    _emit(_report(["sweep"] + list(ids), "-", started, summary=summaries))
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antitri",
        description="Generalized inverses of anti-triangular block matrices, with oracle verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("drazin", help="Drazin inverse, index and spectral idempotent of one matrix")
    p.add_argument("input", help="path to a matrix JSON file")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_drazin)

    p = sub.add_parser("block", help="run a block formula on (E, F)")
    p.add_argument("E", nargs="?", help="path to the E matrix file")
    p.add_argument("F", nargs="?", help="path to the F matrix file")
    p.add_argument("--theorem", required=True, choices=sorted(PATTERN_FOR))
    p.add_argument("--pattern", choices=[pt.value for pt in Pattern], default=None)
    p.add_argument("--fixture", choices=["example45"], default=None)
    p.add_argument("--verify", action="store_true", help="compare against the brute-force oracle")
    p.add_argument("--lam", default=None, help="scalar for the EF = lam FE hypothesis")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--compare-tol", type=float, default=COMPARE_TOL)
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("gen", help="generate a hypothesis-satisfying (E, F) pair")
    p.add_argument("e_out", help="output path for E")
    p.add_argument("f_out", help="output path for F")
    p.add_argument("--theorem", required=True, choices=sorted(PATTERN_FOR))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--violate", default=None, help="clause name to break deliberately")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="batch generated instances through formula + oracle")
    p.add_argument("--theorem", default="all")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--compare-tol", type=float, default=COMPARE_TOL)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except ShapeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
