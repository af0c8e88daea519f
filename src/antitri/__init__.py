"""Generalized inverses for dense complex matrices.

Drazin/group inverse core, closed-form block representations for
anti-triangular block matrices ([[E,I],[F,0]], [[E,F],[I,0]] and the
identical-subblock pattern [[E,F],[F,0]]), hypothesis checkers and
seeded instance generators, and a brute-force oracle that verifies
every formula against the Drazin inverse of the assembled matrix.

``import antitri`` executes only ``core``, ``geninv`` and ``reports``,
which is all that a Drazin inverse of one matrix needs.  ``formulas``,
``conditions``, ``oracle`` and ``sweep`` are registered in
``sys.modules`` through :class:`importlib.util.LazyLoader` and execute
on first attribute access; the module ``__getattr__`` below resolves
their public names, so ``antitri.X``, ``from antitri import X`` and
``antitri.formulas`` work as if they had been imported eagerly.
"""

import importlib.util
import sys

from .core import (
    COMPARE_TOL,
    DEFAULT_TOL,
    RankFactorization,
    ShapeError,
    SingularMatrixError,
    diag,
    frobenius_norm,
    identity,
    invert,
    matrix,
    matrix_power,
    rank,
    rank_factorize,
    solve,
    zeros,
)
from .geninv import (
    DrazinResult,
    NoGroupInverseError,
    drazin,
    group_inverse,
    index_of,
    spectral_idempotent,
    verify_drazin_axioms,
)
from .reports import ConditionEntry, ConditionReport


def _lazy(name: str):
    """Register ``antitri.<name>`` in sys.modules; it executes on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


formulas = _lazy("formulas")
conditions = _lazy("conditions")
oracle = _lazy("oracle")
sweep = _lazy("sweep")

_LAZY_NAMES = {
    "formulas": (
        "BlockPair",
        "BlockResult",
        "GroupFormulaBlocks",
        "HypothesisError",
        "InverseKind",
        "NoGroupInverse",
        "Pattern",
        "apply_formula",
        "cline",
        "cor26",
        "cor32_group",
        "cor34_group",
        "cor35_group",
        "cor42_group",
        "cor43_group",
        "cor44_group",
        "lemma21_triangular",
        "lemma22_additive",
        "lemma24_additive",
        "thm23",
        "thm25",
        "thm27",
        "thm31_group",
        "thm33_group",
        "thm41_group",
    ),
    "conditions": (
        "GeneratorRecipe",
        "InfeasibleRecipeError",
        "PATTERN_FOR",
        "THEOREM_IDS",
        "check_conditions",
        "example_45",
        "generate",
    ),
    "oracle": ("ComparisonVerdict", "assemble", "compare", "oracle_inverse"),
    "sweep": ("SweepSummary", "existence_sweep", "run_sweep"),
}
_HOME = {name: module for module, names in _LAZY_NAMES.items() for name in names}  # name -> module name


def __getattr__(name: str):
    """A public name of a lazily loaded module: loads it, then keeps the name here."""
    try:
        module = globals()[_HOME[name]]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(module, name)
    return value


__all__ = [
    "COMPARE_TOL",
    "DEFAULT_TOL",
    "BlockPair",
    "BlockResult",
    "ComparisonVerdict",
    "ConditionEntry",
    "ConditionReport",
    "DrazinResult",
    "GeneratorRecipe",
    "GroupFormulaBlocks",
    "HypothesisError",
    "InfeasibleRecipeError",
    "InverseKind",
    "NoGroupInverse",
    "NoGroupInverseError",
    "PATTERN_FOR",
    "Pattern",
    "RankFactorization",
    "ShapeError",
    "SingularMatrixError",
    "SweepSummary",
    "THEOREM_IDS",
    "apply_formula",
    "assemble",
    "check_conditions",
    "cline",
    "compare",
    "cor26",
    "cor32_group",
    "cor34_group",
    "cor35_group",
    "cor42_group",
    "cor43_group",
    "cor44_group",
    "diag",
    "drazin",
    "example_45",
    "existence_sweep",
    "frobenius_norm",
    "generate",
    "group_inverse",
    "identity",
    "index_of",
    "invert",
    "lemma21_triangular",
    "lemma22_additive",
    "lemma24_additive",
    "matrix",
    "matrix_power",
    "oracle_inverse",
    "rank",
    "rank_factorize",
    "run_sweep",
    "solve",
    "spectral_idempotent",
    "thm23",
    "thm25",
    "thm27",
    "thm31_group",
    "thm33_group",
    "thm41_group",
    "verify_drazin_axioms",
    "zeros",
]
