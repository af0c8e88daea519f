"""Generalized inverses for dense complex matrices.

Drazin/group inverse core, closed-form block representations for
anti-triangular block matrices ([[E,I],[F,0]], [[E,F],[I,0]] and the
identical-subblock pattern [[E,F],[F,0]]), hypothesis checkers and
seeded instance generators, and a brute-force oracle that verifies
every formula against the Drazin inverse of the assembled matrix.

``import antitri`` executes none of its modules.  Each module in
``_PUBLIC`` is registered in ``sys.modules`` through
:class:`importlib.util.LazyLoader` and executes on first attribute
access; the module ``__getattr__`` below resolves the public names that
``_PUBLIC`` lists for it, so ``antitri.X``, ``from antitri import X``
and ``antitri.formulas`` work as if they had been imported eagerly.
"""

import importlib.util
import sys

_PUBLIC = {  # module -> its public names
    "core": (
        "COMPARE_TOL",
        "DEFAULT_TOL",
        "RankFactorization",
        "ShapeError",
        "SingularMatrixError",
        "diag",
        "frobenius_norm",
        "identity",
        "invert",
        "matrix",
        "matrix_power",
        "rank",
        "rank_factorize",
        "solve",
        "zeros",
    ),
    "geninv": (
        "DrazinResult",
        "NoGroupInverseError",
        "drazin",
        "group_inverse",
        "index_of",
        "spectral_idempotent",
        "verify_drazin_axioms",
    ),
    "reports": (
        "ConditionEntry",
        "ConditionReport",
    ),
    "formulas": (
        "BlockPair",
        "BlockResult",
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
    "oracle": (
        "ComparisonVerdict",
        "assemble",
        "compare",
        "oracle_inverse",
    ),
    "sweep": (
        "SweepSummary",
        "existence_sweep",
        "run_sweep",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}  # name -> module name
__all__ = sorted(_HOME)


def _lazy(name: str):
    """Register ``antitri.<name>`` in sys.modules; it executes on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


globals().update({module: _lazy(module) for module in _PUBLIC})


def __getattr__(name: str):
    """A public name of a lazily loaded module: loads it, then keeps the name here."""
    try:
        module = globals()[_HOME[name]]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    """What this module holds and every public name, without loading a module."""
    return sorted({*globals(), *__all__})
