"""The benchmark's checker still reads the formulas' answers.

``bench/workloads.py`` reads a group answer as ``formulas.GroupFormulaBlocks``
with blocks ``Gamma``..``Xi``, and any other answer as ``tl``..``br``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from antitri import GeneratorRecipe, NoGroupInverse, apply_formula, assemble, generate  # noqa: E402


@pytest.mark.parametrize("tid, violate", [("thm25", None), ("thm41", None), ("thm31", "EpiFpi")])
def test_workloads_judge_passes_each_kind_of_answer(tid, violate):
    pair = generate(GeneratorRecipe(tid, 3, 0, violate=violate))
    out = apply_formula(tid, pair.E, pair.F)
    assert isinstance(out, NoGroupInverse) == (violate is not None)
    verdict = workloads.judge(out, assemble(pair))
    assert verdict.ok, verdict.why
